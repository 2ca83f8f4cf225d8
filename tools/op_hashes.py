"""One sha256 per benchmark op, to check that a change keeps every output.

    python3 tools/op_hashes.py CHECKOUT > hashes.txt

Imports ``perfbench/workloads.py`` and the package under ``src/`` of the
git checkout CHECKOUT, and writes nothing inside it.  Every op of the three
workload plans runs once at seed 7, each workload in its own subdirectory
of a fresh temporary directory, removed at the end, so two runs (say parent
and change) can go side by side.  ``unexpected`` echoes its output paths,
so the work directory's path is replaced by one fixed placeholder, WORK,
in stdout, stderr and the written files before they are hashed.  Each line
is ``workload<TAB>op label<TAB>sha256``; the hash covers the exit code,
stdout, stderr and the files the op writes (a library op: the repr of its
result, or its exception).  Run it once per checkout and diff the lines;
``tests/test_op_hashes.py`` runs it on the working tree against the lines
kept in ``tests/golden/op_hashes.txt``.

After the workload plans come the ops of ``extra_ops`` (workload column
``extra``), larger than any benchmark rung: ``unexpected`` on the pair and
the triple of smooth branches at N = 20 and 30, and ``germ --trace`` on two
-2 chains of 4000 vertices.  Small ones cover code no workload runs:
``extend`` on the pair graph, ``auts`` on the extended graph,
``inside-out`` at one hole of the generic arrangement of
EXTRA_ARRANGEMENT_M lines, one strand each, and ``validate`` on a ``.wire``
whose ``seq`` leaves braid words out (it starts with an event, has two
events in a row and ends with one).  Error ops follow: ``validate`` on a
3-strand ``.wire`` per ``seq`` of SEQ_FAULTS (an empty entry, two words in
a row, a bad token, and their precedence) and of RANGE_FAULTS (each kind
of event, and a braid letter, outside the strands), ``wire-from-vanishing``
on each 3-hole factorization of FACT_FAULTS (a conjugator letter 5 or 0,
an arc base and a curve base outside the holes, a twists vector of the
wrong length, nonzero twists, which have no diagram form, and an arc
with span 7), ``auts`` on the two graphs of NOT_TREES that are no trees, and ``germ`` on
a graph whose blow-down stalls.  Last come braid equalities past the ladder: ``braid_equal`` on the
boundary braid of the generic arrangement of m lines, for each m of
EXTRA_EQUAL_M, against a copy with s1 s2 s1 s2' s1' s2' conjugated into
its middle (the same braid) and a copy with s1^2 there (another braid).
m stops at 24: checkouts that decide equality by two Garside normal forms
take about half a second per normal form there.  Then ``vanishing`` on the
generic arrangement of m lines for each m of EXTRA_VANISHING_M, the
paper's sizes, and ``wire-from-vanishing`` on its output.  Last, ``render``
on two diagrams that no workload renders: the Scott layout of the
two-cusp germ, the one hashed render that draws tangencies, and the
``.wire`` that ``unexpected`` writes for the pair at N = 1 (9 strands).
Then ``validate`` on a ``.wire`` with a byte that is not UTF-8, and on
one whose components do not partition its strands, and ``compare`` with
one ``--wire``.  The very last are two ``compare --unlabeled`` that search
for a row bijection, on the generic arrangement of EXTRA_ARRANGEMENT_M
lines: a "yes" against a copy with its labels reversed, both with one
double point dropped (with all of them kept, the canonical forms agree
and no search runs), and a "no" against a copy with one free point moved
from the top strand to the bottom one.  After them, ``incidence`` and
``inside-out`` on a ``.wire`` whose tangency joins two declared components
(SPLIT_WIRE), which ``validate`` alone rejects, and ``wire-from-vanishing``
on each factorization document of SHAPE_FAULTS, whose shape is wrong.
Then ``validate --germ`` ops that reach each germ-check outcome no
workload reaches: the generic arrangement of EXTRA_ARRANGEMENT_M lines
written without its ``components`` line, so its labels are inferred and an
assignment is searched for, against its germ (a "yes"), the same with one
free point moved from the top strand to the bottom (no assignment), and
each ``.wire`` of GERM_FAULTS against the germ it names in GERMS.  Then
``scott`` on NO_LAYOUT, a valid cluster with no unbraided layout, and
``wire-from-vanishing`` on each document of HOLES_FAULTS, whose hole count
is below 1.

Last comes one line per workload, ``workload<TAB>counts<TAB>name=value
...``, with the count metrics of ``perfbench/tracing.PER_LAYER`` over one
pass of the plan's ops: a fresh import and a fresh plan with
``tracing.Tracer`` installed, as ``perfbench/run.py --trace 1`` traces a
pass, except that ``cli.out_bytes`` counts stdout and the written files
after the WORK substitution, so the length of the work path does not move
it.  Together the ops take a few seconds.  The output is 226 lines: 159 for
the workload plans, 64 extra and 3 of counts."""

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

SEED = 7
WORK = b"WORK"  # stands for the work directory in every hashed output
EXTRA_N = (20, 30)
EXTRA_CHAIN_L = 4000
EXTRA_ARRANGEMENT_M = 8
EXTRA_EQUAL_M = (16, 24)
EXTRA_VANISHING_M = (24, 40)
SEQ_FAULTS = ("s1, T(1), , s1", "s1, T(1), s1, s1 x", "T(1), s1 x, s2", "1, 1", "s1 s2 q")
RANGE_FAULTS = ("T(3)", "I(2..2)", "I(3..2)", "F(4)", "s3")
FACT_FAULTS = {
    "letter 5 on 3 holes": [{"kind": "cycle", "start": 1}, {"kind": "arc", "start": 1, "conjugator": [2, 5]}],
    "arc base outside": [{"kind": "cycle", "start": 1}, {"kind": "arc", "start": 3}],
    "curve base outside": [{"kind": "cycle", "start": 2, "span": 2}],
    "letter 0": [{"kind": "cycle", "start": 1, "span": 1, "conjugator": [1, 0]}],
    "twists of the wrong length": [{"kind": "arc", "start": 1, "twists": [0, 0, 0]}],
    "nonzero twists": [{"kind": "cycle", "start": 1}, {"kind": "arc", "start": 2, "twists": [1, 0, 0, -1]}],
    "arc span 7": [{"kind": "cycle", "start": 1}, {"kind": "arc", "start": 1, "span": 7}],
}
SHAPE_FAULTS = {
    "top level a list": [1, 2],
    "top level a string": "x",
    "no holes": {"items": []},
    "item 1": {"holes": 3, "items": [1]},
    "arc with no start": {"holes": 3, "items": [{"kind": "arc"}]},
    "conjugator 5": {"holes": 3, "items": [{"kind": "arc", "start": 1, "conjugator": 5}]},
}
SPLIT_WIRE = "strands 3\ncomponents A=1 B=2 C=3\nseq: 1, T(1), 1, F(3), 1\n"
GERMS = {
    # vertex v -4 with curvettas a, b, c: three smooth branches of weight 2, pairwise 1
    "v4": "branch a b c\npoint p parent root\npoint qa parent p\npoint qb parent p\npoint qc parent p\n"
          "mult p a=1 b=1 c=1\nmult qa a=1\nmult qb b=1\nmult qc c=1\n",
    # one ordinary cusp: d 2, weight 4, delta 1
    "cusp": "branch a\npoint p parent root\npoint q parent p\npoint r parent q prox p\n"
            "mult p a=2\nmult q a=1\nmult r a=1\n",
}
GERM_FAULTS = {  # tag: (germ, .wire)
    "two components": ("v4", "strands 2\ncomponents a=1 b=2\nseq: I(1..2), F(1), F(2)\n"),
    "two strands on a": ("v4", "strands 4\ncomponents a=1,2 b=3 c=4\nseq: T(1), I(2..4), F(1)\n"),
    "a,b meet twice": ("v4", "strands 3\ncomponents a=1 b=2 c=3\nseq: I(1..3), I(1..2), F(3)\n"),
    "b,c meet twice, a alone": ("v4", "strands 3\ncomponents a=1 b=2 c=3\nseq: I(2..3), I(2..3), F(1), F(1)\n"),
    "a meets itself": ("v4", "strands 4\ncomponents a=1,2 b=3 c=4\nseq: T(1), I(1..4), F(3), F(4)\n"),
    "without its double point": ("cusp", "strands 2\ncomponents a=1,2\nseq: T(1), F(1), F(2), F(1), F(2)\n"),
}
# a branch shrinks inside a three-branch window, so no unbraided layout exists
NO_LAYOUT = ("branch a b c\npoint p parent root\npoint q parent p\npoint ta parent q\n"
             "point tb parent q\npoint tc parent q\nmult p a=1 b=2 c=1\nmult q a=1 b=1 c=1\n"
             "mult ta a=1\nmult tb b=1\nmult tc c=1\n")
HOLES_FAULTS = {  # a hole count below 1, whatever the items
    "holes -3": {"holes": -3, "items": [{"kind": "cycle", "start": 1}]},
    "holes 0, an arc": {"holes": 0, "items": [{"kind": "arc", "start": 1}]},
    "holes 0, no items": {"holes": 0, "items": []},
}
NOT_TREES = {
    "triangle and vertex": "vertex a -2\nvertex b -2\nvertex c -2\nvertex d -2\nedge a b\nedge b c\nedge a c\n",
    "two vertices": "vertex a -2\nvertex b -2\n",
}


def op_digest(op, workloads, work: Path) -> str:
    try:
        result = op.run()
    except Exception as exc:  # an op that raises is hashed by its error
        result = f"raised {type(exc).__name__}: {exc}"
    if isinstance(result, workloads.CliResult):
        parts = [str(result.code).encode(), result.stdout.encode(), result.stderr.encode()]
        parts += [path.read_bytes() if path.exists() else b"(missing)" for path in op.outputs]
    else:
        parts = [repr(result).encode()]
    h = hashlib.sha256()
    for part in parts:
        h.update(part.replace(str(work).encode(), WORK) + b"\0")
    return h.hexdigest()


def extra_ops(api, workloads, work: Path) -> list:
    """CLI ops past the benchmark rungs, on inputs written into ``work``."""
    ops = []
    for tag, k in (("pair", 2), ("triple", 3)):
        graph = work / f"{tag}.plumb"
        graph.write_text(f"vertex v {-(k + 1)}\n" + "".join(f"curvetta c{i} on v\n" for i in range(k)))
        for n in EXTRA_N:
            prefix = work / f"K_{tag}_{n}"
            argv = ("unexpected", "--graph", graph, "-N", n, "--wmax", workloads.WMAX, "-o", prefix)
            ops.append(workloads.Op("unexpected", f"unexpected {tag} N={n}",
                                    lambda argv=argv: api.run_cli(*argv), {}, None,
                                    (Path(f"{prefix}.plumb"), Path(f"{prefix}.wire"))))
    graph, trace = work / "chains.plumb", work / "trace.json"
    graph.write_text("vertex v -3\ncurvetta c on v\ncurvetta d on v\n"
                     f"chains c={EXTRA_CHAIN_L},d={EXTRA_CHAIN_L}\n")
    ops.append(workloads.Op("germ", f"germ --trace chains L={EXTRA_CHAIN_L}",
                            lambda graph=graph, trace=trace: api.run_cli("germ", "--graph", graph,
                                                                         "--trace", trace),
                            {}, None, (trace,)))
    extended = work / "pair_extended.plumb"
    ops.append(workloads.Op("extend", "extend pair c0=4,c1=4",
                            lambda: api.run_cli("extend", "--graph", work / "pair.plumb",
                                                "--chains", "c0=4,c1=4", "-o", extended),
                            {}, None, (extended,)))
    ops.append(workloads.Op("auts", "auts extended pair",
                            lambda: api.run_cli("auts", "--graph", extended), {}, None))
    m = EXTRA_ARRANGEMENT_M
    wire = work / f"arr_{m}.wire"
    wire.write_text(workloads.arrangement(workloads.Names(SEED).take(m)))
    ops.append(workloads.Op("inside-out", f"inside-out m={m} hole {m // 2}",
                            lambda wire=wire, hole=m // 2: api.run_cli("inside-out", "--wire", wire,
                                                                       "--hole", hole),
                            {}, None))
    gaps = work / "gaps.wire"
    gaps.write_text("strands 3\ncomponents a=1,2 b=3\n"
                    "seq: T(1), I(1..3), F(3), s2 s1, I(2..3), s1' s1 s2, F(1), F(2)\n")
    ops.append(workloads.Op("validate", "validate left-out braid words",
                            lambda: api.run_cli("validate", "--wire", gaps), {}, None))
    for i, seq in enumerate(SEQ_FAULTS + RANGE_FAULTS):
        bad = work / f"fault_{i}.wire"
        bad.write_text(f"strands 3\nseq: {seq}\n")
        ops.append(workloads.Op("validate", f"validate seq: {seq}",
                                lambda bad=bad: api.run_cli("validate", "--wire", bad), {}, None))
    for i, (tag, items) in enumerate(FACT_FAULTS.items()):
        fact, out = work / f"fact_fault_{i}.json", work / f"fact_fault_{i}.wire"
        fact.write_text(json.dumps({"holes": 3, "items": items}))
        ops.append(workloads.Op("wire-from-vanishing", f"wire-from-vanishing {tag}",
                                lambda fact=fact, out=out: api.run_cli("wire-from-vanishing", "--fact", fact,
                                                                       "-o", out),
                                {}, None, (out,)))
    for tag, text in NOT_TREES.items():
        graph = work / f"{tag.replace(' ', '_')}.plumb"
        graph.write_text(text)
        ops.append(workloads.Op("auts", f"auts {tag}",
                                lambda graph=graph: api.run_cli("auts", "--graph", graph), {}, None))
    stall = work / "stall.plumb"
    stall.write_text("vertex v -3\ncurvetta c on v\n")
    ops.append(workloads.Op("germ", "germ stalled blow-down",
                            lambda: api.run_cli("germ", "--graph", stall), {}, None))
    for m in EXTRA_EQUAL_M:
        bb = api.wiring.boundary_braid(api.wiring.parse_wire(
            workloads.arrangement(workloads.Names(SEED).take(m))))
        mid = len(bb) // 2
        g = bb[mid:mid + 4]
        copies = {"R conjugated in": workloads.inverse(g) + workloads.TRIVIAL_R + g,
                  "s1^2 in": workloads.PURE_S1_SQUARED}
        for tag, insert in copies.items():
            ops.append(workloads.Op("braid_equal", f"braid_equal boundary m={m} {tag}",
                                    lambda a=bb, b=bb[:mid] + insert + bb[mid:], n=m:
                                    api.mcg.braid_equal(a, b, n), {}, None))
    for m in EXTRA_VANISHING_M:
        wire, fact, rebuilt = work / f"van_{m}.wire", work / f"van_{m}.json", work / f"van_{m}_rebuilt.wire"
        wire.write_text(workloads.arrangement(workloads.Names(SEED).take(m)))
        ops.append(workloads.Op("vanishing", f"vanishing arrangement m={m}",
                                lambda wire=wire, fact=fact: api.run_cli("vanishing", "--wire", wire, "-o", fact),
                                {}, None, (fact,)))
        ops.append(workloads.Op("wire-from-vanishing", f"wire-from-vanishing arrangement m={m}",
                                lambda fact=fact, rebuilt=rebuilt: api.run_cli(
                                    "wire-from-vanishing", "--fact", fact, "-o", rebuilt),
                                {}, None, (rebuilt,)))
    germ, cusp_wire = work / "twocusp.germ", work / "twocusp.wire"
    germ.write_text(workloads.cusp_cluster(workloads.Names(SEED), 3, weights=True).text)
    api.run_cli("scott", "--germ", germ, "-o", cusp_wire)
    api.run_cli("unexpected", "--graph", work / "pair.plumb", "-N", 1, "--wmax", workloads.WMAX,
                "-o", work / "K_pair_1")
    for tag, wire in (("two-cusp scott", cusp_wire), ("unexpected pair N=1", work / "K_pair_1.wire")):
        ops.append(workloads.Op("render", f"render {tag}",
                                lambda wire=wire: api.run_cli("render", "--wire", wire), {}, None))
    binary = work / "not_utf8.wire"
    binary.write_bytes(b"strands 2\nseq: s1\xff\n")
    ops.append(workloads.Op("validate", "validate not UTF-8",
                            lambda: api.run_cli("validate", "--wire", binary), {}, None))
    loose = work / "loose_components.wire"
    loose.write_text("strands 2\ncomponents A=1 B=3\nseq: 1\n")
    ops.append(workloads.Op("validate", "validate components A=1 B=3",
                            lambda: api.run_cli("validate", "--wire", loose), {}, None))
    m = EXTRA_ARRANGEMENT_M
    arr = work / f"arr_{m}.wire"  # the inside-out op's input
    ops.append(workloads.Op("compare", "compare one --wire",
                            lambda: api.run_cli("compare", "--wire", arr), {}, None))
    labels = workloads.Names(SEED).take(m)
    dropped = (work / "dropped.wire", work / "dropped_relabelled.wire")
    for path, order in zip(dropped, (labels, labels[::-1])):
        path.write_text(workloads.arrangement(order, drop=m * (m - 1) // 4))
    moved = work / "moved_free_point.wire"
    moved.write_text(arr.read_text().replace(f"F({m})", "F(1)", 1))
    for tag, a, b in (("relabelled dropped", *dropped), ("moved free point", arr, moved)):
        ops.append(workloads.Op("compare", f"compare --unlabeled {tag} m={m}",
                                lambda a=a, b=b: api.run_cli("compare", "--wire", a, "--wire", b, "--unlabeled"),
                                {}, None))
    split = work / "split.wire"
    split.write_text(SPLIT_WIRE)
    ops.append(workloads.Op("incidence", "incidence split tangency",
                            lambda: api.run_cli("incidence", "--wire", split), {}, None))
    ops.append(workloads.Op("inside-out", "inside-out split tangency hole 3",
                            lambda: api.run_cli("inside-out", "--wire", split, "--hole", 3), {}, None))
    for i, (tag, data) in enumerate(SHAPE_FAULTS.items()):
        fact = work / f"shape_fault_{i}.json"
        fact.write_text(json.dumps(data))
        ops.append(workloads.Op("wire-from-vanishing", f"wire-from-vanishing {tag}",
                                lambda fact=fact: api.run_cli("wire-from-vanishing", "--fact", fact), {}, None))
    germ, bare = work / f"arr_{m}.germ", work / f"arr_{m}_bare.wire"
    names = workloads.Names(SEED)
    names.take(m)  # the labels, so that the germ's points get other names
    germ.write_text(workloads.arrangement_germ(labels, names))
    bare.write_text("".join(line for line in arr.read_text().splitlines(True)
                            if not line.startswith("components")))
    moved_bare = work / f"arr_{m}_bare_moved.wire"
    moved_bare.write_text(bare.read_text().replace(f"F({m})", "F(1)", 1))
    for tag, wire in (("inferred labels", bare), ("inferred labels, moved free point", moved_bare)):
        ops.append(workloads.Op("validate-germ", f"validate --germ {tag} m={m}",
                                lambda wire=wire: api.run_cli("validate", "--wire", wire, "--germ", germ),
                                {}, None))
    for tag, text in GERMS.items():
        (work / f"{tag}.germ").write_text(text)
    for i, (tag, (key, text)) in enumerate(GERM_FAULTS.items()):
        wire = work / f"germ_fault_{i}.wire"
        wire.write_text(text)
        ops.append(workloads.Op("validate-germ", f"validate --germ {key} {tag}",
                                lambda wire=wire, key=key: api.run_cli("validate", "--wire", wire,
                                                                       "--germ", work / f"{key}.germ"),
                                {}, None))
    no_layout = work / "no_layout.germ"
    no_layout.write_text(NO_LAYOUT)
    ops.append(workloads.Op("scott", "scott no unbraided layout",
                            lambda: api.run_cli("scott", "--germ", no_layout), {}, None))
    for i, (tag, data) in enumerate(HOLES_FAULTS.items()):
        fact = work / f"holes_fault_{i}.json"
        fact.write_text(json.dumps(data))
        ops.append(workloads.Op("wire-from-vanishing", f"wire-from-vanishing {tag}",
                                lambda fact=fact: api.run_cli("wire-from-vanishing", "--fact", fact), {}, None))
    return ops


def traced_counts(build, workloads, tracing, work: Path, root: Path) -> str:
    """The count metrics of one traced pass over the ops of a fresh plan
    built in the empty directory ``work``; ``cli.out_bytes`` counts bytes
    with ``root``, the work directory, replaced by WORK."""
    api = workloads.Api()
    plan = build(api, workloads.Names(SEED), work)
    tracer = tracing.Tracer()
    tracer.install(api.modules())
    tracer.begin_pass()
    try:
        for op in plan.ops:
            try:
                result = op.run()
            except Exception:  # a failed op counts no bytes, as in perfbench/run.py
                continue
            if isinstance(result, workloads.CliResult):
                out = [result.stdout.encode()] + [path.read_bytes() for path in op.outputs if path.exists()]
                tracer.counts["cli.out_bytes"] += sum(len(part.replace(str(root).encode(), WORK))
                                                      for part in out)
    finally:
        tracer.uninstall()
    tracer.end_pass()
    values = tracer.pass_metrics(*tracer.passes[0])
    return " ".join(f"{name}={values[name]}" for name, unit, _ in tracing.PER_LAYER if unit == "count")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve()
    if not (checkout / "src" / "sandwich" / "__init__.py").is_file():
        print(f"no src/sandwich in {checkout}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # no cache inside the checkout either
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import tracing
    import workloads

    work = Path(tempfile.mkdtemp(prefix="sandwich-op-hashes-"))
    counts = {}
    try:
        for name, build in workloads.WORKLOADS.items():
            (work / name).mkdir()
            api = workloads.Api()
            if checkout not in Path(api.cli.__file__).resolve().parents:
                print(f"sandwich imported from {api.cli.__file__}, not {checkout}", file=sys.stderr)
                return 2
            plan = build(api, workloads.Names(SEED), work / name)
            for op in plan.setup_checks + plan.ops:
                print(f"{name}\t{op.label}\t{op_digest(op, workloads, work)}", flush=True)
            (work / f"{name}-traced").mkdir()
            counts[name] = traced_counts(build, workloads, tracing, work / f"{name}-traced", work)
        (work / "extra").mkdir()
        for op in extra_ops(api, workloads, work / "extra"):
            print(f"extra\t{op.label}\t{op_digest(op, workloads, work)}", flush=True)
        for name, line in counts.items():
            print(f"{name}\tcounts\t{line}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
