"""One sha256 per benchmark op, to check that a change keeps every output.

    python3 tools/op_hashes.py CHECKOUT > hashes.txt

Runs each op of CHECKOUT's three workload plans once at seed 7 on its
``src/``, then each row of ``extra_ops`` (workload ``extra``), in a fresh
temporary directory, so nothing is written inside CHECKOUT.  Each line is
``workload<TAB>op label<TAB>sha256`` over the exit code, stdout, stderr and
the files the op writes (a library op: the repr of its result, or its
exception), with the work directory's path, which ``unexpected`` echoes,
replaced by WORK.  Last comes one line per workload,
``workload<TAB>counts<TAB>name=value ...``: the count metrics of
``perfbench/tracing.PER_LAYER`` over one traced pass of a fresh plan, as
``perfbench/run.py --trace 1`` counts them, with ``cli.out_bytes`` counted
after the WORK substitution."""

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

from checkout import load_checkout

SEED = 7
WORK = b"WORK"  # stands for the work directory in every hashed output
FILE_OPTIONS = {"--graph", "--wire", "--germ", "--fact", "--trace", "-o"}  # the word after one names a file
EXTRA_N = (20, 30)
EXTRA_CHAIN_L = 4000
EXTRA_ARRANGEMENT_M = 8
EXTRA_EQUAL_M = (16, 24)  # at 24, checkouts that decide equality by Garside normal forms take 0.5 s per form
EXTRA_VANISHING_M = (24, 40)  # the paper's sizes
NESTED_DEPTH = 3000
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
GERM_FAULTS = {  # tag: (germ, .wire); the germs are "v4.germ" and "cusp.germ" of extra_ops
    "two components": ("v4", "strands 2\ncomponents a=1 b=2\nseq: I(1..2), F(1), F(2)\n"),
    "two strands on a": ("v4", "strands 4\ncomponents a=1,2 b=3 c=4\nseq: T(1), I(2..4), F(1)\n"),
    "a,b meet twice": ("v4", "strands 3\ncomponents a=1 b=2 c=3\nseq: I(1..3), I(1..2), F(3)\n"),
    "b,c meet twice, a alone": ("v4", "strands 3\ncomponents a=1 b=2 c=3\nseq: I(2..3), I(2..3), F(1), F(1)\n"),
    "a meets itself": ("v4", "strands 4\ncomponents a=1,2 b=3 c=4\nseq: T(1), I(1..4), F(3), F(4)\n"),
    "without its double point": ("cusp", "strands 2\ncomponents a=1,2\nseq: T(1), F(1), F(2), F(1), F(2)\n"),
}
HOLES_FAULTS = {  # a hole count below 1, whatever the items
    "holes -3": {"holes": -3, "items": [{"kind": "cycle", "start": 1}]},
    "holes 0, an arc": {"holes": 0, "items": [{"kind": "arc", "start": 1}]},
    "holes 0, no items": {"holes": 0, "items": []},
}
TAKEN_NAMES = {  # a graph that already uses a name of the star that ``unexpected`` attaches
    "vertex vstar": "vertex vstar -3\ncurvetta c0 on vstar\ncurvetta c1 on vstar\n",
    "vertex leg1.1": "vertex leg1.1 -3\ncurvetta c0 on leg1.1\ncurvetta c1 on leg1.1\n",
    "curvetta line1": "vertex v -3\ncurvetta line1 on v\ncurvetta c1 on v\n",
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
    """The ops of the rows below, in order, on the files of ``inputs`` written into ``work``."""
    m = EXTRA_ARRANGEMENT_M
    names = workloads.Names(SEED)
    labels = names.take(m)  # the germ's points take the names after these
    arr = workloads.arrangement(labels)
    bare = "".join(line for line in arr.splitlines(True) if not line.startswith("components"))
    lines = {k: workloads.arrangement(workloads.Names(SEED).take(k)) for k in EXTRA_EQUAL_M + EXTRA_VANISHING_M}

    def op(label: str, call, *outputs: str):
        """A row (label, command line or (function, *args), output files...) as an op."""
        if isinstance(call, str):
            words = call.split()
            call = (api.run_cli, *(work / w if opt in FILE_OPTIONS else w for opt, w in zip(["", *words], words)))
        fn, *args = call
        return workloads.Op(label.split()[0], label, lambda: fn(*args), {}, None, tuple(work / o for o in outputs))

    # every file a row reads: its text, or (command,) of the setup run that writes it
    inputs = {
        "pair.plumb": "vertex v -3\ncurvetta c0 on v\ncurvetta c1 on v\n",
        "triple.plumb": "vertex v -4\ncurvetta c0 on v\ncurvetta c1 on v\ncurvetta c2 on v\n",
        "chains.plumb": f"vertex v -3\ncurvetta c on v\ncurvetta d on v\nchains c={EXTRA_CHAIN_L},d={EXTRA_CHAIN_L}\n",
        f"arr_{m}.wire": arr,
        "gaps.wire": "strands 3\ncomponents a=1,2 b=3\n"
                     "seq: T(1), I(1..3), F(3), s2 s1, I(2..3), s1' s1 s2, F(1), F(2)\n",
        **{f"fault_{i}.wire": f"strands 3\nseq: {seq}\n" for i, seq in enumerate(SEQ_FAULTS + RANGE_FAULTS)},
        **{f"fact_fault_{i}.json": json.dumps({"holes": 3, "items": items})
           for i, items in enumerate(FACT_FAULTS.values())},
        **{f"{tag.replace(' ', '_')}.plumb": text for tag, text in NOT_TREES.items()},
        "stall.plumb": "vertex v -3\ncurvetta c on v\n",
        **{f"van_{k}.wire": lines[k] for k in EXTRA_VANISHING_M},
        "twocusp.germ": workloads.cusp_cluster(workloads.Names(SEED), 3, weights=True).text,
        "twocusp.wire": ("scott --germ twocusp.germ -o twocusp.wire",),
        "K_pair_1.wire": (f"unexpected --graph pair.plumb -N 1 --wmax {workloads.WMAX} -o K_pair_1",),
        "not_utf8.wire": b"strands 2\nseq: s1\xff\n",
        "loose_components.wire": "strands 2\ncomponents A=1 B=3\nseq: 1\n",
        # one double point dropped: with all of them kept the canonical forms agree and no search runs
        "dropped.wire": workloads.arrangement(labels, drop=m * (m - 1) // 4),
        "dropped_relabelled.wire": workloads.arrangement(labels[::-1], drop=m * (m - 1) // 4),
        "moved_free_point.wire": arr.replace(f"F({m})", "F(1)", 1),
        "split.wire": "strands 3\ncomponents A=1 B=2 C=3\nseq: 1, T(1), 1, F(3), 1\n",
        **{f"shape_fault_{i}.json": json.dumps(data) for i, data in enumerate(SHAPE_FAULTS.values())},
        f"arr_{m}.germ": workloads.arrangement_germ(labels, names),
        f"arr_{m}_bare.wire": bare,
        f"arr_{m}_bare_moved.wire": bare.replace(f"F({m})", "F(1)", 1),
        # vertex v -4 with curvettas a, b, c: three smooth branches of weight 2, pairwise 1
        "v4.germ": "branch a b c\npoint p parent root\npoint qa parent p\npoint qb parent p\npoint qc parent p\n"
                   "mult p a=1 b=1 c=1\nmult qa a=1\nmult qb b=1\nmult qc c=1\n",
        # one ordinary cusp: d 2, weight 4, delta 1
        "cusp.germ": "branch a\npoint p parent root\npoint q parent p\npoint r parent q prox p\n"
                     "mult p a=2\nmult q a=1\nmult r a=1\n",
        **{f"germ_fault_{i}.wire": text for i, (_, text) in enumerate(GERM_FAULTS.values())},
        # a branch shrinks inside a three-branch window, so no unbraided layout exists
        "no_layout.germ": "branch a b c\npoint p parent root\npoint q parent p\npoint ta parent q\npoint tb parent q\n"
                          "point tc parent q\nmult p a=1 b=2 c=1\nmult q a=1 b=1 c=1\nmult ta a=1\nmult tb b=1\n"
                          "mult tc c=1\n",
        **{f"holes_fault_{i}.json": json.dumps(data) for i, data in enumerate(HOLES_FAULTS.values())},
        "path4.plumb": "vertex a -2\nvertex b -2\nvertex c -2\nvertex d -2\nedge a b\nedge b c\nedge c d\n",
        "strands_256.wire": f"strands 256\ncomponents a={','.join(map(str, range(1, 257)))}\nseq: I(1..256)\n",
        # the figure of the paper that validates against the two-cusp germ (acceptance check c10)
        "c10.wire": "strands 4\ncomponents A=2,3 B=1,4\nseq: 1, T(2), s1' s3', T(2), 1, I(1..2), 1, I(1..2), 1, "
                    "I(1..2), s3', I(2..3), s2', I(1..2), s3 s2, I(3..4), 1, I(1..3), 1, F(2), 1\n",
        **{f"taken_{i}.plumb": text for i, text in enumerate(TAKEN_NAMES.values())},
        "no_curvetta.plumb": "vertex v -1\n",
        "nested.json": '{"holes": 3, "items": ' + "[" * NESTED_DEPTH + "]" * NESTED_DEPTH + "}",
    }
    for name, content in inputs.items():
        if isinstance(content, tuple):
            op("setup", *content).run()
        else:
            (work / name).write_bytes(content if isinstance(content, bytes) else content.encode())

    def equalities(k: int) -> list:  # the same braid with R = s1 s2 s1 s2' s1' s2' conjugated in, another with s1^2
        bb = api.wiring.boundary_braid(api.wiring.parse_wire(lines[k]))
        mid = len(bb) // 2
        g = bb[mid:mid + 4]
        inserts = {"R conjugated in": workloads.inverse(g) + workloads.TRIVIAL_R + g,
                   "s1^2 in": workloads.PURE_S1_SQUARED}
        return [(f"braid_equal boundary m={k} {tag}", (api.mcg.braid_equal, bb, bb[:mid] + w + bb[mid:], k))
                for tag, w in inserts.items()]

    rows = [
        # larger than any benchmark rung
        *[(f"unexpected {tag} N={n}", f"unexpected --graph {tag}.plumb -N {n} --wmax {workloads.WMAX} -o K_{tag}_{n}",
           f"K_{tag}_{n}.plumb", f"K_{tag}_{n}.wire") for tag in ("pair", "triple") for n in EXTRA_N],
        (f"germ --trace chains L={EXTRA_CHAIN_L}", "germ --graph chains.plumb --trace trace.json", "trace.json"),
        # commands and inputs that no workload runs
        ("extend pair c0=4,c1=4", "extend --graph pair.plumb --chains c0=4,c1=4 -o pair_extended.plumb",
         "pair_extended.plumb"),
        ("auts extended pair", "auts --graph pair_extended.plumb"),
        (f"inside-out m={m} hole {m // 2}", f"inside-out --wire arr_{m}.wire --hole {m // 2}"),
        ("validate left-out braid words", "validate --wire gaps.wire"),
        # each located error of a seq, and their precedence
        *[(f"validate seq: {seq}", f"validate --wire fault_{i}.wire")
          for i, seq in enumerate(SEQ_FAULTS + RANGE_FAULTS)],
        # each fault of a 3-hole factorization's items
        *[(f"wire-from-vanishing {tag}", f"wire-from-vanishing --fact fact_fault_{i}.json -o fact_fault_{i}.wire",
           f"fact_fault_{i}.wire") for i, tag in enumerate(FACT_FAULTS)],
        # graphs that are no trees, and a blow-down that stalls
        *[(f"auts {tag}", f"auts --graph {tag.replace(' ', '_')}.plumb") for tag in NOT_TREES],
        ("germ stalled blow-down", "germ --graph stall.plumb"),
        # braid equalities past the ladder
        *[row for k in EXTRA_EQUAL_M for row in equalities(k)],
        # vanishing at the paper's sizes, and back
        *[row for k in EXTRA_VANISHING_M for row in (
            (f"vanishing arrangement m={k}", f"vanishing --wire van_{k}.wire -o van_{k}.json", f"van_{k}.json"),
            (f"wire-from-vanishing arrangement m={k}",
             f"wire-from-vanishing --fact van_{k}.json -o van_{k}_rebuilt.wire", f"van_{k}_rebuilt.wire"))],
        # renders that no workload makes; the first draws tangencies
        ("render two-cusp scott", "render --wire twocusp.wire"),
        ("render unexpected pair N=1", "render --wire K_pair_1.wire"),
        # read errors: a byte that is not UTF-8, components that do not partition the strands, one --wire
        ("validate not UTF-8", "validate --wire not_utf8.wire"),
        ("validate components A=1 B=3", "validate --wire loose_components.wire"),
        ("compare one --wire", f"compare --wire arr_{m}.wire"),
        # the row search of an unlabeled compare, a "yes" and a "no"
        *[(f"compare --unlabeled {tag} m={m}", f"compare --wire {a} --wire {b} --unlabeled")
          for tag, a, b in (("relabelled dropped", "dropped.wire", "dropped_relabelled.wire"),
                            ("moved free point", f"arr_{m}.wire", "moved_free_point.wire"))],
        # a tangency that joins two declared components, which only validate rejects
        ("incidence split tangency", "incidence --wire split.wire"),
        ("inside-out split tangency hole 3", "inside-out --wire split.wire --hole 3"),
        # factorization documents of the wrong shape
        *[(f"wire-from-vanishing {tag}", f"wire-from-vanishing --fact shape_fault_{i}.json")
          for i, tag in enumerate(SHAPE_FAULTS)],
        # each germ-check outcome no workload reaches: inferred labels with an assignment, with none,
        # then each mismatch of GERM_FAULTS
        (f"validate --germ inferred labels m={m}", f"validate --wire arr_{m}_bare.wire --germ arr_{m}.germ"),
        (f"validate --germ inferred labels, moved free point m={m}",
         f"validate --wire arr_{m}_bare_moved.wire --germ arr_{m}.germ"),
        *[(f"validate --germ {key} {tag}", f"validate --wire germ_fault_{i}.wire --germ {key}.germ")
          for i, (tag, (key, _)) in enumerate(GERM_FAULTS.items())],
        ("scott no unbraided layout", "scott --germ no_layout.germ"),
        # hole counts below 1
        *[(f"wire-from-vanishing {tag}", f"wire-from-vanishing --fact holes_fault_{i}.json")
          for i, tag in enumerate(HOLES_FAULTS)],
        # a tree with two centroids, whose halves swap about a virtual root
        ("auts path of four -2 vertices", "auts --graph path4.plumb"),
        # a count past 255, so the incidence columns are lists and not bytes
        ("incidence strands 256 one component", "incidence --wire strands_256.wire"),
        # the one compatible "no" that names a hole permutation
        ("compatible c10 figure against two-cusp germ",
         (api.fillings.compatible, api.wiring.parse_wire(inputs["c10.wire"]),
          api.plumbing.parse_germ(inputs["twocusp.germ"]))),
        # holes outside the diagram, and graphs whose names the star would reuse
        *[(f"inside-out m={m} hole {h}", f"inside-out --wire arr_{m}.wire --hole {h}") for h in (0, m + 1)],
        *[(f"unexpected {tag} in use", f"unexpected --graph taken_{i}.plumb -N 1 --wmax {workloads.WMAX} "
           f"-o K_taken_{i}", f"K_taken_{i}.plumb", f"K_taken_{i}.wire") for i, tag in enumerate(TAKEN_NAMES)],
        # a graph that blows down but carries no curvetta
        ("germ no curvetta", "germ --graph no_curvetta.plumb"),
        # a factorization document nested deeper than the JSON decoder recurses
        (f"wire-from-vanishing items nested {NESTED_DEPTH} deep",
         "wire-from-vanishing --fact nested.json -o nested.wire", "nested.wire"),
    ]
    return [op(*row) for row in rows]


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
    if (loaded := load_checkout(argv, __doc__)) is None:
        return 2
    workloads, _ = loaded
    import tracing

    work = Path(tempfile.mkdtemp(prefix="sandwich-op-hashes-"))
    counts = {}
    try:
        for name, build in workloads.WORKLOADS.items():
            (work / name).mkdir()
            api = workloads.Api()
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
