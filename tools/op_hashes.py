"""One sha256 per benchmark op, to check that a change keeps every output.

    python3 tools/op_hashes.py CHECKOUT > hashes.txt

Imports ``perfbench/workloads.py`` and the package under ``src/`` of the
git checkout CHECKOUT, and writes nothing inside it.  Every op of the three
workload plans runs once at seed 7, in a fixed work directory under the
system's temporary directory: ``unexpected`` echoes its output paths, so a
fresh temporary name would make every run differ.  Each line is
``workload<TAB>op label<TAB>sha256``; the hash covers the exit code,
stdout, stderr and the files the op writes (a library op: the repr of its
result, or its exception).  Run it once per checkout and diff the lines.

After the workload plans come the ops of ``extra_ops`` (workload column
``extra``), larger than any benchmark rung: ``unexpected`` on the pair and
the triple of smooth branches at N = 20 and 30, and ``germ --trace`` on two
-2 chains of 4000 vertices.  Three small ones cover the commands no
workload runs: ``extend`` on the pair graph, ``auts`` on the extended
graph, and ``inside-out`` at one hole of the generic arrangement of
EXTRA_ARRANGEMENT_M lines, one strand each.  Together they take a few
seconds.
"""

import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

SEED = 7
WORK = Path(tempfile.gettempdir()) / "sandwich-op-hashes"
EXTRA_N = (20, 30)
EXTRA_CHAIN_L = 4000
EXTRA_ARRANGEMENT_M = 8


def op_digest(op, workloads) -> str:
    try:
        result = op.run()
    except Exception as exc:  # an op that raises is hashed by its error
        result = f"raised {type(exc).__name__}: {exc}"
    h = hashlib.sha256()
    if isinstance(result, workloads.CliResult):
        for part in (str(result.code), result.stdout, result.stderr):
            h.update(part.encode() + b"\0")
        for path in op.outputs:
            h.update(path.read_bytes() if path.exists() else b"(missing)")
            h.update(b"\0")
    else:
        h.update(repr(result).encode())
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
                            lambda: api.run_cli("germ", "--graph", graph, "--trace", trace),
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
                            lambda: api.run_cli("inside-out", "--wire", wire, "--hole", m // 2),
                            {}, None))
    return ops


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve()
    if not (checkout / "src" / "sandwich" / "__init__.py").is_file():
        print(f"no src/sandwich in {checkout}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import workloads

    for name, build in workloads.WORKLOADS.items():
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        api = workloads.Api()
        if checkout not in Path(api.cli.__file__).resolve().parents:
            print(f"sandwich imported from {api.cli.__file__}, not {checkout}", file=sys.stderr)
            return 2
        plan = build(api, workloads.Names(SEED), WORK)
        for op in plan.setup_checks + plan.ops:
            print(f"{name}\t{op.label}\t{op_digest(op, workloads)}", flush=True)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    for op in extra_ops(api, workloads, WORK):
        print(f"extra\t{op.label}\t{op_digest(op, workloads)}", flush=True)
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
