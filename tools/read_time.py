"""In-process times of the read side: diagram-read's arrangements, then
the ``.germ`` and ``.plumb`` readers.

    python3 tools/read_time.py CHECKOUT

Imports ``perfbench/workloads.py`` and the package under ``src/`` of the
git checkout CHECKOUT, and writes nothing inside it (no bytecode cache
either).  For each m of diagram-read's arrangement rungs (m = 8, 12, ..., 40)
it builds the generic arrangement of m lines as that workload does, with
the component labels of seed 7, and prints one markdown table row:

- ``seq``: the entries of its ``seq`` line against the distinct chunks
  among them (``parse_wire`` reads each distinct chunk once);
- ``parse_wire``: milliseconds to parse the ``.wire`` text;
- ``walk``: milliseconds of the strand walk (``WiringDiagram.walked``,
  computed anew on each call instead of read from its cache);
- ``boundary_braid``: milliseconds per call (both pushoffs, then the
  reduced product of the top's inverse and the bottom);
- ``incidence``: milliseconds per call, on a diagram whose walk is cached;
- ``incidence_canonical``: milliseconds per call on that matrix, whose
  rows are already in label order, so the call is one sort of its stored
  columns;
- ``render``: milliseconds per call of the SVG renderer;
- ``render peak``: the ``tracemalloc`` peak of one ``render`` call as a
  multiple of the length of the SVG it returns;
- ``compare``: milliseconds per ``cli.main`` call of ``compare`` of the
  arrangement against its copy with the free points first (two parses, two
  walks and one labelled equivalence), on files in a temporary directory;
- ``incidence`` CLI: milliseconds per ``cli.main`` call of ``incidence`` on
  the arrangement (a parse, a walk, the matrix, its canonical form and the
  JSON);
- ``compare --unlabeled``: milliseconds per ``cli.main`` call of ``compare
  --unlabeled`` of the arrangement against that copy (as ``compare``, with
  two canonical forms in place of the labelled equivalence).

The last three are diagram-read ops; beside ``render`` they are its
slowest at the top rungs.

A second table has one row per text read by a parser: each star and cusp
cluster that graph-pipeline writes at seed 7 (its ``graph`` and ``scott``
ops each parse the file once per pass), timed through ``parse_germ``, and
a -2 chain of ``CHAIN_VERTICES`` vertices with one arrow, timed through
``parse_plumb``.  Each row gives the content lines, milliseconds per call
and microseconds per line; the last row sums the clusters' times, twice
each, which is what one graph-pipeline pass spends parsing them.

Each time is the median of as many calls as fit in ``BUDGET_S`` seconds, at
least one, after one untimed call.  The peak is taken with tracing on only
around that one call, so the times are not slowed by it.
"""

import argparse
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

SEED = 7
BUDGET_S = 0.5
MAX_CALLS = 51
CHAIN_VERTICES = 2000


def median_ms(call) -> tuple[float, object]:
    """Median milliseconds of repeated calls after one untimed call, and the
    last result."""
    call()
    times: list[float] = []
    start = time.perf_counter()
    while not times or (time.perf_counter() - start < BUDGET_S and len(times) < MAX_CALLS):
        t0 = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times), result


def peak_ratio(call) -> float:
    """``tracemalloc`` peak of one call over the length of its result."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / len(result)


def chain_plumb(length: int) -> str:
    """A -2 chain of ``length`` vertices with a curvetta on its last."""
    lines = [f"vertex v{i} -2" for i in range(length)]
    lines += [f"edge v{i} v{i + 1}" for i in range(length - 1)]
    return "\n".join(lines + [f"curvetta c on v{length - 1}"]) + "\n"


def parse_rows(workloads, api):
    """(label, text, parser) per text of the second table."""
    with tempfile.TemporaryDirectory() as tmp:
        workloads.graph_pipeline(api, workloads.Names(SEED), Path(tmp))
        germs = sorted(Path(tmp).glob("cluster_*.germ"), key=lambda p: int(p.stem.split("_")[1]))
        texts = [p.read_text() for p in germs]
    labels = [f"star m={m} t={t}" for m, t in workloads.STAR_CLUSTERS]
    labels += [f"cusp t={t}" for t in workloads.CUSP_TAILS]
    rows = [(label, text, api.plumbing.parse_germ) for label, text in zip(labels, texts, strict=True)]
    rows.append((f"-2 chain of {CHAIN_VERTICES}", chain_plumb(CHAIN_VERTICES), api.plumbing.parse_plumb))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "src" / "sandwich" / "__init__.py").is_file():
        print(f"no src/sandwich in {checkout}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import workloads

    api = workloads.Api()
    if checkout not in Path(api.cli.__file__).resolve().parents:
        print(f"sandwich imported from {api.cli.__file__}, not {checkout}", file=sys.stderr)
        return 2
    wiring, fillings, cli = api.wiring, api.fillings, api.cli
    labels_all = workloads.Names(SEED).take(max(workloads.ARRANGEMENT_M))
    print("| m | `seq` entries / distinct | svg bytes | `parse_wire` | walk | `boundary_braid` | `incidence` "
          "| `incidence_canonical` | `render` | render peak | `compare` | `incidence` CLI "
          "| `compare --unlabeled` |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for m in workloads.ARRANGEMENT_M:
        text = workloads.arrangement(labels_all[:m])
        chunks = [c.strip() for c in text.partition("seq:")[2].split(",")]
        parse_ms, w = median_ms(lambda: wiring.parse_wire(text))
        walk_ms, _ = median_ms(lambda: type(w).walked.func(w))
        braid_ms, _ = median_ms(lambda: wiring.boundary_braid(w))
        incidence_ms, matrix = median_ms(lambda: wiring.incidence(w))
        canonical_ms, _ = median_ms(lambda: fillings.incidence_canonical(matrix))
        render_ms, svg = median_ms(lambda: cli.render(w))
        peak = peak_ratio(lambda: cli.render(w))
        with tempfile.TemporaryDirectory() as tmp:
            a, copy = Path(tmp) / "a.wire", Path(tmp) / "copy.wire"
            a.write_text(text)
            copy.write_text(workloads.arrangement(labels_all[:m], free_first=True))
            cli_ms = {}
            for label, argv in (("compare", ("compare", "--wire", a, "--wire", copy)),
                                ("incidence", ("incidence", "--wire", a)),
                                ("compare --unlabeled", ("compare", "--wire", a, "--wire", copy, "--unlabeled"))):
                cli_ms[label], result = median_ms(lambda: api.run_cli(*argv))
                if result.code != 0:
                    raise SystemExit(f"{label} m={m} exited {result.code}: {result.stderr}")
        print(f"| {m} | {len(chunks):,} / {len(set(chunks)):,} | {len(svg):,} | {parse_ms:,.2f} ms "
              f"| {walk_ms:,.2f} ms | {braid_ms:,.2f} ms | {incidence_ms:,.2f} ms | {canonical_ms:,.2f} ms "
              f"| {render_ms:,.2f} ms | {peak:.2f}× | {cli_ms['compare']:,.2f} ms "
              f"| {cli_ms['incidence']:,.2f} ms | {cli_ms['compare --unlabeled']:,.2f} ms |", flush=True)
    print()
    print("| text | parser | lines | ms per call | µs per line |")
    print("| --- | --- | --- | --- | --- |")
    pass_ms = pass_lines = 0
    for label, text, parse in parse_rows(workloads, api):
        ms, _ = median_ms(lambda: parse(text))
        lines = sum(1 for line in text.splitlines() if line.split("#", 1)[0].strip())
        if parse is api.plumbing.parse_germ:
            pass_ms, pass_lines = pass_ms + 2 * ms, pass_lines + 2 * lines
        print(f"| {label} | `{parse.__name__}` | {lines:,} | {ms:,.3f} | {1000 * ms / lines:.2f} |", flush=True)
    print(f"| clusters, one graph-pipeline pass | `parse_germ` | {pass_lines:,} | {pass_ms:,.3f} "
          f"| {1000 * pass_ms / pass_lines:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
