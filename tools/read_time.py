"""In-process times of the diagram read side on diagram-read's arrangements.

    python3 tools/read_time.py CHECKOUT

Imports ``perfbench/workloads.py`` and the package under ``src/`` of the
git checkout CHECKOUT, and writes nothing inside it (no bytecode cache
either).  For each m of diagram-read's arrangement rungs (m = 8, 12, ..., 40)
it builds the generic arrangement of m lines as that workload does, with
the component labels of seed 7, and prints one markdown table row:

- ``parse_wire``: milliseconds to parse the ``.wire`` text;
- ``walk``: milliseconds of the strand walk (``WiringDiagram.walked``,
  computed anew on each call instead of read from its cache);
- ``incidence``: milliseconds per call, on a diagram whose walk is cached;
- ``incidence_canonical``: milliseconds per call on that matrix;
- ``render``: milliseconds per call of the SVG renderer;
- ``render peak``: the ``tracemalloc`` peak of one ``render`` call as a
  multiple of the length of the SVG it returns.

Each time is the median of as many calls as fit in ``BUDGET_S`` seconds, at
least one, after one untimed call.  The peak is taken with tracing on only
around that one call, so the times are not slowed by it.
"""

import argparse
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

SEED = 7
BUDGET_S = 0.5
MAX_CALLS = 51


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
    print("| m | svg bytes | `parse_wire` | walk | `incidence` | `incidence_canonical` "
          "| `render` | render peak |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for m in workloads.ARRANGEMENT_M:
        text = workloads.arrangement(labels_all[:m])
        parse_ms, w = median_ms(lambda: wiring.parse_wire(text))
        walk_ms, _ = median_ms(lambda: type(w).walked.func(w))
        incidence_ms, matrix = median_ms(lambda: wiring.incidence(w))
        canonical_ms, _ = median_ms(lambda: fillings.incidence_canonical(matrix))
        render_ms, svg = median_ms(lambda: cli.render(w))
        peak = peak_ratio(lambda: cli.render(w))
        print(f"| {m} | {len(svg):,} | {parse_ms:,.2f} ms | {walk_ms:,.2f} ms | {incidence_ms:,.2f} ms "
              f"| {canonical_ms:,.2f} ms | {render_ms:,.2f} ms | {peak:.2f}× |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
