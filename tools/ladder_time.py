"""In-process times of the braid layer and the CLI on the unequal braid-ladder rungs.

    python3 tools/ladder_time.py CHECKOUT

Imports ``perfbench/workloads.py`` and the package under ``src/`` of the
git checkout CHECKOUT, and writes nothing inside it (no bytecode cache
either).  For k = 0..KMAX it builds the braid-ladder diagram whose middle
braid slot is P^k s1^2 P^-k, with P = s1 s2^-1, on the two-cusp layout at
seed 7, takes its vanishing data and prints one markdown table row:

- ``product first``: milliseconds of the first ``factorization_product``
  call after a fresh ``workloads.Api()`` import, before any memo of the
  package holds anything;
- ``factorization_product``: milliseconds per call;
- ``longest image``: letters in the longest free-group image of the product;
- ``canonicalWord``: letters in the longest canonical word of the items;
- ``json first``: the first ``factorization_json`` call, timed the same
  way as ``product first`` after a fresh import of its own;
- ``factorization_json``: milliseconds per call;
- ``vanishing``, ``wire-from-vanishing``: milliseconds per ``cli.main``
  call of the command, the first on the rung's diagram and the second on
  the first's output, both files in a temporary directory outside CHECKOUT.

Last it prints two times of ``cli.main(["vanishing"])``, a usage error
(``--wire`` missing): the first call after a fresh import of the package,
which builds that command's parser, and the median warm call, which
parses with the parser ``main`` keeps for the process. The difference is
about the cost of building one command's parser; the warm call is the
fixed cost of ``main`` around a kept parser.

The per-call times are the median of as many calls as fit in ``BUDGET_S``
seconds, at least one; after the first call they run on warm memos, as
the calls of one benchmark pass do.  A first call is what one CLI process
pays.  The parent of a change to the Artin action at k = 3 takes about
18 s for one ``factorization_product`` call.
"""

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

SEED = 7
BUDGET_S = 1.0
MAX_CALLS = 51
KMAX = 3
N = 4  # strands of the two-cusp layout


def median_ms(call) -> tuple[float, object]:
    """Median milliseconds of repeated calls, and the last result."""
    times: list[float] = []
    start = time.perf_counter()
    while not times or (time.perf_counter() - start < BUDGET_S and len(times) < MAX_CALLS):
        t0 = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times), result


def ladder_wire(k: int) -> str:
    """The ``.wire`` text of the unequal rung k."""
    components, events = workloads.two_cusp_layout(workloads.cusp_cluster(workloads.Names(SEED), 3, weights=True))
    braids = [()] * (len(events) + 1)
    braids[len(events) // 2] = workloads.ladder_insert(k, workloads.PURE_S1_SQUARED)
    return workloads.wire_text(N, components, braids, events)


def ladder_factorization(api, k: int):
    """Vanishing data of the unequal rung k, built with the modules of ``api``."""
    return api.wiring.vanishing_data(api.wiring.parse_wire(ladder_wire(k)))


def expect_exit(result, argv, code: int) -> None:
    if result.code != code:
        raise SystemExit(f"{' '.join(map(str, argv))} exited {result.code}: {result.stderr}")


def cli_ms(api, *argv, code: int = 0) -> float:
    """Milliseconds per ``cli.main(argv)`` call, which must exit with ``code``."""
    ms, result = median_ms(lambda: api.run_cli(*argv))
    expect_exit(result, argv, code)
    return ms


def first_cli_ms(*argv, code: int) -> tuple[float, object]:
    """Milliseconds of the first ``cli.main(argv)`` call after a fresh import
    of the package, which must exit with ``code``, and that import's api."""
    api = workloads.Api()
    t0 = time.perf_counter()
    result = api.run_cli(*argv)
    ms = 1000 * (time.perf_counter() - t0)
    expect_exit(result, argv, code)
    return ms, api


def first_call_ms(k: int, call) -> float:
    """Milliseconds of ``call(api, fact)`` on rung k, the first call after a
    fresh import of the package."""
    api = workloads.Api()
    fact = ladder_factorization(api, k)
    t0 = time.perf_counter()
    call(api, fact)
    return 1000 * (time.perf_counter() - t0)


def main(argv=None) -> int:
    global workloads  # the checkout's perfbench/workloads.py, importable once the path is set
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
    print("| k | product first | `factorization_product` | longest image | `canonicalWord` "
          "| json first | `factorization_json` | `vanishing` | `wire-from-vanishing` |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for k in range(KMAX + 1):
        product_first = first_call_ms(k, lambda api, fact: api.fillings.factorization_product(fact))
        json_first = first_call_ms(k, lambda api, fact: api.wiring.factorization_json(fact))
        api = workloads.Api()
        fact = ladder_factorization(api, k)
        product_ms, mc = median_ms(lambda: api.fillings.factorization_product(fact))
        json_ms, data = median_ms(lambda: api.wiring.factorization_json(fact))
        image = max(map(len, mc.images))
        canonical = max(len(d["canonicalWord"]) for d in data["items"])
        with tempfile.TemporaryDirectory() as tmp:
            wire, fact, rebuilt = (Path(tmp) / name for name in ("ladder.wire", "fact.json", "rebuilt.wire"))
            wire.write_text(ladder_wire(k))
            vanishing_ms = cli_ms(api, "vanishing", "--wire", wire, "-o", fact)
            rebuild_ms = cli_ms(api, "wire-from-vanishing", "--fact", fact, "-o", rebuilt)
        print(f"| {k} | {product_first:,.2f} ms | {product_ms:,.2f} ms | {image:,} | {canonical:,} "
              f"| {json_first:,.2f} ms | {json_ms:,.2f} ms | {vanishing_ms:,.2f} ms | {rebuild_ms:,.2f} ms |",
              flush=True)
    first_ms, api = first_cli_ms("vanishing", code=2)
    print(f"\n`main([\"vanishing\"])` (a usage error): first call after a fresh import, "
          f"which builds the command's parser, {first_ms:.3f} ms; "
          f"warm median, on the kept parser, {cli_ms(api, 'vanishing', code=2):.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
