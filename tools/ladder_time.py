"""In-process times of the braid layer and the CLI on every braid-ladder rung.

    python3 tools/ladder_time.py CHECKOUT [OTHER] [--rounds R]

Imports ``perfbench/workloads.py`` and the package under ``src/`` of the
git checkout CHECKOUT, and writes nothing inside it (no bytecode cache
either).  With a second checkout OTHER it runs R alternating rounds, each
checkout in a fresh subprocess, and pairs the medians (``tools/paired.py``),
so that a drift in the machine's speed between runs does not read as a
difference between the checkouts.

For each of braid-ladder's twelve rungs (equal k = 0..8, whose middle
braid slot is P^k R P^-k, and unequal k = 0..2, whose slot is
P^k s1^2 P^-k, with P = s1 s2^-1 and R = s1 s2 s1 s2' s1' s2') it builds
the rung's diagram on the two-cusp layout at seed 7, as that workload
does, and gives one row of the first table:

- ``compatible``: milliseconds per call against the two-cusp cluster,
  one cluster object for all calls, as in a benchmark pass;
- ``vanishing``, ``wire-from-vanishing``: milliseconds per ``cli.main``
  call of the command, the first on the rung's diagram and the second on
  the first's output, both files in a temporary directory outside CHECKOUT;
- ``braid_equal`` op: milliseconds per call of the workload's op, which
  reads the rebuilt ``.wire`` back and compares its boundary braid with
  the diagram's;
- ``factorization_product``: milliseconds per call on the rung's
  vanishing data (the workload runs it on the unequal rungs up to
  ``PRODUCT_UNEQUAL_MAX_K`` only; all twelve are timed here);
- ``product first``: milliseconds of the first ``factorization_product``
  call after a fresh ``workloads.Api()`` import, before any memo of the
  package holds anything;
- ``longest image``: letters in the longest free-group image of the product;
- ``canonicalWord``: letters in the longest canonical word of the items;
- ``factorization_json``: milliseconds per call;
- ``json first``: the first ``factorization_json`` call, timed the same
  way as ``product first``.

A second table gives two times of ``cli.main(["vanishing"])``, a usage
error (``--wire`` missing): the first call after a fresh import of the
package, which builds that command's parser, and the median warm call,
which parses with the parser ``main`` keeps for the process.  The
difference is about the cost of building one command's parser; the warm
call is the fixed cost of ``main`` around a kept parser.

Each per-call time is the median of as many calls as fit in ``BUDGET_S``
seconds, at least one, after one untimed call; they run on warm memos, as
the calls of one benchmark pass do.  A first call is what one CLI process
pays.
"""

import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True
import paired  # noqa: E402  (after the flag, so no cache is written beside it)

SEED = 7
BUDGET_S = 0.25
MAX_CALLS = 51
N = 4  # strands of the two-cusp layout


def median_ms(call) -> tuple[float, object]:
    return paired.median_ms(call, BUDGET_S, MAX_CALLS)


def expect_exit(result, argv, code: int) -> None:
    if result.code != code:
        raise SystemExit(f"{' '.join(map(str, argv))} exited {result.code}: {result.stderr}")


def cli_ms(api, *argv, code: int = 0) -> float:
    """Milliseconds per ``cli.main(argv)`` call, which must exit with ``code``."""
    ms, result = median_ms(lambda: api.run_cli(*argv))
    expect_exit(result, argv, code)
    return ms


def measure(checkout: Path) -> list[dict]:
    workloads, api = paired.import_api(checkout)
    case = workloads.cusp_cluster(workloads.Names(SEED), 3, weights=True)
    components, events = workloads.two_cusp_layout(case)
    cluster = api.plumbing.parse_germ(case.text)

    def wire_text(core, k: int) -> str:
        braids = [()] * (len(events) + 1)
        braids[len(events) // 2] = workloads.ladder_insert(k, core)
        return workloads.wire_text(N, components, braids, events)

    def first_ms(text: str, call) -> float:
        """``call(api, fact)`` on the vanishing data of ``text``, the first
        call after a fresh import of the package."""
        fresh = workloads.Api()
        fact = fresh.wiring.vanishing_data(fresh.wiring.parse_wire(text))
        t0 = time.perf_counter()
        call(fresh, fact)
        return 1000 * (time.perf_counter() - t0)

    rungs = [("equal", k, workloads.TRIVIAL_R) for k in workloads.EQUAL_K]
    rungs += [("unequal", k, workloads.PURE_S1_SQUARED) for k in workloads.UNEQUAL_K]
    rows = []
    for kind, k, core in rungs:
        text = wire_text(core, k)
        product_first = first_ms(text, lambda api, fact: api.fillings.factorization_product(fact))
        json_first = first_ms(text, lambda api, fact: api.wiring.factorization_json(fact))
        api = workloads.Api()
        wiring = api.wiring
        diagram = wiring.parse_wire(text)
        fact = wiring.vanishing_data(diagram)
        compatible_ms, (ok, _) = median_ms(lambda: api.fillings.compatible(diagram, cluster))
        if ok != (kind == "equal"):
            raise SystemExit(f"compatible {kind} k={k} answered {ok}")
        with tempfile.TemporaryDirectory() as tmp:
            wire, out, rebuilt = (Path(tmp) / name for name in ("ladder.wire", "fact.json", "rebuilt.wire"))
            wire.write_text(text)
            vanishing_ms = cli_ms(api, "vanishing", "--wire", wire, "-o", out)
            rebuild_ms = cli_ms(api, "wire-from-vanishing", "--fact", out, "-o", rebuilt)
            equal_ms, same = median_ms(lambda: api.mcg.braid_equal(
                wiring.boundary_braid(diagram), wiring.boundary_braid(wiring.parse_wire(rebuilt.read_text())), N))
        if not same:
            raise SystemExit(f"braid_equal {kind} k={k}: the rebuilt diagram has another boundary braid")
        product_ms, mc = median_ms(lambda: api.fillings.factorization_product(fact))
        json_ms, data = median_ms(lambda: wiring.factorization_json(fact))
        rows.append([f"{kind} k={k}", compatible_ms, vanishing_ms, rebuild_ms, equal_ms, product_ms,
                     product_first, max(map(len, mc.images)),
                     max(len(d["canonicalWord"]) for d in data["items"]), json_ms, json_first])
    ms = ",.3f"
    columns = [("rung", ""), ("`compatible` ms", ms), ("`vanishing` ms", ms), ("`wire-from-vanishing` ms", ms),
               ("`braid_equal` op ms", ms), ("`factorization_product` ms", ms), ("product first ms", ms),
               ("longest image", ","), ("`canonicalWord`", ","), ("`factorization_json` ms", ms),
               ("json first ms", ms)]
    fresh = workloads.Api()
    t0 = time.perf_counter()
    result = fresh.run_cli("vanishing")
    parser_first = 1000 * (time.perf_counter() - t0)
    expect_exit(result, ("vanishing",), 2)
    parser_rows = [["first call after a fresh import (builds the parser)", parser_first],
                   ["warm median (the kept parser)", cli_ms(fresh, "vanishing", code=2)]]
    return [{"columns": columns, "rows": rows},
            {"columns": [("`main([\"vanishing\"])`, a usage error", ""), ("ms", ".3f")], "rows": parser_rows}]


if __name__ == "__main__":
    sys.exit(paired.main(__file__, measure))
