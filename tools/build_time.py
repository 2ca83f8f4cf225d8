"""In-process times of the build side, stage by stage: the path from a plumbing graph to the combined layout.

    python3 tools/build_time.py CHECKOUT [OTHER] [--rounds R]

Imports ``perfbench/workloads.py`` and the package under ``src/`` of the
git checkout CHECKOUT, and writes nothing inside it (no bytecode cache
either).  With a second checkout OTHER it runs R alternating rounds, each
checkout in a fresh subprocess, and pairs the medians (``tools/paired.py``).

The first table has one row per ``unexpected`` op of graph-pipeline: the
line pair and the line triple through one vertex, N = 1..6, wmax 5, with
the names of seed 7.  Its columns are the milliseconds per call of each
stage of ``fillings.unexpected_arrangement``:

- ``build_unexpected``: the star-extended graph;
- ``blow_down``: its blow-down trace;
- ``cluster_from_trace``: the full cluster read off that trace;
- ``subcluster``: the base and the line subclusters, both calls;
- ``check_cluster``: both subclusters, each on a fresh index;
- ``scott``: both layouts, on subclusters whose index is built;
- ``combine``: the two layouts merged;
- ``validate_wiring``: the merged diagram against the generic-union germ,
  with a fresh strand walk.

The second table has the same columns on two smooth branches through a -3
vertex, each pushed out along a -2 chain of L vertices (graph-pipeline's
chain germs), L = 250, 500, 1000, 2000: the subcluster is the first branch
alone, the layout is its cluster's, and it is validated against that
cluster's germ.  Stages that do not apply are dashes.

Each time is the median of as many calls as fit in ``BUDGET_S`` seconds, at
least one, after one untimed call.
"""

import sys
from pathlib import Path

sys.dont_write_bytecode = True
import paired  # noqa: E402  (after the flag, so no cache is written beside it)

SEED = 7
WMAX = 5
UNEXPECTED_N = range(1, 7)
CHAIN_L = (250, 500, 1000, 2000)
BUDGET_S = 0.2
MAX_CALLS = 41
STAGES = ("build_unexpected", "blow_down", "cluster_from_trace", "subcluster", "check_cluster",
          "scott", "combine", "validate_wiring")


def median_ms(call) -> tuple[float, object]:
    return paired.median_ms(call, BUDGET_S, MAX_CALLS)


def fresh(obj, name: str):
    """``obj`` with its cached property ``name`` dropped, so that the next
    read computes it anew."""
    obj.__dict__.pop(name, None)
    return obj


def unexpected_row(api, graph, aug, n: int) -> list:
    plumbing, wiring, fillings = api.plumbing, api.wiring, api.fillings
    ms = {}
    ms["build_unexpected"], (g, arrows) = median_ms(lambda: plumbing.build_unexpected(graph, aug, n, WMAX))
    ms["blow_down"], trace = median_ms(lambda: plumbing.blow_down(g, arrows))
    ms["cluster_from_trace"], full = median_ms(lambda: plumbing.cluster_from_trace(trace))
    original = set(aug.curvettas())
    names = ([b for b in full.branches if b in original], [b for b in full.branches if b not in original])
    ms["subcluster"], (base, lines) = median_ms(lambda: [plumbing.subcluster(full, part) for part in names])
    ms["check_cluster"], _ = median_ms(lambda: [plumbing.check_cluster(fresh(c, "indexed")) for c in (base, lines)])
    ms["scott"], (wa, wb) = median_ms(lambda: [wiring.scott(c) for c in (base, lines)])
    ms["combine"], w = median_ms(lambda: wiring.combine(wa, wb))
    germ = fillings.combine_germs(plumbing.germ_from_cluster(base), plumbing.germ_from_cluster(lines))
    ms["validate_wiring"], report = median_ms(lambda: wiring.validate_wiring(fresh(w, "walked"), germ))
    if not report.ok:
        raise SystemExit(f"N={n}: the merged layout fails its germ: {report.entries[:1]}")
    return [ms[s] for s in STAGES]


def chain_row(api, graph, aug, length: int) -> list:
    plumbing, wiring = api.plumbing, api.wiring
    g, arrows = plumbing.extend_chains(graph, aug, {c: length for c in aug.curvettas()})
    ms = dict.fromkeys(STAGES)
    ms["blow_down"], trace = median_ms(lambda: plumbing.blow_down(g, arrows))
    ms["cluster_from_trace"], c = median_ms(lambda: plumbing.cluster_from_trace(trace))
    ms["subcluster"], _ = median_ms(lambda: plumbing.subcluster(c, c.branches[:1]))
    ms["check_cluster"], _ = median_ms(lambda: plumbing.check_cluster(fresh(c, "indexed")))
    ms["scott"], w = median_ms(lambda: wiring.scott(c))
    germ = plumbing.germ_from_cluster(c)
    ms["validate_wiring"], report = median_ms(lambda: wiring.validate_wiring(fresh(w, "walked"), germ))
    if not report.ok:
        raise SystemExit(f"L={length}: the layout fails its germ: {report.entries[:1]}")
    return [ms[s] for s in STAGES]


def measure(checkout: Path) -> list[dict]:
    workloads, api = paired.import_api(checkout)
    plumbing = api.plumbing
    names = workloads.Names(SEED)
    columns = [("op", "")] + [(f"`{s}` ms", ",.3f") for s in STAGES]
    rows = []
    for tag, k in (("pair", 2), ("triple", 3)):
        vertex, *curvettas = names.take(1 + k)
        graph = plumbing.plumbing_graph({vertex: -(k + 1)})
        aug = plumbing.augmentation([(c, vertex) for c in curvettas])
        rows += [[f"unexpected {tag} N={n}", *unexpected_row(api, graph, aug, n)] for n in UNEXPECTED_N]
    vertex, c, d = names.take(3)
    graph = plumbing.plumbing_graph({vertex: -3})
    aug = plumbing.augmentation([(c, vertex), (d, vertex)])
    chains = [[f"chains L={length}", *chain_row(api, graph, aug, length)] for length in CHAIN_L]
    return [{"columns": columns, "rows": rows},
            {"columns": columns, "rows": chains}]


if __name__ == "__main__":
    sys.exit(paired.main(__file__, measure))
