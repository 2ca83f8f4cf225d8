"""The scaling ledger: how the time of every traced layer grows with its input.

    python3 tools/scaling.py CHECKOUT

Imports ``perfbench/workloads.py`` and the package under ``src/`` of the
git checkout CHECKOUT, writes nothing inside it and keeps to one CPU, as
``perfbench/run.py`` does.  Two checkouts are compared by alternating
``perfbench/run.py`` pairs, not here.

Each row of ``rows()`` names a function of the package (every function
that ``perfbench/tracing.py`` wraps has one), a ladder of LADDERS and a
call on one rung's inputs.  A cell is the median milliseconds of the calls
that fit in BUDGET_S seconds but the first, or of the first alone if it
took the budget.  A cached property that a row times (``walked``,
``indexed``) is dropped before each call.  A row stops after its first
rung over CAP_S seconds.  Its growth is the least-squares slope of log time
against log measure on a doubling ladder, the time ratio of each step on
an additive one.
"""

import contextlib
import io
import json
import math
import os
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

from checkout import load_checkout

SEED = 7
BUDGET_S = 0.1
CAP_S = 1.0
LINE_PAIR = "vertex v -3\ncurvetta a on v\ncurvetta b on v\n"


def _arrangement(api, wl, work: Path, m: int):
    wiring, labels = api.wiring, wl.Names(SEED).take(m)
    r = SimpleNamespace(text=wl.arrangement(labels), wire=work / f"arr_{m}.wire", copy=work / f"arr_{m}_copy.wire")
    r.wire.write_text(r.text)
    r.copy.write_text(wl.arrangement(labels, free_first=True))
    r.w = wiring.parse_wire(r.text)
    r.matrix, r.copy_matrix = wiring.incidence(r.w), wiring.incidence(wiring.parse_wire(r.copy.read_text()))
    r.fact = wiring.vanishing_data(r.w)
    r.data = json.loads(json.dumps(wiring.factorization_json(r.fact)))  # as the CLI reads it
    r.enclosure, r.hole, r.size = wiring.enclosure_from_wiring(r.w), m // 2, len(r.w.events)
    return r


def _unexpected(api, wl, work: Path, n: int):
    plumbing, wiring = api.plumbing, api.wiring
    graph, _ = plumbing.parse_plumb(LINE_PAIR)
    r = SimpleNamespace(graph=graph, n=n, wmax=wl.WMAX)
    r.g = plumbing.build_unexpected(graph, n, wl.WMAX)
    r.trace = plumbing.blow_down(r.g)
    r.full = plumbing.cluster_from_trace(r.trace)
    r.line_names = [b for b in r.full.branches if b not in graph.curvettas()]
    base = plumbing.subcluster(r.full, [b for b in r.full.branches if b in graph.curvettas()])
    r.lines = plumbing.subcluster(r.full, r.line_names)
    r.wa, r.wb = wiring.scott(base), wiring.scott(r.lines)
    r.w = wiring.combine(r.wa, r.wb)
    r.germs = plumbing.germ_from_cluster(base), plumbing.germ_from_cluster(r.lines)
    r.germ, r.size = api.fillings.combine_germs(*r.germs), len(r.g.vertices)
    return r


def _chains(api, wl, work: Path, length: int):
    plumbing = api.plumbing
    graph, _ = plumbing.parse_plumb(LINE_PAIR)
    r = SimpleNamespace(graph=graph, lengths={"a": length, "b": length})
    r.g = plumbing.extend_chains(graph, r.lengths)
    r.plumb, r.size = plumbing.serialize_plumb(r.g), len(r.g.vertices)
    r.cluster = plumbing.cluster_from_trace(plumbing.blow_down(r.g))
    r.germ_text, r.germ = plumbing.serialize_germ(r.cluster), plumbing.germ_from_cluster(r.cluster)
    return r


def _braid(api, wl, work: Path, k: int):
    wiring, case = api.wiring, wl.cusp_cluster(wl.Names(SEED), 3, weights=True)
    components, events = wl.two_cusp_layout(case)
    braids = [()] * (len(events) + 1)
    braids[len(events) // 2] = wl.ladder_insert(k, wl.TRIVIAL_R)
    r = SimpleNamespace(cluster=api.plumbing.parse_germ(case.text), n=4, wire=work / f"braid_{k}.wire",
                        out=work / f"braid_{k}.json", text=wl.wire_text(4, components, braids, events))
    r.wire.write_text(r.text)
    r.diagram = wiring.parse_wire(r.text)
    r.braid, r.fact = wiring.boundary_braid(r.diagram), wiring.vanishing_data(r.diagram)
    r.rebuilt = wiring.boundary_braid(wiring.wiring_from_vanishing(r.fact))
    r.item = max(r.fact.items, key=lambda item: len(item.conjugator))
    r.mc, r.size = api.mcg.mc_from_braid(r.braid, r.n), len(r.braid)
    return r


def _word40(api, wl, work: Path, k: int):
    word = (-1, 39, -1, 39) + wl.ladder_insert(k, wl.TRIVIAL_R)
    return SimpleNamespace(word=word, base=(1, 2), curve=api.mcg.HoleCurve(40, word, 1, 1), size=k)


def _cycles(api, wl, work: Path, two_n: int):
    n, order = two_n // 2, random.Random(SEED).sample(range(two_n), two_n)
    edges = {"a": [(i, (i + 1) % two_n) for i in range(two_n)],
             "b": [(order[h + i], order[h + (i + 1) % n]) for h in (0, n) for i in range(n)]}
    return SimpleNamespace(size=two_n, **{key: api.wiring.IncidenceMatrix(
        tuple(f"c{i:02d}" for i in range(two_n)), [bytes(i in edge for i in range(two_n)) for edge in es],
        ("intersection",) * two_n) for key, es in edges.items()})


# name: (build, rung values, their name, the measure's name, None on an
# additive ladder); ``build(api, workloads, work directory, value)`` gives a
# rung's inputs and its measure, ``size``.  Built as the benchmark builds its
# inputs: generic arrangements of m lines (E events); ``unexpected`` on the
# line pair, stage by stage (V vertices of the star-extended graph); the
# pair's curvettas pushed out along -2 chains of L vertices; braid-ladder's
# equal rung k on the two-cusp layout (B letters of its boundary braid);
# ROADMAP item 14's 40-strand word s1' s39 s1' s39 P^k R P^-k; item 3's
# cycle C_2n against two disjoint C_n with shuffled rows.
LADDERS = {
    "arrangement": (_arrangement, (8, 16, 32, 64), "m", "E"),
    "unexpected": (_unexpected, (4, 8, 16, 32), "N", "V"),
    "chains": (_chains, (250, 500, 1000, 2000, 4000), "L", "V"),
    "braid": (_braid, (1, 2, 4, 8), "k", "B"),
    "word40": (_word40, (8, 10, 12), "k", None),
    "cycles": (_cycles, (10, 12, 14), "2n", None),
}


class Row(NamedTuple):
    name: str  # layer.function, the function handed to ``call``, then a note if any
    ladder: str
    call: Callable  # (function, rung) -> result
    fresh: tuple = ()  # (rung attribute, cached property) dropped before each call


def _main(main, *argv) -> None:
    """``cli.main(argv)`` with its output caught; raises unless it exits 0."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        if main([str(a) for a in argv]) != 0:
            raise RuntimeError(f"{' '.join(map(str, argv))} failed: {err.getvalue()}")


def rows() -> list[Row]:
    """The ledger's rows, ladder by ladder, in the order they print."""
    return [
        Row("wiring.parse_wire", "arrangement", lambda f, r: f(r.text)),
        Row("wiring.serialize_wire", "arrangement", lambda f, r: f(r.w)),
        Row("wiring.event_strands", "arrangement", lambda f, r: f(r.w), ("w", "walked")),
        Row("wiring.strand_components", "arrangement", lambda f, r: f(r.w)),
        Row("wiring.validate_wiring no germ", "arrangement", lambda f, r: f(r.w, None), ("w", "walked")),
        Row("wiring.incidence", "arrangement", lambda f, r: f(r.w)),
        Row("wiring.incidence_json", "arrangement", lambda f, r: f(r.matrix)),
        Row("fillings.incidence_canonical", "arrangement", lambda f, r: f(r.matrix)),
        Row("fillings.incidence_equiv labelled", "arrangement", lambda f, r: f(r.matrix, r.copy_matrix)),
        Row("wiring.boundary_braid", "arrangement", lambda f, r: f(r.w)),
        Row("cli.render", "arrangement", lambda f, r: f(r.w)),
        Row("wiring.vanishing_data", "arrangement", lambda f, r: f(r.w)),
        Row("wiring.factorization_json", "arrangement", lambda f, r: f(r.fact)),
        Row("wiring.factorization_from_json", "arrangement", lambda f, r: f(r.data)),
        Row("wiring.wiring_from_vanishing", "arrangement", lambda f, r: f(r.fact)),
        Row("wiring.enclosure_from_wiring", "arrangement", lambda f, r: f(r.w)),
        Row("wiring.inside_out", "arrangement", lambda f, r: f(r.enclosure, r.hole)),
        Row("cli.main incidence", "arrangement", lambda f, r: _main(f, "incidence", "--wire", r.wire)),
        Row("cli.main compare", "arrangement", lambda f, r: _main(f, "compare", "--wire", r.wire, "--wire", r.copy)),
        Row("fillings.unexpected_arrangement", "unexpected", lambda f, r: f(r.graph, r.n, r.wmax)),
        Row("plumbing.build_unexpected", "unexpected", lambda f, r: f(r.graph, r.n, r.wmax)),
        Row("plumbing.blow_down", "unexpected", lambda f, r: f(r.g)),
        Row("plumbing.cluster_from_trace", "unexpected", lambda f, r: f(r.trace)),
        Row("plumbing.subcluster", "unexpected", lambda f, r: f(r.full, r.line_names)),
        Row("plumbing.check_cluster", "unexpected", lambda f, r: f(r.full), ("full", "indexed")),
        Row("wiring.scott lines", "unexpected", lambda f, r: f(r.lines)),
        Row("wiring.combine", "unexpected", lambda f, r: f(r.wa, r.wb)),
        Row("fillings.combine_germs", "unexpected", lambda f, r: f(*r.germs)),
        Row("wiring.validate_wiring germ", "unexpected", lambda f, r: f(r.w, r.germ), ("w", "walked")),
        Row("plumbing.extend_chains", "chains", lambda f, r: f(r.graph, r.lengths)),
        Row("plumbing.serialize_plumb", "chains", lambda f, r: f(r.g)),
        Row("plumbing.parse_plumb", "chains", lambda f, r: f(r.plumb)),
        Row("plumbing.automorphisms", "chains", lambda f, r: f(r.g)),
        Row("plumbing.blow_down", "chains", lambda f, r: f(r.g)),
        Row("plumbing.germ_from_augmentation", "chains", lambda f, r: f(r.g)),
        Row("plumbing.serialize_germ", "chains", lambda f, r: f(r.cluster)),
        Row("plumbing.parse_germ", "chains", lambda f, r: f(r.germ_text)),
        Row("plumbing.check_cluster", "chains", lambda f, r: f(r.cluster), ("cluster", "indexed")),
        Row("plumbing.branch_chain", "chains", lambda f, r: f(r.cluster, 0)),
        Row("plumbing.graph_from_cluster", "chains", lambda f, r: f(r.cluster)),
        Row("plumbing.germ_from_cluster", "chains", lambda f, r: f(r.cluster)),
        Row("plumbing.germ_json", "chains", lambda f, r: f(r.germ)),
        Row("wiring.scott", "chains", lambda f, r: f(r.cluster)),
        Row("fillings.compatible", "braid", lambda f, r: f(r.diagram, r.cluster)),
        Row("mcg.braid_equal", "braid", lambda f, r: f(r.braid, r.rebuilt, r.n)),
        Row("mcg.braid_permutation", "braid", lambda f, r: f(r.braid, r.n)),
        Row("mcg.mc_from_braid", "braid", lambda f, r: f(r.braid, r.n)),
        Row("mcg.mc_of_item", "braid", lambda f, r: f(r.item)),
        Row("mcg.mc_compose", "braid", lambda f, r: f(r.mc, r.mc)),
        Row("fillings.factorization_product", "braid", lambda f, r: f(r.fact)),
        Row("cli.main vanishing", "braid", lambda f, r: _main(f, "vanishing", "--wire", r.wire, "-o", r.out)),
        Row("mcg.canonical_curve", "word40", lambda f, r: f(r.curve)),
        Row("mcg.artin_act", "word40", lambda f, r: f(r.word, r.base, 40)),
        Row("fillings.incidence_equiv unlabeled", "cycles", lambda f, r: f(r.a, r.b, unlabeled=True)),
    ]


def call(api, row: Row, rung):
    """The row's call on the rung's inputs, after dropping what it times."""
    if row.fresh:
        vars(getattr(rung, row.fresh[0])).pop(row.fresh[1], None)
    layer, name = row.name.split()[0].split(".")
    return row.call(getattr(getattr(api, layer), name), rung)


def cell_ms(once) -> float:
    times, start = [], time.perf_counter()
    while not times or time.perf_counter() - start < BUDGET_S:
        t0 = time.perf_counter()
        once()
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times[1:] or times)


def _cell(x, spec: str) -> str:
    return "–" if x is None else format(x, spec)


def ledger(api, wl, work: Path) -> None:
    """Prints one Markdown table per ladder: per row its name, milliseconds
    per rung (– past the cap) and growth."""
    for name, (build, values, rung, measure) in LADDERS.items():
        rungs = [build(api, wl, work, value) for value in values]
        heads = [f"`{name}` row"] + [f"{rung}={v}" + (f", {measure}={r.size:,}" if measure else "") + " ms"
                                     for v, r in zip(values, rungs)]
        heads += ["slope"] if measure else [f"× {rung}={a}→{b}" for a, b in zip(values, values[1:])]
        print("| " + " | ".join(heads) + " |\n|" + " --- |" * len(heads))
        for row in (row for row in rows() if row.ladder == name):
            times: list[float | None] = []
            for r in rungs:
                stop = times and (times[-1] is None or times[-1] > 1000 * CAP_S)
                times.append(None if stop else cell_ms(lambda: call(api, row, r)))
            slopes = growth([r.size for r in rungs], times, measure is not None)
            cells = [f"`{row.name}`"] + [_cell(t, ",.3f") for t in times] + [_cell(g, ".2f") for g in slopes]
            print("| " + " | ".join(cells) + " |", flush=True)
        print()


def growth(sizes: list, times: list, doubling: bool) -> list:
    """Over the timed rungs: the slope of log time on log size, or each step's ratio."""
    points = [(s, t) for s, t in zip(sizes, times) if t is not None]
    if not doubling:
        return [b / a for (_, a), (_, b) in zip(points, points[1:])] + [None] * (len(sizes) - len(points))
    if len(points) < 2:
        return [None]
    return [statistics.linear_regression(*([math.log(x) for x in xs] for xs in zip(*points))).slope]


def main(argv=None) -> int:
    if (loaded := load_checkout(argv, __doc__)) is None:
        return 2
    workloads, api = loaded
    with contextlib.suppress(AttributeError, OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory(prefix="sandwich-scaling-") as work:
        ledger(api, workloads, Path(work))
    return 0


if __name__ == "__main__":
    sys.exit(main())
