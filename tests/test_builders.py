"""The arrangement builders against their earlier versions, kept here
verbatim as ``reference_scott``, ``reference_combine`` and
``reference_combine_germs``: the layout by strand lists keyed by point id,
the splice of braid words through ``push_braid``/``push_event``, and the
germ pairing by name.  Each must give the same value, or the same error
class and message, as its replacement.  The one-pass builders splice
braid words through ``wiring._assemble``, whose rule is pinned last."""

import random
from collections import Counter

import pytest

from sandwich.errors import InternalInconsistencyError, NoLayoutError, ProximityViolationError, RangeError
from sandwich.fillings import combine_germs
from sandwich.mcg import Word, inverse_word, reduce_word
from sandwich.plumbing import (
    Branch,
    Cluster,
    DecoratedGerm,
    augmentation,
    blow_down,
    build_unexpected,
    check_cluster,
    cluster,
    cluster_from_trace,
    germ_from_cluster,
    plumbing_graph,
    subcluster,
)
from sandwich.wiring import (
    Event,
    FreePoint,
    Intersection,
    Tangency,
    WiringDiagram,
    _assemble,
    _shift_word,
    combine,
    scott,
)

from fixtures import mutate_rows, outcome
from random_clusters import rand_cluster
from random_diagrams import rand_diagram


def reference_scott(c: Cluster) -> WiringDiagram:
    """Unbraided diagram of the cluster's standard deformation: one
    Intersection or FreePoint per cluster point (multiplicities = strand
    counts), d-1 tangencies per branch placed up front.

    Strand blocks follow the cluster tree depth-first, so each point's
    strands form one contiguous window; when a branch keeps fewer strands
    past a point it keeps the window-side ones.  Points are emitted deepest
    first: every earlier event permutes strands strictly inside an enclosing
    window, so each window still holds exactly its own strands when its
    event appears.  Clusters where a branch shrinks strictly inside a
    three-branch window admit no unbraided layout and are rejected, and so
    are clusters with a point that carries no branch.
    """
    check_cluster(c)
    ix = c.indexed
    finals: dict[int, list[int]] = {}
    for k, b in enumerate(c.branches):
        f = ix.chains[k][-1]
        if c.mults[f][k] != 1:
            raise ProximityViolationError(f"branch {b} ends with multiplicity {c.mults[f][k]}, not 1")
        finals.setdefault(f, []).append(k)

    # branch columns in depth-first order of their final points
    order: list[int] = []
    stack = [0]
    while stack:
        i = stack.pop()
        order.extend(finals.get(i, ()))
        stack.extend(reversed(ix.children[i]))

    block: dict[int, list[int]] = {}
    pos = 1
    for k in order:
        d = c.mults[0][k]
        block[k] = list(range(pos, pos + d))
        pos += d
    n = pos - 1

    # strand portions per (point, branch column), walking parents first
    portion: dict[tuple[str, int], list[int]] = {}
    side: dict[int, str] = {k: "high" for k in order}
    depth: dict[str, int] = {}
    windows: dict[str, list[int]] = {}
    for i, p in enumerate(c.points):
        depth[p.id] = 0 if p.parent is None else depth[p.parent] + 1
        # block starts increase along ``order``: the point's branches in that order
        bs = sorted(c.mults[i], key=lambda k: block[k][0])
        if not bs:
            raise ProximityViolationError(f"point {p.id} carries no branch")
        window: list[int] = []
        for j, k in enumerate(bs):
            m = c.mults[i][k]
            if p.parent is None:
                part = block[k]
            else:
                pp = portion[(p.parent, k)]
                if len(bs) == 1:
                    part = pp[-m:] if side[k] == "high" else pp[:m]
                elif j == 0:
                    part = pp[-m:]
                    side[k] = "high"
                elif j == len(bs) - 1:
                    part = pp[:m]
                    side[k] = "low"
                else:
                    if m != len(pp):
                        raise NoLayoutError(
                            f"branch {c.branches[k]} shrinks inside the window at {p.id}; "
                            "no unbraided layout exists"
                        )
                    part = pp
            portion[(p.id, k)] = part
            window.extend(part)
        window.sort()
        if window != list(range(window[0], window[0] + len(window))):
            raise InternalInconsistencyError(f"window at {p.id} is not contiguous")
        windows[p.id] = window

    events: list[Event] = []
    for k in order:
        positions = []
        chain = ix.chains[k]
        for prev, cur in zip(chain, chain[1:]):
            old = portion[(c.points[prev].id, k)]
            new = portion[(c.points[cur].id, k)]
            if len(new) == len(old):
                continue
            lost = sorted(set(old) - set(new))
            if lost and lost[0] < new[0]:
                positions.extend(lost)
            else:
                positions.extend([new[-1]] + lost[:-1])
        events.extend(Tangency(p) for p in sorted(positions))

    for p in sorted(c.points, key=lambda p: (-depth[p.id], windows[p.id][0])):
        window = windows[p.id]
        total = sum(c.mults[ix.row[p.id]].values())
        if total == 1:
            events.append(FreePoint(window[0]))
        else:
            events.append(Intersection(window[0], window[-1]))

    labels = [""] * n
    for k in order:
        for q in block[k]:
            labels[q - 1] = c.branches[k]
    return WiringDiagram(n, ((),) * (len(events) + 1), tuple(events), tuple(labels))


def reference_combine(wa: WiringDiagram, wb: WiringDiagram) -> WiringDiagram:
    """Stack wa above wb and prepend one transverse double point for every
    (strand of wa, strand of wb) pair, each conjugated by the positive
    braid that carries the upper strand down next to the lower one."""
    if set(wa.components) & set(wb.components):
        raise RangeError("component labels collide")
    nb = wb.n
    n = wa.n + nb
    braids: list[Word] = []
    events: list[Event] = []
    pending: Word = ()

    def push_braid(word: Word):
        nonlocal pending
        pending = reduce_word(word + pending)

    def push_event(ev: Event):
        nonlocal pending
        braids.append(pending)
        events.append(ev)
        pending = ()

    for p in range(nb + 1, n + 1):
        for q in range(1, nb + 1):
            down = tuple(range(q + 1, p))
            push_braid(down)
            push_event(Intersection(q, q + 1))
            push_braid(inverse_word(down))
    for i, ev in enumerate(wb.events):
        push_braid(wb.braids[i])
        push_event(ev)
    push_braid(wb.braids[-1])
    for i, ev in enumerate(wa.events):
        push_braid(_shift_word(wa.braids[i], nb))
        push_event(Event(ev.kind, ev.lo + nb, ev.hi + nb))
    push_braid(_shift_word(wa.braids[-1], nb))
    braids.append(pending)
    return WiringDiagram(n, tuple(braids), tuple(events), wb.components + wa.components)


def reference_combine_germs(a: DecoratedGerm, b: DecoratedGerm) -> DecoratedGerm:
    """Decorated data of a generic union: every strand of one part crosses
    every strand of the other exactly once, so weights grow by d_i times
    the other part's strand total and cross pairings are the products."""
    shared = {x.name for x in a.branches} & {x.name for x in b.branches}
    if shared:
        raise RangeError(f"branch names on both sides: {sorted(shared)}")
    na = sum(x.origin_multiplicity for x in a.branches)
    nb = sum(x.origin_multiplicity for x in b.branches)
    branches = tuple(
        Branch(x.name, x.multiplicity_seq, x.weight + x.origin_multiplicity * other,
               x.origin_multiplicity, x.delta, x.sits_on)
        for part, other in ((a, nb), (b, na))
        for x in part.branches
    )
    d = {x.name: x.origin_multiplicity for x in branches}
    names = [x.name for x in branches]
    own = {x.name for x in a.branches}

    def pair(p: str, q: str) -> int:
        if p == q:
            return 0
        if p in own and q in own:
            return a.pair(p, q)
        if p not in own and q not in own:
            return b.pair(p, q)
        return d[p] * d[q]

    pairwise = tuple(tuple(pair(p, q) for q in names) for p in names)
    return DecoratedGerm(branches, a.root_vertex, pairwise)



# ---------------------------------------------------------------------------
# scott


def star(m: int, t: int) -> Cluster:
    """m smooth branches through one root point, each on a private free
    chain of t points: graph-pipeline's star clusters."""
    names = [f"b{i}" for i in range(m)]
    points, mults = [("r", None)], {"r": dict.fromkeys(names, 1)}
    for b in names:
        prev = "r"
        for j in range(t):
            points.append((f"{b}.{j}", prev))
            mults[f"{b}.{j}"] = {b: 1}
            prev = f"{b}.{j}"
    return cluster(names, points, mults)


def cusp(t: int) -> Cluster:
    """Two cusps sharing four points, then a private free tail of t points
    per branch: graph-pipeline's cusp clusters."""
    points = [("s1", None), ("s2", "s1"), ("s3", "s2", ("s1",)), ("s4", "s3")]
    mults = {"s1": {"a": 2, "b": 2}, "s2": {"a": 1, "b": 1},
             "s3": {"a": 1, "b": 1}, "s4": {"a": 1, "b": 1}}
    for b in "ab":
        prev = "s4"
        for j in range(t):
            points.append((f"{b}.{j}", prev))
            mults[f"{b}.{j}"] = {b: 1}
            prev = f"{b}.{j}"
    return cluster(["a", "b"], points, mults)


def unexpected_subclusters():
    """The two halves ``unexpected`` lays out, base branches and lines, on
    graph-pipeline's pair and triple graphs at N = 1..6."""
    for k in (2, 3):
        g = plumbing_graph({"v": -(k + 1)}, [])
        aug = augmentation([(f"c{i}", "v") for i in range(k)])
        for n in range(1, 7):
            full = cluster_from_trace(blow_down(*build_unexpected(g, aug, n, 5)))
            base = [name for name in full.branches if name.startswith("c")]
            yield subcluster(full, base)
            yield subcluster(full, [name for name in full.branches if name not in base])


def test_scott_matches_the_reference_on_graph_pipeline_clusters():
    clusters = [star(m, t) for m, t in ((3, 10), (4, 20), (6, 20), (8, 20), (12, 20), (8, 40))]
    clusters += [cusp(t) for t in (20, 40, 80, 160)]
    clusters += unexpected_subclusters()
    assert len(clusters) == 34
    for c in clusters:
        got = outcome(scott, c)
        assert got[0] == "ok" and got == outcome(reference_scott, c)


def test_scott_matches_the_reference_on_random_and_mutated_clusters():
    # 5,000 clusters, each with three of its mutants: 20,000 cases
    rng = random.Random(20)
    seen = Counter()
    for _ in range(5000):
        c = rand_cluster(rng)
        if rng.random() < 0.3:
            c = Cluster(c.branches, c.points, c.mults, check_cluster(c))
        for case in [c] + rng.sample(mutate_rows(c, rng), 3):
            got = outcome(scott, case)
            assert got == outcome(reference_scott, case)
            seen[got[0]] += 1
            # a valid layout with a point past the root on three branches
            # takes the middle-branch path
            seen["middle"] += got[0] == "ok" and any(len(row) > 2 for row in case.mults[1:])
            seen["shrinks"] += "shrinks inside the window" in got[1]
    assert seen["ok"] >= 5000 and seen["middle"] >= 100 and seen["shrinks"] >= 50, seen
    assert {"ProximityViolationError", "WeightMismatchError"} <= set(seen)


def test_scott_takes_each_end_of_a_range():
    # b sits between a and c at q and keeps its whole range; a keeps its
    # high end and c its low end, then each keeps that end alone at its tail
    c = cluster(
        ["a", "b", "c"],
        [("p", None), ("q", "p"), ("ta", "q"), ("ua", "ta"), ("tb", "q"), ("tc", "q"), ("uc", "tc")],
        {"p": {"a": 3, "b": 1, "c": 3}, "q": {"a": 2, "b": 1, "c": 2}, "ta": {"a": 1},
         "ua": {"a": 1}, "tb": {"b": 1}, "tc": {"c": 1}, "uc": {"c": 1}},
    )
    w = scott(c)
    assert repr(w) == outcome(reference_scott, c)[1]
    assert w.events[:4] == (Tangency(1), Tangency(2), Tangency(5), Tangency(6))
    assert w.components == ("a", "a", "a", "b", "c", "c", "c")


# ---------------------------------------------------------------------------
# combine and combine_germs


def relabeled(w: WiringDiagram, prefix: str) -> WiringDiagram:
    return WiringDiagram(w.n, w.braids, w.events, tuple(prefix + label for label in w.components))


def test_combine_matches_the_reference_on_random_pairs():
    rng = random.Random(21)
    seen = Counter()
    for i in range(10500):
        wa = rand_diagram(rng, max_n=rng.randint(1, 5), max_events=rng.randint(0, 6))
        wb = rand_diagram(rng, max_n=rng.randint(1, 5), max_events=rng.randint(0, 6))
        if i % 21:  # one pair in 21 keeps the inferred labels, which collide
            wa, wb = relabeled(wa, "a"), relabeled(wb, "b")
        got = outcome(combine, wa, wb)
        assert got == outcome(reference_combine, wa, wb)
        seen[got[0]] += 1
    assert seen["ok"] >= 10000 and seen["RangeError"] == 500


def rand_germ(rng, prefix: str) -> DecoratedGerm:
    g = germ_from_cluster(rand_cluster(rng))
    branches = tuple(Branch(prefix + b.name, *(getattr(b, f) for f in Branch._fields[1:])) for b in g.branches)
    return DecoratedGerm(branches, g.root_vertex, g.pairwise)


def test_combine_germs_matches_the_reference_on_random_pairs():
    rng = random.Random(22)
    for i in range(2000):
        a = rand_germ(rng, "a")
        b = rand_germ(rng, "b" if i % 10 else "a")  # one pair in ten shares a name
        got = outcome(combine_germs, a, b)
        assert got == outcome(reference_combine_germs, a, b)
        assert (got[0] == "ok") == bool(i % 10)


# ---------------------------------------------------------------------------
# the splice rule


def test_assemble_composes_each_slot_and_passes_a_lone_word_as_given():
    f, t = FreePoint(1), Tangency(1)
    # composed words are reduced once, the later word on the left
    w = _assemble(3, [(1,), (2, -1), f, (2,), t, t, (1,), (1,)], ())
    assert (w.braids, w.events) == (((2,), (2,), (), (1, 1)), (f, t, t))
    # a slot given no word is empty
    assert _assemble(2, [t, f], ("x", "x")).braids == ((), (), ())
    # a lone word is checked letter by letter before anything cancels; a
    # composed one only after its letters cancel
    with pytest.raises(RangeError, match="braid letter 3 outside"):
        _assemble(2, [(3, -3), t], ())
    assert _assemble(2, [(3,), (-3,), t], ()).braids == ((), ())
