import collections
import itertools
import random

import pytest

from sandwich.errors import (
    FormatError,
    InternalInconsistencyError,
    NotSandwichedError,
    SandwichError,
    ProximityViolationError,
    RangeError,
    WeightMismatchError,
)
from sandwich.fillings import spinal_open_book
from sandwich.plumbing import (
    ARROW_PREFIX,
    BlowDownTrace,
    BlowStep,
    Branch,
    Cluster,
    ClusterIndex,
    ClusterPoint,
    _index_cluster,
    _prox_set,
    augmentation,
    automorphisms,
    blow_down,
    branch_chain,
    build_unexpected,
    check_cluster,
    cluster,
    cluster_from_trace,
    delta,
    extend_chains,
    germ_from_augmentation,
    germ_from_cluster,
    germ_from_trace,
    graph_from_cluster,
    parse_germ,
    parse_plumb,
    plumbing_graph,
    serialize_germ,
    serialize_plumb,
    subcluster,
)

from fixtures import line_pair, mutate_rows, proximate_sum, two_cusp_cluster
from hurwitz import cap_framing
from random_clusters import rand_cluster


def two_cusp_graph():
    vertices = {
        "s1": -3, "s2": -2, "s3": -2, "s4": -3,
        "a1": -2, "a2": -2, "b1": -2, "b2": -2,
    }
    edges = [
        ("s1", "s3"), ("s2", "s3"), ("s3", "s4"),
        ("s4", "a1"), ("a1", "a2"),
        ("s4", "b1"), ("b1", "b2"),
    ]
    aug = augmentation([("A", "a2"), ("B", "b2")])
    return plumbing_graph(vertices, edges), aug


# ---------------------------------------------------------------------------
# blow-down


def test_blow_down_two_cusp_order_and_trace():
    g, aug = two_cusp_graph()
    t = blow_down(g, aug)
    assert [s.curve for s in t.steps] == [
        "@A", "@B", "a2", "a1", "b2", "b1", "s4", "s3", "s2", "s1",
    ]
    assert t.last_vertex == "s1"
    assert t.pairwise == ((0, 7), (7, 0))
    # branch A multiplicities per step
    assert tuple(dict(s.mults).get(0, 0) for s in t.steps) == (1, 0, 1, 1, 0, 0, 1, 1, 1, 2)
    assert t.steps[7].prox == ("s1", "s2")
    assert all(s.simple for s in t.steps)


def test_blow_down_line_pair():
    g, aug = line_pair()
    t = blow_down(g, aug)
    assert [s.curve for s in t.steps] == ["@c", "@d", "E"]
    assert t.steps[-1].mults == ((0, 1), (1, 1))
    assert t.pairwise == ((0, 1), (1, 0))


def test_blow_down_not_sandwiched():
    g = plumbing_graph({"E": -3})
    with pytest.raises(NotSandwichedError):
        blow_down(g, augmentation([("c", "E")]))


def test_blow_down_rejects_bad_names():
    g = plumbing_graph({"E": -2})
    with pytest.raises(RangeError):
        blow_down(g, augmentation([("c", "F")]))
    with pytest.raises(RangeError):
        blow_down(g, augmentation([("E", "E")]))


def test_germ_two_cusp():
    g, aug = two_cusp_graph()
    germ = germ_from_augmentation(g, aug)
    a = germ.branch("A")
    assert a == Branch("A", (1, 1, 1, 1, 1, 1, 2), 8, 2, 1, "a2")
    assert germ.branch("B").sits_on == "b2"
    assert germ.root_vertex == "s1"
    assert germ.pair("A", "B") == 7
    book = spinal_open_book(germ)
    assert (book.outer, *book.bindings) == (("s1", 1), ("a2", 2), ("b2", 2))


def test_germ_lookups_by_name():
    g, aug = two_cusp_graph()
    germ = germ_from_augmentation(g, aug)
    assert germ.columns == {"A": 0, "B": 1}
    assert germ.pair("B", "A") == germ.pairwise[1][0] == 7
    assert germ.pair("A", "A") == 0
    for lookup in (lambda: germ.branch("C"), lambda: germ.pair("A", "C"), lambda: germ.pair("C", "A")):
        with pytest.raises(RangeError, match="unknown branch C"):
            lookup()


def test_germ_line_pair():
    g, aug = line_pair()
    germ = germ_from_augmentation(g, aug)
    for name in ("c", "d"):
        b = germ.branch(name)
        assert b.multiplicity_seq == (1, 1)
        assert b.weight == 2
        assert b.origin_multiplicity == 1
        assert b.delta == 0
        assert b.sits_on == "E"
        assert cap_framing(b) == -2
    assert germ.root_vertex == "E"
    assert germ.pair("c", "d") == 1


def test_germ_single_chain():
    g = plumbing_graph({"E": -2})
    germ = germ_from_augmentation(g, augmentation([("c", "E")]))
    assert germ.branch("c").multiplicity_seq == (1, 1)
    assert germ.branch("c").weight == 2


def test_germ_independent_of_contraction_choice():
    g, aug = two_cusp_graph()
    t = reference_blow_down(g, aug, choose=lambda avail: avail[-1])
    assert t.steps[0].curve == "@B"
    assert germ_from_trace(t, aug) == germ_from_augmentation(g, aug)


def test_delta_and_cap_framing():
    assert delta((2, 1, 1)) == 1
    assert delta((3, 2, 1, 1)) == 4
    assert delta((1,)) == 0
    assert cap_framing(Branch("x", (2, 1, 1, 1, 1, 1, 1), 8, 2, 1, "r")) == -10
    with pytest.raises(RangeError):
        delta(())
    with pytest.raises(RangeError):
        delta((2, 0, 1))


def test_graph_rejects_malformed():
    with pytest.raises(RangeError):
        plumbing_graph({"a": -2}, [("a", "a")])
    with pytest.raises(RangeError):
        plumbing_graph({"a": -2}, [("a", "b")])
    with pytest.raises(RangeError):
        plumbing_graph([("a", -2), ("a", -3)])


# ---------------------------------------------------------------------------
# clusters


def test_check_cluster_two_cusp():
    c = two_cusp_cluster()
    assert check_cluster(c) == (8, 8)


def test_check_cluster_rejections():
    base = [("q0", None), ("q1", "q0")]
    with pytest.raises(ProximityViolationError):
        # multiplicity drops below sum over proximate points
        check_cluster(cluster(["A"], [("q0", None), ("q1", "q0"), ("q2", "q1", ("q0",))],
                              {"q0": {"A": 1}, "q1": {"A": 1}, "q2": {"A": 1}}))
    with pytest.raises(ProximityViolationError, match="^point q2 proximate to non-ancestor q1$"):
        check_cluster(cluster(["A"], [("q0", None), ("q1", "q0"), ("q2", "q0", ("q1",))],
                              {"q0": {"A": 2}, "q1": {"A": 1}, "q2": {"A": 1}}))
    with pytest.raises(ProximityViolationError,
                       match="^point q3 proximate to q0, but its parent q2 is not$"):
        check_cluster(cluster(
            ["A"],
            [("q0", None), ("q1", "q0"), ("q2", "q1"), ("q3", "q2", ("q0",))],
            {"q0": {"A": 3}, "q1": {"A": 2}, "q2": {"A": 1}, "q3": {"A": 1}}))
    with pytest.raises(WeightMismatchError):
        check_cluster(cluster(["A"], base, {"q0": {"A": 1}, "q1": {"A": 1}}, weights=(3,)))
    with pytest.raises(ProximityViolationError):
        # two roots
        check_cluster(cluster(["A"], [("q0", None), ("q1", None)],
                              {"q0": {"A": 1}, "q1": {"A": 1}}))
    with pytest.raises(ProximityViolationError):
        # two points in the same satellite slot
        check_cluster(cluster(
            ["A", "B"],
            [("q0", None), ("q1", "q0"), ("q2", "q1", ("q0",)), ("q3", "q1", ("q0",))],
            {"q0": {"A": 2, "B": 2}, "q1": {"A": 1, "B": 1},
             "q2": {"A": 1}, "q3": {"B": 1}}))
    with pytest.raises(ProximityViolationError):
        # support forks
        check_cluster(cluster(["A"], [("q0", None), ("q1", "q0"), ("q2", "q0")],
                              {"q0": {"A": 2}, "q1": {"A": 1}, "q2": {"A": 1}}))


def test_graph_from_cluster_two_cusp_roundtrip():
    c = two_cusp_cluster()
    g, aug = graph_from_cluster(c)
    expected_g, expected_aug = two_cusp_graph()
    assert dict(g.vertices) == dict(expected_g.vertices)
    assert g.edges == expected_g.edges
    assert aug.arrows == expected_aug.arrows
    assert germ_from_cluster(c) == germ_from_augmentation(g, aug)


def test_graph_from_cluster_pencil():
    points = [("q0", None), ("p1", "q0"), ("p2", "q0"), ("p3", "q0")]
    mults = {
        "q0": {"A": 1, "B": 1, "C": 1},
        "p1": {"A": 1}, "p2": {"B": 1}, "p3": {"C": 1},
    }
    c = cluster(["A", "B", "C"], points, mults)
    g, aug = graph_from_cluster(c)
    assert g.vertices == (("q0", -4),)
    assert aug.arrows == (("A", "q0"), ("B", "q0"), ("C", "q0"))
    germ = germ_from_cluster(c)
    assert [b.weight for b in germ.branches] == [2, 2, 2]
    assert germ.pair("A", "B") == 1
    assert germ == germ_from_augmentation(g, aug)


def test_weight_one_branch():
    c = cluster(["A"], [("q0", None)], {"q0": {"A": 1}})
    with pytest.raises(WeightMismatchError):
        graph_from_cluster(c)
    germ = germ_from_cluster(c)
    b = germ.branch("A")
    assert b.weight == 1
    assert b.multiplicity_seq == (1,)
    assert b.sits_on == "q0"
    book = spinal_open_book(germ)
    assert (book.outer, *book.bindings) == (("q0", 1), ("q0", 1))


def test_graph_from_cluster_rejects_slack():
    # weight assigned beyond what the finer points account for: fine as an
    # abstract germ, but no plumbing presentation
    c = cluster(["A"], [("q0", None), ("q1", "q0")],
                {"q0": {"A": 2}, "q1": {"A": 1}})
    assert germ_from_cluster(c).branch("A").weight == 3
    with pytest.raises(ProximityViolationError):
        graph_from_cluster(c)


def test_graph_from_cluster_needs_free_simple_finals():
    # final point carries multiplicity 2
    c = cluster(["A"], [("q0", None), ("q1", "q0")],
                {"q0": {"A": 2}, "q1": {"A": 2}})
    with pytest.raises(ProximityViolationError):
        graph_from_cluster(c)
    # two branches share their final point
    c2 = cluster(["A", "B"], [("q0", None), ("q1", "q0")],
                 {"q0": {"A": 1, "B": 1}, "q1": {"A": 1, "B": 1}})
    with pytest.raises(ProximityViolationError):
        graph_from_cluster(c2)


def test_cluster_from_trace_two_cusp():
    g, aug = two_cusp_graph()
    c = cluster_from_trace(blow_down(g, aug))
    ref = two_cusp_cluster()
    by_id = {p.id: p for p in c.points}
    assert set(by_id) == {"s1", "s2", "s3", "s4", "a1", "a2", "b1", "b2", "@A", "@B"}
    assert by_id["s3"].parent == "s2"
    assert by_id["s3"].prox == ("s1",)
    assert by_id["s1"].parent is None
    a, b = c.branches.index("A"), c.branches.index("B")
    assert c.mults[c.indexed.row["s1"]][a] == 2
    assert c.mults[c.indexed.row["@A"]][a] == 1 and c.mults[c.indexed.row["@A"]].get(b, 0) == 0
    # same germ as the reference cluster
    assert germ_from_cluster(c).pairwise == germ_from_cluster(ref).pairwise
    g2, aug2 = graph_from_cluster(c)
    assert dict(g2.vertices) == dict(g.vertices)
    assert g2.edges == g.edges
    assert aug2.arrows == aug.arrows


def test_cluster_from_trace_keeps_a_vertex_named_root():
    # "root" is the .germ word for no parent, not a reserved vertex name
    g, aug = plumbing_graph({"root": -3}), augmentation([("c", "root"), ("d", "root")])
    c = cluster_from_trace(blow_down(g, aug))
    assert [(p.id, p.parent) for p in c.points] == [("root", None), ("@d", "root"), ("@c", "root")]
    assert germ_from_cluster(c) == germ_from_augmentation(g, aug)


def test_subcluster_single_cusp():
    sub = subcluster(two_cusp_cluster(), ["A"])
    assert {p.id for p in sub.points} == {"s1", "s2", "s3", "s4", "a1", "a2", "fA"}
    germ = germ_from_cluster(sub)
    b = germ.branch("A")
    assert b.multiplicity_seq == (1, 1, 1, 1, 1, 1, 2)
    assert b.weight == 8 and b.delta == 1 and b.origin_multiplicity == 2
    g, aug = graph_from_cluster(sub)
    assert dict(g.vertices) == {
        "s1": -3, "s2": -2, "s3": -2, "s4": -2, "a1": -2, "a2": -2,
    }
    assert aug.arrows == (("A", "a2"),)


# ---------------------------------------------------------------------------
# surgeries


def test_extend_chains():
    g, aug = line_pair()
    g2, aug2 = extend_chains(g, aug, {"c": 3})
    assert dict(g2.vertices) == {"E": -3, "c.1": -2, "c.2": -2, "c.3": -2}
    assert aug2.arrows == (("c", "c.3"), ("d", "E"))
    germ = germ_from_augmentation(g2, aug2)
    assert germ.branch("c").weight == 5
    assert germ.branch("d").weight == 2
    assert germ.pair("c", "d") == 1
    with pytest.raises(RangeError):
        extend_chains(g, aug, {"nope": 1})
    # the two errors kept for library callers
    with pytest.raises(RangeError, match="^negative chain length for c$"):
        extend_chains(g, aug, {"c": -1})
    taken = plumbing_graph({"E": -3, "c.1": -2}, [("E", "c.1")])
    with pytest.raises(RangeError, match=r"^chain vertex name c\.1 collides$"):
        extend_chains(taken, aug, {"c": 1})


def test_extend_chains_keeps_shape():
    g, aug = two_cusp_graph()
    before = germ_from_augmentation(g, aug)
    g2, aug2 = extend_chains(g, aug, {"A": 8, "B": 8})
    after = germ_from_augmentation(g2, aug2)
    for name in ("A", "B"):
        x, y = before.branch(name), after.branch(name)
        assert y.weight == x.weight + 8
        assert y.origin_multiplicity == x.origin_multiplicity
        assert y.delta == x.delta
        assert y.multiplicity_seq == (1,) * 8 + x.multiplicity_seq
    assert after.pairwise == before.pairwise
    assert after.root_vertex == before.root_vertex
    assert after.branch("A").sits_on == "A.8"


def test_build_unexpected_small():
    g = plumbing_graph({"E": -2})
    aug = augmentation([("c", "E")])
    k, augk = build_unexpected(g, aug, N=1, wmax=1)
    m = 7
    assert dict(k.vertices)["vstar"] == -m - 2
    legs = [v for v in k.names() if v.startswith("leg")]
    assert len(legs) == m * (m - 1)
    assert len(augk.arrows) == 1 + m
    trace = blow_down(k, augk)
    assert trace.steps[-1].curve == "vstar"
    germ = germ_from_augmentation(k, augk)
    assert germ.root_vertex == "vstar"
    assert germ.branch("c").origin_multiplicity == 1
    for i in range(1, m + 1):
        assert germ.branch(f"line{i}").origin_multiplicity == 1
        assert germ.pair(f"line{i}", "c") == 1
    assert germ.pair("line1", "line2") == 1
    # chain + leg + center, plus the arrow position itself
    assert germ.branch("line1").weight == 1 + m + 1


def test_build_unexpected_pairwise_law():
    g, aug = two_cusp_graph()
    base = germ_from_augmentation(g, aug)
    k, augk = build_unexpected(g, aug, N=1, wmax=2)
    germ = germ_from_augmentation(k, augk)
    dA = base.branch("A").origin_multiplicity
    dB = base.branch("B").origin_multiplicity
    assert germ.branch("A").origin_multiplicity == dA
    assert germ.pair("A", "B") == base.pair("A", "B") + dA * dB
    assert germ.pair("line1", "A") == dA
    assert germ.pair("line3", "line5") == 1


def test_build_unexpected_rejects_bad_args():
    g = plumbing_graph({"E": -2})
    aug = augmentation([("c", "E")])
    with pytest.raises(RangeError):
        build_unexpected(g, aug, N=0, wmax=1)


# ---------------------------------------------------------------------------
# automorphisms


def test_automorphisms_star():
    vertices = {"v": -4, "p1": -2, "q1": -2, "p2": -2, "q2": -2, "p3": -2, "q3": -2}
    edges = [("v", "p1"), ("p1", "q1"), ("v", "p2"), ("p2", "q2"), ("v", "p3"), ("p3", "q3")]
    auts = automorphisms(plumbing_graph(vertices, edges))
    assert len(auts) == 6
    assert {tuple(sorted(a.items())) for a in auts} == {
        tuple(sorted({"v": "v", "p1": f"p{i}", "q1": f"q{i}",
                      "p2": f"p{j}", "q2": f"q{j}",
                      "p3": f"p{k}", "q3": f"q{k}"}.items()))
        for i, j, k in itertools.permutations((1, 2, 3))
    }


def test_automorphisms_path():
    sym = plumbing_graph({"a": -2, "b": -3, "c": -2}, [("a", "b"), ("b", "c")])
    assert len(automorphisms(sym)) == 2
    even = plumbing_graph({"a": -2, "b": -2}, [("a", "b")])
    assert len(automorphisms(even)) == 2
    asym = plumbing_graph({"a": -2, "b": -3}, [("a", "b")])
    assert automorphisms(asym) == [{"a": "a", "b": "b"}]
    single = plumbing_graph({"a": -5})
    assert automorphisms(single) == [{"a": "a"}]


def brute_automorphisms(g):
    names = g.names()
    euler = dict(g.vertices)
    edges = set(g.edges)
    out = []
    for perm in itertools.permutations(names):
        m = dict(zip(names, perm))
        if any(euler[v] != euler[m[v]] for v in names):
            continue
        if {tuple(sorted((m[a], m[b]))) for a, b in edges} != edges:
            continue
        out.append(m)
    return sorted(out, key=lambda m: tuple(sorted(m.items())))


def test_automorphisms_match_brute_force():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(1, 7)
        names = [f"v{i}" for i in range(n)]
        edges = [(names[i], names[rng.randrange(i)]) for i in range(1, n)]
        eulers = {v: rng.choice([-2, -2, -3]) for v in names}
        g = plumbing_graph(eulers, edges)
        fast = sorted(automorphisms(g), key=lambda m: tuple(sorted(m.items())))
        assert fast == brute_automorphisms(g)


# ---------------------------------------------------------------------------
# random cluster properties


def test_random_cluster_paths_agree():
    rng = random.Random(5)
    for _ in range(60):
        c = rand_cluster(rng)
        check_cluster(c)
        g, aug = graph_from_cluster(c)
        assert germ_from_augmentation(g, aug) == germ_from_cluster(c)


def test_random_cluster_mutations():
    rng = random.Random(10)
    for _ in range(40):
        c = rand_cluster(rng)
        b = rng.randrange(len(c.branches))
        i = rng.choice(branch_chain(c, b)[:-1])
        name, pid, total = c.branches[b], c.points[i].id, proximate_sum(c, c.mults, i, b)

        lowered = [dict(row) for row in c.mults]
        lowered[i][b] = total - 1
        if not lowered[i][b]:
            del lowered[i][b]  # rows hold no zeros
        with pytest.raises(ProximityViolationError,
                           match=f"^proximity inequality fails for branch {name} at {pid}: "):
            check_cluster(Cluster(c.branches, c.points, tuple(lowered)))

        # slack at i, carried up to the points that then need more
        slack = [dict(row) for row in c.mults]
        slack[i][b] += 1
        for r in reversed(range(i)):
            need = max(slack[r].get(b, 0), proximate_sum(c, slack, r, b))
            if need:
                slack[r][b] = need
        s = Cluster(c.branches, c.points, tuple(slack))
        assert germ_from_cluster(s).branch(name).weight == sum(row.get(b, 0) for row in slack)
        with pytest.raises(ProximityViolationError,
                           match=f"^branch {name} has multiplicity {total + 1} at {pid} but "):
            graph_from_cluster(s)


def test_random_cluster_trace_roundtrip():
    rng = random.Random(6)
    for _ in range(40):
        c = rand_cluster(rng)
        g, aug = graph_from_cluster(c)
        back = cluster_from_trace(blow_down(g, aug))
        orig = {p.id: p for p in c.points}
        new = {p.id: p for p in back.points}
        # graph vertices keep their point ids; finals come back as @branch
        finals = {p.id for p in c.points if p.id not in g.names()}
        renamed = {}
        for b, v in aug.arrows:
            f = next(p.id for i, p in enumerate(c.points) if p.parent == v and p.id in finals
                     and c.mults[i].get(c.branches.index(b), 0) > 0)
            renamed[f] = "@" + b
        for pid, p in orig.items():
            q = new[renamed.get(pid, pid)]
            assert (p.parent, p.prox) == (q.parent, q.prox)
            for k, b in enumerate(c.branches):
                assert c.mults[c.indexed.row[pid]].get(k, 0) == \
                    back.mults[back.indexed.row[q.id]].get(back.branches.index(b), 0)


def test_random_germ_determinism():
    rng = random.Random(7)
    for _ in range(30):
        c = rand_cluster(rng)
        g, aug = graph_from_cluster(c)
        assert germ_from_augmentation(g, aug) == germ_from_trace(
            reference_blow_down(g, aug, choose=lambda avail: avail[-1]), aug)


def test_random_extend_chains_shifts_weight():
    rng = random.Random(8)
    for _ in range(20):
        c = rand_cluster(rng)
        g, aug = graph_from_cluster(c)
        before = germ_from_augmentation(g, aug)
        lengths = {b: rng.randrange(4) for b, _ in aug.arrows}
        after = germ_from_augmentation(*extend_chains(g, aug, lengths))
        assert after.pairwise == before.pairwise
        for b, _ in aug.arrows:
            assert after.branch(b).weight == before.branch(b).weight + lengths[b]
            assert after.branch(b).origin_multiplicity == before.branch(b).origin_multiplicity


def test_random_spinal_binding_shape():
    rng = random.Random(9)
    for _ in range(20):
        c = rand_cluster(rng)
        germ = germ_from_cluster(c)
        book = spinal_open_book(germ)
        assert book.outer == (germ.root_vertex, 1)
        assert len(book.bindings) == len(germ.branches)
        assert all(m >= 1 for _, m in book.bindings)



# ---------------------------------------------------------------------------
# the scan-based blow-down and pairwise sum, kept as oracles


def _key(a, b):
    return (a, b) if a < b else (b, a)


def reference_blow_down(g, aug, choose=None):
    """Rescans every active curve at each step: O(V^2 log V)."""
    euler = dict(g.vertices)
    curvettas = aug.curvettas()
    taken = set(euler) | set(curvettas)
    for cname, vname in aug.arrows:
        if vname not in euler:
            raise RangeError(f"arrow for {cname} references unknown vertex {vname}")
        if cname in euler:
            raise RangeError(f"curvetta name {cname} collides with a vertex")
        arrow_vertex = ARROW_PREFIX + cname
        if arrow_vertex in taken:
            raise RangeError(f"name {arrow_vertex} is reserved for an arrow vertex")
        taken.add(arrow_vertex)

    graph_names = set(euler)
    table = {}
    for a, b in g.edges:
        table[_key(a, b)] = 1
    for cname, vname in aug.arrows:
        arrow_vertex = ARROW_PREFIX + cname
        euler[arrow_vertex] = -1
        table[_key(arrow_vertex, vname)] = 1
        table[_key(cname, arrow_vertex)] = 1

    active = set(euler)
    objects = list(curvettas)
    col = {c: k for k, c in enumerate(curvettas)}
    steps = []
    last_vertex = None
    while active:
        avail = sorted(v for v in active if euler[v] == -1)
        if not avail:
            raise NotSandwichedError(
                "no (-1) curve available; remaining: "
                + ", ".join(f"{v}({euler[v]})" for v in sorted(active))
            )
        e = avail[0] if choose is None else choose(avail)
        if e not in active or euler[e] != -1:
            raise RangeError(f"chose {e}, which is not an available (-1) curve")
        active.remove(e)
        mults = tuple((col[c], table[_key(c, e)]) for c in curvettas if table.get(_key(c, e), 0))
        meet = [(v, table.get(_key(v, e), 0)) for v in active]
        prox = tuple(sorted(v for v, i in meet if i >= 1))
        simple = all(i <= 1 for _, i in meet)
        neighbors = [x for x in itertools.chain(active, objects) if table.get(_key(x, e), 0) != 0]
        for x in neighbors:
            if x in active:
                euler[x] += table[_key(x, e)] ** 2
        for x, y in itertools.combinations(neighbors, 2):
            table[_key(x, y)] = table.get(_key(x, y), 0) + table[_key(x, e)] * table[_key(y, e)]
        steps.append(BlowStep(e, mults, prox, simple))
        if e in graph_names:
            last_vertex = e

    pairwise = tuple(
        tuple(0 if i == k else table.get(_key(a, b), 0) for k, b in enumerate(curvettas))
        for i, a in enumerate(curvettas)
    )
    return BlowDownTrace(curvettas, tuple(steps), last_vertex, pairwise)


def reference_cluster_from_trace(trace):
    """Takes each point's parent by ``min`` and sorts the rest, then reads
    the rows in a second pass."""
    order = {s.curve: j for j, s in enumerate(trace.steps)}
    points = []
    for s in reversed(trace.steps):
        if not s.simple:
            raise ProximityViolationError(
                f"step {s.curve} meets another exceptional curve twice; no cluster presentation"
            )
        if s.prox:
            parent = min(s.prox, key=lambda v: order[v])
            extra = tuple(sorted((v for v in s.prox if v != parent), key=lambda v: order[v]))
        else:
            parent, extra = None, ()
        points.append(ClusterPoint(s.curve, parent, extra))
    rows = tuple(dict(s.mults) for s in reversed(trace.steps))
    return Cluster(trace.curvettas, tuple(points), rows)


def reference_pairwise(c):
    """Sums over every point for every branch pair: O(B^2 P)."""
    nb = len(c.branches)
    return tuple(
        tuple(
            0 if i == k else sum(row.get(i, 0) * row.get(k, 0) for row in c.mults)
            for k in range(nb)
        )
        for i in range(nb)
    )


# ---------------------------------------------------------------------------
# the dense-row cluster index and subcluster, kept as oracles


def dense(c):
    """The same cluster with one multiplicity per (point, branch column)."""
    nb = len(c.branches)
    rows = tuple(tuple(row.get(b, 0) for b in range(nb)) for row in c.mults)
    return Cluster(c.branches, c.points, rows, c.weights)


def reference_index_cluster(c):
    """Scans every (point, branch) entry of dense rows: O(P * B)."""
    ids = [p.id for p in c.points]
    if len(set(ids)) != len(ids):
        raise ProximityViolationError("duplicate cluster point id")
    seen = set()
    for b in c.branches:
        if b in seen:
            raise ProximityViolationError(f"duplicate branch name {b}")
        seen.add(b)
    if not c.points:
        raise ProximityViolationError("empty cluster")
    row = {pid: i for i, pid in enumerate(ids)}
    roots = [p.id for p in c.points if p.parent is None]
    if len(roots) != 1:
        raise ProximityViolationError(f"expected one root point, found {roots}")

    children = [[] for _ in ids]
    proximate = [[] for _ in ids]
    satellite_slots = set()
    for i, p in enumerate(c.points):
        if p.parent is not None:
            if row.get(p.parent, i) >= i:
                raise ProximityViolationError(f"point {p.id} lists a parent that does not precede it")
            children[row[p.parent]].append(i)
        if len(p.prox) > 1:
            raise ProximityViolationError(f"point {p.id} is proximate to more than two points")
        for q in p.prox:
            if row.get(q, i) >= i:
                raise ProximityViolationError(f"point {p.id} lists proximity to {q}, which does not precede it")
            if q == p.parent:
                raise ProximityViolationError(f"point {p.id} repeats its parent in prox")
            parent = c.points[row[p.parent]]
            if q not in _prox_set(parent):
                a = parent.parent
                while a is not None and a != q:
                    a = c.points[row[a]].parent
                if a is None:
                    raise ProximityViolationError(f"point {p.id} proximate to non-ancestor {q}")
                raise ProximityViolationError(
                    f"point {p.id} proximate to {q}, but its parent {parent.id} is not"
                )
            if (p.parent, q) in satellite_slots:
                raise ProximityViolationError(
                    f"two points share the satellite position over ({p.parent}, {q})"
                )
            satellite_slots.add((p.parent, q))
        for q in _prox_set(p):
            proximate[row[q]].append(i)

    nb = len(c.branches)
    for i, p in enumerate(c.points):
        for b in range(nb):
            if c.mults[i][b] < 0:
                raise ProximityViolationError(f"negative multiplicity at {p.id}")
            total = sum(c.mults[r][b] for r in proximate[i])
            if c.mults[i][b] < total:
                raise ProximityViolationError(
                    f"proximity inequality fails for branch {c.branches[b]} at {p.id}: "
                    f"{c.mults[i][b]} < {total}"
                )

    chains = []
    for b in range(nb):
        support = [i for i in range(len(ids)) if c.mults[i][b] > 0]
        if not support:
            raise ProximityViolationError(f"branch {c.branches[b]} has no points")
        if c.points[support[0]].parent is not None:
            raise ProximityViolationError(f"branch {c.branches[b]} does not pass through the root")
        sup = {ids[i] for i in support}
        for i in support[1:]:
            if c.points[i].parent not in sup:
                raise ProximityViolationError(
                    f"branch {c.branches[b]} support is not a chain at {ids[i]}"
                )
        if len({c.points[i].parent for i in support[1:]}) < len(support) - 1:
            raise ProximityViolationError(f"branch {c.branches[b]} support forks")
        chains.append(support)

    sums = tuple(sum(c.mults[i][b] for i in range(len(ids))) for b in range(nb))
    return ClusterIndex(row, children, proximate, chains, sums)


def reference_subcluster(c, branch_names):
    """Dense rows, every kept column read at every point: O(P * B)."""
    keep_b = [c.branches.index(b) for b in branch_names]
    if not keep_b:
        raise RangeError("empty branch subset")
    keep_p = [i for i in range(len(c.points)) if any(c.mults[i][b] > 0 for b in keep_b)]
    kept_ids = {c.points[i].id for i in keep_p}
    points = []
    for i in keep_p:
        p = c.points[i]
        if p.parent is not None and p.parent not in kept_ids:
            raise InternalInconsistencyError(f"point {p.id} lost its parent in the subcluster")
        points.append(ClusterPoint(p.id, p.parent, tuple(q for q in p.prox if q in kept_ids)))
    mults = tuple(tuple(c.mults[i][b] for b in keep_b) for i in keep_p)
    weights = tuple(c.weights[b] for b in keep_b) if c.weights is not None else None
    return Cluster(tuple(c.branches[b] for b in keep_b), tuple(points), mults, weights)


def test_sparse_rows_match_dense_oracles():
    rng = random.Random(12)
    checked = 0
    for _ in range(500):
        c = rand_cluster(rng)
        if rng.random() < 0.3:
            c = Cluster(c.branches, c.points, c.mults, check_cluster(c))
        for mutant in [c] + mutate_rows(c, rng):
            assert outcome(_index_cluster, mutant) == outcome(reference_index_cluster, dense(mutant))
            names = rng.sample(c.branches, rng.randint(1, len(c.branches)))
            sub = outcome(subcluster, mutant, names)
            ref = outcome(reference_subcluster, dense(mutant), names)
            if isinstance(sub, Cluster):
                assert dense(sub) == ref
                assert outcome(_index_cluster, sub) == outcome(reference_index_cluster, ref)
            else:
                assert sub == ref
            checked += 1
    assert checked > 3000


def test_random_germ_text_roundtrip():
    rng = random.Random(13)
    for _ in range(200):
        c = rand_cluster(rng)
        if rng.random() < 0.5:
            c = Cluster(c.branches, c.points, c.mults, check_cluster(c))
        assert parse_germ(serialize_germ(c)) == c


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except SandwichError as exc:
        return type(exc), str(exc)


# contraction orders other than the smallest name first
CHOICES = (lambda avail: avail[-1], lambda avail: avail[len(avail) // 2])


def blow_down_cases():
    """(graph, augmentation) cases, and the random clusters they come from:
    a square whose blow-down has a step that is not simple, then the graph
    of each of 150 random clusters, as it is and with nudged euler numbers
    (which reach stalls and the error paths as well as sandwiched graphs)."""
    # a square x-a-y-b: contracting a and b makes x and y meet twice
    square = plumbing_graph({"x": -4, "y": -7, "a": -1, "b": -1},
                            [("x", "a"), ("a", "y"), ("x", "b"), ("b", "y")])
    cases = [(square, augmentation([("c", "x")]))]
    clusters = []
    rng = random.Random(11)
    for _ in range(150):
        c = rand_cluster(rng)
        clusters.append(c)
        g, aug = graph_from_cluster(c)
        vertices = [(v, e + rng.choice((-1, 0, 0, 0, 1))) for v, e in g.vertices]
        cases += [(g, aug), (plumbing_graph(vertices, g.edges), aug)]
    return cases, clusters


def test_blow_down_matches_reference():
    cases, clusters = blow_down_cases()
    assert not all(s.simple for s in blow_down(*cases[0]).steps)
    for c in clusters:
        assert germ_from_cluster(c).pairwise == reference_pairwise(c)
    for h, aug in cases:
        trace = outcome(blow_down, h, aug)
        assert trace == outcome(reference_blow_down, h, aug)
        if isinstance(trace, BlowDownTrace):
            # another contraction order gives the same germ, or the same error
            germ = outcome(germ_from_trace, trace, aug)
            for choose in CHOICES:
                assert outcome(lambda: germ_from_trace(reference_blow_down(h, aug, choose), aug)) == germ


def unexpected_traces():
    """Blow-down traces of the star-extended graphs of ``unexpected`` for the
    pair and the triple of smooth branches at N = 1..3, wmax 5."""
    for k in (2, 3):
        g = plumbing_graph({"v": -(k + 1)})
        aug = augmentation([(c, "v") for c in "abc"[:k]])
        for n in (1, 2, 3):
            yield blow_down(*build_unexpected(g, aug, n, 5))


def test_cluster_from_trace_matches_reference():
    cases, _ = blow_down_cases()
    traces = [t for t in (outcome(blow_down, h, aug) for h, aug in cases) if isinstance(t, BlowDownTrace)]
    traces += unexpected_traces()
    seen = collections.Counter()
    for trace in traces:
        got = outcome(cluster_from_trace, trace)
        assert got == outcome(reference_cluster_from_trace, trace)
        seen[type(got)] += 1
        if isinstance(got, Cluster):
            assert all(type(p.prox) is tuple for p in got.points)
    # the square's trace is refused, every random cluster's graph is read
    assert seen[tuple] >= 1 and seen[Cluster] >= 150 + 6


def test_subcluster_shares_the_points_that_keep_their_prox():
    # every point a kept point is proximate to is an ancestor, so where the
    # ancestors are kept (else the parent check refuses) the prox is whole
    rng = random.Random(29)
    shared = 0
    for _ in range(300):
        c = rand_cluster(rng)
        for mutant in [c] + mutate_rows(c, rng):
            sub = outcome(subcluster, mutant, rng.sample(c.branches, rng.randint(1, len(c.branches))))
            if isinstance(sub, Cluster):
                old = {p.id: p for p in mutant.points}
                assert all(p is old[p.id] for p in sub.points)
                shared += len(sub.points)
    assert shared > 10000
    # b2 names a1, which is not its ancestor: a1 is dropped and b2 rebuilt
    c = cluster(["A", "B"], [("r", None), ("a1", "r"), ("b1", "r"), ("b2", "b1", ["a1"])],
                {"r": {"A": 1, "B": 1}, "a1": {"A": 1}, "b1": {"B": 1}, "b2": {"B": 1}})
    sub = subcluster(c, ["B"])
    assert sub.points == (c.points[0], c.points[2], ClusterPoint("b2", "b1", ()))
    assert sub.points[0] is c.points[0] and sub.points[1] is c.points[2]
    assert sub.points[2] is not c.points[3]


def test_germ_of_long_chains():
    # two -2 arms of 2000 vertices on a -3 vertex: weight 2002, untimed
    g, aug = extend_chains(*line_pair(), {"c": 2000, "d": 2000})
    germ = germ_from_augmentation(g, aug)
    assert [b.weight for b in germ.branches] == [2002, 2002]
    assert germ.pair("c", "d") == 1

# ---------------------------------------------------------------------------
# formats


PLUMB_TEXT = """\
# two transverse lines
vertex E -3
curvetta c on E
curvetta d on E
chains c=3,d=1
"""


def test_parse_plumb():
    g, aug, chains = parse_plumb(PLUMB_TEXT)
    assert g.vertices == (("E", -3),)
    assert aug.arrows == (("c", "E"), ("d", "E"))
    assert chains == {"c": 3, "d": 1}
    text = serialize_plumb(g, aug) + "chains c=3,d=1\n"
    assert parse_plumb(text) == (g, aug, chains)


def test_parse_plumb_errors():
    with pytest.raises(FormatError) as exc:
        parse_plumb("vertex E\n")
    assert exc.value.code == "format"
    assert exc.value.location == "line 1"
    with pytest.raises(FormatError):
        parse_plumb("vertex E -2\nedge E F\n")
    with pytest.raises(FormatError):
        parse_plumb("vertex E -2\nfrob E\n")
    with pytest.raises(FormatError):
        parse_plumb("vertex E -2\nchains c\n")


def test_parse_germ_roundtrip():
    text = serialize_germ(two_cusp_cluster())
    c = parse_germ(text)
    assert c == two_cusp_cluster()
    assert "point s3 parent s2 prox s1" in text


def test_parse_germ_errors():
    with pytest.raises(FormatError):
        parse_germ("point q0 parent root\n")
    with pytest.raises(FormatError):
        parse_germ("branch A\npoint q0 parent root\nmult q0 A\n")
    with pytest.raises(FormatError):
        parse_germ("branch A\npoint q0 parent root\nmult q0 A=1\nweight B 2\n")


def test_serialize_plumb_two_cusp_roundtrip():
    g, aug = two_cusp_graph()
    g2, aug2, chains = parse_plumb(serialize_plumb(g, aug))
    assert (g2, aug2, chains) == (g, aug, {})
