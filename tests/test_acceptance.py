"""Acceptance suite: one test per shipped criterion, numbered c01..c13.

Each test asserts frozen values or a seeded property and prints a single
PASS line; a broken criterion shows up as that test's FAILED line.  c10 is
a recorded discrepancy: the figure diagram and the cluster layout validate
against the same germ, but their boundary braids differ as classes, so the
test is expected red.
"""

import random
from collections import Counter

from sandwich.mcg import braid_equal, canonical_curve, cyclic_canonical
from sandwich.plumbing import (
    blow_down,
    build_unexpected,
    check_cluster,
    extend_chains,
    germ_from_augmentation,
    germ_from_cluster,
    graph_from_cluster,
    subcluster,
)
from sandwich.wiring import (
    EnclosureData,
    WiringDiagram,
    boundary_braid,
    event_strands,
    incidence,
    inside_out,
    parse_wire,
    scott,
    validate_wiring,
    vanishing_data,
    wiring_from_vanishing,
)
from sandwich.fillings import (
    exotic_count,
    factorization_product,
    incidence_equiv,
    spinal_open_book,
    unexpected_arrangement,
)

from fixtures import FIG, FIG_A, FIG_FULL, line_pair, product_fingerprint, two_cusp_cluster
from hurwitz import canonical_factorization, cap_framing, hurwitz_move, mc_equal
from matrices import from_rows
from random_diagrams import rand_diagram

# FIG with marked points added at the end: on A and B (FIG_A adds one on
# A, FIG_FULL one on B)
FIG_AB = FIG[:-1] + ", 1, F(1), 1, F(2), 1\n"
# the completed figure restricted to A (a tangency, then a double point),
# with six marked points on A
FIG_A_ONLY = (
    "strands 2\n"
    "components A=1,2\n"
    "seq: 1, T(1), 1, I(1..2), 1, F(1), 1, F(1), 1, F(1), 1, F(1), 1, F(1), 1, F(1), 1\n"
)


def figure_full() -> WiringDiagram:
    return parse_wire(FIG_FULL)


def tangency_count(w: WiringDiagram) -> int:
    return sum(1 for ev, _ in event_strands(w) if ev.kind == "T")


def test_c01_two_cusp_germ_values():
    c = two_cusp_cluster(None)
    assert check_cluster(c) == (8, 8)
    germ = germ_from_cluster(c)
    assert tuple(b.weight for b in germ.branches) == (8, 8)
    assert germ.pair("A", "B") == 7
    assert tuple(b.delta for b in germ.branches) == (1, 1)
    assert tuple(b.origin_multiplicity for b in germ.branches) == (2, 2)
    print("c01 PASS: two-cusp germ has weights (8,8), pairing 7, delta (1,1), d (2,2)")


def test_c02_extended_chain_weights():
    g = extend_chains(graph_from_cluster(two_cusp_cluster(None)), {"A": 3, "B": 4})
    germ = germ_from_augmentation(g)
    assert tuple(b.weight for b in germ.branches) == (11, 12)
    print("c02 PASS: chains of lengths (3,4) push the weights to (11,12)")


def test_c03_line_pair_from_graph():
    germ = germ_from_augmentation(line_pair())
    assert tuple(b.weight for b in germ.branches) == (2, 2)
    assert tuple(b.multiplicity_seq for b in germ.branches) == ((1, 1), (1, 1))
    assert germ.pair("c", "d") == 1
    assert tuple(cap_framing(b) for b in germ.branches) == (-2, -2)
    book = spinal_open_book(germ)
    assert (book.outer, *book.bindings) == (("E", 1), ("E", 1), ("E", 1))
    print("c03 PASS: {E:-3} with two arrows gives transverse lines, "
          "weights (2,2), framings (-2,-2), binding (E,1)x3")


def test_c04_figure_parse_and_validation():
    fig = parse_wire(FIG)
    assert fig.n == 4
    assert fig.components == ("B", "A", "A", "B")
    germ = germ_from_cluster(two_cusp_cluster(None))

    per_component_t = Counter()
    for ev, ids in event_strands(fig):
        if ev.kind == "T":
            per_component_t.update({fig.components[s - 1] for s in ids})
    d = {b.name: b.origin_multiplicity for b in germ.branches}
    assert per_component_t == {"A": d["A"] - 1, "B": d["B"] - 1}

    # compatible only once the single missing marked point is added, on B
    assert not validate_wiring(fig, germ=germ).ok
    assert not validate_wiring(parse_wire(FIG_A), germ=germ).ok
    assert not validate_wiring(parse_wire(FIG_AB), germ=germ).ok
    full = figure_full()
    assert validate_wiring(full, germ=germ).ok

    rows = Counter()
    self_pairs = Counter()
    cross = 0
    for ev, ids in event_strands(full):
        if ev.kind == "T":
            continue
        counts = Counter(full.components[s - 1] for s in ids)
        rows.update(counts)
        for label, k in counts.items():
            self_pairs[label] += k * (k - 1) // 2
        cross += counts["A"] * counts["B"]
    assert (rows["A"], rows["B"]) == (8, 8)
    assert cross == 7
    assert (self_pairs["A"], self_pairs["B"]) == (1, 1)
    print("c04 PASS: figure parses to the forced partition and validates "
          "exactly with one added point (rows (8,8), cross 7, self (1,1))")


def test_c05_exotic_count_matches_tangencies():
    germ = germ_from_cluster(two_cusp_cluster(None))
    expected = sum(b.origin_multiplicity - 1 for b in germ.branches)
    assert exotic_count(germ) == expected == 2

    layout = scott(two_cusp_cluster(None))
    assert validate_wiring(layout, germ=germ).ok
    assert tangency_count(layout) == exotic_count(germ)

    full = figure_full()
    assert validate_wiring(full, germ=germ).ok
    assert tangency_count(full) == exotic_count(germ)

    arr = unexpected_arrangement(line_pair(), 1, 10)
    assert validate_wiring(arr.wiring, germ=arr.germ).ok
    assert tangency_count(arr.wiring) == exotic_count(arr.germ)

    sub_c = subcluster(two_cusp_cluster(None), ["A"])
    sub_w = parse_wire(FIG_A_ONLY)
    assert validate_wiring(sub_w, germ=germ_from_cluster(sub_c)).ok
    assert tangency_count(sub_w) == exotic_count(germ_from_cluster(sub_c)) == 1
    print("c05 PASS: exotic count = sum(d_i - 1) = tangency count on the "
          "layout, the figure, the combined arrangement, and the A-only restriction")


def test_c06_single_event_boundaries():
    lone_t = parse_wire("strands 2\ncomponents X=1,2\nseq: 1, T(1), 1\n")
    lone_i = parse_wire("strands 2\ncomponents X=1 Y=2\nseq: 1, I(1..2), 1\n")
    assert braid_equal(boundary_braid(lone_t), (1,), 2)
    assert braid_equal(boundary_braid(lone_i), (1, 1), 2)
    print("c06 PASS: a lone tangency bounds a half twist, a lone double point a full twist")


def test_c07_second_cycle_canonical_word():
    w = parse_wire("strands 3\nseq: 1, I(1..2), 1, I(2..3), 1\n")
    _, v2 = vanishing_data(w).items
    assert canonical_curve(v2) == cyclic_canonical((1, 2, 3, -2))
    print("c07 PASS: second vanishing cycle is x1 x2 x3 x2' up to rotation")


def test_c08_vanishing_roundtrip():
    rng = random.Random(1008)
    for _ in range(200):
        w = rand_diagram(rng)
        fact = vanishing_data(w)
        back = wiring_from_vanishing(fact)
        assert canonical_factorization(vanishing_data(back)) == canonical_factorization(fact)
        assert braid_equal(boundary_braid(back), boundary_braid(w), w.n)
    print("c08 PASS: 200 random diagrams rebuild to the same factorization and boundary")


def test_c09_hurwitz_invariance():
    rng = random.Random(1009)
    moves = 0

    # direct product checks: fresh factorizations, one move each, so the
    # conjugator words never stack up
    while moves < 24:
        fact = vanishing_data(rand_diagram(rng, max_n=3, max_events=4))
        if len(fact.items) < 2:
            continue
        before = factorization_product(fact)
        i = rng.randint(1, len(fact.items) - 1)
        moved = hurwitz_move(fact, i, rng.choice(("forward", "backward")))
        assert mc_equal(factorization_product(moved), before)
        assert moved.n == fact.n
        moves += 1

    # volume through the word-level fingerprint, whose equality pins the
    # product's generator images, ledger, and permutation at once
    while moves < 500:
        fact = vanishing_data(rand_diagram(rng, max_n=4, max_events=6))
        if len(fact.items) < 2:
            continue
        mark = product_fingerprint(fact)
        for _ in range(rng.randint(1, 10)):
            i = rng.randint(1, len(fact.items) - 1)
            fact = hurwitz_move(fact, i, rng.choice(("forward", "backward")))
            assert product_fingerprint(fact) == mark
            moves += 1
    assert moves >= 500
    print(f"c09 PASS: product invariant under {moves} hurwitz moves")


def test_c10_layout_and_figure_share_boundary_class():
    # both diagrams validate against the same germ, so their boundary
    # braids should agree as classes
    layout = scott(two_cusp_cluster(None))
    assert braid_equal(boundary_braid(layout), boundary_braid(figure_full()), 4)
    print("c10 PASS: layout and figure boundary braids agree as classes")


def test_c11_inside_out_rule_and_involution():
    rng = random.Random(1011)
    sets = 0
    while sets < 100:
        n = rng.randint(2, 6)
        hole = rng.randint(1, n)
        items = []
        for _ in range(rng.randint(1, 5)):
            size = rng.randint(1, n)
            items.append(("cycle", frozenset(rng.sample(range(1, n + 1), size))))
        others = [h for h in range(1, n + 1) if h != hole]
        if len(others) >= 2:
            items.append(("arc", frozenset(rng.sample(others, 2))))
        e = EnclosureData(n, tuple(f"h{i}" for i in range(1, n + 1)), tuple(items))

        out = inside_out(e, hole)
        everything = frozenset(range(1, n + 1))
        for (_, before), (_, after) in zip(e.items, out.items):
            if hole in before:
                assert after == (everything - before) | {hole}
            else:
                assert after == before
        assert inside_out(out, hole) == e
        sets += len(items)
    print(f"c11 PASS: inside-out complement rule and involution hold on {sets} sets")


def test_c12_unexpected_construction():
    g = line_pair()

    graph = build_unexpected(g, 4, 10)
    assert dict(graph.vertices)["vstar"] == -15
    legs = [v for v in graph.names() if v.startswith("leg") and v.endswith(".1")]
    assert len(legs) == 13
    trace = blow_down(graph)
    assert len(trace.steps) == len(graph.vertices) + len(graph.arrows)
    arr4 = unexpected_arrangement(g, 4, 10)
    assert validate_wiring(arr4.wiring, germ=arr4.germ).ok

    arr1 = unexpected_arrangement(g, 1, 10)
    assert dict(arr1.graph.vertices)["vstar"] == -9
    assert sum(1 for v in arr1.graph.names()
               if v.startswith("leg") and v.endswith(".1")) == 7
    assert validate_wiring(arr1.wiring, germ=arr1.germ).ok
    print("c12 PASS: N=4 star has euler -15 with 13 legs, blows down to empty, "
          "and both pipelines validate")


def test_c13_incidence_equivalence():
    rng = random.Random(1013)
    for _ in range(200):
        labels = tuple(sorted(rng.sample("ABCDEFG", rng.randint(1, 4))))
        cols = rng.randint(0, 6)
        rows = tuple(tuple(rng.randint(0, 3) for _ in range(cols)) for _ in labels)
        kinds = tuple(rng.choice(("intersection", "free")) for _ in range(cols))
        m = from_rows(labels, rows, kinds)

        order = list(range(cols))
        rng.shuffle(order)
        shuffled_cols = from_rows(
            labels,
            tuple(tuple(row[j] for j in order) for row in rows),
            tuple(kinds[j] for j in order),
        )
        assert incidence_equiv(m, shuffled_cols)

        perm = list(range(len(labels)))
        rng.shuffle(perm)
        relabeled = from_rows(labels, tuple(rows[i] for i in perm), kinds)
        assert incidence_equiv(m, relabeled, unlabeled=True)

    fig_m = incidence(figure_full())
    scott_m = incidence(scott(two_cusp_cluster(None)))
    assert not incidence_equiv(fig_m, scott_m)
    assert not incidence_equiv(fig_m, scott_m, unlabeled=True)
    print("c13 PASS: incidence equivalence is permutation invariant (200 cases) "
          "and separates the figure from the layout")
