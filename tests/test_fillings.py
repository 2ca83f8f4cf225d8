import random
from fractions import Fraction

import pytest

from sandwich import fillings, plumbing, wiring
from sandwich.errors import RangeError, SandwichError, WeightMismatchError
from sandwich.fillings import (
    _boundary_difference,
    SpinalOpenBook,
    combine_germs,
    compatible,
    exotic_count,
    factorization_product,
    filling_json,
    filling_summary,
    incidence_canonical,
    incidence_equiv,
    spinal_open_book,
    unexpected_arrangement,
)
from sandwich.mcg import Factorization, braid_permutation, curve_holes, exponent_sum, mc_from_braid
from sandwich.plumbing import (
    Branch,
    DecoratedGerm,
    augmentation,
    blow_down,
    cluster,
    cluster_from_trace,
    germ_from_augmentation,
    germ_from_cluster,
    graph_from_cluster,
    plumbing_graph,
)
from sandwich.wiring import (
    boundary_braid,
    combine,
    incidence,
    parse_wire,
    scott,
    validate_wiring,
    vanishing_data,
)

from fixtures import FIG_FULL, line_pair, product_fingerprint, two_cusp_cluster
from hurwitz import hurwitz_move, mc_equal
from matrices import from_rows
from random_clusters import rand_cluster
from random_diagrams import rand_diagram

# the two-cusp layout restricted to A
LAYOUT_A = "strands 2\ncomponents A=1,2\nseq: 1, T(1), 1, F(2), 1, F(2), 1, F(2), 1, I(1..2), 1\n"
# the two-cusp layout (what restricting its combination with the line pair
# back to A and B gave), and the same with one more marked point on A
LAYOUT = (
    "strands 4\n"
    "components A=1,2 B=3,4\n"
    "seq: 1, T(1), 1, T(3), 1, F(2), 1, F(3), 1, F(2), 1, F(3), 1, F(2), 1, F(3), 1, "
    "I(2..3), 1, I(2..3), 1, I(2..3), 1, I(1..4), 1\n"
)
LAYOUT_A1 = (
    "strands 4\n"
    "components A=1,2 B=3,4\n"
    "seq: 1, T(1), 1, T(3), 1, F(2), 1, F(3), 1, F(2), 1, F(3), 1, F(2), 1, F(3), 1, "
    "I(2..3), 1, I(2..3), 1, I(2..3), 1, I(1..4), 1, F(1), 1\n"
)


def figure():
    return parse_wire(FIG_FULL)


def line_pair_cluster():
    g, aug = line_pair()
    return cluster_from_trace(blow_down(g, aug))


def smooth_germ(k):
    branches = tuple(Branch(f"x{i}", (1,), 1, 1, 0, "r") for i in range(1, k + 1))
    pairwise = tuple(tuple(0 for _ in range(k)) for _ in range(k))
    return DecoratedGerm(branches, "r", pairwise)


# ---------------------------------------------------------------------------
# spinal open books and exotic counts


class TestSpinalOpenBook:
    def test_two_cusp_book(self):
        book = spinal_open_book(germ_from_cluster(two_cusp_cluster()))
        assert book.page_holes == 4
        assert book.bindings == (("a2", 2), ("b2", 2))
        assert book.outer == ("s1", 1)
        assert book.marking == (("A", "a2"), ("B", "b2"))

    def test_line_pair_book(self):
        g, aug = line_pair()
        book = spinal_open_book(germ_from_augmentation(g, aug))
        assert book.page_holes == 2
        assert book.bindings == (("E", 1), ("E", 1))
        assert book.outer == ("E", 1)

    def test_outer_must_be_simple(self):
        with pytest.raises(RangeError):
            SpinalOpenBook(2, (("v", 2),), ("r", 2), ())

    def test_binding_total_checked(self):
        with pytest.raises(RangeError):
            SpinalOpenBook(3, (("v", 2),), ("r", 1), ())


class TestExoticCount:
    def test_smooth_branches(self):
        assert exotic_count(smooth_germ(3)) == 0

    def test_two_cusp(self):
        assert exotic_count(germ_from_cluster(two_cusp_cluster())) == 2

    def test_single_triple_branch(self):
        germ = DecoratedGerm((Branch("x", (3, 1, 1, 1), 6, 3, 3, "r"),), "r", ((0,),))
        assert exotic_count(germ) == 2

    def test_matches_tangency_count_of_layouts(self):
        tc = two_cusp_cluster()
        want = exotic_count(germ_from_cluster(tc))
        layouts = [scott(tc), figure()]
        layouts.append(combine(scott(tc), scott(line_pair_cluster())))
        for w in layouts:
            assert sum(1 for ev in w.events if ev.kind == "T") == want + (
                0 if w.n == 4 else 0
            )

    def test_subarrangement_keeps_the_rule(self):
        # one branch kept: d-1 = 1 tangency survives
        w = parse_wire(LAYOUT_A)
        assert sum(1 for ev in w.events if ev.kind == "T") == 1


# ---------------------------------------------------------------------------
# vanishing-cycle products


class TestFactorizationProduct:
    def test_empty_is_identity(self):
        assert mc_equal(factorization_product(Factorization(3, ())), mc_from_braid((), 3))

    def test_single_tangency_is_a_half_twist(self):
        w = parse_wire("strands 2\ncomponents X=1,2\nseq: 1, T(1), 1\n")
        p = factorization_product(vanishing_data(w))
        assert p.images == mc_from_braid((1,), 2).images
        assert p.ledger == (0, 0, 0)

    def test_figure_product_telescopes(self):
        w = figure()
        p = factorization_product(vanishing_data(w))
        ref = mc_from_braid(boundary_braid(w), w.n)
        assert p.images == ref.images
        assert p.perm == ref.perm

    def test_free_point_lands_in_the_ledger(self):
        w = parse_wire("strands 2\ncomponents X=1,2\nseq: s1, F(1), 1, T(1), s1', I(1..2), 1\n")
        p = factorization_product(vanishing_data(w))
        ref = mc_from_braid(boundary_braid(w), w.n)
        assert p.images == ref.images
        assert p.ledger == (2, 0, 0)

    def test_random_products_telescope(self):
        rng = random.Random(41)
        for _ in range(80):
            w = rand_diagram(rng)
            p = factorization_product(vanishing_data(w))
            ref = mc_from_braid(boundary_braid(w), w.n)
            assert p.images == ref.images
            assert p.perm == ref.perm

    def test_hurwitz_moves_fix_the_product(self):
        # conjugator words grow fast under repeated moves, so the budget
        # per factorization stays small
        rng = random.Random(43)
        fact = vanishing_data(figure())
        want = factorization_product(fact)
        for _ in range(15):
            i = rng.randint(1, len(fact.items) - 1)
            fact = hurwitz_move(fact, i, rng.choice(["forward", "backward"]))
            assert mc_equal(factorization_product(fact), want)

    def test_fingerprint_agrees_with_the_product(self):
        rng = random.Random(45)
        for _ in range(40):
            fact = vanishing_data(rand_diagram(rng, max_n=4, max_events=6))
            word, perm, ledger = product_fingerprint(fact)
            mc = factorization_product(fact)
            assert perm == mc.perm
            assert ledger == mc.ledger
            assert mc_from_braid(word, fact.n).images == mc.images

    def test_hurwitz_moves_random_diagrams(self):
        # checked through the word-level fingerprint: item images blow up
        # under long conjugators, the reduced total word does not
        rng = random.Random(44)
        moves = 0
        for _ in range(40):
            fact = vanishing_data(rand_diagram(rng, max_n=4, max_events=6))
            if len(fact.items) < 2:
                continue
            want = product_fingerprint(fact)
            for _ in range(10):
                i = rng.randint(1, len(fact.items) - 1)
                fact = hurwitz_move(fact, i, rng.choice(["forward", "backward"]))
                assert product_fingerprint(fact) == want
                moves += 1
        assert moves > 200


# ---------------------------------------------------------------------------
# compatibility


class TestCompatible:
    def test_scott_layout_is_self_compatible(self):
        tc = two_cusp_cluster()
        ok, report = compatible(scott(tc), tc)
        assert ok and report.ok

    def test_figure_validates_but_boundary_differs(self):
        # the drawn layout carries the same incidence data as the cluster
        # layout yet closes up to a different braid class
        tc = two_cusp_cluster()
        fig = figure()
        assert validate_wiring(fig, germ=germ_from_cluster(tc)).ok
        ok, report = compatible(fig, tc)
        assert not ok
        assert report.codes() == ("boundary-class",)

    def test_boundary_class_names_the_separating_invariant(self):
        # exponent sums agree (20 on both sides); the hole permutations do not
        tc = two_cusp_cluster()
        fig = figure()
        assert exponent_sum(boundary_braid(fig)) == exponent_sum(boundary_braid(scott(tc))) == 20
        _, report = compatible(fig, tc)
        assert report.entries == ((
            "boundary-class",
            "boundary braid differs from the cluster layout: "
            "hole permutation (4,3,2,1) against (2,1,4,3)",
        ),)

    def test_germ_fixes_the_boundary_exponent_sum(self):
        # validating against a germ fixes #T = sum(d - 1), d a branch's
        # multiplicity at its origin, and sum C(k, 2) over the intersections =
        # sum delta + sum pairwise; so by the exponent law (#T + sum k(k - 1))
        # both sides of compatible have one exponent sum, which never
        # separates them
        def fixed_by(germ):
            pairs = sum(row[j] for i, row in enumerate(germ.pairwise) for j in range(i + 1, len(row)))
            return sum(b.origin_multiplicity - 1 + 2 * b.delta for b in germ.branches) + 2 * pairs

        rng = random.Random(3)
        layouts = 0
        for _ in range(400):
            c = rand_cluster(rng)
            try:
                w = scott(c)
            except SandwichError:  # no unbraided layout
                continue
            germ = germ_from_cluster(c)
            assert validate_wiring(w, germ=germ).ok
            assert exponent_sum(boundary_braid(w)) == fixed_by(germ)
            layouts += 1
        assert layouts >= 200
        germ = germ_from_cluster(two_cusp_cluster())
        assert validate_wiring(figure(), germ=germ).ok
        assert exponent_sum(boundary_braid(figure())) == fixed_by(germ) == 20

    def test_boundary_class_reasons_cheapest_first(self):
        diff = _boundary_difference
        assert diff((1, 2), (2, 1), 3) == "hole permutation (2,3,1) against (3,1,2)"
        assert diff((1, 1), (), 2) == "Dynnikov coordinates differ"
        assert diff((1, 1, 2, -2), (2, 2), 3) == "Dynnikov coordinates differ"
        assert diff((1, 2, 1), (2, 1, 2), 3) is None

    def test_equal_braids_walk_no_permutation(self, monkeypatch):
        # R = s1 s2 s1 s2' s1' s2' and the empty word: two words of one braid
        walked = []

        def counted(word, n):
            walked.append(word)
            return braid_permutation(word, n)

        monkeypatch.setattr(fillings, "braid_permutation", counted)
        assert _boundary_difference((1, 2, 1, -2, -1, -2), (), 3) is None
        assert _boundary_difference((), (1, 2, 1, -2, -1, -2), 3) is None
        assert walked == []
        assert _boundary_difference((1, 1), (), 2) == "Dynnikov coordinates differ"
        assert walked == [(1, 1), ()]  # a "no" walks both, to name the invariant

    def test_wrong_row_sums_reported(self):
        tc = two_cusp_cluster()
        w = parse_wire(LAYOUT_A1)
        ok, report = compatible(w, tc)
        assert not ok
        assert "weight" in report.codes()

    def test_combine_then_restrict_stays_compatible(self):
        tc = two_cusp_cluster()
        back = parse_wire(LAYOUT)
        ok, report = compatible(back, tc)
        assert ok, report.entries

    def test_cluster_side_built_once_per_cluster(self, monkeypatch):
        calls = []

        def counted(module, name):
            original = getattr(module, name)

            def call(*args):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(module, name, call)

        counted(plumbing, "germ_from_cluster")
        counted(wiring, "scott")
        tc = two_cusp_cluster()
        for text, ok in ((LAYOUT, True), (FIG_FULL, False), (LAYOUT_A1, False)):
            first, second = compatible(parse_wire(text), tc), compatible(parse_wire(text), tc)
            assert first == second and first[0] == ok, text
        assert sorted(calls) == ["germ_from_cluster", "scott"]
        compatible(parse_wire(LAYOUT), two_cusp_cluster())  # another cluster object
        assert len(calls) == 4

    def test_wrong_declared_weights_raise_on_every_call(self):
        tc = two_cusp_cluster()
        bad = plumbing.Cluster(tc.branches, tc.points, tc.mults, (8, 9))
        for _ in range(2):
            with pytest.raises(WeightMismatchError):
                compatible(parse_wire(LAYOUT), bad)


# ---------------------------------------------------------------------------
# incidence equivalence


def shuffle_columns(m, rng):
    order = list(range(len(m.kinds)))
    rng.shuffle(order)
    rows = tuple(tuple(row[j] for j in order) for row in m.rows)
    return from_rows(m.components, rows, tuple(m.kinds[j] for j in order))


class TestIncidenceEquiv:
    def test_column_permutations(self):
        rng = random.Random(47)
        m = incidence(figure())
        for _ in range(60):
            assert incidence_equiv(m, shuffle_columns(m, rng))

    def test_distinct_columns(self):
        a = from_rows(("x",), ((1, 1),), ("free", "free"))
        b = from_rows(("x",), ((2, 0),), ("free", "free"))
        assert not incidence_equiv(a, b)

    def test_dimension_mismatch(self):
        a = from_rows(("x",), ((1,),), ("free",))
        b = from_rows(("x",), ((1, 1),), ("free", "free"))
        assert not incidence_equiv(a, b)

    def test_kinds_travel_with_columns(self):
        a = from_rows(("x", "y"), ((1, 0), (0, 1)), ("free", "intersection"))
        c = incidence_canonical(shuffle_columns(a, random.Random(3)))
        assert c.kinds[0] == "free" and c.rows[0][0] == 1

    def test_kind_mismatch_blocks_equivalence(self):
        a = from_rows(("x",), ((1,),), ("free",))
        b = from_rows(("x",), ((1,),), ("intersection",))
        assert not incidence_equiv(a, b)

    def test_labels_matter_unless_unlabeled(self):
        a = from_rows(("x", "y"), ((1, 0), (0, 2)), ("free", "free"))
        b = from_rows(("x", "y"), ((0, 2), (1, 0)), ("free", "free"))
        assert not incidence_equiv(a, b)
        assert incidence_equiv(a, b, unlabeled=True)

    def test_row_order_is_normalized(self):
        a = from_rows(("x", "y"), ((1, 0), (0, 2)), ("free", "free"))
        b = from_rows(("y", "x"), ((0, 2), (1, 0)), ("free", "free"))
        assert incidence_equiv(a, b)

    def test_equivalence_relation(self):
        rng = random.Random(48)
        for _ in range(40):
            w = rand_diagram(rng)
            m = incidence(w)
            s1 = shuffle_columns(m, rng)
            s2 = shuffle_columns(s1, rng)
            assert incidence_equiv(m, m)
            assert incidence_equiv(s1, m) == incidence_equiv(m, s1)
            if incidence_equiv(m, s1) and incidence_equiv(s1, s2):
                assert incidence_equiv(m, s2)

    def test_figure_and_cluster_layout_differ(self):
        # same germ, genuinely different fillings
        tc = two_cusp_cluster()
        a = incidence(figure())
        b = incidence(scott(tc))
        assert not incidence_equiv(a, b)
        assert not incidence_equiv(a, b, unlabeled=True)


# ---------------------------------------------------------------------------
# summaries


class TestFillingSummary:
    def test_line_pair(self):
        s = filling_summary(scott(line_pair_cluster()))
        assert s.lefschetz_count == 3
        assert s.exotic_count == 0
        assert s.euler_characteristic == 2

    def test_two_cusp_layout(self):
        s = filling_summary(scott(two_cusp_cluster()))
        assert s.lefschetz_count == 10
        assert s.exotic_count == 2
        assert s.euler_characteristic == 9

    def test_figure_counts(self):
        s = filling_summary(figure())
        assert s.lefschetz_count == 8
        assert s.exotic_count == 2
        assert s.euler_characteristic == 7

    def test_single_free_branch(self):
        s = filling_summary(scott(cluster(["x"], [("p", None)], {"p": {"x": 1}})))
        assert s.lefschetz_count == 1
        assert s.euler_characteristic == 1

    def test_incompatible_diagram_is_a_compatible_no(self):
        # the summary computes on the diagram as given; compatible judges
        # whether it fills the germ
        ok, report = compatible(figure(), two_cusp_cluster())
        assert (ok, [code for code, _ in report.entries]) == (False, ["boundary-class"])
        assert filling_summary(figure()).lefschetz_count == 8

    def test_incidence_comes_canonical(self):
        s = filling_summary(figure())
        assert s.incidence == incidence_canonical(incidence(figure()))

    def test_json_shape(self):
        data = filling_json(filling_summary(figure()))
        assert data["lefschetzCount"] == 8
        assert data["exoticCount"] == 2
        assert data["eulerCharacteristic"] == 7
        assert data["incidence"]["components"] == ["A", "B"]


# ---------------------------------------------------------------------------
# the filling of a Scott layout against the resolution graph


def smith_diagonal(rows) -> list[int]:
    """The nonzero diagonal of the Smith normal form of an integer matrix,
    by unimodular row and column steps on its smallest nonzero entry."""
    a = [list(r) for r in rows]
    diagonal = []
    while a and a[0] and any(any(r) for r in a):
        _, i, j = min((abs(x), i, j) for i, r in enumerate(a) for j, x in enumerate(r) if x)
        a[0], a[i] = a[i], a[0]
        for r in a:
            r[0], r[j] = r[j], r[0]
        p = a[0][0]
        for r in a[1:]:
            q = r[0] // p
            r[:] = [x - q * y for x, y in zip(r, a[0])]
        for c in range(1, len(a[0])):
            q = a[0][c] // p
            for r in a:
                r[c] -= q * r[0]
        if any(r[0] for r in a[1:]) or any(a[0][1:]):
            continue  # a remainder below |p| is the next pivot
        indivisible = next((r for r in a[1:] if any(x % p for x in r)), None)
        if indivisible:
            a[0] = [x + y for x, y in zip(a[0], indivisible)]
            continue
        diagonal.append(abs(p))
        a = [r[1:] for r in a[1:]]
    return diagonal


def determinant(rows) -> int:
    a = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for k in range(len(a)):
        p = next((i for i in range(k, len(a)) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p], det = a[p], a[k], -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return int(det)


def test_integer_helpers():
    assert smith_diagonal([[2, 4], [6, 8]]) == [2, 4]
    assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert smith_diagonal([[1, 1], [1, 1], [0, 0]]) == [1]
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[-2, 1], [1, -3]]) == 5


def filling_matrix(w) -> list[list[int]]:
    """M: one row per cycle item of the layout's vanishing data, counting
    the holes its curve encloses in each merged hole.  A working rule, not
    a derivation (ROADMAP item 18): each arc joins its two holes into one
    and adds no 2-handle."""
    items = vanishing_data(w).items
    parent = list(range(w.n + 1))

    def root(h):
        while parent[h] != h:
            h = parent[h]
        return h

    for item in items:
        if item.kind == "arc":
            a, b = sorted(curve_holes(item))
            parent[root(b)] = root(a)
    merged = sorted({root(h) for h in range(1, w.n + 1)})
    return [[sum(root(h) == k for h in curve_holes(item)) for k in merged]
            for item in items if item.kind == "cycle"]


def test_scott_layout_filling_has_the_graph_homology():
    # with a handle per cycle on the disk with the merged holes: H1 = Z^holes
    # / rows of M is 0, b2 = rank ker M^T is the number of graph vertices,
    # and det(M^T M) is |det| of the graph's intersection matrix
    rng = random.Random(1)
    cases = []
    for _ in range(400):
        c = rand_cluster(rng)
        try:
            cases.append((scott(c), graph_from_cluster(c)[0]))
        except SandwichError:
            pass
    assert len(cases) == 391
    with_arcs = 0
    for w, g in cases:
        m = filling_matrix(w)
        holes = len(m[0])
        with_arcs += holes < w.n
        assert smith_diagonal(m) == [1] * holes
        assert len(m) - holes == len(g.vertices)
        names = [v for v, _ in g.vertices]
        q = [[e if u == v else 0 for u in names] for v, e in g.vertices]
        for a, b in g.edges:
            q[names.index(a)][names.index(b)] = q[names.index(b)][names.index(a)] = 1
        gram = [[sum(r[i] * r[j] for r in m) for j in range(holes)] for i in range(holes)]
        assert determinant(gram) == abs(determinant(q))
    assert with_arcs == 98


# ---------------------------------------------------------------------------
# star-extended arrangements


class TestUnexpected:
    def test_line_pair_n1(self):
        g, aug = line_pair()
        arr = unexpected_arrangement(g, aug, 1, 10)
        assert dict(arr.graph.vertices)["vstar"] == -9
        legs = sum(1 for a, b in arr.graph.edges if "vstar" in (a, b)) - 1
        assert legs == 7
        assert {b.weight for b in arr.germ.branches} == {20}
        assert validate_wiring(arr.wiring, germ=arr.germ).ok

    def test_blow_down_consumes_everything(self):
        g, aug = line_pair()
        arr = unexpected_arrangement(g, aug, 1, 3)
        trace = blow_down(arr.graph, arr.arrows)
        assert len(trace.steps) == len(arr.graph.vertices) + len(arr.arrows.arrows)

    def test_two_cusp_base(self):
        vertices = {
            "s1": -3, "s2": -2, "s3": -2, "s4": -3,
            "a1": -2, "a2": -2, "b1": -2, "b2": -2,
        }
        edges = [
            ("s1", "s3"), ("s2", "s3"), ("s3", "s4"),
            ("s4", "a1"), ("a1", "a2"), ("s4", "b1"), ("b1", "b2"),
        ]
        g = plumbing_graph(vertices, edges)
        aug = augmentation([("A", "a2"), ("B", "b2")])
        arr = unexpected_arrangement(g, aug, 1, 6)
        assert validate_wiring(arr.wiring, germ=arr.germ).ok
        assert exotic_count(arr.germ) == 2
        assert sum(1 for ev in arr.wiring.events if ev.kind == "T") == 2

    def test_combine_germs_arithmetic(self):
        a = germ_from_cluster(two_cusp_cluster())
        b = smooth_germ(3)
        u = combine_germs(a, b)
        assert u.branch("A").weight == 8 + 2 * 3
        assert u.branch("x1").weight == 1 + 1 * 4
        assert u.pair("A", "x1") == 2
        assert u.pair("A", "B") == 7
        assert u.pair("x1", "x2") == 0

    def test_combine_germs_rejects_shared_names(self):
        a = smooth_germ(2)
        with pytest.raises(RangeError):
            combine_germs(a, a)
