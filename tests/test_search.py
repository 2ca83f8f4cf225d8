"""The one row-bijection search behind ``compare --unlabeled`` and
``validate --germ``, checked against the exhaustive searches it replaced."""

import random
import sys
from itertools import combinations, permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from sandwich.fillings import incidence_canonical, incidence_equiv
from sandwich.plumbing import Branch, DecoratedGerm, cluster, germ_from_cluster
from sandwich.wiring import (
    FreePoint,
    Intersection,
    Tangency,
    WiringDiagram,
    _component_summary,
    _matching_exists,
    _numbered,
    bijection_exists,
    event_strands,
    validate_wiring,
)

from matrices import from_rows

KINDS = ("intersection", "free")


# ---------------------------------------------------------------------------
# the searches the helper replaced, kept as oracles for small inputs


def reference_incidence_equiv(a, b, unlabeled=False):
    """Every one of the m! row orders, each compared in canonical form."""
    if len(a.rows) != len(b.rows) or len(a.kinds) != len(b.kinds):
        return False
    ca, cb = incidence_canonical(a), incidence_canonical(b)
    if not unlabeled:
        return ca == cb
    target = (cb.rows, cb.kinds)
    for perm in permutations(range(len(ca.rows))):
        shuffled = from_rows(cb.components, tuple(ca.rows[i] for i in perm), ca.kinds)
        canon = incidence_canonical(shuffled)
        if (canon.rows, canon.kinds) == target:
            return True
    return False


def reference_matching_exists(labels, names, germ, strands, rows, self_pairs, cross):
    """Recursive backtracking over branch assignments, one label per level."""

    def fits(label, bname, chosen):
        b = germ.branch(bname)
        if (strands[label], rows[label], self_pairs[label]) != (
                b.origin_multiplicity, b.weight, b.delta):
            return False
        for la, na in chosen.items():
            key = (la, label) if la < label else (label, la)
            if cross.get(key, 0) != germ.pair(na, bname):
                return False
        return True

    def rec(i, chosen, used):
        if i == len(labels):
            return True
        for bname in names:
            if bname in used or not fits(labels[i], bname, chosen):
                continue
            chosen[labels[i]] = bname
            if rec(i + 1, chosen, used | {bname}):
                return True
            del chosen[labels[i]]
        return False

    return rec(0, {}, frozenset())


# ---------------------------------------------------------------------------
# inputs


def rand_matrix(rng, max_m=6, max_cols=6, top=2):
    m = rng.randint(0, max_m)
    cols = rng.randint(0, max_cols)
    labels = tuple(f"r{i}" for i in range(m))
    rows = tuple(tuple(rng.randint(0, top) for _ in range(cols)) for _ in range(m))
    return from_rows(labels, rows, tuple(rng.choice(KINDS) for _ in range(cols)))


def relabeled(m, row_order, col_order, flip=None):
    """Rows moved to ``row_order`` under the same labels, columns to
    ``col_order``; ``flip`` = (i, j) bumps one entry of the result."""
    rows = [[m.rows[i][j] for j in col_order] for i in row_order]
    if flip is not None:
        i, j = flip
        rows[i][j] = 1 - rows[i][j] if rows[i][j] <= 1 else rows[i][j] - 1
    return from_rows(m.components, tuple(map(tuple, rows)), tuple(m.kinds[j] for j in col_order))


def variants(m, rng):
    """A relabeled, column-shuffled copy, the same with one flipped entry,
    and an unrelated matrix of the same shape."""
    rows, cols = list(range(len(m.rows))), list(range(len(m.kinds)))
    rng.shuffle(rows)
    rng.shuffle(cols)
    out = [relabeled(m, rows, cols)]
    if rows and cols:
        out.append(relabeled(m, rows, cols, (rng.randrange(len(rows)), rng.randrange(len(cols)))))
    out.append(from_rows(m.components, tuple(
        tuple(rng.randint(0, 2) for _ in cols) for _ in rows), tuple(rng.choice(KINDS) for _ in cols)))
    return out


def line_matrix(m, free):
    """Incidence of m generic lines, one strand each: a double point per
    pair of lines, and ``free[i]`` free points on line i."""
    cols, kinds = [], []
    for p in range(m):
        for q in range(p + 1, m):
            cols.append([int(i in (p, q)) for i in range(m)])
            kinds.append("intersection")
    for i, k in enumerate(free):
        cols += [[int(r == i) for r in range(m)]] * k
        kinds += ["free"] * k
    rows = tuple(tuple(col[i] for col in cols) for i in range(m))
    return from_rows(tuple(f"L{i}" for i in range(m)), rows, tuple(kinds))


def rand_summary(rng, max_l=6):
    """A germ on up to six branches with small invariants (so that many
    assignments fit partway), and the per-component data of a diagram that
    matches it under a random bijection, sometimes with one value bumped."""
    k = rng.randint(0, max_l)
    names = [f"b{i}" for i in rng.sample(range(10), k)]
    branches = tuple(
        Branch(name, (1,), rng.randint(1, 2), rng.randint(1, 2), rng.randint(0, 1), "r")
        for name in names
    )
    pair = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            pair[i][j] = pair[j][i] = rng.randint(0, 2)
    germ = DecoratedGerm(branches, "r", tuple(map(tuple, pair)))
    labels = [f"c{i}" for i in range(1, k + 1)]
    order = list(range(k))
    rng.shuffle(order)
    strands, rows, self_pairs, cross = {}, {}, {}, {}
    for label, i in zip(labels, order):
        b = branches[i]
        strands[label], rows[label], self_pairs[label] = b.origin_multiplicity, b.weight, b.delta
    for x in range(k):
        for y in range(x + 1, k):
            value = pair[order[x]][order[y]]
            if value or rng.random() < 0.3:
                cross[(labels[x], labels[y])] = value
    if k and rng.random() < 0.5:
        label = rng.choice(labels)
        if cross and rng.random() < 0.5:
            key = rng.choice(sorted(cross))
            cross[key] += rng.choice((-1, 1))
        else:
            table = rng.choice((strands, rows, self_pairs))
            table[label] += rng.choice((-1, 1))
    return sorted(labels), sorted(names), germ, strands, rows, self_pairs, cross


# ---------------------------------------------------------------------------
# the helper itself


class TestBijectionExists:
    def test_empty_order(self):
        assert bijection_exists(0, lambda p: True)
        assert not bijection_exists(0, lambda p: False)

    def test_identity_is_tried_first(self):
        seen = []

        def fits(p):
            seen.append(p)
            return True

        assert bijection_exists(4, fits)
        assert seen == [(), (0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)]

    def test_finds_the_one_order(self):
        target = (2, 0, 3, 1)
        assert bijection_exists(4, lambda p: p == target[: len(p)])

    def test_prefixes_are_pruned(self):
        # every prefix is asked for at most once, and never below a rejected one
        asked = []

        def fits(p):
            asked.append(p)
            return len(p) < 2 or p[0] < p[1]

        assert bijection_exists(4, fits)
        assert len(asked) == len(set(asked))
        assert all(p[0] < p[1] for p in asked if len(p) > 2)

    def test_no_order(self):
        # the last element can never be placed
        assert not bijection_exists(3, lambda p: len(p) < 3)

    def test_every_order_is_a_permutation(self):
        found = []

        def fits(p):
            if len(p) == 3:
                found.append(p)
                return False
            return True

        assert not bijection_exists(3, fits)
        assert found == list(permutations(range(3)))


# ---------------------------------------------------------------------------
# compare --unlabeled


class TestIncidenceOracle:
    def test_random_matrices(self):
        rng = random.Random(20261018)
        equivalent = 0
        for _ in range(250):
            m = rand_matrix(rng)
            for b in variants(m, rng):
                for unlabeled in (False, True):
                    want = reference_incidence_equiv(m, b, unlabeled)
                    assert incidence_equiv(m, b, unlabeled) == want
                    equivalent += want
        assert equivalent > 200

    def test_column_swaps(self):
        # swapping two entries of one column keeps every column count, so
        # only the row search tells these apart
        rng = random.Random(7)
        for _ in range(100):
            m = rand_matrix(rng, top=1)
            rows = list(range(len(m.rows)))
            rng.shuffle(rows)
            grid = [list(r) for r in relabeled(m, rows, range(len(m.kinds))).rows]
            if len(grid) >= 2 and m.kinds:
                j = rng.randrange(len(m.kinds))
                grid[0][j], grid[1][j] = grid[1][j], grid[0][j]
            b = from_rows(m.components, tuple(map(tuple, grid)), m.kinds)
            assert incidence_equiv(m, b, True) == reference_incidence_equiv(m, b, True)


@st.composite
def matrix_pairs(draw):
    m = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 5))
    entries = st.lists(st.integers(0, 2), min_size=cols, max_size=cols)
    rows = draw(st.lists(entries, min_size=m, max_size=m))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=cols, max_size=cols))
    a = from_rows(tuple(f"r{i}" for i in range(m)), tuple(map(tuple, rows)), tuple(kinds))
    row_order = draw(st.permutations(range(m)))
    col_order = draw(st.permutations(range(cols)))
    flip = None
    if m and cols and draw(st.booleans()):
        flip = (draw(st.integers(0, m - 1)), draw(st.integers(0, cols - 1)))
    return a, relabeled(a, row_order, col_order, flip)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(matrix_pairs())
def test_unlabeled_equivalence_matches_reference(pair):
    a, b = pair
    want = reference_incidence_equiv(a, b, True)
    assert incidence_equiv(a, b, True) == want
    assert incidence_equiv(b, a, True) == want


class TestHardCases:
    # pairs on which trying all m! row orders took seconds at m=8
    def test_moved_free_point_is_no(self):
        a = line_matrix(8, [2] * 8)
        b = line_matrix(8, [1, 3] + [2] * 6)
        assert not incidence_equiv(a, b, unlabeled=True)

    def test_relabeled_distinguishable_rows_is_yes(self):
        a = line_matrix(8, range(8))
        rng = random.Random(8)
        rows, cols = list(range(8)), list(range(len(a.kinds)))
        rng.shuffle(rows)
        rng.shuffle(cols)
        b = relabeled(a, rows, cols)
        assert not incidence_equiv(a, b)
        assert incidence_equiv(a, b, unlabeled=True)


# ---------------------------------------------------------------------------
# validate --germ


def component_table(labels, strands, rows, self_pairs, cross):
    """The label-keyed summary in the shape ``_matching_exists`` takes: one
    (strand count, row sum, self count) row per component, in ``labels``
    order, and the cross counts as a matrix over that order."""
    table = [(strands[x], rows[x], self_pairs[x]) for x in labels]
    return table, [[cross.get((min(x, y), max(x, y)), 0) for y in labels] for x in labels]


class TestMatchingOracle:
    def test_random_summaries(self):
        rng = random.Random(61)
        found = 0
        for _ in range(1500):
            args = rand_summary(rng)
            labels, names, germ, *summary = args
            want = reference_matching_exists(*args)
            assert _matching_exists(labels, names, *component_table(labels, *summary), germ) == want
            found += want
        assert 300 < found < 1400

    def test_validate_reports_no_match_iff_none_exists(self):
        rng = random.Random(62)
        found = 0
        for _ in range(300):
            w = rand_lines(rng)
            labels, number = _numbered(w)
            sums, selfs, matrix = _component_summary(number, len(labels), event_strands(w))
            strands = {x: len(s) for x, s in w.component_strands().items()}
            rows, self_pairs = dict(zip(labels, sums)), dict(zip(labels, selfs))
            cross = {(x, y): matrix[i][j] for (i, x), (j, y) in combinations(enumerate(labels), 2)
                     if matrix[i][j]}
            labels = sorted(strands)
            names = {label: f"b{i}" for label, i in zip(labels, rng.sample(range(10), len(labels)))}
            branches = [Branch(names[x], (1,), rows[x], strands[x], self_pairs[x], "r") for x in labels]
            pair = [[cross.get((min(x, y), max(x, y)), 0) if x != y else 0 for y in labels] for x in labels]
            if rng.random() < 0.5:
                i, j = rng.randrange(len(labels)), rng.randrange(len(labels))
                if i != j:
                    pair[i][j] = pair[j][i] = pair[i][j] + 1
                else:
                    branches[i] = Branch(names[labels[i]], (1,), rows[labels[i]] + 1,
                                         strands[labels[i]], self_pairs[labels[i]], "r")
            germ = DecoratedGerm(tuple(branches), "r", tuple(map(tuple, pair)))
            want = reference_matching_exists(
                labels, sorted(names.values()), germ, strands, rows, self_pairs, cross)
            codes = {code for code, _ in validate_wiring(w, germ=germ).entries}
            assert ("component-match" in codes) == (not want)
            found += want
        assert 150 < found < 300


def rand_lines(rng, max_n=6):
    """A diagram on up to six strands with inferred components: few
    tangencies, so mostly one strand per component."""
    n = rng.randint(1, max_n)
    braids, events = [], []
    for _ in range(rng.randint(0, 8)):
        braids.append(tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                            for _ in range(rng.randint(0, 2))) if n > 1 else ())
        kind = rng.random()
        if n == 1 or kind < 0.3:
            events.append(FreePoint(rng.randint(1, n)))
        elif kind < 0.4:
            events.append(Tangency(rng.randint(1, n - 1)))
        else:
            lo = rng.randint(1, n - 1)
            events.append(Intersection(lo, rng.randint(lo + 1, n)))
    braids.append(())
    return WiringDiagram(n, tuple(braids), tuple(events))


def test_pencil_with_inferred_labels_needs_no_recursion():
    # the labels c1, c2, ... differ from the branch names, so validate
    # searches for an assignment; it must not recurse once per component
    m = 150
    names = [f"L{i}" for i in range(m)]
    germ = germ_from_cluster(cluster(names, [("p", None)], {"p": {b: 1 for b in names}}))
    w = WiringDiagram(m, ((), ()), (Intersection(1, m),))
    assert w.components[:2] == ("c1", "c2")
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        report = validate_wiring(w, germ=germ)
    finally:
        sys.setrecursionlimit(limit)
    assert report.ok, report.entries
