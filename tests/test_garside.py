"""The braid layer's kernels, checked against the algorithms they
replaced: braid equality by Dynnikov coordinates against the Artin action
and against equal Garside normal forms, also once the words' common ends
are dropped, the normal form (which now only chooses the words the action
runs on) against its first version, the action word against the one that
wrote every normal-form word, canonical words off one running image table
against one table per item, least rotations against all rotations, hole
sets read off permutations, and the folded factorization product."""

import random
from functools import reduce
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandwich import fillings, mcg
from sandwich.mcg import (
    Factorization,
    HoleArc,
    HoleCurve,
    Item,
    artin_act,
    braid_equal,
    braid_permutation,
    canonical_curve,
    canonical_curves,
    check_braid_word,
    curve_holes,
    cyclic_canonical,
    dynnikov_coordinates,
    exponent_sum,
    half_twist,
    inverse_word,
    item_offset,
    mc_compose,
    mc_from_braid,
    mc_of_item,
    normal_form,
    perm_identity,
    reduce_word,
)
from sandwich.wiring import boundary_braid, parse_wire, vanishing_data

from fixtures import arrangement, rand_word
from hurwitz import perm_inverse
from random_diagrams import rand_diagram


def reference_braid_equal(a, b, n):
    """Equality through the (faithful) Artin action: equal images of every
    generator.  Exponential in the word length; small inputs only."""
    return all(artin_act(a, (g,), n) == artin_act(b, (g,), n) for g in range(1, n + 1))


def reference_normal_form_equal(a, b, n):
    """Equality as decided before Dynnikov coordinates: equal Garside
    normal forms."""
    return normal_form(a, n) == normal_form(b, n)


def reference_left_weight(a, b):
    """The left-weighted pair (a', b') with a'b' = ab: a letter s_i moves
    from the front of b to the end of a while b can start with it (its
    inverse has a descent at i) and a cannot end with it (no descent at i).
    The result does not depend on the order of the moves."""
    a, b = list(a), list(perm_inverse(b))
    i = 1
    while i < len(a):
        if b[i - 1] > b[i] and a[i - 1] < a[i]:
            a[i - 1], a[i] = a[i], a[i - 1]
            b[i - 1], b[i] = b[i], b[i - 1]
            i = max(i - 1, 1)
        else:
            i += 1
    return tuple(a), perm_inverse(b)


def reference_normal_form(word, n):
    """The first kernel: every letter becomes a factor that is left-weighted
    leftwards through a pair memo that lives for one call."""
    check_braid_word(word, n)
    ident = perm_identity(n)
    delta = ident[::-1]
    memo: dict = {}
    inf = 0
    flip = False  # stored factors are tau^flip of the true ones
    factors = []
    for a in reduce_word(word):
        if a < 0:
            flip = not flip
            inf -= 1
        # s_i or Delta s_i^{-1}, stored through tau: tau swaps s_i for s_{n-i}
        factors.append(mcg._swap(delta if a < 0 else ident, n - abs(a) if flip else abs(a)))
        j = len(factors) - 1
        while j:
            pair = (factors[j - 1], factors[j])
            out = memo.get(pair)
            if out is None:
                out = memo[pair] = reference_left_weight(*pair)
            if out == pair:
                break
            factors[j - 1], factors[j] = out
            j -= 1
        while factors and factors[-1] == ident:
            factors.pop()
        while factors and factors[0] == delta:
            factors.pop(0)
            inf += 1
    if flip:
        factors = [mcg._tau(f) for f in factors]
    return inf, tuple(factors)


def normal_form_word(word, n):
    """The normal form written as a braid word: Delta^inf, then a positive
    word per factor."""
    inf, factors = normal_form(word, n)
    delta = half_twist(1, n) if inf >= 0 else inverse_word(half_twist(1, n))
    return delta * abs(inf) + tuple(a for f in factors for a in mcg._simple_word(f))


def reference_action_word(word, n):
    """The action word as first chosen: the normal-form word is written
    and reduced for every mixed-sign word, then compared."""
    word = reduce_word(word)
    if len(word) == abs(exponent_sum(word)):
        return word
    short = reduce_word(normal_form_word(word, n))
    return short if len(short) < len(word) else word


def reference_canonical_curve(c):
    """The canonical word made one item at a time: the base word under the
    shorter word of g^{-1} (``_action_word``), by ``artin_act``."""
    g_inv = mcg._action_word(inverse_word(c.conjugator), c.n)
    return cyclic_canonical(artin_act(g_inv, c.base_word, c.n))


def reference_curve_holes(c):
    """Holes of a curve or arc: generators with exponent sum 1 in its
    canonical word."""
    sums = {}
    for a in cyclic_canonical(artin_act(inverse_word(c.conjugator), c.base_word, c.n)):
        sums[abs(a)] = sums.get(abs(a), 0) + (1 if a > 0 else -1)
    return frozenset(g for g, s in sums.items() if s == 1)


def with_trivial_inserts(rng, word, n, count):
    """``word`` with ``count`` trivial words spliced in: s_i s_i' or s_i' s_i,
    and (n >= 3) s_i s_{i+1} s_i s_{i+1}' s_i' s_{i+1}'."""
    out = list(word)
    for _ in range(count):
        if n >= 3 and rng.random() < 0.5:
            i = rng.randint(1, n - 2)
            piece = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
        else:
            i = rng.randint(1, n - 1)
            piece = [i, -i] if rng.random() < 0.5 else [-i, i]
        pos = rng.randint(0, len(out))
        out[pos:pos] = piece
    return tuple(out)


def rand_item(rng, n):
    g = rand_word(rng, n, rng.randint(0, 8))
    kind = rng.choice(["cycle", "arc", "free"])
    if kind == "arc":
        return HoleArc(n, g, rng.randint(1, n - 1))
    if kind == "free":
        return HoleCurve(n, g, rng.randint(1, n), 0)
    j = rng.randint(1, n - 1)
    return HoleCurve(n, g, j, rng.randint(1, n - j))


def left_weighted(a, b):
    """No letter can move from the front of b to the end of a."""
    inv = perm_inverse(b)
    return not any(inv[i - 1] > inv[i] and a[i - 1] < a[i] for i in range(1, len(a)))


class TestNormalForm:
    def test_small_cases(self):
        assert normal_form((), 3) == (0, ())
        assert normal_form((1, -1), 3) == (0, ())
        assert normal_form((1, 2, 1), 3) == (1, ())
        assert normal_form((2, 1, 2), 3) == (1, ())
        assert normal_form((-1,), 2) == (-1, ())
        assert normal_form((1,), 3) == (0, ((2, 1, 3),))

    def test_word_form(self):
        assert normal_form_word((2, 1, 2), 3) == half_twist(1, 3)
        assert normal_form_word((-2, -1, -2), 3) == inverse_word(half_twist(1, 3))
        assert normal_form_word((1, 3), 4) == normal_form_word((3, 1), 4)

    def test_factors_are_proper_and_left_weighted(self):
        rng = random.Random(71)
        for _ in range(300):
            n = rng.randint(2, 6)
            inf, factors = normal_form(rand_word(rng, n, rng.randint(0, 14)), n)
            ident = tuple(range(1, n + 1))
            assert all(f not in (ident, ident[::-1]) for f in factors)
            assert all(left_weighted(a, b) for a, b in zip(factors, factors[1:]))

    def test_agrees_with_the_artin_action(self):
        rng = random.Random(72)
        equal = 0
        for _ in range(1500):
            n = rng.randint(2, 5)
            a = rand_word(rng, n, rng.randint(0, 10))
            if rng.random() < 0.5:
                b = with_trivial_inserts(rng, a, n, rng.randint(1, 3))
            else:
                b = rand_word(rng, n, rng.randint(0, 10))
            want = reference_braid_equal(a, b, n)
            equal += want
            assert braid_equal(a, b, n) == want, (a, b, n)
        assert 600 < equal < 1400

    def test_full_twist_is_not_trivial(self):
        for n in range(2, 8):
            delta = half_twist(1, n)
            assert normal_form(delta + delta, n) == (2, ())
            assert not braid_equal(delta + delta, (), n)
            assert not reference_braid_equal(delta + delta, (), n)

    def test_braid_equal_runs_no_artin_action(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("artin_act called")

        monkeypatch.setattr(mcg, "artin_act", refuse)
        assert braid_equal((1, 2, 1, -2, -1, -2), (), 3)
        assert not braid_equal((1, 1), (), 2)

    def test_range_checked(self):
        with pytest.raises(mcg.RangeError):
            normal_form((3, -3), 3)


P = (1, -2)  # s1 s2'
R = (1, 2, 1, -2, -1, -2)  # s1 s2 s1 s2' s1' s2' = 1, not freely trivial


def far_commuted(rng, word):
    """``word`` with some adjacent letters s_i^±, s_j^± (|i - j| >= 2)
    exchanged."""
    out = list(word)
    for _ in range(len(out) if len(out) > 1 else 0):
        p = rng.randrange(len(out) - 1)
        if abs(abs(out[p]) - abs(out[p + 1])) >= 2:
            out[p], out[p + 1] = out[p + 1], out[p]
    return tuple(out)


class TestDynnikovKernel:
    """``braid_equal`` decides by exponent sum and Dynnikov coordinates;
    equal normal forms are the oracle."""

    def test_random_pairs(self):
        rng = random.Random(81)
        seen = {True: 0, False: 0}
        for k in range(3000):
            n = rng.randint(2, 7)
            full = half_twist(1, n) * 2
            a = rand_word(rng, n, rng.randint(0, 16))
            if k % 3 == 0:
                a, b = full + a, a + full  # Delta^2 is central
            else:
                b = a
            b = far_commuted(rng, with_trivial_inserts(rng, b, n, rng.randint(0, 3)))
            if rng.random() < 0.4:
                i, pos = rng.randint(1, n - 1), rng.randint(0, len(b))
                b = b[:pos] + (i, i) + b[pos:]  # a pure braid, almost never trivial here
            want = reference_normal_form_equal(a, b, n)
            seen[want] += 1
            assert braid_equal(a, b, n) == want, (a, b, n)
        assert min(seen.values()) > 1000, seen

    def test_ladder_words(self):
        words = [P * k + core + inverse_word(P) * k for core in (R, (1, 1)) for k in range(9)]
        for a, b in product(words + [(), (1, 1)], repeat=2):
            assert braid_equal(a, b, 3) == reference_normal_form_equal(a, b, 3), (a, b)
        assert all(braid_equal(P * k + R + inverse_word(P) * k, (), 3) for k in range(9))

    def test_generic_arrangement_boundaries(self):
        for m in range(2, 9):
            bb = boundary_braid(arrangement(m))
            mid = len(bb) // 2
            g = bb[mid:mid + 4]
            core = R if m >= 3 else (1, -1)
            same = bb[:mid] + inverse_word(g) + core + g + bb[mid:]
            other = bb[:mid] + (1, 1) + bb[mid:]
            for b, want in ((same, True), (other, False)):
                assert reference_normal_form_equal(bb, b, m) == want
                assert braid_equal(bb, b, m) == want, m

    def test_runs_no_normal_form(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("normal_form called")

        monkeypatch.setattr(mcg, "normal_form", refuse)
        monkeypatch.setattr(mcg, "_write_normal_form", refuse)
        assert braid_equal(R, (), 3)
        assert not braid_equal((1, 1), (), 2)

    @pytest.mark.parametrize("a, b", [((3, -3), ()), ((), (3, -3)), ((1,), (3, -3))])
    def test_out_of_range_letter_raises_before_it_cancels(self, a, b):
        with pytest.raises(mcg.RangeError):
            braid_equal(a, b, 3)

    def test_full_twist_moves_the_coordinates(self):
        for n in range(2, 8):
            full = half_twist(1, n) * 2
            assert dynnikov_coordinates(full, n) != dynnikov_coordinates((), n) == (0, 1) * n
            assert exponent_sum(full) == n * (n - 1)


class TestTrimmedEquality:
    """``braid_equal`` drops the common prefix and suffix of its words
    before it walks them: p x q against p y q, with the Artin action as
    the oracle."""

    MIDDLES = ("same", "trivial insert", "equal exponent sums", "prefix", "empty")

    def middles(self, rng, n, case):
        x = rand_word(rng, n, rng.randint(0, 6))
        if case == "same":
            return x, x
        if case == "trivial insert":
            return x, with_trivial_inserts(rng, x, n, 1)
        if case == "equal exponent sums":
            return x, tuple(rng.sample(x, len(x)))
        if case == "prefix":
            return x, x + rand_word(rng, n, rng.randint(1, 4))
        return x, ()

    def test_shared_ends(self):
        rng = random.Random(91)
        unequal_same_sum = 0
        for k in range(1500):
            n = rng.randint(2, 5)
            case = self.MIDDLES[k % len(self.MIDDLES)]
            p, q = (rand_word(rng, n, rng.randint(0, 5)) for _ in range(2))
            x, y = self.middles(rng, n, case)
            a, b = p + x + q, p + y + q
            want = reference_braid_equal(a, b, n)
            assert braid_equal(a, b, n) == want == braid_equal(b, a, n), (a, b, n)
            unequal_same_sum += not want and exponent_sum(x) == exponent_sum(y)
        assert unequal_same_sum > 100, unequal_same_sum

    def test_empty_and_one_sided_words(self):
        assert braid_equal((), (), 2)
        assert braid_equal((), (1, -1), 2) and braid_equal((1, -1), (), 2)
        assert braid_equal(R, R + R, 3) and braid_equal(R + (1,), R + R + (1,), 3)
        assert not braid_equal((1,), (1, 1), 2) and not braid_equal((1, 1), (1,), 2)
        assert not braid_equal((2, 1), (2, 1, 2, 1), 3)

    @pytest.mark.parametrize("a, b", [((3, 1), (3, 2)), ((1, 3), (2, 3)), ((3,), (3,)),
                                      ((1, -3, 2), (1, -3, 2)), ((1, 2, 3, 1), (1, 2, 3, 1, 1))])
    def test_out_of_range_letter_in_a_shared_part_raises(self, a, b):
        with pytest.raises(mcg.RangeError):
            braid_equal(a, b, 3)
        with pytest.raises(mcg.RangeError):
            braid_equal(b, a, 3)


def signed_words(seed, count):
    """(n, word) on 2..7 strands, 0..40 letters, each word drawn with a
    positive share of 0.1, 0.5 or 0.9 in turn."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(2, 7)
        positive = (0.1, 0.5, 0.9)[k % 3]
        yield n, tuple((1 if rng.random() < positive else -1) * rng.randint(1, n - 1)
                       for _ in range(rng.randint(0, 40)))


class TestAgainstTheFirstKernel:
    def test_random_words(self):
        for n, word in signed_words(79, 3000):
            assert normal_form(word, n) == reference_normal_form(word, n), (word, n)

    def test_every_pair_of_simple_elements(self):
        for n in range(2, 6):
            simple = list(permutations(range(1, n + 1)))
            for a, b in product(simple, simple):
                assert mcg._left_weight(a, b) == reference_left_weight(a, b), (a, b)

    def test_the_memo_changes_no_result_and_stays_bounded(self):
        cache = mcg._left_weight
        words = list(signed_words(80, 600))
        before = [normal_form(word, n) for n, word in words]
        cache.cache_clear()
        after = []
        for n, word in words:
            after.append(normal_form(word, n))
            assert cache.cache_info().currsize <= cache.cache_info().maxsize
        assert after == before
        info = cache.cache_info()
        assert info.misses > info.maxsize == info.currsize  # the bound was reached


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i))), max_size=12),
)))
def test_normal_form_word_is_the_braid(case):
    n, word = case
    assert reference_braid_equal(normal_form_word(tuple(word), n), tuple(word), n)


class TestShorterWord:
    def test_canonical_curve_matches_the_raw_action(self):
        rng = random.Random(73)
        for _ in range(300):
            n = rng.randint(2, 5)
            c = rand_item(rng, n)
            raw = cyclic_canonical(artin_act(inverse_word(c.conjugator), c.base_word, n))
            assert canonical_curve(c) == reference_canonical_curve(c) == raw

    def test_mc_from_braid_matches_the_raw_action(self):
        rng = random.Random(74)
        for _ in range(200):
            n = rng.randint(2, 5)
            w = with_trivial_inserts(rng, rand_word(rng, n, rng.randint(0, 8)), n, 2)
            mc = mc_from_braid(w, n)
            assert mc.images == tuple(artin_act(w, (g,), n) for g in range(1, n + 1))
            assert mc.perm == braid_permutation(w, n)

    def test_mc_from_braid_checks_the_range_before_any_action(self, monkeypatch):
        tables = []
        monkeypatch.setattr(mcg, "_image_table", lambda b, n: tables.append(b))
        # the first word's bad pair would cancel away if it were reduced first
        for word, bad in (((1, 3, -3), 3), ((3,), 3), ((-1, 1, -4), -4)):
            with pytest.raises(mcg.RangeError, match=f"^braid letter {bad} outside strand range 1..2$"):
                mc_from_braid(word, 3)
        assert tables == []

    def test_trivial_insert_acts_as_nothing(self):
        # P^k R P^-k with R = s1 s2 s1 s2' s1' s2' is trivial but not freely so
        r = (1, 2, 1, -2, -1, -2)
        word = (1, -2) * 6 + r + (2, -1) * 6
        assert mc_from_braid(word, 3).images == ((1,), (2,), (3,))


class TestHoleSets:
    def test_matches_the_canonical_word(self):
        rng = random.Random(75)
        for _ in range(1000):
            n = rng.randint(2, 6)
            c = rand_item(rng, n)
            assert curve_holes(c) == reference_curve_holes(c)

    def test_free_cycle_offset(self):
        rng = random.Random(76)
        for _ in range(200):
            n = rng.randint(2, 6)
            c = HoleCurve(n, rand_word(rng, n, rng.randint(0, 8)), rng.randint(1, n), 0)
            (hole,) = canonical_curve(c)
            want = [0] * (n + 1)
            want[hole - 1] = 2
            assert item_offset(c) == tuple(want)


class TestFoldedProduct:
    def test_matches_the_composed_item_classes(self):
        # arcs, boundary-parallel and wider cycles, half of them with
        # nonzero twists
        rng = random.Random(77)
        for _ in range(150):
            n = rng.randint(2, 4)
            items = [rand_item(rng, n) for _ in range(rng.randint(0, 4))]
            items = [Item(c.n, c.kind, c.conjugator, c.start, c.span, tuple(rng.randint(-2, 2) for _ in c.twists))
                     if rng.random() < 0.5 else c for c in items]
            fact = Factorization(n, tuple(items))
            want = reduce(mc_compose, map(mc_of_item, fact.items), mc_from_braid((), n))
            got = fillings.factorization_product(fact)
            assert (got.images, got.perm, got.ledger) == (want.images, want.perm, want.ledger)

    def test_one_action_per_product(self, monkeypatch):
        calls = []

        def counted(word, n, ledger=None):
            calls.append(word)
            return mc_from_braid(word, n, ledger)

        monkeypatch.setattr(fillings, "mc_from_braid", counted)
        rng = random.Random(78)
        fact = Factorization(4, tuple(rand_item(rng, 4) for _ in range(5)))
        fillings.factorization_product(fact)
        assert len(calls) == 1
        assert reduce_word(calls[0]) == reduce_word(
            tuple(a for item in fact.items for a in mcg.item_word(item)))


class TestActionWord:
    """``_action_word`` against the rule written out without its shortcuts
    (``reference_action_word``), and against what the rule promises."""

    def test_random_words(self):
        written = 0
        for n, word in signed_words(82, 3000):
            got = mcg._action_word(word, n)
            assert got == reference_action_word(word, n), (word, n)
            written += got != reduce_word(word)
        assert written > 200, written

    def test_ladder_words(self):
        for core in (R, (1, 1), (-1, -1)):
            for k in range(9):
                word = P * k + core + inverse_word(P) * k
                for w in (word, inverse_word(word), (2,) + word, word + (-1, 2)):
                    assert mcg._action_word(w, 3) == reference_action_word(w, 3), w

    def test_returns_the_shorter_word(self):
        # independent of how the word is chosen: the same braid, as long as
        # the shorter of the reduced word and the reduced normal-form word,
        # and the reduced word itself on a tie
        rng = random.Random(83)
        cases = [(n, word) for n, word in signed_words(83, 1500) if n <= 5]
        cases += [(3, P * k + core + inverse_word(P) * k) for core in (R, (1, 1), (-1, -1)) for k in range(9)]
        cases += [(40, (-1, 39, -1, 39) + P * k + R + inverse_word(P) * k) for k in range(0, 9, 2)]
        cases += [(40, with_trivial_inserts(rng, rand_word(rng, 40, 12), 40, 2)) for _ in range(20)]
        kept = {True: 0, False: 0}
        for n, word in cases:
            got = mcg._action_word(word, n)
            raw, nf = reduce_word(word), reduce_word(normal_form_word(word, n))
            assert braid_equal(got, word, n), (word, n)
            assert len(got) == min(len(raw), len(nf)), (word, n)
            if len(raw) <= len(nf):
                assert got == raw, (word, n)
            kept[got == raw] += 1
        assert min(kept.values()) > 100, kept


def ladder_factorization(k, core):
    """Vanishing data of the two-cusp layout whose middle braid slot is
    P^k core P^-k."""
    events = ["T(1)", "T(3)"] + ["F(2)", "F(3)"] * 3 + ["I(2..3)"] * 3 + ["I(1..4)"]
    braids = ["1"] * (len(events) + 1)
    slot = P * k + core + inverse_word(P) * k
    braids[len(events) // 2] = " ".join(f"s{abs(a)}" + ("'" if a < 0 else "") for a in slot)
    seq = ", ".join(x for pair in zip(braids, events + [""]) for x in pair if x)
    return vanishing_data(parse_wire(f"strands 4\ncomponents A=1,2 B=3,4\nseq: {seq}\n"))


class TestCanonicalCurves:
    """``canonical_curves`` against ``reference_canonical_curve`` per item."""

    def test_ladder_rungs(self):
        rungs = [(k, R) for k in range(9)] + [(k, (1, 1)) for k in range(3)]
        for k, core in rungs:
            items = ladder_factorization(k, core).items
            assert canonical_curves(items) == [reference_canonical_curve(c) for c in items], (k, core)

    def test_generic_arrangements(self):
        for m in range(1, 17):
            items = vanishing_data(arrangement(m)).items
            assert canonical_curves(items) == [reference_canonical_curve(c) for c in items], m

    def test_random_factorizations_in_order_and_shuffled(self, monkeypatch):
        built = []

        def counted(b, n):
            built.append(b)
            return table(b, n)

        table = mcg._image_table
        monkeypatch.setattr(mcg, "_image_table", counted)
        rng = random.Random(84)
        later = {"in order": 0, "shuffled": 0}  # tables rebuilt past the first item
        for _ in range(500):
            items = vanishing_data(rand_diagram(rng, max_n=6, max_events=10)).items
            for tag, its in (("in order", items), ("shuffled", rng.sample(items, len(items)))):
                want = [reference_canonical_curve(c) for c in its]
                del built[:]
                assert canonical_curves(its) == want, its
                later[tag] += max(len(built) - 1, 0)
        assert later["shuffled"] > 200, later

    def test_items_over_different_hole_counts(self):
        rng = random.Random(85)
        items = [rand_item(rng, rng.randint(2, 5)) for _ in range(300)]
        assert canonical_curves(items) == [reference_canonical_curve(c) for c in items]

    def test_a_trivial_braid_in_a_step_is_not_walked(self, monkeypatch):
        # the step between the two conjugators is P^12 R^-1 P^-12, trivial;
        # walked letter by letter its images pass 150,000 letters
        walked = []

        def watched(img, inv, b):
            walked.append(b)
            extend(img, inv, b)

        extend = mcg._extend_table
        monkeypatch.setattr(mcg, "_extend_table", watched)
        g = P * 12 + R + inverse_word(P) * 12 + (2,)
        items = [HoleCurve(3, (2,), 1, 1), HoleCurve(3, g, 1, 1), HoleArc(3, g, 2)]
        want = [reference_canonical_curve(c) for c in items]
        del walked[:]
        assert canonical_curves(items) == want
        assert walked == [(-2,), (), ()]  # one table for (2,)^-1, then two empty steps


class TestCyclicCanonical:
    """``cyclic_canonical`` builds only the rotations that start with the
    least letter; the least of all rotations is the oracle."""

    def test_random_words(self):
        rng = random.Random(93)
        for _ in range(3000):
            n = rng.randint(1, 4)
            w = tuple(rng.choice([1, -1]) * rng.randint(1, n) for _ in range(rng.randint(0, 14)))
            r = mcg.cyclic_reduce(w)
            want = min((r[i:] + r[:i] for i in range(len(r))), default=r)
            assert cyclic_canonical(w) == want, w
