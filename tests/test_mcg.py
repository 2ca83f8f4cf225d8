import random

import pytest

from sandwich.errors import RangeError, StrandMismatchError
from sandwich.mcg import (
    Factorization,
    HoleArc,
    HoleCurve,
    Item,
    MappingClass,
    artin_act,
    braid_equal,
    braid_permutation,
    canonical_curve,
    curve_holes,
    cyclic_canonical,
    exponent_sum,
    half_twist,
    inverse_word,
    item_offset,
    item_word,
    mc_compose,
    mc_from_braid,
    mc_of_item,
    reduce_word,
)

from fixtures import rand_word
from hurwitz import (
    act_on_curve,
    canonical_factorization,
    conjugate_item,
    hurwitz_move,
    mc_equal,
    perm_inverse,
)


def rand_item(rng, n):
    kind = rng.choice(["cycle", "cycle", "arc", "free"])
    g = rand_word(rng, n, rng.randint(0, 4))
    if kind == "arc":
        return HoleArc(n, g, rng.randint(1, n - 1))
    if kind == "free":
        return HoleCurve(n, g, rng.randint(1, n), 0)
    j = rng.randint(1, n - 1)
    k = rng.randint(1, n - j)
    return HoleCurve(n, g, j, k)


def boundary_twists(n, offset):
    """Boundary twists only: the identity braid class with ledger ``offset``."""
    ident = mc_from_braid((), n)
    return MappingClass(n, ident.images, ident.perm, tuple(offset)) if offset else ident


def half_boundary_twist(h, n):
    """Half twist on one boundary hole: identity braid class, ledger +1."""
    if not 1 <= h <= n:
        raise RangeError(f"hole {h} outside 1..{n}")
    off = [0] * (n + 1)
    off[h - 1] = 1
    return boundary_twists(n, tuple(off))


def mc_of_braid_offset(word, offset, n):
    return mc_compose(mc_from_braid(word, n), boundary_twists(n, offset))


class TestWords:
    def test_reduce(self):
        assert reduce_word((1, 2, -2, -1, 3)) == (3,)
        assert reduce_word(()) == ()

    def test_inverse(self):
        assert inverse_word((1, -2, 3)) == (-3, 2, -1)
        assert reduce_word((1, -2) + inverse_word((1, -2))) == ()

    def test_zero_letter_rejected(self):
        with pytest.raises(RangeError):
            reduce_word((0,))


class TestArtinAction:
    def test_defining_convention(self):
        # sigma_1 on x_1, x_2 (n=2)
        assert artin_act((1,), (1,), 2) == (1, 2, -1)
        assert artin_act((1,), (2,), 2) == (1,)
        assert artin_act((-1,), (1,), 2) == (2,)
        assert artin_act((-1,), (2,), 2) == (-2, 1, 2)

    def test_braid_relation(self):
        for g in (1, 2, 3):
            assert artin_act((1, 2, 1), (g,), 3) == artin_act((2, 1, 2), (g,), 3)

    def test_sigma1_squared(self):
        # (x1 x2) x1 (x1 x2)^{-1}
        assert artin_act((1, 1), (1,), 2) == (1, 2, 1, -2, -1)

    def test_automorphism_roundtrip(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(2, 5)
            b = rand_word(rng, n, rng.randint(0, 6))
            w = tuple(rng.choice([1, -1]) * rng.randint(1, n) for _ in range(rng.randint(0, 6)))
            assert artin_act(b, artin_act(inverse_word(b), w, n), n) == reduce_word(w)

    def test_concatenation(self):
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randint(2, 5)
            a = rand_word(rng, n, 3)
            b = rand_word(rng, n, 3)
            w = (rng.randint(1, n),)
            assert artin_act(a + b, w, n) == artin_act(a, artin_act(b, w, n), n)

    def test_strand_mismatch(self):
        with pytest.raises(RangeError, match="braid letter 3 outside strand range 1..1"):
            artin_act((3,), (1,), 2)
        with pytest.raises(RangeError, match="free-group letter 3 out of range for 2 holes"):
            artin_act((1,), (3,), 2)

    def test_hole_count_mismatch(self):
        # only objects over different hole counts are a strand mismatch
        with pytest.raises(StrandMismatchError, match="mapping classes over different hole counts"):
            mc_compose(mc_from_braid((), 2), mc_from_braid((), 3))
        with pytest.raises(StrandMismatchError, match="factorization item over a different hole count"):
            Factorization(3, (HoleCurve(2, ()),))

    def test_cancelling_letters_still_checked(self):
        with pytest.raises(RangeError, match="braid letter 3 outside strand range 1..1"):
            HoleCurve(2, (3, -3))
        with pytest.raises(RangeError):
            HoleArc(2, (1, 2, -2))

    def test_permutation_matches_action(self):
        # image of x_h is a conjugate of x_{perm[h]}
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(2, 5)
            b = rand_word(rng, n, rng.randint(0, 6))
            perm = braid_permutation(b, n)
            for h in range(1, n + 1):
                w = cyclic_canonical(artin_act(b, (h,), n))
                assert w == (perm[h - 1],)


class TestBraidEqual:
    def test_relation(self):
        assert braid_equal((1, 2, 1), (2, 1, 2), 3)

    def test_nontrivial(self):
        assert not braid_equal((1,), (), 2)

    def test_distant_commute(self):
        assert braid_equal((1, 3), (3, 1), 4)


class TestHalfTwist:
    def test_small(self):
        assert half_twist(1, 2) == (1,)
        assert half_twist(3, 3) == ()
        assert half_twist(1, 3) == (1, 2, 1)
        assert braid_equal(half_twist(1, 3), (2, 1, 2), 3)

    def test_square_fixes_enclosing_class(self):
        for (j, k, n) in [(1, 3, 3), (2, 4, 5), (1, 2, 4)]:
            c = HoleCurve(n, (), j, k - j)
            d = half_twist(j, k)
            assert canonical_curve(act_on_curve(d + d, c)) == canonical_curve(c)

    def test_permutation_reverses(self):
        assert braid_permutation(half_twist(1, 4), 4) == (4, 3, 2, 1)

    def test_range(self):
        with pytest.raises(RangeError):
            half_twist(3, 2)


class TestCurves:
    def test_convex_canonical(self):
        assert canonical_curve(HoleCurve(4, (), 2, 2)) == (2, 3, 4)

    def test_act_convex_fixed(self):
        c = HoleCurve(2, (), 1, 1)
        assert canonical_curve(act_on_curve((1,), c)) == (1, 2)

    def test_act_moves_hole(self):
        c = HoleCurve(2, (), 2, 0)
        assert canonical_curve(act_on_curve((1,), c)) == (1,)

    def test_act_three_strands(self):
        c = HoleCurve(3, (), 2, 1)
        assert canonical_curve(act_on_curve((1,), c)) == (1, 3)

    def test_exponent_sums_invariant(self):
        rng = random.Random(10)
        for _ in range(60):
            n = rng.randint(2, 5)
            item = rand_item(rng, n)
            word = canonical_curve(item)
            sums = {}
            for a in word:
                sums[abs(a)] = sums.get(abs(a), 0) + (1 if a > 0 else -1)
            assert set(sums.values()) <= {0, 1}
            b = rand_word(rng, n, 4)
            holes = curve_holes(item)
            perm = braid_permutation(b, n)
            assert curve_holes(act_on_curve(b, item)) == frozenset(perm[h - 1] for h in holes)

    def test_bad_base(self):
        with pytest.raises(RangeError):
            HoleCurve(3, (), 2, 2)

    def test_twists_hold_one_entry_per_hole_and_the_outer_one(self):
        assert HoleCurve(3, (), 1, 1).twists == (0, 0, 0, 0)
        assert HoleArc(3, (), 2).twists == (0, 0, 0, 0)
        assert HoleArc(2, (), 1, [1, 0, -1]).twists == (1, 0, -1)
        for twists in ((), (0, 0), (0, 1), (0, 0, 0, 0)):
            with pytest.raises(RangeError, match="one entry per hole plus the outer entry"):
                HoleCurve(2, (), 1, 0, twists)


class TestItem:
    ZERO = (0, 0, 0, 0)

    @pytest.mark.parametrize("fields, message", [
        ((3, "loop", (), 1, 0, ZERO), "no item of kind 'loop' and span 0"),
        ((3, "arc", (), 1, 2, ZERO), "no item of kind 'arc' and span 2"),
        ((3, "arc", (), 1, 0, ZERO), "no item of kind 'arc' and span 0"),
        ((3, "cycle", (), 2, 2, ZERO), "curve base [2, 4] outside 1..3"),
        ((3, "cycle", (), 0, 1, ZERO), "curve base [0, 1] outside 1..3"),
        ((3, "cycle", (), 1, -1, ZERO), "curve base [1, 0] outside 1..3"),
        ((3, "arc", (), 3, 1, ZERO), "arc base (3, 4) outside 1..3"),
        ((3, "arc", (), 0, 1, ZERO), "arc base (0, 1) outside 1..3"),
        ((3, "cycle", (), 1, 0, (0, 0, 0)), "twists vector must have one entry per hole plus the outer entry"),
        ((3, "arc", (), 1, 1, (0, 0, 0, 0, 0)), "twists vector must have one entry per hole plus the outer entry"),
    ])
    def test_record_rejects_a_kind_base_or_twists_that_do_not_fit(self, fields, message):
        with pytest.raises(RangeError) as exc:
            Item(*fields)
        assert exc.value.message == message

    def test_record_trusts_its_conjugator(self):
        # the O(length) check is the constructors' job, not the record's
        assert Item(3, "cycle", (1, -1, 5), 1, 0, self.ZERO).conjugator == (1, -1, 5)

    @pytest.mark.parametrize("make", [
        lambda g: HoleCurve(3, g, 1, 1),
        lambda g: HoleArc(3, g, 2),
    ], ids=["HoleCurve", "HoleArc"])
    def test_constructors_check_the_letters_and_reduce(self, make):
        for letter in (0, 3, -3):
            with pytest.raises(RangeError) as exc:
                make((1, letter))
            assert exc.value.message == f"braid letter {letter} outside strand range 1..2"
        assert make((1, -1)).conjugator == ()
        assert make((2, 1, -1)).conjugator == (2,)

    def test_constructors_build_the_record(self):
        assert HoleCurve(3, (2, -1, 1), 1, 2) == Item(3, "cycle", (2,), 1, 2, self.ZERO)
        assert HoleCurve(3) == Item(3, "cycle", (), 1, 0, self.ZERO)
        assert HoleArc(3, (1,), 2, [1, 0, 0, -1]) == Item(3, "arc", (1,), 2, 1, (1, 0, 0, -1))
        assert HoleArc(3).base_word == (1, 2)
        assert HoleCurve(4, (), 2, 2).base_word == (2, 3, 4)

    def test_constructors_check_the_base_then_the_letters_then_the_twists(self):
        with pytest.raises(RangeError, match=r"curve base \[3, 4\] outside 1..3"):
            HoleCurve(3, (5,), 3, 1, (0,))
        with pytest.raises(RangeError, match=r"arc base \(3, 4\) outside 1..3"):
            HoleArc(3, (5,), 3, (0,))
        with pytest.raises(RangeError, match="braid letter 5 outside strand range 1..2"):
            HoleArc(3, (5,), 1, (0,))


class TestMappingClasses:
    def test_twist_convex_pair(self):
        t = mc_of_item(HoleCurve(2, (), 1, 1))
        assert mc_equal(t, mc_from_braid((1, 1), 2))
        assert t.ledger == (0, 0, 0)

    def test_interchange_is_half_twist(self):
        m = mc_of_item(HoleArc(2, (), 1))
        assert mc_equal(m, mc_from_braid((1,), 2))

    def test_boundary_parallel(self):
        t = mc_of_item(HoleCurve(3, (), 2, 0))
        assert t.images == ((1,), (2,), (3,))
        assert t.ledger == (0, 2, 0, 0)

    def test_inverse_composes_to_identity(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(2, 5)
            b = rand_word(rng, n, 5)
            f = mc_from_braid(b, n)
            g = mc_from_braid(inverse_word(b), n)
            assert mc_equal(mc_compose(f, g), mc_from_braid((), n))

    def test_conjugation_identity(self):
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(2, 5)
            b = rand_word(rng, n, rng.randint(0, 5))
            item = rand_item(rng, n)
            lhs = mc_of_item(act_on_curve(b, item))
            phi = mc_from_braid(b, n)
            phi_inv = mc_from_braid(inverse_word(b), n)
            rhs = mc_compose(phi, mc_compose(mc_of_item(item), phi_inv))
            assert mc_equal(lhs, rhs)

    def test_ledger_addition(self):
        two = mc_compose(half_boundary_twist(1, 3), half_boundary_twist(1, 3))
        assert mc_equal(two, mc_of_item(HoleCurve(3, (), 1, 0)))

    def test_lengths_checked_at_construction(self):
        for ledger in ([1], ()):
            with pytest.raises(RangeError):
                mc_from_braid((), 3, ledger=ledger)
        ident = mc_from_braid((), 3)
        for bad in ((3, ident.images[:2], ident.perm, ident.ledger),
                    (3, ident.images, ident.perm + (4,), ident.ledger),
                    (3, ident.images, ident.perm, ident.ledger + (0,)),
                    (2, ident.images, ident.perm, ident.ledger)):
            with pytest.raises(RangeError):
                MappingClass(*bad)
        with pytest.raises(RangeError):
            boundary_twists(3, (1, 0))

    def test_ledger_transport(self):
        # interchange moves hole 1 to 2, so a later twist at 1 lands at 2
        t1 = half_boundary_twist(1, 2)
        swap = mc_from_braid((1,), 2)
        assert mc_compose(t1, swap).ledger == (0, 1, 0)
        assert mc_compose(swap, t1).ledger == (1, 0, 0)


class TestConjugateItem:
    def test_matches_mapping_class_conjugation(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(2, 5)
            x = rand_item(rng, n)
            y = rand_item(rng, n)
            z = conjugate_item(item_word(x), item_offset(x), y)
            mx = mc_of_item(x)
            w = item_word(x)
            off = item_offset(x)
            p = braid_permutation(w, n)
            moved = [0] * (n + 1)
            for h in range(1, n + 1):
                moved[p[h - 1] - 1] = off[h - 1]
            moved[n] = off[n]
            inv_off = tuple(-v for v in moved)
            mx_inv = mc_of_braid_offset(inverse_word(w), inv_off, n)
            assert mc_equal(mc_of_item(z), mc_compose(mx, mc_compose(mc_of_item(y), mx_inv)))

    def test_offset_of_the_wrong_length(self):
        c = HoleCurve(3, (1,), 1, 1)
        for offset in ((), (0, 0, 0), (0, 1, 0, 0, 0)):
            with pytest.raises(RangeError, match="one entry per hole plus the outer entry"):
                conjugate_item((2,), offset, c)


class TestHurwitz:
    def test_disjoint_free_cycles_swap(self):
        fact = Factorization(3, (HoleCurve(3, (), 1, 0), HoleCurve(3, (), 3, 0)))
        moved = hurwitz_move(fact, 1)
        assert canonical_factorization(moved) == tuple(reversed(canonical_factorization(fact)))

    def test_disjoint_convex_cycles_swap(self):
        fact = Factorization(4, (HoleCurve(4, (), 1, 1), HoleCurve(4, (), 3, 1)))
        moved = hurwitz_move(fact, 1)
        assert set(canonical_factorization(moved)) == set(canonical_factorization(fact))

    def test_forward_then_backward(self):
        rng = random.Random(14)
        for _ in range(40):
            n = rng.randint(2, 5)
            items = tuple(rand_item(rng, n) for _ in range(rng.randint(2, 5)))
            fact = Factorization(n, items)
            i = rng.randint(1, len(items) - 1)
            assert hurwitz_move(hurwitz_move(fact, i, "forward"), i, "backward") == fact
            assert hurwitz_move(hurwitz_move(fact, i, "backward"), i, "forward") == fact

    def test_adjacent_cycles_example(self):
        # cycles {1,2} then {2,3}: forward move conjugates the second by
        # the first twist, giving the class of sigma_1^2 applied to x2 x3
        fact = Factorization(3, (HoleCurve(3, (), 1, 1), HoleCurve(3, (), 2, 1)))
        moved = hurwitz_move(fact, 1)
        expected = cyclic_canonical(artin_act((1, 1), (2, 3), 3))
        assert canonical_curve(moved.items[0]) == expected
        assert expected == (-1, 3, 1, 2)
        assert moved.items[1] == fact.items[0]

    def test_index_range(self):
        fact = Factorization(2, (HoleCurve(2, (), 1, 1),))
        with pytest.raises(RangeError):
            hurwitz_move(fact, 1)


def test_exponent_sum():
    assert exponent_sum((1, -2, 3, -3)) == 0
    assert exponent_sum((1, 1, 2)) == 3


def test_perm_inverse():
    assert perm_inverse((2, 3, 1)) == (3, 1, 2)
