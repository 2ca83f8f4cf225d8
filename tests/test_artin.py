"""The Artin action by image tables, checked against the letter-by-letter
walk and the substitution it replaced."""

import random

from sandwich.fillings import factorization_product
from sandwich.mcg import (
    _action_word,
    _check_free_word,
    _image_table,
    _join,
    _substitute,
    artin_act,
    check_braid_word,
    inverse_word,
    item_word,
    mc_compose,
    mc_from_braid,
    reduce_word,
)
from sandwich.wiring import parse_wire, vanishing_data

from fixtures import rand_word

# ---------------------------------------------------------------------------
# the action the image tables replaced, kept as an oracle


def reference_act_letter(letter, w):
    i = abs(letter)
    out = []
    for a in w:
        g = abs(a)
        if letter > 0:
            if g == i:
                img = (i, i + 1, -i)
            elif g == i + 1:
                img = (i,)
            else:
                img = (g,)
        else:
            if g == i:
                img = (i + 1,)
            elif g == i + 1:
                img = (-(i + 1), i, i + 1)
            else:
                img = (g,)
        if a < 0:
            img = tuple(-x for x in reversed(img))
        for x in img:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return tuple(out)


def reference_artin_act(b, w, n=None):
    """One walk over the whole word per braid letter, rightmost first."""
    if n is not None:
        check_braid_word(b, n)
        _check_free_word(w, n)
    w = reduce_word(w)
    for letter in reversed(b):
        w = reference_act_letter(letter, w)
    return w


def reference_subst(word, images):
    out = []
    for a in word:
        img = images[abs(a) - 1] if a > 0 else inverse_word(images[abs(a) - 1])
        for x in img:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return tuple(out)


def rand_free(rng, n, length):
    return tuple(rng.choice([1, -1]) * rng.randint(1, n) for _ in range(length))


def reference_images(b, n):
    return tuple(reference_artin_act(b, (g,)) for g in range(1, n + 1))


# ---------------------------------------------------------------------------
# random words


def test_random_words_match_the_walk():
    rng = random.Random(12)
    for _ in range(5000):
        n = rng.randint(1, 7)
        b = rand_word(rng, n, rng.randint(0, 14))
        w = rand_free(rng, n, rng.randint(0, 14))
        assert artin_act(b, w, n) == reference_artin_act(b, w, n)
        f = mc_from_braid(b, n)
        assert f.images == reference_images(b, n)
        g = mc_from_braid(rand_word(rng, n, rng.randint(0, 14)), n)
        assert mc_compose(f, g).images == tuple(reference_subst(w, f.images) for w in g.images)


def test_random_substitution_of_unreduced_words():
    rng = random.Random(13)
    for _ in range(2000):
        n = rng.randint(1, 7)
        img, inv = _image_table(rand_word(rng, n, rng.randint(0, 14)), n)
        w = rand_free(rng, n, rng.randint(0, 14))
        w = w + inverse_word(w[: rng.randint(0, len(w))]) + w
        assert _substitute(w, img, inv) == reference_subst(w, img[1:])


# ---------------------------------------------------------------------------
# edge cases


def test_empty_braid_and_empty_word():
    assert artin_act((), (), 3) == ()
    assert artin_act((), (2, -3, 3, 1), 3) == (2, 1)
    assert artin_act((1, -2, 2), (), 3) == ()
    assert artin_act((), (), 1) == ()
    assert _image_table((), 3) == ([(), (1,), (2,), (3,)], [(), (-1,), (-2,), (-3,)])
    assert mc_from_braid((), 3).images == ((1,), (2,), (3,))
    assert _substitute((), *_image_table((1,), 2)) == ()


def test_letters_above_the_braid_range_are_fixed():
    # n covers the word's letters, past the strands the braid moves
    for b, w, n in [((1,), (5,), 5), ((1, -2), (7, -3, 6, 1), 7), ((2, 2, -1), (-4, 4, 3, 9), 9)]:
        assert artin_act(b, w, n) == reference_artin_act(b, w, n)
    assert artin_act((1, 2), (9, -9, 8), 9) == (8,)


def test_a_braid_times_its_inverse_cancels_completely():
    rng = random.Random(14)
    for n in (3, 5, 7):
        b = rand_word(rng, n, 20) + (1, -2) * 8
        assert max(map(len, _image_table(b, n)[0])) > 1000  # so the cancellations are long
        assert _image_table(b + inverse_word(b), n) == _image_table((), n)
        w = rand_free(rng, n, 10)
        assert artin_act(b + inverse_word(b), w, n) == reduce_word(w)


def test_join_matches_free_reduction():
    rng = random.Random(15)
    for _ in range(3000):
        u = reduce_word(rand_free(rng, 4, rng.randint(0, 60)))
        tail = reduce_word(rand_free(rng, 4, rng.randint(0, 30)))
        # v starts by undoing a suffix of u of any length, up to all of it
        v = reduce_word(inverse_word(u[len(u) - rng.randint(0, len(u)):]) + tail)
        uv, uv_inv = _join(u, inverse_word(u), v, inverse_word(v))
        assert uv == reduce_word(u + v)
        assert uv_inv == inverse_word(uv)


def test_unequal_ladder_braid_at_k_2():
    """The middle braid slot P^2 s1^2 P^-2 (P = s1 s2^-1) of the two-cusp
    layout: the product's longest image has 102,393 letters."""
    events = ["T(1)", "T(3)"] + ["F(2)", "F(3)"] * 3 + ["I(2..3)"] * 3 + ["I(1..4)"]
    braids = ["1"] * (len(events) + 1)
    braids[len(events) // 2] = "s1 s2' s1 s2' s1 s1 s2 s1' s2 s1'"
    seq = ", ".join(x for pair in zip(braids, events + [""]) for x in pair if x)
    fact = vanishing_data(parse_wire(f"strands 4\ncomponents A=1,2 B=3,4\nseq: {seq}\n"))
    mc = factorization_product(fact)
    word = tuple(a for item in fact.items for a in item_word(item))
    assert mc.images == reference_images(_action_word(word, 4), 4)
    assert max(map(len, mc.images)) == 102393
    swap = mc_from_braid((1, -3), 4)
    assert mc_compose(swap, mc).images == tuple(reference_subst(w, swap.images) for w in mc.images)
    assert mc_compose(mc, swap).images == tuple(reference_subst(w, mc.images) for w in swap.images)
