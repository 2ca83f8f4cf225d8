"""Braid words, the Artin action on a free group, curves and arcs on a
disk with holes, mapping classes with a boundary-twist ledger, and
factorizations into curve and arc items.

Conventions used throughout the package:

- A word (free-group word or braid word) is a tuple of nonzero ints.
  Letter ``i > 0`` is the i-th generator (``x_i`` for free words, ``s_i``
  for braid words) and ``-i`` its inverse.  Compositions read right to
  left: the rightmost letter acts first.
- Hole indices are the 1-based strand positions at the start of a diagram,
  numbered bottom to top.
- A curve (or arc) is stored as a conjugating braid ``g`` plus a convex
  base; the object denoted is ``g^{-1}`` applied to the base.  Braid words
  are kept literal (only adjacent ``s s'`` pairs cancel).
- Vanishing items, arcs and cycles alike, are one record, ``Item``, told
  apart by its ``kind``.  The record checks only its kind, base and twist
  count.  Conjugators are checked and reduced once, at the boundary:
  ``HoleCurve`` and ``HoleArc`` do it for a conjugator read from outside,
  while ``wiring.vanishing_data`` builds its conjugators reduced and in
  range and so builds its items as records directly.
- Equality of braids is decided by the exponent sum plus the Dynnikov
  coordinates of a fixed lamination (``dynnikov_coordinates``; Dehornoy,
  Dynnikov, Rolfsen and Wiest, *Ordering Braids*, ch. XII): one pass over
  each word, four integers changed per letter, entries a few bits longer
  per letter as Python ints.  Neither the Artin action nor a normal form
  is computed for it, and only the middles left once the two words' common
  prefix and suffix are dropped are walked.
- The Garside left normal form (``normal_form``) only chooses the word the
  action runs on: the action (curves, mapping classes) runs on the shorter
  of a word and its written normal-form word, the word itself on a tie;
  both are the same braid, so the reduced images are the same
  (``_action_word``).  Two kinds of word are kept without a normal form,
  since none can be shorter: a word of one sign, and a two-letter word.
  The one thing kept between calls is a bounded memo of left-weighted
  pairs of simple elements (``_left_weight``), which never changes a
  result.
- The Artin action goes through an image table: the reduced images of
  x_1..x_n and their inverses, built by reading the braid word left to
  right.  Each letter replaces two images by reduced products, whose
  cancellation is found by comparing tuple slices.  A free word's image is
  its letters' images joined the same way.  The canonical words of a list
  of items (``canonical_curves``) come from one running table, extended
  from each item's conjugator to the next by the step between them.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import RangeError, StrandMismatchError
from .records import frozen

Word = tuple[int, ...]


# ---------------------------------------------------------------------------
# words


def reduce_word(letters) -> Word:
    """Freely reduce: cancel adjacent ``i, -i`` pairs (valid for braid
    words too, where such pairs are trivial relators)."""
    out: list[int] = []
    for a in letters:
        if a == 0:
            raise RangeError("word letters must be nonzero")
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def inverse_word(w) -> Word:
    return tuple(-a for a in reversed(w))


def exponent_sum(w) -> int:
    return sum(1 if a > 0 else -1 for a in w)


def check_braid_word(w: Word, n: int) -> Word:
    """``w``, once every letter lies in 1..n-1 (else ``RangeError``); callers
    check before reducing, so that no out-of-range pair cancels away unseen."""
    for a in w:
        if not 1 <= abs(a) <= n - 1:
            raise RangeError(f"braid letter {a} outside strand range 1..{n - 1}")
    return w


def _check_free_word(w: Word, n: int) -> None:
    for a in w:
        if not 1 <= abs(a) <= n:
            raise RangeError(f"free-group letter {a} out of range for {n} holes")


# ---------------------------------------------------------------------------
# Artin action

# sigma_i: x_i -> x_i x_{i+1} x_i^{-1}, x_{i+1} -> x_i, others fixed.
# sigma_i^{-1}: x_i -> x_{i+1}, x_{i+1} -> x_{i+1}^{-1} x_i x_{i+1}.


def _common_suffix(u: Word, v: Word) -> int:
    """Length of the longest common suffix of ``u`` and ``v``: galloping,
    then bisection, each step comparing only the slices past the suffix
    known to be common, so at most about three times the answer's letters
    are compared."""
    if not u or not v or u[-1] != v[-1]:
        return 0
    top = min(len(u), len(v))
    lo, hi = 1, 2  # a common suffix of length lo; none of length hi, if hi <= top
    while hi <= top and u[-hi:-lo] == v[-hi:-lo]:
        lo, hi = hi, 2 * hi
    hi = min(hi, top + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if u[-mid:-lo] == v[-mid:-lo]:
            lo = mid
        else:
            hi = mid
    return lo


def _join(u: Word, ui: Word, v: Word, vi: Word) -> tuple[Word, Word]:
    """The reduced product ``u v`` and its inverse, for reduced ``u`` and
    ``v`` with inverses ``ui`` and ``vi``.  The letters that cancel are the
    longest common suffix of ``u`` and ``vi``."""
    if not u or not v or u[-1] != vi[-1]:
        return u + v, vi + ui
    k = _common_suffix(u, vi)
    return u[: len(u) - k] + v[k:], vi[: len(vi) - k] + ui[k:]


def _extend_table(img: list[Word], inv: list[Word], b: Word) -> None:
    """Append the braid word ``b`` to the braid whose image table is
    ``img``/``inv``, in place.  Appending s_i substitutes sigma_i into the
    images: x_i gets T(x_i) T(x_{i+1}) T(x_i)^{-1} and x_{i+1} gets T(x_i).
    Appending s_i^{-1} instead gives x_i the image T(x_{i+1}) and x_{i+1}
    the image T(x_{i+1})^{-1} T(x_i) T(x_{i+1})."""
    for a in b:
        i = abs(a)
        j = i + 1
        x, xi, y, yi = img[i], inv[i], img[j], inv[j]
        if a > 0:
            u, ui = _join(x, xi, y, yi)
            img[i], inv[i] = _join(u, ui, xi, x)
            img[j], inv[j] = x, xi
        else:
            u, ui = _join(yi, y, x, xi)
            img[j], inv[j] = _join(u, ui, y, yi)
            img[i], inv[i] = y, yi


def _image_table(b: Word, n: int) -> tuple[list[Word], list[Word]]:
    """Images of x_1..x_n under the braid ``b`` and their inverses, as two
    lists indexed by generator (entry 0 unused), read off ``b`` left to
    right from the identity table."""
    img = [()] + [(g,) for g in range(1, n + 1)]
    inv = [()] + [(-g,) for g in range(1, n + 1)]
    _extend_table(img, inv, b)
    return img, inv


def _substitute(w: Word, img: list[Word], inv: list[Word]) -> Word:
    """Reduced image of the word ``w`` under the table: the letter images
    are joined pairwise in rounds, about log2 len(w) of them, rather than
    onto one growing prefix."""
    parts = [(img[a], inv[a]) if a > 0 else (inv[-a], img[-a]) for a in w]
    while len(parts) > 1:
        parts = [_join(*u, *v) for u, v in zip(parts[::2], parts[1::2])] + parts[len(parts) & ~1:]
    return parts[0][0] if parts else ()


def artin_act(b: Word, w: Word, n: int) -> Word:
    """Image of the free word ``w`` on ``n`` generators under the braid word
    ``b`` (rightmost braid letter applied first); result freely reduced.
    The partial products are the images of pieces of ``w``, so a long word
    with a short image costs as much as its pieces' images."""
    check_braid_word(b, n)
    _check_free_word(w, n)
    return _substitute(w, *_image_table(b, n))


def braid_permutation(word: Word, n: int) -> tuple[int, ...]:
    """perm[s-1] = final position of the strand starting at position s."""
    check_braid_word(word, n)
    strand_at = list(range(n + 1))  # strand_at[p] = strand currently at position p
    for letter in reversed(word):
        i = abs(letter)
        strand_at[i], strand_at[i + 1] = strand_at[i + 1], strand_at[i]
    perm = [0] * (n + 1)
    for p in range(1, n + 1):
        perm[strand_at[p]] = p
    return tuple(perm[1:])


def perm_identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def perm_compose(p, q):
    """(p after q): h -> p[q[h]]."""
    return tuple(p[q[h] - 1] for h in range(len(q)))


# ---------------------------------------------------------------------------
# Garside normal form
#
# A simple element (positive braid in which each pair of strands crosses at
# most once) is stored as the permutation p = s_{a1} o ... o s_{ak} (values
# 1..n) of any of its positive words a1..ak, so concatenation is composition.
# Delta, the positive half twist on all strands, is the reversal, and
# tau(A) = Delta^{-1} A Delta sends s_i to s_{n-i}.


def _swap(p, i: int) -> tuple[int, ...]:
    """p o s_i: entries i-1 and i of p exchanged."""
    q = list(p)
    q[i - 1], q[i] = q[i], q[i - 1]
    return tuple(q)


def _tau(p) -> tuple[int, ...]:
    n = len(p)
    return tuple(n + 1 - p[n - 1 - j] for j in range(n))


@lru_cache(maxsize=4096)
def _left_weight(a, b):
    """The left-weighted pair (a', b') with a'b' = ab: a letter s_i moves
    from the front of b to the end of a while b can start with it (value i
    sits right of value i+1 in b) and a cannot end with it (no descent at
    i).  The result does not depend on the order of the moves.

    One memo for the process, bounded at 4,096 pairs so that it stays near
    2 MB (2.1 MB full on 5 strands, 2.3 MB on 7) while every pair on up to
    4 strands, 576 of them, fits."""
    a, b = list(a), list(b)
    pos = [0] * (len(b) + 1)  # pos[v]: index of value v in b
    for p, v in enumerate(b):
        pos[v] = p
    i = 1
    while i < len(a):
        p, q = pos[i], pos[i + 1]
        if p > q and a[i - 1] < a[i]:
            a[i - 1], a[i] = a[i], a[i - 1]
            b[p], b[q] = i + 1, i
            pos[i], pos[i + 1] = q, p
            i = max(i - 1, 1)
        else:
            i += 1
    return tuple(a), tuple(b)


def normal_form(word: Word, n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Garside left normal form ``(inf, factors)``: the braid is
    Delta^inf A_1 ... A_k with each A_j a simple element other than Delta and
    the identity, and each pair (A_j, A_{j+1}) left-weighted.  Equal braids
    have equal normal forms.

    Letters are taken left to right.  s_i^{-1} is Delta^{-1} (Delta s_i^{-1});
    moving that Delta^{-1} to the front applies tau to every factor so far,
    which is kept as one parity instead.  Each new factor is left-weighted
    against its left neighbour, and so on leftwards until a pair is stable.
    A positive letter s_i that the last factor can end with (a descent
    at i) starts a factor of its own with no left-weighting; any other
    s_i joins the last factor, and left-weighting starts one pair further
    left.  Polynomial in the word length."""
    check_braid_word(word, n)
    ident = perm_identity(n)
    delta = ident[::-1]
    inf = 0
    flip = False  # stored factors are tau^flip of the true ones
    factors: list[tuple[int, ...]] = []
    for a in reduce_word(word):
        if a < 0:
            flip = not flip
            inf -= 1
        i = n - abs(a) if flip else abs(a)  # tau swaps s_i for s_{n-i}
        if a < 0 or not factors:
            factors.append(_swap(delta if a < 0 else ident, i))  # s_i or Delta s_i^{-1}
        elif factors[-1][i - 1] > factors[-1][i]:
            factors.append(_swap(ident, i))
            continue
        else:
            factors[-1] = _swap(factors[-1], i)
        j = len(factors) - 1
        while j:
            pair = (factors[j - 1], factors[j])
            out = _left_weight(*pair)
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
        factors = [_tau(f) for f in factors]
    return inf, tuple(factors)


def _simple_word(p) -> Word:
    """Positive word of the simple element p (a sorting of p by adjacent
    swaps, read backwards)."""
    p = list(p)
    tail: list[int] = []
    i = 1
    while i < len(p):
        if p[i - 1] > p[i]:
            p[i - 1], p[i] = p[i], p[i - 1]
            tail.append(i)
            i = max(i - 1, 1)
        else:
            i += 1
    return tuple(reversed(tail))


def _action_word(word: Word, n: int) -> Word:
    """The shorter of the freely reduced word and its reduced normal-form
    word, the word itself on a tie.  Both are the same braid, so the Artin
    action gives the same reduced images either way."""
    word = reduce_word(word)
    if len(word) == abs(exponent_sum(word)) or len(word) == 2:
        # no word for the braid is shorter than its exponent sum, and a
        # mixed pair s_i s_j^-1 (i != j) is no trivial braid, while any
        # shorter word for it would be empty (its words have even length)
        return word
    nf = _write_normal_form(*normal_form(word, n), n)
    return nf if len(nf) < len(word) else word


def _write_normal_form(inf: int, factors, n: int) -> Word:
    """The normal form Delta^inf A_1 ... A_k as a reduced braid word:
    Delta^inf, then a positive word per factor."""
    delta = half_twist(1, n) if inf >= 0 else inverse_word(half_twist(1, n))
    return reduce_word(delta * abs(inf) + tuple(a for f in factors for a in _simple_word(f)))


def dynnikov_coordinates(word: Word, n: int) -> tuple[int, ...]:
    """Dynnikov coordinates (a_1, b_1, ..., a_n, b_n) of the standard
    lamination (0, 1, ..., 0, 1) under the braid ``word``, letters read left
    to right (Dehornoy, Dynnikov, Rolfsen and Wiest, *Ordering Braids*,
    ch. XII).  The action is faithful: two words are the same braid iff
    their coordinates agree.  One pass, range-checked before any letter is
    read; entries grow by a few bits per letter, as Python ints.

    A letter changes a_i, b_i, a_{i+1}, b_{i+1} only, with x+ = max(x, 0)
    and x- = min(x, 0)::

        s_i:    t = a_i - b_i- - a_{i+1} + b_{i+1}+
                a_i' = a_i + b_i+ + (b_{i+1}+ - t)+      b_i' = b_{i+1} - t+
                a_{i+1}' = a_{i+1} + b_{i+1}- + (b_i- + t)-  b_{i+1}' = b_i + t+
        s_i^-1: t = a_i + b_i- - a_{i+1} - b_{i+1}+
                a_i' = a_i - b_i+ - (b_{i+1}+ + t)+      b_i' = b_{i+1} + t-
                a_{i+1}' = a_{i+1} - b_{i+1}- - (b_i- - t)-  b_{i+1}' = b_i - t-
    """
    check_braid_word(word, n)
    c = [0, 1] * n
    for letter in word:
        i = 2 * abs(letter) - 2
        a, b, a1, b1 = c[i:i + 4]
        bp, bm = (b, 0) if b > 0 else (0, b)
        b1p, b1m = (b1, 0) if b1 > 0 else (0, b1)
        if letter > 0:
            t = a - bm - a1 + b1p
            tp = t if t > 0 else 0
            c[i:i + 4] = (a + bp + (b1p - t if b1p > t else 0), b1 - tp,
                          a1 + b1m + (bm + t if bm + t < 0 else 0), b + tp)
        else:
            t = a + bm - a1 - b1p
            tm = t if t < 0 else 0
            c[i:i + 4] = (a - bp - (b1p + t if b1p + t > 0 else 0), b1 + tm,
                          a1 - b1m - (bm - t if bm - t < 0 else 0), b - tm)
    return tuple(c)


def braid_equal(a: Word, b: Word, n: int) -> bool:
    """Semantic equality.  Both words are range-checked whatever the
    answer; then their common prefix and suffix are dropped, since
    p x q = p y q exactly when x = y, and the two middles are compared by
    exponent sum and Dynnikov coordinates.  Equal words, whose middles are
    both empty, are equal at once."""
    # the common prefix is the common suffix of the reversed words
    i = _common_suffix(check_braid_word(a, n)[::-1], check_braid_word(b, n)[::-1])
    k = _common_suffix(a[i:], b[i:])
    a, b = a[i:len(a) - k], b[i:len(b) - k]
    return a == b or (exponent_sum(a), dynnikov_coordinates(a, n)) == (exponent_sum(b), dynnikov_coordinates(b, n))


def half_twist(j: int, k: int) -> Word:
    """Positive half twist on strands j..k; empty word when j == k."""
    if j < 1 or k < j:
        raise RangeError(f"half_twist range [{j}, {k}] invalid")
    word: list[int] = []
    for t in range(j + 1, k + 1):
        word.extend(range(t - 1, j - 1, -1))
    return tuple(word)


# ---------------------------------------------------------------------------
# curves and arcs


def cyclic_reduce(w: Word) -> Word:
    w = reduce_word(w)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


def cyclic_canonical(w: Word) -> Word:
    """Cyclically reduce, then pick the lexicographically least rotation;
    only the rotations that start with the least letter are built, since
    the least rotation starts with it."""
    w = cyclic_reduce(w)
    if not w:
        return w
    least = min(w)
    return min(w[i:] + w[:i] for i, a in enumerate(w) if a == least)


@frozen
class Item:
    """A vanishing item: g^{-1} (g the ``conjugator``) of a convex base.  An
    ``"arc"`` joins holes start and start+1 (``span`` is 1); a ``"cycle"``
    goes around holes start..start+span.

    ``twists`` is a boundary-twist offset, one entry per hole plus a final
    outer entry: extra full boundary twists composed after the core twist.
    It is zero for every item extracted from a diagram; in the package it
    is nonzero only when read from the ``twists`` of a factorization JSON.
    Items stay closed under conjugation (Hurwitz moves) only with it.

    The record checks its kind, base and twist count.  The conjugator must
    already be reduced and in range: ``HoleCurve`` and ``HoleArc`` check and
    reduce one read from outside, and ``vanishing_data`` builds it so.
    """

    n: int
    kind: str
    conjugator: Word
    start: int
    span: int
    twists: Word

    def __post_init__(self):
        _check_base(self.n, self.kind, self.start, self.span)
        if len(self.twists) != self.n + 1:
            raise RangeError("twists vector must have one entry per hole plus the outer entry")

    @property
    def base_word(self) -> Word:
        return tuple(range(self.start, self.start + self.span + 1))


def _check_base(n, kind, start, span):
    if kind != "cycle" and (kind, span) != ("arc", 1):
        raise RangeError(f"no item of kind {kind!r} and span {span}")
    if not 1 <= start <= start + span <= n:
        raise RangeError(f"arc base ({start}, {start + 1}) outside 1..{n}" if kind == "arc"
                         else f"curve base [{start}, {start + span}] outside 1..{n}")


def _checked_item(n, kind, conjugator, start, span, twists):
    # the base first, then the conjugator's letters (reduced once they are
    # known to be in range), then the twists (all zero when not given)
    _check_base(n, kind, start, span)
    conjugator = reduce_word(check_braid_word(conjugator, n))
    return Item(n, kind, conjugator, start, span, (0,) * (n + 1) if twists is None else tuple(twists))


def HoleCurve(n, conjugator=(), start=1, span=0, twists=None) -> Item:
    """The checked cycle g^{-1} of the convex curve around holes
    start..start+span."""
    return _checked_item(n, "cycle", conjugator, start, span, twists)


def HoleArc(n, conjugator=(), start=1, twists=None, span=1) -> Item:
    """The checked arc g^{-1} of the straight arc between holes start and
    start+1; any other ``span`` is refused."""
    return _checked_item(n, "arc", conjugator, start, span, twists)


def canonical_curve(c: Item) -> Word:
    """Free-homotopy canonical word: image of the base word under g^{-1},
    cyclically reduced, least rotation; ``canonical_curves`` of one item."""
    return canonical_curves((c,))[0]


def canonical_curves(items) -> list[Word]:
    """``canonical_curve`` of each item, read off one running image table.
    The table holds the images under the previous item's g_p^{-1}; since
    g^{-1} = g_p^{-1} (g_p g^{-1}), it is extended by the freely reduced
    step g_p g^{-1} when that step is no longer than g, and rebuilt for
    g^{-1} otherwise (or when the hole count changes).  Either way the
    images are the reduced images of g^{-1}, so the words are the same.
    A step, like a rebuilt conjugator, is acted with as its shorter word
    (``_action_word``): a trivial braid inside a step then costs nothing,
    where its letters could make the images exponentially long on the way."""
    out = []
    n = img = inv = None
    g_p: Word = ()
    for c in items:
        g = c.conjugator
        k = _common_suffix(g_p, g)
        step = g_p[: len(g_p) - k] + inverse_word(g[: len(g) - k])
        if c.n != n or len(step) > len(g):
            img, inv = _image_table(_action_word(inverse_word(g), c.n), c.n)
        else:
            _extend_table(img, inv, _action_word(step, c.n))
        n, g_p = c.n, g
        out.append(cyclic_canonical(_substitute(c.base_word, img, inv)))
    return out


def curve_holes(c: Item) -> frozenset[int]:
    """Holes enclosed by the curve (or joined by the arc): where g^{-1}
    carries the base holes, since the image of x_h is a conjugate of
    x_{perm[h]}."""
    perm = braid_permutation(inverse_word(c.conjugator), c.n)
    return frozenset(perm[h - 1] for h in c.base_word)


def item_word(c: Item) -> Word:
    """Braid word of the item's twist (cycle) or interchange (arc).
    Boundary-parallel cycles (span 0) have the empty word: their twist
    lives entirely in the ledger."""
    if c.span == 0:
        return ()
    g = c.conjugator
    core = half_twist(c.start, c.start + c.span)
    if c.kind == "cycle":
        core += core
    return reduce_word(inverse_word(g) + core + g)


def item_offset(c: Item) -> Word:
    """Total boundary-twist offset of the item's mapping class: the stored
    twists, plus 2 at the enclosed hole for a boundary-parallel cycle."""
    off = list(c.twists)
    if c.span == 0:  # only a cycle has span 0
        (hole,) = curve_holes(c)
        off[hole - 1] += 2
    return tuple(off)


# ---------------------------------------------------------------------------
# mapping classes


@frozen
class MappingClass:
    """(faithful braid image, hole permutation, boundary-twist ledger).

    ``images[i-1]`` is the image of x_i under the Artin action; ``perm``
    sends each hole to its destination; ``ledger`` counts boundary half
    twists per hole (source labeling) plus one final outer entry.
    """

    n: int
    images: tuple[Word, ...]
    perm: tuple[int, ...]
    ledger: tuple[int, ...]

    def __post_init__(self):
        if not len(self.images) == len(self.perm) == self.n or len(self.ledger) != self.n + 1:
            raise RangeError(f"mapping class on {self.n} holes needs {self.n} images, a permutation of "
                             f"{self.n} and a ledger of {self.n + 1} entries")


def mc_from_braid(word: Word, n: int, ledger=None) -> MappingClass:
    perm = braid_permutation(word, n)  # range-checks the word before any action
    images = tuple(_image_table(_action_word(word, n), n)[0][1:])
    led = (0,) * (n + 1) if ledger is None else tuple(ledger)
    return MappingClass(n, images, perm, led)


def mc_compose(f: MappingClass, g: MappingClass) -> MappingClass:
    """f after g (g acts first)."""
    if f.n != g.n:
        raise StrandMismatchError("mapping classes over different hole counts")
    n = f.n
    img = [()] + list(f.images)
    inv = [inverse_word(w) for w in img]
    images = tuple(_substitute(w, img, inv) for w in g.images)
    perm = perm_compose(f.perm, g.perm)
    ledger = [g.ledger[h] + f.ledger[g.perm[h] - 1] for h in range(n)]
    ledger.append(f.ledger[n] + g.ledger[n])
    return MappingClass(n, images, perm, tuple(ledger))


def mc_of_item(c: Item) -> MappingClass:
    return mc_from_braid(item_word(c), c.n, ledger=item_offset(c))


# ---------------------------------------------------------------------------
# factorizations


@frozen
class Factorization:
    n: int
    items: tuple[Item, ...]

    def __post_init__(self):
        for c in self.items:
            if c.n != self.n:
                raise StrandMismatchError("factorization item over a different hole count")
