"""Hurwitz moves on factorizations, and the small helpers the tests use to
state their results: item and factorization canonical forms, mapping-class
equality, record replacement and the cap framing of a branch.  The package
itself never moves items, so these live here, next to the tests of ``c03``,
``c08``, ``c09`` and the units that use them."""

from sandwich.errors import RangeError
from sandwich.mcg import (
    Factorization,
    Item,
    MappingClass,
    Word,
    braid_permutation,
    canonical_curve,
    check_braid_word,
    inverse_word,
    item_offset,
    item_word,
    reduce_word,
)
from sandwich.plumbing import Branch


def replace(record, **changes):
    """A copy of ``record`` with some fields changed, built (and checked by
    ``__post_init__``) through the constructor."""
    return record.__class__(**{f: getattr(record, f) for f in record._fields} | changes)


def cap_framing(branch: Branch) -> int:
    """Self-intersection of the capped branch surface: -w - 2*delta."""
    return -branch.weight - 2 * branch.delta


def perm_inverse(p):
    out = [0] * len(p)
    for h, v in enumerate(p, start=1):
        out[v - 1] = h
    return tuple(out)


def mc_equal(f: MappingClass, g: MappingClass) -> bool:
    return f.n == g.n and f.images == g.images and f.ledger == g.ledger


def canonical_item(c: Item):
    return (c.kind, canonical_curve(c), c.twists)


def canonical_factorization(fact: Factorization):
    return tuple(canonical_item(c) for c in fact.items)


def _transport_offset(perm, offset: Word) -> Word:
    # offset entry at hole h moves to hole perm[h]; the outer entry stays
    out = list(offset)
    for h, p in enumerate(perm):
        out[p - 1] = offset[h]
    return tuple(out)


def act_on_curve(b: Word, c: Item) -> Item:
    """Image of the curve/arc under the braid b: conjugator g -> g b^{-1},
    so the canonical word transforms by artin_act(b, .)."""
    check_braid_word(b, c.n)
    conj = reduce_word(c.conjugator + inverse_word(b))
    twists = _transport_offset(braid_permutation(b, c.n), c.twists)
    return replace(c, conjugator=conj, twists=twists)


def conjugate_item(word: Word, offset: Word, c: Item) -> Item:
    """Item representing M (item) M^{-1}, where M is the mapping class
    with braid word ``word`` followed by boundary twists ``offset``: the
    twists shift by the offset carried back through the item's hole
    permutation, less the offset, and the whole then moves by ``word``."""
    if len(offset) != c.n + 1:
        raise RangeError("offset vector must have one entry per hole plus the outer entry")
    back = _transport_offset(perm_inverse(braid_permutation(item_word(c), c.n)), offset)
    shifted = tuple(t + x - y for t, x, y in zip(c.twists, back, offset))
    return act_on_curve(word, replace(c, twists=shifted))


def hurwitz_move(fact: Factorization, i: int, direction: str = "forward") -> Factorization:
    """Hurwitz move at adjacent positions (i, i+1), 1-based.

    forward:  (A, B) -> (A B A^{-1}, A)
    backward: (A, B) -> (B, B^{-1} A B)

    Conjugation is exact at the representation level (conjugator words and
    twist offsets), so forward then backward restores the original values.
    """
    if not 1 <= i < len(fact.items):
        raise RangeError(f"move position {i} outside 1..{len(fact.items) - 1}")
    items = list(fact.items)
    a, b = items[i - 1], items[i]
    if direction == "forward":
        w = item_word(a)
        items[i - 1] = conjugate_item(w, item_offset(a), b)
        items[i] = a
    elif direction == "backward":
        w = item_word(b)
        p = braid_permutation(w, fact.n)
        inv_off = tuple(-x for x in _transport_offset(p, item_offset(b)))
        items[i - 1] = b
        items[i] = conjugate_item(inverse_word(w), inv_off, a)
    else:
        raise RangeError(f"unknown direction {direction!r}")
    return Factorization(fact.n, tuple(items))
