"""The examples and helpers that several test modules share, each kept
once: the figure diagram, the two-cusp cluster, the line pair, the folded
factorization product, outcomes of a call, and random braid words."""

from sandwich.errors import SandwichError
from sandwich.mcg import braid_permutation, item_offset, item_word, perm_compose, perm_identity, reduce_word
from sandwich.plumbing import augmentation, cluster, plumbing_graph

FIG = (
    "strands 4\n"
    "components A=2,3 B=1,4\n"
    "seq: 1, T(2), s1' s3', T(2), 1, I(1..2), 1, I(1..2), 1, I(1..2), "
    "s3', I(2..3), s2', I(1..2), s3 s2, I(3..4), 1, I(1..3)\n"
)
# FIG with one marked point added at the end: on A; on B, which completes
# the figure
FIG_A = FIG[:-1] + ", 1, F(1), 1\n"
FIG_FULL = FIG[:-1] + ", 1, F(2), 1\n"

E3_PLUMB = "vertex E -3\ncurvetta c on E\ncurvetta d on E\n"


def two_cusp_cluster(weights=(8, 8)):
    """Two cusps A and B through four shared points, then each on its own
    free chain of three; ``weights`` declared as given (None: none)."""
    points = [
        ("s1", None), ("s2", "s1"), ("s3", "s2", ("s1",)), ("s4", "s3"),
        ("a1", "s4"), ("a2", "a1"), ("fA", "a2"),
        ("b1", "s4"), ("b2", "b1"), ("fB", "b2"),
    ]
    mults = {
        "s1": {"A": 2, "B": 2}, "s2": {"A": 1, "B": 1},
        "s3": {"A": 1, "B": 1}, "s4": {"A": 1, "B": 1},
        "a1": {"A": 1}, "a2": {"A": 1}, "fA": {"A": 1},
        "b1": {"B": 1}, "b2": {"B": 1}, "fB": {"B": 1},
    }
    return cluster(["A", "B"], points, mults, weights=weights)


def line_pair():
    """Two transverse lines c and d: one -3 vertex with both arrows."""
    return plumbing_graph({"E": -3}), augmentation([("c", "E"), ("d", "E")])


def product_fingerprint(fact):
    """Reduced total braid word, hole permutation, and twist ledger of the
    right-to-left item product, folded without computing any images.  Two
    factorizations with equal fingerprints have equal products (generator
    images, ledger, and permutation alike)."""
    word = []
    perm = perm_identity(fact.n)
    ledger = [0] * (fact.n + 1)
    for item in fact.items:
        w = item_word(item)
        off = item_offset(item) or tuple([0] * (fact.n + 1))
        p = braid_permutation(w, fact.n)
        word.extend(w)
        ledger = [off[h] + ledger[p[h] - 1] for h in range(fact.n)] + [ledger[fact.n] + off[fact.n]]
        perm = perm_compose(perm, p)
    return reduce_word(tuple(word)), perm, tuple(ledger)


def outcome(f, *args):
    """repr of the value (types and all), or the error's class and message."""
    try:
        return "ok", repr(f(*args))
    except SandwichError as exc:
        return type(exc).__name__, exc.message


def rand_word(rng, n, length):
    """A braid word of ``length`` letters of either sign on ``n`` strands;
    empty on one strand, where no letter is drawn."""
    return tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length)) if n > 1 else ()
