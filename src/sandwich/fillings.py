"""Filling-level summaries on top of wiring diagrams: spinal open book
data, exotic-handle counts, vanishing-cycle products, compatibility
verdicts, and incidence-matrix equivalence."""

from collections import Counter

from .errors import InternalInconsistencyError, RangeError
from .mcg import (
    Factorization,
    MappingClass,
    braid_equal,
    braid_permutation,
    item_offset,
    item_word,
    mc_from_braid,
    reduce_word,
)
from .plumbing import (
    Branch,
    Cluster,
    DecoratedGerm,
    PlumbingGraph,
    ValidationReport,
    blow_down,
    build_unexpected,
    cluster_from_trace,
    germ_from_cluster,
    subcluster,
)
from .wiring import (
    IncidenceMatrix,
    WiringDiagram,
    bijection_exists,
    boundary_braid,
    combine,
    incidence,
    incidence_json,
    scott,
    validate_wiring,
)
from .records import frozen


# ---------------------------------------------------------------------------
# spinal open book data


@frozen
class SpinalOpenBook:
    """Page = disk with one hole per strand; each non-outer binding covers
    the page boundary with its multiplicity, the outer binding once."""

    page_holes: int
    bindings: tuple[tuple[str, int], ...]
    outer: tuple[str, int]
    marking: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if self.outer[1] != 1:
            raise RangeError("outer binding must have multiplicity 1")
        if sum(d for _, d in self.bindings) != self.page_holes:
            raise RangeError("binding multiplicities must sum to the page hole count")


def spinal_open_book(germ: DecoratedGerm) -> SpinalOpenBook:
    """One binding per branch, on the vertex it sits on with its multiplicity,
    and the outer binding on the root vertex."""
    bindings = tuple((b.sits_on, b.origin_multiplicity) for b in germ.branches)
    return SpinalOpenBook(sum(d for _, d in bindings), bindings, (germ.root_vertex, 1),
                          tuple((b.name, b.sits_on) for b in germ.branches))


def exotic_count(germ: DecoratedGerm) -> int:
    """Arc-type handles forced by multi-sheeted branches: d - 1 apiece.

    Equals the tangency count of every diagram compatible with the germ.
    """
    return sum(b.origin_multiplicity - 1 for b in germ.branches)


# ---------------------------------------------------------------------------
# vanishing-cycle products and compatibility


def factorization_product(fact: Factorization) -> MappingClass:
    """Compose the item classes right to left (last item acts first); on
    the vanishing data of a diagram this telescopes to its boundary braid,
    with boundary-parallel cycles landing in the twist ledger.

    The items are folded before any Artin action: their words concatenate,
    and each ledger entry is carried through the item's hole permutation as
    ``mc_compose`` would; the images come from one ``mc_from_braid`` on the
    freely reduced concatenation.  A cycle's word, g^-1 Delta^2 g or empty,
    is a pure braid, so only an arc's word is walked for its permutation."""
    n = fact.n
    word: list[int] = []
    ledger = [0] * (n + 1)
    for item in fact.items:
        w = item_word(item)
        if item.kind == "arc":
            p = braid_permutation(w, n)
            ledger = [ledger[p[h] - 1] for h in range(n)] + ledger[n:]
        ledger = [a + b for a, b in zip(item_offset(item), ledger)]
        word.extend(w)
    return mc_from_braid(reduce_word(word), n, ledger)


def _boundary_difference(a, b, n: int) -> str | None:
    """None when two boundary braids are the same braid (``braid_equal``);
    else the hole permutations, that of ``a`` first, when they differ.  The
    exponent sums never do: a diagram that validates against a germ has
    boundary exponent sum sum(d - 1) + 2 (sum delta + sum pairwise), d a
    branch's multiplicity at its origin, which the germ fixes; so both sides
    of ``compatible`` agree on it."""
    if braid_equal(a, b, n):
        return None
    pa, pb = braid_permutation(a, n), braid_permutation(b, n)
    if pa != pb:
        return f"hole permutation ({','.join(map(str, pa))}) against ({','.join(map(str, pb))})"
    return "Dynnikov coordinates differ"


def compatible(w: WiringDiagram, c: Cluster) -> tuple[bool, ValidationReport]:
    """Does ``w`` fill the same germ as the cluster's own layout does?

    True iff ``w`` validates against the cluster's germ and its boundary
    braid agrees, as a braid class, with the layout built straight from the
    cluster (both use the same bottom-to-top strand convention).  A
    ``boundary-class`` entry names the first invariant that differs.  The
    cluster's side, its germ and its layout's boundary braid, is computed
    once per cluster object (``Cluster.germ_and_boundary``).
    """
    germ, layout_braid = c.germ_and_boundary
    report = validate_wiring(w, germ=germ)
    if report.ok:
        why = _boundary_difference(boundary_braid(w), layout_braid, w.n)
        if why:
            report = ValidationReport(
                (("boundary-class", f"boundary braid differs from the cluster layout: {why}"),)
            )
    return report.ok, report


# ---------------------------------------------------------------------------
# incidence-matrix equivalence


def _by_label(m: IncidenceMatrix, collect):
    """The sorted component labels, and ``collect`` of the (column, kind)
    pairs, each column's entries in label order: the stored columns when the
    rows already are, as they are in every ``incidence`` result."""
    order = sorted(range(len(m.components)), key=m.components.__getitem__)
    columns = m.columns if order == sorted(order) else [type(c)(c[i] for i in order) for c in m.columns]
    return tuple(sorted(m.components)), collect(zip(columns, m.kinds))


def incidence_canonical(m: IncidenceMatrix) -> IncidenceMatrix:
    """Rows ordered by component label, then columns sorted descending
    lexicographically; column kinds travel with their columns."""
    labels, pairs = _by_label(m, sorted)
    pairs.reverse()  # equal pairs are alike, so this is the descending sort
    return IncidenceMatrix(labels, [c for c, _ in pairs], tuple(k for _, k in pairs))


def incidence_equiv(a: IncidenceMatrix, b: IncidenceMatrix, unlabeled: bool = False) -> bool:
    """Equal canonical forms, rows matched by component label; with
    ``unlabeled`` any row bijection is allowed instead, placed one row at a
    time while the (kind, column over the placed rows) multisets agree."""
    if len(a.components) != len(b.components) or len(a.kinds) != len(b.kinds):
        return False
    if not unlabeled:
        # the canonical forms less their sort: equal sorted labels, and equal
        # multisets of (column, kind)
        return _by_label(a, Counter) == _by_label(b, Counter)
    ca, cb = incidence_canonical(a), incidence_canonical(b)
    if ca.columns == cb.columns and ca.kinds == cb.kinds:
        return True
    ra, rb = ca.rows, cb.rows
    placed = [Counter(zip(cb.kinds, *rb[:k])) for k in range(len(rb) + 1)]

    def fits(p):
        return Counter(zip(ca.kinds, *(ra[i] for i in p))) == placed[len(p)]

    return bijection_exists(len(ra), fits)


# ---------------------------------------------------------------------------
# summaries


@frozen
class FillingSummary:
    lefschetz_count: int
    exotic_count: int
    euler_characteristic: int
    incidence: IncidenceMatrix


def filling_summary(w: WiringDiagram) -> FillingSummary:
    """Handle counts and euler characteristic of the filling the diagram
    describes, computed on the diagram as given: whether it fills a germ
    is ``compatible``'s to judge."""
    arcs = sum(ev.kind == "T" for ev in w.events)
    marked = len(w.events) - arcs
    branches = len(w.component_strands())
    return FillingSummary(
        marked, arcs, 1 + marked - branches, incidence_canonical(incidence(w))
    )


def filling_json(s: FillingSummary) -> dict:
    return {
        "lefschetzCount": s.lefschetz_count,
        "exoticCount": s.exotic_count,
        "eulerCharacteristic": s.euler_characteristic,
        "incidence": incidence_json(s.incidence),
    }


# ---------------------------------------------------------------------------
# star-extended arrangements


def combine_germs(a: DecoratedGerm, b: DecoratedGerm) -> DecoratedGerm:
    """Decorated data of a generic union: every strand of one part crosses
    every strand of the other exactly once, so weights grow by d_i times
    the other part's strand total and cross pairings are the products."""
    shared = {x.name for x in a.branches} & {x.name for x in b.branches}
    if shared:
        raise RangeError(f"branch names on both sides: {sorted(shared)}")
    da = [x.origin_multiplicity for x in a.branches]
    db = [x.origin_multiplicity for x in b.branches]
    branches = tuple(
        Branch(x.name, x.multiplicity_seq, x.weight + x.origin_multiplicity * other,
               x.origin_multiplicity, x.delta, x.sits_on)
        for part, other in ((a, sum(db)), (b, sum(da)))
        for x in part.branches
    )
    # one block per part: its own pairings, then d_i * d_j against the other part
    pairwise = tuple((*row, *(i * j for j in db)) for i, row in zip(da, a.pairwise))
    pairwise += tuple((*(i * j for j in da), *row) for i, row in zip(db, b.pairwise))
    return DecoratedGerm(branches, a.root_vertex, pairwise)


@frozen
class UnexpectedArrangement:
    graph: PlumbingGraph
    wiring: WiringDiagram
    germ: DecoratedGerm


def unexpected_arrangement(g: PlumbingGraph, N: int, wmax: int) -> UnexpectedArrangement:
    """Attach the star of generic lines to the germ of ``g``, lay
    out the original branches and the new lines separately, and merge the
    two layouts; the result is checked against the generic-union germ.

    That germ, ``combine_germs`` of the two layouts' germs, is the one
    returned.  It is not the germ of the returned graph: for ``vertex v -3``
    with curvettas ``a`` and ``b``, N = 1 and wmax = 5, every branch here
    has weight 15, while the graph's germ (``germ --graph``) gives 8 to
    ``a`` and ``b`` and 13 to each line (ROADMAP item 1)."""
    graph = build_unexpected(g, N, wmax)
    full = cluster_from_trace(blow_down(graph))
    original = set(g.curvettas())
    base = subcluster(full, [name for name in full.branches if name in original])
    lines = subcluster(full, [name for name in full.branches if name not in original])
    w = combine(scott(base), scott(lines))
    germ = combine_germs(germ_from_cluster(base), germ_from_cluster(lines))
    report = validate_wiring(w, germ=germ)
    if not report.ok:
        raise InternalInconsistencyError(
            "combined layout fails its own germ: "
            + "; ".join(f"{code}: {msg}" for code, msg in report.entries)
        )
    return UnexpectedArrangement(graph, w, germ)
