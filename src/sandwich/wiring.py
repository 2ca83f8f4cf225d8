"""Braided wiring diagrams with tangencies.

A diagram is an alternating sequence b_0, S_1, b_1, ..., S_N, b_N of
braid words and singular events on n strands (positions numbered bottom
to top, 1..n).  Braid words apply rightmost letter first.  An event is one
record ``Event(kind, lo, hi)``: its ``.wire`` letter and its window of
positions.  A tangency T joins positions lo and lo+1, an intersection I
meets all strands of lo..hi (lo < hi), and a free point F marks the one
strand at lo = hi.

Every strand belongs to a named component.  ``validate_wiring`` alone
judges whether the tangencies join strands of one component and tie each
d-strand component into a tree; every other reader computes on the labels
as given.
"""

from __future__ import annotations

import functools
import itertools
import re

from .errors import (
    ArcAtOuterError,
    FormatError,
    InternalInconsistencyError,
    MultiplicityNotOneError,
    NoLayoutError,
    ProximityViolationError,
    RangeError,
    SandwichError,
)
from .lines import Ledger
from .mcg import (
    Factorization,
    HoleArc,
    HoleCurve,
    Item,
    Word,
    _common_suffix,
    _join,
    canonical_curves,
    check_braid_word,
    curve_holes,
    half_twist,
    inverse_word,
    reduce_word,
)
from .plumbing import Cluster, ValidationReport, _find, _pair_sums, _union, check_cluster
from .records import frozen


@frozen
class Event:
    """A singular event: its ``.wire`` letter and the lowest and highest
    position it touches."""

    kind: str
    lo: int
    hi: int


def Tangency(p: int) -> Event:
    return Event("T", p, p + 1)


def Intersection(lo: int, hi: int) -> Event:
    return Event("I", lo, hi)


def FreePoint(p: int) -> Event:
    return Event("F", p, p)


def _event(lo: int, hi: int) -> Event:
    """The point event with window lo..hi: a free point where lo == hi."""
    return FreePoint(lo) if lo == hi else Intersection(lo, hi)


def _check_event(ev: Event, n: int) -> None:
    """A known kind, a window that fits it (T: lo..lo+1, I: lo < hi,
    F: lo = hi), inside 1..n."""
    if type(ev) is not Event or ev.kind not in ("T", "I", "F"):
        raise RangeError(f"not a singularity: {ev!r}")
    lo, hi, span = ev.lo, ev.hi, 1 if ev.kind == "T" else 0
    if ev.kind == "I":
        if not 1 <= lo < hi <= n:
            raise RangeError(f"intersection {lo}..{hi} outside 1..{n}")
    elif hi - lo != span:
        raise RangeError(f"window {lo}..{hi} does not fit kind {ev.kind}")
    elif not 1 <= lo <= n - span:
        raise RangeError(f"{'tangency' if span else 'free point'} at {lo} outside 1..{n - span}")


@frozen
class WiringDiagram:
    n: int
    braids: tuple[Word, ...]
    events: tuple[Event, ...]
    components: tuple[str, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise RangeError("need at least one strand")
        if len(self.braids) != len(self.events) + 1:
            raise RangeError("need exactly one braid word around every event")
        # each distinct word is checked and reduced once, in order of first use
        reduced = {b: reduce_word(check_braid_word(b, self.n))
                   for b in dict.fromkeys(self.braids)}
        object.__setattr__(self, "braids", tuple(map(reduced.__getitem__, self.braids)))
        object.__setattr__(self, "events", tuple(self.events))
        # parse_wire shares one object per distinct event chunk; each object
        # is checked once, in order of first use, so the first bad one is reported
        for ev in dict(zip(map(id, self.events), self.events)).values():
            _check_event(ev, self.n)
        comp = tuple(self.components)
        if not comp:
            comp = _infer_components(self.n, self.events, self.walked)
        if len(comp) != self.n:
            raise RangeError("need one component label per strand")
        object.__setattr__(self, "components", comp)

    @functools.cached_property
    def walked(self) -> tuple[tuple[int, ...], ...]:
        """The initial strand ids in each event's window, from one walk over
        the braid letters per diagram object, up to the last event."""
        state = list(range(1, self.n + 1))  # state[p - 1] = strand at position p
        ids = []
        for word, ev in zip(self.braids, self.events):
            for a in reversed(word):
                i = abs(a)
                state[i - 1], state[i] = state[i], state[i - 1]
            ids.append(tuple(state[ev.lo - 1 : ev.hi]))
        return tuple(ids)

    def component_strands(self) -> dict[str, tuple[int, ...]]:
        out: dict[str, list[int]] = {}
        for s, label in enumerate(self.components, start=1):
            out.setdefault(label, []).append(s)
        return {k: tuple(v) for k, v in out.items()}


def event_strands(w: WiringDiagram) -> list[tuple[Event, tuple[int, ...]]]:
    """Each event with the initial strand ids involved in it."""
    return list(zip(w.events, w.walked))


def _infer_components(n: int, events, event_ids) -> tuple[str, ...]:
    parent = list(range(n + 1))
    for ev, ids in zip(events, event_ids):
        if ev.kind == "T":
            _union(parent, *ids)
    roots = sorted({_find(parent, s) for s in range(1, n + 1)})
    names = {r: f"c{i}" for i, r in enumerate(roots, start=1)}
    return tuple(names[_find(parent, s)] for s in range(1, n + 1))


def strand_components(w: WiringDiagram) -> tuple[str, ...]:
    """Component label per initial strand."""
    return w.components


# ---------------------------------------------------------------------------
# validation and incidence


def _numbered(w: WiringDiagram):
    """The sorted component labels, and each strand id's number: the index
    of its label among them (None at 0)."""
    labels = tuple(sorted(set(w.components)))
    return labels, [None, *map({label: i for i, label in enumerate(labels)}.get, w.components)]


def validate_wiring(w: WiringDiagram, germ) -> ValidationReport:
    """The problems of ``w``, and of ``w`` against ``germ`` unless it is
    None.  A tangency joining two components is the one problem reported:
    the first in event order.  Each per-component count is a list indexed
    by the component's number."""
    event_ids = event_strands(w)
    labels, number = _numbered(w)
    strands, edges, joined = [0] * len(labels), [0] * len(labels), [0] * len(labels)
    for i in number[1:]:
        strands[i] += 1
    # tangencies that pass join strands of one component, so one union-find serves all
    parent = list(range(w.n + 1))
    for ev, ids in event_ids:
        if ev.kind == "T":
            a, b = ids
            i = number[a]
            if i != number[b]:
                return ValidationReport((
                    ("tangency-component", f"tangency at {ev.lo} joins components {labels[i]} and {labels[number[b]]}"),
                ))
            edges[i] += 1
            joined[i] += _union(parent, a, b)
    entries = [
        ("tangency-tree", f"component {label}: {e} tangencies on {k} strands do not form a tree")
        for label, k, e, j in zip(labels, strands, edges, joined) if not e == j == k - 1
    ]
    if germ is not None:
        sums, selfs, cross = _component_summary(number, len(labels), event_ids)
        entries += _germ_entries(w.n, labels, [*zip(strands, sums, selfs)], cross, germ)
    return ValidationReport(tuple(entries))


def _component_summary(number, m: int, event_ids):
    """Per component number, of m (``number`` gives each strand id's): the
    row sum and the self count; and per pair of numbers the cross count,
    the Noether sum over each intersection and free point."""
    sums, selfs, columns = [0] * m, [0] * m, []
    for ev, ids in event_ids:
        if ev.kind != "T":
            column: dict[int, int] = {}
            for s in ids:
                column[number[s]] = column.get(number[s], 0) + 1
            for i, k in column.items():
                sums[i] += k
                selfs[i] += k * (k - 1) // 2
            columns.append(column.items())
    return sums, selfs, _pair_sums(columns, m)


# a component's row (strand count, row sum, self count) against its
# branch's (d, weight, delta): each position's entry code and text
_ROW_ENTRIES = (
    ("strand-count", "{} strands != d {}"),
    ("weight", "row sum {} != weight {}"),
    ("self", "self count {} != delta {}"),
)


def _row_entries(label: str, row, b):
    """The entries in which component ``label``'s row differs from branch
    ``b``: the one comparison of the report and of the assignment search."""
    return ((code, f"component {label}: " + text.format(got, want))
            for (code, text), got, want in zip(_ROW_ENTRIES, row, (b.origin_multiplicity, b.weight, b.delta))
            if got != want)


def _germ_entries(n: int, labels, rows, cross, germ) -> list[tuple[str, str]]:
    entries = []
    total_d = sum(b.origin_multiplicity for b in germ.branches)
    if n != total_d:
        entries.append(("strand-count", f"{n} strands != sum of branch multiplicities {total_d}"))
    names = tuple(sorted(b.name for b in germ.branches))
    if len(labels) != len(names):
        entries.append(("component-count", f"{len(labels)} components != {len(names)} branches"))
        return entries
    # a match agrees on every strand count, so the strand-count entry above
    # only ever stands beside other entries
    if labels != names:
        if not _matching_exists(labels, names, rows, cross, germ):
            entries.append(("component-match", "no branch assignment matches the incidence data"))
        return entries
    for label, row in zip(labels, rows):
        entries += _row_entries(label, row, germ.branch(label))
    # the pairs that meet, then those that never do, each in label order
    for i, k in sorted(itertools.combinations(range(len(labels)), 2), key=lambda p: not cross[p[0]][p[1]]):
        want = germ.pair(labels[i], labels[k])
        if cross[i][k] != want:
            entries.append(("cross", f"components {labels[i]},{labels[k]}: cross count {cross[i][k]} != pairwise {want}"))
    return entries


def bijection_exists(m: int, fits) -> bool:
    """Whether some order p of range(m) has ``fits(p[:k])`` for k = 0..m.
    Depth first with an explicit stack, candidates in index order, so the
    identity is tried first; ``fits`` sees a prefix only once all shorter
    prefixes fit, so it need only check the last element."""
    if not fits(()):
        return False
    prefix: list[int] = []
    used: set[int] = set()
    stack = [iter(range(m))]  # the untried candidates at each depth
    while len(prefix) < m:
        k = next((k for k in stack[-1] if k not in used and fits((*prefix, k))), None)
        if k is not None:
            prefix.append(k)
            used.add(k)
            stack.append(iter(range(m)))
        elif prefix:
            stack.pop()
            used.remove(prefix.pop())
        else:
            return False
    return True


def _matching_exists(labels, names, rows, cross, germ) -> bool:
    """Whether some branch assignment gives no entry: component i goes to
    branch ``names[p[i]]``, checked one component at a time."""
    branches = [germ.branch(name) for name in names]

    def fits(p):
        if not p:
            return True
        i, b = len(p) - 1, branches[p[-1]]
        if any(_row_entries(labels[i], rows[i], b)):
            return False
        return all(cross[j][i] == germ.pair(names[q], b.name) for j, q in enumerate(p[:-1]))

    return bijection_exists(len(labels), fits)


@frozen
class IncidenceMatrix:
    """Stored by columns, each over the rows in ``components`` order: all
    ``bytes`` when every entry is an int in 0..255, else all tuples, so equal
    matrices have equal columns, and bytes order as their tuples do."""

    components: tuple[str, ...]
    columns: tuple
    kinds: tuple[str, ...]

    def __post_init__(self):
        if len(self.columns) != len(self.kinds) or {*map(len, self.columns)} - {len(self.components)}:
            raise RangeError("ragged incidence matrix")
        try:
            columns = tuple(map(bytes, self.columns))
        except (TypeError, ValueError):  # an entry not an int in 0..255
            columns = tuple(map(tuple, self.columns))
        object.__setattr__(self, "columns", columns)

    @property
    def rows(self):
        # zip(*columns) loses the shape of a matrix with no columns
        return tuple(zip(*self.columns)) or ((),) * len(self.components)


def incidence(w: WiringDiagram) -> IncidenceMatrix:
    """Rows = components (sorted by label), one column per intersection or
    free point in seq order; entries count that component's strands there."""
    labels, row_of = _numbered(w)
    # below 256 strands no count can pass a byte; the record decides the
    # stored form of the columns either way
    zeros = bytearray if w.n < 256 else lambda k: [0] * k
    columns, kinds = [], []
    for ev, ids in zip(w.events, w.walked):
        if ev.kind == "T":
            continue
        column = zeros(len(labels))
        for s in ids:
            column[row_of[s]] += 1
        columns.append(column)
        kinds.append("free" if ev.kind == "F" else "intersection")
    return IncidenceMatrix(labels, columns, tuple(kinds))


# ---------------------------------------------------------------------------
# pushoffs and vanishing data


def _event_bottom(ev: Event) -> Word:
    """The positive half twist on the window; none for a tangency."""
    return () if ev.kind == "T" else half_twist(ev.lo, ev.hi)


def pushoffs(w: WiringDiagram) -> tuple[Word, Word]:
    """(top, bottom) monodromy words.  The bottom pushoff sees each
    interleaving braid and a positive half twist per intersection; the top
    sees the braids, inverse half twists, and one negative crossing per
    tangency.  Later parts act later (leftmost in the word), so each word
    is one list, extended part by part from the last; each event's half
    twist is built once, for both words."""
    top, bottom = list(w.braids[-1]), list(w.braids[-1])
    for b, ev in zip(w.braids[-2::-1], w.events[::-1]):
        twist = half_twist(ev.lo, ev.hi)  # one crossing for a tangency, none for a free point
        top += inverse_word(twist)
        top += b
        if ev.kind != "T":
            bottom += twist
        bottom += b
    return reduce_word(top), reduce_word(bottom)


def boundary_braid(w: WiringDiagram) -> Word:
    top, bottom = pushoffs(w)
    return reduce_word(inverse_word(top) + bottom)


def vanishing_data(w: WiringDiagram) -> Factorization:
    """One item per event: the base object at the event's window, pulled
    back through the inverse of everything that came before it along the
    bottom pushoff.  Each event's reduced head is joined onto the reduced
    prefix, so only the letters that cancel are looked at.  The prefix is
    reduced and in range by construction, so the items are built as
    records, with no second walk over their conjugators."""
    items = []
    zero = (0,) * (w.n + 1)
    prefix: Word = ()
    prefix_inv: Word = ()
    lam: Word = ()
    for b, ev in zip(w.braids, w.events):
        head = reduce_word(b + lam)
        prefix, prefix_inv = _join(head, inverse_word(head), prefix, prefix_inv)
        items.append(Item(w.n, "arc" if ev.kind == "T" else "cycle", prefix, ev.lo, ev.hi - ev.lo, zero))
        lam = _event_bottom(ev)
    return Factorization(w.n, tuple(items))


def wiring_from_vanishing(fact: Factorization) -> WiringDiagram:
    """Rebuild a diagram whose vanishing data is ``fact``: each stored
    conjugator g, compared with the accumulated prefix, determines the
    interleaving braid g (lam prefix)^{-1}; the base determines the event.
    The new prefix b lam prefix is g itself."""
    braids = []
    events: list[Event] = []
    prefix: Word = ()
    lam: Word = ()
    for i, item in enumerate(fact.items):
        if any(item.twists):
            raise RangeError("items carrying boundary-twist offsets have no diagram form", f"items[{i}]")
        g = item.conjugator
        k = _common_suffix(g, prefix)
        b = g[: len(g) - k] + inverse_word(prefix[: len(prefix) - k])  # g prefix^{-1}, reduced
        braids.append(reduce_word(b + inverse_word(lam)))
        events.append(Tangency(item.start) if item.kind == "arc"
                      else _event(item.start, item.start + item.span))
        prefix = g
        lam = _event_bottom(events[-1])
    braids.append(())
    return WiringDiagram(fact.n, tuple(braids), tuple(events))


# ---------------------------------------------------------------------------
# Scott diagrams


def scott(c: Cluster) -> WiringDiagram:
    """Unbraided diagram of the cluster's standard deformation: one
    intersection or free point per cluster point (multiplicities = strand
    counts), d-1 tangencies per branch placed up front.

    Strand blocks follow the cluster tree depth-first, so each point's
    strands form one contiguous window; when a branch keeps fewer strands
    past a point it keeps the window-side ones.  Points are emitted deepest
    first: every earlier event permutes strands strictly inside an enclosing
    window, so each window still holds exactly its own strands when its
    event appears.  Clusters where a branch shrinks strictly inside a
    three-branch window admit no unbraided layout and are rejected, and so
    are clusters with a point that carries no branch.
    """
    check_cluster(c)
    ix = c.indexed
    finals: dict[int, list[int]] = {}
    for k, b in enumerate(c.branches):
        f = ix.chains[k][-1]
        if c.mults[f][k] != 1:
            raise ProximityViolationError(f"branch {b} ends with multiplicity {c.mults[f][k]}, not 1")
        finals.setdefault(f, []).append(k)

    # branch columns in depth-first order of their final points
    order: list[int] = []
    stack = [0]
    while stack:
        i = stack.pop()
        order.extend(finals.get(i, ()))
        stack.extend(reversed(ix.children[i]))

    block: dict[int, range] = {}
    n = 0
    for k in order:
        block[k] = range(n + 1, n + 1 + c.mults[0][k])
        n += c.mults[0][k]

    # per row: each branch's strand range, the depth and the point event of
    # the window, one object per window from a memo that lives for this call
    # only (a strand is lost once, so no tangency position repeats)
    parts: list[dict[int, range]] = []
    depth: list[int] = []
    windows: list[Event] = []
    point = functools.cache(_event)
    high = [True] * len(c.branches)  # whether a branch kept the high end of its range last
    lost: list[list[int]] = [[] for _ in c.branches]  # tangency positions per branch
    for i, p in enumerate(c.points):
        up = None if p.parent is None else ix.row[p.parent]
        depth.append(0 if up is None else depth[up] + 1)
        # block starts increase along ``order``: the point's branches in that
        # order, sorted only when there are two or more (most points carry one)
        bs = [*c.mults[i]]
        if len(bs) > 1:
            bs.sort(key=lambda k: block[k].start)
        if not bs:
            raise ProximityViolationError(f"point {p.id} carries no branch")
        row = {}
        for j, k in enumerate(bs):
            if up is None:
                row[k] = block[k]
                continue
            old, m = parts[up][k], c.mults[i][k]
            if j == 0 < len(bs) - 1 or 0 < j == len(bs) - 1:
                high[k] = j == 0  # the lowest branch keeps its high end, the highest its low end
            elif j and m != len(old):
                raise NoLayoutError(
                    f"branch {c.branches[k]} shrinks inside the window at {p.id}; "
                    "no unbraided layout exists"
                )
            row[k] = new = old[-m:] if high[k] else old[:m]
            # a tangency ties each lost strand to its neighbour on the kept side
            lost[k] += range(old.start, new.start) if high[k] else range(new.stop - 1, old.stop - 1)
        first, last = row[bs[0]], row[bs[-1]]
        if sum(map(len, row.values())) != last.stop - first.start:
            raise InternalInconsistencyError(f"window at {p.id} is not contiguous")
        parts.append(row)
        windows.append(point(first.start, last.stop - 1))

    events = [Tangency(q) for k in order for q in sorted(lost[k])]
    events += [windows[i] for i in sorted(range(len(c.points)), key=lambda i: (-depth[i], windows[i].lo))]
    labels = tuple(c.branches[k] for k in order for _ in block[k])
    return WiringDiagram(n, ((),) * (len(events) + 1), tuple(events), labels)


# ---------------------------------------------------------------------------
# combine


def _shift_word(word: Word, k: int) -> Word:
    return tuple(a + k if a > 0 else a - k for a in word)


def _assemble(n: int, timeline, labels) -> WiringDiagram:
    """The diagram of the braid words (tuples) and events of ``timeline``,
    in time order.  Words that meet between two events compose, the later
    one on the left, and are reduced once; a lone word is passed on as
    given, so that ``WiringDiagram`` checks each of its letters before any
    cancels; a slot given no word is empty."""
    braids: list[Word] = []
    events: list[Event] = []
    slot: list[Word] = []
    for x in (*timeline, None):
        if isinstance(x, tuple):
            slot.append(x)
            continue
        braids.append(slot[0] if len(slot) == 1 else reduce_word(itertools.chain.from_iterable(reversed(slot))))
        slot = []
        if x is not None:
            events.append(x)
    return WiringDiagram(n, tuple(braids), tuple(events), labels)


def combine(wa: WiringDiagram, wb: WiringDiagram) -> WiringDiagram:
    """Stack wa above wb and prepend one transverse double point for every
    (strand of wa, strand of wb) pair, each conjugated by the positive
    braid that carries the upper strand down next to the lower one."""
    if set(wa.components) & set(wb.components):
        raise RangeError("component labels collide")
    nb = wb.n
    n = wa.n + nb
    timeline = []  # braid words and events, in time order
    # one object per crossing window and per shifted event: the memos live
    # for this call only
    crossing = functools.cache(Intersection)
    shifted = functools.cache(lambda ev: Event(ev.kind, ev.lo + nb, ev.hi + nb))
    for p in range(nb + 1, n + 1):
        for q in range(1, nb + 1):
            down = tuple(range(q + 1, p))
            timeline += (down, crossing(q, q + 1), inverse_word(down))
    for word, ev in zip(wb.braids, wb.events):
        timeline += (word, ev)
    timeline.append(wb.braids[-1])
    for word, ev in zip(wa.braids, wa.events):
        timeline += (_shift_word(word, nb), shifted(ev))
    timeline.append(_shift_word(wa.braids[-1], nb))
    return _assemble(n, timeline, wb.components + wa.components)


# ---------------------------------------------------------------------------
# enclosure data and inside-out


@frozen
class EnclosureData:
    """Which holes each monodromy item wraps: ("cycle", S) for curves,
    ("arc", {a, b}) for interchange arcs.  Hole h carries the component of
    strand h."""

    n: int
    components: tuple[str, ...]
    items: tuple[tuple[str, frozenset[int]], ...]

    def __post_init__(self):
        if len(self.components) != self.n:
            raise RangeError("need one component label per hole")
        for kind, holes in self.items:
            if kind not in ("cycle", "arc"):
                raise RangeError(f"unknown item kind {kind}")
            if not holes or any(not 1 <= h <= self.n for h in holes):
                raise RangeError("enclosure sets must be nonempty subsets of the holes")
            if kind == "arc" and len(holes) != 2:
                raise RangeError("arcs join exactly two holes")


def enclosure_from_wiring(w: WiringDiagram) -> EnclosureData:
    # vanishing items are transported below earlier events, so the holes a
    # cycle encloses are read off the transported item, not the raw strands
    items = tuple((item.kind, curve_holes(item)) for item in vanishing_data(w).items)
    return EnclosureData(w.n, strand_components(w), items)


def inside_out(e: EnclosureData, hole: int) -> EnclosureData:
    """Re-read the data with hole ``hole`` as the outer boundary and the
    old outer boundary as a hole in its place: sets not containing the
    hole stay; sets containing it become the complement (outer included),
    with the two boundary roles swapped in the naming."""
    if not 1 <= hole <= e.n:
        raise RangeError(f"hole {hole} outside 1..{e.n}")
    label = e.components[hole - 1]
    if e.components.count(label) != 1:
        raise MultiplicityNotOneError(
            f"hole {hole} belongs to component {label} with multiplicity > 1"
        )
    everything = frozenset(range(1, e.n + 1))
    items = []
    for kind, holes in e.items:
        if kind == "arc" and hole in holes:
            raise ArcAtOuterError(f"arc at holes {sorted(holes)} touches the new outer boundary")
        if hole in holes:
            holes = (everything - holes) | {hole}
        items.append((kind, holes))
    return EnclosureData(e.n, e.components, tuple(items))


# ---------------------------------------------------------------------------
# .wire format


_EVENT_RE = re.compile(r"^(?:T\((\d+)\)|I\((\d+)\.\.(\d+)\)|F\((\d+)\))$")
_BRAID_RE = re.compile(r"^s(\d+)(')?$")


def _seq_entries(chunks: list[str], lineno: int) -> tuple[list[Word | Event], str]:
    """Each seq entry (an event or a braid word) and the string of their
    kinds, ``e`` or ``b``.  Each distinct chunk, and each distinct braid
    token, is read once.  The error is that of the first bad entry: an empty
    one, a word right after a word (before its tokens are read), or a word
    with a bad token, found from those tables and ``kinds``."""
    matches = {chunk: _EVENT_RE.match(chunk) for chunk in dict.fromkeys(chunks)}
    words = [chunk for chunk, m in matches.items() if m is None and chunk != "1"]
    tokens = {tok: _BRAID_RE.match(tok) for tok in set(" ".join(words).split())}
    kinds = "".join(map({chunk: "e" if m else "b" for chunk, m in matches.items()}.__getitem__, chunks))
    if "" in matches or "bb" in kinds or None in tokens.values():
        faults = [(chunks.index(""), "empty seq entry")] if "" in matches else []
        if "bb" in kinds:
            i = kinds.index("bb") + 1
            faults.append((i, f"two braid words in a row at {chunks[i]!r}"))
        # words are in order of first use, so the first bad one is first in seq
        if bad := next(((c, t) for c in words for t in c.split() if not tokens[t]), None):
            faults.append((chunks.index(bad[0]), f"bad braid token {bad[1]!r}"))
        # of two faults at one entry, min keeps the one listed first
        raise FormatError(min(faults, key=lambda f: f[0])[1], location=f"line {lineno}")
    letters = {tok: -int(m[1]) if m[2] else int(m[1]) for tok, m in tokens.items()}
    parsed: dict[str, Word | Event] = dict.fromkeys(matches, ())
    for chunk, m in matches.items():
        if m:
            t, lo, hi, f = m.groups()
            parsed[chunk] = Tangency(int(t)) if t else Intersection(int(lo), int(hi)) if lo else FreePoint(int(f))
    parsed.update((chunk, tuple(map(letters.__getitem__, chunk.split()))) for chunk in words)
    return list(map(parsed.__getitem__, chunks)), kinds


def parse_wire(text: str) -> WiringDiagram:
    """Parse ``.wire``, statements read by ``sandwich.lines`` with ``;`` also ending one:
    ``strands <n>``, ``components <label>=<p>,<q>,... ...`` (optional: a partition of 1..n)
    and ``seq: <b_0>, <S_1>, ..., <S_N>, <b_N>``, each once.  A braid word is ``1`` or letters
    ``s<i>``, ``s<i>'`` (inverse); an event is ``T(p)``, ``I(lo..hi)`` or ``F(p)``.  A braid
    word left out (before the first event, after the last or between two) is ``1``."""
    names, n, components, seq_chunks = Ledger(), None, {}, None
    for stmt in names.statements(text, ";"):
        if stmt.startswith("seq:"):  # nearly the whole file, so not split into words
            names.define("seq")
            seq_chunks, seq_line = list(map(str.strip, stmt[4:].split(","))), names.line
        elif (words := stmt.split())[0] == "strands":
            names.define("strands")
            try:
                (n,) = map(int, words[1:])
            except ValueError as exc:
                raise names.error(f"bad strands line {stmt!r}") from exc
            if n < 1:
                raise RangeError("need at least one strand", location=f"line {names.line}")
        elif words[0] == "components":
            names.define("components")
            components_line = names.line
            for group in words[1:]:
                label, _, positions = group.partition("=")
                try:
                    if not _ or not label or not positions.strip(","):  # no position
                        raise ValueError
                    names.define("component label", label)
                    components[label] = [int(x) for x in positions.split(",") if x]
                except ValueError as exc:
                    raise names.error(f"bad components group {group!r}") from exc
        else:
            raise names.error(f"unrecognized statement {stmt!r}")
    if n is None:
        raise FormatError("missing strands header")
    if seq_chunks is None:
        raise FormatError("missing seq")

    entries, kinds = _seq_entries(seq_chunks, seq_line)  # entries[i] parsed from seq[i]
    labels: tuple[str, ...] = ()
    if components:
        assigned = {}
        for label, positions in components.items():
            for p in positions:
                if not 1 <= p <= n or p in assigned:
                    raise names.error(f"components do not partition strands 1..{n}", components_line)
                assigned[p] = label
        if len(assigned) != n:
            raise names.error(f"components do not partition strands 1..{n}", components_line)
        labels = tuple(assigned[p] for p in range(1, n + 1))
    try:
        if kinds[0] == kinds[-1] == "b" and "ee" not in kinds:
            return WiringDiagram(n, tuple(entries[::2]), tuple(entries[1::2]), labels)
        return _assemble(n, entries, labels)  # a braid word left out is empty
    except RangeError:
        # only now find the first seq entry out of range, so valid input is
        # checked once, by WiringDiagram
        for i, entry in enumerate(entries):
            try:
                if kinds[i] == "b":
                    check_braid_word(entry, n)
                else:
                    _check_event(entry, n)
            except RangeError as exc:
                raise RangeError(exc.message, location=f"line {seq_line}, seq[{i}]") from None
        raise


def _braid_text(word: Word) -> str:
    if not word:
        return "1"
    return " ".join(f"s{abs(a)}" + ("'" if a < 0 else "") for a in word)


def _event_text(ev: Event) -> str:
    return f"I({ev.lo}..{ev.hi})" if ev.kind == "I" else f"{ev.kind}({ev.lo})"


def serialize_wire(w: WiringDiagram) -> str:
    out = [f"strands {w.n}"]
    groups = w.component_strands()
    out.append(
        "components "
        + " ".join(f"{label}=" + ",".join(map(str, groups[label])) for label in sorted(groups))
    )
    parts = []
    for i, ev in enumerate(w.events):
        parts.append(_braid_text(w.braids[i]))
        parts.append(_event_text(ev))
    parts.append(_braid_text(w.braids[-1]))
    out.append("seq: " + ", ".join(parts))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# JSON forms


def factorization_json(fact: Factorization) -> dict:
    items = []
    for item, word in zip(fact.items, canonical_curves(fact.items)):
        d = {
            "kind": item.kind,
            "conjugator": list(item.conjugator),
            "start": item.start,
            "canonicalWord": list(word),
        }
        if item.kind == "cycle":
            d["span"] = item.span
        if any(item.twists):
            d["twists"] = list(item.twists)
        items.append(d)
    return {"holes": fact.n, "items": items}


def _json_int(x) -> int:
    if type(x) is not int:  # not isinstance: true and false are no integers here
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _json_as(kind: type, x, message: str):
    """``x`` when its JSON type is ``kind``, else a TypeError with ``message``."""
    if type(x) is not kind:
        raise TypeError(message)
    return x


def factorization_from_json(data) -> Factorization:
    """Errors raised while reading ``items[i]`` carry that location, and a
    hole count below 1 is located at ``holes`` before any item is read.  The
    document and each item must be objects, every number a JSON integer,
    and ``items``, ``conjugator`` and ``twists`` lists; a missing key is
    named."""
    where = None
    try:
        n = _json_int(_json_as(dict, data, "the top level must be an object")["holes"])
        if n < 1:
            where = "holes"
            raise RangeError("need at least one hole")
        items = []
        for i, d in enumerate(_json_as(list, data["items"], "items must be a list")):
            where = f"items[{i}]"
            _json_as(dict, d, f"{where} must be an object")
            conj = tuple(map(_json_int, _json_as(list, d.get("conjugator", []),
                                                 "conjugator must be a list of integers")))
            twists = (tuple(map(_json_int, _json_as(list, d["twists"], "twists must be a list of integers")))
                      if "twists" in d else None)
            if d["kind"] == "arc":
                items.append(HoleArc(n, conj, _json_int(d["start"]), twists, _json_int(d.get("span", 1))))
            elif d["kind"] == "cycle":
                items.append(HoleCurve(n, conj, _json_int(d["start"]), _json_int(d.get("span", 0)), twists))
            else:
                raise ValueError(f"unknown item kind {d['kind']!r}")
    except KeyError as exc:
        raise FormatError(f"bad factorization JSON: missing key {exc}", where) from exc
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad factorization JSON: {exc}", where) from exc
    except SandwichError as exc:
        exc.location = where
        raise
    return Factorization(n, tuple(items))


def incidence_json(m: IncidenceMatrix) -> dict:
    return {
        "components": list(m.components),
        "kinds": list(m.kinds),
        "rows": [list(r) for r in m.rows],
    }
