"""The read side of a wiring diagram (`parse_wire`, `render`, `incidence`,
`incidence_canonical`, `incidence_equiv`) against the implementations they
replaced, kept here as oracles: the parser that read every seq chunk and
checked every braid word, the renderer that formatted every coordinate of
every segment, and the row-major matrix that came before the column form
(built row by row, transposed and sorted for each canonical form and each
labelled compare, and transposed back).  No oracle is built through
``IncidenceMatrix``'s own constructor.  Output must agree byte for byte,
and errors by class and message (and location, for the parser).  The
columns are bytes or, with an entry outside 0..255, tuples; both are
compared with the oracles, type and all.
The labelled ``incidence_equiv``, which compares multisets of columns, must
agree with comparing two canonical matrices.  ``render``'s peak memory is
pinned too."""

import random
import re
import tracemalloc
from collections import Counter, namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandwich.cli import render
from sandwich.errors import FormatError, RangeError, SandwichError
from sandwich import fillings
from sandwich.fillings import incidence_canonical, incidence_equiv
from sandwich.mcg import check_braid_word
from sandwich.wiring import (
    _BRAID_RE,
    _EVENT_RE,
    FreePoint,
    IncidenceMatrix,
    Intersection,
    Tangency,
    WiringDiagram,
    _check_event,
    bijection_exists,
    event_strands,
    incidence,
    parse_wire,
    serialize_wire,
)

from fixtures import arrangement, outcome, unexpected_wires
from matrices import from_rows
from random_clusters import rand_layouts
from random_diagrams import rand_diagram

# ---------------------------------------------------------------------------
# oracles


def _fmt(v):
    return f"{v:.3f}"


def _seg(x0, y0, x1, y1):
    return f"M {_fmt(x0)} {_fmt(y0)} L {_fmt(x1)} {_fmt(y1)}"


def reference_render(w):
    n = w.n

    def y(pos):
        return n - pos + 1

    paths = []
    markers = []
    x = 0
    positions = list(range(1, n + 1))

    def horizontal(x0, x1, skip=()):
        for pos in positions:
            if pos not in skip:
                paths.append(_seg(x0, y(pos), x1, y(pos)))

    elements = []
    for i, ev in enumerate(w.events):
        elements.append(("braid", w.braids[i]))
        elements.append(("event", ev))
    elements.append(("braid", w.braids[len(w.events)]))

    for kind, payload in elements:
        if kind == "braid":
            word = payload
            if not word:
                horizontal(x, x + 1)
            else:
                m = len(word)
                for t, letter in enumerate(reversed(word)):
                    x0 = x + t / m
                    x1 = x + (t + 1) / m
                    i = abs(letter)
                    ya, yb = y(i), y(i + 1)
                    rising = _seg(x0, ya, x1, yb)
                    falling = _seg(x0, yb, x1, ya)
                    over = rising if letter > 0 else falling
                    u0, u1 = (yb, ya) if letter > 0 else (ya, yb)
                    gap = 0.18
                    paths.append(over)
                    paths.append(_seg(x0, u0, x0 + (0.5 - gap) * (x1 - x0), u0 + (0.5 - gap) * (u1 - u0)))
                    paths.append(_seg(x0 + (0.5 + gap) * (x1 - x0), u0 + (0.5 + gap) * (u1 - u0), x1, u1))
                    horizontal(x0, x1, skip=(i, i + 1))
        else:
            ev = payload
            lo, hi = ev.lo, ev.hi
            involved = range(lo, hi + 1)
            yc = sum(y(p) for p in involved) / len(involved)
            cx = x + 0.5
            for p in involved:
                paths.append(_seg(x, y(p), cx, yc))
                paths.append(_seg(cx, yc, x + 1, y(p)))
            horizontal(x, x + 1, skip=involved)
            if ev.kind == "T":
                r = 0.16
                markers.append(
                    f'<path class="tangency" fill="black" d="M {_fmt(cx)} {_fmt(yc - r)} '
                    f'L {_fmt(cx + r)} {_fmt(yc)} L {_fmt(cx)} {_fmt(yc + r)} '
                    f'L {_fmt(cx - r)} {_fmt(yc)} Z"/>'
                )
            elif ev.kind == "I":
                r = 0.08 + 0.03 * len(involved)
                markers.append(
                    f'<circle class="intersection" fill="black" '
                    f'cx="{_fmt(cx)}" cy="{_fmt(yc)}" r="{_fmt(r)}"/>'
                )
            else:
                markers.append(
                    f'<circle class="free" fill="white" stroke="black" stroke-width="0.04" '
                    f'cx="{_fmt(cx)}" cy="{_fmt(yc)}" r="0.110"/>'
                )
        x += 1

    width = len(elements)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="-0.5 0 {width + 1} {n + 1}">',
        "<!-- format 1 -->",
        '<path class="strand" fill="none" stroke="black" stroke-width="0.05" '
        f'd="{" ".join(paths)}"/>',
    ]
    lines.extend(markers)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# the row-major matrix the column form replaced: a plain record, so that
# nothing of the column form's own constructor takes part in it
Rows = namedtuple("Rows", "components rows kinds")


def as_rows(m):
    return Rows(m.components, m.rows, m.kinds)


def row_major_incidence(w):
    labels = tuple(sorted(set(w.components)))
    row_of = {label: r for r, label in enumerate(labels)}
    rows = [[0] * len(w.events) for _ in labels]
    row_of_strand = [None, *(rows[row_of[label]] for label in w.components)]
    kinds = []
    for ev, ids in zip(w.events, w.walked):
        if ev.kind == "T":
            continue
        for s in ids:
            row_of_strand[s][len(kinds)] += 1
        kinds.append("free" if ev.kind == "F" else "intersection")
    return Rows(labels, tuple(tuple(row[: len(kinds)]) for row in rows), tuple(kinds))


def row_major_sorted_columns(m):
    order = sorted(range(len(m.components)), key=lambda i: m.components[i])
    rows = [m.rows[i] for i in order]
    cols = list(zip(*rows)) or [()] * len(m.kinds)
    try:
        cols = list(map(bytes, cols))
    except (TypeError, ValueError):
        pass
    return order, sorted(zip(cols, m.kinds), reverse=True)


def row_major_canonical(m):
    order, cols = row_major_sorted_columns(m)
    return Rows(
        tuple(m.components[i] for i in order),
        tuple(zip(*(col for col, _ in cols))) or ((),) * len(order),
        tuple(kind for _, kind in cols),
    )


def row_major_equiv(a, b, unlabeled=False):
    if len(a.rows) != len(b.rows) or len(a.kinds) != len(b.kinds):
        return False
    if not unlabeled:
        (oa, ka), (ob, kb) = row_major_sorted_columns(a), row_major_sorted_columns(b)
        return [a.components[i] for i in oa] == [b.components[i] for i in ob] and ka == kb
    ca, cb = row_major_canonical(a), row_major_canonical(b)
    if (ca.rows, ca.kinds) == (cb.rows, cb.kinds):
        return True
    placed = [Counter(zip(cb.kinds, *cb.rows[:k])) for k in range(len(cb.rows) + 1)]

    def fits(p):
        return Counter(zip(ca.kinds, *(ca.rows[i] for i in p))) == placed[len(p)]

    return bijection_exists(len(ca.rows), fits)


def assert_canonical_agrees(m):
    """The canonical form, each column's type among it, against the row-major oracle."""
    canonical, (_, cols) = incidence_canonical(m), row_major_sorted_columns(as_rows(m))
    assert as_rows(canonical) == row_major_canonical(as_rows(m))
    assert canonical.columns == tuple(col for col, _ in cols)


def assert_column_form_agrees(a, b, unlabeled=(False, True)):
    """Both canonical forms and the verdicts both ways, against the
    row-major oracles.  Returns the labelled verdict."""
    assert_canonical_agrees(a)
    assert_canonical_agrees(b)
    for flag in unlabeled:
        want = row_major_equiv(as_rows(a), as_rows(b), flag)
        assert incidence_equiv(a, b, flag) == incidence_equiv(b, a, flag) == want, (a, b, flag)
    return row_major_equiv(as_rows(a), as_rows(b))


def reference_parse_braid(chunk, lineno):
    if chunk == "1":
        return ()
    letters = []
    for tok in chunk.split():
        m = _BRAID_RE.match(tok)
        if not m:
            raise FormatError(f"bad braid token {tok!r}", location=f"line {lineno}")
        i = int(m.group(1))
        letters.append(-i if m.group(2) else i)
    return tuple(letters)


def reference_parse_wire(text):
    """The parser that read every seq chunk in turn and checked every braid
    word in seq order.  Its headers matched keywords by prefix; the corpus
    below only ever mutates the seq line, where that does not matter."""
    n = None
    components = {}
    seq_chunks = None
    seq_line = 0
    statements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for part in line.split(";"):
            if part.strip():
                statements.append((lineno, part.strip()))
    for lineno, stmt in statements:
        loc = f"line {lineno}"
        if stmt.startswith("strands"):
            try:
                n = int(stmt.split()[1])
            except (IndexError, ValueError) as exc:
                raise FormatError(f"bad strands line {stmt!r}", location=loc) from exc
        elif stmt.startswith("components"):
            components_loc = loc
            for group in stmt.split()[1:]:
                label, _, positions = group.partition("=")
                if not _ or not label or not positions.strip(","):
                    raise FormatError(f"bad components group {group!r}", location=loc)
                try:
                    components[label] = [int(x) for x in positions.split(",") if x]
                except ValueError as exc:
                    raise FormatError(f"bad components group {group!r}", location=loc) from exc
        elif stmt.startswith("seq:"):
            if seq_chunks is not None:
                raise FormatError("duplicate seq", location=loc)
            seq_chunks = [c.strip() for c in stmt[4:].split(",")]
            seq_line = lineno
        else:
            raise FormatError(f"unrecognized statement {stmt!r}", location=loc)
    if n is None:
        raise FormatError("missing strands header")
    if seq_chunks is None:
        raise FormatError("missing seq")

    braids, events, entries = [], [], []
    pending = None
    for chunk in seq_chunks:
        if not chunk:
            raise FormatError("empty seq entry", location=f"line {seq_line}")
        m = _EVENT_RE.match(chunk)
        if m:
            braids.append(pending if pending is not None else ())
            pending = None
            if m.group(1):
                events.append(Tangency(int(m.group(1))))
            elif m.group(2):
                events.append(Intersection(int(m.group(2)), int(m.group(3))))
            else:
                events.append(FreePoint(int(m.group(4))))
            entries.append(events[-1])
        else:
            if pending is not None:
                raise FormatError(
                    f"two braid words in a row at {chunk!r}", location=f"line {seq_line}"
                )
            pending = reference_parse_braid(chunk, seq_line)
            entries.append(pending)
    braids.append(pending if pending is not None else ())

    labels = ()
    if components:
        assigned = {}
        for label, positions in components.items():
            for p in positions:
                if not 1 <= p <= n or p in assigned:
                    raise FormatError(f"components do not partition strands 1..{n}", location=components_loc)
                assigned[p] = label
        if len(assigned) != n:
            raise FormatError(f"components do not partition strands 1..{n}", location=components_loc)
        labels = tuple(assigned[p] for p in range(1, n + 1))
    try:
        if n >= 1:
            for b in braids:  # every word, in seq order
                check_braid_word(b, n)
        return WiringDiagram(n, tuple(braids), tuple(events), labels)
    except RangeError:
        for i, entry in enumerate(entries if n >= 1 else ()):
            try:
                if isinstance(entry, tuple):
                    check_braid_word(entry, n)
                else:
                    _check_event(entry, n)
            except RangeError as exc:
                raise RangeError(exc.message, location=f"line {seq_line}, seq[{i}]") from None
        raise


# ---------------------------------------------------------------------------
# comparison


def parse_outcome(f, text):
    """repr of the diagram, or the error's class, message and location."""
    try:
        return "ok", repr(f(text))
    except SandwichError as exc:
        return type(exc).__name__, exc.message, exc.location


def assert_read_side_agrees(w):
    assert render(w) == reference_render(w)
    got = outcome(lambda: as_rows(incidence(w)))
    assert got == outcome(row_major_incidence, w)
    if got[0] == "ok":
        assert_canonical_agrees(incidence(w))


def relabeled(w, rng, declared):
    """w with declared components: ``declared`` merges the inferred
    components under random labels (tangencies stay inside a component);
    otherwise every strand gets a random label, often splitting a tangency."""
    labels = "PQRS"
    if declared:
        names = {c: rng.choice(labels) for c in sorted(set(w.components))}
        comps = tuple(names[c] for c in w.components)
    else:
        comps = tuple(rng.choice(labels) for _ in range(w.n))
    return WiringDiagram(w.n, w.braids, w.events, comps)


def test_scott_layouts_and_unexpected_wires():
    # Scott layouts of random clusters draw tangency diamonds; the
    # unexpected wires are the widest built diagrams, with no tangency
    layouts = rand_layouts(random.Random(28))
    assert sum(ev.kind == "T" for w in layouts for ev in w.events) >= 50
    wires = list(unexpected_wires())
    assert [w.n for w in wires] == [9, 11, 10, 12]
    for w in layouts + wires:
        assert_read_side_agrees(w)


def test_random_diagrams_inferred_and_declared_components():
    rng = random.Random(8)
    seen = set()
    for _ in range(1200):
        w = rand_diagram(rng, max_n=7, max_events=10)
        declared, scrambled = relabeled(w, rng, declared=True), relabeled(w, rng, declared=False)
        for v in (w, declared, scrambled):
            assert_read_side_agrees(v)
        seen.update(ev.kind for ev in w.events)
        seen.update("inverse" if a < 0 else "positive" for b in w.braids for a in b)
        seen.update("empty braid" for b in w.braids if not b)
        if w.n == 1:
            seen.add("one strand")
        # incidence computes on the labels as given, also where a tangency
        # joins two of them (only validate judges that)
        seen.update("split tangency" for ev, ids in event_strands(scrambled)
                    if ev.kind == "T" and len({scrambled.components[s - 1] for s in ids}) == 2)
    # the set reaches every kind of event and letter, and split tangencies
    assert seen >= {
        "F", "T", "I", "inverse", "positive", "empty braid",
        "one strand", "split tangency",
    }


def test_arrangements():
    for m in range(8, 41, 4):
        a, copy = arrangement(m), arrangement(m, free_first=True)
        assert_read_side_agrees(a)
        assert_read_side_agrees(copy)
        assert incidence_canonical(incidence(a)) == incidence_canonical(incidence(copy))


def built_matrices():
    # shapes no diagram gives: no rows, rows out of label order, and entries
    # outside 0..255, which sort as tuples: 256 > 255 > 1 and -1 < 0, where
    # bytes wrapped modulo 256 would order them otherwise
    rng = random.Random(8)
    cases = [
        from_rows((), (), ()),
        from_rows((), (), ("free", "intersection")),
        from_rows(("b", "a"), ((), ()), ()),
        from_rows(("a", "b"), ((256, 1, 255, 0), (0, 2, 0, 7)), ("free", "intersection", "free", "free")),
        from_rows(("b", "a"), ((-1, 0, 1), (3, 3, 3)), ("intersection", "free", "free")),
    ]
    # equal columns of both kinds, in either order, sorted as bytes and as tuples
    for kinds in (("free", "intersection", "free"), ("intersection", "free", "free")):
        for last in (0, 300, -4):
            cases.append(from_rows(("a", "b"), ((1, 1, last), (2, 2, 1)), kinds))
    for _ in range(300):
        r, c = rng.randint(0, 4), rng.randint(0, 5)
        cases.append(from_rows(
            tuple(rng.sample("abcdef", r)),
            tuple(tuple(rng.randint(0, 2) for _ in range(c)) for _ in range(r)),
            tuple(rng.choice(("free", "intersection")) for _ in range(c)),
        ))
    return cases


def test_canonical_form_of_built_matrices():
    for m in built_matrices():
        assert_canonical_agrees(m)


def shuffled(m, rng):
    """m with its rows (labels alongside) and its columns (kinds alongside)
    in random order: the same matrix up to the order incidence_equiv ignores."""
    rows, cols = list(range(len(m.rows))), list(range(len(m.kinds)))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return from_rows(tuple(m.components[i] for i in rows),
                           tuple(tuple(m.rows[i][j] for j in cols) for i in rows),
                           tuple(m.kinds[j] for j in cols))


def changed(m, rng):
    """m with one label, one entry or one kind changed, where it has one."""
    comps, rows, kinds = list(m.components), [list(r) for r in m.rows], list(m.kinds)
    what = rng.randrange(3)
    if what == 0 and comps:
        comps[rng.randrange(len(comps))] = rng.choice("abcdefz")
    elif what == 1 and kinds and rows:
        rows[rng.randrange(len(rows))][rng.randrange(len(kinds))] += rng.choice((1, -1, 256))
    elif kinds:
        j = rng.randrange(len(kinds))
        kinds[j] = "free" if kinds[j] == "intersection" else "intersection"
    return from_rows(tuple(comps), tuple(map(tuple, rows)), tuple(kinds))


def test_labeled_equivalence_is_equality_of_canonical_forms():
    # the labelled compare reads the sorted columns, not two canonical
    # matrices; it must agree with comparing those matrices
    rng = random.Random(10)
    cases = built_matrices()
    seen = Counter()
    for a in cases:
        for b in (a, shuffled(a, rng), changed(a, rng), changed(shuffled(a, rng), rng),
                  rng.choice(cases)):
            want = incidence_canonical(a) == incidence_canonical(b)
            assert incidence_equiv(a, b) == incidence_equiv(b, a) == want, (a, b)
            seen[want] += 1
    assert seen[True] >= 600 and seen[False] >= 300, seen


# ---------------------------------------------------------------------------
# the column form against the row-major oracles


def test_column_form_on_random_diagrams():
    # each diagram's matrix against a shuffled and a changed copy of it, the
    # matrix of its components merged under new labels, and the one before
    rng = random.Random(27)
    seen, before = Counter(), None
    for _ in range(500):
        w = rand_diagram(rng, max_n=7, max_events=12)
        merged = relabeled(w, rng, declared=True)
        assert as_rows(incidence(merged)) == row_major_incidence(merged)
        a = incidence(w)
        for b in (shuffled(a, rng), changed(a, rng), incidence(merged), before or a):
            seen[assert_column_form_agrees(a, b)] += 1
        before = a
    assert seen[True] >= 500 and seen[False] >= 1000, seen


def test_column_form_on_arrangements():
    # generic arrangements against their copy (free points first), one
    # double point dropped, and one traded for a free point; the unlabeled
    # search on a traded pair runs up to m = 7, as diagram-read's does
    for m in range(2, 17):
        a, drop = incidence(arrangement(m)), m * (m - 1) // 4
        variants = {"copy": arrangement(m, free_first=True), "dropped": arrangement(m, drop=drop),
                    "traded": arrangement(m, drop=drop, trade=True)}
        for key, w in variants.items():
            assert as_rows(incidence(w)) == row_major_incidence(w)
            flags = (False,) if key == "traded" and m > 7 else (False, True)
            assert assert_column_form_agrees(a, incidence(w), flags) == (key == "copy")


def test_column_form_on_built_matrices():
    rng = random.Random(11)
    cases = built_matrices()
    for a in cases:
        for b in (a, shuffled(a, rng), changed(a, rng), changed(shuffled(a, rng), rng), rng.choice(cases)):
            assert_column_form_agrees(a, b)


def test_columns_are_bytes_only_when_every_entry_fits_a_byte():
    for rows, kind in ((((1, 255), (0, 2)), bytes), (((1, 256), (0, 2)), tuple),
                       (((1, 0), (-1, 2)), tuple), (((), ()), bytes)):
        m = from_rows(("a", "b"), rows, ("free",) * len(rows[0]))
        assert {type(c) for c in m.columns} <= {kind} and m.rows == rows
    # the entries decide, not the form the columns come in
    assert IncidenceMatrix(("a",), [[1], (2,), b"\x03"], ("free",) * 3).columns == (b"\x01", b"\x02", b"\x03")
    assert IncidenceMatrix(("a",), [b"\x01", [300]], ("free",) * 2).columns == ((1,), (300,))
    # no columns: the rows keep their count; no rows: the columns theirs
    assert IncidenceMatrix(("a", "b"), (), ()).rows == ((), ())
    assert IncidenceMatrix((), ((), ()), ("free",) * 2).columns == (b"", b"")
    for columns, kinds in ((((1,), (1, 2)), ("free",) * 2), (((1,),), ("free",) * 2), (((1, 2),), ("free",))):
        with pytest.raises(RangeError, match="ragged incidence matrix"):
            IncidenceMatrix(("a",), columns, kinds)
    with pytest.raises(ValueError):  # rows of unequal length are refused, not cut short
        from_rows(("a", "b"), ((1,), (1, 2)), ("free",))


def test_the_same_matrix_from_few_strands_and_from_many():
    # 3 strands and 260: the same entries, so the same bytes columns
    events = (Intersection(1, 3), FreePoint(1))
    few = WiringDiagram(3, ((),) * 3, events, ("X", "X", "Y"))
    many = WiringDiagram(260, ((),) * 3, events, ("X", "X", "Y") + ("X",) * 257)
    a, b = incidence(few), incidence(many)
    assert a == b and a.columns == (b"\x02\x01", b"\x01\x00")
    assert incidence_canonical(a) == incidence_canonical(b)
    assert incidence_equiv(a, b) and incidence_equiv(a, b, unlabeled=True)
    assert assert_column_form_agrees(a, b)
    # 300 strands of one component at one event: an entry past a byte
    wide = incidence(WiringDiagram(300, ((), ()), (Intersection(1, 300),), ("X",) * 300))
    built = from_rows(("X",), ((300,),), ("intersection",))
    assert wide == built and wide.columns == ((300,),)
    assert assert_column_form_agrees(wide, built)


def test_canonical_forms_are_taken_by_an_unlabeled_compare_only(monkeypatch):
    # a traced run counts calls of the module-global incidence_canonical
    # (fillings.incidence_canonical_calls): an unlabeled compare reaches it
    # through that global once per matrix, a labelled one never does
    calls = []
    real = fillings.incidence_canonical
    monkeypatch.setattr(fillings, "incidence_canonical", lambda m: calls.append(m) or real(m))
    a = incidence(arrangement(7))
    for w in (arrangement(7), arrangement(7, free_first=True), arrangement(7, drop=10, trade=True)):
        b = incidence(w)
        calls.clear()
        incidence_equiv(a, b)
        assert calls == []
        incidence_equiv(a, b, unlabeled=True)
        assert calls == [a, b]


@pytest.mark.parametrize("m", [24, 40])
def test_render_builds_one_copy_of_the_document(m):
    # the pieces and the joined document, not four copies of it at once
    a = arrangement(m)
    tracemalloc.start()
    try:
        svg = render(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * len(svg), peak / len(svg)


@st.composite
def diagrams(draw):
    n = draw(st.integers(1, 6))
    words, event_kinds = st.just(()), [st.integers(1, n).map(FreePoint)]
    if n > 1:
        letters = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
        words = st.lists(letters, max_size=4).map(tuple)
        event_kinds.append(st.integers(1, n - 1).map(Tangency))
        event_kinds.append(st.tuples(st.integers(1, n), st.integers(1, n))
                           .filter(lambda t: t[0] < t[1]).map(lambda t: Intersection(*t)))
    events = draw(st.lists(st.one_of(event_kinds), max_size=8))
    braids = draw(st.lists(words, min_size=len(events) + 1, max_size=len(events) + 1))
    labels = draw(st.none() | st.lists(st.sampled_from("XYZ"), min_size=n, max_size=n))
    return WiringDiagram(n, tuple(braids), tuple(events), tuple(labels or ()))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(diagrams())
def test_read_side_matches_oracles(w):
    assert_read_side_agrees(w)


# ---------------------------------------------------------------------------
# parse_wire


_NOISE = "s123'TIF().,; x"


def mutated(text, rng):
    """text with one to three random edits to its seq line: a character
    dropped, inserted or changed, or a chunk repeated or swapped with the
    next, so chunks read before come round again in new places."""
    head, _, seq = text.rpartition("seq:")
    for _ in range(rng.randint(1, 3)):
        chunks = seq.split(",")
        kind = rng.randrange(5)
        i = rng.randrange(len(seq) + 1)
        if kind == 0:
            seq = seq[:i] + seq[i + 1 :]
        elif kind == 1:
            seq = seq[:i] + rng.choice(_NOISE) + seq[i:]
        elif kind == 2 and seq:
            i = min(i, len(seq) - 1)
            seq = seq[:i] + rng.choice(_NOISE) + seq[i + 1 :]
        elif kind == 3:
            j = rng.randrange(len(chunks))
            seq = ",".join(chunks[: j + 1] + chunks[j:])
        elif len(chunks) > 1:
            j = rng.randrange(len(chunks) - 1)
            chunks[j], chunks[j + 1] = chunks[j + 1], chunks[j]
            seq = ",".join(chunks)
    return head + "seq:" + seq


def test_parse_wire_matches_reference_on_random_and_mutated_texts():
    rng = random.Random(9)
    texts = [serialize_wire(rand_diagram(rng, max_n=6, max_events=12)) for _ in range(3000)]
    texts += [serialize_wire(arrangement(m)) for m in range(8, 41, 8)]
    texts += [mutated(t, rng) for t in texts for _ in range(3)]
    seen = Counter()
    for text in texts:
        got = parse_outcome(parse_wire, text)
        assert got == parse_outcome(reference_parse_wire, text), text
        seen[got[0] if got[0] != "FormatError" else re.sub(r" ['\"].*", "", got[1])] += 1
    # valid diagrams and every kind of seq error occur, not just one
    assert seen["ok"] >= 3000 and sum(seen.values()) - seen["ok"] >= 3000
    assert {"bad braid token", "two braid words in a row at", "empty seq entry",
            "RangeError"} <= set(seen), seen


@pytest.mark.parametrize("seq, message", [
    # a non-event chunk after a braid word is not tokenized
    ("s1, x(3)", "two braid words in a row at 'x(3)'"),
    # nor is a chunk read before, when it comes round again after a braid word
    ("s1, T(1), s1, s1", "two braid words in a row at 's1'"),
    ("1, T(1), 1, 1", "two braid words in a row at '1'"),
    ("s1, T(1), , T(1)", "empty seq entry"),
    ("x(3), s1", "bad braid token 'x(3)'"),
])
def test_seq_error_precedence(seq, message):
    text = f"strands 2\nseq: {seq}\n"
    want = ("FormatError", message, "line 2")
    assert parse_outcome(parse_wire, text) == parse_outcome(reference_parse_wire, text) == want


def test_repeated_chunks_check_each_word_once_in_order_of_first_use():
    # the first bad word in seq order is the one reported, with its entry
    text = "strands 2\nseq: s1, T(1), s4, T(1), s1, T(1), s3, T(1), s4\n"
    want = ("RangeError", "braid letter 4 outside strand range 1..1", "line 2, seq[2]")
    assert parse_outcome(parse_wire, text) == parse_outcome(reference_parse_wire, text) == want
    w = parse_wire("strands 3\nseq: s1 s2 s2', T(1), s1 s2 s2', I(1..3), s1\n")
    assert w.braids == ((1,), (1,), (1,))
    # built directly, the diagram reports its first bad word in seq order
    with pytest.raises(RangeError, match="braid letter 4 outside"):
        WiringDiagram(2, ((1,), (4,), (1,), (3,), (4,)), (Tangency(1),) * 4)


@pytest.mark.parametrize("seq, braids, events", [
    # a braid word left out is an empty one: before the first event, after
    # the last, and between two events in a row
    ("T(1), s1", ((), (1,)), (Tangency(1),)),
    ("s1, T(1)", ((1,), ()), (Tangency(1),)),
    ("T(1), F(2), I(1..3), 1", ((), (), (), ()), (Tangency(1), FreePoint(2), Intersection(1, 3))),
    ("F(1)", ((), ()), (FreePoint(1),)),
    ("s2, T(1), T(1), s1' s2", ((2,), (), (-1, 2)), (Tangency(1), Tangency(1))),
    # spellings the token pattern accepts beside s<i>: a leading zero and
    # any Unicode decimal digit, read as the integer they spell
    ("s01 s01', T(1), s\u0661", ((), (1,)), (Tangency(1),)),
    ("s02 s\u0661', F(3)", ((2, -1), ()), (FreePoint(3),)),
])
def test_left_out_braids_and_token_spellings(seq, braids, events):
    text = f"strands 3\nseq: {seq}\n"
    w = parse_wire(text)
    assert (w.braids, w.events) == (braids, events)
    assert parse_outcome(parse_wire, text) == parse_outcome(reference_parse_wire, text)


@pytest.mark.parametrize("seq, want", [
    ("1, T(1), s1 s9, F(1), s2", ("RangeError", "braid letter 9 outside strand range 1..2", "line 2, seq[2]")),
    ("T(1), T(1), s9", ("RangeError", "braid letter 9 outside strand range 1..2", "line 2, seq[2]")),
    ("s1, T(1), T(4), s9", ("RangeError", "tangency at 4 outside 1..2", "line 2, seq[2]")),
    ("s1, T(1), s1 s01 s9x", ("FormatError", "bad braid token 's9x'", "line 2")),
    ("T(1), T(1), s1, s1", ("FormatError", "two braid words in a row at 's1'", "line 2")),
    ("T(1), , s1 x", ("FormatError", "empty seq entry", "line 2")),
    ("s1, T(1), I(2..2), 1", ("RangeError", "intersection 2..2 outside 1..3", "line 2, seq[2]")),
])
def test_first_bad_entry_is_reported(seq, want):
    text = f"strands 3\nseq: {seq}\n"
    assert parse_outcome(parse_wire, text) == parse_outcome(reference_parse_wire, text) == want


def test_repeated_event_object_checks_the_first_bad_event_in_seq_order():
    # parse_wire hands the diagram one object per distinct event chunk; when
    # objects repeat, the first bad event in seq order is the one reported
    good, bad_t, bad_f = Tangency(1), Tangency(5), FreePoint(9)
    for events, message in [
        ((good, good, bad_t, good, bad_f), "tangency at 5 outside 1..2"),
        ((good, bad_f, good, bad_t, bad_f), "free point at 9 outside 1..3"),
        ((bad_t, good, bad_t), "tangency at 5 outside 1..2"),
    ]:
        with pytest.raises(RangeError) as exc:
            WiringDiagram(3, ((),) * (len(events) + 1), events)
        assert exc.value.message == message
    w = WiringDiagram(3, ((1,), (), (2,), ()), (good, Intersection(1, 3), good))
    assert w.walked == ((2, 1), (2, 1, 3), (2, 3))
