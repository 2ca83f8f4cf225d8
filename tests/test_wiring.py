import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandwich.errors import (
    ArcAtOuterError,
    FormatError,
    MultiplicityNotOneError,
    NoLayoutError,
    ProximityViolationError,
    RangeError,
)
from sandwich.mcg import (
    Factorization,
    HoleArc,
    HoleCurve,
    braid_permutation,
    canonical_curve,
    curve_holes,
    cyclic_canonical,
    exponent_sum,
    half_twist,
    inverse_word,
    reduce_word,
)
from sandwich.plumbing import _find, _union, cluster, germ_from_cluster
from sandwich.wiring import (
    EnclosureData,
    Event,
    FreePoint,
    Intersection,
    Tangency,
    WiringDiagram,
    _check_event,
    _component_summary,
    _numbered,
    boundary_braid,
    combine,
    enclosure_from_wiring,
    event_strands,
    factorization_from_json,
    factorization_json,
    incidence,
    incidence_json,
    inside_out,
    parse_wire,
    pushoffs,
    scott,
    serialize_wire,
    strand_components,
    validate_wiring,
    vanishing_data,
    wiring_from_vanishing,
)

from fixtures import arrangement, two_cusp_cluster, unexpected_layouts, unexpected_wires
from hurwitz import canonical_factorization, hurwitz_move
from matrices import from_rows
from random_clusters import rand_layouts
from random_diagrams import rand_diagram

FIG = """
strands 4
components A=2,3 B=1,4
seq: 1, T(2), s1' s3', T(2), 1, I(1..2), 1, I(1..2), 1, I(1..2), s3', I(2..3), s2', I(1..2), s3 s2, I(3..4), 1, I(1..3)
"""

# FIG with marked points added at the end: on B, which completes the
# figure; on A; on B twice; on A, then B twice
FIG_B = """
strands 4
components A=2,3 B=1,4
seq: 1, T(2), s1' s3', T(2), 1, I(1..2), 1, I(1..2), 1, I(1..2), s3', I(2..3), s2', I(1..2), s3 s2, I(3..4), 1, I(1..3), 1, F(2), 1
"""
FIG_A = """
strands 4
components A=2,3 B=1,4
seq: 1, T(2), s1' s3', T(2), 1, I(1..2), 1, I(1..2), 1, I(1..2), s3', I(2..3), s2', I(1..2), s3 s2, I(3..4), 1, I(1..3), 1, F(1), 1
"""
FIG_BB = """
strands 4
components A=2,3 B=1,4
seq: 1, T(2), s1' s3', T(2), 1, I(1..2), 1, I(1..2), 1, I(1..2), s3', I(2..3), s2', I(1..2), s3 s2, I(3..4), 1, I(1..3), 1, F(2), 1, F(2), 1
"""
FIG_ABB = """
strands 4
components A=2,3 B=1,4
seq: 1, T(2), s1' s3', T(2), 1, I(1..2), 1, I(1..2), 1, I(1..2), s3', I(2..3), s2', I(1..2), s3 s2, I(3..4), 1, I(1..3), 1, F(1), 1, F(2), 1, F(2), 1
"""

FIG_BOUNDARY = (2, 3, 1, 2, 1, 1, 1, 3, 2, 2, 1, -2, 1, 2, 1, 1, 2, 1,
                3, 3, 2, 1, -3, 1, 1, -3)


def figure():
    return parse_wire(FIG)


def exponent_law_terms(w: WiringDiagram) -> int:
    """Expected exponent sum of the boundary braid: s(s-1) per
    intersection on s strands, 1 per tangency."""
    total = 0
    for ev in w.events:
        if ev.kind == "I":
            s = ev.hi - ev.lo + 1
            total += s * (s - 1)
        elif ev.kind == "T":
            total += 1
    return total


def check_exponent_law(w: WiringDiagram) -> bool:
    return exponent_sum(boundary_braid(w)) == exponent_law_terms(w)


# ---------------------------------------------------------------------------
# format


class TestWireFormat:
    def test_figure_parses(self):
        w = figure()
        assert w.n == 4
        assert w.components == ("B", "A", "A", "B")
        assert len(w.events) == 9
        assert len(w.braids) == 10
        assert w.braids[1] == (-1, -3)

    def test_serialize_roundtrip_figure(self):
        w = figure()
        again = parse_wire(serialize_wire(w))
        assert again == w
        # serializing is idempotent text-wise
        assert serialize_wire(again) == serialize_wire(w)

    def test_serialize_sorted_components_and_explicit_ones(self):
        text = serialize_wire(figure())
        assert "components A=2,3 B=1,4" in text
        assert "seq: 1, T(2)" in text

    def test_statements_split_on_semicolons_and_comments(self):
        w = parse_wire("strands 2 ; # trailing\nseq: 1, T(1), 1 # end\n")
        assert w.n == 2 and w.events[0].kind == "T"

    def test_implicit_empty_braids(self):
        a = parse_wire("strands 2\nseq: T(1), I(1..2)\n")
        b = parse_wire("strands 2\nseq: 1, T(1), 1, I(1..2), 1\n")
        assert a == b

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse_wire("seq: 1, T(1), 1\n")

    def test_double_braid_chunk(self):
        with pytest.raises(FormatError) as ei:
            parse_wire("strands 2\nseq: 1, T(1) I(1..2), 1\n")
        assert "line 2" in str(ei.value.location)

    def test_components_must_partition(self):
        with pytest.raises(FormatError):
            parse_wire("strands 2\ncomponents A=1\nseq: 1, T(1), 1\n")

    def test_empty_components_group(self):
        with pytest.raises(FormatError) as ei:
            parse_wire("# header\nstrands 2\ncomponents A=1,2 B=\nseq: 1, T(1), 1\n")
        assert (ei.value.message, ei.value.location) == ("bad components group 'B='", "line 3")
        # empty entries between positions are still skipped
        assert parse_wire("strands 2\ncomponents A=1,,2\nseq: 1\n").components == ("A", "A")

    @pytest.mark.parametrize("text, message, location", [
        # header keywords match whole words, not prefixes
        ("strandsfoo 3\nseq: 1\n", "unrecognized statement 'strandsfoo 3'", "line 1"),
        ("strands 3\ncomponentsX A=1,2,3\nseq: 1\n",
         "unrecognized statement 'componentsX A=1,2,3'", "line 2"),
        # exactly one integer after strands
        ("strands 3 4\nseq: 1\n", "bad strands line 'strands 3 4'", "line 1"),
        ("strands\nseq: 1\n", "bad strands line 'strands'", "line 1"),
        ("strands x\nseq: 1\n", "bad strands line 'strands x'", "line 1"),
        # a second strands line is rejected like a second seq
        ("strands 2\nstrands 3\nseq: 1\n", "duplicate strands", "line 2"),
        ("strands 2; strands 2\nseq: 1\n", "duplicate strands", "line 1"),
        ("strands 2\nseq: 1\nseq: 1\n", "duplicate seq", "line 3"),
    ])
    def test_header_keywords_are_exact(self, text, message, location):
        with pytest.raises(FormatError) as ei:
            parse_wire(text)
        assert (ei.value.message, ei.value.location) == (message, location)

    def test_header_keywords_still_split_on_whitespace(self):
        w = parse_wire("strands\t3\ncomponents  A=1,2\tB=3\nseq: 1\n")
        assert w.n == 3 and w.components == ("A", "A", "B")

    def test_event_out_of_range(self):
        with pytest.raises(RangeError):
            parse_wire("strands 2\nseq: 1, I(2..1), 1\n")
        with pytest.raises(RangeError):
            WiringDiagram(2, ((), ()), (Tangency(2),))

    def test_braid_letter_out_of_range(self):
        with pytest.raises(RangeError):
            parse_wire("strands 2\nseq: s1 s3, T(1), 1\n")

    def test_braid_letters_checked_before_reduction(self):
        # s3 s3' cancels, but s3 needs four strands
        with pytest.raises(RangeError, match="braid letter 3 outside strand range 1..1"):
            parse_wire("strands 2\nseq: s3 s3', T(1), 1\n")
        with pytest.raises(RangeError):
            WiringDiagram(2, ((), (1, 2, -2)), (Tangency(1),))

    def test_random_roundtrips(self):
        rng = random.Random(20260815)
        kinds = set()
        for _ in range(500):
            w = rand_diagram(rng)
            text = serialize_wire(w)
            assert parse_wire(text) == w
            chunks = text.split("seq: ")[1].strip().split(", ")[1::2]
            assert [(ev.lo, ev.hi) for ev in w.events] == list(map(reference_window, chunks))
            kinds.update(ev.kind for ev in w.events)
        assert kinds == {"T", "I", "F"}


# ---------------------------------------------------------------------------
# the event record


def reference_window(text: str) -> tuple[int, int]:
    """The window the earlier event classes gave the ``.wire`` event
    ``text``: T(p) touched p..p+1, I(lo..hi) lo..hi and F(p) p alone."""
    numbers = [int(x) for x in re.findall(r"\d+", text)]
    if text[0] == "T":
        return numbers[0], numbers[0] + 1
    if text[0] == "I":
        return numbers[0], numbers[1]
    return numbers[0], numbers[0]


class TestEvent:
    @pytest.mark.parametrize("ev, message", [
        (Event("T", 1, 3), "window 1..3 does not fit kind T"),
        (Event("T", 2, 2), "window 2..2 does not fit kind T"),
        (Event("F", 2, 3), "window 2..3 does not fit kind F"),
        (Event("I", 2, 2), "intersection 2..2 outside 1..4"),
        (Event("I", 3, 2), "intersection 3..2 outside 1..4"),
        (Event("X", 1, 2), "not a singularity: Event(kind='X', lo=1, hi=2)"),
        (Event("TI", 1, 2), "not a singularity: Event(kind='TI', lo=1, hi=2)"),
        ((1, 2), "not a singularity: (1, 2)"),
    ])
    def test_check_rejects_a_record_that_does_not_fit(self, ev, message):
        with pytest.raises(RangeError) as exc:
            _check_event(ev, 4)
        assert exc.value.message == message
        with pytest.raises(RangeError) as exc:
            WiringDiagram(4, ((), ()), (ev,))
        assert exc.value.message == message


# ---------------------------------------------------------------------------
# strand bookkeeping


class TestStrands:
    def test_figure_event_strands_first_tangency(self):
        ev, ids = event_strands(figure())[0]
        assert ev.kind == "T" and set(ids) == {2, 3}

    def test_tangency_component_inference(self):
        w = parse_wire("strands 3\nseq: 1, T(1), 1\n")
        assert strand_components(w) == ("c1", "c1", "c2")

    def test_figure_partition_forced(self):
        # dropping the explicit labels must re-derive the same split
        w = figure()
        bare = WiringDiagram(w.n, w.braids, w.events)
        got = strand_components(bare)
        assert got[1] == got[2] and got[0] == got[3] and got[0] != got[1]


# ---------------------------------------------------------------------------
# the earlier per-call strand walk, kept as an oracle


def reference_apply_perm(state, word, n):
    perm = braid_permutation(word, n)
    out = [0] * n
    for p in range(n):
        out[perm[p] - 1] = state[p]
    return out


def reference_states(n, braids, events):
    state = list(range(1, n + 1))
    out = []
    for i, _ in enumerate(events):
        state = reference_apply_perm(state, braids[i], n)
        out.append(state)
    return out


def reference_event_strands(w):
    states = reference_states(w.n, w.braids, w.events)
    out = []
    for ev, state in zip(w.events, states):
        if ev.kind == "T":
            ids = (state[ev.lo - 1], state[ev.lo])
        elif ev.kind == "I":
            ids = tuple(state[ev.lo - 1 : ev.hi])
        else:
            ids = (state[ev.lo - 1],)
        out.append((ev, ids))
    return out


def reference_infer_components(n, braids, events):
    parent = list(range(n + 1))
    state = list(range(1, n + 1))
    for i, ev in enumerate(events):
        state = reference_apply_perm(state, braids[i], n)
        if ev.kind == "T":
            _union(parent, state[ev.lo - 1], state[ev.lo])
    roots = sorted({_find(parent, s) for s in range(1, n + 1)})
    names = {r: f"c{i}" for i, r in enumerate(roots, start=1)}
    return tuple(names[_find(parent, s)] for s in range(1, n + 1))


def reference_incidence(w):
    event_ids = reference_event_strands(w)
    labels = sorted(w.component_strands())
    rows = {label: [] for label in labels}
    kinds = []
    for ev, ids in event_ids:
        if ev.kind == "T":
            continue
        kinds.append("free" if ev.kind == "F" else "intersection")
        for label in labels:
            rows[label].append(sum(1 for s in ids if w.components[s - 1] == label))
    return from_rows(
        tuple(labels), tuple(tuple(rows[label]) for label in labels), tuple(kinds)
    )


def reference_component_summary(w, event_ids):
    groups = w.component_strands()
    rows = {label: 0 for label in groups}
    self_pairs = {label: 0 for label in groups}
    cross = {}
    for ev, ids in event_ids:
        if ev.kind == "T":
            continue
        counts = {}
        for s in ids:
            counts[w.components[s - 1]] = counts.get(w.components[s - 1], 0) + 1
        for label, k in counts.items():
            rows[label] += k
            self_pairs[label] += k * (k - 1) // 2
        items = sorted(counts.items())
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                key = (items[i][0], items[j][0])
                cross[key] = cross.get(key, 0) + items[i][1] * items[j][1]
    strands = {label: len(s) for label, s in groups.items()}
    return strands, rows, self_pairs, cross


def _outcome(f, *args):
    try:
        return "ok", f(*args)
    except Exception as exc:
        return "error", type(exc), str(exc)


def assert_matches_reference(w):
    assert event_strands(w) == reference_event_strands(w)
    assert _outcome(incidence, w) == _outcome(reference_incidence, w)
    labels, number = _numbered(w)
    sums, selfs, cross = _component_summary(number, len(labels), event_strands(w))
    strands, rows, self_pairs, pairs = reference_component_summary(w, reference_event_strands(w))
    assert labels == tuple(sorted(strands))
    assert sums == [rows[x] for x in labels] and selfs == [self_pairs[x] for x in labels]
    assert cross == [[pairs.get((min(x, y), max(x, y)), 0) for y in labels] for x in labels]


def assert_table_matches_incidence(w):
    """The component table that ``validate_wiring`` builds, read off the
    incidence matrix: row sums, c(c-1)/2 summed along each row, and the dot
    product of each pair of rows over the columns."""
    labels, number = _numbered(w)
    sums, selfs, cross = _component_summary(number, len(labels), event_strands(w))
    m = incidence(w)
    assert labels == m.components
    assert sums == [sum(row) for row in m.rows]
    assert selfs == [sum(c * (c - 1) // 2 for c in row) for row in m.rows]
    assert cross == [[sum(map(int.__mul__, r, s)) if i != k else 0 for k, s in enumerate(m.rows)]
                     for i, r in enumerate(m.rows)]


def declared_labels(rng, w):
    """Component labels for ``w``: its inferred classes merged at random
    (tangencies stay inside components) or, now and then, any labels."""
    if rng.random() < 0.2:
        return tuple(rng.choice("XY") for _ in range(w.n))
    merged = {c: rng.choice("ABC") for c in set(w.components)}
    return tuple(merged[c] for c in w.components)


class TestStrandWalkOracle:
    def test_random_inferred_components(self):
        rng = random.Random(20261018)
        for _ in range(300):
            w = rand_diagram(rng, max_n=7, max_events=10)
            assert w.components == reference_infer_components(w.n, w.braids, w.events)
            assert_matches_reference(w)

    def test_random_declared_components(self):
        rng = random.Random(7)
        for _ in range(300):
            w = rand_diagram(rng, max_n=7, max_events=10)
            x = WiringDiagram(w.n, w.braids, w.events, declared_labels(rng, w))
            assert_matches_reference(x)

    def test_figure(self):
        for w in (figure(), parse_wire(FIG_ABB)):
            assert_matches_reference(w)


class TestComponentTable:
    def test_random_diagrams(self):
        rng = random.Random(35)
        for _ in range(300):
            w = rand_diagram(rng, max_n=7, max_events=10)
            assert_table_matches_incidence(w)
            assert_table_matches_incidence(WiringDiagram(w.n, w.braids, w.events, declared_labels(rng, w)))

    def test_unexpected_pair_and_triple(self):
        for w in unexpected_layouts():
            assert_table_matches_incidence(w)


@st.composite
def diagrams(draw):
    n = draw(st.integers(1, 6))
    if n == 1:
        words = st.just(())
        events = st.builds(FreePoint, st.just(1))
    else:
        letter = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
        words = st.lists(letter, max_size=5).map(tuple)
        window = st.integers(1, n - 1).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, n)))
        events = st.one_of(
            st.builds(FreePoint, st.integers(1, n)),
            st.builds(Tangency, st.integers(1, n - 1)),
            window.map(lambda t: Intersection(*t)),
        )
    evs = draw(st.lists(events, max_size=8))
    braids = draw(st.lists(words, min_size=len(evs) + 1, max_size=len(evs) + 1))
    labels = draw(st.one_of(
        st.just(()), st.lists(st.sampled_from("AB"), min_size=n, max_size=n)
    ))
    return WiringDiagram(n, tuple(braids), tuple(evs), tuple(labels))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(diagrams())
def test_strand_walk_properties(w):
    bare = WiringDiagram(w.n, w.braids, w.events)
    assert bare.components == reference_infer_components(w.n, w.braids, w.events)
    for x in (w, bare):
        assert_matches_reference(x)
        assert parse_wire(serialize_wire(x)) == x


# ---------------------------------------------------------------------------
# boundary braid and pushoffs


def reference_pushoffs(w):
    """``pushoffs`` as first written: each event's half twist and braid
    word prepended to the growing words, O(E·L) in all."""
    top = bottom = ()
    for b, ev in zip(w.braids, w.events):
        bottom = (() if ev.kind == "T" else half_twist(ev.lo, ev.hi)) + b + bottom
        top = inverse_word(half_twist(ev.lo, ev.hi)) + b + top
    return reduce_word(w.braids[-1] + top), reduce_word(w.braids[-1] + bottom)


class TestBoundary:
    def test_pushoffs_match_reference(self):
        # random diagrams, Scott layouts, arrangements up to 40 lines and
        # the unexpected wires
        diagrams = [*trusted_path_diagrams(), *(arrangement(m) for m in (24, 32, 40))]
        for w in diagrams:
            assert pushoffs(w) == reference_pushoffs(w)

    def test_lone_tangency_is_positive_half_twist(self):
        w = parse_wire("strands 2\nseq: 1, T(1), 1\n")
        assert boundary_braid(w) == (1,)

    def test_lone_double_point_is_full_twist(self):
        w = parse_wire("strands 2\nseq: 1, I(1..2), 1\n")
        assert boundary_braid(w) == (1, 1)

    def test_free_point_contributes_nothing(self):
        w = parse_wire("strands 2\nseq: 1, F(1), 1, F(2), 1\n")
        assert boundary_braid(w) == ()

    def test_tangency_pushoff_sides(self):
        w = parse_wire("strands 2\nseq: 1, T(1), 1\n")
        top, bottom = pushoffs(w)
        assert top == (-1,) and bottom == ()

    def test_figure_boundary_frozen(self):
        b = boundary_braid(figure())
        assert b == FIG_BOUNDARY
        assert exponent_sum(b) == 20

    def test_exponent_law_on_figure(self):
        assert check_exponent_law(figure())

    def test_exponent_law_random(self):
        rng = random.Random(4)
        for _ in range(80):
            w = rand_diagram(rng)
            assert check_exponent_law(w)

    def test_braids_cancel_in_boundary(self):
        # conjugating the whole diagram by a leading braid never changes
        # the exponent sum, and pure insertions cancel entirely
        w = parse_wire("strands 3\nseq: s1, I(1..2), s2', T(2), 1\n")
        x = parse_wire("strands 3\nseq: s1 s2 s2', I(1..2), s2', T(2), 1\n")
        assert boundary_braid(w) == boundary_braid(x)


# ---------------------------------------------------------------------------
# vanishing data


def reference_conjugators(w):
    """The conjugators of ``vanishing_data`` as first computed: the whole
    prefix freely reduced again at every event."""
    out, prefix, lam = [], (), ()
    for b, ev in zip(w.braids, w.events):
        prefix = reduce_word(b + lam + prefix)
        out.append(prefix)
        lam = half_twist(ev.lo, ev.hi) if ev.kind == "I" else ()
    return out


def reference_braids(fact):
    """The braids of ``wiring_from_vanishing`` as first computed."""
    out, prefix, lam = [], (), ()
    for item in fact.items:
        b = reduce_word(item.conjugator + inverse_word(prefix) + inverse_word(lam))
        out.append(b)
        prefix = reduce_word(b + lam + prefix)
        lam = half_twist(item.start, item.start + item.span) if item.kind == "cycle" and item.span else ()
    return out + [()]


def checked_items(fact):
    """The items of ``fact`` rebuilt through the checked constructors,
    which check and reduce each conjugator."""
    return tuple(HoleArc(c.n, c.conjugator, c.start, c.twists) if c.kind == "arc"
                 else HoleCurve(c.n, c.conjugator, c.start, c.span, c.twists) for c in fact.items)


def trusted_path_diagrams():
    """500 random diagrams, the Scott layouts of random clusters, generic
    arrangements of up to 16 lines and ``unexpected`` at N = 1, 2."""
    rng = random.Random(26)
    yield from (rand_diagram(rng, max_n=7, max_events=12) for _ in range(500))
    yield from rand_layouts(rng)
    yield from (arrangement(m) for m in range(1, 17))
    yield from unexpected_wires()


class TestVanishing:
    def test_trusted_items_equal_the_checked_ones(self):
        # vanishing_data builds its items as records, with no check of their
        # conjugators: the checked constructors must give the same items
        for w in trusted_path_diagrams():
            fact = vanishing_data(w)
            assert fact.items == checked_items(fact)
            assert factorization_from_json(factorization_json(fact)) == fact

    def test_two_intersection_example(self):
        w = parse_wire("strands 3\nseq: 1, I(1..2), 1, I(2..3), 1\n")
        fact = vanishing_data(w)
        assert len(fact.items) == 2
        v1, v2 = fact.items
        assert canonical_curve(v1) == (1, 2)
        assert canonical_curve(v2) == cyclic_canonical(reduce_word((1, 2, 3, -2)))

    def test_figure_items_shape(self):
        fact = vanishing_data(figure())
        assert len(fact.items) == 9

    def test_roundtrip_figure(self):
        w = figure()
        fact = vanishing_data(w)
        back = wiring_from_vanishing(fact)
        assert canonical_factorization(vanishing_data(back)) == canonical_factorization(fact)
        assert boundary_braid(back) == boundary_braid(w)

    def test_roundtrip_random(self):
        rng = random.Random(99)
        for _ in range(200):
            w = rand_diagram(rng)
            fact = vanishing_data(w)
            back = wiring_from_vanishing(fact)
            assert canonical_factorization(vanishing_data(back)) == canonical_factorization(fact)
            assert boundary_braid(back) == boundary_braid(w)

    def test_prefix_joins_match_the_reference(self):
        rng = random.Random(86)
        diagrams = [rand_diagram(rng, max_n=7, max_events=12) for _ in range(500)]
        for w in diagrams + [arrangement(m) for m in range(1, 13)]:
            fact = vanishing_data(w)
            assert [c.conjugator for c in fact.items] == reference_conjugators(w)
            shuffled = Factorization(fact.n, tuple(rng.sample(fact.items, len(fact.items))))
            for f in (fact, shuffled):
                assert list(wiring_from_vanishing(f).braids) == reference_braids(f)

    def test_all_convex_gives_unbraided(self):
        w = parse_wire("strands 3\nseq: 1, I(1..2), 1, F(3), 1\n")
        back = wiring_from_vanishing(vanishing_data(w))
        assert all(b == () for b in back.braids)

    def test_single_free_item(self):
        w = parse_wire("strands 3\nseq: 1, F(2), 1\n")
        fact = vanishing_data(w)
        back = wiring_from_vanishing(fact)
        assert back.events == (FreePoint(2),)

    def test_hurwitz_moves_preserve_boundary(self):
        w = figure()
        fact = vanishing_data(w)
        rng = random.Random(7)
        cur = fact
        for _ in range(40):
            i = rng.randint(1, len(cur.items) - 1)
            cur = hurwitz_move(cur, i, rng.choice(["forward", "backward"]))
        back = wiring_from_vanishing(cur)
        assert boundary_braid(back) == boundary_braid(w)

    def test_twisted_items_rejected(self):
        w = parse_wire("strands 2\nseq: 1, I(1..2), 1\n")
        fact = vanishing_data(w)
        item = fact.items[0]
        bad = fact.__class__(fact.n, (HoleCurve(item.n, item.conjugator, item.start, item.span, (1, 0, 0)),))
        with pytest.raises(RangeError):
            wiring_from_vanishing(bad)

    def test_factorization_json_roundtrip(self):
        fact = vanishing_data(figure())
        again = factorization_from_json(factorization_json(fact))
        assert canonical_factorization(again) == canonical_factorization(fact)

    def test_arc_span_other_than_one_is_refused(self):
        # an arc spans one gap: "span": 1 reads as the arc without it, and is
        # written back without it; any other span is the record's range
        # error, located at the item, before its base is looked at
        def read(start=1, **extra):
            items = [{"kind": "cycle", "start": 1}, {"kind": "arc", "start": start, **extra}]
            return factorization_from_json({"holes": 3, "items": items})

        assert read(span=1) == read() and read().items[1].span == 1
        assert "span" not in factorization_json(read(span=1))["items"][1]
        for span, start in ((7, 1), (0, 1), (2, 1), (-1, 2), (7, 3)):
            with pytest.raises(RangeError) as exc:
                read(start, span=span)
            assert exc.value.message == f"no item of kind 'arc' and span {span}"
            assert exc.value.location == "items[1]"
        with pytest.raises(FormatError, match="expected an integer, got True"):
            read(span=True)

    def test_factorization_json_keeps_twists(self):
        plain = Factorization(3, (HoleCurve(3, (), 1, 0), HoleArc(3, (), 1)))
        moved = hurwitz_move(plain, 1)
        assert moved.items[0].twists == (-2, 2, 0, 0)
        data = factorization_json(moved)
        assert data["items"][0]["twists"] == [-2, 2, 0, 0]
        assert "twists" not in data["items"][1]
        assert factorization_from_json(data) == moved
        assert all("twists" not in d for d in factorization_json(plain)["items"])


# ---------------------------------------------------------------------------
# incidence and validation


class TestIncidence:
    def test_figure_matrix(self):
        inc = incidence(figure())
        assert inc.components == ("A", "B")
        assert inc.rows == ((1, 1, 1, 1, 2, 1, 1), (1, 1, 1, 1, 0, 1, 2))
        assert inc.kinds == ("intersection",) * 7

    def test_free_point_needed_for_germ(self):
        w = figure()
        g = germ_from_cluster(two_cusp_cluster())
        assert not validate_wiring(w, germ=g).ok
        wf = parse_wire(FIG_B)
        assert wf.events[-1] == FreePoint(2)
        rep = validate_wiring(wf, germ=g)
        assert rep.ok, rep.problems
        inc = incidence(wf)
        assert [sum(r) for r in inc.rows] == [8, 8]

    def test_any_other_free_point_count_fails(self):
        w = figure()
        g = germ_from_cluster(two_cusp_cluster())
        assert not validate_wiring(parse_wire(FIG_BB), germ=g).ok
        assert not validate_wiring(parse_wire(FIG_A), germ=g).ok

    def test_cross_and_self_sums(self):
        inc = incidence(figure())
        a, b = inc.rows
        cross = sum(x * y for x, y in zip(a, b))
        self_a = sum(x * (x - 1) // 2 for x in a)
        self_b = sum(y * (y - 1) // 2 for y in b)
        assert (cross, self_a, self_b) == (7, 1, 1)

    def test_trivial_letter_insertion_invariance(self):
        rng = random.Random(11)
        for _ in range(60):
            w = rand_diagram(rng)
            if w.n < 2:
                continue
            i = rng.randrange(len(w.braids))
            s = rng.randint(1, w.n - 1)
            braids = list(w.braids)
            braids[i] = braids[i] + (s, -s)
            x = WiringDiagram(w.n, tuple(braids), w.events, w.components)
            assert incidence(x) == incidence(w)

    def test_incidence_json_shape(self):
        data = incidence_json(incidence(figure()))
        assert data["components"] == ["A", "B"]
        assert data["rows"] == [[1, 1, 1, 1, 2, 1, 1], [1, 1, 1, 1, 0, 1, 2]]


# ---------------------------------------------------------------------------
# scott


class TestScott:
    def test_two_cusp_layout(self):
        w = scott(two_cusp_cluster())
        assert serialize_wire(w) == (
            "strands 4\n"
            "components A=1,2 B=3,4\n"
            "seq: 1, T(1), 1, T(3), 1, F(2), 1, F(3), 1, F(2), 1, F(3), 1, "
            "F(2), 1, F(3), 1, I(2..3), 1, I(2..3), 1, I(2..3), 1, I(1..4), 1\n"
        )

    def test_two_cusp_validates(self):
        c = two_cusp_cluster()
        w = scott(c)
        rep = validate_wiring(w, germ=germ_from_cluster(c))
        assert rep.ok, rep.problems
        inc = incidence(w)
        assert [sum(r) for r in inc.rows] == [8, 8]
        a, b = inc.rows
        assert sum(x * y for x, y in zip(a, b)) == 7
        assert sum(1 for e in w.events if e.kind == "T") == 2

    def test_pencil_of_three_lines(self):
        c = cluster(
            ["a", "b", "c"],
            [("p", None), ("qa", "p"), ("qb", "p"), ("qc", "p")],
            {"p": {"a": 1, "b": 1, "c": 1}, "qa": {"a": 1},
             "qb": {"b": 1}, "qc": {"c": 1}},
            weights=(2, 2, 2),
        )
        w = scott(c)
        assert w.events == (FreePoint(1), FreePoint(2), FreePoint(3),
                            Intersection(1, 3))
        assert validate_wiring(w, germ=germ_from_cluster(c)).ok

    def test_single_smooth_branch(self):
        c = cluster(["a"], [("p", None)], {"p": {"a": 1}}, weights=(1,))
        w = scott(c)
        assert w.n == 1 and w.events == (FreePoint(1),)

    def test_all_braids_empty(self):
        w = scott(two_cusp_cluster())
        assert all(b == () for b in w.braids)

    def test_deepest_first_ordering(self):
        # the root multipoint comes last
        w = scott(two_cusp_cluster())
        assert w.events[-1] == Intersection(1, 4)

    def test_branch_ending_thick_rejected(self):
        c = cluster(["a"], [("p", None)], {"p": {"a": 2}}, weights=(2,))
        with pytest.raises(ProximityViolationError):
            scott(c)

    def test_interior_shrink_rejected(self):
        c = cluster(
            ["a", "b", "c"],
            [("p", None), ("q", "p"), ("ta", "q"), ("tb", "q"), ("tc", "q")],
            {"p": {"a": 1, "b": 2, "c": 1}, "q": {"a": 1, "b": 1, "c": 1},
             "ta": {"a": 1}, "tb": {"b": 1}, "tc": {"c": 1}},
        )
        with pytest.raises(NoLayoutError):
            scott(c)

    def test_random_tame_clusters_validate(self):
        rng = random.Random(31)
        for _ in range(40):
            c = rand_tame_cluster(rng)
            w = scott(c)
            rep = validate_wiring(w, germ=germ_from_cluster(c))
            assert rep.ok, rep.problems
            assert all(b == () for b in w.braids)


def rand_tame_cluster(rng):
    """Root with 1..3 branches; each branch a private chain dropping to
    multiplicity 1; occasionally two branches share a depth-1 point."""
    k = rng.randint(1, 3)
    names = ["a", "b", "c"][:k]
    ds = [rng.choice([1, 1, 2]) for _ in range(k)]
    points = [("p0", None)]
    mults = {"p0": {b: d for b, d in zip(names, ds)}}
    share = k >= 2 and rng.random() < 0.4
    if share:
        points.append(("ps", "p0"))
        mults["ps"] = {names[0]: 1, names[1]: 1}
    for i, b in enumerate(names):
        prev = "ps" if share and i < 2 else "p0"
        length = rng.randint(1, 3)
        for j in range(length):
            pid = f"{b}{j}"
            points.append((pid, prev))
            mults[pid] = {b: 1}
            prev = pid
    return cluster(names, points, mults)


# ---------------------------------------------------------------------------
# combine


class TestCombine:
    def test_two_single_strands(self):
        wa = parse_wire("strands 1\ncomponents X=1\nseq: 1, F(1), 1\n")
        wb = parse_wire("strands 1\ncomponents Y=1\nseq: 1, F(1), 1\n")
        w = combine(wa, wb)
        assert w.n == 2
        assert sum(1 for e in w.events if e.kind == "I") == 1

    def test_pair_count(self):
        wa = parse_wire("strands 2\ncomponents X=1,2\nseq: 1, T(1), 1\n")
        wb = parse_wire("strands 1\ncomponents Y=1\nseq: 1, F(1), 1\n")
        w = combine(wa, wb)
        assert sum(1 for e in w.events if e.kind == "I") == 2

    def test_row_sums_shift(self):
        wa = figure()
        wb = parse_wire("strands 1\ncomponents L=1\nseq: 1, F(1), 1\n")
        w = combine(wa, wb)
        inc = incidence(w)
        by = dict(zip(inc.components, (sum(r) for r in inc.rows)))
        assert by["A"] == 8 + 2  # each pair event adds strand count x other n
        assert by["B"] == 7 + 2
        assert by["L"] == 1 + 4

    def test_label_collision(self):
        wa = parse_wire("strands 1\ncomponents X=1\nseq: 1, F(1), 1\n")
        with pytest.raises(RangeError):
            combine(wa, wa)

    def test_parts_keep_their_events_and_rows(self):
        # after the wa.n * wb.n leading double points come wb's events, then
        # wa's shifted up by wb.n; each part's rows over its own columns are
        # its incidence matrix
        wa = parse_wire("strands 2\ncomponents X=1,2\nseq: 1, T(1), 1, I(1..2), 1\n")
        wb = parse_wire("strands 3\ncomponents Y=1 Z=2,3\nseq: 1, F(1), s2, T(2), 1, I(1..3), 1\n")
        w = combine(wa, wb)
        lead = wa.n * wb.n
        assert all(e.kind == "I" for e in w.events[:lead])
        assert w.events[lead:] == wb.events + (Tangency(4), Intersection(4, 5))
        inc = incidence(w)
        start = lead
        for part in (wb, wa):
            own = incidence(part)
            cols = slice(start, start + len(own.kinds))
            assert tuple(inc.rows[inc.components.index(label)][cols] for label in own.components) == own.rows
            assert inc.kinds[cols] == own.kinds
            start = cols.stop
        assert start == len(inc.kinds)

    def test_one_object_per_distinct_event(self):
        # scott builds one point event per window, combine one intersection
        # per crossing window and one shifted event per distinct event of the
        # upper part, and parse_wire one event per distinct chunk
        layouts = rand_layouts(random.Random(28))
        assert sum(len(w.events) - len(set(w.events)) for w in layouts) > 400
        wa = parse_wire("strands 2\ncomponents X=1,2\nseq: 1, T(1), 1, T(1), 1, I(1..2), 1\n")
        wb = parse_wire("strands 2\ncomponents Y=1 Z=2\nseq: 1, F(1), 1, F(2), 1\n")
        for w in [*layouts, *unexpected_layouts(), *unexpected_wires(), combine(wa, wb)]:
            assert len({id(e) for e in w.events}) == len(set(w.events))


# ---------------------------------------------------------------------------
# enclosure data and inside-out


class TestInsideOut:
    def test_wiring_and_factorization_paths_agree(self):
        rng = random.Random(13)
        for _ in range(40):
            w = rand_diagram(rng)
            items = tuple((c.kind, curve_holes(c)) for c in vanishing_data(w).items)
            assert enclosure_from_wiring(w) == EnclosureData(w.n, w.components, items)

    def test_quoted_rule(self):
        e = EnclosureData(5, ("a", "a", "b", "c", "c"),
                          (("cycle", frozenset({2, 3})),))
        t = inside_out(e, 3)
        assert t.items == (("cycle", frozenset({1, 3, 4, 5})),)

    def test_untouched_sets_remain(self):
        e = EnclosureData(5, ("a", "a", "b", "c", "c"),
                          (("cycle", frozenset({1, 4, 5})),))
        assert inside_out(e, 3).items == e.items

    def test_involution_random(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(2, 7)
            labels = [f"c{i}" for i in range(1, n + 1)]
            hole = rng.randint(1, n)
            items = []
            for _ in range(rng.randint(1, 5)):
                size = rng.randint(1, n)
                items.append(("cycle", frozenset(rng.sample(range(1, n + 1), size))))
            e = EnclosureData(n, tuple(labels), tuple(items))
            assert inside_out(inside_out(e, hole), hole).items == e.items

    def test_multiplicity_guard(self):
        e = EnclosureData(3, ("a", "a", "b"), ())
        with pytest.raises(MultiplicityNotOneError):
            inside_out(e, 1)

    def test_arc_guard(self):
        e = EnclosureData(3, ("a", "b", "c"), (("arc", frozenset({1, 2})),))
        with pytest.raises(ArcAtOuterError):
            inside_out(e, 2)
