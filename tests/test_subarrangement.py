"""``subarrangement`` against its earlier version, kept here verbatim as
``reference_subarrangement``: the per-kind event walk that the walk by
event windows replaced.  Both must give the same diagram, or the same
error, on random diagrams and random component subsets; the one
difference allowed is which label an error names when several are
unknown, which the reference took from set order."""

import random

import pytest

from sandwich.errors import RangeError, UnknownComponentError
from sandwich.mcg import Word, reduce_word
from sandwich.wiring import (
    FreePoint,
    Intersection,
    Singularity,
    Tangency,
    WiringDiagram,
    parse_wire,
    subarrangement,
)

from random_diagrams import rand_diagram

UNKNOWN = ("x", "y", "z", "q")


def reference_subarrangement(w: WiringDiagram, keep_components) -> WiringDiagram:
    """Delete the strands of every component not in ``keep_components``.
    Intersections survive only while two strands remain; marked points
    survive with their strand; tangencies of deleted strands drop."""
    keep_labels = set(keep_components)
    known = set(w.components)
    for label in keep_labels:
        if label not in known:
            raise UnknownComponentError(f"unknown component {label}")
    kept = {s for s in range(1, w.n + 1) if w.components[s - 1] in keep_labels}
    if not kept:
        raise RangeError("empty component subset")

    state = list(range(1, w.n + 1))
    braids: list[Word] = []
    events: list[Singularity] = []
    pending: list[int] = []  # chronological letters

    def flush():
        braids.append(reduce_word(tuple(reversed(pending))))
        pending.clear()

    def run_braid(word: Word):
        for a in reversed(word):
            j = abs(a)
            x, y = state[j - 1], state[j]
            if x in kept and y in kept:
                below = sum(1 for s in state[: j - 1] if s in kept)
                pending.append(below + 1 if a > 0 else -(below + 1))
            state[j - 1], state[j] = y, x

    for i, ev in enumerate(w.events):
        run_braid(w.braids[i])
        if isinstance(ev, Tangency):
            ids = [state[ev.pos - 1], state[ev.pos]]
            if all(s in kept for s in ids):
                flush()
                events.append(Tangency(sum(1 for s in state[: ev.pos - 1] if s in kept) + 1))
        elif isinstance(ev, Intersection):
            ids = [s for s in state[ev.lo - 1 : ev.hi] if s in kept]
            below = sum(1 for s in state[: ev.lo - 1] if s in kept)
            if len(ids) >= 2:
                flush()
                events.append(Intersection(below + 1, below + len(ids)))
        else:
            if state[ev.pos - 1] in kept:
                flush()
                events.append(FreePoint(sum(1 for s in state[: ev.pos - 1] if s in kept) + 1))
    run_braid(w.braids[-1])
    flush()
    labels = tuple(w.components[s - 1] for s in sorted(kept))
    return WiringDiagram(len(kept), tuple(braids), tuple(events), labels)


def outcome(f, w, keep):
    """The diagram, or the error class and message."""
    try:
        return f(w, keep)
    except (RangeError, UnknownComponentError) as exc:
        return type(exc), exc.message


def test_matches_the_reference_on_random_diagrams():
    rng = random.Random(20)
    kinds = set()
    for _ in range(3000):
        w = rand_diagram(rng, max_n=rng.randint(1, 7), max_events=rng.randint(0, 12))
        labels = sorted(set(w.components))
        keep = [c for c in labels if rng.random() < 0.6]
        if rng.random() < 0.2:
            keep += rng.sample(UNKNOWN, rng.randint(1, 3))
        rng.shuffle(keep)
        got, want = outcome(subarrangement, w, keep), outcome(reference_subarrangement, w, keep)
        unknown = sorted(set(keep) - set(labels))
        if len(unknown) > 1:
            # the reference names whichever unknown label its set yields first
            assert got == (UnknownComponentError, f"unknown component {unknown[0]}")
            assert want[0] is UnknownComponentError and want[1].split()[-1] in unknown
        else:
            assert got == want
        kinds.add(got[0] if isinstance(got, tuple) else WiringDiagram)
    assert kinds == {WiringDiagram, RangeError, UnknownComponentError}


@pytest.mark.parametrize("keep", [["A", "x", "y", "z", "q"], ["z", "y", "q", "x", "B"]])
def test_names_the_first_unknown_label(keep):
    w = parse_wire("strands 2\ncomponents A=1 B=2\nseq: 1, I(1..2), 1\n")
    with pytest.raises(UnknownComponentError, match="^unknown component q$"):
        subarrangement(w, keep)
