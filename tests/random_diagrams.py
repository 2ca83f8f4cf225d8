"""The one random wiring-diagram generator the test modules share."""

from sandwich.wiring import FreePoint, Intersection, Tangency, WiringDiagram


def rand_diagram(rng, max_n=5, max_events=8) -> WiringDiagram:
    """Up to ``max_n`` strands and ``max_events`` events (free points,
    tangencies, intersections), each event after a braid word of up to three
    letters of either sign; components inferred from the tangencies."""
    n = rng.randint(1, max_n)
    k = rng.randint(0, max_events)
    events = []
    braids = []
    for _ in range(k):
        braids.append(tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                            for _ in range(rng.randint(0, 3))) if n > 1 else ())
        kind = rng.random()
        if n == 1 or kind < 0.25:
            events.append(FreePoint(rng.randint(1, n)))
        elif kind < 0.5:
            events.append(Tangency(rng.randint(1, n - 1)))
        else:
            lo = rng.randint(1, n - 1)
            hi = rng.randint(lo + 1, n)
            events.append(Intersection(lo, hi))
    braids.append(tuple(rng.choice([1, -1]) * rng.randint(1, n - 1)
                        for _ in range(rng.randint(0, 3))) if n > 1 else ())
    return WiringDiagram(n, tuple(braids), tuple(events))
