"""The one random cluster generator the test modules share, and the Scott
layouts of its clusters."""

import itertools

from sandwich.errors import SandwichError
from sandwich.plumbing import cluster
from sandwich.wiring import scott


def rand_cluster(rng):
    """One to three branches on a random tree of infinitely near points,
    some satellites among them; each branch ends in a private free point
    and every multiplicity is the proximity sum of the points below it (at
    least 1), so the cluster has a plumbing graph with arrows."""
    branches = [f"c{i}" for i in range(rng.randint(1, 3))]
    counter = itertools.count()
    points = []

    def grow(parent, extra, bset, depth):
        pid = f"q{next(counter)}"
        points.append((pid, parent, extra, frozenset(bset)))
        if depth <= 0 or (len(bset) == 1 and rng.random() < 0.5):
            for b in sorted(bset):
                points.append((f"f{b}.{next(counter)}", pid, (), frozenset([b])))
            return
        parts = {}
        for b in bset:
            parts.setdefault(rng.randrange(min(len(bset), 2)), set()).add(b)
        # children may sit where this point's curve meets an older one,
        # but each such slot holds at most one point
        pool = list((((parent,) if parent is not None else ()) + extra))
        rng.shuffle(pool)
        for _, part in sorted(parts.items()):
            child_extra = ()
            if pool and rng.random() < 0.35:
                child_extra = (pool.pop(),)
            grow(pid, child_extra, part, depth - 1)

    grow(None, (), set(branches), rng.randint(1, 3))

    mults = {pid: {} for pid, _, _, _ in points}
    for pid, _, _, bset in reversed(points):
        for b in bset:
            below = sum(
                mults[rid].get(b, 0)
                for rid, rparent, rextra, _ in points
                if pid == rparent or pid in rextra
            )
            mults[pid][b] = max(below, 1)
    triples = [(pid, parent, extra) for pid, parent, extra, _ in points]
    return cluster(branches, triples, mults)


def rand_layouts(rng, tries=200):
    """The Scott layouts of ``tries`` random clusters, less the clusters
    that have none (a branch that shrinks inside a window); at least half
    have one."""
    layouts = []
    for _ in range(tries):
        try:
            layouts.append(scott(rand_cluster(rng)))
        except SandwichError:
            pass
    assert len(layouts) >= tries // 2
    return layouts
