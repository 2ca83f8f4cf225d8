"""Plumbing graphs with curvetta arrows: blow-down with intersection
tracking, decorated-germ extraction, point clusters, graph surgeries,
and automorphisms.

Vertex names are opaque strings.  A blow-down adds one (-1) vertex per
arrow (named ``@<curvetta>``) and repeatedly contracts a (-1) curve,
updating euler numbers by ``e(v) += I(v,E)^2`` and the intersection table
by ``I(a,b) += I(a,E) * I(b,E)``.
"""

from __future__ import annotations

import functools
import heapq
import itertools

from .errors import (
    FormatError,
    InternalInconsistencyError,
    NotSandwichedError,
    ProximityViolationError,
    RangeError,
    WeightMismatchError,
)
from .lines import Ledger
from .records import frozen

ARROW_PREFIX = "@"


@frozen
class ValidationReport:
    entries: tuple[tuple[str, str], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.entries

    def codes(self) -> tuple[str, ...]:
        return tuple(code for code, _ in self.entries)


# ---------------------------------------------------------------------------
# graphs


@frozen
class PlumbingGraph:
    """Vertices with euler numbers, edges, and curvetta arrows ``(curvetta,
    vertex)``; whether an arrow's vertex exists is ``blow_down``'s to judge."""

    vertices: tuple[tuple[str, int], ...]
    edges: tuple[tuple[str, str], ...]
    arrows: tuple[tuple[str, str], ...]

    def __post_init__(self):
        names = self.names()
        known = set(names)
        if len(known) != len(names):
            raise RangeError("duplicate vertex name")
        norm = set()
        for a, b in self.edges:
            if a == b:
                raise RangeError(f"self-loop at {a}")
            if a not in known or b not in known:
                raise RangeError(f"edge ({a}, {b}) references unknown vertex")
            norm.add((a, b) if a < b else (b, a))
        object.__setattr__(self, "vertices", tuple((v, int(e)) for v, e in self.vertices))
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        curvettas = self.curvettas()
        if len(set(curvettas)) != len(curvettas):
            raise RangeError("duplicate curvetta name")
        object.__setattr__(self, "arrows", tuple((c, v) for c, v in self.arrows))

    def names(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.vertices)

    def curvettas(self) -> tuple[str, ...]:
        return tuple(c for c, _ in self.arrows)


def plumbing_graph(vertices, edges=(), arrows=()) -> PlumbingGraph:
    """Build a graph from a {name: euler} mapping or (name, euler) pairs."""
    return PlumbingGraph(tuple(vertices.items() if hasattr(vertices, "items") else vertices), tuple(edges),
                         tuple(arrows))


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent, a, b) -> bool:
    """Join the classes of a and b under the smaller root; False when they
    were one class already.  ``parent`` maps each element to its parent
    (a list over integers or a dict over names)."""
    a, b = _find(parent, a), _find(parent, b)
    parent[max(a, b)] = min(a, b)
    return a != b


# ---------------------------------------------------------------------------
# blow-down


@frozen
class BlowStep:
    curve: str
    mults: tuple[tuple[int, int], ...]  # (curvetta column, multiplicity), nonzero only
    prox: tuple[str, ...]
    simple: bool


@frozen
class BlowDownTrace:
    curvettas: tuple[str, ...]
    steps: tuple[BlowStep, ...]
    last_vertex: str | None
    pairwise: tuple[tuple[int, ...], ...]


def blow_down(g: PlumbingGraph) -> BlowDownTrace:
    """Contract (-1) curves until nothing remains, recording per-step
    curvetta multiplicities.  Ties break to the lexicographically smallest
    name.

    ``meet`` maps each curve and curvetta to its nonzero intersection
    numbers, so a contraction touches only the neighbours of the curve it
    removes.  ``euler`` holds the curves not yet contracted, and ``ones`` is
    a heap of (-1) curves with lazy deletion: euler numbers only grow, so a
    curve enters it at most once and leaves it for good.  One walk over the
    neighbours of each contracted curve updates the table, the euler
    numbers and the heap, and collects the step's record; the heap's keys
    are distinct names, so the order of pushes never moves a pop."""
    euler = dict(g.vertices)
    curvettas = g.curvettas()
    col = {c: k for k, c in enumerate(curvettas)}
    taken = set(euler) | set(curvettas)
    for cname, vname in g.arrows:
        if vname not in euler:
            raise RangeError(f"arrow for {cname} references unknown vertex {vname}")
        if cname in euler:
            raise RangeError(f"curvetta name {cname} collides with a vertex")
        arrow_vertex = ARROW_PREFIX + cname
        if arrow_vertex in taken:
            raise RangeError(f"name {arrow_vertex} is reserved for an arrow vertex")
        taken.add(arrow_vertex)

    graph_names = set(euler)
    meet = {x: {} for x in taken}  # name -> {name: intersection number}
    pairs = list(g.edges)
    for cname, vname in g.arrows:
        arrow_vertex = ARROW_PREFIX + cname
        euler[arrow_vertex] = -1
        pairs += [(arrow_vertex, vname), (cname, arrow_vertex)]
    for a, b in pairs:
        meet[a][b] = meet[b][a] = 1

    ones = [v for v, e in euler.items() if e == -1]
    heapq.heapify(ones)
    steps = []
    last_vertex = None
    while euler:
        while ones and euler.get(ones[0]) != -1:
            heapq.heappop(ones)
        if not ones:
            raise NotSandwichedError(
                "no (-1) curve available; remaining: "
                + ", ".join(f"{v}({euler[v]})" for v in sorted(euler))
            )
        e = heapq.heappop(ones)
        del euler[e]
        around = meet.pop(e)
        mults, prox, simple = [], [], True
        # a neighbour is a curve not yet contracted or a curvetta
        for x, m in around.items():
            del meet[x][e]
            if x in col:
                mults.append((col[x], m))
                continue
            prox.append(x)
            simple = simple and m == 1
            euler[x] += m * m
            if euler[x] == -1:
                heapq.heappush(ones, x)
        mults.sort()
        prox.sort()
        if len(around) > 1:
            for (x, a), (y, b) in itertools.combinations(around.items(), 2):
                meet[x][y] = meet[y][x] = meet[x].get(y, 0) + a * b
        steps.append(BlowStep(e, tuple(mults), tuple(prox), simple))
        if e in graph_names:
            last_vertex = e

    pairwise = tuple(
        tuple(0 if i == k else meet[a].get(b, 0) for k, b in enumerate(curvettas))
        for i, a in enumerate(curvettas)
    )
    return BlowDownTrace(curvettas, tuple(steps), last_vertex, pairwise)


# ---------------------------------------------------------------------------
# decorated germs


@frozen
class Branch:
    name: str
    multiplicity_seq: tuple[int, ...]
    weight: int
    origin_multiplicity: int
    delta: int
    sits_on: str


@frozen
class DecoratedGerm:
    branches: tuple[Branch, ...]
    root_vertex: str
    pairwise: tuple[tuple[int, ...], ...]

    @functools.cached_property
    def columns(self) -> dict[str, int]:
        """Branch name -> index into ``branches`` and ``pairwise``, built
        once per germ object."""
        return {b.name: i for i, b in enumerate(self.branches)}

    def _column(self, name: str) -> int:
        try:
            return self.columns[name]
        except KeyError:
            raise RangeError(f"unknown branch {name}") from None

    def branch(self, name: str) -> Branch:
        return self.branches[self._column(name)]

    def pair(self, a: str, b: str) -> int:
        return self.pairwise[self._column(a)][self._column(b)]


def delta(seq) -> int:
    """Sum of m(m-1)/2 over the multiplicity sequence."""
    if not seq or any(m <= 0 for m in seq):
        raise RangeError("multiplicity sequence must be nonempty and positive")
    return sum(m * (m - 1) // 2 for m in seq)


def germ_from_augmentation(g: PlumbingGraph) -> DecoratedGerm:
    """Blow down and assemble the decorated germ, cross-checking the final
    curvetta intersections against the Noether sums over shared steps."""
    return germ_from_trace(blow_down(g), g)


def germ_from_trace(trace: BlowDownTrace, g: PlumbingGraph) -> DecoratedGerm:
    """The decorated germ of ``trace``, a blow-down trace of ``g``; see
    ``germ_from_augmentation``."""
    if not g.arrows:
        raise RangeError("empty configuration has no germ")
    seqs: list[list[int]] = [[] for _ in g.arrows]
    for s in trace.steps:
        for i, m in s.mults:
            seqs[i].append(m)
    last = dict(trace.steps[-1].mults)
    branches = []
    for i, (cname, vname) in enumerate(g.arrows):
        seq = tuple(seqs[i])
        if not seq:
            raise InternalInconsistencyError(f"curvetta {cname} never met a contracted curve")
        if i not in last:
            raise InternalInconsistencyError(f"branch {cname} missed the final blow-down step")
        branches.append(Branch(cname, seq, sum(seq), last[i], delta(seq), vname))
    noether = _pair_sums((s.mults for s in trace.steps), len(branches))
    for i in range(len(branches)):
        for k in range(i + 1, len(branches)):
            if noether[i][k] != trace.pairwise[i][k]:
                raise InternalInconsistencyError(
                    f"Noether sum {noether[i][k]} != final intersection {trace.pairwise[i][k]} "
                    f"for ({branches[i].name}, {branches[k].name})"
                )
    return DecoratedGerm(tuple(branches), trace.last_vertex, trace.pairwise)


def _pair_sums(rows, nb: int) -> list[list[int]]:
    """Sum of a * b over the rows, for each pair i != k of the nb columns
    (0 on the diagonal); each row is an iterable of its nonzero (column,
    multiplicity) pairs."""
    sums = [[0] * nb for _ in range(nb)]
    for row in rows:
        for (i, a), (k, b) in itertools.combinations(row, 2):
            sums[i][k] += a * b
            sums[k][i] += a * b
    return sums


# ---------------------------------------------------------------------------
# clusters


@frozen
class ClusterPoint:
    id: str
    parent: str | None
    prox: tuple[str, ...] = ()


@frozen
class ClusterIndex:
    """Validated structure of a cluster, by point row.  Row 0 is the root
    and parents precede children, so each chain lists rows in order."""

    row: dict[str, int]  # point id -> row
    children: list[list[int]]
    proximate: list[list[int]]  # rows of the points proximate to each point
    chains: list[list[int]]  # support rows of each branch, root to leaf
    sums: tuple[int, ...]  # multiplicity sum of each branch


@frozen
class Cluster:
    """Points in row order; each point's row maps the column of every
    branch through it to its multiplicity, and holds no zeros.  The
    structure is validated and indexed once per object, by ``indexed``."""

    branches: tuple[str, ...]
    points: tuple[ClusterPoint, ...]
    mults: tuple[dict[int, int], ...]  # aligned with points
    weights: tuple[int, ...] | None = None

    @functools.cached_property
    def indexed(self) -> ClusterIndex:
        """The structure checks of ``check_cluster`` and the index they
        leave, built once per cluster object."""
        return _index_cluster(self)

    @functools.cached_property
    def germ_and_boundary(self) -> tuple[DecoratedGerm, tuple[int, ...]]:
        """The cluster's germ and the boundary braid of its Scott layout,
        the side of ``fillings.compatible`` that depends on the cluster
        alone, built once per cluster object.  A cluster that fails
        ``check_cluster`` raises on every read, since nothing is kept."""
        from .wiring import boundary_braid, scott  # wiring imports this module

        return germ_from_cluster(self), boundary_braid(scott(self))


def _prox_set(p: ClusterPoint) -> tuple[str, ...]:
    return ((p.parent,) if p.parent else ()) + p.prox


def _index_cluster(c: Cluster) -> ClusterIndex:
    ids = [p.id for p in c.points]
    if len(set(ids)) != len(ids):
        raise ProximityViolationError("duplicate cluster point id")
    seen: set[str] = set()
    for b in c.branches:
        if b in seen:
            raise ProximityViolationError(f"duplicate branch name {b}")
        seen.add(b)
    if not c.points:
        raise ProximityViolationError("empty cluster")
    row = {pid: i for i, pid in enumerate(ids)}
    roots = [p.id for p in c.points if p.parent is None]
    if len(roots) != 1:
        raise ProximityViolationError(f"expected one root point, found {roots}")

    children: list[list[int]] = [[] for _ in ids]
    proximate: list[list[int]] = [[] for _ in ids]
    satellite_slots: set[tuple[str, str]] = set()
    for i, p in enumerate(c.points):
        if p.parent is not None:
            if row.get(p.parent, i) >= i:
                raise ProximityViolationError(f"point {p.id} lists a parent that does not precede it")
            children[row[p.parent]].append(i)
        if len(p.prox) > 1:
            raise ProximityViolationError(f"point {p.id} is proximate to more than two points")
        for q in p.prox:
            if row.get(q, i) >= i:
                raise ProximityViolationError(f"point {p.id} lists proximity to {q}, which does not precede it")
            if q == p.parent:
                raise ProximityViolationError(f"point {p.id} repeats its parent in prox")
            parent = c.points[row[p.parent]]
            if q not in _prox_set(parent):
                # every point the parent is proximate to is an ancestor, so
                # ancestry only decides which message this is
                a = parent.parent
                while a is not None and a != q:
                    a = c.points[row[a]].parent
                if a is None:
                    raise ProximityViolationError(f"point {p.id} proximate to non-ancestor {q}")
                raise ProximityViolationError(
                    f"point {p.id} proximate to {q}, but its parent {parent.id} is not"
                )
            # the two exceptional curves meet once, so the slot is unique
            if (p.parent, q) in satellite_slots:
                raise ProximityViolationError(
                    f"two points share the satellite position over ({p.parent}, {q})"
                )
            satellite_slots.add((p.parent, q))
        for q in _prox_set(p):
            proximate[row[q]].append(i)

    # each row is summed into the (at most two) rows it is proximate to;
    # columns are checked in column order, so the failure reported is the
    # lowest column's at the first failing point
    chains: list[list[int]] = [[] for _ in c.branches]
    sums = [0] * len(c.branches)
    for i, p in enumerate(c.points):
        mine, total = c.mults[i], {}
        for r in proximate[i]:
            for b, m in c.mults[r].items():
                total[b] = total.get(b, 0) + m
        for b in sorted(mine.keys() | total.keys()):
            m = mine.get(b, 0)
            if m < 0:
                raise ProximityViolationError(f"negative multiplicity at {p.id}")
            if m < total.get(b, 0):
                raise ProximityViolationError(
                    f"proximity inequality fails for branch {c.branches[b]} at {p.id}: "
                    f"{m} < {total[b]}"
                )
        for b, m in mine.items():
            chains[b].append(i)
            sums[b] += m

    for b, support in enumerate(chains):
        if not support:
            raise ProximityViolationError(f"branch {c.branches[b]} has no points")
        if c.points[support[0]].parent is not None:
            raise ProximityViolationError(f"branch {c.branches[b]} does not pass through the root")
        sup = {ids[i] for i in support}
        for i in support[1:]:
            if c.points[i].parent not in sup:
                raise ProximityViolationError(
                    f"branch {c.branches[b]} support is not a chain at {ids[i]}"
                )
        if len({c.points[i].parent for i in support[1:]}) < len(support) - 1:
            raise ProximityViolationError(f"branch {c.branches[b]} support forks")
    return ClusterIndex(row, children, proximate, chains, tuple(sums))


def check_cluster(c: Cluster) -> tuple[int, ...]:
    """Validate structure and proximity/weight invariants; returns the
    effective branch weights.  The structure is checked once per cluster
    object, when ``c.indexed`` is built; each call compares the declared
    weights."""
    sums = c.indexed.sums
    if c.weights is not None and tuple(c.weights) != sums:
        raise WeightMismatchError(f"declared weights {tuple(c.weights)} != multiplicity sums {sums}")
    return sums


def branch_chain(c: Cluster, b: int) -> list[int]:
    """Support point indices of branch b, ordered root to leaf."""
    return list(c.indexed.chains[b])


def graph_from_cluster(c: Cluster) -> PlumbingGraph:
    """Dual graph of the embedded resolution: one vertex per non-final
    point with euler -1 - #(points proximate to it), one arrow per branch
    on the parent of the branch's final point.

    Each branch must end in a free simple point carrying only that branch;
    weight-1 branches (final point = root) have no graph-plus-arrow
    presentation and raise WeightMismatchError.
    """
    check_cluster(c)
    ix = c.indexed
    finals = []
    for b, chain in enumerate(ix.chains):
        f = chain[-1]
        fp = c.points[f]
        if fp.parent is None:
            raise WeightMismatchError(
                f"branch {c.branches[b]} has weight 1; a single free point cannot "
                "be presented as a plumbing graph with an arrow"
            )
        if c.mults[f] != {b: 1}:
            raise ProximityViolationError(
                f"final point {fp.id} of branch {c.branches[b]} must be simple and private"
            )
        if fp.prox:
            raise ProximityViolationError(f"final point {fp.id} must be free")
        if ix.proximate[f]:
            raise ProximityViolationError(f"final point {fp.id} must be last on its branch")
        finals.append(f)
        # blow-down multiplicities are the proximity closure of the final
        # point, so slack anywhere else has no graph presentation
        for i in chain[:-1]:
            total = sum(c.mults[r].get(b, 0) for r in ix.proximate[i])
            if c.mults[i][b] != total:
                raise ProximityViolationError(
                    f"branch {c.branches[b]} has multiplicity {c.mults[i][b]} at "
                    f"{c.points[i].id} but its proximate points only account for {total}"
                )

    final_set = set(finals)
    vertices = [(p.id, -1 - len(ix.proximate[i])) for i, p in enumerate(c.points) if i not in final_set]
    edges = []
    for i, p in enumerate(c.points):
        if i in final_set:
            continue
        for q in _prox_set(p):
            k = ix.row[q]
            # a later point proximate to both separates the two curves
            if k not in final_set and set(ix.proximate[i]).isdisjoint(ix.proximate[k]):
                edges.append((p.id, q))

    arrows = [(c.branches[b], c.points[finals[b]].parent) for b in range(len(c.branches))]
    return plumbing_graph(vertices, edges, arrows)


def germ_from_cluster(c: Cluster) -> DecoratedGerm:
    """Decorated germ computed directly from cluster data (multiplicities
    along each branch chain, Noether pairwise sums); independent of the
    blow-down path, and the one presentation that also covers weight-1
    branches."""
    sums = check_cluster(c)
    root = c.points[0].id
    branches = []
    for b, name in enumerate(c.branches):
        chain = c.indexed.chains[b]
        seq = tuple(c.mults[i][b] for i in reversed(chain))
        f = c.points[chain[-1]]
        sits = f.parent if f.parent is not None else f.id
        branches.append(Branch(name, seq, sums[b], c.mults[chain[0]][b], delta(seq), sits))
    pairwise = tuple(map(tuple, _pair_sums(map(dict.items, c.mults), len(c.branches))))
    return DecoratedGerm(tuple(branches), root, pairwise)


def cluster_from_trace(trace: BlowDownTrace) -> Cluster:
    """Read the infinitely-near-point cluster off a blow-down trace: steps
    in reverse order become points; each point is proximate to the curves
    it met when contracted, with the earliest-contracted one as parent."""
    order = {s.curve: j for j, s in enumerate(trace.steps)}
    points, rows = [], []
    for s in reversed(trace.steps):
        if not s.simple:
            raise ProximityViolationError(
                f"step {s.curve} meets another exceptional curve twice; no cluster presentation"
            )
        parent, *extra = sorted(s.prox, key=order.__getitem__) if len(s.prox) > 1 else s.prox or (None,)
        points.append(ClusterPoint(s.curve, parent, tuple(extra)))
        rows.append(dict(s.mults))
    return Cluster(trace.curvettas, tuple(points), tuple(rows))


def subcluster(c: Cluster, branch_names) -> Cluster:
    """Restrict to a subset of distinct branches: keep points where the
    subset has positive multiplicity.  One pass in row order, in which a
    point's parent and the points it is proximate to come first; a point
    that keeps all of its ``prox`` is the same record object."""
    keep_b = [c.branches.index(b) for b in branch_names]
    if not keep_b:
        raise RangeError("empty branch subset")
    new = {b: k for k, b in enumerate(keep_b)}  # old column -> new column
    kept = {None}  # the ids kept so far, and the root's parent
    points, mults = [], []
    for p, row in zip(c.points, c.mults):
        row = {new[b]: m for b, m in row.items() if b in new}
        if max(row.values(), default=0) <= 0:
            continue
        kept.add(p.id)
        if p.parent not in kept:
            raise InternalInconsistencyError(f"point {p.id} lost its parent in the subcluster")
        if not kept.issuperset(p.prox):
            p = ClusterPoint(p.id, p.parent, tuple(q for q in p.prox if q in kept))
        points.append(p)
        mults.append(row)
    weights = tuple(c.weights[b] for b in keep_b) if c.weights is not None else None
    return Cluster(tuple(c.branches[b] for b in keep_b), tuple(points), tuple(mults), weights)


# ---------------------------------------------------------------------------
# graph surgeries


def chain_collision(g: PlumbingGraph, lengths):
    """The curvetta and name of the first chain vertex of ``extend_chains``
    already a vertex of ``g``, in arrow order then i ascending; else None."""
    names = set(g.names())
    for c, _ in g.arrows:
        for i in range(1, int(lengths.get(c, 0)) + 1):
            if (u := f"{c}.{i}") in names:
                return c, u
    return None


def extend_chains(g: PlumbingGraph, lengths) -> PlumbingGraph:
    """Insert a chain of ``lengths[c]`` euler -2 vertices before each
    arrow; the germ keeps its shape with weight_c increased by lengths[c]."""
    known = g.curvettas()
    for c in lengths:
        if c not in known:
            raise RangeError(f"chain length given for unknown curvetta {c}")
    for c in known:
        if int(lengths.get(c, 0)) < 0:
            raise RangeError(f"negative chain length for {c}")
    if hit := chain_collision(g, lengths):
        raise RangeError(f"chain vertex name {hit[1]} collides")
    vertices = list(g.vertices)
    edges = list(g.edges)
    arrows = []
    for c, v in g.arrows:
        prev = v
        for i in range(1, int(lengths.get(c, 0)) + 1):
            u = f"{c}.{i}"
            vertices.append((u, -2))
            edges.append((prev, u))
            prev = u
        arrows.append((c, prev))
    return plumbing_graph(vertices, edges, arrows)


def build_unexpected(g: PlumbingGraph, N: int, wmax: int) -> PlumbingGraph:
    """Attach the m-leg star (m = 2N+5, center euler -m-2, legs of m-1
    euler -2 vertices) to the germ's root vertex, put one line arrow at
    each leg end, then extend every arrow by wmax."""
    if not g.arrows:
        raise RangeError("the star construction needs a curvetta: the graph has none")
    if N < 1 or wmax < 1:
        raise RangeError("N and wmax must be positive")
    m = 2 * N + 5
    root = blow_down(g).last_vertex
    names = set(g.names()) | set(g.curvettas())
    star = "vstar"
    if star in names:
        raise RangeError("vertex name vstar already in use")
    vertices = list(g.vertices) + [(star, -m - 2)]
    edges = list(g.edges) + [(star, root)]
    arrows = list(g.arrows)
    for i in range(1, m + 1):
        prev = star
        for j in range(1, m):
            u = f"leg{i}.{j}"
            if u in names:
                raise RangeError(f"vertex name {u} already in use")
            vertices.append((u, -2))
            edges.append((prev, u))
            prev = u
        line = f"line{i}"
        if line in names:
            raise RangeError(f"curvetta name {line} already in use")
        arrows.append((line, prev))
    k = plumbing_graph(vertices, edges, arrows)
    return extend_chains(k, {c: wmax for c in k.curvettas()})


# ---------------------------------------------------------------------------
# automorphisms


def _adjacency(g: PlumbingGraph):
    names = list(g.names())
    idx = {v: i for i, v in enumerate(names)}
    adj: list[list[int]] = [[] for _ in names]
    for a, b in g.edges:
        adj[idx[a]].append(idx[b])
        adj[idx[b]].append(idx[a])
    return names, adj


def _centroids(adj) -> list[int]:
    n = len(adj)
    deg = [len(a) for a in adj]
    removed = [False] * n
    layer = [v for v in range(n) if deg[v] <= 1]
    remaining = n
    while remaining > 2:
        nxt = []
        for v in layer:
            removed[v] = True
            remaining -= 1
            for u in adj[v]:
                if not removed[u]:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
    return [v for v in range(n) if not removed[v]]


def automorphisms(g: PlumbingGraph) -> list[dict[str, str]]:
    """All euler-preserving tree automorphisms (identity included).  The
    arrows play no part: a curvetta on one of two swappable vertices leaves
    the swap in the list."""
    names, adj = _adjacency(g)
    n = len(names)
    if n == 0:
        return [{}]
    parent = {v: v for v in names}
    if len(g.edges) != n - 1 or not all(_union(parent, a, b) for a, b in g.edges):
        raise RangeError("automorphisms requires a tree")
    labels: list = [e for _, e in g.vertices]
    cents = _centroids(adj)
    root = cents[0]
    if len(cents) == 2:
        # virtual root between the two centroids lets the halves swap
        a, b = cents
        adj = [list(x) for x in adj] + [[a, b]]
        adj[a] = [x for x in adj[a] if x != b] + [n]
        adj[b] = [x for x in adj[b] if x != a] + [n]
        labels = labels + [None]
        root = n

    children: list[list[int]] = [[] for _ in adj]
    order = [root]
    parent = {root: -1}
    for v in order:
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                children[v].append(u)
                order.append(u)

    # one integer per subtree shape: (label, sorted child shapes) -> id
    shape = [0] * len(adj)
    shapes: dict[tuple, int] = {}
    classes: list[dict[int, list[int]]] = [{} for _ in adj]  # children by shape
    for v in reversed(order):
        for u in children[v]:
            classes[v].setdefault(shape[u], []).append(u)
        key = (labels[v], tuple(sorted(shape[u] for u in children[v])))
        shape[v] = shapes.setdefault(key, len(shapes))

    # an automorphism is one permutation of each class of same-shape
    # children below each vertex, applied from the root down
    slots = [(u, h) for u in order for h, members in classes[u].items() if len(members) > 1]
    options = [itertools.permutations(range(len(classes[u][h]))) for u, h in slots]
    result = []
    for combo in itertools.product(*options):
        pick = dict(zip(slots, combo))
        image = [0] * len(adj)
        image[root] = root
        for u in order:
            targets = classes[image[u]]
            for h, members in classes[u].items():
                perm = pick.get((u, h), (0,))
                for j, x in enumerate(members):
                    image[x] = targets[h][perm[j]]
        result.append({names[a]: names[image[a]] for a in range(n)})
    return sorted(result, key=lambda m: sorted(m.items()))


# ---------------------------------------------------------------------------
# text formats


def parse_plumb(text: str) -> tuple[PlumbingGraph, dict[str, int]]:
    """Parse the ``.plumb`` format: ``vertex <name> <euler>``,
    ``edge <a> <b>``, ``curvetta <c> on <v>``, ``chains c=3,d=4``."""
    names, vertices, edges, arrows, chains = Ledger("edge", "curvetta", "chains"), [], [], [], {}
    for line in names.statements(text):
        tok = line.split()
        try:
            if tok[0] == "vertex" and len(tok) == 3:
                names.define("vertex", tok[1])
                vertices.append((tok[1], int(tok[2])))
            elif tok[0] == "edge" and len(tok) == 3:
                a, b = (tok[1], tok[2]) if tok[1] < tok[2] else (tok[2], tok[1])
                if a == b:
                    raise names.error(f"self-loop at {a}")
                names.define("edge", a, b)
                names.use("edge", "vertex", tok[1])
                names.use("edge", "vertex", tok[2])
                edges.append((a, b))
            elif tok[0] == "curvetta" and len(tok) == 4 and tok[2] == "on":
                names.define("curvetta", tok[1])
                names.use("curvetta", "vertex", tok[3])
                arrows.append((tok[1], tok[3]))
            elif tok[0] == "chains" and len(tok) == 2:
                read_chains(names, tok[1], chains)
            else:
                raise ValueError(line)
        except ValueError as exc:
            raise names.error(f"bad .plumb line: {line!r}") from exc
    # the ledger has refused whatever the constructor would
    g = plumbing_graph(vertices, edges, arrows)
    if hit := chain_collision(g, chains):
        raise names.error(f"chain vertex name {hit[1]} collides", names.used["chains"]["curvetta", hit[0]])
    return g, chains


def read_chains(names: Ledger, spec: str, into: dict):
    """Read ``c=3,d=4`` into ``into`` (else ``ValueError``); a negative
    length is a ``FormatError`` at the ledger's place."""
    names.pairs(spec.split(","), into, "chains", "curvetta", "chain")
    for c, k in into.items():
        if k < 0:
            raise names.error(f"negative chain length for {c}")


def serialize_plumb(g: PlumbingGraph) -> str:
    out = []
    for v, e in g.vertices:
        out.append(f"vertex {v} {e}")
    for a, b in g.edges:
        out.append(f"edge {a} {b}")
    for c, v in g.arrows:
        out.append(f"curvetta {c} on {v}")
    return "\n".join(out) + "\n"


def parse_germ(text: str) -> Cluster:
    """Parse the ``.germ`` cluster format: ``branch <names...>``,
    ``point <id> parent <id|root> [prox <id>,...]``,
    ``mult <id> <branch>=<k> ...``, ``weight <branch> <w>``.  A parent
    ``root`` is no parent; a zero multiplicity is left out of its row."""
    names, branches, points, mults, weights = Ledger("weight", "mult"), [], [], {}, {}
    for line in names.statements(text):
        tok = line.split()
        try:
            if tok[0] == "branch":
                for b in tok[1:]:
                    names.define("branch", b)
                branches.extend(tok[1:])
            elif tok[0] == "point" and len(tok) >= 4 and tok[2] == "parent":
                prox: tuple[str, ...] = ()
                if len(tok) == 6 and tok[4] == "prox":
                    prox = tuple(x for x in tok[5].split(",") if x)
                elif len(tok) != 4:
                    raise ValueError(line)
                names.define("point", tok[1])
                points.append(ClusterPoint(tok[1], None if tok[3] == "root" else tok[3], prox))
            elif tok[0] == "mult" and len(tok) >= 3:
                names.use("mult", "point", tok[1])
                names.pairs(tok[2:], mults.setdefault(tok[1], {}), "mult", "branch", "multiplicity", tok[1])
            elif tok[0] == "weight" and len(tok) == 3:
                names.define("weight", tok[1])
                names.use("weight", "branch", tok[1])
                weights[tok[1]] = int(tok[2])
            else:
                raise ValueError(line)
        except ValueError as exc:
            raise names.error(f"bad .germ line: {line!r}") from exc
    if not branches:
        raise FormatError("no branch line")
    if weights and set(weights) != set(branches):
        raise FormatError("weights given for some branches but not all")
    col = {b: k for k, b in enumerate(branches)}
    rows = tuple({col[b]: m for b, m in mults.get(p.id, {}).items() if m} for p in points)
    return Cluster(tuple(branches), tuple(points), rows, tuple(weights[b] for b in branches) if weights else None)


def serialize_germ(c: Cluster) -> str:
    """The ``.germ`` text of ``c``; ``RangeError`` if a point's parent is
    named ``root``, which the text would read back as no parent."""
    out = ["branch " + " ".join(c.branches)]
    for p in c.points:
        if p.parent == "root":
            raise RangeError(f"point {p.id} has a parent named root, which .germ reads as no parent")
        line = f"point {p.id} parent {p.parent if p.parent is not None else 'root'}"
        if p.prox:
            line += " prox " + ",".join(p.prox)
        out.append(line)
    for i, p in enumerate(c.points):
        parts = [f"{c.branches[k]}={m}" for k, m in sorted(c.mults[i].items()) if m]
        if parts:
            out.append(f"mult {p.id} " + " ".join(parts))
    if c.weights is not None:
        for b, w in zip(c.branches, c.weights):
            out.append(f"weight {b} {w}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# JSON forms


def germ_json(germ: DecoratedGerm) -> dict:
    return {
        "branches": [
            {
                "name": b.name,
                "multiplicitySeq": list(b.multiplicity_seq),
                "weight": b.weight,
                "originMultiplicity": b.origin_multiplicity,
                "delta": b.delta,
                "sitsOn": b.sits_on,
            }
            for b in germ.branches
        ],
        "rootVertex": germ.root_vertex,
        "pairwise": [list(row) for row in germ.pairwise],
    }


def trace_json(trace: BlowDownTrace) -> dict:
    columns = range(len(trace.curvettas))
    return {
        "curvettas": list(trace.curvettas),
        "steps": [
            {"curve": s.curve, "multiplicities": [m.get(k, 0) for k in columns], "proximateTo": list(s.prox)}
            for s in trace.steps
            for m in [dict(s.mults)]
        ],
        "lastVertex": trace.last_vertex,
        "pairwise": [list(row) for row in trace.pairwise],
    }
