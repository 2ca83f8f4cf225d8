"""The examples and helpers that several test modules share, each kept
once, so that no test module imports another: the figure diagram, the
reference cluster builder, the two-cusp cluster and its files, the line
pair, generic arrangements and the ``unexpected`` layouts, mutated cluster
rows, the folded factorization product, outcomes of a call, random braid
words, and the benchmark's literals read as text."""

import ast
from pathlib import Path

from sandwich.errors import SandwichError
from sandwich.fillings import unexpected_arrangement
from sandwich.mcg import braid_permutation, item_offset, item_word, perm_compose, perm_identity, reduce_word
from sandwich.plumbing import Cluster, ClusterPoint, _index_cluster, parse_plumb, plumbing_graph
from sandwich.wiring import FreePoint, Intersection, WiringDiagram, parse_wire, serialize_wire

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


TWO_CUSP_PLUMB = """\
vertex s1 -3
vertex s2 -2
vertex s3 -2
vertex s4 -3
vertex a1 -2
vertex a2 -2
vertex b1 -2
vertex b2 -2
edge s1 s3
edge s2 s3
edge s3 s4
edge s4 a1
edge a1 a2
edge s4 b1
edge b1 b2
curvetta A on a2
curvetta B on b2
"""

TWO_CUSP_GERM = """\
branch A B
point s1 parent root
point s2 parent s1
point s3 parent s2 prox s1
point s4 parent s3
point a1 parent s4
point a2 parent a1
point fA parent a2
point b1 parent s4
point b2 parent b1
point fB parent b2
mult s1 A=2 B=2
mult s2 A=1 B=1
mult s3 A=1 B=1
mult s4 A=1 B=1
mult a1 A=1
mult a2 A=1
mult fA A=1
mult b1 B=1
mult b2 B=1
mult fB B=1
weight A 8
weight B 8
"""


def cluster(branches, points, mults, weights=None) -> Cluster:
    """Build a cluster from (id, parent, [prox...]) triples (parent None or
    "root" for the root point) and a {point: {branch: mult}} mapping: the
    reference builder that ``parse_germ`` is checked against."""
    branches = tuple(branches)
    pts = []
    for entry in points:
        pid, parent = entry[0], entry[1]
        prox = tuple(entry[2]) if len(entry) > 2 else ()
        if parent in (None, "root"):
            parent = None
        pts.append(ClusterPoint(pid, parent, prox))
    col = {b: k for k, b in enumerate(branches)}
    rows = []
    for p in pts:
        row = {col[b]: int(m) for b, m in mults.get(p.id, {}).items()}
        rows.append({k: m for k, m in row.items() if m})
    w = tuple(weights) if weights is not None else None
    return Cluster(branches, tuple(pts), tuple(rows), w)


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
    return plumbing_graph({"E": -3}, arrows=[("c", "E"), ("d", "E")])


def arrangement(m, free_per_line=2, free_first=False, drop=None, trade=False):
    """Generic arrangement of m lines, one strand each: every pair meets
    once in I(q..q+1), the upper strand carried down by a conjugating braid
    and back, and free points on every line.  ``drop`` leaves out that
    double point (by index); with ``trade`` a free point takes its place."""
    braids, events, pending = [], [], ()

    def push(ev):
        nonlocal pending
        braids.append(pending)
        events.append(ev)
        pending = ()

    free = [FreePoint(pos) for _ in range(free_per_line) for pos in range(1, m + 1)]
    for ev in free if free_first else ():
        push(ev)
    pairs = ((p, q) for p in range(2, m + 1) for q in range(1, p))
    for index, (p, q) in enumerate(pairs):
        down = tuple(range(q + 1, p))
        pending = down + pending
        if index != drop:
            push(Intersection(q, q + 1))
        elif trade:
            push(FreePoint(q))
        pending = tuple(-a for a in reversed(down)) + pending
    for ev in () if free_first else free:
        push(ev)
    braids.append(pending)
    return WiringDiagram(m, tuple(braids), tuple(events), tuple(f"L{i:02d}" for i in range(m, 0, -1)))


def unexpected_layouts():
    """The combined diagram that ``unexpected`` builds for the pair and the
    triple of smooth branches at N = 1 and 2 (9 to 12 strands)."""
    for text in ("vertex v -3\ncurvetta a on v\ncurvetta b on v\n",
                 "vertex v -4\ncurvetta a on v\ncurvetta b on v\ncurvetta c on v\n"):
        g, _ = parse_plumb(text)
        for n in (1, 2):
            yield unexpected_arrangement(g, n, 5).wiring


def unexpected_wires():
    """The combined ``.wire`` that ``unexpected`` writes for those, read
    back."""
    return (parse_wire(serialize_wire(w)) for w in unexpected_layouts())


def proximate_sum(c, mults, i, b):
    pid = c.points[i].id
    return sum(mults[r].get(b, 0) for r, p in enumerate(c.points) if pid == p.parent or pid in p.prox)


def mutate_rows(c, rng):
    """Copies of c whose rows are lowered, raised, negative, zeroed or
    forked at one random entry, plus one with a branch on no point.  A
    carried change also raises the earlier points to their proximity sums,
    so it reaches the chain checks."""
    out = [Cluster(c.branches + ("z",), c.points, c.mults)]
    nb = len(c.branches)

    def with_entry(i, b, m, carry=False):
        rows = [dict(row) for row in c.mults]
        rows[i].pop(b, None)
        if m:
            rows[i][b] = m
        for r in reversed(range(i) if carry else ()):
            need = max(rows[r].get(b, 0), proximate_sum(c, rows, r, b))
            if need:
                rows[r][b] = need
        return Cluster(c.branches, c.points, tuple(rows), c.weights)

    for _ in range(2):
        i = rng.randrange(len(c.points))
        b = rng.randrange(nb)
        m = c.mults[i].get(b, 0)
        out += [
            with_entry(i, b, m - rng.randint(1, 2)),  # lowered, maybe to 0 or below
            with_entry(i, b, m + rng.randint(1, 2)),  # raised, maybe off the chain
            with_entry(i, b, m + 1, carry=True),  # raised, and the points above with it
            with_entry(i, b, -rng.randint(1, 3)),  # negative
            with_entry(i, b, 0),  # zeroed
        ]
    # forked: the branch also passes through a point beside its chain
    b = rng.randrange(nb)
    chain = set(_index_cluster(c).chains[b])
    beside = [i for i, p in enumerate(c.points)
              if i not in chain and p.parent is not None and c.indexed.row[p.parent] in chain]
    if beside:
        i = rng.choice(beside)
        out += [with_entry(i, b, 1), with_entry(i, b, 1, carry=True)]
    return out


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


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _literal(path: Path, name: str):
    """The value of the module-level assignment ``name = <literal>``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {path.name}")
