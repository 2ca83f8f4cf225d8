"""The three workloads: seeded inputs, the fixed op list of one pass, and
for every op an answer known by construction.

Each workload writes its own input files, so the program only ever sees
generated inputs.  The seed changes names only (vertices, curvettas,
branches, cluster points, component labels); size rungs and the braid-slot
placement are fixed, so every seed asks the program for the same work.

An op is one call into a public entry point: ``sandwich.cli.main(argv)``
with stdout and stderr captured, or a ``sandwich.fillings`` /
``sandwich.mcg`` function where no CLI command does the job.  Its answer is
checked against values derived from how the input was built, never against
another output of the program.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import string
import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable

LAYERS = ("plumbing", "mcg", "wiring", "fillings", "cli")

# graph-pipeline rungs
WMAX = 5
UNEXPECTED_N = range(1, 7)
CHAIN_L = (125, 250, 500, 1000)
STAR_CLUSTERS = ((3, 10), (4, 20), (6, 20), (8, 20), (12, 20), (8, 40))  # (lines, tail length)
CUSP_TAILS = (20, 40, 80, 160)

# braid-ladder rungs
EQUAL_K = range(0, 9)
UNEQUAL_K = range(0, 3)
PRODUCT_UNEQUAL_MAX_K = 1  # the unequal k=2 product runs for over 30 s

# diagram-read rungs
ARRANGEMENT_M = range(8, 41, 4)
GERM_CHECK_M = (4, 6, 8)
UNLABELED_NO_M = (5, 6, 7)  # full factorial row search: 7! = 5040 row orders
FREE_PER_LINE = 2


class Wrong(Exception):
    """An op gave an answer other than the known one."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


# ---------------------------------------------------------------------------
# program access


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


class Api:
    """The sandwich modules of one fresh import.

    Ops look functions up on these modules at call time, so the tracer can
    swap in wrappers between passes."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "sandwich" or n.startswith("sandwich.")]:
            del sys.modules[name]
        for layer in LAYERS:
            setattr(self, layer, importlib.import_module(f"sandwich.{layer}"))

    def modules(self) -> dict:
        return {layer: getattr(self, layer) for layer in LAYERS}

    def run_cli(self, *argv) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main([str(a) for a in argv])
        return CliResult(code, out.getvalue(), err.getvalue())


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    expected: dict
    check: Callable[[object, dict], None]  # raises Wrong on a wrong answer
    outputs: tuple[Path, ...] = ()  # files the CLI writes besides stdout


@dataclass
class Plan:
    ops: list[Op]
    setup_checks: list[Op] = field(default_factory=list)

    def warmups(self) -> list[Op]:
        """Input checks, then the first (smallest) op of each kind."""
        seen, out = set(), list(self.setup_checks)
        for op in self.ops:
            if op.kind not in seen:
                seen.add(op.kind)
                out.append(op)
        return out


class Names:
    """Fresh identifiers drawn from the seed: six lowercase letters each, so
    file sizes do not depend on the seed.  Prefixes the program reserves for
    its own vertices and curvettas are avoided."""

    RESERVED = ("leg", "line", "vstar", "root")

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._used: set[str] = set()

    def take(self, k: int) -> list[str]:
        out = []
        while len(out) < k:
            name = "".join(self._rng.choice(string.ascii_lowercase) for _ in range(6))
            if name not in self._used and not name.startswith(self.RESERVED):
                self._used.add(name)
                out.append(name)
        return out


# ---------------------------------------------------------------------------
# reading program output (independent of the package's own parsers)


def cli_json(res: CliResult, code: int) -> dict:
    expect(res.code == code, f"exit {res.code}, expected {code}; stderr {res.stderr.strip()[:200]!r}")
    return json.loads(res.stdout)


def read_plumb(text: str):
    vertices, edges, arrows = {}, set(), {}
    for line in text.splitlines():
        tok = line.split()
        if tok[0] == "vertex":
            vertices[tok[1]] = int(tok[2])
        elif tok[0] == "edge":
            edges.add(frozenset(tok[1:3]))
        elif tok[0] == "curvetta":
            arrows[tok[1]] = tok[3]
        else:
            raise Wrong(f"unexpected .plumb line {line!r}")
    return vertices, edges, arrows


@dataclass
class WireText:
    strands: int
    components: dict[str, list[int]]
    braids: list[str]
    events: list[str]


def read_wire(text: str) -> WireText:
    lines = text.splitlines()
    expect(len(lines) == 3, f"expected 3 .wire lines, got {len(lines)}")
    strands = int(lines[0].split()[1])
    components = {}
    for group in lines[1].split()[1:]:
        label, _, positions = group.partition("=")
        components[label] = [int(x) for x in positions.split(",")]
    chunks = [c.strip() for c in lines[2][len("seq:"):].split(",")]
    return WireText(strands, components, chunks[0::2], chunks[1::2])


def event_shape(ev: str) -> str:
    """T, F, or I<k> for an intersection of k strands."""
    if ev.startswith("I("):
        lo, hi = ev[2:-1].split("..")
        return f"I{int(hi) - int(lo) + 1}"
    return ev[0]


def braid_text(word) -> str:
    return " ".join(f"s{abs(a)}" + ("'" if a < 0 else "") for a in word) if word else "1"


def wire_text(n: int, components: dict[str, list[int]], braids, events) -> str:
    comps = " ".join(f"{label}=" + ",".join(map(str, pos)) for label, pos in components.items())
    seq = []
    for b, ev in zip(braids, events):
        seq += [braid_text(b), ev]
    seq.append(braid_text(braids[len(events)]))
    return f"strands {n}\ncomponents {comps}\nseq: " + ", ".join(seq) + "\n"


# ---------------------------------------------------------------------------
# clusters written by the benchmark


def germ_text(branches, points, mults, weights=None) -> str:
    """points: (id, parent or None, prox id or None); mults: {id: {branch: k}}."""
    out = ["branch " + " ".join(branches)]
    for pid, parent, prox in points:
        line = f"point {pid} parent {parent or 'root'}"
        out.append(line + (f" prox {prox}" if prox else ""))
    for pid, row in mults.items():
        out.append(f"mult {pid} " + " ".join(f"{b}={k}" for b, k in row.items()))
    for b, w in (weights or {}).items():
        out.append(f"weight {b} {w}")
    return "\n".join(out) + "\n"


@dataclass
class ClusterCase:
    """A cluster with its known graph presentation and wiring layout."""

    text: str
    vertices: dict[str, int]
    edges: set
    arrows: dict[str, str]
    strands: int
    component_sizes: dict[str, int]
    events: Counter
    last_event: str


def star_cluster(names: Names, m: int, t: int) -> ClusterCase:
    """m smooth branches through one root point, each continuing on a
    private free chain of t points.  The root has m proximate points, so its
    vertex has euler -1-m; chain vertices have -2; the final point of each
    chain carries the arrow on its parent.  The layout has one strand per
    branch, one free point per chain point and one m-fold point last."""
    branches = names.take(m)
    root = names.take(1)[0]
    points, mults = [(root, None, None)], {root: {b: 1 for b in branches}}
    chains = []
    for b in branches:
        chain, prev = names.take(t), root
        for pid in chain:
            points.append((pid, prev, None))
            mults[pid] = {b: 1}
            prev = pid
        chains.append(chain)
    vertices = {root: -1 - m}
    edges, arrows = set(), {}
    for b, chain in zip(branches, chains):
        inner = [root] + chain[:-1]
        vertices.update({pid: -2 for pid in chain[:-1]})
        edges.update(frozenset(p) for p in zip(inner, inner[1:]))
        arrows[b] = inner[-1]
    return ClusterCase(
        germ_text(branches, points, mults), vertices, edges, arrows,
        m, {b: 1 for b in branches}, Counter({"F": m * t, f"I{m}": 1}), f"I(1..{m})",
    )


def cusp_cluster(names: Names, t: int, weights: bool = False) -> ClusterCase:
    """Two cusps sharing four points, s3 a satellite proximate to s1, then a
    private free tail of t points per branch (t=3 is the two-cusp germ).

    Proximate counts: s1 has s2 and s3, s4 has both tails' first points,
    so s1 and s4 get euler -3 and every other inner point -2.  s3 is
    proximate to s1 and s2 and nothing separates them, so s3 joins both;
    s2 and s1 are separated by s3.  Layout: 2 strands per branch, one
    tangency per branch, a free point per tail point, a double point for
    each of s2..s4 and the 4-fold root point last."""
    a, b = names.take(2)
    s1, s2, s3, s4 = names.take(4)
    ta, tb = names.take(t), names.take(t)
    points = [(s1, None, None), (s2, s1, None), (s3, s2, s1), (s4, s3, None)]
    mults = {s1: {a: 2, b: 2}, s2: {a: 1, b: 1}, s3: {a: 1, b: 1}, s4: {a: 1, b: 1}}
    vertices = {s1: -3, s2: -2, s3: -2, s4: -3}
    edges = {frozenset(p) for p in ((s1, s3), (s2, s3), (s3, s4))}
    arrows = {}
    for branch, tail in ((a, ta), (b, tb)):
        prev = s4
        for pid in tail:
            points.append((pid, prev, None))
            mults[pid] = {branch: 1}
            prev = pid
        inner = [s4] + tail[:-1]
        vertices.update({pid: -2 for pid in tail[:-1]})
        edges.update(frozenset(p) for p in zip(inner, inner[1:]))
        arrows[branch] = inner[-1]
    w = {a: 5 + t, b: 5 + t} if weights else None
    return ClusterCase(
        germ_text([a, b], points, mults, w), vertices, edges, arrows,
        4, {a: 2, b: 2}, Counter({"T": 2, "F": 2 * t, "I2": 3, "I4": 1}), "I(1..4)",
    )


def check_graph(res: CliResult, want: dict) -> None:
    expect(res.code == want["code"], f"exit {res.code}: {res.stderr.strip()[:200]!r}")
    vertices, edges, arrows = read_plumb(res.stdout)
    expect(vertices == want["vertices"], "vertices or euler numbers differ")
    expect(edges == want["edges"], "edges differ")
    expect(arrows == want["arrows"], "arrows differ")


def check_layout(res: CliResult, want: dict) -> None:
    expect(res.code == want["code"], f"exit {res.code}: {res.stderr.strip()[:200]!r}")
    w = read_wire(res.stdout)
    expect(w.strands == want["strands"], f"{w.strands} strands, expected {want['strands']}")
    sizes = {label: len(pos) for label, pos in w.components.items()}
    expect(sizes == want["component_sizes"], f"component sizes {sizes}")
    expect(all(b == "1" for b in w.braids), "layout has braid letters")
    expect(Counter(map(event_shape, w.events)) == want["events"], "event counts differ")
    expect(w.events[-1] == want["last_event"], f"last event {w.events[-1]}")


# ---------------------------------------------------------------------------
# graph-pipeline


def check_unexpected(res: CliResult, want: dict) -> None:
    germ = cli_json(res, want["code"])["germ"]
    names = [b["name"] for b in germ["branches"]]
    weights = {b["name"]: b["weight"] for b in germ["branches"]}
    expect(weights == want["weights"], f"weights {weights}")
    expect(all(b["delta"] == 0 and b["originMultiplicity"] == 1 for b in germ["branches"]),
           "a branch is not smooth")
    base = set(want["base"])
    for i, p in enumerate(names):
        for k, q in enumerate(names):
            value = germ["pairwise"][i][k]
            pair = 0 if i == k else 2 if p in base and q in base else 1
            expect(value == pair, f"pair({p},{q}) = {value}, expected {pair}")
    header = Path(want["wire"]).read_text().split("\n", 1)[0]
    expect(header == f"strands {want['strands']}", f"wire header {header!r}")


def check_chain_germ(res: CliResult, want: dict) -> None:
    germ = cli_json(res, want["code"])
    for b in germ["branches"]:
        expect(b["weight"] == want["weight"], f"weight {b['weight']}")
        expect(b["delta"] == 0 and b["multiplicitySeq"] == [1] * want["weight"], "not smooth")
    expect(germ["pairwise"] == [[0, 1], [1, 0]], f"pairwise {germ['pairwise']}")


def graph_pipeline(api: Api, names: Names, work: Path) -> Plan:
    ops: list[Op] = []
    # k smooth branches through one point: vertex -(k+1) with k arrows.
    # In the star extension every arrow gets a wmax chain and the m = 2N+5
    # legs meet the centre vstar next to the base vertex, so each base
    # branch runs over its arrow, chain, base vertex and centre (wmax+3
    # points) and each line over its arrow, chain, m-1 leg vertices and the
    # centre (wmax+m+1).  The generic union adds the other part's strand
    # count; base branches share two points, all other pairs one.
    for tag, k in (("pair", 2), ("triple", 3)):
        vertex, *curvettas = names.take(1 + k)
        graph = work / f"{tag}.plumb"
        graph.write_text(f"vertex {vertex} {-(k + 1)}\n"
                         + "".join(f"curvetta {c} on {vertex}\n" for c in curvettas))
        for n in UNEXPECTED_N:
            m = 2 * n + 5
            prefix = work / f"K_{tag}_{n}"
            weights = {c: WMAX + 3 + m for c in curvettas}
            weights.update({f"line{i}": WMAX + m + 1 + k for i in range(1, m + 1)})
            want = {"code": 0, "weights": weights, "base": curvettas, "strands": k + m,
                    "wire": str(prefix) + ".wire"}
            argv = ("unexpected", "--graph", graph, "-N", n, "--wmax", WMAX, "-o", prefix)
            ops.append(Op("unexpected", f"unexpected {tag} N={n}",
                          lambda argv=argv: api.run_cli(*argv), want, check_unexpected,
                          (Path(f"{prefix}.plumb"), Path(f"{prefix}.wire"))))
    # two smooth branches through a -3 vertex, each pushed out along a -2
    # chain of L vertices: weight L+2, still smooth, meeting once
    vertex, c, d = names.take(3)
    for length in CHAIN_L:
        graph = work / f"chain_{length}.plumb"
        graph.write_text(f"vertex {vertex} -3\ncurvetta {c} on {vertex}\ncurvetta {d} on {vertex}\n"
                         f"chains {c}={length},{d}={length}\n")
        ops.append(Op("germ", f"germ chains L={length}",
                      lambda graph=graph: api.run_cli("germ", "--graph", graph),
                      {"code": 0, "weight": length + 2}, check_chain_germ))
    cases = [(f"star m={m} t={t}", star_cluster(names, m, t)) for m, t in STAR_CLUSTERS]
    cases += [(f"cusp t={t}", cusp_cluster(names, t)) for t in CUSP_TAILS]
    for i, (label, case) in enumerate(cases):
        path = work / f"cluster_{i}.germ"
        path.write_text(case.text)
        ops.append(Op("graph", f"graph {label}",
                      lambda path=path: api.run_cli("graph", "--germ", path),
                      {"code": 0, "vertices": case.vertices, "edges": case.edges,
                       "arrows": case.arrows}, check_graph))
        ops.append(Op("scott", f"scott {label}",
                      lambda path=path: api.run_cli("scott", "--germ", path),
                      {"code": 0, "strands": case.strands, "component_sizes": case.component_sizes,
                       "events": case.events, "last_event": case.last_event}, check_layout))
    return Plan(ops)


# ---------------------------------------------------------------------------
# braid-ladder

# Garside half twist on strands j..k as a positive word; the same braid as
# the package's half twist, written with a different word.
def delta_word(j: int, k: int) -> tuple[int, ...]:
    return tuple(i for top in range(k - 1, j - 1, -1) for i in range(j, top + 1))


def inverse(word) -> tuple[int, ...]:
    return tuple(-a for a in reversed(word))


def free_reduce(letters) -> tuple[int, ...]:
    out: list[int] = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def artin_images(braid, n: int) -> tuple[tuple[int, ...], ...]:
    """Images of x_1..x_n under the braid (rightmost letter first), with
    s_i: x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i."""

    def image(letter, g):
        i = abs(letter)
        if letter > 0:
            return (i, i + 1, -i) if g == i else (i,) if g == i + 1 else (g,)
        return (i + 1,) if g == i else (-(i + 1), i, i + 1) if g == i + 1 else (g,)

    out = []
    for x in range(1, n + 1):
        w: tuple[int, ...] = (x,)
        for letter in reversed(braid):
            w = free_reduce(y for a in w for y in (
                image(letter, abs(a)) if a > 0 else inverse(image(letter, abs(a)))))
        out.append(w)
    return tuple(out)


def braid_perm(braid, n: int) -> tuple[int, ...]:
    """perm[s-1] = final position of the strand starting at position s."""
    at = list(range(n + 1))
    for letter in reversed(braid):
        i = abs(letter)
        at[i], at[i + 1] = at[i + 1], at[i]
    perm = [0] * n
    for pos in range(1, n + 1):
        perm[at[pos] - 1] = pos
    return tuple(perm)


def boundary_word(events: list[str]) -> tuple[int, ...]:
    """Boundary braid of an unbraided diagram: the top pushoff inverted,
    then the bottom pushoff.  The bottom sees a positive half twist per
    intersection, the top an inverse half twist per intersection and one
    negative crossing per tangency; later events act later (further left)."""
    top: tuple[int, ...] = ()
    bottom: tuple[int, ...] = ()
    for ev in events:
        if ev.startswith("I("):
            lo, hi = map(int, ev[2:-1].split(".."))
            bottom = delta_word(lo, hi) + bottom
            top = inverse(delta_word(lo, hi)) + top
        elif ev.startswith("T("):
            top = (-int(ev[2:-1]),) + top
    return free_reduce(inverse(top) + bottom)


P = (1, -2)  # s1 s2'
TRIVIAL_R = (1, 2, 1, -2, -1, -2)  # s1 s2 s1 s2' s1' s2' = 1, not freely trivial
PURE_S1_SQUARED = (1, 1)


def ladder_insert(k: int, core) -> tuple[int, ...]:
    return P * k + tuple(core) + inverse(P) * k


def vanishing_items(events: list[str]) -> list[list]:
    """(kind, start, span) per event: an arc per tangency, a cycle around
    the intersection window, a boundary-parallel cycle per free point."""
    out = []
    for ev in events:
        if ev.startswith("T("):
            out.append(["arc", int(ev[2:-1]), None])
        elif ev.startswith("I("):
            lo, hi = map(int, ev[2:-1].split(".."))
            out.append(["cycle", lo, hi - lo])
        else:
            out.append(["cycle", int(ev[2:-1]), 0])
    return out


def check_compatible(result, want: dict) -> None:
    ok, report = result
    expect(ok == want["verdict"], f"compatible = {ok}")
    expect(list(report.codes()) == want["codes"], f"report codes {report.codes()}")


def check_vanishing(res: CliResult, want: dict) -> None:
    expect(res.code == want["code"], f"exit {res.code}: {res.stderr.strip()[:200]!r}")
    data = json.loads(Path(want["fact"]).read_text())
    expect(data["holes"] == want["holes"], f"holes {data['holes']}")
    items = [[d["kind"], d["start"], d.get("span")] for d in data["items"]]
    expect(items == want["items"], "vanishing items differ from the events")


def check_rebuilt(res: CliResult, want: dict) -> None:
    expect(res.code == want["code"], f"exit {res.code}: {res.stderr.strip()[:200]!r}")
    w = read_wire(Path(want["wire"]).read_text())
    expect(w.strands == want["strands"], f"{w.strands} strands")
    expect(w.events == want["events"], "rebuilt events differ")


def check_verdict(result, want: dict) -> None:
    expect(result == want["verdict"], f"verdict {result!r}, expected {want['verdict']!r}")


def check_product(mc, want: dict) -> None:
    expect(mc.perm == want["perm"], f"perm {mc.perm}")
    expect(mc.ledger == want["ledger"], f"ledger {mc.ledger}")
    same = mc.images == want["images"]
    expect(same == want["same_class"], f"product equals the plain layout's class: {same}")


def two_cusp_layout(case: ClusterCase) -> tuple[dict[str, list[int]], list[str]]:
    """The layout of the two-cusp germ (t=3): tangencies first, then points
    deepest first (tail points alternating between the branches, then the
    double points, then the root)."""
    a, b = case.component_sizes
    events = ["T(1)", "T(3)"] + ["F(2)", "F(3)"] * 3 + ["I(2..3)"] * 3 + ["I(1..4)"]
    return {a: [1, 2], b: [3, 4]}, events


def braid_ladder(api: Api, names: Names, work: Path) -> Plan:
    case = cusp_cluster(names, 3, weights=True)
    germ = work / "twocusp.germ"
    germ.write_text(case.text)
    components, events = two_cusp_layout(case)
    n = 4
    slot = len(events) // 2  # middle braid slot of len(events)+1

    def check_scott(res: CliResult, want: dict) -> None:
        expect(res.code == want["code"], f"exit {res.code}")
        w = read_wire(res.stdout)
        expect(w.components == components and w.events == events, "scott layout differs")

    scott_check = Op("scott-input", "scott two-cusp", lambda: api.run_cli("scott", "--germ", germ),
                     {"code": 0}, check_scott)

    cluster = api.plumbing.parse_germ(case.text)
    plain = boundary_word(events)
    ledger = [0] * (n + 1)
    for ev in events:
        if ev.startswith("F("):
            ledger[int(ev[2:-1]) - 1] += 2
    product_want = {"perm": braid_perm(plain, n), "ledger": tuple(ledger),
                    "images": artin_images(plain, n)}

    ops: list[Op] = []
    rungs = [("equal", k, TRIVIAL_R) for k in EQUAL_K]
    rungs += [("unequal", k, PURE_S1_SQUARED) for k in UNEQUAL_K]
    for kind, k, core in rungs:
        equal = kind == "equal"
        braids = [()] * (len(events) + 1)
        braids[slot] = ladder_insert(k, core)
        text = wire_text(n, components, braids, events)
        tag = f"{kind}_{k}"
        wire, fact, rebuilt = work / f"{tag}.wire", work / f"{tag}.json", work / f"{tag}_rebuilt.wire"
        wire.write_text(text)
        diagram = api.wiring.parse_wire(text)
        label = f"{kind} k={k}"
        ops.append(Op("compatible", f"compatible {label}",
                      lambda d=diagram: api.fillings.compatible(d, cluster),
                      {"verdict": equal, "codes": [] if equal else ["boundary-class"]},
                      check_compatible))
        ops.append(Op("vanishing", f"vanishing {label}",
                      lambda wire=wire, fact=fact: api.run_cli("vanishing", "--wire", wire, "-o", fact),
                      {"code": 0, "holes": n, "items": vanishing_items(events), "fact": str(fact)},
                      check_vanishing, (fact,)))
        ops.append(Op("wire-from-vanishing", f"wire-from-vanishing {label}",
                      lambda fact=fact, rebuilt=rebuilt: api.run_cli(
                          "wire-from-vanishing", "--fact", fact, "-o", rebuilt),
                      {"code": 0, "strands": n, "events": events, "wire": str(rebuilt)},
                      check_rebuilt, (rebuilt,)))
        ops.append(Op("braid_equal", f"braid_equal {label}",
                      lambda d=diagram, rebuilt=rebuilt: api.mcg.braid_equal(
                          api.wiring.boundary_braid(d),
                          api.wiring.boundary_braid(api.wiring.parse_wire(rebuilt.read_text())), n),
                      {"verdict": True}, check_verdict))
        if equal or k <= PRODUCT_UNEQUAL_MAX_K:
            vanishing = api.wiring.vanishing_data(diagram)
            ops.append(Op("factorization_product", f"factorization_product {label}",
                          lambda f=vanishing: api.fillings.factorization_product(f),
                          dict(product_want, same_class=equal), check_product))
    return Plan(ops, [scott_check])


# ---------------------------------------------------------------------------
# diagram-read


def arrangement(labels: list[str], drop=None, trade=False, free_first=False) -> str:
    """Generic arrangement of len(labels) lines, one strand each: every pair
    of strands meets once in a double point I(q..q+1), the upper strand
    carried down next to the lower one by a conjugating braid and back, and
    FREE_PER_LINE free points on every line.  ``drop`` leaves out that
    double point (by index); with ``trade`` a free point takes its place, so
    the column count stays the same."""
    m = len(labels)
    braids, events = [], []
    pending: tuple[int, ...] = ()

    def push(ev):
        nonlocal pending
        braids.append(pending)
        events.append(ev)
        pending = ()

    free = [f"F({pos})" for _ in range(FREE_PER_LINE) for pos in range(1, m + 1)]
    if free_first:
        for ev in free:
            push(ev)
    index = 0
    for p in range(2, m + 1):
        for q in range(1, p):
            down = tuple(range(q + 1, p))
            pending = free_reduce(down + pending)
            if index != drop:
                push(f"I({q}..{q + 1})")
            elif trade:
                push(f"F({q})")
            index += 1
            pending = free_reduce(inverse(down) + pending)
    if not free_first:
        for ev in free:
            push(ev)
    braids.append(pending)
    return wire_text(m, {label: [i] for i, label in enumerate(labels, 1)}, braids, events)


def arrangement_germ(labels: list[str], names: Names) -> str:
    """Root point on every line, then a private free chain per line long
    enough that the weight equals the strand's events: m-1 double points
    and FREE_PER_LINE free points.  Pairwise 1 (the shared root)."""
    m = len(labels)
    root = names.take(1)[0]
    points, mults = [(root, None, None)], {root: {b: 1 for b in labels}}
    for b in labels:
        prev = root
        for pid in names.take(m - 2 + FREE_PER_LINE):
            points.append((pid, prev, None))
            mults[pid] = {b: 1}
            prev = pid
    return germ_text(labels, points, mults)


def check_validate(res: CliResult, want: dict) -> None:
    data = cli_json(res, want["code"])
    expect(data["ok"] == want["ok"], f"ok = {data['ok']}")
    expect((not data["problems"]) == want["ok"], "problems disagree with ok")


def check_incidence(res: CliResult, want: dict) -> None:
    data = cli_json(res, want["code"])
    labels = data["components"]
    expect(sorted(labels) == want["labels"], "row labels differ")
    kinds = Counter(data["kinds"])
    expect(kinds == Counter(intersection=len(want["pairs"]), free=want["free"] * len(labels)),
           f"column kinds {dict(kinds)}")
    pairs, free_rows = [], Counter()
    for j, kind in enumerate(data["kinds"]):
        col = [row[j] for row in data["rows"]]
        hit = [labels[i] for i, v in enumerate(col) if v]
        expect(all(v in (0, 1) for v in col), f"column {j} entries {set(col)}")
        if kind == "intersection":
            expect(len(hit) == 2, f"double point column {j} meets {len(hit)} lines")
            pairs.append(tuple(sorted(hit)))
        else:
            expect(len(hit) == 1, f"free column {j} meets {len(hit)} lines")
            free_rows[hit[0]] += 1
    expect(sorted(pairs) == want["pairs"], "double points are not one per pair")
    expect(all(free_rows[label] == want["free"] for label in labels), "free points per line")


def check_render(res: CliResult, want: dict) -> None:
    expect(res.code == want["code"], f"exit {res.code}")
    svg = res.stdout
    expect(svg.startswith("<svg") and svg.endswith("</svg>\n"), "not one SVG document")
    for cls in ("intersection", "free", "tangency"):
        count = svg.count(f'class="{cls}"')
        expect(count == want[cls], f"{count} {cls} markers, expected {want[cls]}")


def check_compare(res: CliResult, want: dict) -> None:
    data = cli_json(res, want["code"])
    expect(data["equivalent"] == want["equivalent"], f"equivalent = {data['equivalent']}")


def diagram_read(api: Api, names: Names, work: Path) -> Plan:
    labels_all = names.take(max(ARRANGEMENT_M))
    files: dict[int, dict[str, Path]] = {}

    def write(m: int) -> dict[str, Path]:
        if m not in files:
            labels = labels_all[:m]
            drop = m * (m - 1) // 4  # a fixed double point in the middle
            texts = {"a": arrangement(labels), "copy": arrangement(labels, free_first=True),
                     "dropped": arrangement(labels, drop=drop),
                     "traded": arrangement(labels, drop=drop, trade=True),
                     "germ": arrangement_germ(labels, names)}
            files[m] = {}
            for key, text in texts.items():
                path = work / f"arr_{m}_{key}.{'germ' if key == 'germ' else 'wire'}"
                path.write_text(text)
                files[m][key] = path
        return files[m]

    ops: list[Op] = []

    def add(kind, label, argv, want, check):
        ops.append(Op(kind, label, lambda: api.run_cli(*argv), want, check))

    for m in ARRANGEMENT_M:
        f = write(m)
        labels = sorted(labels_all[:m])
        pairs = sorted(tuple(sorted(p)) for p in combinations(labels, 2))
        add("validate", f"validate m={m}", ("validate", "--wire", f["a"]),
            {"code": 0, "ok": True}, check_validate)
        add("incidence", f"incidence m={m}", ("incidence", "--wire", f["a"]),
            {"code": 0, "labels": labels, "pairs": pairs, "free": FREE_PER_LINE}, check_incidence)
        add("render", f"render m={m}", ("render", "--wire", f["a"]),
            {"code": 0, "intersection": len(pairs), "free": FREE_PER_LINE * m, "tangency": 0},
            check_render)
        add("compare", f"compare copy m={m}", ("compare", "--wire", f["a"], "--wire", f["copy"]),
            {"code": 0, "equivalent": True}, check_compare)
        add("compare", f"compare dropped m={m}", ("compare", "--wire", f["a"], "--wire", f["dropped"]),
            {"code": 1, "equivalent": False}, check_compare)
        add("compare-unlabeled", f"compare --unlabeled copy m={m}",
            ("compare", "--wire", f["a"], "--wire", f["copy"], "--unlabeled"),
            {"code": 0, "equivalent": True}, check_compare)
    for m in GERM_CHECK_M:
        f = write(m)
        add("validate-germ", f"validate --germ m={m}", ("validate", "--wire", f["a"], "--germ", f["germ"]),
            {"code": 0, "ok": True}, check_validate)
        add("validate-germ", f"validate --germ dropped m={m}",
            ("validate", "--wire", f["dropped"], "--germ", f["germ"]),
            {"code": 1, "ok": False}, check_validate)
    for m in UNLABELED_NO_M:
        f = write(m)
        add("compare-unlabeled", f"compare --unlabeled traded m={m}",
            ("compare", "--wire", f["a"], "--wire", f["traded"], "--unlabeled"),
            {"code": 1, "equivalent": False}, check_compare)
    return Plan(ops)


WORKLOADS = {
    "graph-pipeline": graph_pipeline,
    "braid-ladder": braid_ladder,
    "diagram-read": diagram_read,
}
