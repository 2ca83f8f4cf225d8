"""Command-line surface: file I/O, subcommands wiring the core modules
together, and SVG rendering of wiring diagrams."""

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .errors import FormatError, SandwichError
from .fillings import incidence_canonical, incidence_equiv, unexpected_arrangement
from .lines import Ledger
from .plumbing import (
    automorphisms,
    blow_down,
    chain_collision,
    extend_chains,
    germ_from_cluster,
    germ_from_trace,
    germ_json,
    graph_from_cluster,
    parse_germ,
    parse_plumb,
    read_chains,
    serialize_plumb,
    trace_json,
)
from .wiring import (
    WiringDiagram,
    enclosure_from_wiring,
    factorization_from_json,
    factorization_json,
    incidence,
    incidence_json,
    inside_out,
    parse_wire,
    scott,
    serialize_wire,
    validate_wiring,
    vanishing_data,
    wiring_from_vanishing,
)

SUPPORTED_FORMAT_VERSIONS = (1,)


def _format_version() -> int:
    raw = os.environ.get("SANDWICH_FORMAT_VERSION", "1")
    try:
        version = int(raw)
    except ValueError:
        raise FormatError(f"bad format version {raw!r}", location="SANDWICH_FORMAT_VERSION")
    if version not in SUPPORTED_FORMAT_VERSIONS:
        raise FormatError(f"unsupported format version {version}", location="SANDWICH_FORMAT_VERSION")
    return version


def _emit_error(code: str, message: str, location=None) -> None:
    payload = {"code": code, "message": message, "location": location}
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def _write(text: str, out) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


_SCALARS = frozenset({int, float, str, bool, type(None)})
_BYTE_TEXT = {i: str(i) for i in range(256)}


def _dumps(x, indent: str = "") -> str:
    """``json.dumps(x, indent=2, sort_keys=True)``, byte for byte, with as
    few encoders built as it can: json.dumps builds one per call unless it
    writes a bare str with default options.  So a str key is
    ``json.dumps(k)``, an exact-int leaf its repr, a list of exact ints one
    join (from ``_BYTE_TEXT`` when each is in 0..255, else of its repr), and
    an empty container, true, false and null their literals.  Any other
    list, or a dict, of scalars only goes to the C encoder, which ``indent``
    would turn off, with the newline and indent in its item separator; its
    brackets are then re-wrapped.  Anything else recurses."""
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(x, dict):
        if not x:
            return "{}"
        if _SCALARS.issuperset(map(type, x.values())):
            body = json.dumps(x, separators=(sep, ": "), sort_keys=True)[1:-1]
        else:
            # json.dumps({k: 0})[1:-4] is a key of any other type than str as json writes it
            body = sep.join([f"{json.dumps(k) if type(k) is str else json.dumps({k: 0})[1:-4]}: "
                             f"{_dumps(x[k], inner)}" for k in sorted(x)])
        return "{\n" + inner + body + "\n" + indent + "}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        types = set(map(type, x))
        if types == {int}:
            try:
                body = sep.join(map(_BYTE_TEXT.__getitem__, x))
            except KeyError:  # an int outside 0..255; list(x): a one-item tuple's repr ends in ",)"
                body = repr(list(x))[1:-1].replace(", ", sep)
        elif _SCALARS.issuperset(types):
            body = json.dumps(x, separators=(sep, ": "))[1:-1]
        else:
            body = sep.join([_dumps(v, inner) for v in x])
        return "[\n" + inner + body + "\n" + indent + "]"
    if type(x) is int:
        return repr(x)
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    return json.dumps(x)


def _write_json(data: dict, out, version: int) -> None:
    payload = {"formatVersion": version}
    payload.update(data)
    _write(_dumps(payload) + "\n", out)


def _read(path: str) -> str:
    """The file's text as UTF-8, with ``\\r\\n`` and ``\\r`` read as ``\\n``, as
    text mode reads them (neither byte occurs inside a UTF-8 sequence).  Bytes
    that are not UTF-8 are a ``FormatError`` at the line of the first."""
    data = Path(path).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})",
                          location=f"line {line}") from None


# ---------------------------------------------------------------------------
# rendering

_STRAND_STYLE = 'fill="none" stroke="black" stroke-width="0.05"'


def render(w: WiringDiagram, version: int = 1) -> str:
    """Strands as polylines left to right, position 1 at the bottom; one x
    unit per seq element, one y unit per strand position.  Crossings break
    the understrand; tangencies are filled diamonds, intersections filled
    dots sized by strand count, free points open circles.  What depends on
    the diagram alone is formatted once per call, in tables of the call:
    the y string of each position, the end and gap y strings of each signed
    letter, and the centre y, radius and spokes of each event window.  So
    is each column boundary; those at the ends of a braid slot are whole
    numbers, written as the integer and ".000".  The straight segments
    outside a window are one template, split at the left x and filled with
    one join and one replacement of the right x.  A crossing is then one
    f-string and one fill, an event one fill of its spokes and straight
    segments, and the document one join of the path pieces."""
    n = w.n
    ys = [f"{n - p + 1:.3f}" for p in range(n + 1)]
    near, far = 0.5 - 0.18, 0.5 + 0.18  # the understrand's gap
    paths: list[str] = []
    markers: list[str] = []
    crossings, windows = {}, {}  # per signed letter, per event window (lo, hi)

    def straight(lo: int, hi: int, whole: str = "") -> list[str]:
        """The straight segments at positions outside lo..hi, with the left
        x as \\0 and the right x as \\1, each followed by ``whole``."""
        return [f"M \0{whole} {yp} L \1{whole} {yp}" for yp in ys[1:lo] + ys[hi + 1 :]]

    bare = " ".join(straight(0, 0, ".000")).split("\0")
    left = "0"  # the integer x where the next braid slot starts
    for j, (word, ev) in enumerate(zip(w.braids, w.events + (None,))):
        x = 2 * j
        m = len(word)
        right = str(x + 1)
        if not m:
            paths.append(left.join(bare).replace("\1", right))
        else:
            xf = [x + t / m for t in range(m + 1)]
            xs = [f"{left}.000"] + [f"{v:.3f}" for v in xf[1:m]] + [f"{right}.000"]
            # rightmost letter acts first, so it is drawn first
            for t, letter in enumerate(reversed(word)):
                if letter not in crossings:
                    i = abs(letter)
                    parts = " ".join(straight(i, i + 1)).split("\0")  # one template for i and -i
                    # the understrand runs from position p0 to p1, the overstrand back
                    for signed, p0, p1 in ((i, i + 1, i), (-i, i, i + 1)):
                        u0, u1 = n - p0 + 1, n - p1 + 1
                        crossings[signed] = (ys[p1], ys[p0], f"{u0 + near * (u1 - u0):.3f}",
                                             f"{u0 + far * (u1 - u0):.3f}", parts)
                y1, y0, ny, fy, parts = crossings[letter]
                a, b, xa, xb = xs[t], xs[t + 1], xf[t], xf[t + 1]
                paths.append(f"M {a} {y1} L {b} {y0} M {a} {y0} L {xa + near * (xb - xa):.3f} {ny} "
                             f"M {xa + far * (xb - xa):.3f} {fy} L {b} {y1}")
                if len(parts) > 1:  # a letter on two strands leaves no straight segment
                    paths.append(a.join(parts).replace("\1", b))
        if ev is None:
            break
        lo, hi = ev.lo, ev.hi
        if (lo, hi) not in windows:
            k = hi - lo + 1
            yc = sum(n - p + 1 for p in range(lo, hi + 1)) / k
            syc = f"{yc:.3f}"
            # the event spans x + 1 .. x + 2 (\0 .. \1), its centre halfway
            spokes = [f"M \0.000 {yp} L \0.500 {syc} M \0.500 {syc} L \1.000 {yp}" for yp in ys[lo : hi + 1]]
            windows[lo, hi] = (yc, syc, f"{0.08 + 0.03 * k:.3f}",
                               " ".join(spokes + straight(lo, hi, ".000")).split("\0"))
        yc, syc, radius, parts = windows[lo, hi]
        left = str(x + 2)
        paths.append(right.join(parts).replace("\1", left))
        if ev.kind == "T":
            r, cx = 0.16, x + 1.5
            markers.append(
                f'<path class="tangency" fill="black" d="M {right}.500 {yc - r:.3f} '
                f'L {cx + r:.3f} {syc} L {right}.500 {yc + r:.3f} L {cx - r:.3f} {syc} Z"/>\n'
            )
        elif ev.kind == "I":
            markers.append(
                f'<circle class="intersection" fill="black" cx="{right}.500" cy="{syc}" r="{radius}"/>\n'
            )
        else:
            markers.append(
                f'<circle class="free" fill="white" stroke="black" stroke-width="0.04" '
                f'cx="{right}.500" cy="{syc}" r="0.110"/>\n'
            )

    width = len(w.braids) + len(w.events)
    # n >= 1 and the first braid slot always draws, so paths is never empty
    paths[0] = (f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="-0.5 0 {width + 1} {n + 1}">\n'
                f'<!-- format {version} -->\n<path class="strand" {_STRAND_STYLE} d="{paths[0]}')
    paths[-1] += '"/>\n' + "".join(markers) + "</svg>\n"
    return " ".join(paths)


# ---------------------------------------------------------------------------
# subcommands


def _load_plumb(path: str):
    g, aug, chains = parse_plumb(_read(path))
    if chains:
        g, aug = extend_chains(g, aug, chains)
    return g, aug


def _cmd_germ(args, version):
    g, aug = _load_plumb(args.graph)
    trace = blow_down(g, aug)
    germ = germ_from_trace(trace, aug)
    if args.trace is not None:
        _write_json(trace_json(trace), args.trace, version)
    _write_json(germ_json(germ), args.out, version)
    return 0


def _cmd_graph(args, version):
    c = parse_germ(_read(args.germ))
    g, aug = graph_from_cluster(c)
    _write(serialize_plumb(g, aug), args.out)
    return 0


def _cmd_scott(args, version):
    c = parse_germ(_read(args.germ))
    _write(serialize_wire(scott(c)), args.out)
    return 0


def _cmd_validate(args, version):
    w = parse_wire(_read(args.wire))
    germ = germ_from_cluster(parse_germ(_read(args.germ))) if args.germ else None
    report = validate_wiring(w, germ=germ)
    problems = [{"code": code, "message": msg} for code, msg in report.entries]
    _write_json({"ok": report.ok, "problems": problems}, args.out, version)
    return 0 if report.ok else 1


def _cmd_vanishing(args, version):
    w = parse_wire(_read(args.wire))
    _write_json(factorization_json(vanishing_data(w)), args.out, version)
    return 0


def _cmd_wire_from_vanishing(args, version):
    fact = factorization_from_json(json.loads(_read(args.fact)))
    _write(serialize_wire(wiring_from_vanishing(fact)), args.out)
    return 0


def _cmd_incidence(args, version):
    w = parse_wire(_read(args.wire))
    _write_json(incidence_json(incidence_canonical(incidence(w))), args.out, version)
    return 0


def _cmd_compare(args, version):
    if len(args.wire) != 2:
        _emit_error("usage", "compare needs exactly two --wire inputs")
        return 2
    a, b = (incidence(parse_wire(_read(p))) for p in args.wire)
    equivalent = incidence_equiv(a, b, unlabeled=args.unlabeled)
    _write_json({"equivalent": equivalent}, args.out, version)
    return 0 if equivalent else 1


def _cmd_inside_out(args, version):
    w = parse_wire(_read(args.wire))
    e = inside_out(enclosure_from_wiring(w), args.hole)
    data = {
        "holes": e.n,
        "components": list(e.components),
        "items": [{"kind": kind, "holes": sorted(holes)} for kind, holes in e.items],
    }
    _write_json(data, args.out, version)
    return 0


def _cmd_extend(args, version):
    g, aug = _load_plumb(args.graph)
    names, lengths = Ledger("chains", where="--chains"), {}
    names.defined.update(("curvetta", c) for c in aug.curvettas())
    try:
        read_chains(names, args.chains, lengths)
    except ValueError:
        raise names.error(f"bad chain spec {args.chains!r}")
    names.check()
    if hit := chain_collision(set(g.names()), aug.arrows, lengths):
        raise names.error(f"chain vertex name {hit[1]} collides")
    _write(serialize_plumb(*extend_chains(g, aug, lengths)), args.out)
    return 0


def _cmd_unexpected(args, version):
    g, aug = _load_plumb(args.graph)
    arr = unexpected_arrangement(g, aug, args.n, args.wmax)
    plumb_path = f"{args.out}.plumb"
    wire_path = f"{args.out}.wire"
    _write(serialize_plumb(arr.graph, arr.arrows), plumb_path)
    _write(serialize_wire(arr.wiring), wire_path)
    _write_json(
        {"plumb": plumb_path, "wire": wire_path, "germ": germ_json(arr.germ)},
        None, version,
    )
    return 0


def _cmd_auts(args, version):
    g, _ = _load_plumb(args.graph)
    _write_json({"automorphisms": automorphisms(g)}, args.out, version)
    return 0


def _cmd_render(args, version):
    w = parse_wire(_read(args.wire))
    _write(render(w, version), args.out)
    return 0


_OUT = (("-o", "--out"), {"help": "output path (default stdout)"})
_GRAPH = (("--graph",), {"required": True})
_GERM = (("--germ",), {"required": True})
_WIRE = (("--wire",), {"required": True})

# name -> (handler, help, arguments in the order --help lists them)
_COMMANDS = {
    "germ": (_cmd_germ, "decorated germ of a plumbing graph, as JSON", (
        _OUT, _GRAPH,
        (("--trace",), {"metavar": "PATH", "help": "also write the blow-down trace, as JSON"}),
    )),
    "graph": (_cmd_graph, "plumbing graph presenting a cluster", (_OUT, _GERM)),
    "scott": (_cmd_scott, "wiring diagram laid out straight from a cluster", (_OUT, _GERM)),
    "validate": (_cmd_validate, "check a wiring diagram, optionally against a cluster", (
        _OUT, _WIRE, (("--germ",), {}),
    )),
    "vanishing": (_cmd_vanishing, "vanishing-cycle factorization of a diagram, as JSON",
                  (_OUT, _WIRE)),
    "wire-from-vanishing": (_cmd_wire_from_vanishing, "rebuild the diagram of a factorization", (
        _OUT, (("--fact",), {"required": True}),
    )),
    "incidence": (_cmd_incidence, "canonical incidence matrix of a diagram, as JSON",
                  (_OUT, _WIRE)),
    "compare": (_cmd_compare, "exit 0 iff two diagrams have equivalent incidence data", (
        _OUT,
        (("--wire",), {"action": "append", "required": True}),
        (("--unlabeled",), {"action": "store_true", "help": "allow any row bijection"}),
    )),
    "inside-out": (_cmd_inside_out, "enclosure data re-read through one hole", (
        _OUT, _WIRE, (("--hole",), {"type": int, "required": True}),
    )),
    "extend": (_cmd_extend, "insert -2 chains before the arrows of a graph", (
        _OUT, _GRAPH,
        (("--chains",), {"required": True, "help": "comma list, e.g. c=3,d=4"}),
    )),
    "unexpected": (_cmd_unexpected, "star-extended arrangement: graph plus combined diagram", (
        _GRAPH,
        (("-N",), {"type": int, "required": True, "dest": "n"}),
        (("--wmax",), {"type": int, "required": True}),
        (("-o", "--out"), {"default": "K", "help": "output prefix (default K)"}),
    )),
    "auts": (_cmd_auts, "graph automorphisms, as JSON", (_OUT, _GRAPH)),
    "render": (_cmd_render, "SVG picture of a wiring diagram", (_OUT, _WIRE)),
}


class _Parser(argparse.ArgumentParser):
    # usage problems follow the same stderr JSON contract as parse errors
    def error(self, message):
        _emit_error("usage", message)
        raise SystemExit(2)


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    for flags, kwargs in _COMMANDS[name][2]:
        parser.add_argument(*flags, **kwargs)
    return parser


@functools.cache
def _parser(name: str) -> argparse.ArgumentParser:
    """The parser add_parser builds for command ``name``, alone, built on
    first use and kept for the process: it depends on ``_COMMANDS`` only,
    and argparse keeps no per-parse state on a parser."""
    return _add_arguments(_Parser(prog=f"sandwich {name}"), name)


def build_parser() -> argparse.ArgumentParser:
    """The parser with a subparser for each command."""
    p = _Parser(prog="sandwich", description="plumbing graphs, wiring diagrams, fillings")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    try:
        if name in _COMMANDS:
            # it parses, prints help and reports usage errors as build_parser does
            args = _parser(name).parse_args(argv[1:])
        else:
            args = build_parser().parse_args(argv)
            name = args.command
    except SystemExit as exc:
        return exc.code or 0
    try:
        version = _format_version()
        return _COMMANDS[name][0](args, version)
    except SandwichError as exc:
        _emit_error(exc.code, exc.message, exc.location)
        return 2
    except json.JSONDecodeError as exc:
        _emit_error("format", str(exc), f"line {exc.lineno}")
        return 2
    except OSError as exc:
        _emit_error("io", str(exc), getattr(exc, "filename", None))
        return 2
    except Exception as exc:
        # a bug or a resource limit, never a computed "no"
        _emit_error("internal", f"{type(exc).__name__}: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
