"""In-process times of the read side: diagram-read's arrangements, then
the ``.germ`` and ``.plumb`` readers, then the ``vanishing`` path at the
paper's sizes and on one 40-strand action word.

    python3 tools/read_time.py CHECKOUT [OTHER] [--rounds R]

Imports ``perfbench/workloads.py`` and the package under ``src/`` of the
git checkout CHECKOUT, and writes nothing inside it (no bytecode cache
either).  With a second checkout OTHER it runs R alternating rounds, each
checkout in a fresh subprocess, and pairs the medians (``tools/paired.py``),
so that a drift in the machine's speed between runs does not read as a
difference between the checkouts.

For each m of diagram-read's arrangement rungs (m = 8, 12, ..., 40) it
builds the generic arrangement of m lines as that workload does, with the
component labels of seed 7, and gives one row of the first table:

- ``seq``: the entries of its ``seq`` line against the distinct chunks
  among them (``parse_wire`` reads each distinct chunk once);
- ``parse_wire``: milliseconds to parse the ``.wire`` text;
- ``walk``: milliseconds of the strand walk (``WiringDiagram.walked``,
  computed anew on each call instead of read from its cache);
- ``boundary_braid``: milliseconds per call (both pushoffs, then the
  reduced product of the top's inverse and the bottom);
- ``incidence``: milliseconds per call, on a diagram whose walk is cached;
- ``incidence_canonical``: milliseconds per call on that matrix, whose
  rows are already in label order, so the call is one sort of its stored
  columns;
- ``render``: milliseconds per call of the SVG renderer;
- ``render peak``: the ``tracemalloc`` peak of one ``render`` call as a
  multiple of the length of the SVG it returns;
- ``compare``: milliseconds per ``cli.main`` call of ``compare`` of the
  arrangement against its copy with the free points first (two parses, two
  walks and one labelled equivalence), on files in a temporary directory;
- ``incidence`` CLI: milliseconds per ``cli.main`` call of ``incidence`` on
  the arrangement (a parse, a walk, the matrix, its canonical form and the
  JSON);
- ``compare --unlabeled``: milliseconds per ``cli.main`` call of ``compare
  --unlabeled`` of the arrangement against that copy (as ``compare``, with
  two canonical forms in place of the labelled equivalence);
- ``vanishing``: milliseconds per call of ``factorization_json`` of
  ``vanishing_data``, what CLI ``vanishing`` computes.  The benchmark runs
  ``vanishing`` on 4 strands only, so this is where its cost at the
  paper's sizes shows.

The three CLI columns are diagram-read ops; beside ``render`` they are its
slowest at the top rungs.

A second table has one row per text read by a parser: each star and cusp
cluster that graph-pipeline writes at seed 7 (its ``graph`` and ``scott``
ops each parse the file once per pass), timed through ``parse_germ``, and
a -2 chain of ``CHAIN_VERTICES`` vertices with one arrow, timed through
``parse_plumb``.  Each row gives the content lines, milliseconds per call
and microseconds per line; the last row sums the clusters' times, twice
each, which is what one graph-pipeline pass spends parsing them.

A third table times that ``vanishing`` path on the layouts that
``unexpected_arrangement`` builds for the line pair (``vertex v -3`` with two
curvettas, ``wmax`` 5) at each N of ``UNEXPECTED_N``.

A fourth table has one row per k of ``ACTION_K`` for the 40-strand word
s1^-1 s39 s1^-1 s39 P^k R P^-k (P = s1 s2^-1, R = s1 s2 s1 s2' s1' s2',
trivial): the letters of the word ``mcg._action_word`` returns and its
milliseconds per call, and the milliseconds of ``canonical_curve`` of the
cycle around holes 1 and 2 with that word as conjugator.  When the raw word
is kept, the action walks the trivial R letter by letter, and that cost
grows exponentially in k.

Each time is the median of as many calls as fit in ``BUDGET_S`` seconds, at
least one, after one untimed call.  The peak is taken with tracing on only
around that one call, so the times are not slowed by it.
"""

import sys
import tempfile
import tracemalloc
from pathlib import Path

sys.dont_write_bytecode = True
import paired  # noqa: E402  (after the flag, so no cache is written beside it)

SEED = 7
BUDGET_S = 0.5
MAX_CALLS = 51
CHAIN_VERTICES = 2000
UNEXPECTED_N = (1, 2, 3)
ACTION_K = (8, 10, 12)


def median_ms(call) -> tuple[float, object]:
    return paired.median_ms(call, BUDGET_S, MAX_CALLS)


def peak_ratio(call) -> float:
    """``tracemalloc`` peak of one call over the length of its result."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / len(result)


def chain_plumb(length: int) -> str:
    """A -2 chain of ``length`` vertices with a curvetta on its last."""
    lines = [f"vertex v{i} -2" for i in range(length)]
    lines += [f"edge v{i} v{i + 1}" for i in range(length - 1)]
    return "\n".join(lines + [f"curvetta c on v{length - 1}"]) + "\n"


def parse_rows(workloads, api):
    """(label, text, parser) per text of the second table."""
    with tempfile.TemporaryDirectory() as tmp:
        workloads.graph_pipeline(api, workloads.Names(SEED), Path(tmp))
        germs = sorted(Path(tmp).glob("cluster_*.germ"), key=lambda p: int(p.stem.split("_")[1]))
        texts = [p.read_text() for p in germs]
    labels = [f"star m={m} t={t}" for m, t in workloads.STAR_CLUSTERS]
    labels += [f"cusp t={t}" for t in workloads.CUSP_TAILS]
    rows = [(label, text, api.plumbing.parse_germ) for label, text in zip(labels, texts, strict=True)]
    rows.append((f"-2 chain of {CHAIN_VERTICES}", chain_plumb(CHAIN_VERTICES), api.plumbing.parse_plumb))
    return rows


def measure(checkout: Path) -> list[dict]:
    workloads, api = paired.import_api(checkout)
    wiring, fillings, cli = api.wiring, api.fillings, api.cli
    labels_all = workloads.Names(SEED).take(max(workloads.ARRANGEMENT_M))
    columns = [("m", ""), ("`seq` entries / distinct", ""), ("svg bytes", ","), ("`parse_wire` ms", ",.2f"),
               ("walk ms", ",.2f"), ("`boundary_braid` ms", ",.2f"), ("`incidence` ms", ",.2f"),
               ("`incidence_canonical` ms", ",.2f"), ("`render` ms", ",.2f"), ("render peak ×", ".2f"),
               ("`compare` ms", ",.2f"), ("`incidence` CLI ms", ",.2f"), ("`compare --unlabeled` ms", ",.2f"),
               ("`vanishing` ms", ",.2f")]
    rows = []
    for m in workloads.ARRANGEMENT_M:
        text = workloads.arrangement(labels_all[:m])
        chunks = [c.strip() for c in text.partition("seq:")[2].split(",")]
        parse_ms, w = median_ms(lambda: wiring.parse_wire(text))
        walk_ms, _ = median_ms(lambda: type(w).walked.func(w))
        braid_ms, _ = median_ms(lambda: wiring.boundary_braid(w))
        incidence_ms, matrix = median_ms(lambda: wiring.incidence(w))
        canonical_ms, _ = median_ms(lambda: fillings.incidence_canonical(matrix))
        render_ms, svg = median_ms(lambda: cli.render(w))
        peak = peak_ratio(lambda: cli.render(w))
        with tempfile.TemporaryDirectory() as tmp:
            a, copy = Path(tmp) / "a.wire", Path(tmp) / "copy.wire"
            a.write_text(text)
            copy.write_text(workloads.arrangement(labels_all[:m], free_first=True))
            cli_ms = []
            for label, argv in (("compare", ("compare", "--wire", a, "--wire", copy)),
                                ("incidence", ("incidence", "--wire", a)),
                                ("compare --unlabeled", ("compare", "--wire", a, "--wire", copy, "--unlabeled"))):
                ms, result = median_ms(lambda: api.run_cli(*argv))
                if result.code != 0:
                    raise SystemExit(f"{label} m={m} exited {result.code}: {result.stderr}")
                cli_ms.append(ms)
        vanishing_ms, _ = median_ms(lambda: wiring.factorization_json(wiring.vanishing_data(w)))
        rows.append([m, f"{len(chunks):,} / {len(set(chunks)):,}", len(svg), parse_ms, walk_ms, braid_ms,
                     incidence_ms, canonical_ms, render_ms, peak, *cli_ms, vanishing_ms])
    texts = []
    pass_ms = pass_lines = 0
    for label, text, parse in parse_rows(workloads, api):
        ms, _ = median_ms(lambda: parse(text))
        lines = sum(1 for line in text.splitlines() if line.split("#", 1)[0].strip())
        if parse is api.plumbing.parse_germ:
            pass_ms, pass_lines = pass_ms + 2 * ms, pass_lines + 2 * lines
        texts.append([label, f"`{parse.__name__}`", lines, ms, 1000 * ms / lines])
    texts.append(["clusters, one graph-pipeline pass", "`parse_germ`", pass_lines, pass_ms,
                  1000 * pass_ms / pass_lines])
    g, aug, _ = api.plumbing.parse_plumb("vertex v -3\ncurvetta a on v\ncurvetta b on v\n")
    layouts = []
    for n in UNEXPECTED_N:
        w = fillings.unexpected_arrangement(g, aug, n, workloads.WMAX).wiring
        ms, _ = median_ms(lambda: wiring.factorization_json(wiring.vanishing_data(w)))
        layouts.append([f"unexpected pair N={n}", w.n, len(w.events), ms])
    mcg, actions, p = api.mcg, [], (1, -2)  # P = s1 s2^-1
    for k in ACTION_K:
        word = (-1, 39, -1, 39) + p * k + workloads.TRIVIAL_R + mcg.inverse_word(p) * k
        action_ms, action = median_ms(lambda: mcg._action_word(word, 40))
        curve_ms, _ = median_ms(lambda: mcg.canonical_curve(mcg.HoleCurve(40, word, 1, 1)))
        actions.append([k, len(word), len(action), action_ms, curve_ms])
    return [{"columns": columns, "rows": rows},
            {"columns": [("text", ""), ("parser", ""), ("lines", ","), ("ms per call", ",.3f"),
                                      ("µs per line", ".2f")], "rows": texts},
            {"columns": [("layout", ""), ("strands", ""), ("events", ","), ("`vanishing` ms", ",.2f")],
             "rows": layouts},
            {"columns": [("k", ""), ("word letters", ","), ("action word letters", ","),
                         ("`_action_word` ms", ",.3f"), ("`canonical_curve` ms", ",.2f")], "rows": actions}]


if __name__ == "__main__":
    sys.exit(paired.main(__file__, measure))
