"""Tables of in-process times from one checkout, or from two side by side.

A timing tool in this directory defines ``measure(checkout)``, which
imports the package of that checkout and returns its tables, and hands
it to ``main``:

    python3 tools/TOOL.py CHECKOUT [OTHER] [--rounds R]

With one checkout the tables are measured in this process and printed as
markdown.  With two, R rounds (default 3) run, each measuring both
checkouts in a fresh subprocess apiece, one after the other; the round's
first checkout alternates, so a drift in the machine's speed falls on
both alike.  The process, and so each round, keeps to the lowest-numbered
CPU it may use, as ``perfbench/run.py`` does: on a virtual machine whose
CPUs run at different speeds, two rounds could otherwise differ by that.  Each cell then shows the median over the rounds of CHECKOUT,
an arrow, the median of OTHER and the change in percent.

A table is a dict: ``columns`` as (header, format spec) pairs, the first
being the row label's, and ``rows``, lists of one cell per column.  A cell is a number, a string, or None (printed as a dash).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path


def fail(message: str):
    """Exit 2 with ``message`` on stderr."""
    print(message, file=sys.stderr)
    raise SystemExit(2)


def checkout_path(path: Path) -> Path:
    checkout = path.resolve()
    if not (checkout / "src" / "sandwich" / "__init__.py").is_file():
        fail(f"no src/sandwich in {checkout}")
    return checkout


def import_api(checkout: Path):
    """``workloads.Api()`` of the checkout's ``perfbench/workloads.py`` and
    package, with no bytecode written into it; the workloads module too."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import workloads

    api = workloads.Api()
    if checkout not in Path(api.cli.__file__).resolve().parents:
        fail(f"sandwich imported from {api.cli.__file__}, not {checkout}")
    return workloads, api


def pin_cpu() -> None:
    """Keep this process, and the ones it starts, on the lowest-numbered
    CPU it may use; only this process's own affinity changes."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def median_ms(call, budget_s: float, max_calls: int) -> tuple[float, object]:
    """Median milliseconds of repeated calls, as many as fit in ``budget_s``
    seconds up to ``max_calls`` and at least one, after one untimed call;
    and the last result."""
    call()
    times: list[float] = []
    start = time.perf_counter()
    while not times or (time.perf_counter() - start < budget_s and len(times) < max_calls):
        t0 = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times), result


def _cell(value, spec: str) -> str:
    if value is None:
        return "–"
    return format(value, spec) if isinstance(value, (int, float)) else str(value)


def _pair_cell(a, b, spec: str) -> str:
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        return _cell(a, spec) if a == b else f"{_cell(a, spec)} → {_cell(b, spec)}"
    if a == b:
        return _cell(a, spec)
    change = f" ({100 * (b - a) / a:+.0f}%)" if a else ""
    return f"{_cell(a, spec)} → {_cell(b, spec)}{change}"


def _median(cells):
    if all(isinstance(x, (int, float)) for x in cells):
        return statistics.median(cells)
    return cells[0]


def print_tables(tables, other=None) -> None:
    """Markdown of ``tables``; with ``other``, each cell paired with the
    same cell of ``other``."""
    for t, table in enumerate(tables):
        headers, specs = zip(*table["columns"])
        print("| " + " | ".join(headers) + " |")
        print("|" + " --- |" * len(headers))
        rows = table["rows"] if other is None else zip(table["rows"], other[t]["rows"], strict=True)
        for row in rows:
            if other is None:
                cells = [_cell(x, spec) for x, spec in zip(row, specs)]
            else:
                cells = [_pair_cell(a, b, spec) for a, b, spec in zip(*row, specs)]
            print("| " + " | ".join(cells) + " |")
        print()


def median_tables(rounds):
    """One set of tables whose every cell is the median of that cell over
    ``rounds``, each a set of tables of the same shape."""
    out = []
    for t, table in enumerate(rounds[0]):
        rows = [[_median([r[t]["rows"][i][j] for r in rounds]) for j in range(len(row))]
                for i, row in enumerate(table["rows"])]
        out.append({**table, "rows": rows})
    return out


def main(tool: str, measure, argv=None) -> int:
    parser = argparse.ArgumentParser(description=sys.modules["__main__"].__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("other", type=Path, nargs="?")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)  # one round of a pair
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be positive")
    checkouts = [checkout_path(args.checkout)] + ([checkout_path(args.other)] if args.other else [])
    pin_cpu()
    if len(checkouts) == 1:
        tables = measure(checkouts[0])
        if args.json:
            print(json.dumps(tables))
        else:
            print_tables(tables)
        return 0
    rounds: list[list] = [[], []]
    for r in range(args.rounds):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            done = subprocess.run([sys.executable, "-B", tool, "--json", str(checkouts[side])],
                                  capture_output=True, text=True, check=False)
            if done.returncode != 0:
                fail(f"round {r + 1} on {checkouts[side]} failed:\n{done.stderr}")
            rounds[side].append(json.loads(done.stdout.splitlines()[-1]))
        print(f"round {r + 1} of {args.rounds} done", file=sys.stderr, flush=True)
    print(f"Medians of {args.rounds} alternating rounds: {checkouts[0]} → {checkouts[1]}.")
    print()
    print_tables(median_tables(rounds[0]), median_tables(rounds[1]))
    return 0
