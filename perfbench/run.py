"""Benchmark of the sandwich package: one workload, one seed, one process.

    python3 perfbench/run.py --workload graph-pipeline --seed 1 --seconds 20 --trace 0

Run from a checkout: the package is imported from ``src/`` next to this
directory, never from anywhere else.  One client drives the workload in a
closed loop: one thread, each op starting after the previous one ends,
the process pinned to one CPU.

Set-up (``setup_s``, median of SETUP_REPEATS rounds) is a fresh import of
the package, seeded input generation, writing the input files and one
warm-up op of each kind.  Then whole passes over the workload's fixed op
list run until ``--seconds`` have passed and at least MIN_OPS ops ran.
Each pass starts, untimed, from a fresh import and freshly written inputs,
so no module state carries over from one pass to the next.
Times are reported at the nominal machine speed of ``calibration.py``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` traced and untraced passes alternate and it reports the
per-layer metrics (medians over traced passes) and ``trace.overhead_s``.
A record with the environment, raw and scaled times and every failure is
written to ``perfbench/out/``; spans of a traced run go beside it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from calibration import NOMINAL_CHUNK_S, scales, time_chunk
from tracing import PER_LAYER, Tracer
from workloads import WORKLOADS, Api, CliResult, Names, Wrong

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
SETUP_CHUNKS = 5  # speed chunks before and after each set-up round
MIN_OPS = 100


def use_checkout_source() -> bool:
    """Put this checkout's src/ first on the path; False when the checkout
    has no package source."""
    if not (SRC / "sandwich" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def pin_to_one_cpu() -> int | None:
    """Keep this process on the lowest-numbered CPU it may use.  On a
    virtual machine the CPUs can run at different speeds, and a process
    that lands on a slower one stays there; pinning makes every run use the
    same one.  Only this process's own affinity changes."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def load_avg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Runner:
    """Runs ops, times each call, checks each answer."""

    def __init__(self):
        self.tracer = None
        self.raw: list[float] = []  # seconds per op, as measured
        self.by_label: dict[str, list[float]] = {}  # seconds per op at nominal speed
        self.raw_by_label: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.passes: list[dict] = []  # raw op times and speed chunks per pass

    def run_op(self, op) -> float:
        self.attempted += 1
        error = None
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a crash is a failed op, the run goes on
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if error is None:
            try:
                op.check(result, op.expected)
            except Wrong as exc:
                error = f"wrong answer: {exc}"
            except (KeyError, ValueError, TypeError, IndexError, OSError) as exc:
                error = f"unreadable answer: {type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append(f"{op.label}: {error}")
        if self.tracer is not None and isinstance(result, CliResult):
            self.tracer.counts["cli.out_bytes"] += len(result.stdout.encode()) + sum(
                p.stat().st_size for p in op.outputs if p.exists())
        return elapsed

    def run_pass(self, ops) -> tuple[float, float]:
        """(raw, scaled) time of one pass: the ops only, answer checks and
        speed chunks excluded."""
        raw, chunks = [], []
        for op in ops:
            chunks.append(clean_chunk())
            raw.append(self.run_op(op))
        chunks.append(clean_chunk())
        scaled = [r * s for r, s in zip(raw, scales(chunks))]
        self.passes.append({"raw": raw, "chunks": chunks})
        for op, r, s in zip(ops, raw, scaled):
            self.raw.append(r)
            self.raw_by_label.setdefault(op.label, []).append(r)
            self.by_label.setdefault(op.label, []).append(s)
        return sum(raw), sum(scaled)


def clean_chunk() -> float:
    """Collect the garbage of earlier ops, then time one speed chunk.  The
    chunk leaves no garbage, so the op after it also starts on a clean heap."""
    gc.collect()
    return time_chunk()


def fresh_plan(build, seed: int, work: Path):
    """A fresh import of the package and freshly written inputs in an empty
    ``work``, so no module state of earlier ops (a cache, a memo table) can
    carry an answer into the ops of this plan."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    api = Api()
    return api, build(api, Names(seed), work)


def setup(build, seed: int, work: Path):
    """SETUP_REPEATS full set-ups.  Returns the raw and scaled round times
    and the runner that ran the last round's warm-ups."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        warm = Runner()
        chunks = [clean_chunk() for _ in range(SETUP_CHUNKS)]
        t0 = time.perf_counter()
        _, plan = fresh_plan(build, seed, work)
        for op in plan.warmups():
            warm.run_op(op)
        raw.append(time.perf_counter() - t0)
        chunks += [clean_chunk() for _ in range(SETUP_CHUNKS)]
        scaled.append(raw[-1] * NOMINAL_CHUNK_S / statistics.median(chunks))
    return raw, scaled, warm


def decile(values, k: int) -> float:
    """k-th decile by linear interpolation (the inclusive method)."""
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_checkout_source():
        print(f"error: no package source at {SRC}/sandwich", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    env = {"python": platform.python_version(), "implementation": platform.python_implementation(),
           "nproc": cpu_count(), "loadavg_start": load_avg()}
    env["pinned_cpu"] = pin_to_one_cpu()
    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        build = WORKLOADS[args.workload]
        setup_raw, setup_scaled, runner = setup(build, args.seed, work)
        import sandwich

        if Path(sandwich.__file__).resolve().parent != (SRC / "sandwich").resolve():
            print(f"error: imported sandwich from {sandwich.__file__}", file=sys.stderr)
            return 2

        tracer = Tracer() if args.trace else None
        runner.tracer = tracer
        plain, traced = [], []  # (raw, scaled) per pass
        walls: list[float] = []  # whole passes, checks and speed chunks included
        t0 = time.perf_counter()
        # start a pass while at least half of a typical one fits in --seconds
        while (time.perf_counter() - t0 + (statistics.median(walls) / 2 if walls else 0) < args.seconds
               or len(runner.raw) < MIN_OPS or (tracer is not None and not traced)):
            t_pass = time.perf_counter()
            api, plan = fresh_plan(build, args.seed, work)  # untimed: ops are timed one by one
            if tracer is not None and len(plain) > len(traced):
                tracer.install(api.modules())
                tracer.begin_pass()
                try:
                    traced.append(runner.run_pass(plan.ops))
                finally:
                    tracer.uninstall()
                tracer.end_pass()
            else:
                plain.append(runner.run_pass(plan.ops))
            walls.append(time.perf_counter() - t_pass)
        measured_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still works there
            pass

    failed = len(runner.failures)
    # each op's median over the passes; a typical pass is their sum
    op_ms = sorted(statistics.median(v) * 1000 for v in runner.by_label.values())
    raw_op_ms = sorted(statistics.median(v) * 1000 for v in runner.raw_by_label.values())
    raw_summary = {"setup_s": statistics.median(setup_raw), "pass_s": sum(raw_op_ms) / 1000,
                   "op_ms_p50": decile(raw_op_ms, 5), "op_ms_p90": decile(raw_op_ms, 9)}
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "pass_s": (sum(op_ms) / 1000, "s"),
            "op_ms_p50": (decile(op_ms, 5), "ms"),
            "op_ms_p90": (decile(op_ms, 9), "ms"),
            "ok_ratio": (1 - failed / runner.attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        units = {name: unit for name, unit, _ in PER_LAYER}
        per_pass = []
        for (lo, hi, counts), (raw, scaled) in zip(tracer.passes, traced):
            values = tracer.pass_metrics(lo, hi, counts)
            # span times are raw; bring them to nominal speed like the pass
            per_pass.append({k: v * scaled / raw if units[k] == "ms" else v for k, v in values.items()})
        metrics = {name: (statistics.median(p[name] for p in per_pass), units[name]) for name in units}
        metrics["trace.overhead_s"] = (
            statistics.median(s for _, s in traced) - statistics.median(s for _, s in plain), "s")
        counts = [{k: v for k, v in p.items() if units[k] == "count"} for p in per_pass]
        env["counts_repeat_across_passes"] = all(c == counts[0] for c in counts)

    env["loadavg_end"] = load_avg()
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "measured_s": measured_s, "op_samples": len(runner.raw),
        "raw": raw_summary, "setup_raw_s": setup_raw, "setup_scaled_s": setup_scaled,
        "passes_raw_scaled_s": plain, "traced_passes_raw_scaled_s": traced,
        "op_median_ms": {label: statistics.median(v) * 1000 for label, v in runner.by_label.items()},
        "failures": runner.failures, "result": result, "pass_detail": runner.passes,
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(out / f"{stem}.spans.tsv.gz")

    for line in runner.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(plain)} plain + "
          f"{len(traced)} traced passes, {len(runner.raw)} op samples, "
          f"{failed}/{runner.attempted} failed; raw pass_s {raw_summary['pass_s']:.3f}; "
          f"python {env['python']}, nproc {env['nproc']}, cpu {env['pinned_cpu']}, "
          f"loadavg {env['loadavg_start']} -> {env['loadavg_end']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
