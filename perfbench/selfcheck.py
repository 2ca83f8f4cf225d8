"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Wrong answers are caught.  For each workload the warm-up ops (the input
   checks and the smallest op of each kind) run three times: with their
   known answers, which must all pass; with the expected exit code or
   verdict corrupted; and with one answer field corrupted.  Every corrupted
   op must fail, so the fail ratio is above 0.
2. Counts repeat.  Two traced runs with the same seed must report exactly
   the same count metrics, and within each run every traced pass must too.
3. Without the package source (a directory holding only BENCHMARK.json and
   the benchmark's files) ``run.py`` exits non-zero and prints no result.

Every workload is checked, with seed SEED.  Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS

HERE = run.HERE
ROOT = run.ROOT
SEED = 7


def corrupt_verdict(expected: dict) -> dict:
    bad = dict(expected)
    if "code" in bad:
        bad["code"] += 1
    elif "verdict" in bad:
        bad["verdict"] = not bad["verdict"]
    else:
        bad["same_class"] = not bad["same_class"]
    return bad


def _perturb(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, dict):
        key = next(iter(value))
        return {**value, key: _perturb(value[key])}
    if isinstance(value, (list, tuple)):
        return type(value)(value[:-1])
    if isinstance(value, set):
        return value | {"corrupted"}
    return None


def corrupt_field(expected: dict) -> dict:
    """Perturb the first answer field after the exit code (paths excluded)."""
    for key, value in expected.items():
        if key != "code" and not isinstance(value, str):
            bad = copy.deepcopy(expected)
            bad[key] = _perturb(value)
            return bad
    return corrupt_verdict(expected)


def check_wrong_answers(workload: str, seed: int) -> list[str]:
    problems = []
    work = HERE / "work" / f"selfcheck-{workload}-{os.getpid()}"
    try:
        _, plan = run.fresh_plan(WORKLOADS[workload], seed, work)
        ops = plan.warmups()
        honest = run.Runner()
        for op in ops:
            honest.run_op(op)
        problems += [f"{workload}: true answer rejected: {f}" for f in honest.failures]
        for name, corrupt in (("verdict", corrupt_verdict), ("field", corrupt_field)):
            runner = run.Runner()
            for op in ops:
                bad = copy.copy(op)
                bad.expected = corrupt(op.expected)
                before = len(runner.failures)
                runner.run_op(bad)
                if len(runner.failures) == before:
                    problems.append(f"{workload}: corrupted {name} of {op.label} passed")
            ratio = len(runner.failures) / runner.attempted
            print(f"{workload}: {name} corruption, fail ratio {ratio:.3f} "
                  f"({len(runner.failures)}/{runner.attempted})")
            if ratio <= 0:
                problems.append(f"{workload}: fail ratio {ratio} with corrupted {name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return problems


def traced_counts(workload: str, seed: int) -> tuple[dict, bool]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"traced {workload} run failed: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace1.json").read_text())
    counts = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
    return counts, record["environment"]["counts_repeat_across_passes"]


def check_counts_repeat(workload: str, seed: int) -> list[str]:
    first, within_first = traced_counts(workload, seed)
    second, within_second = traced_counts(workload, seed)
    problems = [f"{workload}: count {k} is {first[k]} then {second[k]}"
                for k in first if first[k] != second.get(k)]
    if not (within_first and within_second):
        problems.append(f"{workload}: counts differ between traced passes of one run")
    print(f"{workload}: {len(first)} count metrics, {'repeat' if not problems else 'DIFFER'}")
    return problems


def check_bare_directory() -> list[str]:
    bare = HERE / "work" / f"selfcheck-bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench" / path.name)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "diagram-read", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    if proc.returncode == 0 or proc.stdout.strip():
        return ["run.py succeeded or printed a result without the package source"]
    return []


def main() -> int:
    problems = check_bare_directory()
    for workload in WORKLOADS:
        problems += check_wrong_answers(workload, SEED)
        problems += check_counts_repeat(workload, SEED)
    for p in problems:
        print(f"PROBLEM {p}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    if not run.use_checkout_source():
        sys.exit(f"no package source under {run.SRC}")
    sys.exit(main())
