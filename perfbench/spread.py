"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload graph-pipeline --seeds 1-10

Runs ``run.py`` once per seed for BENCHMARK.json's ``run_seconds``, one run
at a time, and prints for each
end-to-end metric its median and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound in BENCHMARK.json.  A spread above a third of the
bound is flagged; ``setup_s`` is only compared between two sets of runs, so
its spread is shown but not flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return result, record["raw"]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workload:
        results, raws = [], []
        for seed in seeds(args.seeds):
            res, raw = run_once(workload, seed, bench["run_seconds"])
            results.append(res)
            raws.append(raw)
            print(f"{workload} seed {seed}: correct={res['correct']} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median if median else float("inf")
            flag = "" if name == "setup_s" or share < bound / 3 else "  <-- above bound/3"
            raw = ""
            if name in raws[0]:
                raw_values = [r[name] for r in raws]
                r1, _, r3 = statistics.quantiles(raw_values, n=4)
                raw = f"  (raw wall: median {statistics.median(raw_values):.5g}, " \
                      f"spread {(r3 - r1) / statistics.median(raw_values):.4f})"
            print(f"  {name:12s} median {median:12.5g}  spread {share:7.4f}  bound {bound}{flag}{raw}")
            rows[name] = {"values": values, "median": median, "spread": share, "bound": bound}
        summary[workload] = {"all_correct": all(r["correct"] for r in results), "metrics": rows}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
