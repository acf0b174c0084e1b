"""Spread of every end-to-end metric over repeated runs, one seed per run.

    python3 bench/stability.py [--workloads tau-n100 ...] [--seeds 1-10] \
        [--seconds 20] [--report bench/stability.md]

For each workload and metric it prints the median, the quartiles from
statistics.quantiles(values, n=4) and the interquartile spread as a share
of the median, next to the metric's bound in BENCHMARK.json.  A spread
below a third of its bound is marked steady.  Runs are sequential.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--report", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines = [f"Seeds {args.seeds[0]}-{args.seeds[-1]}, {args.seconds} s per run, "
             f"{os.cpu_count()} CPUs ({platform.machine()}), runs one after another.", "",
             "| workload | metric | median | q1 | q3 | spread | bound | steady | runs in seed order |",
             "|---|---|---|---|---|---|---|---|---|"]
    print("\n".join(lines), flush=True)
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            line = (f"| {workload} | {metric} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                    f"{spread:.4f} | {bound} | {'yes' if spread < bound / 3 else 'NO'} | "
                    + " ".join(f"{v:.4g}" for v in values) + " |")
            print(line, flush=True)
            lines.append(line)
    if args.report:
        args.report.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
