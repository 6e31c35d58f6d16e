"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload library --seeds 1-10 --seconds 12
    python3 perfbench/spread.py --workload all --seeds 1-10 --out runs.json

For each metric it prints the median and the quartile spread, (Q3 - Q1) /
median with quartiles from `statistics.quantiles(values, n=4)`, which is
how run-to-run noise is judged against the bounds in BENCHMARK.json.
Runs go one after another; running them side by side would perturb the
timings.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("cli_files", "library", "trials_batch", "oracle_exhaustive")


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    argv = [
        sys.executable, RUN, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    *_, detail, result = done.stdout.strip().splitlines()
    return dict(json.loads(result), detail=json.loads(detail))


def spread_of(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run and the summary as JSON")
    args = parser.parse_args()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    record = {}
    for name in names:
        runs = []
        for seed in seed_list(args.seeds):
            result = one_run(name, seed, args.seconds, args.trace)
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} failed ops", flush=True)
            runs.append(result)
        summary = {}
        for key, first in runs[0]["metrics"].items():
            values = [r["metrics"][key]["value"] for r in runs]
            med, spread = spread_of(values)
            summary[key] = {"median": med, "spread": spread, "unit": first["unit"]}
            print(f"{name:18} {key:52} {med:>14.6g} {first['unit']:10} "
                  f"spread {spread:.4f}", flush=True)
        record[name] = {"seeds": args.seeds, "summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
