"""Run the benchmark on several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 --first-seed 1 --out spread.json

For every workload and end-to-end metric, and for the op latencies on the
detail line, it prints the median of the runs and the spread, (third
quartile - first quartile) / median with quartiles from
``statistics.quantiles(values, n=4)``, next to the metric's bound from
BENCHMARK.json, and the wall time of the runs.  Runs go one at a time, in
workload order per seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run

DETAIL_LATENCIES = ("op_p50_s", "op_tail_s")  # reported for their spread; no bound


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the per-run values and spreads as JSON here")
    args = parser.parse_args(argv)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = list(run.WORKLOAD_NAMES)
    values = {w: {} for w in names}
    failed = {w: 0 for w in names}
    wall = {w: [] for w in names}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in names:
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
                 "--workload", w, "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True, timeout=900, check=True,
            )
            wall[w].append(time.perf_counter() - start)
            *_, detail_line, result_line = done.stdout.strip().splitlines()
            result = json.loads(result_line)
            detail = json.loads(detail_line[len("# detail "):])
            failed[w] += result["failed"]
            for metric, entry in result["metrics"].items():
                values[w].setdefault(metric, []).append(entry["value"])
            for metric in DETAIL_LATENCIES:
                values[w].setdefault(metric, []).append(detail[metric]["value"])
            print(f"seed {seed} {w}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    report = {}
    for w in names:
        report[w] = {"failed_ops": failed[w], "run_wall_s": wall[w], "metrics": {}}
        for metric, vals in values[w].items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else float("nan")
            report[w]["metrics"][metric] = {"median": median, "spread": spread, "values": vals}
            bound = bounds.get(metric)
            print(f"{w:15s} {metric:40s} median {median:10.4g} spread {spread:7.3f}"
                  + (f" bound {bound}" if bound is not None else ""))
    per_round = sum(statistics.median(wall[w]) for w in names)
    print(f"median wall time of one run of each workload, summed: {per_round:.1f} s")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
