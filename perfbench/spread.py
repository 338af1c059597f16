"""Run the benchmark over several seeds and report each end-to-end metric's
median and spread (distance between the first and third quartile, as a share
of the median) against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workloads train-synth,eval-synth --seeds 1-10

Runs are sequential, one process at a time, from the current directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in _seeds(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: correctness gate failed", file=sys.stderr)
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"  seed {seed}: {wall:.1f} s wall, " + ", ".join(
                f"{name} {m['value']:.4g}" for name, m in result["metrics"].items()), flush=True)
        print(f"== {workload} ({len(values[metrics[0]['name']])} runs)")
        for m in metrics:
            vals = values[m["name"]]
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            spread = (q3 - q1) / abs(median) if median else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "OVER")
                if m["name"] != "setup_s":
                    worst = max(worst, spread / bound)
            print(f"  {m['name']:36s} median {median:12.6g}  spread {spread:7.3f}"
                  f"  bound {bound if bound is not None else '-'}  {flag}")
    if not args.trace:
        print(f"worst spread / bound (excluding setup_s): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
