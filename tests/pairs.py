"""Paired benchmark runs of a git revision against this checkout.

    python tests/pairs.py --against HEAD --workloads eval-synth --pairs 10
    python tests/pairs.py --against HEAD --workloads train-synth,train-paper --pairs 5 --seconds 15

Extracts the files committed at REV into a temporary directory with
``git archive``, as ``tests/digest.py --against`` does, and runs the benchmark's command from
``BENCHMARK.json`` (``perfbench/run.py``) with ``--trace 0`` there and in this
checkout, one after the other. Pair i runs both sides with seed i and the
same ``--seconds`` (default: the file's ``run_seconds``); REV runs first in
odd pairs, this checkout in even ones. Runs are sequential, one process at a
time.

Then, per workload and per end-to-end metric of ``BENCHMARK.json``, it
prints REV's median and quartiles, this checkout's median, their ratio, and
this checkout's wins out of N pairs in the metric's ``better`` direction
(a tie counts for neither side); then a ``verdict``: ``better`` where this
checkout won at least nine tenths of the pairs and its median is ahead of
REV's by more than REV's interquartile distance, ``worse`` where it lost as
many and is behind by as much, and ``level`` otherwise; and under ``all``
whether every run of this checkout beat every run of REV in that direction
(``yes`` or ``no``); then each side's failed and attempted operations. It
exits 1 if any run is not ``correct``. The quartiles are
``statistics.quantiles(n=4)``, the default exclusive method, as in
``perfbench/spread.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def extract(rev: str, dest) -> None:
    """Write the files committed at git revision ``rev`` into directory ``dest``."""
    archive = subprocess.run(["git", "-C", str(CHECKOUT), "archive", rev],
                             check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(root: Path, command: list, workload: str, seed: int, seconds: float) -> dict:
    """The JSON object that the benchmark prints last, for one run in ``root``."""
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"pairs: {workload} seed {seed} in {root} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(metrics: list, pairs: list) -> list:
    """Report lines for one workload. ``metrics`` are the end-to-end entries
    of ``BENCHMARK.json``; ``pairs`` holds one (parent, change) pair of
    printed results per seed."""
    lines = [f"{'metric':22s} {'parent median [q1, q3]':>37s} {'change':>12s} "
             f"{'ratio':>7s} {'wins':>7s} {'verdict':>7s} {'all':>4s}"]
    for m in metrics:
        name = m["name"]
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (p_med,) * 3
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        # nine tenths of the pairs, and a median gap beyond the parent's spread
        ahead, spread = sign * (c_med - p_med), q3 - q1
        verdict = ("better" if 10 * wins >= 9 * len(pairs) and ahead > spread
                   else "worse" if 10 * losses >= 9 * len(pairs) and -ahead > spread
                   else "level")
        # the change's worst run against the parent's best one
        apart = "yes" if min(sign * c for c in change) > max(sign * p for p in parent) else "no"
        ratio = f"{c_med / p_med:7.3f}" if p_med else f"{'-':>7s}"
        lines.append(f"{name:22s} {p_med:12.5g} [{q1:10.5g}, {q3:10.5g}] {c_med:12.5g} "
                     f"{ratio} {f'{wins}/{len(pairs)}':>7s} {verdict:>7s} {apart:>4s}")
    for side, i in (("parent", 0), ("change", 1)):
        results = [pair[i] for pair in pairs]
        lines.append(f"{side}: {sum(r['failed'] for r in results)} failed of "
                     f"{sum(r['attempted'] for r in results)} attempted operations, "
                     f"{sum(bool(r['correct']) for r in results)} of {len(results)} runs correct")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", required=True,
                        help="git revision to compare this checkout with")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="seconds per run (default: run_seconds)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    correct = True
    with tempfile.TemporaryDirectory() as tmp:
        extract(args.against, tmp)
        for workload in args.workloads.split(","):
            pairs = []
            for seed in range(1, args.pairs + 1):
                roots = [Path(tmp), CHECKOUT] if seed % 2 else [CHECKOUT, Path(tmp)]
                ran = {root: run_once(root, spec["command"], workload, seed, seconds)
                       for root in roots}
                pairs.append((ran[Path(tmp)], ran[CHECKOUT]))
                print(f"  {workload} pair {seed}: {'parent' if seed % 2 else 'change'} "
                      f"first", flush=True)
            print(f"== {workload}: {args.pairs} pairs of {seconds:g} s runs, "
                  f"parent {args.against}, change {CHECKOUT}")
            print("\n".join(summary(spec["end_to_end"], pairs)), flush=True)
            correct &= all(r["correct"] for pair in pairs for r in pair)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
