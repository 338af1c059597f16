"""Benchmark entry point.

    python3 perfbench/run.py --workload train-synth --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` and the logit oracle from ``tests/oracles.py``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A fuller record (environment, inputs,
sample counts, failures) is written to ``.perfbench/results/`` and, when
tracing, the spans next to it. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

ROOT = Path.cwd()


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pin_threads() -> int:
    """Pin every BLAS/OpenMP pool to BLAS_THREADS (<= nproc); must run
    before numpy is imported."""
    threads = min(BLAS_THREADS, _nproc())
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _load_benchmark_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    with open(spec_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _import_program():
    """Make ``dualcan`` (src/) and ``oracles`` (tests/) importable from the
    checkout; fail when they are not there."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "dualcan" / "__init__.py").is_file() or not (tests / "oracles.py").is_file():
        raise SystemExit(f"perfbench: no src/dualcan or tests/oracles.py under {ROOT}; "
                         "run from the root of a source checkout")
    sys.path[:0] = [str(ROOT), str(src), str(tests)]
    import dualcan
    if Path(dualcan.__file__).resolve().parent != (src / "dualcan").resolve():
        raise SystemExit(f"perfbench: imported dualcan from {dualcan.__file__}, not {src}")


def _environment(threads: int) -> dict:
    import numpy as np
    return {"nproc": _nproc(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": threads,
            "platform": platform.platform(), "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dualcan benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = _pin_threads()
    _import_program()
    spec = _load_benchmark_spec()
    from perfbench.workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (expected one of {sorted(WORKLOADS)})")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = ROOT / ".perfbench"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_dir / "work" / f"{tag}-{os.getpid()}"
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        run.execute()
        values = run.layer_metrics() if args.trace else run.values
        if args.trace:
            run.tracer.write(results / f"{tag}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in names}
    checks = run.checks
    correct = checks.failed == 0 and checks.attempted > 0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _environment(threads),
        "inputs": run.inputs, "counts": run.counts, "values": run.values,
        "metrics": metrics, "correct": correct, "attempted": checks.attempted,
        "failed": checks.failed, "failed_share": checks.failed / checks.attempted,
        "problems": checks.problems,
    }
    with open(results / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    env = record["environment"]
    print(f"# {tag}: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas_threads={env['blas_threads']}")
    print(f"# inputs: " + " ".join(f"{k}={v:.4g}" for k, v in sorted(run.inputs.items())))
    print(f"# counts: " + " ".join(f"{k}={v}" for k, v in sorted(run.counts.items())))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"{'failed_share':40s} {record['failed_share']:14.6g} "
          f"({checks.failed} of {checks.attempted} operations)")
    for problem in checks.problems:
        print(f"# FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
