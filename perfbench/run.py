"""Benchmark of the owasdp pipeline: lift -> relax -> solve -> extract.

One workload per process:

    python3 perfbench/run.py --workload ladder-l2 --seed 0 --seconds 40 --trace 0

Every workload, one after the other, each in its own process:

    python3 perfbench/run.py --all

A workload run prints every metric by name with its unit, writes the full
result to perfbench/out/<workload>-seed<seed>-trace<0|1>.json and ends its
output with one JSON line holding ``correct``, ``attempted``, ``failed`` and
the metrics that BENCHMARK.json lists: its end-to-end metrics, or with
``--trace 1`` its per-layer metrics.  Run from the repository root; the
package is imported from its source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# BLAS threads of every workload process, set before NumPy loads; at most
# the 2 cores the recorded numbers were measured on.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("demo-l3-r2", "ladder-l2", "omrf-patterns")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    return args


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, metric in metrics.items():
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>14s} {metric['unit']}")


def run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, cwd=ROOT)
        worst = max(worst, done.returncode)
    return worst


def run_workload(args) -> int:
    for variable in BLAS_VARIABLES:
        os.environ[variable] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import bench

    import_s = time.perf_counter() - start
    trace = bool(args.trace)
    result = bench.run(args.workload, args.seed, args.seconds, trace, import_s)
    path = bench.write(result, trace)

    print(f"workload {args.workload}  seed {args.seed}  result {path.relative_to(ROOT)}")
    _print_metrics("end-to-end", result["end_to_end"])
    if trace:
        _print_metrics("per-layer", result["per_layer"])
    failing = {r["instance"]: r["failures"] for r in result["rows"] if r["failures"]}
    print(f"correct {result['correct']}  checks {json.dumps(result['checks'])}")
    print(f"failed {result['failed']} of {result['attempted']}: {json.dumps(failing)}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    source = result["per_layer"] if trace else result["end_to_end"]
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: source[m["name"]] for m in listed},
    }
    print(json.dumps(line))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "owasdp" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
