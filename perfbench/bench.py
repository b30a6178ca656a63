"""Set-up, measurement and reporting of one workload run.

A run makes a fixed number of whole passes over the workload's instances,
with tracing off, and ``SETUP_REPEATS`` set-ups (instance generation, one
untimed warm-up solve and the reference values), alternating the two so
that the set-ups sample the host at different moments.  The pass count
depends only on ``seconds`` (see ``pass_count``), never on how fast the
passes go, so two commits are measured with the same estimator.  An
instance's time is its median over the passes.  A traced run then makes
one more pass with tracing on, for the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy

import metrics
from pipeline import BOUND_REL_TOL, CERTIFIED_REL_TOL, GRID_STEP, MULTISTART_SEED, MULTISTART_STARTS
from pipeline import judge, oracle_reference, run_instance
from tracing import Tracer, span_cost
from workloads import PANELS, Instance, warmup_instance

SETUP_REPEATS = 3
# Run length allotted to one pass of each workload.  A run makes
# round(seconds / PASS_SECONDS) passes: the count follows from the run length
# alone, so it is the same on every commit, however fast the passes go.
PASS_SECONDS = {"demo-l3-r2": 60.0, "ladder-l2": 20.0, "omrf-patterns": 20.0}
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
# Fields that must repeat exactly from one pass to the next.
REPEATED_FIELDS = ("status", "iterations", "bound", "certified", "y_dim", "eq_rows")


def setup(workload: str, tracer: Tracer) -> Tuple[Tuple[Instance, ...], Dict[str, float], int]:
    """Instances, their direct-search values and the oracle's evaluation count."""
    instances = PANELS[workload]()
    run_instance(warmup_instance(), Tracer(False))
    values: Dict[str, float] = {}
    evaluations = 0
    for inst in instances:
        values[inst.id], used = oracle_reference(inst, tracer)
        evaluations += used
    return instances, values, evaluations


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def measure(
    instances: Sequence[Instance], tracer: Tracer
) -> Tuple[List[Dict[str, object]], float]:
    """One pass over ``instances``: their rows and the pass time."""
    start = time.perf_counter()
    rows = [run_instance(inst, tracer) for inst in instances]
    return rows, time.perf_counter() - start


def _git_sha() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata(seed: int) -> Dict[str, object]:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "seed": seed,
    }


def _repeats_exactly(passes: Sequence[Sequence[Dict[str, object]]]) -> List[str]:
    """Instances whose outcome differs between passes."""
    first = passes[0]
    return sorted(
        {
            row["instance"]
            for later in passes[1:]
            for row, again in zip(first, later)
            if any(row[f] != again[f] for f in REPEATED_FIELDS)
        }
    )


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float) -> Dict[str, object]:
    """One workload run; returns the full result document."""
    origin = time.perf_counter()
    passes: List[List[Dict[str, object]]] = []
    setup_times: List[float] = []
    pass_times: List[float] = []
    n_passes = pass_count(workload, seconds)
    for i in range(max(SETUP_REPEATS, n_passes)):
        if i < SETUP_REPEATS:
            setup_tracer = Tracer(trace, origin)
            start = time.perf_counter()
            instances, oracle_values, evaluations = setup(workload, setup_tracer)
            setup_times.append(time.perf_counter() - start)
        if i < n_passes:
            rows, seconds_taken = measure(instances, Tracer(False))
            passes.append(rows)
            pass_times.append(seconds_taken)

    rows = passes[0]
    for row, inst in zip(rows, instances):
        judge(row, inst, oracle_values[inst.id])
    instance_seconds = [
        statistics.median(p[i]["total_s"] for p in passes) for i in range(len(instances))
    ]
    for row, secs in zip(rows, instance_seconds):
        row["instance_s"] = secs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = metrics.end_to_end(
        rows, instance_seconds, import_s + statistics.median(setup_times), peak_rss_mb
    )

    traced_pass: List[Dict[str, object]] = []
    if trace:
        tracer = Tracer(True, origin)
        traced_pass, traced_time = measure(instances, tracer)
        layer_seconds = {name: tracer.total(name) for name in {s.name for s in tracer.spans}}
        for name in {s.name for s in setup_tracer.spans}:
            layer_seconds[name] = setup_tracer.total(name)
        per_span_s = span_cost()
        overhead_s = per_span_s * len(tracer.spans)

    unstable = _repeats_exactly(passes + ([traced_pass] if trace else []))
    mismatched = [r["instance"] for r in rows if "certified_mismatch" in r["failures"]]
    missing_reference = [i.id for i in instances if not math.isfinite(oracle_values[i.id])]
    result: Dict[str, object] = {
        "workload": workload,
        "metadata": metadata(seed),
        "settings": {
            "seconds": seconds,
            "setup_repeats": SETUP_REPEATS,
            "passes": n_passes,
            "bound_rel_tol": BOUND_REL_TOL,
            "certified_rel_tol": CERTIFIED_REL_TOL,
            "multistart_starts": MULTISTART_STARTS,
            "multistart_seed": MULTISTART_SEED,
            "grid_step": GRID_STEP,
        },
        "correct": not (unstable or mismatched or missing_reference),
        "checks": {
            "not_repeated": unstable,
            "certified_mismatch": mismatched,
            "missing_reference": missing_reference,
        },
        "attempted": len(rows),
        "failed": sum(bool(r["failures"]) for r in rows),
        "import_s": import_s,
        "setup_times": setup_times,
        "pass_times": pass_times,
        "end_to_end": end_to_end,
    }
    if trace:
        result["per_layer"] = metrics.per_layer(rows, layer_seconds, evaluations, overhead_s)
        result["traced_pass_time"] = traced_time
        result["span_cost_s"] = per_span_s
        result["spans"] = setup_tracer.records() + tracer.records()
    result["rows"] = rows
    return result


def write(result: Dict[str, object], trace: bool) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    seed = result["metadata"]["seed"]
    path = OUT_DIR / f"{result['workload']}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path
