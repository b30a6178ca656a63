"""Reduction of per-instance rows into end-to-end and per-layer metrics.

Each metric is a ``{"value": ..., "unit": ...}`` entry.  A metric with no
sample (say, the median eps_obj of a run where no solve returned a bound) has
value None.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

Metric = Dict[str, object]
Row = Dict[str, object]


def _pack(pairs: Dict[str, Tuple[Optional[float], str]]) -> Dict[str, Metric]:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in pairs.items()}


def _median(values: Sequence[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def _present(rows: Sequence[Row], key: str) -> List[float]:
    return [float(r[key]) for r in rows if r[key] is not None]


def end_to_end(
    rows: Sequence[Row],
    instance_seconds: Sequence[float],
    setup_seconds: float,
    peak_rss_mb: float,
) -> Dict[str, Metric]:
    """Metrics a user of the pipeline sees, from one pass's judged rows.

    ``instance_seconds`` holds each instance's median wall time over the
    untraced passes; ``run_s`` is their sum.
    """
    n = len(rows)
    failed = sum(bool(r["failures"]) for r in rows)
    eps = _present(rows, "eps_obj")
    return _pack({
        "run_s": (sum(instance_seconds), "s"),
        "instance_s.p50": (statistics.median(instance_seconds), "s"),
        "instance_s.count": (len(instance_seconds), "count"),
        "setup_s": (setup_seconds, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "optimal_share": (sum(r["status"] == "optimal" for r in rows) / n, "share"),
        "failed_share": (failed / n, "share"),
        "usable_share": ((n - failed) / n, "share"),
        "eps_obj.p50": (_median(eps), "ratio"),
        "eps_obj.max": (max(eps) if eps else None, "ratio"),
        "point_gap.p50": (_median(_present(rows, "point_gap")), "ratio"),
    })


def per_layer(
    rows: Sequence[Row],
    layer_seconds: Dict[str, float],
    oracle_evaluations: int,
    overhead_s: float,
) -> Dict[str, Metric]:
    """Work and time of each layer over one pass.

    ``layer_seconds`` maps a span name to its summed duration over the
    traced pass (over one set-up for the oracle).
    Location and OMRF counts cover the instances each lift builder handled.
    ``solver.block_cube_work`` is computed from the block sizes as
    iterations * sum(n_k^3), not measured.  ``overhead_s`` is computed too:
    the measured cost of recording one span times the spans of the pass.
    """
    solved = [r for r in rows if r["bound"] is not None]
    extracted = [r for r in rows if r["feasible"] is not None]
    solve_s = layer_seconds.get("solver.solve", 0.0)
    iterations = sum(int(r["iterations"]) for r in rows)
    location = [r for r in rows if r["location"]]
    omrf = [r for r in rows if not r["location"]]
    dres = _present(rows, "dres")

    def total(key: str, subset: Sequence[Row] = rows) -> int:
        return sum(int(r[key]) for r in subset)

    def share(count: int, base: Sequence[Row]) -> float:
        return count / len(base) if base else 0.0

    return _pack({
        "solver.solve_s": (solve_s, "s"),
        "solver.iterations": (iterations, "count"),
        "solver.s_per_iter": (solve_s / iterations if iterations else 0.0, "s"),
        "solver.kkt_dim": (total("y_dim") + total("eq_rows"), "count"),
        "solver.block_cube_work": (
            sum(int(r["iterations"]) * int(r["block_cube"]) for r in rows),
            "count",
        ),
        "solver.status.optimal": (sum(r["status"] == "optimal" for r in rows), "count"),
        "solver.status.near_optimal": (sum(r["status"] == "near_optimal" for r in rows), "count"),
        "solver.status.numerical_failure": (
            sum(r["status"] == "numerical_failure" for r in rows),
            "count",
        ),
        "solver.dres.max": (max(dres) if dres else 0.0, "norm"),
        "relaxation.build_sparse_s": (layer_seconds.get("relaxation.build_sparse", 0.0), "s"),
        "relaxation.y_dim": (total("y_dim"), "count"),
        "relaxation.eq_rows": (total("eq_rows"), "count"),
        "relaxation.psd_blocks": (total("psd_blocks"), "count"),
        "relaxation.cone_dim": (total("cone_dim"), "count"),
        "relaxation.max_block": (max(int(r["max_block"]) for r in rows), "count"),
        "relaxation.nnz": (total("nnz"), "count"),
        "location.build_lifted_s": (layer_seconds.get("location.build_lifted", 0.0), "s"),
        "location.lift_vars": (total("lift_vars", location), "count"),
        "location.lift_constraints": (total("lift_constraints", location), "count"),
        "omrf.build_auto_s": (layer_seconds.get("omrf.build_auto", 0.0), "s"),
        "omrf.lift_vars": (total("lift_vars", omrf), "count"),
        "omrf.lift_constraints": (total("lift_constraints", omrf), "count"),
        "extract.rank_check_s": (layer_seconds.get("extract.rank_check", 0.0), "s"),
        "extract.extract_point_s": (layer_seconds.get("extract.extract_point", 0.0), "s"),
        "extract.flat_share": (share(sum(bool(r["flat"]) for r in solved), solved), "share"),
        "extract.feasible_share": (
            share(sum(bool(r["feasible"]) for r in extracted), solved),
            "share",
        ),
        "oracle.search_s": (
            layer_seconds.get("oracle.multistart_descent", 0.0)
            + layer_seconds.get("oracle.grid_search", 0.0),
            "s",
        ),
        "oracle.evaluations": (oracle_evaluations, "count"),
        "trace.overhead_s": (overhead_s, "s"),
    })
