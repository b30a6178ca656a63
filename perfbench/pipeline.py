"""One instance through lift -> relax -> solve -> extract, its reference
value, and the correctness gate that judges the result.

Every call into the package goes through its public functions, each inside
a span named after the layer and function it enters.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from owasdp.extract import ExtractionError, eps_obj, extract_point, flatness_orders, rank_check
from owasdp.location import build_lifted
from owasdp.omrf import build_auto
from owasdp.oracle import ball_box, grid_search, multistart_descent
from owasdp.relaxation import build_sparse, min_order
from owasdp.solver import solve

from tracing import Tracer
from workloads import Instance

# A reported bound may exceed the reference by at most BOUND_REL_TOL * (1 +
# |reference|): the solver's default relative gap tolerance, fixed here so
# that a change of the solver's defaults cannot loosen the gate.
BOUND_REL_TOL = 1e-8
# The certified value must match the independent re-evaluation to this
# relative tolerance (both are double-precision evaluations of one formula).
CERTIFIED_REL_TOL = 1e-9
MULTISTART_STARTS = 10
MULTISTART_SEED = 0
# Grid step over the ball's bounding box [-2, 2]^d of the OMRF problems:
# 101 points per axis.
GRID_STEP = 0.04


def _polynomial_at(poly, x: np.ndarray) -> float:
    """Value of ``poly`` at ``x``, summed here from its terms."""
    return float(
        sum(c * math.prod(x[v] ** e for v, e in mono.exps) for mono, c in poly.terms.items())
    )


def _rank_weights(problem) -> np.ndarray:
    """Weights of a location variant, by rank of the weighted distances
    (largest first), written out here from the variant's definition."""
    n = len(problem.points)
    if problem.variant == "weber":
        return np.ones(n)
    if problem.variant == "center":
        return np.eye(n)[0]
    if problem.variant == "kcentrum":
        return (np.arange(n) < problem.k).astype(float)
    if problem.variant == "trimmed":
        k1, k2 = problem.trim
        return ((np.arange(n) >= k1) & (np.arange(n) < n - k2)).astype(float)
    if problem.variant == "range":
        return np.eye(n)[0] - np.eye(n)[-1]
    return np.asarray(problem.position_lambda, dtype=float)


def independent_value(inst: Instance, point: np.ndarray) -> float:
    """Objective at ``point``, computed by the benchmark itself.

    Extraction certifies its value through the package's evaluator
    (``objective_value``); this one shares none of that code: it evaluates
    the distances, or each function's numerator and denominator from their
    terms, sorts the values nonincreasingly and applies the rank weights.
    """
    x = np.asarray(point, dtype=float)
    problem = inst.problem
    if inst.is_location:
        r, s = problem.norm_tau
        gaps = np.abs(x[None, :] - np.asarray(problem.points))
        costs = np.asarray(problem.weights) * (gaps ** (r / s)).sum(axis=1) ** (s / r)
        return float(np.sort(costs)[::-1] @ _rank_weights(problem))
    values = [
        _polynomial_at(f.numerator, x) / _polynomial_at(f.denominator, x)
        for f in problem.functions
    ]
    weights = [_polynomial_at(w, x) for w in problem.weights.entries]
    return float(np.sort(values)[::-1] @ np.asarray(weights))


def run_instance(inst: Instance, tracer: Tracer) -> Dict[str, object]:
    """Take one instance through the pipeline and return its result row."""
    problem = inst.problem
    key = inst.id
    row: Dict[str, object] = {"instance": key, "location": inst.is_location}
    with tracer.span("pipeline", key) as whole:
        if inst.is_location:
            with tracer.span("location.build_lifted", key) as span:
                lift = build_lifted(problem)
        else:
            with tracer.span("omrf.build_auto", key) as span:
                lift = build_auto(problem)
        row["lift_s"] = span.seconds
        order = inst.order if inst.order is not None else min_order(lift).r_min
        with tracer.span("relaxation.build_sparse", key) as span:
            sdp = build_sparse(lift, order)
        row["relax_s"] = span.seconds
        with tracer.span("solver.solve", key) as span:
            result = solve(sdp)
        row["solve_s"] = span.seconds
        row["rank_check_s"] = row["extract_point_s"] = 0.0
        report = solution = None
        error: Optional[str] = None
        if result.y is not None:
            with tracer.span("extract.rank_check", key) as span:
                report = rank_check(sdp, result.y, flatness_orders(lift))
            row["rank_check_s"] = span.seconds
            with tracer.span("extract.extract_point", key) as span:
                try:
                    solution = extract_point(sdp, result.y, objective=problem.objective_value)
                except ExtractionError as exc:
                    error = f"{type(exc).__name__}: {exc}"
            row["extract_point_s"] = span.seconds
    row["total_s"] = whole.seconds

    sizes = [block.size for block in sdp.psd_blocks]
    row.update(
        order=order,
        lift_vars=len(lift.universe),
        lift_constraints=len(lift.inequality_constraints) + len(lift.equality_constraints),
        y_dim=sdp.y_dim,
        eq_rows=len(sdp.equalities),
        psd_blocks=len(sizes),
        max_block=max(sizes, default=0),
        cone_dim=sum(n * (n + 1) // 2 for n in sizes),
        nnz=sum(b.nonzero_count() for b in sdp.psd_blocks)
        + sum(r.form.nnz for r in sdp.equalities),
        block_cube=sum(n**3 for n in sizes),
        status=result.status.value,
        iterations=result.iterations,
        bound=float(result.objective) if result.y is not None else None,
        dres=float(result.diagnostics.get("dual_residual", math.nan)),
        flat=None if report is None else bool(report.global_flat),
        extract_error=error,
        point=None,
        certified=None,
        independent=None,
        feasible=None,
        in_region=None,
    )
    if solution is not None:
        point = np.array([solution.point[v] for v in sdp.original_variables])
        row.update(
            point=[float(c) for c in point],
            certified=float(solution.certified_value),
            independent=independent_value(inst, point),
            feasible=bool(solution.feasible),
            in_region=bool(problem.region.contains(point)),
        )
    return row


def oracle_reference(inst: Instance, tracer: Tracer) -> Tuple[float, int]:
    """Direct-search value (or the known optimum) and its evaluation count."""
    if inst.golden is not None:
        return inst.golden, 0
    problem = inst.problem
    if inst.is_location:
        with tracer.span("oracle.multistart_descent", inst.id):
            found = multistart_descent(problem, n_starts=MULTISTART_STARTS, seed=MULTISTART_SEED)
    else:
        with tracer.span("oracle.grid_search", inst.id):
            found = grid_search(problem, ball_box(problem.region), GRID_STEP)
    return float(found.best_value), int(found.evaluations)


def judge(row: Dict[str, object], inst: Instance, oracle_value: float) -> None:
    """Add the reference, the quality measures and the gate verdict to ``row``.

    The reference is the known optimum when there is one, otherwise the
    better of the direct search and the extracted point (when that point
    lies in the problem's region).  ``failures`` lists every gate the
    instance fails; an instance with any failure counts as failed.
    """
    reference = oracle_value
    certified = row["certified"]
    if inst.golden is None and certified is not None and row["in_region"]:
        reference = min(reference, certified)
    bound = row["bound"]
    failures = []
    if bound is None:
        failures.append("no_y")
    else:
        if row["extract_error"] is not None:
            failures.append("extract_error")
        elif abs(certified - row["independent"]) > CERTIFIED_REL_TOL * (1.0 + abs(certified)):
            failures.append("certified_mismatch")
        if bound > reference + BOUND_REL_TOL * (1.0 + abs(reference)):
            failures.append("bound_above_reference")
    row.update(
        reference=reference,
        eps_obj=None if bound is None else eps_obj(bound, reference),
        point_gap=None
        if certified is None
        else (certified - reference) / max(1.0, abs(reference)),
        failures=failures,
    )
