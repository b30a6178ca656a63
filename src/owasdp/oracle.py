"""Ground-truth optimizers for desk-scale verification.

Independent of the relaxation pipeline: these routines minimize an objective
directly over a semialgebraic region, either by exhaustive grid scanning with
fixed-step coordinate refinement (``grid_search``) or by multistart pattern
search with an exact penalty for constraints (``multistart_descent``).  They
certify upper bounds only; relaxations certify lower bounds, and together the
two bracket the optimum.

A problem is any object with an ``objective_values(points) -> array``
method, one value per row of a 2-D array, and a ``region`` attribute (a
``SemialgebraicSet`` or None for unconstrained problems).  The searches
evaluate their objective through it, whole blocks of points per call; a
value that is not finite (say, at a vanishing denominator) counts as +inf.
Region checks on blocks of points are batched the same way
(``Polynomial.evaluate_many`` and ``SemialgebraicSet.ball_values``).
``CallableProblem`` adapts a bare batched callable to the protocol.

``grid_search`` evaluates the grid in chunks of whole first-axis slices of
at least ``_GRID_CHUNK`` points (a 101 x 101 grid in one call).  Within a
chunk and across chunks the first minimum in row-major order wins, so the
tie-break is lexicographic whatever the chunk size.  Each round of the
coordinate refinement and each poll of the feasibility repair is evaluated
as one block, and the pattern search's polls as one block per round across
all live starts; a move is taken only on strict improvement, and ties go
to the first candidate in poll order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .polynomial import Polynomial, SemialgebraicSet

Box = Sequence[Tuple[float, float]]

# Least number of points per batched grid evaluation; whole first-axis
# slices are added until a chunk reaches it.
_GRID_CHUNK = 65536

# The pattern search's exact-penalty coefficient on the constraint
# violation, and the step below which a descent stops.
_PENALTY = 1e4
_MIN_STEP = 1e-8


@dataclass(frozen=True)
class OracleResult:
    """Outcome of a ground-truth search.

    ``best_point`` is None when no feasible point was found (the search is
    reported empty).  ``start_values`` records the per-start outcomes of
    multistart runs for convergence diagnostics.
    """

    best_point: Optional[Tuple[float, ...]]
    best_value: float
    method: str  # "grid" | "multistart"
    evaluations: int
    grid_step: Optional[float] = None
    starts: Optional[int] = None
    start_values: Optional[Tuple[float, ...]] = None

    @property
    def empty(self) -> bool:
        return self.best_point is None


@dataclass(frozen=True, eq=False)
class CallableProblem:
    """Adapter giving a bare batched objective the oracle problem protocol."""

    objective_values: Callable[[np.ndarray], np.ndarray]
    region: Optional[SemialgebraicSet] = None


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _evaluate_block(problem, points: np.ndarray) -> np.ndarray:
    """Objective at each row of ``points``, +inf where it is not finite."""
    values = np.asarray(problem.objective_values(points), dtype=float)
    return np.where(np.isfinite(values), values, math.inf)


def _safe_value(problem, point: np.ndarray) -> float:
    """Objective at one point, +inf where it is not finite."""
    return float(_evaluate_block(problem, point[None, :])[0])


def _feasible_mask(
    region: SemialgebraicSet, points: np.ndarray, tol: float = 1e-9
) -> np.ndarray:
    mask = np.ones(len(points), dtype=bool)
    for h in region.equalities:
        mask &= np.abs(h.evaluate_many(points)) <= tol
    for g in region.inequalities:
        mask &= g.evaluate_many(points) >= -tol
    ball = region.ball_values(points)
    if ball is not None:
        mask &= ball >= -tol
    return mask


def _violation_block(region: SemialgebraicSet, points: np.ndarray) -> np.ndarray:
    """Total constraint violation at each row of ``points``; a violation
    that is not a number counts as +inf."""
    total = np.zeros(len(points))
    for h in region.equalities:
        total += np.abs(h.evaluate_many(points))
    for g in region.inequalities:
        total += np.maximum(0.0, -g.evaluate_many(points))
    ball = region.ball_values(points)
    if ball is not None:
        total += np.maximum(0.0, -ball)
    return np.where(np.isnan(total), math.inf, total)


def ball_box(region: SemialgebraicSet) -> Tuple[Tuple[float, float], ...]:
    """Per-coordinate box implied by the region's ball bound."""
    if region.ball_bound is None:
        raise ValueError("region has no ball bound")
    radius = math.sqrt(region.ball_bound)
    return tuple((-radius, radius) for _ in range(len(region.universe)))


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------


def grid_search(problem, box: Box, step: float) -> OracleResult:
    """Exhaustively scan a box with the given step, then refine locally.

    The box must cover the region of interest (for ball-bounded regions use
    ``ball_box``); dimension is limited to 3.  The best feasible grid point
    is refined by fixed-step coordinate descent at two levels, step/100 and
    step/10000.  Returns an empty result when no grid point is feasible.
    """
    dimension = len(box)
    if dimension == 0 or dimension > 3:
        raise ValueError("grid search supports dimensions 1 to 3")
    if step <= 0.0:
        raise ValueError("step must be positive")
    region = problem.region
    axes = [np.arange(lo, hi + 0.5 * step, step) for lo, hi in box]

    # Chunks of whole first-axis slices bound peak memory while keeping
    # batched evaluation; row-major order makes first-hit argmin the
    # lexicographic tie-break.
    if dimension == 1:
        tail = np.zeros((1, 0))
    else:
        mesh = np.meshgrid(*axes[1:], indexing="ij")
        tail = np.stack([m.ravel() for m in mesh], axis=1)
    slices = math.ceil(_GRID_CHUNK / len(tail))

    evaluations = 0
    best_value = math.inf
    best_point: Optional[np.ndarray] = None
    for first in range(0, len(axes[0]), slices):
        leads = axes[0][first:first + slices]
        chunk = np.column_stack(
            [np.repeat(leads, len(tail)), np.tile(tail, (len(leads), 1))]
        )
        values = _evaluate_block(problem, chunk)
        evaluations += len(chunk)
        if region is not None:
            values = np.where(_feasible_mask(region, chunk), values, math.inf)
        idx = int(np.argmin(values))
        value = float(values[idx])
        if value < best_value:
            best_value = value
            best_point = chunk[idx].copy()
    if best_point is None or not math.isfinite(best_value):
        return OracleResult(None, math.inf, "grid", evaluations, grid_step=step)

    point, value = best_point, best_value
    for h in (step / 100.0, step / 10000.0):
        point, value, used = _coordinate_refine(problem, region, point, value, h, box)
        evaluations += used
    return OracleResult(
        tuple(float(c) for c in point), float(value), "grid", evaluations, grid_step=step
    )


def _coordinate_refine(
    problem,
    region: Optional[SemialgebraicSet],
    point: np.ndarray,
    value: float,
    h: float,
    box: Box,
    max_rounds: int = 10000,
) -> Tuple[np.ndarray, float, int]:
    """Fixed-step steepest coordinate descent inside the box.

    Each round polls the moves of +h and -h along every axis, in that order,
    that stay inside the box along the moved axis and inside the region, in
    one batched call; it takes the first best move if it strictly improves.
    """
    dimension = len(point)
    rows = np.arange(2 * dimension)
    moved_axis = rows // 2
    moves = np.zeros((2 * dimension, dimension))
    moves[rows, moved_axis] = np.where(rows % 2 == 0, 1.0, -1.0)
    lo = np.array([b[0] for b in box], dtype=float)[moved_axis]
    hi = np.array([b[1] for b in box], dtype=float)[moved_axis]
    evaluations = 0
    for _ in range(max_rounds):
        candidates = point + h * moves
        moved = candidates[rows, moved_axis]
        candidates = candidates[~((moved < lo) | (moved > hi))]
        if region is not None:
            candidates = candidates[_feasible_mask(region, candidates)]
        if not len(candidates):
            break
        values = _evaluate_block(problem, candidates)
        evaluations += len(candidates)
        idx = int(np.argmin(values))
        if not values[idx] < value:
            break
        point, value = candidates[idx], float(values[idx])
    return point, value, evaluations


# ---------------------------------------------------------------------------
# Multistart pattern search
# ---------------------------------------------------------------------------


def multistart_descent(
    problem,
    n_starts: int = 50,
    seed: int = 0,
    box: Optional[Box] = None,
) -> OracleResult:
    """Best of ``n_starts`` pattern-search descents from seeded uniform starts.

    Starts are drawn uniformly from the region's ball (rejection sampling
    inside ``box``, which defaults to the ball's bounding box).  Constraints
    enter through an exact penalty with coefficient ``_PENALTY``; each
    descent polls the full +/-1 direction stencil, expanding the step by 2.0
    on success and contracting it by 0.5 otherwise, and stops when the step
    falls below ``_MIN_STEP``.  Trial points that land slightly outside the
    region are additionally projected back onto its boundary so the poll can
    track curved active constraints.  Final candidates are repaired to
    feasibility before reporting; starts that cannot be repaired are
    discarded.  Results merge deterministically by value, then lexicographic
    point.

    All starts are drawn first; the descents then run in lockstep, one
    round per step of every descent still live.  A round evaluates the
    stencils of all live descents as one block, restores each descent's
    up-to-three violating candidates of lowest merit (stable order) and
    evaluates those restored points as a second block.  Each descent then
    moves to the first strict improvement among its own candidates, its
    stencil rows in stencil order before its restored rows, so it follows
    exactly the path it would follow alone, with the same evaluations.
    """
    region = problem.region
    if box is None:
        if region is None:
            raise ValueError("without a region ball an explicit box is required")
        box = ball_box(region)
    lo = np.array([b[0] for b in box], dtype=float)
    hi = np.array([b[1] for b in box], dtype=float)
    rng = np.random.default_rng(seed)
    directions = _stencil(len(box))

    starts = np.array([_draw_start(rng, lo, hi, region) for _ in range(n_starts)])
    points, counts = _lockstep_search(
        problem, region, starts.reshape(n_starts, len(box)), lo, hi, directions
    )
    evaluations = int(counts.sum())
    best: Optional[Tuple[float, Tuple[float, ...]]] = None
    start_values: List[float] = []
    for point in points:
        point, value, feasible, used = _repair(problem, region, point, directions)
        evaluations += used
        if not feasible or not math.isfinite(value):
            start_values.append(math.inf)
            continue
        start_values.append(value)
        candidate = (value, tuple(float(c) for c in point))
        if best is None or candidate < best:
            best = candidate
    if best is None:
        return OracleResult(
            None, math.inf, "multistart", evaluations,
            starts=n_starts, start_values=tuple(start_values),
        )
    return OracleResult(
        best[1], best[0], "multistart", evaluations,
        starts=n_starts, start_values=tuple(start_values),
    )


def _stencil(dimension: int) -> np.ndarray:
    """All +/-1/0 directions, normalized, one per row; richer than plain
    coordinate moves so searches can follow constraint ridges."""
    directions = []
    for combo in itertools.product((-1.0, 0.0, 1.0), repeat=dimension):
        if any(combo):
            arr = np.array(combo)
            directions.append(arr / np.linalg.norm(arr))
    return np.array(directions)


def _draw_start(
    rng: np.random.Generator,
    lo: np.ndarray,
    hi: np.ndarray,
    region: Optional[SemialgebraicSet],
    max_tries: int = 200,
) -> np.ndarray:
    point = lo + (hi - lo) * rng.random(len(lo))
    if region is None or region.ball_bound is None:
        return point
    for _ in range(max_tries):
        ss = sum(point[v] ** 2 for v in region.ball_variables)
        if ss <= region.ball_bound:
            return point
        point = lo + (hi - lo) * rng.random(len(lo))
    return point


def _merit(problem, region: Optional[SemialgebraicSet], point: np.ndarray) -> float:
    value = _safe_value(problem, point)
    if not math.isfinite(value):
        return math.inf
    if region is not None:
        value += _PENALTY * float(_violation_block(region, point[None, :])[0])
    return value


def _poly_gradient(poly: Polynomial, point: np.ndarray) -> np.ndarray:
    """Exact gradient of a polynomial at a point."""
    grad = np.zeros(len(point))
    for mono, coef in poly.terms.items():
        for vid, exp in mono.exps:
            value = coef * exp
            for other_vid, other_exp in mono.exps:
                e = other_exp - 1 if other_vid == vid else other_exp
                if e:
                    value *= point[other_vid] ** e
            grad[vid] += value
    return grad


def _newton_restore(
    region: SemialgebraicSet,
    point: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    sweeps: int = 3,
) -> Optional[np.ndarray]:
    """Project a slightly infeasible point back onto the region boundary.

    Sweeps the violated constraints, moving along each one's exact gradient
    to its nearest root (one Newton step per constraint per sweep).  Returns
    None when a violated constraint has a vanishing gradient.  The result is
    clipped to the box; tiny residual violations are left to the penalty.
    """
    z = np.array(point, dtype=float)
    ball_variables = list(region.ball_variables)
    for _ in range(sweeps):
        moved = False
        for g in region.inequalities:
            value = g.evaluate(z)
            if value < 0.0:
                z = _newton_step(z, value, _poly_gradient(g, z))
                if z is None:
                    return None
                moved = True
        ball = region.ball_values(z)
        if ball is not None and ball < 0.0:
            # The gradient of M - sum(v^2), as _poly_gradient would give it.
            grad = np.zeros(len(z))
            grad[ball_variables] = -2.0 * z[ball_variables]
            z = _newton_step(z, float(ball), grad)
            if z is None:
                return None
            moved = True
        for h in region.equalities:
            value = h.evaluate(z)
            if abs(value) > 1e-12:
                z = _newton_step(z, value, _poly_gradient(h, z))
                if z is None:
                    return None
                moved = True
        if not moved:
            break
    return np.clip(z, lo, hi)


def _newton_step(z: np.ndarray, value: float, grad: np.ndarray) -> Optional[np.ndarray]:
    """Newton step from ``z`` toward a constraint's root along its gradient;
    None when the gradient vanishes."""
    norm_sq = float(np.dot(grad, grad))
    if norm_sq <= 1e-18:
        return None
    return z - (value / norm_sq) * grad


def _lockstep_search(
    problem,
    region: Optional[SemialgebraicSet],
    starts: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    directions: np.ndarray,
    max_iters: int = 100000,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pattern-search descents from every row of ``starts``, stepped in
    lockstep; returns the final points and each descent's evaluation count.

    Each descent keeps its own point, merit, step and round count, and
    makes the moves it would make alone.  A round polls the stencils of
    all live descents as one block and the restored candidates of all of
    them as a second block; each descent then takes the first strict
    improvement among its own candidates, stencil rows before restored
    rows.  A descent leaves the round set when its step falls below
    ``_MIN_STEP`` or after ``max_iters`` rounds.
    """
    count, width = len(starts), len(directions)
    points = np.clip(np.asarray(starts, dtype=float), lo, hi)
    merits = np.array([_merit(problem, region, p) for p in points])
    evaluations = np.ones(count, dtype=int)
    span = float(np.max(hi - lo))
    steps = np.full(count, 0.25 * span)
    iterations = np.zeros(count, dtype=int)
    live = np.flatnonzero(steps >= _MIN_STEP)
    while len(live):
        iterations[live] += 1
        raw = np.clip(points[live, None, :] + steps[live, None, None] * directions, lo, hi)
        flat = raw.reshape(len(live) * width, -1)
        pool = _evaluate_block(problem, flat).reshape(len(live), width)
        evaluations[live] += width
        if region is not None:
            violations = _violation_block(region, flat).reshape(len(live), width)
            pool = pool + _PENALTY * violations
            # Steps that graze a curved constraint pick up an O(h^2) penalty
            # that blocks tangential progress; restoring each descent's most
            # promising violating candidates to the boundary keeps it moving
            # along active constraints.
            restored, owners, slots = [], [], []
            for row in np.flatnonzero((violations > 0.0).any(axis=1)):
                violated = np.flatnonzero(violations[row] > 0.0)
                slot = width
                for i in violated[np.argsort(pool[row, violated], kind="stable")][:3]:
                    point = _newton_restore(region, raw[row, i], lo, hi)
                    if point is not None:
                        restored.append(point)
                        owners.append(row)
                        slots.append(slot)
                        slot += 1
            if restored:
                extra = np.array(restored)
                sizes = np.bincount(owners, minlength=len(live))
                extra_merits = _evaluate_block(problem, extra)
                extra_merits += _PENALTY * _violation_block(region, extra)
                evaluations[live] += sizes
                # Pad every descent's candidates to width + 3 with +inf, so
                # a row-wise argmin still picks each one's first minimum.
                raw = np.concatenate([raw, np.zeros((len(live), 3, raw.shape[-1]))], axis=1)
                raw[owners, slots] = extra
                pool = np.concatenate([pool, np.full((len(live), 3), math.inf)], axis=1)
                pool[owners, slots] = extra_merits
        rows = np.arange(len(live))
        best = np.argmin(pool, axis=1)
        chosen = pool[rows, best]
        moved = chosen < merits[live]
        points[live[moved]] = raw[rows[moved], best[moved]]
        merits[live[moved]] = chosen[moved]
        steps[live] = np.where(moved, np.minimum(steps[live] * 2.0, span), steps[live] * 0.5)
        live = live[(steps[live] >= _MIN_STEP) & (iterations[live] < max_iters)]
    return points, evaluations


def _repair(
    problem,
    region: Optional[SemialgebraicSet],
    point: np.ndarray,
    directions: np.ndarray,
) -> Tuple[np.ndarray, float, bool, int]:
    """Pull a near-feasible candidate into the region, then re-evaluate.

    Descends on the constraint violation alone with the same pattern search,
    one batched violation poll per round; reports whether the final point is
    feasible within 1e-9.
    """
    evaluations = 1
    if region is None or region.contains(point, 1e-9):
        return point, _safe_value(problem, point), True, evaluations
    violation = float(_violation_block(region, point[None, :])[0])
    h = 1e-2
    while h >= 1e-12 and violation > 0.0:
        candidates = point + h * directions
        violations = _violation_block(region, candidates)
        evaluations += len(candidates)
        idx = int(np.argmin(violations))
        if violations[idx] < violation:
            point, violation = candidates[idx], float(violations[idx])
            h *= 2.0
        else:
            h *= 0.5
    feasible = region.contains(point, 1e-9)
    return point, _safe_value(problem, point), feasible, evaluations
