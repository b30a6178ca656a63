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
The region is read on blocks the same way, through one arithmetic,
``Polynomial.evaluate_many``: memberships by
``SemialgebraicSet.contains_many``, total violations (NaN counting as
+inf) by ``SemialgebraicSet.violation_many``, and the gradients of the
Newton restoration by ``Polynomial.derivative``.  No search makes a call
for one point alone.  ``CallableProblem`` adapts a bare batched callable
to the protocol.

``grid_search`` evaluates the grid in chunks of whole first-axis slices of
at least ``_GRID_CHUNK`` points (a 101 x 101 grid in one call).  Within a
chunk and across chunks the first minimum in row-major order wins, so the
tie-break is lexicographic whatever the chunk size.  Each round of the
coordinate refinement is evaluated as one block.  The pattern search
evaluates its starts as one block, and its polls, restorations and
feasibility repairs as one block per round across all live starts; a move
is taken only on a sufficient decrease of the merit (see
``_SUFFICIENT_DECREASE``), and ties go to the first candidate in poll
order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .polynomial import SemialgebraicSet

Box = Sequence[Tuple[float, float]]

# Least number of points per batched grid evaluation; whole first-axis
# slices are added until a chunk reaches it.
_GRID_CHUNK = 65536

# The pattern search's exact-penalty coefficient on the constraint
# violation, and the step below which a descent stops.
_PENALTY = 1e4
_MIN_STEP = 1e-8

# A descent moves only when its merit falls by more than
# _SUFFICIENT_DECREASE h^2 at step h (the forcing function of Kolda, Lewis
# & Torczon 2003, with Armijo's customary coefficient).  Without it a
# restored candidate a tiny distance along a curved constraint counts as a
# success, so the step doubles instead of shrinking and the descent creeps:
# OMRF ``general-5`` of the benchmark panel spent 1.1 million evaluations on
# one start that way.
_SUFFICIENT_DECREASE = 1e-4

# Round caps of a descent that has not converged: pattern-search rounds per
# descent and rounds of the grid's coordinate refinement.
_MAX_DESCENT_ROUNDS = 100000
_MAX_REFINE_ROUNDS = 10000

# Random draws of one start, the last of which is kept even outside the
# ball, and the constraint sweeps of one Newton restoration.
_MAX_START_DRAWS = 200
_RESTORE_SWEEPS = 3

# Constraint violation up to which a point counts as feasible.
_FEASIBLE_TOL = 1e-9


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
            values = np.where(region.contains_many(chunk, _FEASIBLE_TOL), values, math.inf)
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
    for _ in range(_MAX_REFINE_ROUNDS):
        candidates = point + h * moves
        moved = candidates[rows, moved_axis]
        candidates = candidates[~((moved < lo) | (moved > hi))]
        if region is not None:
            candidates = candidates[region.contains_many(candidates, _FEASIBLE_TOL)]
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
    descent polls the full +/-1 direction stencil, moving on a sufficient
    decrease of its merit (``_SUFFICIENT_DECREASE``), expanding the step by
    2.0 on such a move and contracting it by 0.5 otherwise, and stops when
    the step falls below ``_MIN_STEP``.  Trial points that land slightly
    outside the region are additionally projected back onto its boundary so
    the poll can track curved active constraints.  Final candidates are
    repaired to feasibility before reporting; starts that cannot be
    repaired are discarded.  Results merge deterministically by value, then
    lexicographic point.

    All starts are drawn first.  The descents, and then the repairs, run
    in lockstep (``_lockstep_search``, ``_repair``): every evaluation is
    one block across the starts, and each start follows exactly the path it
    would follow alone, with the same evaluations.
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

    starts = _draw_starts(rng, lo, hi, region, n_starts)
    points, counts = _lockstep_search(problem, region, starts, lo, hi, directions)
    points, values, feasible, used = _repair(problem, region, points, directions)
    start_values = tuple(float(v) if ok else math.inf for v, ok in zip(values, feasible))
    ranked = [
        (value, tuple(float(c) for c in point))
        for value, point in zip(start_values, points)
        if math.isfinite(value)
    ]
    best_value, best_point = min(ranked) if ranked else (math.inf, None)
    return OracleResult(
        best_point, best_value, "multistart", int(counts.sum() + used.sum()),
        starts=n_starts, start_values=start_values,
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


def _draw_starts(
    rng: np.random.Generator,
    lo: np.ndarray,
    hi: np.ndarray,
    region: Optional[SemialgebraicSet],
    count: int,
) -> np.ndarray:
    """``count`` uniform starts in the box, one per row.  Inside a region's
    ball each start takes the first of its next ``_MAX_START_DRAWS`` draws
    that lies in the ball, or else the draw after them; the draws come from
    one block, the most the starts can use, in the order of one stream."""
    if region is None or region.ball_bound is None:
        return lo + (hi - lo) * rng.random((count, len(lo)))
    draws = lo + (hi - lo) * rng.random((count * (_MAX_START_DRAWS + 1), len(lo)))
    inside = region.ball_values(draws) >= 0.0
    rows, row = [], 0
    for _ in range(count):
        tries = inside[row:row + _MAX_START_DRAWS]
        row += int(np.argmax(tries)) if tries.any() else _MAX_START_DRAWS
        rows.append(row)
        row += 1
    return draws[rows]


def _newton_restore(
    region: SemialgebraicSet,
    points: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Project slightly infeasible points back onto the region boundary.

    Each row sweeps the violated constraints (inequalities, the ball, then
    equalities), moving along each one's exact gradient to its nearest root,
    one Newton step per constraint per sweep.  All rows sweep together, each
    taking the steps it would take alone.  Returns the rows clipped to the
    box and a mask of the rows restored: a row fails where a violated
    constraint's gradient vanishes.  Residual violations are left to the
    penalty.
    """
    z = np.array(points, dtype=float)
    restored = np.ones(len(z), dtype=bool)
    # None stands for the ball, whose values and gradient stay numeric.
    constraints = [(g, False) for g in region.inequalities]
    if region.ball_bound is not None:
        constraints.append((None, False))
    constraints += [(h, True) for h in region.equalities]
    sweeping = np.arange(len(z))
    for _ in range(_RESTORE_SWEEPS):
        moved = np.zeros(len(z), dtype=bool)
        for poly, equality in constraints:
            rows = sweeping[restored[sweeping]]
            x = z[rows]
            values = region.ball_values(x) if poly is None else poly.evaluate_many(x)
            hit = np.abs(values) > 1e-12 if equality else values < 0.0
            rows, values, x = rows[hit], values[hit], x[hit]
            if not len(rows):
                continue
            if poly is None:
                # The gradient of M - sum(v^2), as its derivatives would give it.
                grad = -2.0 * x
            else:
                grad = np.zeros_like(x)
                for vid in poly.variables():
                    grad[:, vid] = poly.derivative(vid).evaluate_many(x)
            norm_sq = np.vecdot(grad, grad)
            vanishing = norm_sq <= 1e-18
            restored[rows[vanishing]] = False
            step = ~vanishing
            z[rows[step]] = x[step] - (values[step] / norm_sq[step])[:, None] * grad[step]
            moved[rows[step]] = True
        sweeping = sweeping[moved[sweeping] & restored[sweeping]]
        if not len(sweeping):
            break
    return np.clip(z, lo, hi), restored


def _lockstep_search(
    problem,
    region: Optional[SemialgebraicSet],
    starts: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    directions: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pattern-search descents from every row of ``starts``, stepped in
    lockstep; returns the final points and each descent's evaluation count.

    Each descent keeps its own point, merit, step and round count, and
    makes the moves it would make alone.  The start merits are one block.
    A round polls the stencils of all live descents as one block, restores
    the violating candidates it picks as a second block and evaluates the
    restored points as a third; each descent then takes the first best of
    its own candidates, stencil rows before restored rows, if its merit
    falls by more than ``_SUFFICIENT_DECREASE`` times the squared step.  A
    descent leaves the round set when its step falls below
    ``_MIN_STEP`` or after ``_MAX_DESCENT_ROUNDS`` rounds.
    """
    count, width = len(starts), len(directions)
    points = np.clip(np.asarray(starts, dtype=float), lo, hi)
    merits = _merits(problem, region, points)
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
            violations = region.violation_many(flat).reshape(len(live), width)
            pool = pool + _PENALTY * violations
            # Steps that graze a curved constraint pick up an O(h^2) penalty
            # that blocks tangential progress; restoring each descent's (up
            # to) three violating candidates of lowest merit, ties in
            # stencil order, keeps it moving along active constraints.
            rows, cols = np.nonzero(violations > 0.0)
            if len(rows):
                order = np.lexsort((pool[rows, cols], rows))
                picked = order[_rank_within(rows[order]) < 3]
                extra, restored = _newton_restore(region, raw[rows[picked], cols[picked]], lo, hi)
                owners, extra = rows[picked][restored], extra[restored]
                if len(owners):
                    slots = width + _rank_within(owners)
                    evaluations[live] += np.bincount(owners, minlength=len(live))
                    # Pad every descent's candidates to width + 3 with +inf,
                    # so a row-wise argmin still picks each one's first
                    # minimum.
                    raw = np.concatenate([raw, np.zeros((len(live), 3, raw.shape[-1]))], axis=1)
                    raw[owners, slots] = extra
                    pool = np.concatenate([pool, np.full((len(live), 3), math.inf)], axis=1)
                    pool[owners, slots] = _merits(problem, region, extra)
        rows = np.arange(len(live))
        best = np.argmin(pool, axis=1)
        chosen = pool[rows, best]
        moved = chosen < merits[live] - _SUFFICIENT_DECREASE * (steps[live] * steps[live])
        points[live[moved]] = raw[rows[moved], best[moved]]
        merits[live[moved]] = chosen[moved]
        steps[live] = np.where(moved, np.minimum(steps[live] * 2.0, span), steps[live] * 0.5)
        live = live[(steps[live] >= _MIN_STEP) & (iterations[live] < _MAX_DESCENT_ROUNDS)]
    return points, evaluations


def _merits(problem, region: Optional[SemialgebraicSet], points: np.ndarray) -> np.ndarray:
    """Exact-penalty merit at each row of ``points``: the objective plus
    ``_PENALTY`` times the total constraint violation."""
    values = _evaluate_block(problem, points)
    if region is None:
        return values
    return values + _PENALTY * region.violation_many(points)


def _rank_within(groups: np.ndarray) -> np.ndarray:
    """Position of each entry within its run of equal entries of the sorted
    array ``groups``."""
    return np.arange(len(groups)) - np.searchsorted(groups, groups)


def _repair(
    problem,
    region: Optional[SemialgebraicSet],
    points: np.ndarray,
    directions: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pull near-feasible candidates into the region, then evaluate them.

    Every row outside the region descends on the constraint violation alone
    with the same pattern search; the descents run in lockstep, one batched
    violation poll per round, and each makes the moves it would make alone.
    Returns the points, their objective values as one block, whether each
    is feasible within ``_FEASIBLE_TOL``, and each one's evaluation count.
    """
    points = np.array(points, dtype=float)
    evaluations = np.ones(len(points), dtype=int)
    if region is None:
        return points, _evaluate_block(problem, points), np.ones(len(points), bool), evaluations
    outside = np.flatnonzero(~region.contains_many(points, _FEASIBLE_TOL))
    violation = region.violation_many(points[outside])
    steps = np.full(len(outside), 1e-2)
    live = np.flatnonzero(violation > 0.0)
    width = len(directions)
    while len(live):
        owners = outside[live]
        candidates = points[owners, None, :] + steps[live, None, None] * directions
        violations = region.violation_many(candidates.reshape(len(live) * width, -1))
        violations = violations.reshape(len(live), width)
        evaluations[owners] += width
        rows = np.arange(len(live))
        best = np.argmin(violations, axis=1)
        chosen = violations[rows, best]
        moved = chosen < violation[live]
        points[owners[moved]] = candidates[rows[moved], best[moved]]
        violation[live[moved]] = chosen[moved]
        steps[live] = np.where(moved, steps[live] * 2.0, steps[live] * 0.5)
        live = live[(steps[live] >= 1e-12) & (violation[live] > 0.0)]
    feasible = region.contains_many(points, _FEASIBLE_TOL)
    return points, _evaluate_block(problem, points), feasible, evaluations
