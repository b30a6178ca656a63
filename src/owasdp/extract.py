"""Minimizer detection and extraction from solved moment relaxations.

A solved relaxation returns a moment vector, not a point.  When the moment
matrices satisfy the rank (flat-truncation) conditions, the relaxation value
is exact and a minimizer can be read off the first-order moments (Henrion &
Lasserre, "Detecting global optimality and extracting solutions in
GloptiPoly", 2005).  This module provides the rank diagnostics
(`rank_check`), first-moment extraction with an independent feasibility and
objective re-check (`extract_point`), and the standard relative
objective-error measure (`eps_obj`).  The rank diagnostics read the
moments through the basis that every moment block carries
(``PsdBlock.basis``): a selection of basis rows by variables and degree
picks each ranked submatrix.  Extraction reads the first moments L_y(1) and
L_y(x_l) straight from y by monomial row (``SdpProblem.moment_rows``), and
takes L_y(1) = 1/q0 when the denominator is a constant q0.

Only the single-minimizer case (all ranks one) is extracted; higher finite
ranks are detected and reported but not decomposed into atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Collection, Dict, FrozenSet, Mapping, Optional, Tuple

import numpy as np

from .polynomial import VarId
from .relaxation import SdpProblem, dirac_moment_vector
from .solver import verify_vector

__all__ = [
    "BlockRanks",
    "DegenerateMomentError",
    "ExtractedSolution",
    "ExtractionError",
    "FlatnessOrders",
    "RankReport",
    "eps_obj",
    "extract_point",
    "flatness_orders",
    "rank_check",
]

RANK_TOLERANCE = 1e-6
FEASIBILITY_TOLERANCE = 1e-6


class ExtractionError(RuntimeError):
    """Raised when a minimizer cannot be recovered from a moment vector."""


class DegenerateMomentError(ExtractionError):
    """The moment vector carries no usable mass (L_y(1) <= 0)."""


# ---------------------------------------------------------------------------
# Rank conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlatnessOrders:
    """Reduction depths for the rank comparison.

    ``clique_reduction`` applies to every clique moment block,
    ``original_reduction`` to the principal submatrix indexed by monomials in
    the original variables only.  Both count hierarchy levels below the full
    relaxation order.
    """

    original_reduction: int = 1
    clique_reduction: int = 1

    def __post_init__(self) -> None:
        if self.original_reduction < 1 or self.clique_reduction < 1:
            raise ValueError("rank reductions must be at least one level")


def flatness_orders(lift) -> FlatnessOrders:
    """Reduction depths implied by a lifted problem's constraint degrees.

    Constraints supported on the original variables drive the original-block
    reduction; every other constraint, together with the objective numerator
    and denominator, drives the clique-block reduction.  Half-degrees are
    rounded up, and each reduction is at least one level.
    """
    original = set(lift.original_variables)
    original_red = 1
    clique_red = max(
        1,
        -(-lift.objective_num.degree // 2),
        -(-lift.objective_den.degree // 2),
    )
    for poly in tuple(lift.inequality_constraints) + tuple(
        lift.equality_constraints
    ):
        half = max(1, -(-poly.degree // 2))
        if set(poly.variables()) <= original:
            original_red = max(original_red, half)
        else:
            clique_red = max(clique_red, half)
    return FlatnessOrders(original_red, clique_red)


@dataclass(frozen=True)
class BlockRanks:
    """Numerical ranks of one moment (sub)matrix at full and reduced order."""

    label: str
    size: int
    reduced_size: int
    rank_full: int
    rank_reduced: int
    reduction: int

    def __post_init__(self) -> None:
        if not (0 <= self.rank_full <= self.size):
            raise ValueError("full rank outside [0, size]")
        if not (0 <= self.rank_reduced <= self.reduced_size):
            raise ValueError("reduced rank outside [0, reduced size]")

    @property
    def flat(self) -> bool:
        return self.rank_full == self.rank_reduced


@dataclass(frozen=True)
class RankReport:
    """Flatness diagnostics of a moment vector.

    ``blocks`` covers every clique moment block, ``original`` the shared
    submatrix over original-variable monomials (absent when no block spans
    all original variables).  ``cross_ranks`` holds the rank of the shared
    submatrix for each pair of overlapping clique blocks; minimizers split
    consistently across cliques only when all of these are one.
    """

    blocks: Tuple[BlockRanks, ...]
    original: Optional[BlockRanks]
    cross_ranks: Tuple[Tuple[str, str, int], ...]
    tolerance: float

    @property
    def cross_rank_one(self) -> bool:
        return all(rank <= 1 for _, _, rank in self.cross_ranks)

    @property
    def global_flat(self) -> bool:
        if not all(block.flat for block in self.blocks):
            return False
        if self.original is not None and not self.original.flat:
            return False
        return self.cross_rank_one

    @property
    def single_atom(self) -> bool:
        """True when the diagnostics certify exactly one minimizer."""
        if not self.global_flat:
            return False
        if any(block.rank_full != 1 for block in self.blocks):
            return False
        return self.original is None or self.original.rank_full == 1

    @property
    def atom_count(self) -> int:
        """Certified minimizer count (max block rank when globally flat)."""
        ranks = [block.rank_full for block in self.blocks]
        if self.original is not None:
            ranks.append(self.original.rank_full)
        return max(ranks, default=0)


def _numerical_rank(matrix: np.ndarray) -> int:
    if matrix.size == 0:
        return 0
    singular = np.linalg.svd(matrix, compute_uv=False)
    top = float(singular[0])
    if top <= 0.0:
        return 0
    return int(np.sum(singular > RANK_TOLERANCE * top))


def _submatrix_rows(
    basis: np.ndarray, variables: Optional[Collection[VarId]], max_degree: int
) -> np.ndarray:
    """Indices of the basis rows of degree <= ``max_degree`` over
    ``variables`` only (over any variables when None)."""
    inside = (basis >= 0).sum(axis=1) <= max_degree
    if variables is not None:
        inside &= np.all(np.isin(basis, list(variables)) | (basis < 0), axis=1)
    return np.flatnonzero(inside)


def rank_check(
    sdp: SdpProblem,
    y: np.ndarray,
    orders: FlatnessOrders,
) -> RankReport:
    """Numerical rank diagnostics of every clique moment block at ``y``.

    ``orders`` fixes how many hierarchy levels the reduced submatrices sit
    below the full order: a reduced submatrix keeps the basis rows of degree
    at most ``sdp.order`` minus the reduction.  Ranks count singular values
    above ``RANK_TOLERANCE`` times the largest one.  ExtractionError when a
    moment block carries no basis.
    """
    moment_blocks = [b for b in sdp.psd_blocks if b.kind == "moment"]
    for block in moment_blocks:
        if block.basis is None:
            raise ExtractionError(f"moment block {block.label} carries no basis")
    pairs = [(block, block.assemble(y)) for block in moment_blocks]

    def ranks(label, basis, matrix, variables, reduction) -> BlockRanks:
        """The ranks of ``matrix`` on its basis rows over ``variables``, at
        the full order and ``reduction`` levels below it."""
        rows = _submatrix_rows(basis, variables, sdp.order)
        reduced = _submatrix_rows(basis, variables, max(0, sdp.order - reduction))
        full_rank = _numerical_rank(matrix[np.ix_(rows, rows)])
        reduced_rank = _numerical_rank(matrix[np.ix_(reduced, reduced)])
        return BlockRanks(label, rows.size, reduced.size, full_rank, reduced_rank, reduction)

    reports = tuple(ranks(b.label, b.basis, m, None, orders.clique_reduction) for b, m in pairs)
    original = set(sdp.original_variables)
    original_report = next(
        (
            ranks("original", b.basis, m, original, orders.original_reduction)
            for b, m in pairs
            if original <= set(b.variables)
        ),
        None,
    )

    # The rank of a pair depends only on its first block and the shared
    # variables, so each (block, shared set) is ranked once.
    cross = []
    variables = [frozenset(block.variables) for block in moment_blocks]
    memo: Dict[Tuple[int, FrozenSet[VarId]], int] = {}
    for i, (first, matrix) in enumerate(pairs):
        for j in range(i + 1, len(pairs)):
            shared = variables[i] & variables[j]
            if not shared:
                continue
            if (i, shared) not in memo:
                rows = _submatrix_rows(first.basis, shared, sdp.order)
                memo[i, shared] = _numerical_rank(matrix[np.ix_(rows, rows)])
            cross.append((first.label, moment_blocks[j].label, memo[i, shared]))

    return RankReport(
        blocks=reports,
        original=original_report,
        cross_ranks=tuple(cross),
        tolerance=RANK_TOLERANCE,
    )


# ---------------------------------------------------------------------------
# Point extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtractedSolution:
    """A candidate minimizer with its independently recomputed value.

    ``certified_value`` comes from re-evaluating the objective at the point
    (never from the solver).  ``sdp_bound`` is the primal moment objective
    c'y + c0 at the moment vector, read from ``y`` alone: it is not the
    solver's reported bound (``SolverResult.objective``, the dual objective),
    which lies below it by the solver's duality gap.  So
    ``gap = certified_value - sdp_bound`` is the sandwich width against the
    primal moment objective, and the width against the reported bound is
    larger by that duality gap; a tiny gap certifies practical exactness
    only together with a small duality gap.
    """

    point: Mapping[VarId, float]
    certified_value: float
    sdp_bound: float
    feasibility_residual: float
    feasible: bool
    gap: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "gap", self.certified_value - self.sdp_bound
        )


def _first_moments(sdp: SdpProblem, y: np.ndarray) -> np.ndarray:
    """L_y(1), L_y(x_0), ..., L_y(x_{n - 1}), read from y by monomial row,
    except L_y(1) = 1/q0 under a constant denominator q0, whose constant
    monomial is no moment."""
    n_vars = len(sdp.universe)
    first = np.empty(n_vars + 1)
    found = np.zeros(n_vars + 1, dtype=bool)
    low = np.flatnonzero((sdp.moment_rows >= 0).sum(axis=1) <= 1)
    # Slot 0 is the constant row, slot v + 1 the row of x_v.
    slot = sdp.moment_rows[low].max(axis=1, initial=-1) + 1
    first[slot] = y[low]
    found[slot] = True
    if sdp.denominator.is_constant():
        first[0] = 1.0 / sdp.denominator.constant_value()
        found[0] = True
    if not found.all():
        slot = int(np.argmin(found))
        monomial = "1" if slot == 0 else f"x{slot - 1}"
        raise ExtractionError(f"the relaxation holds no moment L_y({monomial})")
    return first


def extract_point(
    sdp: SdpProblem,
    y: np.ndarray,
    objective: Optional[Callable[[np.ndarray], float]] = None,
) -> ExtractedSolution:
    """Read a candidate minimizer off the first-order moments of ``y``.

    Coordinates are L_y(x_l) / L_y(1); the returned point holds the
    original variables only.  The candidate is re-checked against the
    relaxation's own constraint system within ``FEASIBILITY_TOLERANCE``, and
    its value is recomputed at the point: through ``objective`` (a callable
    on the original variables, typically an independent evaluator) when
    given, otherwise through the relaxation's rational objective at the full
    lifted point.  Meaningful only when `rank_check` certifies a single
    atom; on higher-rank moment vectors the returned point is the atoms'
    barycenter.  ExtractionError when the relaxation holds no first moment
    of some variable.
    """
    sdp._require_metadata()
    first = _first_moments(sdp, y)
    mass = float(first[0])
    if not mass > 0.0:
        raise DegenerateMomentError(
            f"moment vector carries nonpositive mass L_y(1) = {mass!r}"
        )
    full_point = first[1:] / mass

    denominator = sdp.denominator.evaluate(full_point)
    if not denominator > 0.0:
        raise DegenerateMomentError(
            "objective denominator vanishes at the extracted point"
        )
    witness = dirac_moment_vector(sdp, full_point)
    report = verify_vector(sdp, witness, FEASIBILITY_TOLERANCE)
    # np.max, unlike max, keeps a NaN residual or eigenvalue.
    residual = float(
        np.max([report.max_equality_residual, -report.min_block_eigenvalue, 0.0])
    )

    if objective is not None:
        original_point = full_point[list(sdp.original_variables)]
        certified = float(objective(original_point))
    else:
        certified = sdp.objective.evaluate(witness)

    return ExtractedSolution(
        point={int(v): float(full_point[v]) for v in sdp.original_variables},
        certified_value=certified,
        sdp_bound=sdp.objective.evaluate(y),
        feasibility_residual=residual,
        feasible=report.within_tolerance,
    )


def eps_obj(sdp_value: float, reference: float) -> float:
    """Objective error |sdp_value - reference| / max(1, reference).

    Relative at a reference above 1; at a reference of 1 or below (every
    negative reference among them) the denominator is 1, so the error is
    the absolute gap.
    """
    if not math.isfinite(reference):
        raise ValueError("reference optimum must be finite")
    return abs(sdp_value - reference) / max(1.0, reference)
