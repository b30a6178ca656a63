"""Solution of the assembled semidefinite relaxations.

The standard form produced by :mod:`owasdp.relaxation` is

    minimize    c'y + c0
    subject to  M_k(y) := C_k + sum_i y_i A_{k,i}  PSD   for every block k,
                E y = b,

a linear objective over free moment variables with affine PSD blocks and
affine equality rows.  This module solves it through a pluggable backend
contract with two implementations:

- ``interior-point`` (bundled, default): an infeasible-start primal-dual
  path-following method with Nesterov-Todd scaling and a Mehrotra-style
  adaptive centering parameter.  The blocks are grouped by size: the primal
  and dual matrices of one group are stacked, so every phase of an iteration
  (scaling, corrector, step search, PD check) is a few batched NumPy calls
  per group, and the block map and its adjoint are one sparse operator.  The
  Schur complement (Fujisawa, Kojima & Nakata 1997) is formed per group of
  same-shape blocks and inherits the clique sparsity of the relaxation; its
  terms are scattered into a KKT sparsity pattern fixed at compile time, and
  the symmetric quasidefinite KKT system is factored with a sparse LU (dense
  for small problems).  The iteration is deterministic: identical inputs,
  options and BLAS thread counts produce bitwise identical iterates.
  ``diagnostics['phase_seconds']`` splits the iteration time by phase.
- ``cvxopt``: feeds the problem through the text export/import round trip and
  into ``cvxopt.solvers.conelp``, giving an independent cross-check of the
  bundled backend.

Before solving, every PSD block map is normalized to unit Frobenius norm and
every equality row to unit Euclidean norm; the per-moment magnitude hints
carried by the relaxation (``moment_scales``) rescale the variables.  All
reported quantities (``y``, objective) are mapped back to original units.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .relaxation import SdpProblem, from_sdp_text, to_sdp_text

logger = logging.getLogger(__name__)


class SolverError(RuntimeError):
    """Backend-level failure unrelated to problem conditioning."""


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    NEAR_OPTIMAL = "near_optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERICAL_FAILURE = "numerical_failure"

    def solved(self) -> bool:
        return self in (SolveStatus.OPTIMAL, SolveStatus.NEAR_OPTIMAL)


@dataclass(frozen=True)
class SolverOptions:
    """Termination controls shared by every backend.

    ``abs_tol`` bounds the (normalized) primal and dual residuals, ``rel_tol``
    the relative duality gap.  ``backend`` names a registered backend.
    """

    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    max_iters: int = 200
    verbosity: int = 0
    backend: str = "interior-point"

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


# Looser fixed gates for classifying an unconverged but usable iterate.
# Degenerate moment relaxations hit a double-precision floor in the Schur
# system around 1e-6; an iterate within these gates still carries ~5 correct
# digits in the objective, which downstream extraction tolerates.
_NEAR_GAP = 1e-4
_NEAR_RES = 1e-5


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one solve call.

    ``y`` is present exactly when the status is optimal or near-optimal; for
    numerical failures the last iterate travels in ``diagnostics['last_y']``.
    ``objective`` is +inf for infeasible problems, -inf for unbounded ones and
    NaN on numerical failure.  The bundled backend reports in
    ``diagnostics['phase_seconds']`` the seconds its iterations spent in each
    phase: ``residuals``, ``scaling`` (NT scaling and Mehrotra corrector),
    ``schur`` (Schur terms and KKT fill), ``kkt_factor``, ``kkt_solve``
    (search directions) and ``step_search`` (step lengths and PD checks).
    """

    status: SolveStatus
    y: Optional[np.ndarray]
    objective: float
    iterations: int
    wall_time: float
    diagnostics: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (self.y is not None) != self.status.solved():
            raise ValueError("y must be present exactly for solved statuses")


@dataclass(frozen=True)
class ResidualReport:
    """Feasibility and objective residuals of a candidate moment vector."""

    max_equality_residual: float
    min_block_eigenvalue: float
    objective_delta: float
    within_tolerance: bool


def verify_result(sdp: SdpProblem, res: SolverResult, tol: float) -> ResidualReport:
    """Recompute residuals of a solved result against the original problem.

    The tolerance check is relative: equality residuals against ``tol``
    directly, block eigenvalues against ``-tol * (1 + block Frobenius norm)``
    and the objective recomputation against ``tol * (1 + |objective|)``.
    """
    if res.y is None:
        raise ValueError("verify_result requires a solved result with y")
    return verify_vector(sdp, res.y, tol, reported_objective=res.objective)


def verify_vector(
    sdp: SdpProblem,
    y: np.ndarray,
    tol: float,
    reported_objective: Optional[float] = None,
) -> ResidualReport:
    """Residual report for an arbitrary moment vector (Dirac checks, tests)."""
    max_eq = 0.0
    for row in sdp.equalities:
        max_eq = max(max_eq, abs(row.residual(y)))
    min_eig = math.inf
    eig_ok = True
    for block in sdp.psd_blocks:
        mat = block.assemble(y)
        smallest = float(np.linalg.eigvalsh(mat)[0]) if block.size else 0.0
        min_eig = min(min_eig, smallest)
        if smallest < -tol * (1.0 + float(np.linalg.norm(mat))):
            eig_ok = False
    if min_eig is math.inf:
        min_eig = 0.0
    value = sdp.objective.evaluate(y)
    if reported_objective is None:
        delta = 0.0
    else:
        delta = abs(value - reported_objective)
    ok = eig_ok and max_eq <= tol and delta <= tol * (1.0 + abs(value))
    return ResidualReport(max_eq, min_eig, delta, ok)


# ---------------------------------------------------------------------------
# Compilation to scaled, grouped array form
# ---------------------------------------------------------------------------


def _dense_block(block, scales: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constant (n, n), touched moment indices (m,) and coefficient tensor
    (m, n, n) of one PSD block, scaled and normalized to unit Frobenius norm."""
    n = block.size
    constant = np.zeros((n, n))
    touched: Dict[int, int] = {}
    coo: List[Tuple[int, int, int, float]] = []  # (local, i, j, coeff)
    for i, j, form in block.entries:
        if form.constant != 0.0:
            constant[i, j] = form.constant
            constant[j, i] = form.constant
        for idx, coeff in zip(form.indices, form.coefficients):
            local = touched.setdefault(idx, len(touched))
            coo.append((local, i, j, coeff * scales[idx]))
    indices = np.fromiter(touched.keys(), dtype=np.int64, count=len(touched))
    tensor = np.zeros((len(touched), n, n))
    for local, i, j, coeff in coo:
        tensor[local, i, j] += coeff
        if i != j:
            tensor[local, j, i] += coeff
    norm = math.sqrt(float(np.sum(constant**2)) + float(np.sum(tensor**2)))
    norm = norm if norm > 0.0 else 1.0
    return constant / norm, indices, tensor / norm


class _Compiled:
    """Scaled standard form in grouped layout, plus the bookkeeping to undo
    the scaling.

    Blocks are ordered by (size, number of touched moments).  The blocks of
    one size n form a group whose K matrices are stacked as one (K, n, n)
    array; the groups are consecutive segments of one flat vector, on which
    the block map is  vec M(y) = constant + A y  and its adjoint is  A' v.
    Blocks of one shape (size and moment count) share a stacked coefficient
    tensor for the Schur terms.  The sparsity pattern of the KKT matrix and
    the scatter map from Schur terms, regularization and E into its CSC data
    are fixed here, so an iteration only fills numbers in.
    """

    def __init__(self, sdp: SdpProblem) -> None:
        self.y_dim = y_dim = sdp.y_dim
        scales = (
            np.asarray(sdp.moment_scales, dtype=float)
            if sdp.moment_scales
            else np.ones(y_dim)
        )
        if scales.size != y_dim:
            scales = np.ones(y_dim)
        self.y_scales = scales
        dense = sorted(
            (_dense_block(b, scales) for b in sdp.psd_blocks if b.size),
            key=lambda blk: (blk[0].shape[0], blk[1].size),
        )
        sizes = np.array([c.shape[0] for c, _, _ in dense], dtype=np.int64)
        self.cone_dim = int(sizes.sum())
        offsets = np.concatenate([[0], np.cumsum(sizes**2)])
        self.dim = int(offsets[-1])
        self.block_starts = offsets[:-1]
        self.constant = np.concatenate([c.ravel() for c, _, _ in dense] + [np.zeros(0)])
        self.block_scale = 1.0 + np.array([np.linalg.norm(c) for c, _, _ in dense])

        # Size groups (n, first block, end block) and the Schur shape groups
        # (size group, first, end within it, stacked tensors, stacked indices).
        self.groups: List[Tuple[int, int, int]] = []
        self.shapes: List[Tuple[int, int, int, np.ndarray, np.ndarray]] = []
        first = 0
        for n, same_size in itertools.groupby(dense, key=lambda blk: blk[0].shape[0]):
            same_size = list(same_size)
            lo = 0
            for m, same_shape in itertools.groupby(same_size, key=lambda blk: blk[1].size):
                same_shape = list(same_shape)
                if m:
                    self.shapes.append(
                        (
                            len(self.groups),
                            lo,
                            lo + len(same_shape),
                            np.stack([tensor for _, _, tensor in same_shape]),
                            np.stack([indices for _, indices, _ in same_shape]),
                        )
                    )
                lo += len(same_shape)
            self.groups.append((n, first, first + lo))
            first += lo

        rows: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        cols: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        vals: List[np.ndarray] = [np.zeros(0)]
        for (constant, indices, tensor), offset in zip(dense, offsets):
            n = constant.shape[0]
            local, i, j = np.nonzero(tensor)
            rows.append(offset + i * n + j)
            cols.append(indices[local])
            vals.append(tensor[local, i, j])
        self.A = scipy.sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.dim, y_dim),
        )
        self.At = self.A.T.tocsr()

        rows_l: List[int] = []
        cols_l: List[int] = []
        vals_l: List[float] = []
        rhs: List[float] = []
        for r_idx, row in enumerate(sdp.equalities):
            coeffs = np.asarray(row.form.coefficients) * scales[list(row.form.indices)]
            norm = float(np.linalg.norm(coeffs))
            norm = norm if norm > 0.0 else 1.0
            for idx, coeff in zip(row.form.indices, coeffs):
                rows_l.append(r_idx)
                cols_l.append(idx)
                vals_l.append(coeff / norm)
            rhs.append(row.rhs / norm)
        self.n_eq = len(sdp.equalities)
        self.E = scipy.sparse.csr_matrix(
            (vals_l, (rows_l, cols_l)), shape=(self.n_eq, y_dim)
        )
        self.Et = self.E.T.tocsr()
        self.b = np.asarray(rhs, dtype=float)

        self.c = np.zeros(y_dim)
        for idx, coeff in zip(sdp.objective.indices, sdp.objective.coefficients):
            self.c[idx] += coeff * scales[idx]

        self._build_kkt_pattern()

    def _build_kkt_pattern(self) -> None:
        """CSC pattern of [[H + dI, E'], [E, -dI]] and the position in its
        data array of every Schur term, diagonal entry and E entry, in the
        order ``kkt_data`` lists them."""
        y_dim, dim = self.y_dim, self.y_dim + self.n_eq
        e_coo = self.E.tocoo()
        rows = [np.arange(dim), e_coo.row + y_dim, e_coo.col]
        cols = [np.arange(dim), e_coo.col, e_coo.row + y_dim]
        for _, _, _, _, indices in self.shapes:
            K, m = indices.shape
            rows.append(np.broadcast_to(indices[:, :, None], (K, m, m)).ravel())
            cols.append(np.broadcast_to(indices[:, None, :], (K, m, m)).ravel())
        keys = np.concatenate(cols) * dim + np.concatenate(rows)
        unique, self.kkt_scatter = np.unique(keys, return_inverse=True)
        self.kkt_indices = unique % dim
        self.kkt_indptr = np.searchsorted(unique, np.arange(dim + 1) * dim)
        self.kkt_fixed = np.concatenate([e_coo.data, e_coo.data])

    def kkt_data(self, schur_terms: List[np.ndarray], delta: float) -> np.ndarray:
        """CSC data of the KKT matrix from the flattened Schur terms of each
        shape group and the regularization delta."""
        values = np.concatenate(
            [
                np.full(self.y_dim, delta),
                np.full(self.n_eq, -delta),
                self.kkt_fixed,
            ]
            + schur_terms
        )
        return np.bincount(
            self.kkt_scatter, weights=values, minlength=self.kkt_indices.size
        )

    def stacks(self, flat: np.ndarray) -> List[np.ndarray]:
        """(K, n, n) views of a flat block vector, one per size group."""
        return [
            flat[self.block_starts[lo] : self.block_starts[lo] + (hi - lo) * n * n]
            .reshape(hi - lo, n, n)
            for n, lo, hi in self.groups
        ]

    def identity_point(self) -> np.ndarray:
        """The starting point: each block is (1 + ||C_k||) I."""
        out = np.empty(self.dim)
        for (n, lo, hi), stack in zip(self.groups, self.stacks(out)):
            stack[...] = np.eye(n) * self.block_scale[lo:hi, None, None]
        return out

    def block_norms(self, flat: np.ndarray) -> np.ndarray:
        """Frobenius norm of every block of a flat block vector."""
        if not self.groups:
            return np.zeros(0)
        return np.sqrt(np.add.reduceat(flat * flat, self.block_starts))

    def is_pd(self, flat: np.ndarray) -> bool:
        try:
            for stack in self.stacks(flat):
                np.linalg.cholesky(stack)
        except np.linalg.LinAlgError:
            return False
        return True


# ---------------------------------------------------------------------------
# Bundled interior-point backend
# ---------------------------------------------------------------------------

_PHASES = ("residuals", "scaling", "schur", "kkt_factor", "kkt_solve", "step_search")


class _PhaseClock:
    """Seconds per solver phase; ``lap(phase)`` charges the time since the
    previous lap to ``phase``."""

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(_PHASES, 0.0)
        self._last = time.perf_counter()

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        self.seconds[phase] += now - self._last
        self._last = now


def _t(stack: np.ndarray) -> np.ndarray:
    return np.swapaxes(stack, -1, -2)


def _symmetrize(stack: np.ndarray) -> np.ndarray:
    return 0.5 * (stack + _t(stack))


def _finite(*arrays: np.ndarray) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


def _nt_scaling(X: np.ndarray, Z: np.ndarray):
    """Nesterov-Todd scaling of stacked blocks: G = W^{-1} (the inverse of
    the W with W Z W = X), its PD square root S, S^{-1}, and the eigenpairs
    (d, Q) of lambda = S X S = S^{-1} Z S^{-1}.
    W^{-1} = X^{-1/2} (X^{1/2} Z X^{1/2})^{1/2} X^{-1/2}."""
    ex, Px = np.linalg.eigh(X)
    ex = np.sqrt(np.maximum(ex, 1e-300))[:, None, :]
    sqrt_x = (Px * ex) @ _t(Px)
    isqrt_x = (Px / ex) @ _t(Px)
    es, Ps = np.linalg.eigh(_symmetrize(sqrt_x @ Z @ sqrt_x))
    es = np.sqrt(np.sqrt(np.maximum(es, 1e-300)))[:, None, :]
    half = isqrt_x @ ((Ps * es) @ _t(Ps))
    G = _symmetrize(half @ _t(half))
    gw, gv = np.linalg.eigh(G)
    sqrt_gw = np.sqrt(np.clip(gw, 1e-300, None))[:, None, :]
    S = (gv * sqrt_gw) @ _t(gv)
    S_inv = (gv / sqrt_gw) @ _t(gv)
    d, Q = np.linalg.eigh(_symmetrize(S @ X @ S))
    return G, S, S_inv, np.clip(d, 1e-300, None), Q


def _schur_terms(comp: _Compiled, G: List[np.ndarray]) -> List[np.ndarray]:
    """Flattened Schur terms <A_i, G A_j G> of every block, per shape group.

    <A_i, G A_j G> = <A_i G, G A_j>: with P_i = A_i G (and G A_i = P_i'), one
    batched product per shape group gives them all."""
    terms = []
    for g, lo, hi, tensor, _ in comp.shapes:
        K, m, n, _ = tensor.shape
        P = (tensor.reshape(K, m * n, n) @ G[g][lo:hi]).reshape(K, m, n, n)
        local = P.reshape(K, m, n * n) @ _t(_t(P).reshape(K, m, n * n))
        terms.append(_symmetrize(local).ravel())
    return terms


def _congruence(comp: _Compiled, G: List[np.ndarray], flat: np.ndarray) -> np.ndarray:
    """sym(G M G) for every block M of a flat block vector."""
    out = np.empty_like(flat)
    for g, m, dst in zip(G, comp.stacks(flat), comp.stacks(out)):
        dst[...] = _symmetrize(g @ m @ g)
    return out


def _max_step(comp: _Compiled, inv_chol: List[np.ndarray], direction: np.ndarray) -> float:
    """sup {a : current + a*direction PSD} from the smallest eigenvalue of
    L^{-1} D L^{-T}, given the inverse Cholesky factors L^{-1} of the current
    (PD) point per size group."""
    smallest = min(
        (
            float(np.min(np.linalg.eigvalsh(li @ d @ _t(li))))
            for li, d in zip(inv_chol, comp.stacks(direction))
        ),
        default=math.inf,
    )
    return math.inf if smallest >= 0.0 else -1.0 / smallest


class _Kkt:
    """Factorization of [[H + dI, E'], [E, -dI]] with iterative refinement."""

    def __init__(self, comp: _Compiled, data: np.ndarray) -> None:
        dim = comp.y_dim + comp.n_eq
        self.matrix = scipy.sparse.csc_matrix(
            (data, comp.kkt_indices, comp.kkt_indptr), shape=(dim, dim)
        )
        self.y_dim = comp.y_dim
        if dim <= 500:
            self._dense = scipy.linalg.lu_factor(self.matrix.toarray(), check_finite=False)
            self._sparse = None
        else:
            self._dense = None
            self._sparse = scipy.sparse.linalg.splu(self.matrix)

    def _solve_once(self, rhs: np.ndarray) -> np.ndarray:
        if self._dense is not None:
            return scipy.linalg.lu_solve(self._dense, rhs, check_finite=False)
        return self._sparse.solve(rhs)

    def solve(self, top: np.ndarray, bottom: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Refined solution; non-finite when the factorization breaks down."""
        rhs = np.concatenate([top, bottom])
        scale = 1.0 + float(np.linalg.norm(rhs))
        sol = self._solve_once(rhs)
        for _ in range(3):
            if not _finite(sol):
                break
            residual = rhs - self.matrix @ sol
            if float(np.linalg.norm(residual)) <= 1e-13 * scale:
                break
            sol = sol + self._solve_once(residual)
        return sol[: self.y_dim], sol[self.y_dim :]


def _solve_interior_point(sdp: SdpProblem, opts: SolverOptions) -> SolverResult:
    start = time.perf_counter()
    comp = _Compiled(sdp)
    clock = _PhaseClock()
    y_dim = comp.y_dim

    if y_dim == 0:
        value = sdp.objective.evaluate(np.zeros(0))
        return SolverResult(
            SolveStatus.OPTIMAL,
            np.zeros(0),
            value,
            0,
            time.perf_counter() - start,
            {"phase_seconds": clock.seconds},
        )

    total_cone = max(comp.cone_dim, 1)
    y = np.zeros(y_dim)
    nu = np.zeros(comp.n_eq)
    X = comp.identity_point()
    Z = X.copy()
    c_ref = 1.0 + float(np.max(np.abs(comp.c))) if y_dim else 1.0

    status = SolveStatus.NUMERICAL_FAILURE
    stall_ref = math.inf
    stall = 0
    iterations = 0
    relgap = pres = dres = math.inf
    note = "iteration limit reached"
    # A non-finite scaling, Schur complement or direction ends the solve as a
    # numerical failure, whatever the best iterate's merit.
    finite = True
    # Best iterate seen so far: Schur-based steps eventually hit a numerical
    # floor where the gap keeps shrinking while dual feasibility drifts; the
    # reported solution is the iterate with the smallest worst-case merit.
    best_merit = math.inf
    best_y = y
    best_triple = (relgap, pres, dres)
    best_iteration = 0

    for iteration in range(1, opts.max_iters + 1):
        iterations = iteration
        residual = comp.constant + comp.A @ y - X
        r_p = comp.b - comp.E @ y
        r_d = comp.c - comp.Et @ nu - comp.At @ Z

        gap = float(X @ Z)
        mu = gap / total_cone
        pobj = float(comp.c @ y)
        dobj = float(comp.b @ nu) - float(comp.constant @ Z)
        relgap = gap / (1.0 + abs(pobj) + abs(dobj))
        pres_blocks = np.max(
            comp.block_norms(residual) / comp.block_scale, initial=0.0
        )
        pres = max(float(np.max(np.abs(r_p), initial=0.0)), float(pres_blocks))
        dres = float(np.max(np.abs(r_d))) / c_ref
        clock.lap("residuals")

        if opts.verbosity > 0:
            logger.info(
                "iter %3d gap %9.2e pres %9.2e dres %9.2e",
                iteration,
                relgap,
                pres,
                dres,
            )

        merit = max(relgap, pres, dres)
        if merit < best_merit:
            best_merit = merit
            best_y = y.copy()
            best_triple = (relgap, pres, dres)
            best_iteration = iteration

        if relgap <= opts.rel_tol and pres <= opts.abs_tol and dres <= opts.abs_tol:
            status = SolveStatus.OPTIMAL
            note = "converged"
            break
        if dobj > 1e12 and dres <= 1e-7:
            return SolverResult(
                SolveStatus.INFEASIBLE,
                None,
                math.inf,
                iteration,
                time.perf_counter() - start,
                {"note": "dual objective diverging", "phase_seconds": clock.seconds},
            )
        if pobj < -1e12 and pres <= 1e-7:
            return SolverResult(
                SolveStatus.UNBOUNDED,
                None,
                -math.inf,
                iteration,
                time.perf_counter() - start,
                {"note": "primal objective diverging", "phase_seconds": clock.seconds},
            )

        if merit < 0.9 * stall_ref:
            stall_ref = merit
            stall = 0
        else:
            stall += 1
        near_best = (
            best_triple[0] <= _NEAR_GAP
            and best_triple[1] <= _NEAR_RES
            and best_triple[2] <= _NEAR_RES
        )
        if stall >= 3 and near_best:
            note = "numerical floor reached"
            break
        if stall >= 10:
            note = "progress stalled"
            break

        # NT scaling per size group: G = W^{-1}, its PD square root S, and
        # the eigenbasis of the shared scaled point lambda for the Jordan-
        # product solves below.
        scaling = [_nt_scaling(x, z) for x, z in zip(comp.stacks(X), comp.stacks(Z))]
        if not all(_finite(*parts) for parts in scaling):
            note = "non-finite NT scaling"
            finite = False
            break
        G = [parts[0] for parts in scaling]
        clock.lap("scaling")

        data = comp.kkt_data(_schur_terms(comp, G), 1e-12 * (1.0 + mu))
        clock.lap("schur")
        if not _finite(data):
            note = "non-finite Schur complement"
            finite = False
            break
        try:
            kkt = _Kkt(comp, data)
        except RuntimeError:
            note = "KKT factorization failed"
            break
        clock.lap("kkt_factor")

        def directions(target: np.ndarray):
            top = comp.At @ _congruence(comp, G, target - residual) - r_d
            dy, neg_dnu = kkt.solve(top, r_p)
            dX = comp.A @ dy + residual
            return dy, -neg_dnu, dX, _congruence(comp, G, target - dX)

        # Predictor: pure Newton step toward the boundary.
        dy, dnu, dX_aff, dZ_aff = directions(-X)
        clock.lap("kkt_solve")
        if not _finite(dy, dnu, dX_aff, dZ_aff):
            note = "non-finite predictor direction"
            finite = False
            break
        inv_chol_x = [np.linalg.inv(np.linalg.cholesky(x)) for x in comp.stacks(X)]
        inv_chol_z = [np.linalg.inv(np.linalg.cholesky(z)) for z in comp.stacks(Z)]
        alpha_p_aff = min(1.0, _max_step(comp, inv_chol_x, dX_aff))
        alpha_d_aff = min(1.0, _max_step(comp, inv_chol_z, dZ_aff))
        gap_aff = float((X + alpha_p_aff * dX_aff) @ (Z + alpha_d_aff * dZ_aff))
        sigma = min(0.999, max(1e-8, (max(gap_aff, 0.0) / gap) ** 3))
        clock.lap("step_search")

        # Mehrotra corrector: in the scaled space the combined step solves
        # lambda o (dx~ + dz~) = sigma*mu*I - lambda^2 - sym(dx~_aff dz~_aff),
        # done exactly in lambda's eigenbasis, then mapped back through S.
        # A block whose solve overflows falls back to the pure centering step.
        target = np.empty(comp.dim)
        for (n, _, _), (_, S, S_inv, d, Q), dxa, dza, dst in zip(
            comp.groups,
            scaling,
            comp.stacks(dX_aff),
            comp.stacks(dZ_aff),
            comp.stacks(target),
        ):
            rhs = -(_t(Q) @ _symmetrize(S @ dxa @ dza @ S_inv) @ Q)
            diag = np.arange(n)
            rhs[:, diag, diag] += sigma * mu - d * d
            jordan = 2.0 * rhs / (d[:, :, None] + d[:, None, :])
            corrected = S_inv @ (Q @ jordan @ _t(Q)) @ S_inv
            bad = ~np.all(np.isfinite(corrected), axis=(1, 2))
            if bad.any():
                Qb, db = Q[bad], d[bad]
                centered = (Qb * (sigma * mu / db - db)[:, None, :]) @ _t(Qb)
                corrected[bad] = S_inv[bad] @ centered @ S_inv[bad]
            dst[...] = _symmetrize(corrected)
        clock.lap("scaling")

        dy, dnu, dX, dZ = directions(target)
        clock.lap("kkt_solve")
        if not _finite(dy, dnu, dX, dZ):
            note = "non-finite corrector direction"
            finite = False
            break
        alpha_p = min(1.0, 0.98 * _max_step(comp, inv_chol_x, dX))
        alpha_d = min(1.0, 0.98 * _max_step(comp, inv_chol_z, dZ))

        accepted = False
        for _ in range(6):
            new_x = X + alpha_p * dX
            new_z = Z + alpha_d * dZ
            if comp.is_pd(new_x) and comp.is_pd(new_z):
                accepted = True
                break
            alpha_p *= 0.5
            alpha_d *= 0.5
        clock.lap("step_search")
        if not accepted:
            note = "step rejected"
            break

        y = y + alpha_p * dy
        nu = nu + alpha_d * dnu
        X = new_x
        Z = new_z

    wall = time.perf_counter() - start
    relgap, pres, dres = best_triple
    y_orig = comp.y_scales * best_y
    value = sdp.objective.evaluate(y_orig)
    diagnostics = {
        "note": note,
        "relative_gap": relgap,
        "primal_residual": pres,
        "dual_residual": dres,
        "best_iteration": best_iteration,
        "phase_seconds": clock.seconds,
    }
    if status is SolveStatus.OPTIMAL:
        return SolverResult(status, y_orig, value, iterations, wall, diagnostics)
    if finite and relgap <= _NEAR_GAP and pres <= _NEAR_RES and dres <= _NEAR_RES:
        return SolverResult(
            SolveStatus.NEAR_OPTIMAL, y_orig, value, iterations, wall, diagnostics
        )
    diagnostics["last_y"] = y_orig
    return SolverResult(
        SolveStatus.NUMERICAL_FAILURE,
        None,
        math.nan,
        iterations,
        wall,
        diagnostics,
    )


# ---------------------------------------------------------------------------
# cvxopt backend (through the text export, as an independent path)
# ---------------------------------------------------------------------------


def _solve_cvxopt(sdp: SdpProblem, opts: SolverOptions) -> SolverResult:
    try:
        import cvxopt
        import cvxopt.solvers
    except ImportError as exc:  # pragma: no cover - environment dependent
        raise SolverError("the cvxopt backend requires the cvxopt package") from exc

    start = time.perf_counter()
    prob = from_sdp_text(to_sdp_text(sdp))
    y_dim = prob.y_dim
    if y_dim == 0:
        value = sdp.objective.evaluate(np.zeros(0))
        return SolverResult(
            SolveStatus.OPTIMAL, np.zeros(0), value, 0, time.perf_counter() - start
        )

    g_rows: List[int] = []
    g_cols: List[int] = []
    g_vals: List[float] = []
    h_parts: List[np.ndarray] = []
    offset = 0
    sizes = []
    for block in prob.psd_blocks:
        n = block.size
        sizes.append(n)
        constant = np.zeros((n, n))
        for i, j, form in block.entries:
            constant[i, j] = form.constant
            constant[j, i] = form.constant
            for idx, coeff in zip(form.indices, form.coefficients):
                g_rows.append(offset + j * n + i)
                g_cols.append(idx)
                g_vals.append(-coeff)
                if i != j:
                    g_rows.append(offset + i * n + j)
                    g_cols.append(idx)
                    g_vals.append(-coeff)
        h_parts.append(constant.ravel(order="F"))
        offset += n * n
    G = cvxopt.spmatrix(g_vals, g_rows, g_cols, (offset, y_dim))
    h = cvxopt.matrix(np.concatenate(h_parts) if h_parts else np.zeros(0))
    c = np.zeros(y_dim)
    for idx, coeff in zip(prob.objective.indices, prob.objective.coefficients):
        c[idx] += coeff

    A = b = None
    if prob.equalities:
        dense_e = np.zeros((len(prob.equalities), y_dim))
        rhs = np.zeros(len(prob.equalities))
        for r, row in enumerate(prob.equalities):
            for idx, coeff in zip(row.form.indices, row.form.coefficients):
                dense_e[r, idx] += coeff
            rhs[r] = row.rhs
        keep = _independent_rows(dense_e)
        a_rows, a_cols = np.nonzero(dense_e[keep])
        A = cvxopt.spmatrix(
            dense_e[keep][a_rows, a_cols], a_rows, a_cols, (len(keep), y_dim)
        )
        b = cvxopt.matrix(rhs[keep])

    saved = dict(cvxopt.solvers.options)
    cvxopt.solvers.options.update(
        {
            "show_progress": opts.verbosity > 1,
            "maxiters": opts.max_iters,
            "abstol": opts.abs_tol,
            "reltol": opts.rel_tol,
            "feastol": max(opts.abs_tol, 1e-9),
        }
    )
    try:
        sol = cvxopt.solvers.conelp(
            cvxopt.matrix(c), G, h, dims={"l": 0, "q": [], "s": sizes}, A=A, b=b
        )
    finally:
        cvxopt.solvers.options.clear()
        cvxopt.solvers.options.update(saved)

    wall = time.perf_counter() - start
    iterations = int(sol.get("iterations", 0))
    raw_status = sol["status"]
    x = sol["x"]
    y = np.asarray(x).ravel() if x is not None else None
    diagnostics = {"cvxopt_status": raw_status}

    if raw_status == "primal infeasible":
        return SolverResult(
            SolveStatus.INFEASIBLE, None, math.inf, iterations, wall, diagnostics
        )
    if raw_status == "dual infeasible":
        return SolverResult(
            SolveStatus.UNBOUNDED, None, -math.inf, iterations, wall, diagnostics
        )
    if y is None:
        return SolverResult(
            SolveStatus.NUMERICAL_FAILURE, None, math.nan, iterations, wall, diagnostics
        )
    value = sdp.objective.evaluate(y)
    if raw_status == "optimal":
        report = verify_vector(sdp, y, 10.0 * max(opts.abs_tol, 1e-8))
        status = SolveStatus.OPTIMAL if report.within_tolerance else SolveStatus.NEAR_OPTIMAL
        return SolverResult(status, y, value, iterations, wall, diagnostics)
    # 'unknown': keep the iterate when it is usable, else report failure.
    report = verify_vector(sdp, y, 1e-5)
    if report.within_tolerance:
        return SolverResult(
            SolveStatus.NEAR_OPTIMAL, y, value, iterations, wall, diagnostics
        )
    diagnostics["last_y"] = y
    return SolverResult(
        SolveStatus.NUMERICAL_FAILURE, None, math.nan, iterations, wall, diagnostics
    )


def _independent_rows(matrix: np.ndarray) -> np.ndarray:
    """Indices of a maximal linearly independent row subset (QR pivoting)."""
    if matrix.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    _, r, piv = scipy.linalg.qr(matrix.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return np.zeros(0, dtype=np.int64)
    rank = int(np.sum(diag > diag[0] * max(matrix.shape) * np.finfo(float).eps))
    return np.sort(piv[:rank])


# ---------------------------------------------------------------------------
# Backend registry and entry point
# ---------------------------------------------------------------------------

Backend = Callable[[SdpProblem, SolverOptions], SolverResult]

_BACKENDS: Dict[str, Backend] = {
    "interior-point": _solve_interior_point,
    "cvxopt": _solve_cvxopt,
}


def register_backend(name: str, backend: Backend) -> None:
    _BACKENDS[name] = backend


def available_backends() -> Tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def solve(sdp: SdpProblem, opts: Optional[SolverOptions] = None) -> SolverResult:
    """Solve a relaxation with the backend named in the options."""
    options = opts if opts is not None else SolverOptions()
    try:
        backend = _BACKENDS[options.backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {options.backend!r}; available: {available_backends()}"
        ) from None
    return backend(sdp, options)
