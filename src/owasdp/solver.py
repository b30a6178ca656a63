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
  adaptive centering parameter.  The equality rows are eliminated once, at
  compile time, by a sparse Gauss-Jordan pass with threshold pivoting
  (Andersen & Andersen 1995): every y with E y = b is y = fixed + free z,
  dependent rows are dropped after a consistency check, and the iteration
  runs over the free moments z on the blocks substituted at that y.  The
  blocks are grouped by size: the primal and dual matrices of one group are
  stacked, so every phase of an iteration (scaling, corrector, step search,
  PD check) is a few batched NumPy calls per group.  Every substituted block
  map is compiled once into the sparsity pattern of its coefficient
  matrices, which yields the block map and its adjoint (one sparse
  operator), the KKT pattern and the Schur terms.  The Schur complement is
  formed per group of same-shape blocks from those patterns (Fujisawa,
  Kojima & Nakata 1997, formula F2: one sparse product, one batched dense
  product and one sparse contraction per group) and inherits the clique
  sparsity of the relaxation; its terms are written into one values vector
  and scattered into a KKT sparsity pattern fixed at compile time.  The KKT
  matrix is the positive-definite Schur complement H + dI alone.  Small KKT
  systems are factored by a dense LU.  Larger ones are stored in a
  minimum-degree order, also fixed at compile time, and SuperLU factors them
  in that order in symmetric mode without pivoting.  The iteration is
  deterministic: identical inputs, options and BLAS thread counts produce
  bitwise identical iterates.  ``diagnostics['phase_seconds']`` splits the
  iteration time by phase, ``diagnostics['kkt']`` reports the size and fill
  of the KKT system, ``diagnostics['schur']`` the size of the Schur terms
  and ``diagnostics['equalities']`` the elimination.
- ``cvxopt``: feeds the problem through the text export/import round trip and
  into ``cvxopt.solvers.conelp``, giving an independent cross-check of the
  bundled backend.

Before solving, every equality row is normalized to unit Euclidean norm
before the elimination and every substituted PSD block map to unit Frobenius
norm; the per-moment magnitude hints carried by the relaxation
(``moment_scales``) rescale the variables.  All reported quantities (the
full-length ``y``, objective) are mapped back to original units.
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

# KKT systems with at most this many rows are factored densely.
_DENSE_KKT_MAX = 500

# Elimination of the equality rows (scaled to unit norm).  A pivot is an
# entry of at least _PIVOT_THRESHOLD times its reduced row's largest; a row
# whose entries all reduce to at most _DEPENDENT_TOL is dependent, and
# consistent when its right-hand side does too.  Entries that cancel to at
# most _ELIMINATION_DROP are dropped.
_PIVOT_THRESHOLD = 0.1
_DEPENDENT_TOL = 1e-9
_ELIMINATION_DROP = 1e-15


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
    (search directions) and ``step_search`` (step lengths and PD checks),
    and in ``diagnostics['kkt']`` the KKT system's ``dim`` and ``nnz`` (of
    its pattern) and the ``factor_nnz`` of its last factorization (L + U
    nonzeros, dim^2 when dense; 0 before the first), and in
    ``diagnostics['schur']`` the work of the Schur terms: the nonzero
    ``coefficients`` of the block maps and the number of ``terms`` formed
    per iteration (the sum over blocks of (moments touched)^2).  The
    equality rows are eliminated before the iteration, so the KKT system,
    its ``dim`` and the Schur terms are over the free moments only;
    ``diagnostics['equalities']`` reports the ``rows``, how many of them
    were ``dependent`` (dropped), the number of ``free`` moments (equal to
    ``kkt['dim']``) and the ``residual`` max |E y - b| over the scaled,
    unit-norm rows at the reported iterate (or, when the rows are
    inconsistent, the largest right-hand side of a row that reduced to
    0 = rhs).  ``primal_residual`` includes that residual, and
    ``dual_residual`` is the y-space dual residual max|c - A'Z - E'nu| /
    (1 + max|c|) at the multipliers nu = E_B^{-T} (c - A'Z)_B that zero it
    on the pivot moments B, which equals max|N'(c - A'Z)| / (1 + max|c|)
    for the null-space basis N of the elimination.
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


@dataclass(frozen=True)
class _Elimination:
    """The solution set y = fixed + free z of E y = b, over the free moments z.

    ``free`` is the (y_dim, z_dim) sparse basis of the null space of E: the
    identity on the free moments and -M on the pivot moments, whose reduced
    rows read y_p + M_p z = fixed_p.  ``dependent`` counts the rows that
    reduced to 0 = rhs, and ``inconsistency`` is the largest |rhs| among
    them."""

    fixed: np.ndarray
    free: scipy.sparse.csr_matrix
    dependent: int
    inconsistency: float


def _eliminate(E: scipy.sparse.csr_matrix, b: np.ndarray) -> _Elimination:
    """Sparse Gauss-Jordan elimination of E y = b with threshold pivoting.

    The rows are taken in order.  Each is first reduced by the earlier pivot
    rows.  Its pivot is then, among the entries of at least
    ``_PIVOT_THRESHOLD`` times its largest, the one whose column occurs in
    the fewest rows of E (ties by column index), and the earlier pivot rows
    are reduced by it, so every pivot row holds its pivot and free columns
    only.  Dicts keep every iteration order deterministic."""
    y_dim = E.shape[1]
    occurrences = np.bincount(E.indices, minlength=y_dim)
    # Pivot column -> (its row over the free columns, right-hand side).
    pivots: Dict[int, Tuple[Dict[int, float], float]] = {}
    # Free column -> the pivot columns whose rows hold it (an ordered set).
    holders: Dict[int, Dict[int, None]] = {}
    dependent = 0
    inconsistency = 0.0
    for r in range(E.shape[0]):
        span = slice(E.indptr[r], E.indptr[r + 1])
        row = dict(zip(E.indices[span].tolist(), E.data[span].tolist()))
        rhs = float(b[r])
        for col in [c for c in row if c in pivots]:
            coeff = row.pop(col)
            other, other_rhs = pivots[col]
            for f, v in other.items():
                row[f] = row.get(f, 0.0) - coeff * v
            rhs -= coeff * other_rhs
        row = {c: v for c, v in row.items() if abs(v) > _ELIMINATION_DROP}
        largest = max(map(abs, row.values()), default=0.0)
        if largest <= _DEPENDENT_TOL:
            dependent += 1
            inconsistency = max(inconsistency, abs(rhs))
            continue
        pivot = min(
            (c for c, v in row.items() if abs(v) >= _PIVOT_THRESHOLD * largest),
            key=lambda c: (occurrences[c], c),
        )
        scale = row.pop(pivot)
        row = {c: v / scale for c, v in row.items()}
        rhs /= scale
        for q in holders.pop(pivot, {}):
            other, other_rhs = pivots[q]
            coeff = other.pop(pivot)
            for f, v in row.items():
                value = other.get(f, 0.0) - coeff * v
                if abs(value) > _ELIMINATION_DROP:
                    other[f] = value
                    holders.setdefault(f, {})[q] = None
                elif f in other:
                    del other[f]
                    del holders[f][q]
            pivots[q] = (other, other_rhs - coeff * rhs)
        pivots[pivot] = (row, rhs)
        for f in row:
            holders.setdefault(f, {})[pivot] = None

    pivot_cols = np.fromiter(pivots, dtype=np.int64, count=len(pivots))
    free_cols = np.setdiff1d(np.arange(y_dim), pivot_cols)
    z_of = np.empty(y_dim, dtype=np.int64)
    z_of[free_cols] = np.arange(free_cols.size)
    fixed = np.zeros(y_dim)
    rows: List[int] = free_cols.tolist()
    cols: List[int] = list(range(free_cols.size))
    vals: List[float] = [1.0] * free_cols.size
    for p, (row, rhs) in pivots.items():
        fixed[p] = rhs
        rows.extend([p] * len(row))
        cols.extend(z_of[list(row)].tolist())
        vals.extend(-v for v in row.values())
    free = scipy.sparse.csr_matrix(
        (vals, (rows, cols)), shape=(y_dim, free_cols.size)
    )
    return _Elimination(fixed, free, dependent, inconsistency)


def _block_pattern(block, scales: np.ndarray, elim: _Elimination):
    """Constant (n, n), touched free moments (m,) and coefficient pattern of
    one PSD block over the free moments z, scaled and normalized to unit
    Frobenius norm.  The block is substituted at y = fixed + free z: its
    constant gains A fixed and its coefficients become A free.  The pattern
    lists the nonzeros of the (m, n, n) coefficient tensor, whose slice l is
    A_l (both triangles), as sorted flat positions l n^2 + i n + j and their
    values."""
    n = block.size
    constant = np.zeros((n, n))
    ij: List[int] = []
    moments: List[int] = []
    coeffs: List[float] = []
    for i, j, form in block.entries:
        if form.constant != 0.0:
            constant[i, j] = form.constant
            constant[j, i] = form.constant
        for idx, coeff in zip(form.indices, form.coefficients):
            ij.append(i * n + j)
            moments.append(idx)
            coeffs.append(coeff * scales[idx])
            if i != j:
                ij.append(j * n + i)
                moments.append(idx)
                coeffs.append(coeff * scales[idx])
    touched, local = np.unique(np.array(moments, dtype=np.int64), return_inverse=True)
    raw = scipy.sparse.csr_matrix(
        (np.array(coeffs), (np.array(ij, dtype=np.int64), local)),
        shape=(n * n, touched.size),
    )
    constant += (raw @ elim.fixed[touched]).reshape(n, n)
    sub = (raw @ elim.free[touched]).tocoo()
    indices, local = np.unique(sub.col, return_inverse=True)
    position = local.astype(np.int64) * (n * n) + sub.row
    order = np.argsort(position)
    position, value = position[order], sub.data[order]
    nonzero = value != 0.0
    norm = math.sqrt(float(np.sum(constant**2)) + float(np.sum(value[nonzero] ** 2)))
    norm = norm if norm > 0.0 else 1.0
    return constant / norm, indices.astype(np.int64), position[nonzero], value[nonzero] / norm


@dataclass(frozen=True)
class _SchurGroup:
    """The blocks lo:hi of size group ``group``, all of shape (n, m), with
    the sparse maps that form their Schur terms (see ``_schur_terms``).

    ``indices`` (K, m) are the free moments each block touches, and its K m^2
    terms go to ``_Compiled.kkt_values[start:]``.  ``left`` maps the
    stacked G (K n, n) to T[k, i, l, :] = (A_l G)[i, :], rows ordered
    (k, i, l).  ``pair_rows`` and ``pair_cols`` are the positions (i <= j)
    at which some A_l of the group is nonzero.  ``right`` maps F_b = G A_b G,
    gathered at those pairs in (pair, k) order, to H[k, a, b] / 2 =
    <A_a, F_b> / 2: it holds A_a at the pairs, halved on the diagonal (the
    off-diagonal pairs stand for both triangles of the symmetric F_b)."""

    group: int
    lo: int
    hi: int
    start: int
    indices: np.ndarray
    left: scipy.sparse.csr_matrix
    pair_rows: np.ndarray
    pair_cols: np.ndarray
    right: scipy.sparse.csr_matrix

    @classmethod
    def build(cls, group: int, lo: int, start: int, blocks) -> "_SchurGroup":
        """The group of the compiled blocks (constant, indices, position, value)."""
        K = len(blocks)
        n = blocks[0][0].shape[0]
        m = blocks[0][1].size
        k = np.repeat(np.arange(K), [blk[2].size for blk in blocks])
        l, ij = np.divmod(np.concatenate([blk[2] for blk in blocks]), n * n)
        i, j = np.divmod(ij, n)
        value = np.concatenate([blk[3] for blk in blocks])
        left = scipy.sparse.csr_matrix(
            (value, (((k * n + i) * m + l), k * n + j)), shape=(K * n * m, K * n)
        )
        upper = i <= j
        pairs, pair = np.unique(ij[upper], return_inverse=True)
        right = scipy.sparse.csr_matrix(
            (
                np.where(i == j, 0.5, 1.0)[upper] * value[upper],
                (k[upper] * m + l[upper], pair * K + k[upper]),
            ),
            shape=(K * m, pairs.size * K),
        )
        indices = np.stack([blk[1] for blk in blocks])
        return cls(
            group, lo, lo + K, start, indices, left, pairs // n, pairs % n, right
        )


class _Compiled:
    """Scaled standard form over the free moments in grouped layout, plus the
    bookkeeping to undo the elimination and the scaling.

    The equality rows, scaled and normalized to unit norm, are eliminated
    once (``_eliminate``): every y with E y = b is y = fixed + free z, so the
    iteration runs over the free moments z alone, on the blocks substituted
    at that y (objective c'y = (free' c)'z + c'fixed).  Blocks are ordered
    by (size, number of touched free moments).  The blocks of one size n
    form a group whose K matrices are stacked as one (K, n, n) array; the
    groups are consecutive segments of one flat vector, on which the block
    map is  vec M(z) = constant + A z  and its adjoint is  A' v.  Each block
    is compiled once into its coefficient pattern (``_block_pattern``),
    which yields A and, for the blocks of one shape (size and moment count),
    the sparse maps of a ``_SchurGroup``.  The sparsity pattern of the KKT
    matrix H + dI, the values vector its Schur terms and diagonal are written
    into and the scatter map from that vector into its CSC data are fixed
    here, so an iteration only fills numbers in.
    """

    def __init__(self, sdp: SdpProblem) -> None:
        self.y_dim = y_dim = sdp.y_dim
        scales = (
            np.asarray(sdp.moment_scales, dtype=float)
            if sdp.moment_scales
            else np.ones(y_dim)
        )
        self.y_scales = scales

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
        self.b = np.asarray(rhs, dtype=float)
        elim = _eliminate(self.E, self.b)
        self.fixed, self.free = elim.fixed, elim.free
        self.z_dim = z_dim = self.free.shape[1]
        self.dependent = elim.dependent
        self.inconsistency = elim.inconsistency

        blocks = sorted(
            (_block_pattern(b, scales, elim) for b in sdp.psd_blocks if b.size),
            key=lambda blk: (blk[0].shape[0], blk[1].size),
        )
        sizes = np.array([blk[0].shape[0] for blk in blocks], dtype=np.int64)
        self.cone_dim = int(sizes.sum())
        offsets = np.concatenate([[0], np.cumsum(sizes**2)])
        self.dim = int(offsets[-1])
        self.block_starts = offsets[:-1]
        self.constant = np.concatenate([blk[0].ravel() for blk in blocks] + [np.zeros(0)])
        self.block_scale = 1.0 + np.array([np.linalg.norm(blk[0]) for blk in blocks])

        # Size groups (n, first block, end block) and the Schur shape groups,
        # whose terms follow the z_dim diagonal entries in ``kkt_values``.
        self.groups: List[Tuple[int, int, int]] = []
        self.shapes: List[_SchurGroup] = []
        first = 0
        start = z_dim
        for n, same_size in itertools.groupby(blocks, key=lambda blk: blk[0].shape[0]):
            same_size = list(same_size)
            lo = 0
            for m, same_shape in itertools.groupby(same_size, key=lambda blk: blk[1].size):
                same_shape = list(same_shape)
                if m:
                    self.shapes.append(
                        _SchurGroup.build(len(self.groups), lo, start, same_shape)
                    )
                    start += len(same_shape) * m * m
                lo += len(same_shape)
            self.groups.append((n, first, first + lo))
            first += lo
        self.kkt_values = np.empty(start)

        rows: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        cols: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        vals: List[np.ndarray] = [np.zeros(0)]
        for (constant, indices, position, value), offset in zip(blocks, offsets):
            local, ij = np.divmod(position, constant.size)
            rows.append(offset + ij)
            cols.append(indices[local])
            vals.append(value)
        self.A = scipy.sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.dim, z_dim),
        )
        self.At = self.A.T.tocsr()
        self.schur_stats = {
            "coefficients": int(self.A.nnz),
            "terms": start - z_dim,
        }

        c = np.zeros(y_dim)
        for idx, coeff in zip(sdp.objective.indices, sdp.objective.coefficients):
            c[idx] += coeff * scales[idx]
        self.c_ref = 1.0 + float(np.max(np.abs(c), initial=0.0))
        self.c = self.free.T @ c
        self.c_offset = float(c @ self.fixed)

        self._build_kkt_pattern()

    def _build_kkt_pattern(self) -> None:
        """CSC pattern of H + dI and the position in its data array of every
        entry of ``kkt_values`` (diagonal, then Schur terms).

        Above ``_DENSE_KKT_MAX`` rows the pattern is stored symmetrically
        permuted into a minimum-degree order ``kkt_order`` (``kkt_order[k]``
        is the unknown eliminated k-th), so that ``kkt_data`` fills the
        permuted matrix directly; at or below it ``kkt_order`` is None."""
        dim = self.z_dim
        rows = [np.arange(dim)]
        cols = [np.arange(dim)]
        for shape in self.shapes:
            indices = shape.indices
            K, m = indices.shape
            rows.append(np.broadcast_to(indices[:, :, None], (K, m, m)).ravel())
            cols.append(np.broadcast_to(indices[:, None, :], (K, m, m)).ravel())
        keys = np.concatenate(cols) * dim + np.concatenate(rows)
        unique, self.kkt_scatter = np.unique(keys, return_inverse=True)
        self.kkt_order = None
        if dim > _DENSE_KKT_MAX:
            position = self._minimum_degree(unique)
            self.kkt_order = np.argsort(position)
            permuted = position[unique // dim] * dim + position[unique % dim]
            relabel = np.argsort(permuted)
            unique = permuted[relabel]
            rank = np.empty_like(relabel)
            rank[relabel] = np.arange(relabel.size)
            self.kkt_scatter = rank[self.kkt_scatter]
        self.kkt_indices = unique % dim
        self.kkt_indptr = np.searchsorted(unique, np.arange(dim + 1) * dim)

    def _minimum_degree(self, keys: np.ndarray) -> np.ndarray:
        """Position of every unknown in a minimum-degree order of the KKT
        pattern (SuperLU's MMD_AT_PLUS_A, run on a diagonally dominant
        matrix of that pattern so that nothing pivots).  The matrix is
        positive definite, so it factors stably in any symmetric order."""
        dim = self.z_dim
        rows = keys % dim
        pattern = scipy.sparse.csc_matrix(
            (
                np.where(rows == keys // dim, dim + 1.0, 1.0),
                rows,
                np.searchsorted(keys, np.arange(dim + 1) * dim),
            ),
            shape=(dim, dim),
        )
        return scipy.sparse.linalg.splu(
            pattern,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        ).perm_c

    def kkt_data(self, delta: float) -> np.ndarray:
        """CSC data of H + delta I from the Schur terms that ``_schur_terms``
        last wrote into ``kkt_values``."""
        self.kkt_values[: self.z_dim] = delta
        return np.bincount(
            self.kkt_scatter, weights=self.kkt_values, minlength=self.kkt_indices.size
        )

    def moments(self, z: np.ndarray) -> np.ndarray:
        """The scaled moment vector fixed + free z."""
        return self.fixed + self.free @ z

    def equality_residual(self, y: np.ndarray) -> float:
        """max |E y - b| over the scaled, unit-norm rows."""
        return float(np.max(np.abs(self.E @ y - self.b), initial=0.0))

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


def _schur_terms(comp: _Compiled, G: List[np.ndarray]) -> None:
    """Write the Schur terms <A_i, G A_j G> of every block, per shape group,
    into ``comp.kkt_values``.

    Fujisawa, Kojima & Nakata's formula F2, three calls per shape group: the
    sparse product T = A_l G against the stacked G, the batched product
    F_l = G T, and the sparse contraction H[i, j] = <A_i, F_j> over the
    positions where some A_i is nonzero."""
    with np.errstate(over="ignore", invalid="ignore"):  # the caller checks
        for shape in comp.shapes:
            K, m = shape.indices.shape
            g = G[shape.group][shape.lo : shape.hi]
            n = g.shape[1]
            T = (shape.left @ g.reshape(K * n, n)).reshape(K, n, m * n)
            F = (g @ T).reshape(K, n, m, n)
            gathered = F[:, shape.pair_rows, :, shape.pair_cols]
            half = (shape.right @ gathered.reshape(-1, m)).reshape(K, m, m)
            terms = comp.kkt_values[shape.start : shape.start + K * m * m]
            np.add(half, _t(half), out=terms.reshape(K, m, m))


def _congruence(comp: _Compiled, G: List[np.ndarray], flat: np.ndarray) -> np.ndarray:
    """sym(G M G) for every block M of a flat block vector."""
    out = np.empty_like(flat)
    with np.errstate(over="ignore", invalid="ignore"):  # the caller checks
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
    """Factorization of the positive-definite H + dI over the free moments,
    with iterative refinement.

    At most ``_DENSE_KKT_MAX`` rows are factored by a dense LU.  Larger
    systems arrive in the compile-time order ``kkt_order`` of
    :class:`_Compiled` and are factored by SuperLU in that order, in
    symmetric mode without pivoting; the right-hand side is permuted in and
    the solution out.  ``factor_nnz`` counts the nonzeros of L + U (dim^2
    for the dense LU)."""

    def __init__(self, comp: _Compiled, data: np.ndarray) -> None:
        dim = comp.z_dim
        self.matrix = scipy.sparse.csc_matrix(
            (data, comp.kkt_indices, comp.kkt_indptr), shape=(dim, dim)
        )
        self.order = comp.kkt_order
        if self.order is None:
            self._dense = scipy.linalg.lu_factor(self.matrix.toarray(), check_finite=False)
            self._sparse = None
            self.factor_nnz = dim * dim
        else:
            self._dense = None
            self._sparse = scipy.sparse.linalg.splu(
                self.matrix,
                permc_spec="NATURAL",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
            self.factor_nnz = int(self._sparse.nnz)

    def _solve_once(self, rhs: np.ndarray) -> np.ndarray:
        if self._dense is not None:
            return scipy.linalg.lu_solve(self._dense, rhs, check_finite=False)
        return self._sparse.solve(rhs)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Refined solution; non-finite when the factorization breaks down."""
        if self.order is not None:
            rhs = rhs[self.order]
        scale = 1.0 + float(np.linalg.norm(rhs))
        sol = self._solve_once(rhs)
        for _ in range(3):
            if not _finite(sol):
                break
            residual = rhs - self.matrix @ sol
            if float(np.linalg.norm(residual)) <= 1e-13 * scale:
                break
            sol = sol + self._solve_once(residual)
        if self.order is not None:
            unpermuted = np.empty_like(sol)
            unpermuted[self.order] = sol
            sol = unpermuted
        return sol


def _fixed_point_result(
    sdp: SdpProblem, comp: _Compiled, opts: SolverOptions, start: float, stats
) -> SolverResult:
    """Result of a problem without free moments: its single candidate y is
    the elimination's ``fixed``, optimal when every (now constant) block is
    PSD within ``abs_tol``."""
    y = comp.fixed
    stats["equalities"]["residual"] = comp.equality_residual(y)
    smallest = min(
        (float(np.min(np.linalg.eigvalsh(s))) for s in comp.stacks(comp.constant)),
        default=0.0,
    )
    wall = time.perf_counter() - start
    if smallest < -opts.abs_tol:
        return SolverResult(
            SolveStatus.INFEASIBLE,
            None,
            math.inf,
            0,
            wall,
            {"note": "fixed moments violate a PSD block", **stats},
        )
    y_orig = comp.y_scales * y
    return SolverResult(
        SolveStatus.OPTIMAL,
        y_orig,
        sdp.objective.evaluate(y_orig),
        0,
        wall,
        {"note": "every moment fixed by the equality rows", **stats},
    )


def _solve_interior_point(sdp: SdpProblem, opts: SolverOptions) -> SolverResult:
    start = time.perf_counter()
    comp = _Compiled(sdp)
    clock = _PhaseClock()
    kkt_stats = {
        "dim": comp.z_dim,
        "nnz": int(comp.kkt_indices.size),
        "factor_nnz": 0,
    }
    equality_stats = {
        "rows": comp.n_eq,
        "dependent": comp.dependent,
        "free": comp.z_dim,
        "residual": comp.inconsistency,
    }
    # Reported with every result; the phase, KKT and equality dicts fill in
    # as the solve runs.
    stats = {
        "phase_seconds": clock.seconds,
        "kkt": kkt_stats,
        "schur": comp.schur_stats,
        "equalities": equality_stats,
    }

    if comp.inconsistency > _DEPENDENT_TOL:
        return SolverResult(
            SolveStatus.INFEASIBLE,
            None,
            math.inf,
            0,
            time.perf_counter() - start,
            {"note": "equality rows inconsistent", **stats},
        )
    if comp.z_dim == 0:
        return _fixed_point_result(sdp, comp, opts, start, stats)

    total_cone = max(comp.cone_dim, 1)
    z = np.zeros(comp.z_dim)
    X = comp.identity_point()
    Z = X.copy()

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
    best_y = comp.moments(z)
    best_triple = (relgap, pres, dres)
    best_iteration = 0

    for iteration in range(1, opts.max_iters + 1):
        iterations = iteration
        y = comp.moments(z)
        residual = comp.constant + comp.A @ z - X
        # free' (c - A'Z): the y-space dual residual at the multipliers of
        # the rows that zero it on the pivot moments (see SolverResult).
        r_d = comp.c - comp.At @ Z

        gap = float(X @ Z)
        mu = gap / total_cone
        pobj = float(comp.c @ z) + comp.c_offset
        dobj = comp.c_offset - float(comp.constant @ Z)
        relgap = gap / (1.0 + abs(pobj) + abs(dobj))
        pres_blocks = np.max(
            comp.block_norms(residual) / comp.block_scale, initial=0.0
        )
        pres = max(comp.equality_residual(y), float(pres_blocks))
        dres = float(np.max(np.abs(r_d))) / comp.c_ref
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
            best_y = y
            best_triple = (relgap, pres, dres)
            best_iteration = iteration

        if relgap <= opts.rel_tol and pres <= opts.abs_tol and dres <= opts.abs_tol:
            status = SolveStatus.OPTIMAL
            note = "converged"
            break
        if dobj > 1e12 and dres <= 1e-7:
            equality_stats["residual"] = comp.equality_residual(y)
            return SolverResult(
                SolveStatus.INFEASIBLE,
                None,
                math.inf,
                iteration,
                time.perf_counter() - start,
                {"note": "dual objective diverging", **stats},
            )
        if pobj < -1e12 and pres <= 1e-7:
            equality_stats["residual"] = comp.equality_residual(y)
            return SolverResult(
                SolveStatus.UNBOUNDED,
                None,
                -math.inf,
                iteration,
                time.perf_counter() - start,
                {"note": "primal objective diverging", **stats},
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
        scaling = [_nt_scaling(x, s) for x, s in zip(comp.stacks(X), comp.stacks(Z))]
        if not all(_finite(*parts) for parts in scaling):
            note = "non-finite NT scaling"
            finite = False
            break
        G = [parts[0] for parts in scaling]
        clock.lap("scaling")

        _schur_terms(comp, G)
        data = comp.kkt_data(1e-12 * (1.0 + mu))
        clock.lap("schur")
        if not _finite(data):
            note = "non-finite Schur complement"
            finite = False
            break
        try:
            kkt = _Kkt(comp, data)
            kkt_stats["factor_nnz"] = kkt.factor_nnz
        except RuntimeError:
            note = "KKT factorization failed"
            break
        clock.lap("kkt_factor")

        def directions(target: np.ndarray):
            dz = kkt.solve(comp.At @ _congruence(comp, G, target - residual) - r_d)
            dX = comp.A @ dz + residual
            return dz, dX, _congruence(comp, G, target - dX)

        # Predictor: pure Newton step toward the boundary.
        dz, dX_aff, dZ_aff = directions(-X)
        clock.lap("kkt_solve")
        if not _finite(dz, dX_aff, dZ_aff):
            note = "non-finite predictor direction"
            finite = False
            break
        inv_chol_x = [np.linalg.inv(np.linalg.cholesky(x)) for x in comp.stacks(X)]
        inv_chol_z = [np.linalg.inv(np.linalg.cholesky(s)) for s in comp.stacks(Z)]
        alpha_p_aff = min(1.0, _max_step(comp, inv_chol_x, dX_aff))
        alpha_d_aff = min(1.0, _max_step(comp, inv_chol_z, dZ_aff))
        gap_aff = float((X + alpha_p_aff * dX_aff) @ (Z + alpha_d_aff * dZ_aff))
        sigma = min(0.999, max(1e-8, (max(gap_aff, 0.0) / gap) ** 3))
        clock.lap("step_search")

        # Mehrotra corrector: in the scaled space the combined step solves
        # lambda o (dx~ + dz~) = sigma*mu*I - lambda^2 - sym(dx~_aff dz~_aff),
        # done exactly in lambda's eigenbasis, then mapped back through S.
        # A block whose solve overflows falls back to the pure centering step;
        # a direction that is still non-finite ends the solve below.
        target = np.empty(comp.dim)
        with np.errstate(over="ignore", invalid="ignore"):
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

        dz, dX, dZ = directions(target)
        clock.lap("kkt_solve")
        if not _finite(dz, dX, dZ):
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

        z = z + alpha_p * dz
        X = new_x
        Z = new_z

    wall = time.perf_counter() - start
    relgap, pres, dres = best_triple
    equality_stats["residual"] = comp.equality_residual(best_y)
    y_orig = comp.y_scales * best_y
    value = sdp.objective.evaluate(y_orig)
    diagnostics = {
        "note": note,
        "relative_gap": relgap,
        "primal_residual": pres,
        "dual_residual": dres,
        "best_iteration": best_iteration,
        **stats,
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
