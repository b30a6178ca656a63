"""Solution of the assembled semidefinite relaxations.

The standard form produced by :mod:`owasdp.relaxation` is

    minimize    c'y + c0
    subject to  M_k(y) := C_k + sum_i y_i A_{k,i}  PSD   for every block k,
                E y = b,

a linear objective over free moment variables with affine PSD blocks and
affine equality rows.  This module solves it by an infeasible-start
primal-dual path-following method with Nesterov-Todd scaling and a
Mehrotra-style adaptive centering parameter.  The NT scaling is built from
the Cholesky factors X = Lx Lx' and Z = Lz Lz' that the previous step
search computed, by one SVD of Lz' Lx (Todd, Toh & Tutuncu 1998, as in
SDPT3): it yields T with W = T T' and T^{-1} X T^{-T} = T' Z T = diag(d),
so the Mehrotra corrector is a diagonal Jordan solve in that scaled space
and both step lengths are extreme eigenvalues of the scaled directions;
the iteration computes no eigenvectors and no inverse.  The equality
rows are eliminated once, at compile time, by a sparse Gauss-Jordan pass
with threshold pivoting (Andersen & Andersen 1995): every y with E y = b is
y = fixed + free z, dependent rows are dropped after a consistency check,
and the iteration runs over the free moments z on the blocks substituted at
that y.  The blocks are grouped by size: the primal and dual matrices of one
group are stacked, so every phase of an iteration (scaling, corrector, step
lengths, Cholesky checks) is a few batched NumPy calls per group.  All block
maps are substituted at once, by two sparse products over the stacked blocks,
and compiled into the sparsity patterns of their coefficient matrices, which
yield the block map and its adjoint (one sparse operator), the KKT pattern
and the Schur terms.  Every sparse map the iteration applies (the block map
and its adjoint, the equality rows, the null-space basis of the elimination
and the Schur groups' maps) is compiled into CSR arrays (``_Csr``) that
scipy's own compiled kernels apply, so no ``scipy.sparse`` object remains
in the loop; the products have scipy's bits.  The Schur complement is formed per
group of same-shape blocks from those patterns (Fujisawa, Kojima & Nakata
1997, formula F2: one sparse product, one batched dense product and one
sparse contraction per group) and inherits the clique sparsity of the
relaxation.  A shape of wide blocks whose coefficient matrices have few
nonzero rows takes a compact form of F2 instead: it forms only the nonzero
rows of A_l G, and G A_l G from them (Fujisawa, Kojima & Nakata choose
their formula from the nonzeros in the same spirit).  The terms are
written into one values vector and scattered into a KKT storage fixed at
compile time.  The KKT matrix is the positive-definite Schur complement
H + dI alone, factored clique by clique (Vandenberghe & Andersen 2015):
every block belongs to a clique of the relaxation (its ``variables``), a
free moment touched by the blocks of one clique only is private to it, and
the others are shared, so H + dI is block-arrow shaped.  Its dense blocks
(one per clique over its private moments, their couplings to the shared
moments, and the shared block) are filled straight from the Schur terms;
the private moments are eliminated first, by a Cholesky (or LU) factor per
clique, and the shared moments last, by a dense factor of their Schur
complement.  Each Newton system takes one pass of that elimination, with
no iterative refinement: H + dI is symmetric positive definite in exact
arithmetic, and the pass is backward stable on it.  In floating point
Cholesky can still meet a nonpositive pivot on late iterates, and that
clique's factor falls back to LU (``_CliqueFactor``): a few factors of the
range and trimmed relaxations do, and so do dozens of the 20-anchor l3
Weber relaxation's order-2 solve.  The iteration is deterministic: identical
inputs and BLAS thread counts produce bitwise identical iterates.
``diagnostics['phase_seconds']`` splits the compile and iteration time by
phase, ``diagnostics['kkt']`` reports the size and fill
of the KKT system, ``diagnostics['schur']`` the size of the Schur terms and
the shapes on each formula, and ``diagnostics['equalities']`` the
elimination.

Before solving, every equality row is normalized to unit Euclidean norm
before the elimination and every substituted PSD block map to unit Frobenius
norm.  The moments themselves are not rescaled: the iteration runs on the
relaxation's raw moments, so the full-length ``y`` it reports needs no
mapping back.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.linalg.blas
import scipy.linalg.lapack
import scipy.sparse
from scipy.sparse import _sparsetools

from .moment import term_sums
from .relaxation import SdpProblem


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    NEAR_OPTIMAL = "near_optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NUMERICAL_FAILURE = "numerical_failure"

    def solved(self) -> bool:
        return self in (SolveStatus.OPTIMAL, SolveStatus.NEAR_OPTIMAL)


# Termination of the interior-point method: the (normalized) primal and
# dual residuals within _ABS_TOL and the relative duality gap within
# _REL_TOL, in at most _MAX_ITERS iterations.
_ABS_TOL = 1e-8
_REL_TOL = 1e-8
_MAX_ITERS = 200

# Looser fixed gates for classifying an unconverged but usable iterate.
# Degenerate moment relaxations hit a double-precision floor in the Schur
# system around 1e-6; an iterate within these gates still carries ~5 correct
# digits in the objective, which downstream extraction tolerates.
_NEAR_GAP = 1e-4
_NEAR_RES = 1e-5

# Columns of ``SolverResult.trace``, one row per iteration.
TRACE_COLUMNS = ("relgap", "pres", "dres", "mu", "sigma", "alpha_p", "alpha_d")

# A Schur shape takes the compact formula (see ``_SchurGroup``) when its
# blocks have at least _COMPACT_MIN_SIZE rows and at most 1 /
# _COMPACT_SUPPORT_SHARE of the rows of T are nonzero, so a slot (k, l) has
# on average at most n / 4 of them.  Measured with 1 BLAS thread, those
# shapes ran 1.4-2.5 times faster (the n = 56 and 35 moment blocks of
# order-3 OMRF lifts and the order-2 demo's n = 36, 12-17% nonzero rows);
# at n = 21 and below the compact form ran about as fast or slower.  The
# n = 28 blocks of the planar ladder's trimmed instances also run faster,
# but stay on F2: those solves are sensitive to rounding.
_COMPACT_MIN_SIZE = 32
_COMPACT_SUPPORT_SHARE = 4

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
    On those statuses ``objective`` is the bound: the dual objective of the
    reported iterate plus the objective's constant, which approaches the
    optimum from below, while the primal moment objective c'y + c0, which
    approaches it from above, is ``diagnostics['primal_objective']``.  When
    the equality rows fix every moment, both are c'y + c0, which is exact
    there.  ``objective`` is +inf for infeasible problems, -inf for
    unbounded ones and NaN on numerical failure.  The solver reports in
    ``diagnostics['phase_seconds']`` the seconds spent compiling the problem
    (``compile``) and its iterations' seconds in each phase: ``residuals``,
    ``scaling`` (the NT scaling from the Cholesky factors by one SVD, and
    the Mehrotra corrector), ``schur`` (Schur terms and KKT fill),
    ``kkt_factor``, ``kkt_solve`` (search directions) and ``step_search``
    (scaled directions, step lengths and the Cholesky checks, whose factors
    feed the next iteration's scaling),
    and in ``diagnostics['kkt']`` the KKT system's ``dim``, the number of
    ``cliques`` it is factored by, their ``private`` sizes p and the
    ``separator`` size s of the shared moments, the ``nnz`` of its clique
    blocks, sum(p^2 + 2 p s) + s^2, and
    in ``diagnostics['schur']`` the work of the Schur terms: the nonzero
    ``coefficients`` of the block maps, the number of ``terms`` formed
    per iteration (the sum over blocks of (moments touched)^2), how many
    shape groups take formula F2 (``f2_shapes``) and how many its compact
    form (``compact_shapes``), and the rows of T = A_l G formed per
    iteration (``t_rows``) against the sum over blocks of size times
    moments touched (``dense_t_rows``), which F2 forms.  The
    equality rows are eliminated before the iteration, so the KKT system,
    its ``dim`` and the Schur terms are over the free moments only;
    ``diagnostics['equalities']`` reports the ``rows``, how many of them
    were ``dependent`` (dropped), the number of ``free`` moments (equal to
    ``kkt['dim']``) and the ``residual`` max |E y - b| over the
    unit-norm rows at the reported iterate (or, when the rows are
    inconsistent, the largest right-hand side of a row that reduced to
    0 = rhs).  ``primal_residual`` includes that residual, and
    ``dual_residual`` is the y-space dual residual max|c - A'Z - E'nu| /
    (1 + max|c|) at the multipliers nu = E_B^{-T} (c - A'Z)_B that zero it
    on the pivot moments B, which equals max|N'(c - A'Z)| / (1 + max|c|)
    for the null-space basis N of the elimination.

    ``trace`` holds one row per iteration, with the columns
    ``TRACE_COLUMNS``: the iterate's relative gap, primal and dual
    residuals (as above) and mu = <X, Z> / (cone dimension), then the
    centering parameter sigma and the primal and dual step lengths taken
    from it; those three are 0 in a row whose iteration took no step (the
    last one, and any that stopped on a failure).
    """

    status: SolveStatus
    y: Optional[np.ndarray]
    objective: float
    iterations: int
    wall_time: float
    diagnostics: Dict[str, object] = field(default_factory=dict)
    trace: np.ndarray = field(
        default_factory=lambda: np.zeros((0, len(TRACE_COLUMNS)))
    )

    def __post_init__(self) -> None:
        if (self.y is not None) != self.status.solved():
            raise ValueError("y must be present exactly for solved statuses")


@dataclass(frozen=True)
class ResidualReport:
    """Feasibility residuals of a candidate moment vector."""

    max_equality_residual: float
    min_block_eigenvalue: float
    within_tolerance: bool


def verify_vector(sdp: SdpProblem, y: np.ndarray, tol: float) -> ResidualReport:
    """Residual report for an arbitrary moment vector: ``extract_point``'s
    re-check of the Dirac moments of its candidate point, and the tests'.

    The tolerance check is relative: equality residuals against ``tol``
    directly and block eigenvalues against ``-tol * (1 + block Frobenius
    norm)``.

    Every block entry and equality row is summed term by term in order
    (``term_sums``), and the blocks of one size are assembled as one stack
    that shares one ``eigvalsh``.  A non-finite equality residual or block
    entry puts the report out of tolerance: the maximum residual is then
    NaN or inf, and the smallest eigenvalue of a block with such an entry
    NaN."""
    rhs = np.array([row.rhs for row in sdp.equalities], dtype=float)
    owner, rows, cols, constants, *block_terms = _block_entries(sdp.psd_blocks)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN here
        residuals = term_sums(np.zeros(rhs.size), *_equality_terms(sdp), y) - rhs
        values = term_sums(constants, *block_terms, y)
    max_eq = float(np.max(np.abs(residuals), initial=0.0))

    sizes = np.array([b.size for b in sdp.psd_blocks], dtype=np.int64)
    least = np.zeros(sizes.size)
    eig_ok = True
    slot = np.zeros(sizes.size, dtype=np.int64)
    for n in np.unique(sizes[sizes > 0]).tolist():
        members = np.flatnonzero(sizes == n)
        slot[members] = np.arange(members.size)
        entries = sizes[owner] == n
        k, i, j = slot[owner[entries]], rows[entries], cols[entries]
        stack = np.zeros((members.size, n, n))
        stack[k, i, j] = values[entries]
        stack[k, j, i] = values[entries]
        broken = ~np.isfinite(stack).all(axis=(1, 2))
        if broken.any():
            eig_ok = False
            stack[broken] = 0.0
        smallest = np.linalg.eigvalsh(stack)[:, 0]
        smallest[broken] = math.nan
        least[members] = smallest
        # 1 + norm >= 1, so with tol >= 0 only a block below -tol can fail.
        suspect = smallest < (-tol if tol >= 0.0 else math.inf)
        for mat, low in zip(stack[suspect], smallest[suspect]):
            if low < -tol * (1.0 + float(np.linalg.norm(mat))):
                eig_ok = False
    min_eig = float(np.min(least)) if least.size else 0.0
    return ResidualReport(max_eq, min_eig, eig_ok and max_eq <= tol)


def _block_entries(blocks) -> Tuple[np.ndarray, ...]:
    """The entry arrays (see ``LinearMatrixMap``) of ``blocks`` end to end:
    every entry's block, row, column and constant, then every entry's term
    count and the moment index and coefficient of every term."""

    def joined(arrays, dtype) -> np.ndarray:
        return np.concatenate(list(arrays) + [np.zeros(0, dtype)])

    return (
        np.repeat(np.arange(len(blocks)), [b.rows.size for b in blocks]),
        joined((b.rows for b in blocks), np.int64),
        joined((b.cols for b in blocks), np.int64),
        joined((b.constants for b in blocks), float),
        joined((np.diff(b.indptr) for b in blocks), np.int64),
        joined((b.indices for b in blocks), np.int64),
        joined((b.coefficients for b in blocks), float),
    )


def _equality_terms(sdp: SdpProblem) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The term count of every equality row, and the moment indices and
    coefficients of all their terms, row after row."""
    forms = [row.form for row in sdp.equalities]
    terms = np.array([form.nnz for form in forms], dtype=np.int64)
    indices = np.fromiter(
        itertools.chain.from_iterable(form.indices for form in forms), dtype=np.int64
    )
    coefficients = np.fromiter(
        itertools.chain.from_iterable(form.coefficients for form in forms), dtype=float
    )
    return terms, indices, coefficients


# ---------------------------------------------------------------------------
# Compilation to normalized, grouped array form
# ---------------------------------------------------------------------------


class _Csr:
    """A sparse matrix in canonical CSR form: each row's entries by
    increasing column, no position twice.  ``indptr``, ``indices`` and
    ``data`` are the arrays ``scipy.sparse.csr_matrix`` holds for the same
    entries (32-bit indices while they fit), and a product calls the
    compiled kernel that scipy's ``@`` ends in (``csr_matvec``, or
    ``csr_matvecs`` for several columns) on a zeroed output, so it has
    scipy's bits without its Python layers."""

    __slots__ = ("shape", "indptr", "indices", "data")

    def __init__(self, shape, indptr, indices, data) -> None:
        self.shape = shape
        self.indptr, self.indices, self.data = indptr, indices, data

    @classmethod
    def from_entries(cls, rows, cols, values, shape: Tuple[int, int]) -> "_Csr":
        """The matrix with entries values[e] at (rows[e], cols[e]); the values
        at a repeated position are summed in the given order."""
        M, N = shape
        key = np.asarray(rows, dtype=np.int64) * N + np.asarray(cols, dtype=np.int64)
        order = np.argsort(key, kind="stable")
        key = key[order]
        data = np.asarray(values, dtype=float)[order]
        new = np.ones(key.size, dtype=bool)
        new[1:] = key[1:] != key[:-1]
        if not new.all():
            data = np.bincount(np.cumsum(new) - 1, weights=data)
            key = key[new]
        dtype = np.int32 if max(M, N, key.size) <= np.iinfo(np.int32).max else np.int64
        row, col = np.divmod(key, max(N, 1))
        indptr = np.zeros(M + 1, dtype=dtype)
        indptr[1:] = np.cumsum(np.bincount(row, minlength=M))
        return cls(shape, indptr, col.astype(dtype), data)

    @property
    def nnz(self) -> int:
        return self.data.size

    def transpose(self) -> "_Csr":
        """The transpose, each row's entries by increasing column."""
        M, N = self.shape
        rows = np.repeat(np.arange(M), np.diff(self.indptr))
        return _Csr.from_entries(self.indices, rows, self.data, (N, M))

    def __matmul__(self, operand: np.ndarray) -> np.ndarray:
        """``self @ operand`` for a 1-D or 2-D float operand."""
        M, N = self.shape
        if operand.ndim > 2 or operand.shape[0] != N:
            raise ValueError("operand of the wrong shape")
        out = np.zeros((M,) + operand.shape[1:])
        if operand.ndim == 1 or operand.shape[1] == 1:
            _sparsetools.csr_matvec(
                M, N, self.indptr, self.indices, self.data, operand.ravel(), out.reshape(-1)
            )
        else:
            _sparsetools.csr_matvecs(
                M,
                N,
                operand.shape[1],
                self.indptr,
                self.indices,
                self.data,
                operand.ravel(),
                out.reshape(-1),
            )
        return out


@dataclass(frozen=True)
class _Elimination:
    """The solution set y = fixed + free z of E y = b, over the free moments z.

    ``free`` is the (y_dim, z_dim) sparse basis of the null space of E: the
    identity on the free moments and -M on the pivot moments, whose reduced
    rows read y_p + M_p z = fixed_p.  ``dependent`` counts the rows that
    reduced to 0 = rhs, and ``inconsistency`` is the largest |rhs| among
    them."""

    fixed: np.ndarray
    free: _Csr
    dependent: int
    inconsistency: float


def _eliminate(E: _Csr, b: np.ndarray) -> _Elimination:
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
    free = _Csr.from_entries(rows, cols, vals, (y_dim, free_cols.size))
    return _Elimination(fixed, free, dependent, inconsistency)


def _clique_labels(blocks) -> np.ndarray:
    """The clique of every block: the first, in sorted order, of the maximal
    ``variables`` sets of the blocks that contains the block's own.  Blocks
    without ``variables`` (hand-built problems) all share one clique, so a
    problem of such blocks alone has a single clique."""
    sets = {frozenset(b.variables) for b in blocks}
    maximal = sorted((sorted(s) for s in sets if not any(s < t for t in sets)))
    label = {
        s: next(c for c, clique in enumerate(maximal) if s <= set(clique))
        for s in sets
    }
    return np.array([label[frozenset(b.variables)] for b in blocks], dtype=np.int64)


@dataclass(frozen=True)
class _CliqueLayout:
    """Block-arrow storage of the KKT matrix.

    A free moment is private to a clique when only that clique's blocks
    touch it, and shared otherwise (also when no block touches it).  The
    matrix couples the private moments of two cliques nowhere, so in the
    order ``order`` (``order[k]`` is the k-th stored unknown: each clique's
    private moments, clique by clique, then the s shared ones) it is

        [ P_1          B_1 ]
        [      ...     ... ]
        [ B_1' ...     S   ]

    The cliques of one private size p form a group ``(p, C, P offset,
    B offset)`` of ``groups``: its C blocks P_c (p, p) and couplings B_c
    (p, s) are stacked at those offsets of one flat storage vector, and S
    (s, s) follows at ``shared_offset``.  The (shared, private) triangle is
    not stored: its terms are scattered to the trailing slot ``size``.  A
    single clique whose blocks touch every free moment is one P_1 with
    s = 0."""

    order: np.ndarray
    groups: Tuple[Tuple[int, int, int, int], ...]
    shared: int
    shared_offset: int
    size: int

    @classmethod
    def build(
        cls, z_dim: int, shapes: List[_SchurGroup], n_values: int
    ) -> Tuple["_CliqueLayout", np.ndarray]:
        """The layout of the free moments touched by the blocks of
        ``shapes``, and the position in its storage of every entry of the
        ``n_values`` Schur values (diagonal, then the terms of each shape)."""
        moments = np.concatenate(
            [s.indices.ravel() for s in shapes] + [np.zeros(0, np.int64)]
        )
        labels = np.concatenate(
            [np.repeat(s.cliques, s.indices.shape[1]) for s in shapes]
            + [np.zeros(0, np.int64)]
        )
        lowest = np.full(z_dim, np.iinfo(np.int64).max)
        np.minimum.at(lowest, moments, labels)
        highest = np.full(z_dim, -1, dtype=np.int64)
        np.maximum.at(highest, moments, labels)
        private = lowest == highest

        # Cliques with private moments by (private size, label); a moment's
        # seat is its clique's place in that order, C for a shared moment.
        _, owner, sizes = np.unique(
            lowest[private], return_inverse=True, return_counts=True
        )
        rank = np.argsort(sizes, kind="stable")
        place = np.empty_like(rank)
        place[rank] = np.arange(rank.size)
        sizes = sizes[rank]
        C = sizes.size
        seat = np.full(z_dim, C, dtype=np.int64)
        seat[private] = place[owner]
        order = np.lexsort((np.arange(z_dim), seat))
        position = np.empty(z_dim, dtype=np.int64)
        position[order] = np.arange(z_dim)
        s = z_dim - int(sizes.sum())

        # Storage offsets of every clique's P_c and B_c; the shared seat C
        # points at S.
        p_of = np.append(sizes, s)
        first = np.append(np.cumsum(sizes) - sizes, z_dim - s)
        p_start = np.zeros(C + 1, dtype=np.int64)
        b_start = np.zeros(C + 1, dtype=np.int64)
        groups = []
        offset = 0
        lo = 0
        for p, run in itertools.groupby(sizes.tolist()):
            count = sum(1 for _ in run)
            seats = np.arange(lo, lo + count)
            p_start[seats] = offset + (seats - lo) * p * p
            b_start[seats] = offset + count * p * p + (seats - lo) * p * s
            groups.append((p, count, offset, offset + count * p * p))
            offset += count * (p * p + p * s)
            lo += count
        size = offset + s * s
        p_start[C] = size  # no private columns in a shared row
        b_start[C] = offset

        # Row start of every moment in the storage, for a private and for
        # a shared column, and its column within a block.
        column = position - first[seat]
        row_private = p_start[seat] + column * p_of[seat]
        row_shared = b_start[seat] + column * s
        scatter = np.empty(n_values, dtype=np.intp)
        scatter[:z_dim] = np.where(private, row_private, row_shared) + column
        for shape in shapes:
            idx = shape.indices
            K, m = idx.shape
            rows = np.where(
                private[idx][:, None, :],
                row_private[idx][:, :, None],
                row_shared[idx][:, :, None],
            )
            rows += column[idx][:, None, :]
            # A (shared, private) term lands at or past ``size``.
            np.minimum(
                rows,
                size,
                out=scatter[shape.start : shape.start + K * m * m].reshape(K, m, m),
            )
        layout = cls(order, tuple(groups), s, offset, size)
        return layout, scatter

    def stats(self) -> Dict[str, object]:
        """The clique count, private sizes and separator size s, and the
        entries sum(p^2 + 2 p s) + s^2 of the matrix (and of its factors)."""
        s = self.shared
        private = [p for p, count, _, _ in self.groups for _ in range(count)]
        return {
            "cliques": len(private),
            "private": private,
            "separator": s,
            "nnz": sum(p * p + 2 * p * s for p in private) + s * s,
        }


@dataclass(frozen=True)
class _SchurGroup:
    """The blocks lo:hi of size group ``group``, all of shape (n, m), with
    the sparse maps that form their Schur terms (see ``_schur_terms``).

    ``indices`` (K, m) are the free moments each block touches, ``cliques``
    (K,) the clique of each block (see ``_clique_labels``), and its K m^2
    terms go to ``_Compiled.kkt_values[start:]``.  ``left`` maps the
    stacked G (K n, n) to rows of T[k, i, l, :] = (A_l G)[i, :].  Under
    formula F2 (``buckets`` empty) those are all K n m rows, ordered
    (k, i, l).  Under the compact formula they are only the nonzero ones,
    the rows i in the support R_l of each slot (k, l) (the rows where A_l
    of block k is nonzero), ordered (k, l, i), and each block's moments
    (its row of ``indices``) are ordered by (|R_l|, moment), so the slots
    of one support size r form a run l0 <= l < l1 of a block k.
    ``buckets`` then holds every run as (k, l0, l1, rows), with the rows
    k n + i of the stacked G that its (l1 - l0) r rows of T pair with.
    ``pair_rows`` and ``pair_cols`` are the positions (i <= j) at which some
    A_l of the group is nonzero.  ``right`` maps F_b = G A_b G, gathered at
    those pairs in (pair, k) order, to H[k, a, b] / 2 = <A_a, F_b> / 2: it
    holds A_a at the pairs, halved on the diagonal (the off-diagonal pairs
    stand for both triangles of the symmetric F_b).  The formula is chosen
    at compile time from the shape (``_COMPACT_MIN_SIZE``,
    ``_COMPACT_SUPPORT_SHARE``)."""

    group: int
    lo: int
    hi: int
    start: int
    indices: np.ndarray
    cliques: np.ndarray
    left: _Csr
    pair_rows: np.ndarray
    pair_cols: np.ndarray
    right: _Csr
    buckets: Tuple[Tuple[int, int, int, np.ndarray], ...]

    @classmethod
    def build(
        cls,
        group: int,
        lo: int,
        start: int,
        n: int,
        indices: np.ndarray,
        cliques: np.ndarray,
        k: np.ndarray,
        l: np.ndarray,
        ij: np.ndarray,
        value: np.ndarray,
    ) -> "_SchurGroup":
        """The group of K blocks of size n touching the (K, m) free moments
        ``indices``, in the (K,) ``cliques``, from the nonzeros of their
        coefficient tensors: block k, local moment l, flat position
        ij = i n + j and value."""
        K, m = indices.shape
        i, j = np.divmod(ij, n)
        rows = row_of = None
        if n >= _COMPACT_MIN_SIZE:
            # The nonzero rows (k, l, i) of T.
            rows, row_of = np.unique((k * m + l) * n + i, return_inverse=True)
        buckets = []
        if rows is None or _COMPACT_SUPPORT_SHARE * rows.size > K * m * n:
            left = _Csr.from_entries((k * n + i) * m + l, k * n + j, value, (K * n * m, K * n))
        else:
            # Each block's moments by (support size |R_l|, moment), so that
            # the slots of one support size are a run of the block's moments.
            support = np.bincount(rows // n, minlength=K * m).reshape(K, m)
            order = np.argsort(support, axis=1, kind="stable")
            indices = np.take_along_axis(indices, order, axis=1)
            l = np.argsort(order, axis=1)[k, l]
            support = np.take_along_axis(support, order, axis=1).ravel()
            rows, row_of = np.unique((k * m + l) * n + i, return_inverse=True)
            left = _Csr.from_entries(row_of, k * n + j, value, (rows.size, K * n))
            slots = rows // n
            g_rows = slots // m * n + rows % n
            run = slots // m * (n + 1) + support[slots]
            ends = np.flatnonzero(np.diff(run, append=-1)) + 1
            for first, end in zip([0] + ends[:-1].tolist(), ends.tolist()):
                block, l0 = divmod(int(slots[first]), m)
                l1 = l0 + (end - first) // int(support[slots[first]])
                buckets.append((block, l0, l1, g_rows[first:end]))
        upper = i <= j
        pairs, pair = np.unique(ij[upper], return_inverse=True)
        right = _Csr.from_entries(
            k[upper] * m + l[upper],
            pair * K + k[upper],
            np.where(i == j, 0.5, 1.0)[upper] * value[upper],
            (K * m, pairs.size * K),
        )
        return cls(
            group,
            lo,
            lo + K,
            start,
            indices,
            cliques,
            left,
            pairs // n,
            pairs % n,
            right,
            tuple(buckets),
        )


class _Compiled:
    """Normalized standard form over the free moments in grouped layout, plus
    the bookkeeping to undo the elimination.

    The equality rows, normalized to unit norm, are eliminated
    once (``_eliminate``): every y with E y = b is y = fixed + free z, so the
    iteration runs over the free moments z alone, on the blocks substituted
    at that y (objective c'y = (free' c)'z + c'fixed).  Blocks are ordered
    by (size, number of touched free moments).  The blocks of one size n
    form a group whose K matrices are stacked as one (K, n, n) array; the
    groups are consecutive segments of one flat vector, on which the block
    map is  vec M(z) = constant + A z  and its adjoint is  A' v.  All blocks
    are compiled together into their coefficient patterns
    (``_compile_blocks``), which yield A and, for the blocks of one shape
    (size and moment count), the sparse maps of a ``_SchurGroup``.  Every
    map the iteration applies (E, free, A, its adjoint At and each Schur
    group's ``left`` and ``right``) is a compiled ``_Csr``, and the only
    ``scipy.sparse`` matrices, the stacked raw blocks and their product
    with the null-space basis, live in ``_compile_blocks`` alone.  The
    storage of the KKT matrix H + dI (a ``_CliqueLayout``), the values
    vector its Schur terms and diagonal are written into and the scatter map
    from that vector into the storage are fixed here, and so are the
    per-group constants of the iteration (stack ``spans``, ``identities``
    and ``diagonals``) and the workspace of the Schur terms, so an
    iteration only fills numbers in.
    """

    def __init__(self, sdp: SdpProblem) -> None:
        self.y_dim = y_dim = sdp.y_dim
        terms, indices, coeffs = _equality_terms(sdp)
        self.n_eq = terms.size
        norms = np.ones(self.n_eq)
        for r_idx, end in enumerate(np.cumsum(terms).tolist()):
            row = coeffs[end - terms[r_idx] : end]
            norm = math.sqrt(row.dot(row))
            if norm > 0.0:
                norms[r_idx] = norm
        self.E = _Csr.from_entries(
            np.repeat(np.arange(self.n_eq), terms),
            indices,
            coeffs / np.repeat(norms, terms),
            (self.n_eq, y_dim),
        )
        self.b = np.array([row.rhs for row in sdp.equalities], dtype=float) / norms
        elim = _eliminate(self.E, self.b)
        self.fixed, self.free = elim.fixed, elim.free
        self.z_dim = z_dim = self.free.shape[1]
        self.dependent = elim.dependent
        self.inconsistency = elim.inconsistency

        self._compile_blocks([b for b in sdp.psd_blocks if b.size], elim)
        self.At = self.A.transpose()
        compact = [s for s in self.shapes if s.buckets]
        self.schur_stats = {
            "coefficients": int(self.A.nnz),
            "terms": self.kkt_values.size - z_dim,
            "f2_shapes": len(self.shapes) - len(compact),
            "compact_shapes": len(compact),
            "t_rows": sum(s.left.shape[0] for s in self.shapes),
            "dense_t_rows": sum(
                self.groups[s.group][0] * s.indices.size for s in self.shapes
            ),
        }

        c = np.zeros(y_dim)
        for idx, coeff in zip(sdp.objective.indices, sdp.objective.coefficients):
            c[idx] += coeff
        self.c_ref = 1.0 + float(np.max(np.abs(c), initial=0.0))
        self.c = self.free.transpose() @ c
        self.c_offset = float(c @ self.fixed)

        # The storage of H + dI and the position in it of every entry of
        # ``kkt_values`` (diagonal, then Schur terms).
        self.kkt_layout, self.kkt_scatter = _CliqueLayout.build(
            z_dim, self.shapes, self.kkt_values.size
        )

    def _compile_blocks(self, blocks, elim: _Elimination) -> None:
        """Substitute, normalize, order and group the nonempty blocks.

        All blocks are stacked into one raw map R from the moments to
        their flat vectors (entry (i, j) of block k at offset_k + i n_k + j,
        in the given order), and substituted at y = fixed + free z by two
        products, R fixed and R free.  Every block is then divided by the
        Frobenius norm of its substituted map, sqrt(|C_k|^2 + sum_l
        |A_{k,l}|^2), and the blocks are ordered by (size, number of touched
        free moments)."""
        z_dim = self.z_dim
        n = np.array([b.size for b in blocks], dtype=np.int64)
        K = n.size
        raw_offsets = np.concatenate([[0], np.cumsum(n * n)]).astype(np.int64)

        owner, i, j, constants, terms, moments, coeffs = _block_entries(blocks)
        flat = raw_offsets[owner] + i * n[owner] + j
        mirror = raw_offsets[owner] + j * n[owner] + i
        entry = np.repeat(np.arange(i.size), terms)
        lower = i[entry] != j[entry]
        raw = scipy.sparse.csr_matrix(
            (
                np.concatenate([coeffs, coeffs[lower]]),
                (
                    np.concatenate([flat[entry], mirror[entry][lower]]),
                    np.concatenate([moments, moments[lower]]),
                ),
            ),
            shape=(int(raw_offsets[-1]), self.y_dim),
        )
        constant = np.zeros(int(raw_offsets[-1]))
        nonzero = constants != 0.0
        constant[flat[nonzero]] = constants[nonzero]
        constant[mirror[nonzero]] = constants[nonzero]
        constant += raw @ elim.fixed
        free = elim.free
        sub = (
            raw @ scipy.sparse.csr_matrix((free.data, free.indices, free.indptr), free.shape)
        ).tocoo()

        # The block order, and the coefficient nonzeros in that order, each
        # block's by (free moment, flat position).
        block = np.repeat(np.arange(K), n * n)[sub.row]
        ij = sub.row - raw_offsets[block]
        col = sub.col.astype(np.int64)
        m = np.bincount(np.unique(block * (z_dim + 1) + col) // (z_dim + 1), minlength=K)
        order = np.lexsort((m, n))
        rank = np.empty(K, dtype=np.int64)
        rank[order] = np.arange(K)
        nz = np.lexsort((ij, col, rank[block]))
        ranked, col, ij, value = rank[block][nz], col[nz], ij[nz], sub.data[nz]
        first = np.ones(ranked.size, dtype=bool)
        first[1:] = (ranked[1:] != ranked[:-1]) | (col[1:] != col[:-1])
        touched = col[first]
        widths = m[order]
        touched_start = np.cumsum(widths) - widths
        local = np.cumsum(first) - 1 - touched_start[ranked]
        value_start = np.searchsorted(ranked, np.arange(K + 1))

        sizes = n[order]
        cliques = _clique_labels(blocks)[order]
        norms = np.ones(K)
        self.block_scale = np.ones(K)
        for q, k in enumerate(order.tolist()):
            own = constant[raw_offsets[k] : raw_offsets[k + 1]]
            norm = math.sqrt(
                float(np.sum(own**2))
                + float(np.sum(value[value_start[q] : value_start[q + 1]] ** 2))
            )
            if norm > 0.0:
                norms[q] = norm
            self.block_scale[q] += np.linalg.norm(own / norms[q])
        value = value / norms[ranked]

        self.cone_dim = int(sizes.sum())
        offsets = np.concatenate([[0], np.cumsum(sizes**2)]).astype(np.int64)
        self.dim = int(offsets[-1])
        self.block_starts = offsets[:-1]
        slot = np.repeat(np.arange(K), sizes**2)
        self.constant = (
            constant[raw_offsets[order][slot] + np.arange(self.dim) - offsets[slot]]
            / norms[slot]
        )
        self.A = _Csr.from_entries(offsets[ranked] + ij, col, value, (self.dim, z_dim))

        # Size groups (n, first block, end block) and the Schur shape groups,
        # whose terms follow the z_dim diagonal entries in ``kkt_values``.
        self.groups: List[Tuple[int, int, int]] = []
        self.shapes: List[_SchurGroup] = []
        lo = 0
        start = z_dim
        for (size, width), run in itertools.groupby(zip(sizes.tolist(), widths.tolist())):
            hi = lo + sum(1 for _ in run)
            if not self.groups or self.groups[-1][0] != size:
                self.groups.append((size, lo, hi))
            group_first = self.groups[-1][1]
            self.groups[-1] = (size, group_first, hi)
            if width:
                span = slice(value_start[lo], value_start[hi])
                self.shapes.append(
                    _SchurGroup.build(
                        len(self.groups) - 1,
                        lo - group_first,
                        start,
                        size,
                        touched[touched_start[lo:hi, None] + np.arange(width)],
                        cliques[lo:hi],
                        ranked[span] - lo,
                        local[span],
                        ij[span],
                        value[span],
                    )
                )
                start += (hi - lo) * width * width
            lo = hi
        self.kkt_values = np.empty(start)
        # Per size group: the span (start, end, (K, n, n)) of its stack in a
        # flat block vector, its identity and its diagonal indices.
        self.spans = [
            (int(offsets[lo]), int(offsets[hi]), (hi - lo, n, n)) for n, lo, hi in self.groups
        ]
        self.identities = [np.eye(n) for n, _, _ in self.groups]
        self.diagonals = [np.arange(n) for n, _, _ in self.groups]
        # One buffer for the largest F = G T of ``_schur_terms``, reused by
        # every shape and iteration: a fresh multi-megabyte F per call lets
        # the C allocator return it to the system and fault it in again.
        widest = (s.indices.size * self.groups[s.group][0] ** 2 for s in self.shapes)
        self.schur_workspace = np.empty(max(widest, default=0))

    def kkt_stats(self) -> Dict[str, object]:
        """Size of the KKT system: ``dim``, the cliques it is factored by
        and its ``nnz`` (see ``_CliqueLayout.stats``)."""
        return {"dim": self.z_dim, **self.kkt_layout.stats()}

    def kkt_data(self, delta: float) -> np.ndarray:
        """The ``_CliqueLayout``'s flat storage of H + delta I, and its
        trailing slot, from the Schur terms that ``_schur_terms`` last wrote
        into ``kkt_values``."""
        self.kkt_values[: self.z_dim] = delta
        size = self.kkt_layout.size + 1
        return np.bincount(self.kkt_scatter, weights=self.kkt_values, minlength=size)

    def moments(self, z: np.ndarray) -> np.ndarray:
        """The moment vector fixed + free z."""
        return self.fixed + self.free @ z

    def equality_residual(self, y: np.ndarray) -> float:
        """max |E y - b| over the unit-norm rows."""
        return float(np.abs(self.E @ y - self.b).max(initial=0.0))

    def stacks(self, flat: np.ndarray) -> List[np.ndarray]:
        """(K, n, n) views of a flat block vector, one per size group."""
        return [flat[start:end].reshape(shape) for start, end, shape in self.spans]

    def identity_point(self) -> np.ndarray:
        """The starting point: each block is (1 + ||C_k||) I."""
        out = np.empty(self.dim)
        for (_, lo, hi), eye, stack in zip(self.groups, self.identities, self.stacks(out)):
            stack[...] = eye * self.block_scale[lo:hi, None, None]
        return out

    def block_norms(self, flat: np.ndarray) -> np.ndarray:
        """Frobenius norm of every block of a flat block vector."""
        if not self.groups:
            return np.zeros(0)
        return np.sqrt(np.add.reduceat(flat * flat, self.block_starts))

    def cholesky(
        self, x: np.ndarray, z: np.ndarray
    ) -> Optional[Tuple[List[np.ndarray], List[np.ndarray]]]:
        """The Cholesky factors of the stacked blocks of two flat block
        vectors, per size group, from one call per group on both stacks;
        None when some block is not positive definite."""
        try:
            factors = [
                np.linalg.cholesky(np.concatenate(pair))
                for pair in zip(self.stacks(x), self.stacks(z))
            ]
        except np.linalg.LinAlgError:
            return None
        counts = [hi - lo for _, lo, hi in self.groups]
        return (
            [f[:k] for f, k in zip(factors, counts)],
            [f[k:] for f, k in zip(factors, counts)],
        )


# ---------------------------------------------------------------------------
# Interior-point method
# ---------------------------------------------------------------------------

_PHASES = (
    "compile",
    "residuals",
    "scaling",
    "schur",
    "kkt_factor",
    "kkt_solve",
    "step_search",
)


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


def _symmetrize(stack: np.ndarray) -> np.ndarray:
    return 0.5 * (stack + stack.mT)


def _finite(*arrays: np.ndarray) -> bool:
    for a in arrays:
        if not np.isfinite(a).all():
            return False
    return True


def _nt_scaling(Lx: np.ndarray, Lz: np.ndarray, eye: np.ndarray):
    """Nesterov-Todd scaling of stacked blocks X = Lx Lx', Z = Lz Lz' from
    their Cholesky factors (Todd, Toh & Tutuncu 1998): with the SVD
    Lz' Lx = U diag(d) V', the scaling T = Lx V d^{-1/2}, its inverse
    T^{-1} = d^{-1/2} U' Lz', G = W^{-1} = T^{-T} T^{-1} for W = T T' (the W
    with W Z W = X), and the shared scaled point
    lambda = T^{-1} X T^{-T} = T' Z T = diag(d), built from the identity
    ``eye``.  Returns (G, T, T^{-1}, d, lambda, d^{-1/2} d^{-1/2}'), all
    that the iteration reads of d; the caller checks that they are
    finite."""
    U, d, Vt = np.linalg.svd(Lz.mT @ Lx)
    d = np.maximum(d, 1e-300)
    root = 1.0 / np.sqrt(d)
    T = (Lx @ Vt.mT) * root[:, None, :]
    T_inv = root[:, :, None] * (U.mT @ Lz.mT)
    G = _symmetrize(T_inv.mT @ T_inv)
    return G, T, T_inv, d, d[:, :, None] * eye, root[:, :, None] * root[:, None, :]


def _schur_terms(comp: _Compiled, G: List[np.ndarray]) -> None:
    """Write the Schur terms <A_i, G A_j G> of every block, per shape group,
    into ``comp.kkt_values``.

    Fujisawa, Kojima & Nakata's formula F2, three calls per shape group: the
    sparse product T = A_l G against the stacked G, the batched product
    F_l = G T (into ``comp.schur_workspace``), and the sparse contraction
    H[i, j] = <A_i, F_j> over the positions where some A_i is nonzero.
    A shape on the compact formula (see ``_SchurGroup``) forms only the
    nonzero rows Tc of T, and each F_l = G[R_l, :]' Tc[R_l, :] from the
    support R_l of its slot, by one batched product per run of slots of
    one support size, written straight into F; the gather and the
    contraction are F2's.  G is symmetric, so both formulas give G A_l G."""
    for shape in comp.shapes:
        K, m = shape.indices.shape
        F = _products(comp, shape, G[shape.group][shape.lo : shape.hi])
        gathered = F[:, shape.pair_rows, :, shape.pair_cols].reshape(-1, m)
        half = (shape.right @ gathered).reshape(K, m, m)
        del gathered  # before the next group forms its T
        terms = comp.kkt_values[shape.start : shape.start + K * m * m]
        np.add(half, half.mT, out=terms.reshape(K, m, m))


def _products(comp: _Compiled, shape: _SchurGroup, g: np.ndarray) -> np.ndarray:
    """F[k, :, l, :] = G A_l G for the (K, n, n) scaling blocks ``g`` of a
    shape group, in ``comp.schur_workspace`` (see ``_schur_terms``).  T and
    Tc are freed on return, before the gather allocates."""
    K, m = shape.indices.shape
    n = g.shape[1]
    stacked = g.reshape(K * n, n)
    F = comp.schur_workspace[: K * n * m * n].reshape(K, n, m, n)
    if not shape.buckets:
        T = (shape.left @ stacked).reshape(K, n, m * n)
        np.matmul(g, T, out=F.reshape(K, n, m * n))
        return F
    Tc = shape.left @ stacked
    first = 0
    for k, l0, l1, g_rows in shape.buckets:
        end = first + g_rows.size
        support = stacked[g_rows].reshape(l1 - l0, -1, n)
        np.matmul(
            support.mT, Tc[first:end].reshape(support.shape), out=F[k, :, l0:l1].swapaxes(0, 1)
        )
        first = end
    return F


def _congruence(comp: _Compiled, G: List[np.ndarray], flat: np.ndarray) -> np.ndarray:
    """sym(G M G) for every block M of a flat block vector."""
    out = np.empty_like(flat)
    for g, m, dst in zip(G, comp.stacks(flat), comp.stacks(out)):
        dst[...] = _symmetrize(g @ m @ g)
    return out


def _scaled(comp: _Compiled, T_inv: List[np.ndarray], flat: np.ndarray) -> List[np.ndarray]:
    """sym(T^{-1} M T^{-T}) for every block M of a flat block vector, as
    stacks per size group."""
    return [_symmetrize(ti @ m @ ti.mT) for ti, m in zip(T_inv, comp.stacks(flat))]


def _step_lengths(
    outer: List[np.ndarray], primal: List[np.ndarray], dual: List[np.ndarray]
) -> Optional[Tuple[float, float]]:
    """sup {a : X + a dX PSD} and sup {a : Z + a dZ PSD} from the scaled
    directions dX~ = T^{-1} dX T^{-T} and dZ~ = T' dZ T per size group.

    X + a dX = T (lambda + a dX~) T' with lambda = diag(d), so each bound is
    -1 / lambda_min(d^{-1/2} dX~ d^{-1/2}) (inf when that is nonnegative),
    with the ``outer`` = d^{-1/2} d^{-1/2}' of the NT scaling; the primal
    and dual matrices of a group share one ``eigvalsh``.  None when a
    scaled direction is not finite."""
    smallest = [math.inf, math.inf]
    for oi, dx, dz in zip(outer, primal, dual):
        stacked = np.concatenate([dx * oi, dz * oi])
        if not _finite(stacked):
            return None
        least = np.linalg.eigvalsh(stacked)[:, 0]
        K = oi.shape[0]
        smallest[0] = min(smallest[0], float(least[:K].min()))
        smallest[1] = min(smallest[1], float(least[K:].min()))
    alpha_p, alpha_d = (math.inf if s >= 0.0 else -1.0 / s for s in smallest)
    return alpha_p, alpha_d


class _CliqueFactor:
    """LAPACK factors of one block M of a ``_CliqueLayout``, symmetric and
    positive definite in exact arithmetic: its Cholesky factor (potrf), or
    its LU factors (getrf) when rounding makes Cholesky meet a nonpositive
    pivot, as it does on some late iterates.  Both read M.T, which
    is M: the transpose of a C-ordered block is a Fortran-ordered view that
    LAPACK takes without reordering.  RuntimeError on an exactly zero or a
    non-finite pivot."""

    def __init__(self, matrix: np.ndarray) -> None:
        self.lu = None
        self.cholesky, info = scipy.linalg.lapack.dpotrf(matrix.T, lower=1)
        pivots = np.diagonal(self.cholesky)
        if info != 0:
            lu, piv, info = scipy.linalg.lapack.dgetrf(matrix.T)
            self.lu, pivots = (lu, piv), np.diagonal(lu)
        if info != 0 or not _finite(pivots):
            raise RuntimeError("zero or non-finite pivot in a clique factor")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """M^{-1} rhs."""
        if self.lu is None:
            return scipy.linalg.lapack.dpotrs(self.cholesky, rhs, lower=1)[0]
        return scipy.linalg.lapack.dgetrs(*self.lu, rhs, trans=1)[0]

    def gram(self, coupling: np.ndarray) -> np.ndarray:
        """B' M^{-1} B of a coupling B: V'V for V = L^{-1} B under Cholesky."""
        if self.lu is None:
            V = scipy.linalg.blas.dtrsm(1.0, self.cholesky, coupling, lower=1)
            return V.T @ V
        return coupling.T @ self.solve(coupling)


class _Kkt:
    """Factorization of the positive-definite H + dI over the free moments.

    The system arrives in the ``_CliqueLayout`` of :class:`_Compiled` and is
    factored by block elimination of the clique-private moments: every P_c
    is factored (``_CliqueFactor``), and so is the separator's Schur
    complement S - sum_c B_c' P_c^{-1} B_c.  A solve eliminates the private
    moments of every clique, solves for the shared ones and substitutes them
    back, x_c = P_c^{-1} (r_c - B_c x_s), in one pass; the right-hand side
    is permuted into the layout's order and the solution out.  The
    factorization and ``solve`` leave overflow to the caller's
    ``np.errstate`` (the interior-point loop's), which checks the solution
    for finiteness."""

    def __init__(self, comp: _Compiled, data: np.ndarray) -> None:
        self.layout = layout = comp.kkt_layout
        s = layout.shared
        # Per group of same-size cliques: its unknowns (a slice of the
        # layout's order), the stacked B (C p, s) and the factors of every
        # P_c (p, p).
        self._cliques = []
        reduced = data[layout.shared_offset : layout.size].reshape(s, s).copy()
        start = 0
        for p, count, p_offset, b_offset in layout.groups:
            P = data[p_offset:b_offset].reshape(count, p, p)
            B = data[b_offset : b_offset + count * p * s].reshape(count, p, s)
            factors = [_CliqueFactor(block) for block in P]
            for factor, coupling in zip(factors, B):
                reduced -= factor.gram(coupling)
            span = slice(start, start + count * p)
            self._cliques.append((span, B.reshape(count * p, s), factors))
            start = span.stop
        self._separator = _CliqueFactor(reduced) if s else None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(H + dI)^{-1} rhs by one elimination pass; non-finite when the
        factorization breaks down."""
        order = self.layout.order
        rhs = rhs[order]
        private = rhs.size - self.layout.shared
        out = np.empty_like(rhs)
        shared = rhs[private:].copy()
        if self._separator is not None:  # without shared moments B has no columns
            for span, B, factors in self._cliques:
                part = rhs[span].reshape(len(factors), -1)
                shared -= B.T @ np.concatenate([f.solve(r) for f, r in zip(factors, part)])
            shared = self._separator.solve(shared)
        out[private:] = shared
        for span, B, factors in self._cliques:
            part = (rhs[span] - B @ shared).reshape(len(factors), -1)
            out[span] = np.concatenate([f.solve(r) for f, r in zip(factors, part)])
        solution = np.empty_like(out)
        solution[order] = out
        return solution


def _near(relgap: float, pres: float, dres: float) -> bool:
    """Whether an iterate is within the near-optimal gates (see ``_NEAR_GAP``)."""
    return relgap <= _NEAR_GAP and pres <= _NEAR_RES and dres <= _NEAR_RES


# The objective reported with each unsolved status.
_UNSOLVED_OBJECTIVE = {
    SolveStatus.INFEASIBLE: math.inf,
    SolveStatus.UNBOUNDED: -math.inf,
    SolveStatus.NUMERICAL_FAILURE: math.nan,
}


def solve(sdp: SdpProblem) -> SolverResult:
    """Solve a relaxation with the bundled interior-point method."""
    start = time.perf_counter()
    clock = _PhaseClock()
    comp = _Compiled(sdp)
    clock.lap("compile")
    kkt_stats = comp.kkt_stats()
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
    trace: List[List[float]] = []

    def finish(
        status: SolveStatus,
        y: Optional[np.ndarray],
        note: str,
        iterations: int,
        dual_objective: Optional[float] = None,
        **extra,
    ) -> SolverResult:
        """The result that reports the moment vector ``y`` (None when there
        is none) with ``status``: as the solution when solved, as ``last_y``
        on a numerical failure, and its equality residual.  A
        solved result reports ``dual_objective`` (c'y when it is None) plus
        the objective's constant."""
        if y is not None:
            equality_stats["residual"] = comp.equality_residual(y)
        diagnostics = {"note": note, **extra, **stats}
        if status.solved():
            objective = diagnostics["primal_objective"] = sdp.objective.evaluate(y)
            if dual_objective is not None:
                objective = dual_objective + sdp.objective.constant
        else:
            objective = _UNSOLVED_OBJECTIVE[status]
            if status is SolveStatus.NUMERICAL_FAILURE:
                diagnostics["last_y"] = y
            y = None
        rows = np.array(trace, dtype=float).reshape(-1, len(TRACE_COLUMNS))
        wall = time.perf_counter() - start
        return SolverResult(status, y, objective, iterations, wall, diagnostics, rows)

    if comp.inconsistency > _DEPENDENT_TOL:
        return finish(SolveStatus.INFEASIBLE, None, "equality rows inconsistent", 0)
    if comp.z_dim == 0:
        # The single candidate y is the elimination's ``fixed``, optimal when
        # every (now constant) block is PSD within _ABS_TOL.
        smallest = min(
            (float(np.min(np.linalg.eigvalsh(s))) for s in comp.stacks(comp.constant)),
            default=0.0,
        )
        if smallest < -_ABS_TOL:
            return finish(
                SolveStatus.INFEASIBLE, comp.fixed, "fixed moments violate a PSD block", 0
            )
        return finish(
            SolveStatus.OPTIMAL, comp.fixed, "every moment fixed by the equality rows", 0
        )

    total_cone = max(comp.cone_dim, 1)
    z = np.zeros(comp.z_dim)
    X = comp.identity_point()
    Z = X.copy()
    # Cholesky factors of X and Z, carried over from the step search.
    chol_x, chol_z = comp.cholesky(X, Z)

    status = SolveStatus.NUMERICAL_FAILURE
    stall_ref = math.inf
    stall = 0
    note = "iteration limit reached"
    # A non-finite scaling, Schur complement or direction ends the solve as a
    # numerical failure, whatever the best iterate's merit.
    finite = True
    # The reported iterate: Schur-based steps hit a numerical floor, so it is
    # the one of least worst-case merit among those that pass the
    # near-optimal gates (among all of them when none does).
    best_y = comp.moments(z)
    best_dobj = math.nan
    best_triple = (math.inf, math.inf, math.inf)
    best_key = (True, math.inf)
    best_iteration = 0

    # Overflow and invalid values are expected once an iterate degenerates;
    # the iteration checks its scalings, Schur complements, KKT pivots and
    # directions for finiteness instead.  This is the one errstate scope of
    # the iteration: nothing it calls enters another.
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(1, _MAX_ITERS + 1):
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
            pres_blocks = (comp.block_norms(residual) / comp.block_scale).max(initial=0.0)
            pres = max(comp.equality_residual(y), float(pres_blocks))
            dres = float(np.abs(r_d).max()) / comp.c_ref
            row = [relgap, pres, dres, mu, 0.0, 0.0, 0.0]
            trace.append(row)
            clock.lap("residuals")

            merit = max(relgap, pres, dres)
            key = (not _near(relgap, pres, dres), merit)
            if key < best_key:
                best_y, best_dobj, best_key, best_iteration = y, dobj, key, iteration
                best_triple = (relgap, pres, dres)

            if relgap <= _REL_TOL and pres <= _ABS_TOL and dres <= _ABS_TOL:
                status = SolveStatus.OPTIMAL
                note = "converged"
                break
            if dobj > 1e12 and dres <= 1e-7:
                return finish(SolveStatus.INFEASIBLE, y, "dual objective diverging", iteration)
            if pobj < -1e12 and pres <= 1e-7:
                return finish(SolveStatus.UNBOUNDED, y, "primal objective diverging", iteration)

            if merit < 0.9 * stall_ref:
                stall_ref = merit
                stall = 0
            else:
                stall += 1
            if stall >= 3 and _near(*best_triple):
                note = "numerical floor reached"
                break
            if stall >= 10:
                note = "progress stalled"
                break

            # NT scaling per size group from the Cholesky factors of X and Z:
            # G = W^{-1}, T with W = T T', the shared scaled point
            # lambda = diag(d) for the Jordan-product solves below, and
            # d^{-1/2} d^{-1/2}' for both step-length searches.
            try:
                scaling = [
                    _nt_scaling(lx, lz, eye)
                    for lx, lz, eye in zip(chol_x, chol_z, comp.identities)
                ]
            except np.linalg.LinAlgError:  # the SVD of non-finite factors
                scaling = None
            if scaling is None or not _finite(*itertools.chain.from_iterable(scaling)):
                note, finite = "non-finite NT scaling", False
                break
            G, T, T_inv, d, lam, outer = map(list, zip(*scaling))
            clock.lap("scaling")

            _schur_terms(comp, G)
            data = comp.kkt_data(1e-12 * (1.0 + mu))
            clock.lap("schur")
            if not _finite(data):
                note, finite = "non-finite Schur complement", False
                break
            try:
                kkt = _Kkt(comp, data)
            except RuntimeError:
                note = "KKT factorization failed"
                break
            clock.lap("kkt_factor")

            def newton(target: np.ndarray, R: Optional[List[np.ndarray]]):
                """The Newton step with dX + W dZ W = target: (dz, dX, dZ,
                dX~, dZ~, step lengths); None when a direction is not finite.
                The predictor (``R`` given) has no dZ and dZ~ = R - dX~.  The
                corrector's dZ = G (target - dX) G drifts off A'dZ = r_d as
                ||H|| grows; it adds sym(G (A w) G), w = (H + dI)^{-1} (r_d -
                A'dZ), and dZ~ = sym(T' dZ T)."""
                dz = kkt.solve(comp.At @ _congruence(comp, G, target - residual) - r_d)
                dX = comp.A @ dz + residual
                dZ = None
                if R is None:
                    dZ = _congruence(comp, G, target - dX)
                    dZ += _congruence(comp, G, comp.A @ kkt.solve(r_d - comp.At @ dZ))
                clock.lap("kkt_solve")
                if not _finite(dz, dX) or (dZ is not None and not _finite(dZ)):
                    return None
                dx = _scaled(comp, T_inv, dX)
                if R is None:
                    dzs = [_symmetrize(t.mT @ m @ t) for t, m in zip(T, comp.stacks(dZ))]
                else:
                    dzs = [r - x for r, x in zip(R, dx)]
                steps = _step_lengths(outer, dx, dzs)
                return None if steps is None else (dz, dX, dZ, dx, dzs, steps)

            # Predictor: pure Newton step toward the boundary, R = -lambda.
            predictor = newton(-X, [-lm for lm in lam])
            if predictor is None:
                note, finite = "non-finite predictor direction", False
                break
            *_, dx_aff, dz_aff, steps = predictor
            alpha_p_aff, alpha_d_aff = (min(1.0, step) for step in steps)
            gap_aff = sum(
                [
                    float(((lm + alpha_p_aff * dx) * (lm + alpha_d_aff * dzs)).sum())
                    for lm, dx, dzs in zip(lam, dx_aff, dz_aff)
                ]
            )
            sigma = min(0.999, max(1e-8, (max(gap_aff, 0.0) / gap) ** 3))
            clock.lap("step_search")

            # Mehrotra corrector: in the scaled space the combined step solves
            # lambda o J = sigma*mu*I - lambda^2 - sym(dx~_aff dz~_aff) for
            # J = dx~ + dz~, exactly since lambda is diagonal; the X-space
            # target is T J T'.  A block whose target overflows falls back to
            # the pure centering step; a direction that is still non-finite
            # ends the solve below.
            target = np.empty(comp.dim)
            for diag, eye, ti, di, dx, dzs, dst in zip(
                comp.diagonals, comp.identities, T, d, dx_aff, dz_aff, comp.stacks(target)
            ):
                rhs = -_symmetrize(dx @ dzs)
                rhs[:, diag, diag] += sigma * mu - di * di
                J = 2.0 * rhs / (di[:, :, None] + di[:, None, :])
                corrected = ti @ J @ ti.mT
                bad = ~np.isfinite(corrected).all(axis=(1, 2))
                if bad.any():
                    J[bad] = (sigma * mu / di[bad] - di[bad])[:, :, None] * eye
                    corrected[bad] = ti[bad] @ J[bad] @ ti[bad].mT
                dst[...] = _symmetrize(corrected)
            clock.lap("scaling")

            corrector = newton(target, None)
            if corrector is None:
                note, finite = "non-finite corrector direction", False
                break
            dz, dX, dZ, *_, steps = corrector
            alpha_p, alpha_d = (min(1.0, 0.98 * step) for step in steps)

            for _ in range(6):
                new_x = X + alpha_p * dX
                new_z = Z + alpha_d * dZ
                factors = comp.cholesky(new_x, new_z)
                if factors is not None:
                    break
                alpha_p *= 0.5
                alpha_d *= 0.5
            clock.lap("step_search")
            if factors is None:
                note = "step rejected"
                break

            row[4:] = [sigma, alpha_p, alpha_d]
            z = z + alpha_p * dz
            X, Z = new_x, new_z
            chol_x, chol_z = factors

    if status is not SolveStatus.OPTIMAL:
        near = finite and _near(*best_triple)
        status = SolveStatus.NEAR_OPTIMAL if near else SolveStatus.NUMERICAL_FAILURE
    relgap, pres, dres = best_triple
    return finish(
        status,
        best_y,
        note,
        iteration,  # _MAX_ITERS >= 1: the loop ran
        best_dobj,
        relative_gap=relgap,
        primal_residual=pres,
        dual_residual=dres,
        best_iteration=best_iteration,
    )
