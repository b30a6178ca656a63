"""Assembly of truncated moment relaxations in solver-neutral standard form.

Given a lifted problem (polynomial objective ratio, constraints, cliques),
this module produces the order-``r`` semidefinite relaxation: per-clique
moment blocks, localizing blocks for inequalities, expanded linear equality
rows, and a normalized rational objective.  The normalization L_y(q) = 1 is
eliminated by substituting the moment variable of q's graded-lex-smallest
monomial, so the assembled problem has ``y_dim`` free moment variables,
affine PSD blocks and affine equality rows — exactly the data a conic solver
consumes, and exactly the shape whose size statistics are reported.

Truncation conventions (fixed by the reference block structures and size
tables this package reproduces):

- a localizing block for an inequality of degree ``d`` is truncated at order
  ``r - max(1, ceil(d / 2))``, so its entries stay within degree 2r, the
  moments the clique moment blocks hold;
- an odd-degree inequality whose top-degree part is the negation of another
  inequality's (a pair such as v >= +-p with p odd) is truncated one order
  later, at ``r - max(1, d // 2)``: the pair bounds its degree-(2r + 1)
  moments from both sides;
- an equality of degree ``d`` is expanded against all multiplier monomials of
  degree at most ``min(r, 2r - d + (d % 2))`` over its assigned variables;
- a constraint is assigned the variables in the intersection of all cliques
  containing its support; equalities whose support lies in no single clique
  contribute a single scalar row L_y(h) = 0;
- paired inequalities and odd-degree equalities may reference moments of
  degree 2r + 1; the moment dictionary extends on demand.

Every block entry, equality row and the objective is built as an array of
raw terms in one pass (``localizing_forms``), and the pivot substitution is
applied to all of them at once (``_Eliminator.forms``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .moment import (
    LinearMatrixMap,
    MomentIndex,
    basis_rows,
    key_rows,
    local_basis,
    localizing_forms,
    monomial_rows,
    monomial_values,
    pair_rows,
)
from .omrf import running_intersection_holds
from .polynomial import COEFF_EPS, Polynomial, VariableUniverse, VarId


class RelaxationError(ValueError):
    """Base class for relaxation-assembly failures."""


class OrderTooSmallError(RelaxationError):
    """Requested relaxation order is below the problem's minimum order."""


class RelaxationStructureError(RelaxationError):
    """Constraint or objective structure incompatible with the cliques."""


# ---------------------------------------------------------------------------
# Orders
# ---------------------------------------------------------------------------


def _half_ceil(degree: int) -> int:
    return (degree + 1) // 2


def localizing_order(r: int, degree: int, paired: bool = False) -> int:
    """Truncation order of the localizing block for a degree-``degree``
    inequality at relaxation order ``r``; ``paired`` marks an odd-degree
    inequality whose top-degree part another one negates (see
    ``_paired_inequalities``)."""
    return r - max(1, degree // 2 if paired else _half_ceil(degree))


def multiplier_degree(r: int, degree: int) -> int:
    """Largest multiplier-monomial degree for a degree-``degree`` equality."""
    return min(r, 2 * r - degree + (degree % 2))


@dataclass(frozen=True)
class RelaxationOrders:
    """Half-degrees of all problem pieces and the resulting minimum order.

    ``inequality_orders`` and ``equality_orders`` hold ceil(deg/2) per lifted
    constraint, in constraint order; ``objective_order`` covers both the
    numerator and the denominator.  Any relaxation order r >= ``r_min`` is
    admissible.
    """

    r_min: int
    objective_order: int
    inequality_orders: Tuple[int, ...]
    equality_orders: Tuple[int, ...]

    def validate(self, r: int) -> None:
        if r < self.r_min:
            raise OrderTooSmallError(
                f"relaxation order {r} is below the minimum order {self.r_min}"
            )


def min_order(lifted) -> RelaxationOrders:
    """Minimum admissible relaxation order of a lifted problem."""
    objective_order = max(
        _half_ceil(lifted.objective_num.degree),
        _half_ceil(lifted.objective_den.degree),
    )
    inequality_orders = tuple(
        _half_ceil(g.degree) for g in lifted.inequality_constraints
    )
    equality_orders = tuple(
        _half_ceil(h.degree) for h in lifted.equality_constraints
    )
    r_min = max(1, objective_order, *inequality_orders, *equality_orders, 0)
    return RelaxationOrders(
        r_min, objective_order, inequality_orders, equality_orders
    )


# ---------------------------------------------------------------------------
# Standard-form data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineForm:
    """Sparse affine functional  constant + sum_i coefficients[i] * y[indices[i]]."""

    indices: Tuple[int, ...]
    coefficients: Tuple[float, ...]
    constant: float = 0.0

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.coefficients):
            raise ValueError("index/coefficient length mismatch")

    def evaluate(self, y: np.ndarray) -> float:
        total = self.constant
        for idx, coeff in zip(self.indices, self.coefficients):
            total += coeff * y[idx]
        return float(total)

    @property
    def nnz(self) -> int:
        return len(self.indices)


def _affine_from_dict(acc: Dict[int, float], constant: float) -> AffineForm:
    items = sorted((i, c) for i, c in acc.items() if abs(c) > COEFF_EPS)
    return AffineForm(
        tuple(i for i, _ in items), tuple(c for _, c in items), constant
    )


@dataclass(frozen=True, eq=False)
class PsdBlock(LinearMatrixMap):
    """One semidefinite block: an affine symmetric matrix map of the moments.

    The entry arrays (see ``LinearMatrixMap``) hold the upper triangle
    only, in row-major order; structurally zero entries are omitted.
    ``variables`` records the variable ids the block was built over, and
    ``basis`` the monomial row b_i (see ``moment``) of each row i: entry
    (i, j) is L_y(g b_i b_j), with g = 1 in a moment block.  Both may be
    empty or None on hand-built problems.
    """

    kind: str  # "moment" | "localizing"
    label: str
    variables: Tuple[VarId, ...]
    basis: Optional[np.ndarray] = None


@dataclass(frozen=True)
class EqualityRow:
    """One scalar equality  form(y) = rhs  (the form carries no constant)."""

    label: str
    form: AffineForm
    rhs: float

    def __post_init__(self) -> None:
        if self.form.constant != 0.0:
            raise ValueError("equality forms must carry constants in rhs")

    def residual(self, y: np.ndarray) -> float:
        return self.form.evaluate(y) - self.rhs


@dataclass(frozen=True)
class SizeStats:
    """Standard-form matrix dimensions and fill."""

    cols: int
    rows: int
    nonzero_pct: float


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """Order-``order`` moment relaxation in eliminated standard form.

    Minimize ``objective`` over moment vectors y (length ``y_dim``) subject
    to every ``psd_blocks`` map being PSD and every ``equalities`` row
    holding.  The normalization L_y(q) = 1 has been eliminated: the moment of
    the pivot monomial is ``pivot_substitution`` evaluated at y, and constant
    offsets appear inside the affine maps.

    Metadata fields support moment evaluation and point extraction; they may
    be None on hand-built problems.  ``moment_rows`` holds the monomial row
    (see ``moment``) of every y index, in y order; ``universe`` numbers
    their variables and ``denominator`` is the normalization polynomial q.
    Structural equality compares the numeric content only.
    """

    y_dim: int
    order: int
    objective: AffineForm
    psd_blocks: Tuple[PsdBlock, ...]
    equalities: Tuple[EqualityRow, ...]
    pivot_substitution: AffineForm
    moment_scales: Tuple[float, ...]
    original_variables: Tuple[VarId, ...]
    stats: SizeStats = field(init=False)
    moment_rows: Optional[np.ndarray] = None
    universe: Optional[VariableUniverse] = None
    denominator: Optional[Polynomial] = None

    def __post_init__(self) -> None:
        if self.moment_scales and len(self.moment_scales) != self.y_dim:
            raise ValueError("moment_scales length must equal y_dim")
        for idx in self.objective.indices + self.pivot_substitution.indices:
            if not 0 <= idx < self.y_dim:
                raise ValueError("objective/pivot index out of range")
        for block in self.psd_blocks:
            if np.any((block.indices < 0) | (block.indices >= self.y_dim)):
                raise ValueError("block index out of range")
        for row in self.equalities:
            if not all(0 <= idx < self.y_dim for idx in row.form.indices):
                raise ValueError("equality index out of range")
        object.__setattr__(self, "stats", size_stats_of(self))

    def _require_metadata(self) -> None:
        if self.moment_rows is None or self.universe is None or self.denominator is None:
            raise RelaxationStructureError(
                "operation requires moment metadata (absent on hand-built problems)"
            )


def dirac_moment_vector(sdp: SdpProblem, point: np.ndarray) -> np.ndarray:
    """Free-moment vector of the normalized Dirac measure at ``point``.

    ``point`` assigns a value to every lifted variable.  The measure is the
    Dirac delta scaled by 1/q(point) so the normalization L_y(q) = 1 holds;
    by construction it satisfies every relaxation constraint whenever the
    point is feasible for the lifted problem.
    """
    sdp._require_metadata()
    scale = sdp.denominator.evaluate(point)
    if scale <= 0.0:
        raise ValueError("denominator must be positive at the point")
    return monomial_values(sdp.moment_rows, point) / scale


# ---------------------------------------------------------------------------
# Size statistics
# ---------------------------------------------------------------------------


def size_stats_of(sdp: "SdpProblem") -> SizeStats:
    """Dimensions and fill of the vectorized standard form.

    Columns: every PSD block contributes its full squared size, plus one
    column per equality row.  Rows: the free moment variables.  Nonzeros:
    coefficients on free moments in block entries (off-diagonal entries count
    twice) and equality rows; constants and right-hand sides do not count.
    """
    cols = sum(b.size * b.size for b in sdp.psd_blocks) + len(sdp.equalities)
    rows = sdp.y_dim
    nnz = sum(b.nonzero_count() for b in sdp.psd_blocks)
    nnz += sum(row.form.nnz for row in sdp.equalities)
    denom = cols * rows
    pct = 100.0 * nnz / denom if denom else 0.0
    return SizeStats(cols, rows, pct)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def _basis_variables(
    support: Tuple[VarId, ...], cliques: Sequence[Tuple[VarId, ...]]
) -> Optional[Tuple[VarId, ...]]:
    """Variables assigned to a constraint: the intersection of all cliques
    containing its support, or None when no clique contains it."""
    containing = [set(c) for c in cliques if set(support) <= set(c)]
    if not containing:
        return None
    shared = set.intersection(*containing)
    return tuple(sorted(shared))


def _paired_inequalities(inequalities: Sequence[Polynomial]) -> List[bool]:
    """Per inequality: whether it is of odd degree >= 3 and the negation of
    its top-degree homogeneous part is the top part of another inequality."""

    def top(g: Polynomial, sign: float) -> frozenset:
        return frozenset((m, sign * c) for m, c in g.terms.items() if m.degree == g.degree)

    odd = [g.degree >= 3 and g.degree % 2 == 1 for g in inequalities]
    tops = {top(g, 1.0) for g, is_odd in zip(inequalities, odd) if is_odd}
    return [is_odd and top(g, -1.0) in tops for g, is_odd in zip(inequalities, odd)]


class _Eliminator:
    """Rewrites raw moment-position forms over the free moments, substituting
    the pivot moment via the normalization row.  ``positions`` are the raw
    positions of the denominator's terms, in term order."""

    def __init__(self, denominator: Polynomial, positions: np.ndarray, n_raw: int) -> None:
        terms = denominator.terms
        pivot = min(terms, key=lambda m: m.grlex_key())
        pivot_coeff = terms[pivot]
        self.pivot_raw = int(positions[list(terms).index(pivot)])
        self.y_dim = n_raw - 1
        # y_pivot = (1 - sum_{other} q_gamma y_gamma) / q_pivot
        acc: Dict[int, float] = {}
        for (mono, coeff), raw in zip(terms.items(), positions.tolist()):
            if mono == pivot:
                continue
            idx = raw - (raw > self.pivot_raw)
            acc[idx] = acc.get(idx, 0.0) - coeff / pivot_coeff
        self.substitution = _affine_from_dict(acc, 1.0 / pivot_coeff)

    def forms(self, n_forms: int, form: np.ndarray, raw: np.ndarray, coef: np.ndarray):
        """The forms of the raw terms (form, raw position, coefficient) over
        the free moments: per form its constant, and its terms in CSR layout
        (indptr, indices, coefficients) sorted by index, with the terms of
        one index summed and those of magnitude <= COEFF_EPS dropped."""
        pivot = raw == self.pivot_raw
        constants = np.zeros(n_forms)
        constants[form[pivot]] += coef[pivot] * self.substitution.constant
        sub_indices = np.array(self.substitution.indices, dtype=np.int64)
        sub_coefficients = np.array(self.substitution.coefficients, dtype=float)
        hits = int(np.count_nonzero(pivot))
        direct = raw[~pivot]
        form = np.concatenate([form[~pivot], np.repeat(form[pivot], sub_indices.size)])
        index = np.concatenate(
            [direct - (direct > self.pivot_raw), np.tile(sub_indices, hits)]
        )
        value = np.concatenate(
            [
                coef[~pivot],
                np.repeat(coef[pivot], sub_indices.size) * np.tile(sub_coefficients, hits),
            ]
        )
        width = max(self.y_dim, 1)
        keys, inverse = np.unique(form * width + index, return_inverse=True)
        sums = np.bincount(inverse, weights=value, minlength=keys.size)
        keep = np.abs(sums) > COEFF_EPS
        form, index = np.divmod(keys[keep], width)
        return constants, np.searchsorted(form, np.arange(n_forms + 1)), index, sums[keep]


def _strict_terms(p: Polynomial, index: MomentIndex, what: str):
    """Positions and coefficients of the terms of ``p``, all of which must
    be indexed."""
    terms = p.terms
    monos = list(terms)
    positions = index.lookup(monomial_rows(monos, p.degree))
    missing = np.flatnonzero(positions < 0)
    if missing.size:
        raise RelaxationStructureError(
            f"{what} references monomial {monos[missing[0]]!r} outside every clique range"
        )
    return positions, np.array(list(terms.values()), dtype=float)


def _build(lifted, r: int, cliques: Sequence[Tuple[VarId, ...]]) -> SdpProblem:
    orders = min_order(lifted)
    orders.validate(r)
    universe = lifted.universe
    index = MomentIndex(universe)
    index.intern(np.concatenate([basis_rows(clique, 2 * r) for clique in cliques]))

    # Local bases and their pair products, by (variable count, degree).
    tables: Dict[Tuple[int, int], Tuple[np.ndarray, ...]] = {}

    def basis(variables: Sequence[VarId], degree: int):
        """Global basis rows, entry rows, entry columns and pair products."""
        key = (len(variables), degree)
        if key not in tables:
            rows = local_basis(*key)
            tables[key] = (rows, *pair_rows(rows))
        ids = np.array(sorted(variables) + [-1], dtype=np.int64)
        rows, i, j, pairs = tables[key]
        return ids[rows], i, j, ids[pairs]

    # Raw block entries: clique moment blocks, then one localizing block per
    # inequality, each a product polynomial times basis pair.
    one = Polynomial.constant(universe, 1.0)
    products: List[np.ndarray] = []
    polys: List[Polynomial] = []
    blocks: List[Tuple[str, str, Tuple[VarId, ...], np.ndarray, np.ndarray, np.ndarray]] = []
    for c_idx, clique in enumerate(cliques):
        rows, i, j, pairs = basis(clique, r)
        blocks.append(("moment", f"moment.c{c_idx}", tuple(clique), rows, i, j))
        products.append(pairs)
        polys.append(one)
    paired = _paired_inequalities(lifted.inequality_constraints)
    for g_idx, g in enumerate(lifted.inequality_constraints):
        assigned = _basis_variables(g.variables(), cliques)
        if assigned is None:
            raise RelaxationStructureError(
                f"inequality {g_idx} is supported on no single clique"
            )
        rows, i, j, pairs = basis(assigned, localizing_order(r, g.degree, paired[g_idx]))
        blocks.append(("localizing", f"loc.g{g_idx}", assigned, rows, i, j))
        products.append(pairs)
        polys.append(g)
    n_entries = sum(i.size for *_, i, _ in blocks)

    # Raw equality rows: clique-local equalities against all multipliers,
    # cross-clique equalities as a single scalar row.
    labels: List[str] = []
    expanded_rows: List[int] = []
    strict: List[Tuple[int, Tuple[np.ndarray, np.ndarray]]] = []
    for h_idx, h in enumerate(lifted.equality_constraints):
        assigned = _basis_variables(h.variables(), cliques)
        if assigned is None:
            strict.append((len(labels), _strict_terms(h, index, f"equality {h_idx}")))
            labels.append(f"eq{h_idx}.cross")
            continue
        multipliers = basis(assigned, multiplier_degree(r, h.degree))[0]
        expanded_rows.extend(range(len(labels), len(labels) + len(multipliers)))
        labels.extend(f"eq{h_idx}.m{m_idx}" for m_idx in range(len(multipliers)))
        products.append(multipliers)
        polys.append(h)

    strict.append((len(labels), _strict_terms(lifted.objective_num, index, "objective")))
    den_positions, _ = _strict_terms(lifted.objective_den, index, "normalization")
    expanded, raw, coef = localizing_forms(index, products, polys)

    # Forms: the block entries, the equality rows, the objective.
    n_forms = n_entries + len(labels) + 1
    form_of = np.concatenate(
        [np.arange(n_entries), n_entries + np.array(expanded_rows, dtype=np.int64)]
    )
    forms, raws, coefs = [form_of[expanded]], [raw], [coef]
    for row, (positions, coefficients) in strict:
        forms.append(np.full(positions.size, n_entries + row))
        raws.append(positions)
        coefs.append(coefficients)

    eliminator = _Eliminator(lifted.objective_den, den_positions, index.n_moments)
    constants, indptr, indices, coefficients = eliminator.forms(
        n_forms, np.concatenate(forms), np.concatenate(raws), np.concatenate(coefs)
    )

    keep = (np.diff(indptr) > 0) | (constants != 0.0)
    psd_blocks: List[PsdBlock] = []
    start = 0
    for kind, label, variables, rows, i, j in blocks:
        stop = start + i.size
        kept = np.flatnonzero(keep[start:stop])
        lo, hi = indptr[start], indptr[stop]
        psd_blocks.append(
            PsdBlock(
                size=len(rows),
                rows=i[kept],
                cols=j[kept],
                constants=constants[start + kept],
                indptr=np.append(indptr[start + kept], hi) - lo,
                indices=indices[lo:hi],
                coefficients=coefficients[lo:hi],
                kind=kind,
                label=label,
                variables=variables,
                basis=rows,
            )
        )
        start = stop

    ptr = indptr.tolist()
    index_list = indices.tolist()
    coefficient_list = coefficients.tolist()
    constant_list = constants.tolist()

    def affine(f: int, constant: float) -> AffineForm:
        span = slice(ptr[f], ptr[f + 1])
        return AffineForm(tuple(index_list[span]), tuple(coefficient_list[span]), constant)

    equalities: List[EqualityRow] = []
    for row, label in enumerate(labels):
        f = n_entries + row
        rhs = -constant_list[f]
        if ptr[f] == ptr[f + 1]:
            if abs(rhs) > 1e-9:
                raise RelaxationStructureError(
                    f"equality row {label} reduces to the contradiction 0 = {rhs}"
                )
            continue  # structurally vacuous
        equalities.append(EqualityRow(label, affine(f, 0.0), rhs))

    objective = affine(n_forms - 1, constant_list[n_forms - 1])

    moment_rows = np.delete(key_rows(index.keys, len(universe)), eliminator.pivot_raw, axis=0)
    per_var = np.array(lifted.variable_scales or [1.0] * len(universe), dtype=float)

    return SdpProblem(
        y_dim=eliminator.y_dim,
        order=r,
        objective=objective,
        psd_blocks=tuple(psd_blocks),
        equalities=tuple(equalities),
        pivot_substitution=eliminator.substitution,
        moment_scales=tuple(monomial_values(moment_rows, per_var).tolist()),
        original_variables=tuple(lifted.original_variables),
        moment_rows=moment_rows,
        universe=universe,
        denominator=lifted.objective_den,
    )


def build_dense(lifted, r: int) -> SdpProblem:
    """Order-``r`` dense relaxation: one moment block over all variables."""
    all_vars = tuple(range(len(lifted.universe)))
    return _build(lifted, r, (all_vars,))


def build_sparse(lifted, r: int) -> SdpProblem:
    """Order-``r`` clique-sparse relaxation over ``lifted.cliques``."""
    cliques = tuple(tuple(c) for c in lifted.cliques)
    if not cliques:
        raise RelaxationStructureError("sparse build requires at least one clique")
    if not running_intersection_holds(cliques):
        raise RelaxationStructureError(
            "cliques violate the running intersection property"
        )
    return _build(lifted, r, cliques)
