"""Ordered-median aggregation of rational functions and its polynomial lifts.

An ordered-median objective applies position-dependent weights to the sorted
values of finitely many rational functions.  This module models such problems
(``OmrfProblem``), evaluates them directly at a batch of points
(``OmrfProblem.objective_values``) or at one point as its one row
(``evaluate_ordered_median``), and rewrites them as polynomial optimization
problems over an extended variable set (``LiftedProblem``):

* ``build_general_lift`` sorts with a 0/1 assignment matrix (function,
  sorted position) and supports arbitrary, even polynomial, position
  weights.  Its columns sum to one, so the last row is one minus the
  others and only ``m*(m-1)`` entries are variables.  The assignment lift
  (``build_assignment``) is shared with the general location variant,
  which sorts weighted distances;
* ``build_telescoping`` handles constant weights by writing the objective
  as ``sum_k (lambda_k - lambda_{k+1}) S_k`` over the sums ``S_k`` of the k
  largest values: an epigraph variable and one slack per function for each
  level with a positive difference (the max level ``S_1`` needs no
  slacks), 0/1 selectors of the k largest values for each level with a
  negative one.  The top level ``S_m`` is the plain sum of the functions
  and enters the objective as it stands, unless clearing its denominators
  would raise the minimum relaxation order.

``build_auto`` sends nonincreasing nonnegative weights (the k-centrum
``(1,..,1,0,..,0)`` among them) and trimming windows
``(0,..,0,1,..,1,0,..,0)`` to the telescoping form, everything else to the
assignment lift.

Every builder emits redundant box and ball constraints so that the lifted
feasible set is compact with a structural certificate: for each variable some
inequality dominates its square (``putinar_structurally_bounded``).  The
clique list of each lift satisfies the running intersection property, which
downstream sparse relaxations rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .polynomial import (
    Monomial,
    Polynomial,
    RationalFunction,
    SemialgebraicSet,
    UniverseMismatchError,
    VariableUniverse,
    VarId,
    interval_enclosure,
)


class LiftBuildError(ValueError):
    """Raised when a reformulation cannot be built from the given problem."""


class EmptyProblemError(LiftBuildError):
    """Raised when a problem with zero functions is constructed."""


class PatternMismatchError(LiftBuildError):
    """Raised when a compact builder is applied to weights of the wrong shape."""


class EmptyWindowError(LiftBuildError):
    """Raised when trimming discards every function value."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaWeights:
    """Position weights applied to sorted function values.

    ``entries[j]`` multiplies the (j+1)-th largest function value.  Entries
    are polynomials in the original variables, so position weights may vary
    over the domain; constant weights unlock the compact reformulations.  The
    telescoping decomposition uses an implicit trailing weight of zero
    (see ``padded_constant_values``).
    """

    entries: Tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise EmptyProblemError("at least one position weight is required")
        universe = self.entries[0].universe
        for entry in self.entries[1:]:
            if entry.universe is not universe:
                raise UniverseMismatchError("weights from different variable universes")

    @staticmethod
    def constants(universe: VariableUniverse, values: Sequence[float]) -> "LambdaWeights":
        return LambdaWeights(tuple(Polynomial.constant(universe, float(v)) for v in values))

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def universe(self) -> VariableUniverse:
        return self.entries[0].universe

    def is_constant(self) -> bool:
        return all(entry.is_constant() for entry in self.entries)

    def constant_values(self) -> Tuple[float, ...]:
        if not self.is_constant():
            raise ValueError("weights are not constant")
        return tuple(entry.constant_value() for entry in self.entries)

    def padded_constant_values(self) -> Tuple[float, ...]:
        """Constant weights with the implicit trailing zero appended."""
        return self.constant_values() + (0.0,)

    def trimmed_window(self) -> Optional[Tuple[int, int]]:
        """The (k1, k2) of a ``(0^k1, 1^w, 0^k2)`` pattern with w >= 1, or None."""
        if not self.is_constant():
            return None
        values = self.constant_values()
        first = 0
        while first < len(values) and values[first] == 0.0:
            first += 1
        last = len(values)
        while last > first and values[last - 1] == 0.0:
            last -= 1
        if last == first or any(v != 1.0 for v in values[first:last]):
            return None
        return first, len(values) - last

    def is_monotone(self) -> bool:
        """True for constant, nonincreasing, nonnegative-tail weights."""
        if not self.is_constant():
            return False
        values = self.constant_values()
        return values[-1] >= 0.0 and all(a >= b for a, b in zip(values, values[1:]))


@dataclass(frozen=True)
class OmrfProblem:
    """Minimize an ordered-median aggregation of rational functions over a
    basic closed semialgebraic ground set.

    ``ball_bound`` is a constant M with sum(x_i^2) <= M on the ground set; it
    certifies compactness and sizes the boxes derived by the builders.
    Positivity of the function denominators on the ground set is a caller
    obligation, not proven here.
    """

    functions: Tuple[RationalFunction, ...]
    weights: LambdaWeights
    ground_set: SemialgebraicSet
    ball_bound: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "functions", tuple(self.functions))
        if not self.functions:
            raise EmptyProblemError("at least one function is required")
        if len(self.functions) != self.weights.m:
            raise ValueError(
                f"{len(self.functions)} functions but {self.weights.m} position weights"
            )
        universe = self.ground_set.universe
        if self.weights.universe is not universe:
            raise UniverseMismatchError("weights and ground set use different universes")
        for f in self.functions:
            if f.universe is not universe:
                raise UniverseMismatchError("function and ground set use different universes")
        self.ground_set.with_ball(self.ball_bound)

    @property
    def m(self) -> int:
        return len(self.functions)

    @property
    def universe(self) -> VariableUniverse:
        return self.ground_set.universe

    @property
    def region(self) -> SemialgebraicSet:
        """Ground set with the compactness ball attached over all variables."""
        return self.ground_set.with_ball(self.ball_bound)

    def objective_value(self, point: np.ndarray) -> float:
        return evaluate_ordered_median(self, point)

    def objective_values(self, points: np.ndarray) -> np.ndarray:
        """Ordered-median value at each row of the 2-D array ``points``.

        ``objective_value`` is its one-row case, so the two agree bit for
        bit.  Each row's function values are sorted nonincreasingly by a
        stable sort, so ties go by function index; weights may be constants
        or polynomials.  A row where some denominator is not positive gets
        +inf, where ``objective_value`` raises ``ValueError``.
        """
        x = np.asarray(points, dtype=float)
        values = np.zeros((len(x), self.m))
        undefined = np.zeros(len(x), dtype=bool)
        for i, f in enumerate(self.functions):
            den = f.denominator.evaluate_many(x)
            defined = den > 0.0
            undefined |= ~defined
            np.divide(f.numerator.evaluate_many(x), den, out=values[:, i], where=defined)
        order = np.argsort(-values, axis=1, kind="stable")
        ranked = np.take_along_axis(values, order, axis=1)
        total = np.zeros(len(x))
        for j, entry in enumerate(self.weights.entries):
            total += entry.evaluate_many(x) * ranked[:, j]
        total[undefined] = np.inf
        return total


@dataclass(frozen=True)
class LiftedProblem:
    """Polynomial optimization problem equivalent to an ``OmrfProblem``.

    The objective is the ratio ``objective_num / objective_den``.  The
    denominator is the product of the function denominators, except on
    telescoping lifts with neither a selector level nor a plain top-level
    sum, where it is 1.  ``cliques`` lists variable groups that cover the
    clique variables of every objective term and every inequality
    constraint; the ordered list satisfies the running intersection
    property.  A variable in no clique is *linear*: it may enter only terms
    of degree at most one, and relaxations hold its first moment alone.
    Equality constraints may couple variables across cliques (relaxations
    impose those only as scalar linear conditions).  ``variable_groups``
    records auxiliary variables by role ("w", "t", "r", "v") in
    construction order so witnesses and diagnostics can address them.
    ``matrix_inequalities`` lists symmetric matrices of polynomials G that
    are PSD on the feasible set, each by its upper triangle: row p holds
    G_pq for q >= p.  Like an inequality, each must have its clique
    variables in one clique.
    """

    universe: VariableUniverse
    objective_num: Polynomial
    objective_den: Polynomial
    inequality_constraints: Tuple[Polynomial, ...]
    equality_constraints: Tuple[Polynomial, ...]
    cliques: Tuple[Tuple[VarId, ...], ...]
    original_variables: Tuple[VarId, ...]
    form: str
    variable_groups: Tuple[Tuple[str, Tuple[VarId, ...]], ...] = ()
    matrix_inequalities: Tuple[Tuple[Tuple[Polynomial, ...], ...], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "inequality_constraints", tuple(self.inequality_constraints)
        )
        object.__setattr__(
            self,
            "matrix_inequalities",
            tuple(tuple(tuple(row) for row in G) for G in self.matrix_inequalities),
        )
        for G in self.matrix_inequalities:
            if [len(row) for row in G] != list(range(len(G), 0, -1)):
                raise ValueError("a matrix inequality must list its upper triangle by rows")
        object.__setattr__(self, "equality_constraints", tuple(self.equality_constraints))
        object.__setattr__(self, "cliques", tuple(tuple(c) for c in self.cliques))
        object.__setattr__(self, "original_variables", tuple(self.original_variables))
        universe = self.universe
        n_vars = len(universe)
        covered = {v for clique in self.cliques for v in clique}
        if not covered <= set(range(n_vars)):
            raise ValueError("cliques list a variable outside the universe")
        linear = set(range(n_vars)) - covered
        for poly in (
            self.objective_num,
            self.objective_den,
            *self.inequality_constraints,
            *self.equality_constraints,
            *(entry for G in self.matrix_inequalities for row in G for entry in row),
        ):
            if poly.universe is not universe:
                raise UniverseMismatchError("lifted polynomial from a different universe")
            if linear and any(
                m.degree > 1 and not linear.isdisjoint(m.variables()) for m in poly.terms
            ):
                raise ValueError(
                    "a variable in no clique may enter only terms of degree at most one"
                )
        if self.objective_den.is_zero():
            raise ValueError("objective denominator is identically zero")
        if not running_intersection_holds(self.cliques):
            raise ValueError("clique list violates the running intersection property")
        clique_sets = [frozenset(c) for c in self.cliques]

        def in_one_clique(variables) -> bool:
            support = set(variables) - linear
            return any(support <= cs for cs in clique_sets)

        for g in self.inequality_constraints:
            if not in_one_clique(g.variables()):
                raise ValueError("inequality support not contained in any clique")
        for G in self.matrix_inequalities:
            if not in_one_clique(v for row in G for entry in row for v in entry.variables()):
                raise ValueError("matrix inequality support not contained in any clique")
        for poly in (self.objective_num, self.objective_den):
            for mono in poly.terms:
                if not in_one_clique(mono.variables()):
                    raise ValueError("objective term spans multiple cliques")
        if self.original_variables != tuple(range(len(self.original_variables))):
            raise ValueError("original variables must occupy the leading identifiers")


# ---------------------------------------------------------------------------
# Structural checks and bounds
# ---------------------------------------------------------------------------


def running_intersection_holds(cliques: Sequence[Sequence[VarId]]) -> bool:
    """Check the running intersection property of an ordered clique list.

    Each clique's overlap with the union of its predecessors must be
    contained in a single predecessor.
    """
    sets = [set(c) for c in cliques]
    seen: set = set()
    for idx, current in enumerate(sets):
        if idx:
            overlap = current & seen
            if overlap and not any(overlap <= sets[k] for k in range(idx)):
                return False
        seen |= current
    return True


def putinar_structurally_bounded(lifted: LiftedProblem) -> bool:
    """True when every variable's square is dominated by some inequality.

    A structural compactness certificate: for each variable ``v`` some
    inequality constraint contains ``v**2`` with a negative coefficient, so
    the constraint set bounds ``v**2`` explicitly.
    """
    for vid in range(len(lifted.universe)):
        square = Monomial.of(vid, 2)
        if not any(g.coefficient(square) < 0.0 for g in lifted.inequality_constraints):
            return False
    return True


def function_bounds(problem: OmrfProblem) -> Tuple[Tuple[float, float], ...]:
    """Interval enclosures of each function's range over the ball box.

    The box is the per-coordinate interval [-sqrt(M), sqrt(M)] implied by the
    compactness bound; enclosures are conservative supersets of the true
    ranges.  Raises ``LiftBuildError`` when a denominator's enclosure is not
    strictly positive, since the quotient cannot be bounded that way.
    """
    radius = math.sqrt(problem.ball_bound)
    box = {vid: (-radius, radius) for vid in range(len(problem.universe))}
    bounds: List[Tuple[float, float]] = []
    for f in problem.functions:
        num_lo, num_hi = interval_enclosure(f.numerator, box)
        den = f.denominator
        if den.is_constant():
            c = den.constant_value()
            if c <= 0.0:
                raise LiftBuildError("constant denominator must be positive")
            bounds.append((num_lo / c, num_hi / c))
            continue
        den_lo, den_hi = interval_enclosure(den, box)
        if den_lo <= 0.0:
            raise LiftBuildError(
                "cannot certify a positive denominator over the ball box; "
                "tighten the ball bound or use polynomial functions"
            )
        quotients = (num_lo / den_lo, num_lo / den_hi, num_hi / den_lo, num_hi / den_hi)
        bounds.append((min(quotients), max(quotients)))
    return tuple(bounds)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate_ordered_median(problem: OmrfProblem, point: np.ndarray) -> float:
    """Weighted sum of sorted function values at ``point``: the one row of
    ``problem.objective_values``.

    Function values are sorted nonincreasingly (the j-th weight multiplies
    the j-th largest value).  Ties are broken by original function index,
    ascending, which also fixes the witness permutation; the value itself is
    tie-independent for constant weights.  Raises ``ValueError`` when a
    denominator is not positive at ``point``.
    """
    x = np.asarray(point, dtype=float)
    for f in problem.functions:
        f.evaluate(x)  # raises ValueError where the denominator is not positive
    return float(problem.objective_values(x[None, :])[0])


# ---------------------------------------------------------------------------
# Shared builder plumbing
# ---------------------------------------------------------------------------


@dataclass
class _Ground:
    """Original problem data transplanted into the extended universe."""

    ext: VariableUniverse
    numerators: List[Polynomial]
    denominators: List[Polynomial]
    lambdas: List[Polynomial]
    inequalities: List[Polynomial]
    equalities: List[Polynomial]
    x_ids: Tuple[VarId, ...]


def _rehome(poly: Polynomial, universe: VariableUniverse) -> Polynomial:
    # Variable ids are positional, so a polynomial transplants verbatim into
    # any universe whose leading names match its own.
    return Polynomial(universe, poly.terms)


def _fresh_name(universe: VariableUniverse, base: str) -> str:
    name = base
    while name in universe:
        name += "_"
    return name


def _prepare(problem: OmrfProblem) -> _Ground:
    base = problem.universe
    ext = VariableUniverse(base.names)
    region = problem.region
    inequalities = [_rehome(g, ext) for g in region.inequalities]
    ball = region.ball_polynomial()
    assert ball is not None  # region always carries the problem ball
    inequalities.append(_rehome(ball, ext))
    equalities = [_rehome(h, ext) for h in region.equalities]
    return _Ground(
        ext=ext,
        numerators=[_rehome(f.numerator, ext) for f in problem.functions],
        denominators=[_rehome(f.denominator, ext) for f in problem.functions],
        lambdas=[_rehome(entry, ext) for entry in problem.weights.entries],
        inequalities=inequalities,
        equalities=equalities,
        x_ids=tuple(range(len(base))),
    )


def _box_ball(
    universe: VariableUniverse, boxes: Sequence[Tuple[VarId, float, float]]
) -> Polynomial:
    """Redundant quadratic ball implied by per-variable boxes:
    sum of radius^2 minus sum of (v - center)^2."""
    total = Polynomial.constant(
        universe, sum(((hi - lo) / 2.0) ** 2 for _, lo, hi in boxes)
    )
    for vid, lo, hi in boxes:
        center = (hi + lo) / 2.0
        total = total - (Polynomial.variable(universe, vid) - center) ** 2
    return total


def _cleared_numerators(g: _Ground) -> Tuple[Polynomial, List[Polynomial]]:
    """The product of all denominators, and each numerator times the
    product of the other denominators (by prefix/suffix sweeps)."""
    one = Polynomial.constant(g.ext, 1.0)
    prefix = [one]
    for q in g.denominators:
        prefix.append(prefix[-1] * q)
    suffix = [one]
    for q in reversed(g.denominators):
        suffix.append(suffix[-1] * q)
    suffix.reverse()  # suffix[i] = product of denominators i..m-1
    m = len(g.denominators)
    return prefix[m], [g.numerators[i] * prefix[i] * suffix[i + 1] for i in range(m)]


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssignmentLift:
    """0/1 assignment encoding of the nonincreasing sort of ``m`` values.

    ``w_ij`` places value ``i`` at rank ``j``.  Each column of a permutation
    matrix sums to one, so only rows ``0..m-2`` are variables (``ids[i][j]``)
    and the last row is the expression ``w_mj = 1 - sum_{i<m} w_ij``.
    ``columns[j] = sum_i w_ij * value_i`` is the value at rank ``j``.  The
    constraints come in named pieces, so each front-end appends them in its
    own order: the equalities ``row_sums`` (``sum - 1`` of the variable
    rows; the last row's follows from them) and ``binaries[i][j] =
    w_ij**2 - w_ij`` of all ``m`` rows; the inequalities ``ordering[j] =
    columns[j] - columns[j + 1]`` and the redundant ``column_balls[j] = m -
    sum_i w_ij**2`` that keep the lift compact.  With ``m == 1`` there is
    nothing to lift: no variables and no constraints.
    """

    ids: Tuple[Tuple[VarId, ...], ...]
    columns: Tuple[Polynomial, ...]
    row_sums: Tuple[Polynomial, ...]
    binaries: Tuple[Tuple[Polynomial, ...], ...]
    ordering: Tuple[Polynomial, ...]
    column_balls: Tuple[Polynomial, ...]

    @property
    def flat_ids(self) -> Tuple[VarId, ...]:
        """The assignment variables row by row."""
        return tuple(vid for row in self.ids for vid in row)

    def cliques(self, shared: Sequence[VarId]) -> Tuple[Tuple[VarId, ...], ...]:
        """One clique per pair of adjacent rank columns, each with the
        ``shared`` variables (those alone when ``m == 1``)."""
        if not self.ids:
            return (tuple(sorted(shared)),)
        ranks = list(zip(*self.ids))  # ranks[j]: the variables of rank j
        return tuple(
            tuple(sorted([*shared, *ranks[j], *ranks[j + 1]])) for j in range(len(ranks) - 1)
        )


def build_assignment(ext: VariableUniverse, values: Sequence[Polynomial]) -> AssignmentLift:
    """Register the ``m*(m-1)`` assignment variables ``w_<i>_<j>`` of the
    first ``m - 1`` rows of ``values`` in ``ext``, row by row, and build
    their constraints over all ``m`` rows."""
    m = len(values)
    if m == 1:
        return AssignmentLift((), (values[0],), (), (), (), ())
    ids = tuple(
        tuple(ext.add(_fresh_name(ext, f"w_{i + 1}_{j + 1}")) for j in range(m))
        for i in range(m - 1)
    )
    w = [[Polynomial.variable(ext, vid) for vid in row] for row in ids]
    w.append([1.0 - sum(row[j] for row in w) for j in range(m)])
    columns = [sum(w[i][j] * values[i] for i in range(m)) for j in range(m)]
    return AssignmentLift(
        ids=ids,
        columns=tuple(columns),
        row_sums=tuple(sum(row) - 1.0 for row in w[:-1]),
        binaries=tuple(tuple(p**2 - p for p in row) for row in w),
        ordering=tuple(columns[j] - columns[j + 1] for j in range(m - 1)),
        column_balls=tuple(float(m) - sum(row[j] ** 2 for row in w) for j in range(m)),
    )


def build_general_lift(problem: OmrfProblem) -> LiftedProblem:
    """Rewrite with one 0/1 assignment variable per (function, position) pair.

    Supports arbitrary position weights, including polynomial and sign-mixed
    ones, at the cost of m*(m-1) auxiliary variables (the last row of the
    assignment is one minus the others, see ``AssignmentLift``).  Feasible
    assignments are exactly the permutation matrices that sort the function
    values nonincreasingly; the objective is the cleared-denominator
    weighted sum of sorted values over the product of all denominators.
    """
    g = _prepare(problem)
    m = problem.m
    ext = g.ext
    den_product, cleared = _cleared_numerators(g)
    # column[j](x, w) = sum_i w_ij * p_i * prod_{k != i} q_k
    lift = build_assignment(ext, cleared)

    objective_num = Polynomial.zero(ext)
    for j in range(m):
        objective_num = objective_num + g.lambdas[j] * lift.columns[j]

    equalities = [*g.equalities, *lift.row_sums]
    equalities.extend(b for row in lift.binaries for b in row)
    inequalities = [*g.inequalities, *lift.ordering, *lift.column_balls]
    return LiftedProblem(
        universe=ext,
        objective_num=objective_num,
        objective_den=den_product,
        inequality_constraints=tuple(inequalities),
        equality_constraints=tuple(equalities),
        cliques=lift.cliques(g.x_ids),
        original_variables=g.x_ids,
        form="general",
        variable_groups=(("w", lift.flat_ids),),
    )


def _telescoping_levels(problem: OmrfProblem) -> Tuple[List[float], List[int], List[int], bool]:
    """The differences ``D_k = lambda_k - lambda_{k+1}`` of constant weights
    (with ``lambda_{m+1} = 0``, indexed from 0), the levels that get an
    epigraph, the levels with ``D_k < 0``, and whether the top level
    ``S_m = sum_j f_j`` enters the objective as a plain sum.

    A positive top level is a plain sum unless that raises the lift's
    minimum relaxation order, the largest ``ceil(deg / 2)`` over its
    objective and constraints.  The two forms differ only there: the plain
    sum puts the objective over the product of the denominators, and the
    epigraph keeps it linear over 1 with the rows ``q_j (t + r_j) - p_j``.
    A selector level clears the objective over that product anyway, so with
    one the plain sum never raises the order.
    """
    m = problem.m
    padded = problem.weights.padded_constant_values()
    deltas = [padded[k] - padded[k + 1] for k in range(m)]
    positive = [k for k, d in enumerate(deltas) if d > 0.0]
    negative = [k for k, d in enumerate(deltas) if d < 0.0]
    direct = deltas[m - 1] > 0.0
    if direct and not negative:
        nums = [f.numerator.degree for f in problem.functions]
        dens = [f.denominator.degree for f in problem.functions]
        total = sum(dens)
        region = problem.region
        epigraph = max(
            2,  # the ball and the boxes
            *(max(q + 1, p) for p, q in zip(nums, dens)),
            *(h.degree for h in (*region.inequalities, *region.equalities)),
        )
        plain = max(
            total,
            *(p + total - q for p, q in zip(nums, dens)),
            total + 1 if len(positive) > 1 else 0,  # D_k t_k of the other levels
        )
        direct = (plain + 1) // 2 <= (epigraph + 1) // 2
    return deltas, positive[:-1] if direct else positive, negative, direct


def build_telescoping(problem: OmrfProblem) -> LiftedProblem:
    """Rewrite constant weights as the signed telescoping sum of
    sums-of-largest values: the objective is ``sum_k D_k S_k``, where
    ``S_k`` is the sum of the ``k`` largest values and
    ``D_k = lambda_k - lambda_{k+1}`` with ``lambda_{m+1} = 0``.

    The top level ``S_m`` is the plain sum ``sum_j f_j``.  With ``D_m > 0``
    it is added to the objective directly, unless clearing its
    denominators would raise the minimum relaxation order
    (``_telescoping_levels``).  Every other level with ``D_k > 0`` gets an
    epigraph variable ``t_k`` and slacks ``r_kj`` with ``t_k + r_kj >= f_j``
    (denominator-cleared), one clique ``(x, t_k, r_kj)`` per function, and
    adds ``D_k (k t_k + sum_j r_kj)``.  The max level ``S_1`` needs no
    slacks, since ``max_j f_j = min {t : t >= f_j}``: it gets ``t_1 >= f_j``
    and adds ``D_1 t_1``, in the one clique ``(x, t_1)``.  A level with
    ``D_k < 0`` gets 0/1 selectors ``v_kj`` with ``sum_j v_kj = k`` marking
    the ``k`` largest values and adds ``D_k sum_j v_kj f_j``; ``v_kj``
    joins column ``j``'s clique of the first epigraph level (so the max
    level's clique splits into ``(x, t_1, v_.j)``), or the clique
    ``(x, v_.j)`` when no level has an epigraph.  A plain sum or a selector
    level takes the whole objective over the product of the denominators.
    A level with ``D_k = 0`` gets no variables, so all-zero weights and
    polynomial plain sums leave the original variables alone in one
    clique.  Box and redundant ball constraints bound every auxiliary
    variable.  Weights (1,..,1,0,..,0), nonincreasing nonnegative weights
    and windows (0,..,0,1,..,1,0,..,0) have no or one negative level.
    """
    if not problem.weights.is_constant():
        raise PatternMismatchError("telescoping needs constant weights")
    m = problem.m
    deltas, epigraph, negative, direct = _telescoping_levels(problem)
    if negative and not (epigraph or direct):
        raise PatternMismatchError("weights need a level with lambda_k > lambda_{k+1}")
    g = _prepare(problem)
    ext = g.ext
    bounds = function_bounds(problem)
    lower = min(lo for lo, _ in bounds)
    upper = max(hi for _, hi in bounds)
    r_boxes = [(0.0, bounds[j][1] - lower) for j in range(m)]

    t_ids = [ext.add(_fresh_name(ext, f"t_{k + 1}")) for k in epigraph]
    r_ids = [  # the max level (k = 0) has no slacks
        [ext.add(_fresh_name(ext, f"r_{k + 1}_{j + 1}")) for j in range(m)] if k else []
        for k in epigraph
    ]
    v_ids = [
        [ext.add(_fresh_name(ext, f"v_{k + 1}_{j + 1}")) for j in range(m)] for k in negative
    ]
    t = [Polynomial.variable(ext, tid) for tid in t_ids]
    r = [[Polynomial.variable(ext, rid) for rid in row] for row in r_ids]
    v = [[Polynomial.variable(ext, vid) for vid in row] for row in v_ids]

    inequalities = list(g.inequalities)
    for tk, rk in zip(t, r):
        for j in range(m):  # t_k + r_kj >= f_j, denominators cleared
            inequalities.append(g.denominators[j] * (tk + rk[j] if rk else tk) - g.numerators[j])
    for rk in r:
        inequalities.extend(rk)
    for tk in t:
        inequalities.extend((tk - lower, upper - tk))
    for rk in r:
        inequalities.extend(hi - rj for rj, (_, hi) in zip(rk, r_boxes))
    # The boxes of each clique's auxiliaries: (t_k, r_kj) per epigraph level
    # and column (t_1 alone for the max level), with the selectors v_.j in
    # the first level's column j.
    clique_boxes = [
        [(tid, lower, upper)] + ([(rk_ids[j], *r_boxes[j])] if rk_ids else [])
        for tid, rk_ids in zip(t_ids, r_ids)
        for j in range(m)
    ]
    if v_ids:
        if not t_ids:
            clique_boxes = [[] for _ in range(m)]
        for j in range(m):
            clique_boxes[j].extend((row[j], 0.0, 1.0) for row in v_ids)
    x = list(g.x_ids)
    cliques = []
    for boxes in clique_boxes:  # redundant per-clique ball over the auxiliaries
        clique = tuple(sorted(x + [vid for vid, _, _ in boxes]))
        if clique not in cliques:  # the max level's columns, without selectors
            inequalities.append(_box_ball(ext, boxes))
            cliques.append(clique)

    equalities = list(g.equalities)
    for k, vk in zip(negative, v):
        selector_sum = Polynomial.constant(ext, -float(k + 1))
        for vj in vk:
            selector_sum = selector_sum + vj
        equalities.append(selector_sum)  # exactly k values are selected
        equalities.extend(vj**2 - vj for vj in vk)

    objective = Polynomial.zero(ext)
    for k, tk, rk in zip(epigraph, t, r):
        level = tk * float(k + 1)
        for rj in rk:
            level = level + rj
        objective = objective + deltas[k] * level
    objective_den = Polynomial.constant(ext, 1.0)
    if negative or direct:
        # (sum of the epigraph levels) * prod_j q_j
        #   + sum_k D_k sum_j v_kj p_j prod_{i != j} q_i
        #   + D_m sum_j p_j prod_{i != j} q_i  (the plain top level)
        objective_den, cleared = _cleared_numerators(g)
        objective = objective * objective_den
        for k, vk in zip(negative, v):
            for j in range(m):
                objective = objective + deltas[k] * (vk[j] * cleared[j])
        if direct:
            for j in range(m):
                objective = objective + deltas[m - 1] * cleared[j]

    return LiftedProblem(
        universe=ext,
        objective_num=objective,
        objective_den=objective_den,
        inequality_constraints=tuple(inequalities),
        equality_constraints=tuple(equalities),
        cliques=tuple(cliques) or (tuple(x),),
        original_variables=g.x_ids,
        form="telescoping",
        variable_groups=(
            ("t", tuple(t_ids)),
            ("r", tuple(rid for row in r_ids for rid in row)),
            ("v", tuple(vid for row in v_ids for vid in row)),
        ),
    )


def build_auto(problem: OmrfProblem) -> LiftedProblem:
    """Build the most compact recognized reformulation for the weights.

    Nonincreasing nonnegative constant weights and trimming windows
    ``(0,..,0,1,..,1,0,..,0)`` use the telescoping form; everything else
    falls back to the general assignment lift.
    """
    w = problem.weights
    if w.is_monotone() or w.trimmed_window() is not None:
        return build_telescoping(problem)
    return build_general_lift(problem)


# ---------------------------------------------------------------------------
# Witness construction
# ---------------------------------------------------------------------------


def lifted_witness(
    problem: OmrfProblem, lifted: LiftedProblem, point: np.ndarray
) -> np.ndarray:
    """Feasible point of the lifted problem corresponding to ``point``.

    Builds the auxiliary values implied by the tie-stable sorting of the
    function values at ``point``; the returned vector satisfies every lifted
    constraint, and the lifted objective evaluates to the ordered-median
    value there (the soundness property tests rely on both facts).
    """
    x = np.asarray(point, dtype=float)
    m = problem.m
    values = [f.evaluate(x) for f in problem.functions]
    order = np.argsort(-np.array(values), kind="stable").tolist()
    z = np.zeros(len(lifted.universe))
    z[: len(x)] = x
    groups: Dict[str, Tuple[VarId, ...]] = dict(lifted.variable_groups)
    if lifted.form == "general":
        flat_w = groups["w"]
        for position, func_index in enumerate(order):
            if func_index < m - 1:  # the last row is one minus the others
                z[flat_w[func_index * m + position]] = 1.0
    elif lifted.form == "telescoping":
        _, epigraph, negative, _ = _telescoping_levels(problem)
        slacks = iter(groups["r"])
        for level, k in enumerate(epigraph):  # t_k at the k-th largest value
            t_val = values[order[k]]
            z[groups["t"][level]] = t_val
            if k:  # the max level has no slacks
                for j in range(m):
                    z[next(slacks)] = max(0.0, values[j] - t_val)
        for level, k in enumerate(negative):  # v_kj marks the k largest values
            for position in range(k + 1):
                z[groups["v"][level * m + order[position]]] = 1.0
    else:
        raise ValueError(f"unknown lifted form {lifted.form!r}")
    return z
