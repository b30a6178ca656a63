"""Single-facility location models lifted to sparse polynomial optimization.

A :class:`LocationInstance` holds anchor points with nonnegative weights, a
rational norm exponent tau = r/s >= 1 and an aggregation ``variant`` of the
weighted tau-norm distances from the facility to the anchors: their sum
(``weber``), the largest (``center``), the sum of the k largest
(``kcentrum``), a two-sided trimmed sum (``trimmed``), the spread between
largest and smallest (``range``), or an ordered-median combination with
per-rank weights (``general``).  :func:`build_lifted` turns it into the
:class:`~owasdp.omrf.LiftedProblem` whose optimum is that aggregation, and
:func:`lifted_witness` maps a facility position to a feasible point of it.

``build_lifted`` first builds the shared scaffold: the ground set's
constraints and the norm lift (a distance variable per anchor and, for
non-Euclidean exponents, one coordinate variable per dimension carrying
``|x_l - a_l|**(r/s)``).  Even numerators make the lift exact through
equalities; odd numerators use two-sided inequalities that are tight under
minimization whenever the rank weights are nonnegative, so with an odd
numerator the aggregations that reward large distances (range, sign-mixed
rank weights, trimmed selectors) also cap each distance variable.  The
variant's builder then adds its aggregation variables, constraints and
cliques; the general variant takes the assignment lift of
:func:`~owasdp.omrf.build_assignment`, the one ``build_general_lift`` uses,
over the weighted distances.

Per-anchor variables stay in their own clique (all cliques share the
facility coordinates plus any aggregation variables), and every anchor has
its own compactness ball, so the problems relax with clique-sized moment
blocks instead of one dense block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .omrf import (
    EmptyProblemError,
    EmptyWindowError,
    LiftBuildError,
    LiftedProblem,
    _fresh_name,
    _rehome,
    build_assignment,
)
from .polynomial import (
    Polynomial,
    SemialgebraicSet,
    VariableUniverse,
    VarId,
)

__all__ = [
    "VARIANTS",
    "InvalidNormError",
    "LocationInstance",
    "build_lifted",
    "calibrate_ball",
    "lifted_witness",
    "random_instance",
]

VARIANTS = ("weber", "center", "kcentrum", "trimmed", "range", "general")


class InvalidNormError(LiftBuildError):
    """Raised when a norm exponent pair is not a reduced rational >= 1."""


def _integer(value, what: str) -> int:
    """``value`` as an int; ValueError unless it is an integer (bools are
    not), so that no fractional count is truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _default_ball(
    points: Sequence[Sequence[float]],
    weights: Sequence[float],
    norm_tau: Tuple[int, int],
    variant: str,
) -> float:
    """Data-derived squared-radius bound certifying a compact search region.

    The bound sums the worst case, over facility positions in the anchors'
    bounding box, of every quantity the per-anchor ball constraints carry:
    the squared position norm (a_sq), the squared tau-norm distance together
    with its squared coordinate lifts (lift_load, the largest
    u_i**2 + sum_l v_il**2), and the squared aggregation variables, bounded
    through the largest weighted distance w_i * u_i (cost_cap), floored at
    ``4``.  Every aggregation built here attains its minimum on the bounding
    box, so adding a ball of this size never cuts an optimum, and every
    anchor lies inside it."""
    pts = np.asarray(points, dtype=float)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    a_sq = float(np.maximum(lo * lo, hi * hi).sum())
    r, s = norm_tau
    tau = r / s
    spans = np.maximum(pts - lo, hi - pts)  # max |x_l - a_il| over the box
    u_cap = (spans**tau).sum(axis=1) ** (1.0 / tau)
    v_sq = (spans ** (2.0 * tau)).sum(axis=1) if s != 1 or r % 2 == 1 else 0.0
    lift_load = float(np.max(u_cap * u_cap + v_sq))
    cost_cap = float(np.max(np.asarray(weights, dtype=float) * u_cap))
    extra = {
        "weber": 0.0,
        "general": 0.0,
        "center": cost_cap**2,
        "kcentrum": cost_cap**2,
        "trimmed": 2.0 * cost_cap**2 + 1.0,
        "range": 2.0 * cost_cap**2,
    }[variant]
    return max(4.0, a_sq + lift_load + extra)


@dataclass(frozen=True)
class LocationInstance:
    """A single-facility location problem over weighted tau-norm distances.

    ``points`` are the anchor coordinates (one tuple per anchor, all the same
    dimension).  ``weights`` multiply each anchor's distance before
    aggregation and default to all ones.  ``norm_tau = (r, s)`` fixes the
    distance norm ``l_{r/s}`` through a coprime integer pair with
    ``r >= s >= 1``.  ``variant`` selects the aggregation; ``k`` (kcentrum),
    ``trim = (k1, k2)`` (trimmed) and ``position_lambda`` (general) carry the
    variant's parameters and are rejected on any other variant.

    ``ground_set`` constrains the facility position; it must be a set over
    exactly the facility coordinates and defaults to free space.
    ``ball_bound`` is a constant M with ``sum(x_l**2) <= M`` at any candidate
    optimum; when omitted it is derived from the data: the worst case over
    the anchors' bounding box of every quantity the ball constraints carry
    (``_default_ball``).  Anchor coordinates, anchor weights and rank
    weights must be finite, and ``k`` and the ``trim`` counts integers.
    """

    points: Tuple[Tuple[float, ...], ...]
    weights: Optional[Sequence[float]] = None
    norm_tau: Tuple[int, int] = (2, 1)
    variant: str = "weber"
    k: Optional[int] = None
    trim: Optional[Tuple[int, int]] = None
    position_lambda: Optional[Sequence[float]] = None
    ground_set: Optional[SemialgebraicSet] = None
    ball_bound: Optional[float] = None

    def __post_init__(self) -> None:
        pts = tuple(tuple(float(c) for c in p) for p in self.points)
        if not pts:
            raise EmptyProblemError("at least one anchor point is required")
        dim = len(pts[0])
        if dim < 1:
            raise ValueError("anchor points need at least one coordinate")
        if any(len(p) != dim for p in pts):
            raise ValueError("anchor points have mixed dimensions")
        if not all(math.isfinite(c) for p in pts for c in p):
            raise ValueError("anchor coordinates must be finite")
        object.__setattr__(self, "points", pts)
        n = len(pts)

        if self.weights is None:
            wts = (1.0,) * n
        else:
            wts = tuple(float(v) for v in self.weights)
            if len(wts) != n:
                raise ValueError(f"{len(wts)} weights for {n} anchor points")
            if not all(math.isfinite(v) for v in wts):
                raise ValueError("anchor weights must be finite")
            if any(v < 0.0 for v in wts):
                raise ValueError("anchor weights must be nonnegative")
        object.__setattr__(self, "weights", wts)

        if len(tuple(self.norm_tau)) != 2:
            raise InvalidNormError("norm_tau must be an (r, s) integer pair")
        r, s = self.norm_tau
        for v in (r, s):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise InvalidNormError("norm exponents must be integers")
        r, s = int(r), int(s)
        if s < 1 or r < s:
            raise InvalidNormError("norm exponent tau = r/s needs r >= s >= 1")
        if math.gcd(r, s) != 1:
            raise InvalidNormError("norm exponent pair must be coprime")
        object.__setattr__(self, "norm_tau", (r, s))

        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")

        if self.variant == "kcentrum":
            if self.k is None:
                raise ValueError("the kcentrum variant requires k")
            k = _integer(self.k, "k")
            if not 1 <= k <= n:
                raise ValueError(f"k must satisfy 1 <= k <= n, got {k} with n={n}")
            object.__setattr__(self, "k", k)
        elif self.k is not None:
            raise ValueError("k is only meaningful for the kcentrum variant")

        if self.variant == "trimmed":
            if self.trim is None:
                raise ValueError("the trimmed variant requires trim=(k1, k2)")
            k1, k2 = (_integer(v, "each trim count") for v in self.trim)
            if k1 < 0 or k2 < 0:
                raise ValueError("trim counts must be nonnegative")
            if k1 + k2 >= n:
                raise EmptyWindowError(f"trim=({k1}, {k2}) removes all {n} points")
            object.__setattr__(self, "trim", (k1, k2))
        elif self.trim is not None:
            raise ValueError("trim is only meaningful for the trimmed variant")

        if self.variant == "general":
            if self.position_lambda is None:
                raise ValueError("the general variant requires position_lambda")
            lam = tuple(float(v) for v in self.position_lambda)
            if len(lam) != n:
                raise ValueError(f"{len(lam)} rank weights for {n} anchor points")
            if not all(math.isfinite(v) for v in lam):
                raise ValueError("rank weights must be finite")
            object.__setattr__(self, "position_lambda", lam)
        elif self.position_lambda is not None:
            raise ValueError("position_lambda is only meaningful for the general variant")

        gs = self.ground_set
        if gs is None:
            universe = VariableUniverse([f"x{l + 1}" for l in range(dim)])
            gs = SemialgebraicSet(universe, [], [])
            object.__setattr__(self, "ground_set", gs)
        elif len(gs.universe) != dim:
            raise ValueError(
                f"ground set has {len(gs.universe)} variables but anchors have"
                f" {dim} coordinates; it must range over exactly the facility position"
            )

        if self.ball_bound is not None:
            bound = float(self.ball_bound)
        elif gs.ball_bound is not None:
            bound = float(gs.ball_bound)
        else:
            bound = _default_ball(pts, wts, (r, s), self.variant)
        gs.with_ball(bound)
        a_sq = max(sum(c * c for c in p) for p in pts)
        if bound < a_sq:
            raise ValueError(
                f"ball bound {bound} does not contain the anchor with squared norm {a_sq}"
            )
        object.__setattr__(self, "ball_bound", bound)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return len(self.points[0])

    @property
    def tau(self) -> float:
        return self.norm_tau[0] / self.norm_tau[1]

    @property
    def universe(self) -> VariableUniverse:
        return self.ground_set.universe

    @property
    def region(self) -> SemialgebraicSet:
        """Ground set with the compactness ball attached over the coordinates."""
        return self.ground_set.with_ball(self.ball_bound)

    def position_weights(self) -> Tuple[float, ...]:
        """Rank weights applied to the weighted distances sorted descending."""
        n = self.n
        if self.variant == "weber":
            return (1.0,) * n
        if self.variant == "center":
            return (1.0,) + (0.0,) * (n - 1)
        if self.variant == "kcentrum":
            assert self.k is not None
            return (1.0,) * self.k + (0.0,) * (n - self.k)
        if self.variant == "trimmed":
            assert self.trim is not None
            k1, k2 = self.trim
            return (0.0,) * k1 + (1.0,) * (n - k1 - k2) + (0.0,) * k2
        if self.variant == "range":
            if n == 1:
                return (0.0,)
            return (1.0,) + (0.0,) * (n - 2) + (-1.0,)
        assert self.position_lambda is not None
        return tuple(self.position_lambda)

    def distances(self, point: Sequence[float]) -> np.ndarray:
        """tau-norm distances from ``point`` to each anchor."""
        x = np.asarray(point, dtype=float)
        diffs = np.abs(x[None, :] - np.asarray(self.points, dtype=float))
        t = self.tau
        return np.power(np.power(diffs, t).sum(axis=1), 1.0 / t)

    def objective_value(self, point: Sequence[float]) -> float:
        """Aggregated weighted distance at ``point`` (sorted descending;
        ties broken by anchor index ascending)."""
        costs = np.asarray(self.weights) * self.distances(point)
        order = sorted(range(self.n), key=lambda i: (-costs[i], i))
        lam = self.position_weights()
        return float(sum(lam[j] * costs[order[j]] for j in range(self.n)))

    def objective_values(self, points: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`objective_value` over rows of ``points``."""
        pts = np.asarray(points, dtype=float)
        anchors = np.asarray(self.points, dtype=float)
        diffs = np.abs(pts[:, None, :] - anchors[None, :, :])
        t = self.tau
        dists = np.power(np.power(diffs, t).sum(axis=2), 1.0 / t)
        costs = np.sort(dists * np.asarray(self.weights)[None, :], axis=1)[:, ::-1]
        return costs @ np.asarray(self.position_weights())


def calibrate_ball(
    instance: LocationInstance,
    candidate: Sequence[float],
    margin: float = 1.25,
) -> float:
    """Snug ball bound derived from a near-optimal facility position.

    Evaluates, at ``candidate``, every quantity that the instance's ball
    constraints carry (squared position norm, per-anchor squared distances
    and coordinate lifts, and the aggregation variables at their optimal
    values for that position), takes the largest per-anchor total, and scales
    it by ``margin`` to absorb the candidate's suboptimality.  The result is
    floored at the largest squared anchor norm so the instance invariant
    keeps holding.  A tighter ball sharpens the relaxation considerably, so
    pipelines that already run a direct search should feed its best point
    back through this function.
    """
    if margin < 1.0:
        raise ValueError("margin must be at least 1")
    point = np.asarray(candidate, dtype=float)
    if point.shape != (instance.dim,):
        raise ValueError(
            f"candidate has shape {point.shape}; expected ({instance.dim},)"
        )
    anchors = np.asarray(instance.points, dtype=float)
    diffs = np.abs(point[None, :] - anchors)
    tau = instance.tau
    r, s = instance.norm_tau
    dists = np.power(np.power(diffs, tau).sum(axis=1), 1.0 / tau)
    assert instance.weights is not None
    costs = dists * np.asarray(instance.weights, dtype=float)
    base = float(point @ point) + dists * dists
    if s != 1 or r % 2 == 1:
        base = base + (diffs ** (2.0 * tau)).sum(axis=1)
    variant = instance.variant
    if variant == "center":
        extra = np.full_like(base, float(np.max(costs)) ** 2)
    elif variant == "kcentrum":
        assert instance.k is not None
        level = float(np.sort(costs)[::-1][instance.k - 1])
        extra = np.maximum(costs - level, 0.0) ** 2
    elif variant == "trimmed":
        assert instance.trim is not None
        k1, k2 = instance.trim
        level = float(np.sort(costs)[::-1][min(len(costs) - 1, len(costs) - k2 - 1)])
        extra = level * level + 1.0 + np.maximum(costs - level, 0.0) ** 2
    elif variant == "range":
        extra = np.full_like(
            base, float(np.max(costs)) ** 2 + float(np.min(costs)) ** 2
        )
    else:
        extra = np.zeros_like(base)
    load = float(np.max(base + extra))
    floor = float((anchors * anchors).sum(axis=1).max())
    return max(margin * load, floor * (1.0 + 1e-12), 1e-6)


@dataclass
class _Scaffold:
    """Shared builder state: the norm lift, the ground constraints and the
    moment-scale hints.

    ``u_ids[i]`` is the distance variable of anchor ``i`` and ``v_ids[i]``
    its coordinate lift variables (empty when the exponent needs none);
    ``u_caps[i]`` is a proven upper bound on ``u_i`` over the instance ball.
    A variant's builder registers its aggregation variables through
    :meth:`add`, appends its constraints and ends in :meth:`lifted`.
    """

    instance: LocationInstance
    ext: VariableUniverse
    inequalities: List[Polynomial]
    equalities: List[Polynomial]
    x_sq: Polynomial
    scales: List[float]
    cost_hint: float
    u_ids: List[VarId] = field(default_factory=list)
    v_ids: List[Tuple[VarId, ...]] = field(default_factory=list)
    u_caps: List[float] = field(default_factory=list)
    cores: List[List[VarId]] = field(default_factory=list)

    @property
    def x_ids(self) -> Tuple[VarId, ...]:
        return tuple(range(self.instance.dim))

    def add(self, name: str, scale: float) -> VarId:
        """Register a fresh variable with its moment scale."""
        self.scales.append(scale)
        return self.ext.add(_fresh_name(self.ext, name))

    def var(self, vid: VarId) -> Polynomial:
        return Polynomial.variable(self.ext, vid)

    def u(self, i: int) -> Polynomial:
        return self.var(self.u_ids[i])

    def ball(self, i: int, *extra: Polynomial) -> Polynomial:
        """Compactness constraint of anchor ``i``: ball bound minus the squared
        facility coordinates, the anchor's lift variables, and any listed
        extras."""
        total = Polynomial.constant(self.ext, self.instance.ball_bound)
        total = total - self.x_sq
        u_poly = self.u(i)
        total = total - u_poly * u_poly
        for vid in self.v_ids[i]:
            v_poly = self.var(vid)
            total = total - v_poly * v_poly
        for sq in extra:
            total = total - sq * sq
        return total

    def append_u_caps(self) -> None:
        """Cap each distance variable by its proven bound over the ball.

        Needed when the aggregation rewards large distances (some rank weight
        is negative): with an odd norm numerator the lift only lower-bounds
        the distance, so an explicit valid upper bound keeps the encoding from
        drifting arbitrarily far.  The caps never cut the true optimum because
        any feasible facility position realizes distances below them.
        """
        for i, cap in enumerate(self.u_caps):
            u_poly = self.u(i)
            self.inequalities.append(
                Polynomial.constant(self.ext, cap * cap) - u_poly * u_poly
            )

    def lifted(
        self,
        objective: Polynomial,
        cliques: Sequence[Tuple[VarId, ...]],
        form: str,
        *groups: Tuple[str, Tuple[VarId, ...]],
    ) -> LiftedProblem:
        """The finished problem; ``groups`` name the aggregation variables,
        after the distance (``z``) and coordinate (``v``) lift groups."""
        ext = self.ext
        lift_groups: List[Tuple[str, Tuple[VarId, ...]]] = [("z", tuple(self.u_ids))]
        flat_v = tuple(v for row in self.v_ids for v in row)
        if flat_v:
            lift_groups.append(("v", flat_v))
        return LiftedProblem(
            universe=ext,
            objective_num=objective,
            objective_den=Polynomial.constant(ext, 1.0),
            inequality_constraints=tuple(self.inequalities),
            equality_constraints=tuple(self.equalities),
            cliques=tuple(cliques),
            original_variables=self.x_ids,
            form=form,
            variable_groups=(*lift_groups, *groups),
            variable_scales=tuple(self.scales),
        )


def _base(instance: LocationInstance) -> _Scaffold:
    """The ground set's constraints, then the norm lift of every anchor.

    For tau = r/s and anchor ``a`` the distance variable ``u`` satisfies:

    - ``r`` even, ``s == 1``: single equality ``u**r = sum_l (x_l - a_l)**r``
      (for tau = 2 this is the squared Euclidean distance identity), no
      coordinate variables;
    - ``r`` even, ``s > 1``: per-coordinate equalities
      ``v_l**s = (x_l - a_l)**r`` and ``u**r = (sum_l v_l)**s``;
    - ``r`` odd: two-sided inequalities ``v_l**s >= +-(x_l - a_l)**r`` and
      ``u**r = (sum_l v_l)**s``.  Minimizing over the lift drives ``v_l`` to
      ``|x_l - a_l|**(r/s)``, hence ``u`` to the distance; without
      minimization pressure ``u`` may exceed it, never undershoot.

    ``u >= 0`` is always included; ``v_l >= 0`` is added exactly when ``s``
    is even (for odd ``s`` the defining constraints already force it, and
    without it an even power could hide sign cancellations across
    coordinates, shrinking ``u`` below the distance).  Compactness is the
    variants' job: each folds the lift variables into its per-anchor ball.
    """
    r, s = instance.norm_tau
    d = instance.dim
    ext = VariableUniverse(instance.universe.names)
    gs = instance.ground_set
    x_polys = [Polynomial.variable(ext, xid) for xid in range(d)]
    x_sq = Polynomial.zero(ext)
    for x_poly in x_polys:
        x_sq = x_sq + x_poly**2

    pts = np.asarray(instance.points, dtype=float)
    spans = pts.max(axis=0) - pts.min(axis=0)
    diagonal = math.sqrt(float((spans * spans).sum()))
    dual_factor = float(d) ** max(0.0, s / r - 0.5)
    dist_hint = max(1.0, dual_factor * diagonal)
    weight_cap = max(1.0, max(instance.weights))
    x_hint = max(1.0, float(np.sqrt((pts * pts).sum(axis=1)).max()))
    v_hint = max(1.0, diagonal ** (r / s))
    radius = math.sqrt(instance.ball_bound)

    scaffold = _Scaffold(
        instance=instance,
        ext=ext,
        inequalities=[_rehome(g, ext) for g in gs.inequalities],
        equalities=[_rehome(h, ext) for h in gs.equalities],
        x_sq=x_sq,
        scales=[x_hint] * d,
        cost_hint=max(1.0, weight_cap * dist_hint),
    )
    for i, anchor in enumerate(instance.points):
        u = scaffold.add(f"z{i + 1}", dist_hint)
        u_poly = scaffold.var(u)
        scaffold.inequalities.append(u_poly)
        deltas = [x_polys[l] - anchor[l] for l in range(d)]
        if r % 2 == 0 and s == 1:
            row: Tuple[VarId, ...] = ()
            total = Polynomial.zero(ext)
            for delta in deltas:
                total = total + delta**r
            scaffold.equalities.append(u_poly**r - total)
        else:
            row = tuple(scaffold.add(f"v{i + 1}_{l + 1}", v_hint) for l in range(d))
            v_polys = [scaffold.var(v) for v in row]
            v_sum = Polynomial.zero(ext)
            for v_poly in v_polys:
                v_sum = v_sum + v_poly
            for l in range(d):
                power = deltas[l] ** r
                if r % 2 == 0:
                    scaffold.equalities.append(v_polys[l] ** s - power)
                else:
                    scaffold.inequalities.append(v_polys[l] ** s - power)
                    scaffold.inequalities.append(v_polys[l] ** s + power)
                if s % 2 == 0:
                    scaffold.inequalities.append(v_polys[l])
            scaffold.equalities.append(u_poly**r - v_sum**s)
        scaffold.u_ids.append(u)
        scaffold.v_ids.append(row)
        anchor_norm = math.sqrt(sum(c * c for c in anchor))
        scaffold.u_caps.append(dual_factor * (radius + anchor_norm))
        scaffold.cores.append([*scaffold.x_ids, u, *row])
    return scaffold


def _weber(scaffold: _Scaffold) -> LiftedProblem:
    """Weighted sum of distances: one clique per anchor (facility coordinates
    plus that anchor's lift variables), each with its own copy of the
    compactness ball."""
    instance = scaffold.instance
    objective = Polynomial.zero(scaffold.ext)
    cliques = []
    for i in range(instance.n):
        objective = objective + instance.weights[i] * scaffold.u(i)
        scaffold.inequalities.append(scaffold.ball(i))
        cliques.append(tuple(sorted(scaffold.cores[i])))
    return scaffold.lifted(objective, cliques, "weber")


def _center(scaffold: _Scaffold) -> LiftedProblem:
    """Largest weighted distance: a shared epigraph variable ``t`` dominates
    every weighted distance and joins every clique and every ball."""
    instance = scaffold.instance
    t = scaffold.add("t", scaffold.cost_hint)
    t_poly = scaffold.var(t)
    cliques = []
    for i in range(instance.n):
        scaffold.inequalities.append(t_poly - instance.weights[i] * scaffold.u(i))
        scaffold.inequalities.append(scaffold.ball(i, t_poly))
        cliques.append(tuple(sorted(scaffold.cores[i] + [t])))
    scaffold.inequalities.append(t_poly)
    return scaffold.lifted(t_poly, cliques, "center", ("t", (t,)))


def _kcentrum(scaffold: _Scaffold, k: int) -> LiftedProblem:
    """Sum of the ``k`` largest weighted distances.

    Uses the epigraph identity ``sum of k largest = min_t k t +
    sum_i max(c_i - t, 0)``: a shared variable ``t`` plus one nonnegative
    surplus variable per anchor with ``t + r_i >= c_i``.  The per-anchor
    balls bound the surplus variables; ``t`` itself is capped by a separate
    quadratic constraint derived from the ball bound and the largest weight,
    which never cuts the optimum because the minimizing ``t`` equals one of
    the weighted distances.
    """
    instance = scaffold.instance
    t = scaffold.add("t", scaffold.cost_hint)
    surplus_ids = [scaffold.add(f"r{i + 1}", scaffold.cost_hint) for i in range(instance.n)]
    t_poly = scaffold.var(t)

    objective = float(k) * t_poly
    cliques = []
    for i in range(instance.n):
        r_poly = scaffold.var(surplus_ids[i])
        objective = objective + r_poly
        scaffold.inequalities.append(t_poly + r_poly - instance.weights[i] * scaffold.u(i))
        scaffold.inequalities.append(r_poly)
        scaffold.inequalities.append(scaffold.ball(i, r_poly))
        cliques.append(tuple(sorted(scaffold.cores[i] + [t, surplus_ids[i]])))
    scaffold.inequalities.append(t_poly)
    weight_cap = max(1.0, max(instance.weights))
    scaffold.inequalities.append(
        Polynomial.constant(scaffold.ext, weight_cap * weight_cap * instance.ball_bound)
        - t_poly * t_poly
    )
    return scaffold.lifted(
        objective, cliques, "kcentrum-loc", ("t", (t,)), ("r", tuple(surplus_ids))
    )


def _trimmed(scaffold: _Scaffold) -> LiftedProblem:
    """Trimmed sum: drop the ``k1`` largest and ``k2`` smallest weighted
    distances and sum the rest.

    Binary selector variables mark the ``k1`` dropped largest costs
    (``s_i**2 = s_i``, ``sum_i s_i = k1``); subtracting the selected costs
    from the sum of the ``n - k2`` largest (built as in the k-centrum
    aggregation) leaves the middle window.  With ``k1 = 0`` no selectors are
    needed and the build is the ``(n - k2)``-centrum.
    """
    instance = scaffold.instance
    n = instance.n
    k1, k2 = instance.trim
    if k1 == 0:
        return _kcentrum(scaffold, n - k2)

    t = scaffold.add("t", scaffold.cost_hint)
    surplus_ids = [scaffold.add(f"r{i + 1}", scaffold.cost_hint) for i in range(n)]
    selector_ids = [scaffold.add(f"s{i + 1}", 1.0) for i in range(n)]
    t_poly = scaffold.var(t)

    objective = float(n - k2) * t_poly
    selector_sum = Polynomial.zero(scaffold.ext)
    cliques = []
    for i in range(n):
        u_poly = scaffold.u(i)
        r_poly = scaffold.var(surplus_ids[i])
        s_poly = scaffold.var(selector_ids[i])
        objective = objective + r_poly - instance.weights[i] * s_poly * u_poly
        selector_sum = selector_sum + s_poly
        scaffold.equalities.append(s_poly * s_poly - s_poly)
        scaffold.inequalities.append(t_poly + r_poly - instance.weights[i] * u_poly)
        scaffold.inequalities.append(r_poly)
        scaffold.inequalities.append(s_poly)
        scaffold.inequalities.append(scaffold.ball(i, t_poly, s_poly, r_poly))
        cliques.append(
            tuple(sorted(scaffold.cores[i] + [t, surplus_ids[i], selector_ids[i]]))
        )
    scaffold.inequalities.append(t_poly)
    scaffold.equalities.append(selector_sum - float(k1))
    if instance.norm_tau[0] % 2 == 1:
        scaffold.append_u_caps()
    return scaffold.lifted(
        objective,
        cliques,
        "trimmed-loc",
        ("t", (t,)),
        ("r", tuple(surplus_ids)),
        ("s", tuple(selector_ids)),
    )


def _range(scaffold: _Scaffold) -> LiftedProblem:
    """Spread between the largest and smallest weighted distance.

    Shared variables sandwich every weighted distance
    (``t <= w_i u_i <= zmax``) and the objective is ``zmax - t``.  Because
    the objective rewards a large ``t``, odd norm numerators additionally cap
    each distance variable (see :func:`_base` on one-sided tightness).
    """
    instance = scaffold.instance
    t = scaffold.add("t", scaffold.cost_hint)
    zmax = scaffold.add("zmax", scaffold.cost_hint)
    t_poly = scaffold.var(t)
    zmax_poly = scaffold.var(zmax)

    cliques = []
    for i in range(instance.n):
        weighted = instance.weights[i] * scaffold.u(i)
        scaffold.inequalities.append(weighted - t_poly)
        scaffold.inequalities.append(zmax_poly - weighted)
        scaffold.inequalities.append(scaffold.ball(i, t_poly, zmax_poly))
        cliques.append(tuple(sorted(scaffold.cores[i] + [t, zmax])))
    scaffold.inequalities.append(t_poly)
    scaffold.inequalities.append(zmax_poly)
    if instance.norm_tau[0] % 2 == 1:
        scaffold.append_u_caps()
    return scaffold.lifted(
        zmax_poly - t_poly, cliques, "range", ("t", (t,)), ("zmax", (zmax,))
    )


def _general(scaffold: _Scaffold) -> LiftedProblem:
    """General ordered median: the rank weights ``position_lambda`` multiply
    the weighted distances sorted descending.

    Sorting is encoded by the assignment lift of
    :func:`~owasdp.omrf.build_assignment` over the weighted distances
    ``w_i * u_i``.  Cliques chain over adjacent rank columns (each
    containing the facility coordinates and all distance variables),
    followed by per-anchor cliques for coordinate lift variables when
    present.  When some rank weight is negative and the norm numerator is
    odd, distance variables receive explicit caps (see :func:`_base`).
    """
    instance = scaffold.instance
    n = instance.n
    weighted = [instance.weights[i] * scaffold.u(i) for i in range(n)]
    lift = build_assignment(scaffold.ext, weighted)
    scaffold.scales.extend([1.0] * (n * n))

    for row_sum, binaries in zip(lift.row_sums, lift.binaries):
        scaffold.equalities.extend(binaries)
        scaffold.equalities.append(row_sum)
    scaffold.equalities.extend(lift.column_sums)
    scaffold.inequalities.extend(lift.column_balls)
    scaffold.inequalities.extend(lift.ordering)
    objective = Polynomial.zero(scaffold.ext)
    for lam, column in zip(instance.position_lambda, lift.columns):
        objective = objective + lam * column

    for i in range(n):
        scaffold.inequalities.append(scaffold.ball(i))
    if min(instance.position_lambda) < 0.0 and instance.norm_tau[0] % 2 == 1:
        scaffold.append_u_caps()

    cliques = list(lift.cliques([*scaffold.x_ids, *scaffold.u_ids]))
    cliques.extend(tuple(sorted(scaffold.cores[i])) for i in range(n) if scaffold.v_ids[i])
    return scaffold.lifted(objective, cliques, "general-loc", ("w", lift.flat_ids))


def build_lifted(instance: LocationInstance) -> LiftedProblem:
    """Lift ``instance`` into the polynomial problem of its own variant.

    The norm lift and ground constraints are shared; the variant adds its
    aggregation variables, constraints and cliques (see the module
    docstring for the forms).
    """
    scaffold = _base(instance)
    if instance.variant == "kcentrum":
        return _kcentrum(scaffold, instance.k)
    builder = {
        "weber": _weber,
        "center": _center,
        "trimmed": _trimmed,
        "range": _range,
        "general": _general,
    }[instance.variant]
    return builder(scaffold)


def lifted_witness(
    instance: LocationInstance, lifted: LiftedProblem, point: Sequence[float]
) -> np.ndarray:
    """Point of ``lifted = build_lifted(instance)`` over facility ``point``.

    Distance variables take the tau-norm distances, coordinate lift
    variables ``|x_l - a_l|**(r/s)``, and aggregation variables the values
    implied by the tie-stable descending sort of the weighted distances used
    by :meth:`LocationInstance.objective_value`.  Whenever ``point`` lies in
    the ground set and the returned vector inside the instance's ball, it
    satisfies every lifted constraint, and the lifted objective evaluates to
    the aggregated value there (the soundness tests rely on both facts).
    """
    x = np.asarray(point, dtype=float)
    n = instance.n
    r, s = instance.norm_tau
    z = np.zeros(len(lifted.universe))
    z[: len(x)] = x
    groups = {name: list(ids) for name, ids in lifted.variable_groups}
    dists = instance.distances(x)
    z[groups["z"]] = dists
    if "v" in groups:
        z[groups["v"]] = (np.abs(x[None, :] - np.asarray(instance.points)) ** (r / s)).ravel()
    costs = np.asarray(instance.weights) * dists
    order = sorted(range(n), key=lambda i: (-costs[i], i))
    if lifted.form == "center":
        z[groups["t"]] = costs[order[0]]
    elif lifted.form == "range":
        z[groups["t"]] = costs[order[-1]]
        z[groups["zmax"]] = costs[order[0]]
    elif lifted.form in ("kcentrum-loc", "trimmed-loc"):
        k1, k2 = instance.trim if instance.variant == "trimmed" else (0, n - instance.k)
        level = costs[order[n - k2 - 1]]  # t at the (n - k2)-th largest cost
        z[groups["t"]] = level
        z[groups["r"]] = np.maximum(costs - level, 0.0)
        if k1:  # selectors mark the k1 largest costs
            z[[groups["s"][i] for i in order[:k1]]] = 1.0
    elif lifted.form == "general-loc":
        for rank, i in enumerate(order):
            z[groups["w"][i * n + rank]] = 1.0
    elif lifted.form != "weber":
        raise ValueError(f"unknown lifted form {lifted.form!r}")
    return z


def random_instance(
    n: int,
    dim: int,
    seed: int,
    variant: str = "weber",
    norm_tau: Tuple[int, int] = (2, 1),
    k: Optional[int] = None,
    trim: Optional[Tuple[int, int]] = None,
    position_lambda: Optional[Sequence[float]] = None,
    weights: Optional[Sequence[float]] = None,
) -> LocationInstance:
    """Instance with ``n`` anchors drawn i.i.d. uniformly from the unit cube
    ``[0, 1]**dim`` by a seeded 64-bit generator; all other parameters pass
    through to :class:`LocationInstance`.
    """
    pts = np.random.default_rng(seed).random((int(n), int(dim)))
    return LocationInstance(
        points=tuple(tuple(float(c) for c in row) for row in pts),
        weights=weights,
        norm_tau=norm_tau,
        variant=variant,
        k=k,
        trim=trim,
        position_lambda=position_lambda,
    )
