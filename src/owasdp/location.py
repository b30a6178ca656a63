"""Single-facility location models lifted to sparse polynomial optimization.

Given anchor points with nonnegative weights and a rational norm exponent
tau = r/s >= 1, the builders here produce :class:`~owasdp.omrf.LiftedProblem`
instances whose optimum is the chosen aggregation of the weighted tau-norm
distances from the facility to the anchors: their sum (``weber``), the
largest (``center``), the sum of the k largest (``kcentrum``), a two-sided
trimmed sum (``trimmed``), the spread between largest and smallest
(``range``), or an arbitrary ordered-median combination with per-rank weights
(``general``).

Distances enter algebraically through per-anchor lifting variables: a
distance variable per anchor and, for non-Euclidean exponents, one
coordinate variable per dimension carrying ``|x_l - a_l|**(r/s)``.  Even
numerators make the lift exact through equalities; odd numerators use
two-sided inequalities that are tight under minimization whenever the rank
weights are nonnegative.  Sign-mixed rank weights additionally receive valid
upper caps on each distance variable (see the builder docstrings).

Every builder keeps per-anchor variables in their own clique (all cliques
share the facility coordinates plus any aggregation variables), so the
resulting problems relax with clique-sized moment blocks instead of one
dense block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .omrf import (
    EmptyProblemError,
    EmptyWindowError,
    LambdaWeights,
    LiftBuildError,
    LiftedProblem,
    PatternMismatchError,
    _fresh_name,
    _rehome,
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
    "NormLift",
    "build_norm_lift",
    "build_weber",
    "build_center",
    "build_kcentrum_loc",
    "build_trimmed_loc",
    "build_range",
    "build_general_location",
    "build_lifted",
    "calibrate_ball",
    "default_ball",
    "random_instance",
]

VARIANTS = ("weber", "center", "kcentrum", "trimmed", "range", "general")


class InvalidNormError(LiftBuildError):
    """Raised when a norm exponent pair is not a reduced rational >= 1."""


def _box_load(
    points: Sequence[Sequence[float]],
    weights: Sequence[float],
    norm_tau: Tuple[int, int],
) -> Tuple[float, float, float]:
    """Worst-case ball load over the anchors' bounding box.

    Returns ``(a_sq, lift_load, cost_cap)`` where ``a_sq`` bounds
    ``sum(x_l**2)`` over the box, ``lift_load`` bounds the largest per-anchor
    contribution ``u_i**2 + sum_l v_il**2`` there, and ``cost_cap`` bounds
    every weighted distance ``w_i * u_i``.
    """
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
    return a_sq, lift_load, cost_cap


def _default_ball(
    points: Sequence[Sequence[float]],
    weights: Sequence[float],
    norm_tau: Tuple[int, int],
    variant: str = "weber",
) -> float:
    a_sq, lift_load, cost_cap = _box_load(points, weights, norm_tau)
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
    optimum; when omitted it is derived from the data by :func:`default_ball`.
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
        object.__setattr__(self, "points", pts)
        n = len(pts)

        if self.weights is None:
            wts = (1.0,) * n
        else:
            wts = tuple(float(v) for v in self.weights)
            if len(wts) != n:
                raise ValueError(f"{len(wts)} weights for {n} anchor points")
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
            k = int(self.k)
            if not 1 <= k <= n:
                raise ValueError(f"k must satisfy 1 <= k <= n, got {k} with n={n}")
            object.__setattr__(self, "k", k)
        elif self.k is not None:
            raise ValueError("k is only meaningful for the kcentrum variant")

        if self.variant == "trimmed":
            if self.trim is None:
                raise ValueError("the trimmed variant requires trim=(k1, k2)")
            k1, k2 = (int(v) for v in self.trim)
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
        if not bound > 0.0:
            raise ValueError("ball bound must be positive")
        a_sq = max(sum(c * c for c in p) for p in pts)
        if bound < a_sq:
            raise ValueError(
                f"ball bound {bound} does not contain the anchor with squared norm {a_sq}"
            )
        if gs.ball_bound is not None:
            if gs.ball_bound != bound:
                raise ValueError("ground-set ball bound disagrees with the instance's")
            if set(gs.ball_variables) != set(range(dim)):
                raise ValueError("ground-set ball must cover every facility coordinate")
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
        gs = self.ground_set
        if gs.ball_bound is not None:
            return gs
        return SemialgebraicSet(
            gs.universe,
            list(gs.inequalities),
            list(gs.equalities),
            ball_bound=self.ball_bound,
            ball_variables=tuple(range(self.dim)),
        )

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


def default_ball(instance: LocationInstance) -> float:
    """Data-derived squared-radius bound certifying a compact search region.

    The bound sums the worst case, over facility positions in the anchors'
    bounding box, of every quantity the per-anchor ball constraints carry:
    the squared position norm, the squared tau-norm distance together with
    its squared coordinate lifts, and the squared aggregation variables
    (bounded through the largest weighted distance), floored at ``4``.  Every
    aggregation built here attains its minimum on the bounding box, so adding
    a ball of this size never cuts an optimum, and every anchor lies inside
    it.
    """
    assert instance.weights is not None
    return _default_ball(
        instance.points, instance.weights, instance.norm_tau, instance.variant
    )


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


@dataclass(frozen=True)
class NormLift:
    """Algebraic encoding of the tau-norm distance to each anchor.

    ``u_ids[i]`` is the distance variable of anchor ``i`` and ``v_ids[i]``
    its per-coordinate lift variables (empty when the exponent needs none).
    ``equalities`` and ``inequalities`` define the lift; compactness is the
    builders' job (each folds the lift variables into its per-anchor ball).
    ``u_caps[i]`` is a proven numeric upper bound on ``u_i`` over the
    instance ball, for builders that must cap distances explicitly.

    The universe is shared and extendable: builders register aggregation
    variables after the lift variables without disturbing existing ids.
    """

    universe: VariableUniverse
    x_ids: Tuple[VarId, ...]
    u_ids: Tuple[VarId, ...]
    v_ids: Tuple[Tuple[VarId, ...], ...]
    equalities: Tuple[Polynomial, ...]
    inequalities: Tuple[Polynomial, ...]
    u_caps: Tuple[float, ...]


def build_norm_lift(instance: LocationInstance) -> NormLift:
    """Lift the tau-norm distances of ``instance`` into polynomial form.

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
    coordinates, shrinking ``u`` below the distance).
    """
    r, s = instance.norm_tau
    d = instance.dim
    ext = VariableUniverse(instance.universe.names)
    x_ids = tuple(range(d))
    radius = math.sqrt(instance.ball_bound)
    dual_factor = float(d) ** max(0.0, s / r - 0.5)

    u_ids: List[VarId] = []
    v_ids: List[Tuple[VarId, ...]] = []
    equalities: List[Polynomial] = []
    inequalities: List[Polynomial] = []
    caps: List[float] = []

    for i, anchor in enumerate(instance.points):
        u = ext.add(_fresh_name(ext, f"z{i + 1}"))
        u_ids.append(u)
        u_poly = Polynomial.variable(ext, u)
        inequalities.append(u_poly)
        deltas = [
            Polynomial.variable(ext, x_ids[l]) - anchor[l] for l in range(d)
        ]
        if r % 2 == 0 and s == 1:
            v_ids.append(())
            total = Polynomial.zero(ext)
            for delta in deltas:
                total = total + delta**r
            equalities.append(u_poly**r - total)
        else:
            row = tuple(
                ext.add(_fresh_name(ext, f"v{i + 1}_{l + 1}")) for l in range(d)
            )
            v_ids.append(row)
            v_polys = [Polynomial.variable(ext, v) for v in row]
            v_sum = Polynomial.zero(ext)
            for v_poly in v_polys:
                v_sum = v_sum + v_poly
            for l in range(d):
                power = deltas[l] ** r
                if r % 2 == 0:
                    equalities.append(v_polys[l] ** s - power)
                else:
                    inequalities.append(v_polys[l] ** s - power)
                    inequalities.append(v_polys[l] ** s + power)
                if s % 2 == 0:
                    inequalities.append(v_polys[l])
            equalities.append(u_poly**r - v_sum**s)
        anchor_norm = math.sqrt(sum(c * c for c in anchor))
        caps.append(dual_factor * (radius + anchor_norm))

    return NormLift(
        universe=ext,
        x_ids=x_ids,
        u_ids=tuple(u_ids),
        v_ids=tuple(v_ids),
        equalities=tuple(equalities),
        inequalities=tuple(inequalities),
        u_caps=tuple(caps),
    )


@dataclass
class _Scaffold:
    """Shared builder state: norm lift plus ground constraints and hints."""

    instance: LocationInstance
    lift: NormLift
    inequalities: List[Polynomial]
    equalities: List[Polynomial]
    x_sq: Polynomial
    cores: List[List[VarId]] = field(default_factory=list)
    scales: List[float] = field(default_factory=list)
    dist_hint: float = 1.0
    cost_hint: float = 1.0

    @property
    def ext(self) -> VariableUniverse:
        return self.lift.universe


def _base(instance: LocationInstance) -> _Scaffold:
    lift = build_norm_lift(instance)
    ext = lift.universe
    gs = instance.ground_set
    inequalities = [_rehome(g, ext) for g in gs.inequalities]
    equalities = [_rehome(h, ext) for h in gs.equalities]
    inequalities.extend(lift.inequalities)
    equalities.extend(lift.equalities)

    x_sq = Polynomial.zero(ext)
    for xid in lift.x_ids:
        x_sq = x_sq + Polynomial.variable(ext, xid) ** 2

    pts = np.asarray(instance.points, dtype=float)
    spans = pts.max(axis=0) - pts.min(axis=0)
    diagonal = math.sqrt(float((spans * spans).sum()))
    r, s = instance.norm_tau
    dual_factor = float(instance.dim) ** max(0.0, s / r - 0.5)
    dist_hint = max(1.0, dual_factor * diagonal)
    weight_cap = max(1.0, max(instance.weights))
    cost_hint = max(1.0, weight_cap * dist_hint)
    x_hint = max(1.0, float(np.sqrt((pts * pts).sum(axis=1)).max()))
    v_hint = max(1.0, diagonal ** (r / s))

    scaffold = _Scaffold(
        instance=instance,
        lift=lift,
        inequalities=inequalities,
        equalities=equalities,
        x_sq=x_sq,
        scales=[x_hint] * instance.dim,
        dist_hint=dist_hint,
        cost_hint=cost_hint,
    )
    for i in range(instance.n):
        scaffold.cores.append([*lift.x_ids, lift.u_ids[i], *lift.v_ids[i]])
        scaffold.scales.append(dist_hint)
        scaffold.scales.extend([v_hint] * len(lift.v_ids[i]))
    return scaffold


def _groups(
    scaffold: _Scaffold, *extra: Tuple[str, Tuple[VarId, ...]]
) -> Tuple[Tuple[str, Tuple[VarId, ...]], ...]:
    groups: List[Tuple[str, Tuple[VarId, ...]]] = [("z", scaffold.lift.u_ids)]
    flat_v = tuple(v for row in scaffold.lift.v_ids for v in row)
    if flat_v:
        groups.append(("v", flat_v))
    groups.extend(extra)
    return tuple(groups)


def _require_variant(instance: LocationInstance, variant: str) -> None:
    if instance.variant != variant:
        raise PatternMismatchError(
            f"instance variant is {instance.variant!r}, need {variant!r}"
        )


def _u_poly(scaffold: _Scaffold, i: int) -> Polynomial:
    return Polynomial.variable(scaffold.ext, scaffold.lift.u_ids[i])


def _ball(scaffold: _Scaffold, i: int, *extra: Polynomial) -> Polynomial:
    """Compactness constraint of anchor ``i``: ball bound minus the squared
    facility coordinates, the anchor's lift variables, and any listed extras."""
    total = Polynomial.constant(scaffold.ext, scaffold.instance.ball_bound)
    total = total - scaffold.x_sq
    u_poly = _u_poly(scaffold, i)
    total = total - u_poly * u_poly
    for vid in scaffold.lift.v_ids[i]:
        v_poly = Polynomial.variable(scaffold.ext, vid)
        total = total - v_poly * v_poly
    for sq in extra:
        total = total - sq * sq
    return total


def _append_u_caps(scaffold: _Scaffold) -> None:
    """Cap each distance variable by its proven bound over the ball.

    Needed when the aggregation rewards large distances (some rank weight is
    negative): with an odd norm numerator the lift only lower-bounds the
    distance, so an explicit valid upper bound keeps the encoding from
    drifting arbitrarily far.  The caps never cut the true optimum because
    any feasible facility position realizes distances below them.
    """
    for i in range(scaffold.instance.n):
        cap = scaffold.lift.u_caps[i]
        u_poly = _u_poly(scaffold, i)
        scaffold.inequalities.append(
            Polynomial.constant(scaffold.ext, cap * cap) - u_poly * u_poly
        )


def build_weber(instance: LocationInstance) -> LiftedProblem:
    """Minimize the weighted sum of distances to all anchors.

    One clique per anchor (facility coordinates plus that anchor's lift
    variables); each clique carries its own copy of the compactness ball.
    """
    _require_variant(instance, "weber")
    scaffold = _base(instance)
    ext = scaffold.ext
    objective = Polynomial.zero(ext)
    cliques: List[Tuple[VarId, ...]] = []
    for i in range(instance.n):
        u_poly = _u_poly(scaffold, i)
        objective = objective + instance.weights[i] * u_poly
        scaffold.inequalities.append(_ball(scaffold, i))
        cliques.append(tuple(sorted(scaffold.cores[i])))
    return LiftedProblem(
        universe=ext,
        objective_num=objective,
        objective_den=Polynomial.constant(ext, 1.0),
        inequality_constraints=tuple(scaffold.inequalities),
        equality_constraints=tuple(scaffold.equalities),
        cliques=tuple(cliques),
        original_variables=scaffold.lift.x_ids,
        form="weber",
        variable_groups=_groups(scaffold),
        variable_scales=tuple(scaffold.scales),
    )


def build_center(instance: LocationInstance) -> LiftedProblem:
    """Minimize the largest weighted distance (smallest covering radius).

    A shared epigraph variable ``t`` dominates every weighted distance; it
    joins every clique and every per-anchor ball.
    """
    _require_variant(instance, "center")
    scaffold = _base(instance)
    ext = scaffold.ext
    t = ext.add(_fresh_name(ext, "t"))
    scaffold.scales.append(scaffold.cost_hint)
    t_poly = Polynomial.variable(ext, t)
    cliques: List[Tuple[VarId, ...]] = []
    for i in range(instance.n):
        u_poly = _u_poly(scaffold, i)
        scaffold.inequalities.append(t_poly - instance.weights[i] * u_poly)
        scaffold.inequalities.append(_ball(scaffold, i, t_poly))
        cliques.append(tuple(sorted(scaffold.cores[i] + [t])))
    scaffold.inequalities.append(t_poly)
    return LiftedProblem(
        universe=ext,
        objective_num=t_poly,
        objective_den=Polynomial.constant(ext, 1.0),
        inequality_constraints=tuple(scaffold.inequalities),
        equality_constraints=tuple(scaffold.equalities),
        cliques=tuple(cliques),
        original_variables=scaffold.lift.x_ids,
        form="center",
        variable_groups=_groups(scaffold, ("t", (t,))),
        variable_scales=tuple(scaffold.scales),
    )


def build_kcentrum_loc(
    instance: LocationInstance, k: Optional[int] = None
) -> LiftedProblem:
    """Minimize the sum of the ``k`` largest weighted distances.

    Uses the epigraph identity ``sum of k largest = min_t k t +
    sum_i max(c_i - t, 0)``: a shared variable ``t`` plus one nonnegative
    surplus variable per anchor with ``t + r_i >= c_i``.  ``k`` defaults to
    the instance's own parameter on kcentrum instances and must be given
    explicitly otherwise (this builder accepts any variant, since the sum of
    all distances or the single largest are special cases).

    The per-anchor balls bound the surplus variables; ``t`` itself is capped
    by a separate quadratic constraint derived from the ball bound and the
    largest weight, which never cuts the optimum because the minimizing ``t``
    equals one of the weighted distances.
    """
    if instance.variant == "kcentrum":
        assert instance.k is not None
        if k is None:
            k = instance.k
        elif int(k) != instance.k:
            raise PatternMismatchError(
                f"k={k} disagrees with the instance's k={instance.k}"
            )
    if k is None:
        raise LiftBuildError("k is required unless the instance variant is kcentrum")
    k = int(k)
    if not 1 <= k <= instance.n:
        raise LiftBuildError(f"k must satisfy 1 <= k <= n, got {k} with n={instance.n}")

    scaffold = _base(instance)
    ext = scaffold.ext
    t = ext.add(_fresh_name(ext, "t"))
    scaffold.scales.append(scaffold.cost_hint)
    surplus_ids = []
    for i in range(instance.n):
        surplus_ids.append(ext.add(_fresh_name(ext, f"r{i + 1}")))
        scaffold.scales.append(scaffold.cost_hint)
    t_poly = Polynomial.variable(ext, t)

    objective = float(k) * t_poly
    cliques: List[Tuple[VarId, ...]] = []
    for i in range(instance.n):
        u_poly = _u_poly(scaffold, i)
        r_poly = Polynomial.variable(ext, surplus_ids[i])
        objective = objective + r_poly
        scaffold.inequalities.append(t_poly + r_poly - instance.weights[i] * u_poly)
        scaffold.inequalities.append(r_poly)
        scaffold.inequalities.append(_ball(scaffold, i, r_poly))
        cliques.append(tuple(sorted(scaffold.cores[i] + [t, surplus_ids[i]])))
    scaffold.inequalities.append(t_poly)
    weight_cap = max(1.0, max(instance.weights))
    scaffold.inequalities.append(
        Polynomial.constant(ext, weight_cap * weight_cap * instance.ball_bound)
        - t_poly * t_poly
    )
    return LiftedProblem(
        universe=ext,
        objective_num=objective,
        objective_den=Polynomial.constant(ext, 1.0),
        inequality_constraints=tuple(scaffold.inequalities),
        equality_constraints=tuple(scaffold.equalities),
        cliques=tuple(cliques),
        original_variables=scaffold.lift.x_ids,
        form="kcentrum-loc",
        variable_groups=_groups(scaffold, ("t", (t,)), ("r", tuple(surplus_ids))),
        variable_scales=tuple(scaffold.scales),
    )


def build_trimmed_loc(
    instance: LocationInstance,
    k1: Optional[int] = None,
    k2: Optional[int] = None,
) -> LiftedProblem:
    """Minimize the trimmed sum: drop the ``k1`` largest and ``k2`` smallest
    weighted distances, sum the rest.

    Binary selector variables mark the ``k1`` dropped largest costs
    (``s_i**2 = s_i``, ``sum_i s_i = k1``); subtracting the selected costs
    from the sum of the ``n - k2`` largest (built as in the kcentrum
    aggregation) leaves the middle window.  With ``k1 = 0`` no selectors are
    needed and the build delegates to :func:`build_kcentrum_loc` with
    ``k = n - k2``.

    Trim counts default to the instance's own parameters on trimmed
    instances and must be given explicitly otherwise.
    """
    if instance.variant == "trimmed":
        assert instance.trim is not None
        if k1 is None and k2 is None:
            k1, k2 = instance.trim
        elif (k1, k2) != instance.trim:
            raise PatternMismatchError(
                f"trim=({k1}, {k2}) disagrees with the instance's {instance.trim}"
            )
    if k1 is None or k2 is None:
        raise LiftBuildError(
            "trim counts are required unless the instance variant is trimmed"
        )
    k1, k2 = int(k1), int(k2)
    if k1 < 0 or k2 < 0:
        raise LiftBuildError("trim counts must be nonnegative")
    if k1 + k2 >= instance.n:
        raise EmptyWindowError(f"trim=({k1}, {k2}) removes all {instance.n} points")
    if k1 == 0:
        return build_kcentrum_loc(instance, instance.n - k2)

    scaffold = _base(instance)
    ext = scaffold.ext
    t = ext.add(_fresh_name(ext, "t"))
    scaffold.scales.append(scaffold.cost_hint)
    surplus_ids = []
    for i in range(instance.n):
        surplus_ids.append(ext.add(_fresh_name(ext, f"r{i + 1}")))
        scaffold.scales.append(scaffold.cost_hint)
    selector_ids = []
    for i in range(instance.n):
        selector_ids.append(ext.add(_fresh_name(ext, f"s{i + 1}")))
        scaffold.scales.append(1.0)
    t_poly = Polynomial.variable(ext, t)

    objective = float(instance.n - k2) * t_poly
    selector_sum = Polynomial.zero(ext)
    cliques: List[Tuple[VarId, ...]] = []
    for i in range(instance.n):
        u_poly = _u_poly(scaffold, i)
        r_poly = Polynomial.variable(ext, surplus_ids[i])
        s_poly = Polynomial.variable(ext, selector_ids[i])
        objective = objective + r_poly - instance.weights[i] * s_poly * u_poly
        selector_sum = selector_sum + s_poly
        scaffold.equalities.append(s_poly * s_poly - s_poly)
        scaffold.inequalities.append(t_poly + r_poly - instance.weights[i] * u_poly)
        scaffold.inequalities.append(r_poly)
        scaffold.inequalities.append(s_poly)
        scaffold.inequalities.append(_ball(scaffold, i, t_poly, s_poly, r_poly))
        cliques.append(
            tuple(sorted(scaffold.cores[i] + [t, surplus_ids[i], selector_ids[i]]))
        )
    scaffold.inequalities.append(t_poly)
    scaffold.equalities.append(selector_sum - float(k1))
    if instance.norm_tau[0] % 2 == 1:
        _append_u_caps(scaffold)
    return LiftedProblem(
        universe=ext,
        objective_num=objective,
        objective_den=Polynomial.constant(ext, 1.0),
        inequality_constraints=tuple(scaffold.inequalities),
        equality_constraints=tuple(scaffold.equalities),
        cliques=tuple(cliques),
        original_variables=scaffold.lift.x_ids,
        form="trimmed-loc",
        variable_groups=_groups(
            scaffold,
            ("t", (t,)),
            ("r", tuple(surplus_ids)),
            ("s", tuple(selector_ids)),
        ),
        variable_scales=tuple(scaffold.scales),
    )


def build_range(instance: LocationInstance) -> LiftedProblem:
    """Minimize the spread between the largest and smallest weighted distance.

    Shared variables sandwich every weighted distance
    (``t <= w_i u_i <= zmax``) and the objective is ``zmax - t``.  Because
    the objective rewards a large ``t``, odd norm numerators additionally cap
    each distance variable (see :func:`build_norm_lift` on one-sided
    tightness).
    """
    _require_variant(instance, "range")
    scaffold = _base(instance)
    ext = scaffold.ext
    t = ext.add(_fresh_name(ext, "t"))
    scaffold.scales.append(scaffold.cost_hint)
    zmax = ext.add(_fresh_name(ext, "zmax"))
    scaffold.scales.append(scaffold.cost_hint)
    t_poly = Polynomial.variable(ext, t)
    zmax_poly = Polynomial.variable(ext, zmax)

    cliques: List[Tuple[VarId, ...]] = []
    for i in range(instance.n):
        u_poly = _u_poly(scaffold, i)
        weighted = instance.weights[i] * u_poly
        scaffold.inequalities.append(weighted - t_poly)
        scaffold.inequalities.append(zmax_poly - weighted)
        scaffold.inequalities.append(_ball(scaffold, i, t_poly, zmax_poly))
        cliques.append(tuple(sorted(scaffold.cores[i] + [t, zmax])))
    scaffold.inequalities.append(t_poly)
    scaffold.inequalities.append(zmax_poly)
    if instance.norm_tau[0] % 2 == 1:
        _append_u_caps(scaffold)
    return LiftedProblem(
        universe=ext,
        objective_num=zmax_poly - t_poly,
        objective_den=Polynomial.constant(ext, 1.0),
        inequality_constraints=tuple(scaffold.inequalities),
        equality_constraints=tuple(scaffold.equalities),
        cliques=tuple(cliques),
        original_variables=scaffold.lift.x_ids,
        form="range",
        variable_groups=_groups(scaffold, ("t", (t,)), ("zmax", (zmax,))),
        variable_scales=tuple(scaffold.scales),
    )


LambdaLike = Union[LambdaWeights, Sequence[Union[float, int, Polynomial]]]


def build_general_location(
    instance: LocationInstance, lam: Optional[LambdaLike] = None
) -> LiftedProblem:
    """Minimize a general ordered-median aggregation of weighted distances.

    Rank weights ``lam`` (defaulting to the instance's ``position_lambda``)
    multiply the weighted distances sorted descending.  Entries may be
    numbers or polynomials in the facility coordinates, making the rank
    weights position-dependent.

    Sorting is encoded with a doubly stochastic binary assignment matrix:
    ``w[i][j] = 1`` places anchor ``i``'s weighted distance in rank ``j``,
    and adjacent rank sums are constrained to be nonincreasing.  Cliques
    chain over adjacent rank columns (each containing the facility
    coordinates and all distance variables), followed by per-anchor cliques
    for coordinate lift variables when present.  When some rank weight is
    negative or position-dependent and the norm numerator is odd, distance
    variables receive explicit caps (see :func:`build_norm_lift`).
    """
    if lam is None:
        if instance.position_lambda is None:
            raise LiftBuildError(
                "rank weights are required unless the instance variant is general"
            )
        entries_in: Sequence[Union[float, int, Polynomial]] = instance.position_lambda
    elif isinstance(lam, LambdaWeights):
        entries_in = lam.entries
    else:
        entries_in = list(lam)
    if len(entries_in) != instance.n:
        raise LiftBuildError(
            f"{len(entries_in)} rank weights for {instance.n} anchor points"
        )

    scaffold = _base(instance)
    ext = scaffold.ext
    n = instance.n
    x_id_set = set(scaffold.lift.x_ids)

    lambdas: List[Polynomial] = []
    plain = True
    for entry in entries_in:
        if isinstance(entry, Polynomial):
            poly = _rehome(entry, ext)
            if not set(poly.variables()) <= x_id_set:
                raise LiftBuildError(
                    "rank weights may depend on the facility coordinates only"
                )
            if poly.is_constant():
                plain = plain and poly.constant_value() >= 0.0
            else:
                plain = False
        else:
            poly = Polynomial.constant(ext, float(entry))
            plain = plain and float(entry) >= 0.0
        lambdas.append(poly)

    w_ids = [
        [ext.add(_fresh_name(ext, f"w{i + 1}_{j + 1}")) for j in range(n)]
        for i in range(n)
    ]
    scaffold.scales.extend([1.0] * (n * n))
    w_polys = [[Polynomial.variable(ext, w_ids[i][j]) for j in range(n)] for i in range(n)]

    columns: List[Polynomial] = []
    for j in range(n):
        col = Polynomial.zero(ext)
        for i in range(n):
            col = col + instance.weights[i] * w_polys[i][j] * _u_poly(scaffold, i)
        columns.append(col)

    for i in range(n):
        row_sum = Polynomial.zero(ext)
        for j in range(n):
            row_sum = row_sum + w_polys[i][j]
            scaffold.equalities.append(w_polys[i][j] * w_polys[i][j] - w_polys[i][j])
        scaffold.equalities.append(row_sum - 1.0)
    for j in range(n):
        col_sum = Polynomial.zero(ext)
        col_sq = Polynomial.zero(ext)
        for i in range(n):
            col_sum = col_sum + w_polys[i][j]
            col_sq = col_sq + w_polys[i][j] * w_polys[i][j]
        scaffold.equalities.append(col_sum - 1.0)
        scaffold.inequalities.append(Polynomial.constant(ext, float(n)) - col_sq)
    for j in range(n - 1):
        scaffold.inequalities.append(columns[j] - columns[j + 1])

    objective = Polynomial.zero(ext)
    for j in range(n):
        objective = objective + lambdas[j] * columns[j]

    for i in range(n):
        scaffold.inequalities.append(_ball(scaffold, i))
    if not plain and instance.norm_tau[0] % 2 == 1:
        _append_u_caps(scaffold)

    shared = [*scaffold.lift.x_ids, *scaffold.lift.u_ids]
    cliques: List[Tuple[VarId, ...]] = []
    if n == 1:
        cliques.append(tuple(sorted(shared + [w_ids[0][0]])))
    else:
        for j in range(n - 1):
            col_j = [w_ids[i][j] for i in range(n)]
            col_next = [w_ids[i][j + 1] for i in range(n)]
            cliques.append(tuple(sorted(shared + col_j + col_next)))
    for i in range(n):
        if scaffold.lift.v_ids[i]:
            cliques.append(tuple(sorted(scaffold.cores[i])))

    flat_w = tuple(w_ids[i][j] for i in range(n) for j in range(n))
    return LiftedProblem(
        universe=ext,
        objective_num=objective,
        objective_den=Polynomial.constant(ext, 1.0),
        inequality_constraints=tuple(scaffold.inequalities),
        equality_constraints=tuple(scaffold.equalities),
        cliques=tuple(cliques),
        original_variables=scaffold.lift.x_ids,
        form="general-loc",
        variable_groups=_groups(scaffold, ("w", flat_w)),
        variable_scales=tuple(scaffold.scales),
    )


def build_lifted(instance: LocationInstance) -> LiftedProblem:
    """Build the lifted problem matching the instance's own variant."""
    if instance.variant == "weber":
        return build_weber(instance)
    if instance.variant == "center":
        return build_center(instance)
    if instance.variant == "kcentrum":
        return build_kcentrum_loc(instance)
    if instance.variant == "trimmed":
        return build_trimmed_loc(instance)
    if instance.variant == "range":
        return build_range(instance)
    return build_general_location(instance)


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
