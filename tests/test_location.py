"""Tests for the single-facility location front-end: instance validation,
the lift's witness and Dirac soundness, and the exact arrow lifts."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from owasdp.extract import extract_point
from owasdp.location import (
    InvalidNormError,
    LocationInstance,
    _default_ball,
    build_lifted,
    lifted_witness,
    random_instance,
)
from owasdp.omrf import EmptyWindowError
from owasdp.oracle import multistart_descent
from owasdp.polynomial import SemialgebraicSet, VariableUniverse, parse
from owasdp.relaxation import build_sparse, dirac_moment_vector, min_order
from owasdp.solver import SolveStatus, solve

from support import abs_evaluate, assignment_binaries, half_plane

WEIGHTS = (1.0, 0.5, 2.0, 1.5)

# Variant keywords of every lift shape over four anchors: the (0, 2) trim is
# built as a 2-centrum, and the general rank weights are sign-mixed, so odd
# numerators cap the distances.
SHAPES = {
    "weber": {},
    "center": {},
    "kcentrum": {"k": 2},
    "trimmed": {"trim": (1, 1)},
    "trimmed02": {"trim": (0, 2)},
    "range": {},
    "general": {"position_lambda": (1.0, 0.5, -0.25, 0.0)},
}
TAUS = [(2, 1), (3, 1), (3, 2), (4, 3), (4, 1)]
# The shapes whose planar l2 lifts take arrow blocks.
ARROW_SHAPES = ("weber", "center", "kcentrum", "trimmed02")


def make_instance(shape, tau, seed=0):
    variant = "trimmed" if shape == "trimmed02" else shape
    return random_instance(
        4, 2, seed, variant, tau, weights=WEIGHTS, **SHAPES[shape]
    )


def ball_holding(instance, x):
    """The default ball of the anchors' bounding box widened to hold ``x``:
    every quantity the ball constraints carry at a point of that box stays
    within it."""
    return _default_ball(
        instance.points + (tuple(x),),
        instance.weights + (0.0,),
        instance.norm_tau,
        instance.variant,
    )


def box_point(instance, rng, outside=False):
    """A point of the anchors' bounding box, or one unit beyond its corner."""
    anchors = np.asarray(instance.points)
    lo, hi = anchors.min(axis=0), anchors.max(axis=0)
    if outside:
        return hi + 1.0
    return lo + rng.random(instance.dim) * (hi - lo)


def assert_feasible(lifted, z, tol=1e-10):
    for h in lifted.equality_constraints:
        assert abs(h.evaluate(z)) <= tol * (1.0 + abs_evaluate(h, z))
    for g in lifted.inequality_constraints:
        assert g.evaluate(z) >= -tol * (1.0 + abs_evaluate(g, z))
    for G in lifted.matrix_inequalities:
        matrix = np.zeros((len(G), len(G)))
        for p, row in enumerate(G):
            for q, entry in enumerate(row, start=p):
                matrix[p, q] = matrix[q, p] = entry.evaluate(z)
        eigs = np.linalg.eigvalsh(matrix)
        assert eigs[0] >= -tol * (1.0 + abs(eigs[-1]))


lift_cases = pytest.mark.parametrize(
    "shape, tau",
    [(shape, tau) for shape in SHAPES for tau in TAUS],
    ids=lambda v: v if isinstance(v, str) else f"{v[0]}_{v[1]}",
)


@lift_cases
def test_witness_is_feasible_and_matches_the_objective(shape, tau):
    instance = make_instance(shape, tau)
    lifted = build_lifted(instance)
    rng = np.random.default_rng(1)
    for _ in range(3):
        x = box_point(instance, rng)
        z = lifted_witness(instance, lifted, x)
        assert_feasible(lifted, z)
        value = instance.objective_value(x)
        assert lifted.objective_num.evaluate(z) == pytest.approx(value, rel=1e-9, abs=1e-9)
        assert lifted.objective_den.evaluate(z) == 1.0


def assert_dirac_feasible(instance, lifted, sdp, x):
    """The normalized Dirac measure at the witness of ``x`` satisfies every
    relaxation constraint and has the objective value at ``x``."""
    y = dirac_moment_vector(sdp, lifted_witness(instance, lifted, x))
    for row in sdp.equalities:
        assert abs(row.residual(y)) <= 1e-9 * (1.0 + abs(row.rhs))
    for block in sdp.psd_blocks:
        eigs = np.linalg.eigvalsh(block.assemble(y))
        assert eigs[0] >= -1e-9 * (1.0 + abs(eigs[-1]))
    assert sdp.objective.evaluate(y) == pytest.approx(
        instance.objective_value(x), rel=1e-9, abs=1e-9
    )


@lift_cases
def test_dirac_at_the_witness_is_feasible_for_the_relaxation(shape, tau):
    instance = make_instance(shape, tau)
    lifted = build_lifted(instance)
    sdp = build_sparse(lifted, min_order(lifted).r_min)
    assert_dirac_feasible(instance, lifted, sdp, box_point(instance, np.random.default_rng(2)))


@pytest.mark.parametrize("tau", [(2, 1), (3, 1)], ids=["2_1", "3_1"])
@pytest.mark.parametrize("shape", SHAPES)
def test_objective_value_is_one_row_of_objective_values(shape, tau):
    instance = make_instance(shape, tau)
    points = np.random.default_rng(4).uniform(-0.5, 1.5, (200, 2))
    for x in points:
        assert instance.objective_value(x) == instance.objective_values(x[None, :])[0]


@pytest.mark.parametrize("tau", [(2, 1), (3, 1)])
def test_general_lift_keeps_every_binary(tau):
    # n*(n - 1) assignment variables; all n**2 binaries, the last row's
    # among them, reach the equalities, and every variable has a scale.
    instance = make_instance("general", tau)
    lifted = build_lifted(instance)
    n = instance.n
    assert len(dict(lifted.variable_groups)["w"]) == n * (n - 1)
    equalities = set(lifted.equality_constraints)
    binaries = assignment_binaries(lifted, n)
    assert len(binaries) == n * n
    assert all(b in equalities for b in binaries)


@pytest.mark.parametrize(
    "params",
    [{"variant": "general", "position_lambda": (1.0,)}, {"variant": "range"}],
    ids=["general", "range"],
)
def test_one_anchor_instance_is_sound(params):
    # One anchor: the general lift's one assignment entry is 1, so it has a
    # single clique and no assignment variable, and the range weights are (0,).  The ball is
    # widened to hold a point off the anchor.
    away = [1.1, -0.4]
    instance = LocationInstance(points=((0.3, 0.6),), **params)
    instance = dataclasses.replace(instance, ball_bound=ball_holding(instance, away))
    lifted = build_lifted(instance)
    sdp = build_sparse(lifted, min_order(lifted).r_min)
    for x in (instance.points[0], away):
        assert_dirac_feasible(instance, lifted, sdp, x)
    result = solve(sdp)
    assert result.status.solved()
    anchor_value = instance.objective_value(instance.points[0])
    assert anchor_value == 0.0
    assert sdp.objective.evaluate(result.y) <= anchor_value + 1e-6


@lift_cases
@pytest.mark.parametrize("outside", [False, True], ids=["inside", "outside"])
def test_calibrated_ball_keeps_the_witness_feasible(shape, tau, outside):
    instance = make_instance(shape, tau)
    x = box_point(instance, np.random.default_rng(3), outside)
    snug = dataclasses.replace(instance, ball_bound=ball_holding(instance, x))
    lifted = build_lifted(snug)
    assert_feasible(lifted, lifted_witness(snug, lifted, x))


@pytest.mark.parametrize("tau", [(2, 1), (3, 1)], ids=["2_1", "3_1"])
@pytest.mark.parametrize("shape", SHAPES)
def test_arrow_blocks_replace_the_distance_equalities(shape, tau):
    # Planar l2 lifts of the aggregations nondecreasing in each distance
    # have one 3x3 arrow block per anchor and no distance equality; only
    # the Weber sum keeps a distance variable.  The others keep the
    # polynomial norm lift.
    lifted = build_lifted(make_instance(shape, tau))
    groups = dict(lifted.variable_groups)
    if shape in ARROW_SHAPES and tau == (2, 1):
        assert [len(G) for G in lifted.matrix_inequalities] == [3] * 4
        assert lifted.equality_constraints == ()
        assert ("z" in groups) is (shape == "weber")
        assert max(g.degree for g in lifted.inequality_constraints) == 2
    else:
        assert lifted.matrix_inequalities == ()
        assert len(groups["z"]) == 4


@pytest.mark.parametrize("shape", ARROW_SHAPES)
def test_arrow_lift_is_sound_on_a_half_plane(shape):
    instance = dataclasses.replace(make_instance(shape, (2, 1)), ground_set=half_plane())
    lifted = build_lifted(instance)
    sdp = build_sparse(lifted, 1)
    rng = np.random.default_rng(4)
    points = [box_point(instance, rng) for _ in range(12)]
    inside = [x for x in points if instance.region.contains(x)][:3]
    assert len(inside) == 3
    for x in inside:
        z = lifted_witness(instance, lifted, x)
        assert_feasible(lifted, z)
        value = instance.objective_value(x)
        assert lifted.objective_num.evaluate(z) == pytest.approx(value, rel=1e-9, abs=1e-9)
        assert_dirac_feasible(instance, lifted, sdp, x)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "variant, params", [("weber", {}), ("center", {}), ("kcentrum", {"k": 2})],
    ids=["weber", "center", "kcentrum"],
)
def test_arrow_relaxation_is_exact(variant, params, seed, order):
    # The convex aggregations relax exactly: the bound meets the better of
    # the direct search and the value at the extracted point, from below up
    # to the dual residual's rounding.
    instance = random_instance(6, 2, seed, variant, weights=WEIGHTS + (1.0, 0.25), **params)
    sdp = build_sparse(build_lifted(instance), order)
    result = solve(sdp)
    assert result.status is SolveStatus.OPTIMAL
    oracle = multistart_descent(instance, n_starts=10, seed=0).best_value
    solution = extract_point(sdp, result.y, objective=instance.objective_value)
    reference = min(oracle, solution.certified_value)
    assert abs(result.objective - reference) <= 1e-6 * (1.0 + abs(reference))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("shape", ARROW_SHAPES)
def test_arrow_lifts_leave_the_epigraph_variables_linear(shape, seed, dim):
    # The epigraph variables (Weber's distances, the center's t, the
    # k-centrum's t and r) enter only linearly: they lie in no clique, the
    # relaxation holds their first moments alone and one moment block over
    # the facility position.  Order 2 then gains nothing over order 1.
    variant = "trimmed" if shape == "trimmed02" else shape
    instance = random_instance(
        6, dim, seed, variant, weights=WEIGHTS + (1.0, 0.25), **SHAPES[shape]
    )
    lifted = build_lifted(instance)
    epigraph = [v for _, ids in lifted.variable_groups for v in ids]
    x_ids = tuple(range(dim))
    assert lifted.cliques == (x_ids,)
    bounds = []
    for order in (1, 2):
        sdp = build_sparse(lifted, order)
        moments = [(b.size, b.variables) for b in sdp.psd_blocks if b.kind == "moment"]
        assert moments == [(math.comb(dim + order, order), x_ids)]
        rows = sdp.moment_rows[np.isin(sdp.moment_rows, epigraph).any(axis=1)]
        assert sorted(rows.max(axis=1)) == epigraph
        assert np.all((rows >= 0).sum(axis=1) == 1)
        result = solve(sdp)
        assert result.status is SolveStatus.OPTIMAL
        bounds.append(result.objective)
    assert abs(bounds[1] - bounds[0]) <= 1e-7 * abs(bounds[0])
    oracle = multistart_descent(instance, n_starts=10, seed=0).best_value
    assert bounds[1] <= oracle + 1e-6 * (1.0 + abs(oracle))


@pytest.mark.parametrize(
    "variant, params, order",
    [
        ("weber", {}, 2),
        ("weber", {}, 3),
        ("center", {}, 2),
        ("center", {}, 3),
        ("kcentrum", {"k": 2}, 2),
    ],
    ids=["weber-2", "weber-3", "center-2", "center-3", "kcentrum-2"],
)
def test_nonconvex_ground_set_keeps_the_distance_equalities(variant, params, order):
    # On the unit circle around the anchors the minimum lies far above the
    # one over its hull, the disk, where arrow blocks on first moments would
    # hold the bound at every order.  The distance equalities reach the
    # circle's minimum.  (The k-centrum at order 3 takes seconds.)
    universe = VariableUniverse(["x1", "x2"])
    circle = SemialgebraicSet(universe, [], [parse("x1^2 + x2^2 - 1", universe)])
    points = ((0.2, 0.1), (-0.3, 0.2), (0.1, -0.4))
    instance = LocationInstance(points=points, variant=variant, ground_set=circle, **params)
    lifted = build_lifted(instance)
    assert lifted.matrix_inequalities == ()
    assert len(lifted.equality_constraints) == 1 + len(points)
    result = solve(build_sparse(lifted, order))
    assert result.status is SolveStatus.OPTIMAL
    oracle = multistart_descent(instance, n_starts=10, seed=0).best_value
    free = dataclasses.replace(instance, ground_set=None)
    assert multistart_descent(free, n_starts=10, seed=0).best_value < 0.5 * oracle
    assert abs(result.objective - oracle) <= 1e-6 * (1.0 + abs(oracle))


def test_witness_rejects_an_unknown_form():
    instance = make_instance("weber", (2, 1))
    lifted = dataclasses.replace(build_lifted(instance), form="other")
    with pytest.raises(ValueError, match="unknown lifted form"):
        lifted_witness(instance, lifted, [0.5, 0.5])


ANCHORS = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))


@pytest.mark.parametrize(
    "kwargs, error, match",
    [
        ({"variant": "kcentrum", "k": 0}, ValueError, "1 <= k <= n"),
        ({"variant": "kcentrum", "k": 5}, ValueError, "1 <= k <= n"),
        ({"variant": "trimmed", "trim": (-1, 1)}, ValueError, "nonnegative"),
        ({"variant": "trimmed", "trim": (2, 2)}, EmptyWindowError, "removes all"),
        ({"variant": "weber", "k": 2}, ValueError, "for the kcentrum"),
        ({"variant": "kcentrum", "k": 2, "trim": (1, 1)}, ValueError, "for the trimmed"),
        ({"variant": "center", "position_lambda": (1, 0, 0, 0)}, ValueError, "for the general"),
        ({"norm_tau": (4, 2)}, InvalidNormError, "coprime"),
        ({"norm_tau": (1, 2)}, InvalidNormError, "r >= s >= 1"),
        ({"norm_tau": (True, 1)}, InvalidNormError, "integers"),
        ({"weights": (1.0, 1.0, 1.0)}, ValueError, "3 weights for 4"),
        ({"weights": (1.0, -1.0, 1.0, 1.0)}, ValueError, "nonnegative"),
        (
            {"ground_set": SemialgebraicSet(VariableUniverse(["x1"]), [], [])},
            ValueError,
            "exactly the facility position",
        ),
        ({"ball_bound": 1.5}, ValueError, "does not contain the anchor"),
        ({"ball_bound": math.inf}, ValueError, "finite and positive"),
        ({"ball_bound": math.nan}, ValueError, "finite and positive"),
        ({"ball_bound": -4.0}, ValueError, "finite and positive"),
        (
            {
                "ground_set": SemialgebraicSet(
                    VariableUniverse(["x1", "x2"]), ball_bound=40.0, ball_variables=(0, 1)
                ),
                "ball_bound": 50.0,
            },
            ValueError,
            "disagrees",
        ),
        (
            {
                "ground_set": SemialgebraicSet(
                    VariableUniverse(["x1", "x2"]), ball_bound=40.0, ball_variables=(0,)
                )
            },
            ValueError,
            "every variable",
        ),
        ({"variant": "kcentrum", "k": 2.7}, ValueError, "k must be an integer"),
        ({"variant": "kcentrum", "k": True}, ValueError, "k must be an integer"),
        ({"variant": "trimmed", "trim": (0.9, 1.5)}, ValueError, "trim count must be"),
        ({"points": ((0.0, 0.0), (math.nan, 1.0))}, ValueError, "must be finite"),
        ({"points": ((0.0, math.inf), (1.0, 1.0))}, ValueError, "must be finite"),
        ({"weights": (1.0, math.nan, 1.0, 1.0)}, ValueError, "weights must be finite"),
        (
            {"variant": "general", "position_lambda": (1.0, math.nan, 0.0, 0.0)},
            ValueError,
            "rank weights must be finite",
        ),
    ],
    ids=[
        "k_zero",
        "k_above_n",
        "negative_trim",
        "empty_window",
        "k_on_weber",
        "trim_on_kcentrum",
        "lambda_on_center",
        "tau_not_coprime",
        "tau_below_one",
        "tau_bool",
        "weight_count",
        "negative_weight",
        "ground_dimension",
        "ball_misses_anchor",
        "infinite_ball",
        "nan_ball",
        "negative_ball",
        "ground_ball_disagrees",
        "ground_ball_misses_a_coordinate",
        "k_fraction",
        "k_bool",
        "trim_fractions",
        "nan_anchor",
        "infinite_anchor",
        "nan_weight",
        "nan_rank_weight",
    ],
)
def test_instance_rejects(kwargs, error, match):
    with pytest.raises(error, match=match):
        LocationInstance(**{"points": ANCHORS, **kwargs})


def test_instance_keeps_integer_counts():
    # numpy integers are counts too, and stay exactly what was given
    kcentrum = LocationInstance(points=ANCHORS, variant="kcentrum", k=np.int64(3))
    trimmed = LocationInstance(points=ANCHORS, variant="trimmed", trim=(np.int32(1), 2))
    assert (kcentrum.k, trimmed.trim) == (3, (1, 2))
    assert type(kcentrum.k) is int and all(type(v) is int for v in trimmed.trim)


@pytest.mark.parametrize("ball_bound", [40.0, None])
def test_matching_ground_ball_is_the_region(ball_bound):
    ground = SemialgebraicSet(
        VariableUniverse(["x1", "x2"]), ball_bound=40.0, ball_variables=(1, 0)
    )
    instance = LocationInstance(points=ANCHORS, ground_set=ground, ball_bound=ball_bound)
    assert instance.ball_bound == 40.0
    assert instance.region is ground
