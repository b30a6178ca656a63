"""Tests for the reference optimizers used to certify relaxation output."""

from __future__ import annotations

import numpy as np
import pytest

from owasdp.location import LocationInstance
from owasdp.omrf import LambdaWeights, OmrfProblem
from owasdp import oracle
from owasdp.oracle import (
    CallableProblem,
    OracleResult,
    _coordinate_refine,
    _evaluate_block,
    _newton_restore,
    _repair,
    _stencil,
    ball_box,
    grid_search,
    multistart_descent,
)
from owasdp.polynomial import (
    Polynomial,
    RationalFunction,
    SemialgebraicSet,
    VariableUniverse,
    parse,
)

from support import (
    CONE_L3_OPT_POINT,
    CONE_L3_OPT_VALUE,
    DEMO_POINTS,
    SUM_L3_OPT_POINT,
    SUM_L3_OPT_VALUE,
    cone_region,
    scalar_gradient,
    sum_l3_batch,
)


def pointwise(objective, region=None):
    """A problem whose batched objective evaluates the scalar ``objective``
    row by row; a row where it raises ValueError (an undefined point) gets
    +inf."""

    def values(points):
        out = np.empty(len(points))
        for i, x in enumerate(points):
            try:
                out[i] = objective(x)
            except ValueError:
                out[i] = np.inf
        return out

    return CallableProblem(values, region)


def value_at(problem, point):
    """The problem's objective at one point, through its batched protocol."""
    return float(problem.objective_values(np.asarray(point, dtype=float)[None, :])[0])


def scalar_value(problem, point):
    """The problem's objective at one point, +inf where it is not finite."""
    value = value_at(problem, point)
    return value if np.isfinite(value) else np.inf


def scalar_merit(problem, region, point):
    """The pattern search's exact-penalty merit at one point."""
    value = scalar_value(problem, point)
    if region is None or not np.isfinite(value):
        return value
    return value + oracle._PENALTY * float(region.violation_many(point[None, :])[0])


def quadratic_distance_problem(anchors, weights=None, region=None):
    """Sum of weighted squared distances to the given anchor points."""
    anchors = np.asarray(anchors, dtype=float)
    if weights is None:
        weights = np.ones(len(anchors))

    def batch(xs):
        diffs = xs[:, None, :] - anchors[None, :, :]
        return (diffs**2).sum(axis=2) @ weights

    return CallableProblem(batch, region)


class TestOracleResult:
    def test_empty_result(self):
        assert OracleResult(None, float("inf"), "grid", 10).empty


class TestBallBox:
    def test_box_from_ball(self):
        region = SemialgebraicSet(
            VariableUniverse(["x", "y"]), ball_bound=9.0, ball_variables=(0, 1)
        )
        box = ball_box(region)
        np.testing.assert_allclose(box, [(-3.0, 3.0), (-3.0, 3.0)])

    def test_requires_ball(self):
        region = SemialgebraicSet(VariableUniverse(["x"]))
        with pytest.raises(ValueError):
            ball_box(region)


class TestGridSearch:
    def test_point_objective_hits_anchor(self):
        problem = quadratic_distance_problem([[0.4, -0.2]])
        result = grid_search(problem, [(-1.0, 1.0), (-1.0, 1.0)], 0.05)
        assert result.method == "grid"
        assert result.best_value <= 1e-8
        np.testing.assert_allclose(result.best_point, [0.4, -0.2], atol=1e-3)

    def test_two_point_center(self):
        # largest of the two squared distances is minimized at the midpoint
        anchors = np.array([[0.0, 0.0], [1.0, 0.6]])

        def objective(x):
            return float(((anchors - x) ** 2).sum(axis=1).max())

        problem = pointwise(objective)
        result = grid_search(problem, [(-0.5, 1.5), (-0.5, 1.5)], 0.02)
        np.testing.assert_allclose(result.best_point, [0.5, 0.3], atol=0.02)

    def test_dimension_limit(self):
        problem = quadratic_distance_problem([[0.0] * 4])
        with pytest.raises(ValueError):
            grid_search(problem, [(-1.0, 1.0)] * 4, 0.1)

    def test_step_must_be_positive(self):
        problem = quadratic_distance_problem([[0.0]])
        with pytest.raises(ValueError):
            grid_search(problem, [(-1.0, 1.0)], 0.0)

    def test_infeasible_region_yields_empty(self):
        universe = VariableUniverse(["x"])
        region = SemialgebraicSet(
            universe, [parse("x - 10", universe)], ball_bound=4.0, ball_variables=(0,)
        )
        problem = pointwise(lambda x: float(x[0]), region)
        result = grid_search(problem, [(-2.0, 2.0)], 0.5)
        assert result.empty
        assert result.best_point is None

    def test_tie_break_is_lexicographic(self):
        universe = VariableUniverse(["x"])
        poly = parse("x^4 - 2*x^2 + 1", universe)
        problem = CallableProblem(poly.evaluate_many)
        result = grid_search(problem, [(-2.0, 2.0)], 0.5)
        # both -1 and +1 are global minimizers on this grid; the scan keeps
        # the lexicographically first one
        assert result.best_point[0] == pytest.approx(-1.0, abs=1e-6)
        assert result.best_value == pytest.approx(0.0, abs=1e-12)

    def test_feasibility_mask_respects_equalities(self):
        universe = VariableUniverse(["x", "y"])
        region = SemialgebraicSet(
            universe,
            [],
            [parse("x - y", universe)],
            ball_bound=8.0,
            ball_variables=(0, 1),
        )
        problem = pointwise(lambda p: float((p[0] - 1.0) ** 2 + p[1]), region)
        result = grid_search(problem, [(-1.0, 1.0), (-1.0, 1.0)], 0.25)
        assert result.best_point[0] == pytest.approx(result.best_point[1])

    def test_golden_unconstrained_sum(self):
        lows = DEMO_POINTS.min(axis=0)
        highs = DEMO_POINTS.max(axis=0)
        problem = CallableProblem(sum_l3_batch)
        result = grid_search(problem, list(zip(lows, highs)), 2e-2)
        assert abs(result.best_value - SUM_L3_OPT_VALUE) <= 5e-4
        np.testing.assert_allclose(result.best_point, SUM_L3_OPT_POINT, atol=1e-3)


class TestMultistart:
    def test_point_objective_hits_anchor(self):
        problem = quadratic_distance_problem([[0.4, -0.2]])
        result = multistart_descent(
            problem, n_starts=5, seed=1, box=[(-1.0, 1.0), (-1.0, 1.0)]
        )
        assert result.method == "multistart"
        assert result.best_value <= 1e-10
        np.testing.assert_allclose(result.best_point, [0.4, -0.2], atol=1e-5)

    def test_requires_box_or_ball(self):
        problem = quadratic_distance_problem([[0.0]])
        with pytest.raises(ValueError):
            multistart_descent(problem, n_starts=3, seed=0)

    def test_convex_objective_spread_is_tiny(self):
        anchors = [[0.1, 0.2], [0.9, 0.1], [0.4, 0.8]]
        problem = quadratic_distance_problem(anchors)
        result = multistart_descent(
            problem, n_starts=8, seed=2, box=[(-1.0, 1.5), (-1.0, 1.5)]
        )
        finished = [v for v in result.start_values if np.isfinite(v)]
        assert len(finished) == 8
        assert max(finished) - min(finished) < 1e-6
        np.testing.assert_allclose(
            result.best_point, np.mean(anchors, axis=0), atol=1e-5
        )

    def test_seed_reproducibility(self):
        problem = quadratic_distance_problem([[0.3], [0.9]])
        a = multistart_descent(problem, n_starts=4, seed=7, box=[(-1.0, 1.0)])
        b = multistart_descent(problem, n_starts=4, seed=7, box=[(-1.0, 1.0)])
        assert a.best_point == b.best_point
        assert a.best_value == b.best_value
        assert a.start_values == b.start_values

    def test_respects_constraints(self):
        universe = VariableUniverse(["x", "y"])
        # feasible set: x >= 0.5 inside a radius-2 ball; minimize distance to origin
        region = SemialgebraicSet(
            universe,
            [parse("x - 0.5", universe)],
            ball_bound=4.0,
            ball_variables=(0, 1),
        )
        problem = pointwise(lambda p: float(p[0] ** 2 + p[1] ** 2), region)
        result = multistart_descent(problem, n_starts=20, seed=3)
        assert region.contains(np.array(result.best_point), tol=1e-6)
        assert result.best_value == pytest.approx(0.25, abs=1e-5)
        np.testing.assert_allclose(result.best_point, [0.5, 0.0], atol=1e-4)

    def test_equality_constraint(self, monkeypatch):
        # min x + y on the unit circle: -sqrt(2) at -(1, 1)/sqrt(2).  The
        # region has no inequality, so every gradient the restoration takes
        # is the circle's, in the equality loop of ``_newton_restore``.
        universe = VariableUniverse(["x", "y"])
        circle = parse("x^2 + y^2 - 1", universe)
        region = SemialgebraicSet(
            universe, [], [circle], ball_bound=4.0, ball_variables=(0, 1)
        )
        restored = []
        real_derivative = Polynomial.derivative

        def derivative(poly, vid):
            restored.append(poly)
            return real_derivative(poly, vid)

        monkeypatch.setattr(Polynomial, "derivative", derivative)
        problem = pointwise(lambda p: float(p[0] + p[1]), region)
        result = multistart_descent(problem, n_starts=5, seed=0)
        assert restored and all(poly is circle for poly in restored)
        assert result.best_value == pytest.approx(-np.sqrt(2.0), abs=1e-6)
        assert abs(circle.evaluate(np.array(result.best_point))) <= 1e-9

    def test_golden_constrained_sum(self):
        problem = CallableProblem(sum_l3_batch, cone_region(3.0))
        result = multistart_descent(problem, n_starts=100, seed=0)
        assert abs(result.best_value - CONE_L3_OPT_VALUE) <= 1e-4
        np.testing.assert_allclose(result.best_point, CONE_L3_OPT_POINT, atol=1e-3)
        assert cone_region(3.0).contains(np.array(result.best_point), tol=1e-9)


class TestAgreement:
    def test_grid_and_multistart_agree_on_range_objective(self):
        universe = VariableUniverse(["x"])
        x = Polynomial.from_name(universe, "x")
        anchors = (-0.8, 0.1, 0.9)
        functions = tuple(
            RationalFunction.from_polynomial((x - a) ** 2) for a in anchors
        )
        weights = LambdaWeights.constants(universe, [1.0, 0.0, -1.0])
        problem = OmrfProblem(
            functions, weights, SemialgebraicSet(universe), 4.0
        )
        step = 1e-3
        grid = grid_search(problem, [(-2.0, 2.0)], step)
        multistart = multistart_descent(problem, n_starts=30, seed=4)
        assert abs(grid.best_value - multistart.best_value) <= 2 * step + 1e-6
        assert grid.best_value <= multistart.best_value + 1e-9

    def test_omrf_problem_satisfies_protocol(self):
        universe = VariableUniverse(["x", "y"])
        x = Polynomial.from_name(universe, "x")
        y = Polynomial.from_name(universe, "y")
        functions = (
            RationalFunction.from_polynomial((x - 0.5) ** 2 + y**2),
            RationalFunction.from_polynomial(x**2 + (y + 0.3) ** 2),
        )
        weights = LambdaWeights.constants(universe, [1.0, 1.0])
        problem = OmrfProblem(
            functions, weights, SemialgebraicSet(universe), 9.0
        )
        grid = grid_search(problem, [(-1.0, 1.0), (-1.0, 1.0)], 0.05)
        multistart = multistart_descent(problem, n_starts=5, seed=5)
        # unique minimizer of the sum of two squared distances: the midpoint
        target = [0.25, -0.15]
        np.testing.assert_allclose(grid.best_point, target, atol=1e-3)
        np.testing.assert_allclose(multistart.best_point, target, atol=1e-5)


def constrained_omrf():
    """2-centrum of three rational functions on an ellipse cut by an active
    half-plane; one denominator vanishes inside the search box."""
    universe = VariableUniverse(["x", "y"])
    functions = tuple(
        RationalFunction(parse(num, universe), parse(den, universe))
        for num, den in (
            ("x^2 - 0.6*x + 0.09 + y^2", "1 + 0.2*y^2"),
            ("x^2 + y^2 - y + 0.25 - x*y", "1.5 + x"),
            ("0.5 + x*y^3 - y", "1"),
        )
    )
    ground = SemialgebraicSet(
        universe, [parse("x + y - 1", universe), parse("2 - x^2 - 2*y^2", universe)]
    )
    return OmrfProblem(
        functions, LambdaWeights.constants(universe, [1.0, 1.0, 0.0]), ground, 4.0
    )


def constrained_location():
    """(1, 1)-trimmed planar l2 location with an active half-plane."""
    universe = VariableUniverse(["x1", "x2"])
    ground = SemialgebraicSet(universe, [parse("x1 + x2 - 1.6", universe)])
    anchors = np.random.default_rng(4).random((6, 2))
    return LocationInstance(
        points=tuple(map(tuple, anchors)), variant="trimmed", trim=(1, 1), ground_set=ground
    )


@pytest.mark.parametrize("make", [constrained_omrf, constrained_location])
class TestBatchedAgreesWithPointwise:
    """A problem's batched objective and its scalar one, evaluated row by
    row, drive identical searches."""

    def assert_same(self, batched, pointwise):
        assert batched.best_point == pointwise.best_point
        assert batched.evaluations == pointwise.evaluations
        assert batched.start_values == pointwise.start_values
        assert abs(batched.best_value - pointwise.best_value) <= 1e-14 * abs(
            pointwise.best_value
        )

    def test_grid_search(self, make):
        problem = make()
        scalar = pointwise(problem.objective_value, problem.region)
        box = ball_box(problem.region)
        step = 0.05
        self.assert_same(grid_search(problem, box, step), grid_search(scalar, box, step))

    # At the weak penalty the descents end outside the region, so the
    # feasibility repair runs too.
    @pytest.mark.parametrize("penalty", [1e4, 0.1])
    def test_multistart(self, make, penalty, monkeypatch):
        monkeypatch.setattr(oracle, "_PENALTY", penalty)
        problem = make()
        scalar = pointwise(problem.objective_value, problem.region)
        batched = multistart_descent(problem, n_starts=4, seed=6)
        assert np.isfinite(batched.best_value)
        self.assert_same(batched, multistart_descent(scalar, n_starts=4, seed=6))


class TestBatchedCalls:
    def test_two_dimensional_grid_is_one_call(self):
        sizes = []

        def batch(points):
            sizes.append(len(points))
            return (points**2).sum(axis=1)

        problem = CallableProblem(batch)
        result = grid_search(problem, [(-2.0, 2.0), (-2.0, 2.0)], 0.04)
        assert sizes[0] == 101 * 101
        # the refinement rounds poll at most 2d = 4 moves per call
        assert all(size <= 4 for size in sizes[1:])
        assert result.evaluations == sum(sizes)

    def test_one_poll_call_per_round_across_starts(self, monkeypatch):
        location = constrained_location()
        _, rounds = TestPollsMatchSequentialLoops.sequential_multistart(
            location, n_starts=10, seed=0
        )
        events = []

        def batch(points):
            events.append(len(points))
            return location.objective_values(points)

        def restore(*args):
            points, restored = real_restore(*args)
            if restored.any():
                events.append("restored")
            return points, restored

        real_restore = oracle._newton_restore
        monkeypatch.setattr(oracle, "_newton_restore", restore)
        problem = CallableProblem(batch, location.region)
        multistart_descent(problem, n_starts=10, seed=0)
        # the start merits and the repaired values are one call of all ten
        # starts each, before and after the rounds
        assert events[0] == events[-1] == 10
        events = events[1:-1]
        calls = [event for event in events if event != "restored"]
        # a call right after a restored point evaluates the restored block
        polls = [
            size
            for previous, size in zip([None] + events, events)
            if size != "restored" and previous != "restored"
        ]
        assert "restored" in events
        assert len(calls) <= 2 * max(rounds)
        live = [sum(r >= k for r in rounds) for k in range(1, max(rounds) + 1)]
        assert polls == [8 * count for count in live]

    def test_searches_never_build_the_ball_polynomial(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("ball_polynomial called")

        monkeypatch.setattr(SemialgebraicSet, "ball_polynomial", forbidden)
        problem = constrained_omrf()
        assert multistart_descent(problem, n_starts=3, seed=1).best_point is not None
        assert grid_search(problem, ball_box(problem.region), 0.1).best_point is not None


class TestPollsMatchSequentialLoops:
    """The batched polls and the numeric ball against the one-at-a-time
    loops and the symbolic ball they replace: first strict improvement, the
    same moves and the same counts."""

    @staticmethod
    def sequential_refine(problem, region, point, value, h, box, max_rounds=10000):
        evaluations = 0
        for _ in range(max_rounds):
            best_value, best_move = value, None
            for axis in range(len(point)):
                for sign in (1.0, -1.0):
                    candidate = point.copy()
                    candidate[axis] += sign * h
                    lo, hi = box[axis]
                    if candidate[axis] < lo or candidate[axis] > hi:
                        continue
                    if region is not None and not region.contains(candidate, 1e-9):
                        continue
                    cand_value = value_at(problem, candidate)
                    evaluations += 1
                    if cand_value < best_value:
                        best_value, best_move = cand_value, candidate
            if best_move is None:
                break
            point, value = best_move, best_value
        return point, value, evaluations

    @staticmethod
    def draw_start(rng, lo, hi, region):
        """One start: uniform draws until one lies in the ball, the last
        of ``_MAX_START_DRAWS`` + 1 kept even outside it."""
        point = lo + (hi - lo) * rng.random(len(lo))
        if region is None or region.ball_bound is None:
            return point
        for _ in range(oracle._MAX_START_DRAWS):
            if region.ball_values(point) >= 0.0:
                return point
            point = lo + (hi - lo) * rng.random(len(lo))
        return point

    @staticmethod
    def sequential_restore(region, point, lo, hi):
        """One point's Newton restoration, constraint by constraint: None
        where a violated constraint's gradient vanishes."""

        def step(z, value, grad):
            norm_sq = float(np.dot(grad, grad))
            return None if norm_sq <= 1e-18 else z - (value / norm_sq) * grad

        z = np.array(point, dtype=float)
        ball_variables = list(region.ball_variables)
        for _ in range(oracle._RESTORE_SWEEPS):
            moved = False
            for g in region.inequalities:
                value = g.evaluate(z)
                if value < 0.0:
                    z = step(z, value, scalar_gradient(g, z))
                    if z is None:
                        return None
                    moved = True
            ball = region.ball_values(z)
            if ball is not None and ball < 0.0:
                grad = np.zeros(len(z))
                grad[ball_variables] = -2.0 * z[ball_variables]
                z = step(z, float(ball), grad)
                if z is None:
                    return None
                moved = True
            for h in region.equalities:
                value = h.evaluate(z)
                if abs(value) > 1e-12:
                    z = step(z, value, scalar_gradient(h, z))
                    if z is None:
                        return None
                    moved = True
            if not moved:
                break
        return np.clip(z, lo, hi)

    @classmethod
    def sequential_descent(cls, problem, region, start, lo, hi, directions):
        """One pattern-search descent on its own: its final point, its
        evaluation count and its number of poll rounds."""
        point = np.clip(np.asarray(start, dtype=float), lo, hi)
        merit = scalar_merit(problem, region, point)
        evaluations, rounds = 1, 0
        span = float(np.max(hi - lo))
        h = 0.25 * span
        while h >= oracle._MIN_STEP:
            rounds += 1
            raw = np.clip(point + h * directions, lo, hi)
            merits = _evaluate_block(problem, raw)
            evaluations += len(raw)
            if region is not None:
                violations = region.violation_many(raw)
                merits = merits + oracle._PENALTY * violations
                violated = np.flatnonzero(violations > 0.0)
                restored = []
                for i in violated[np.argsort(merits[violated], kind="stable")][:3]:
                    candidate = cls.sequential_restore(region, raw[i], lo, hi)
                    if candidate is not None:
                        restored.append(candidate)
                if restored:
                    extra_merits = [scalar_merit(problem, region, p) for p in restored]
                    evaluations += len(restored)
                    raw = np.vstack([raw, restored])
                    merits = np.concatenate([merits, extra_merits])
            idx = int(np.argmin(merits))
            if merits[idx] < merit:
                point, merit = raw[idx], float(merits[idx])
                h = min(h * 2.0, span)
            else:
                h *= 0.5
        return point, evaluations, rounds

    @classmethod
    def sequential_multistart(cls, problem, n_starts, seed, box=None):
        """``multistart_descent`` with its descents run one start at a time;
        also returns each descent's number of poll rounds."""
        region = problem.region
        lo, hi = np.array(box if box is not None else ball_box(region), dtype=float).T
        rng = np.random.default_rng(seed)
        directions = _stencil(len(lo))
        evaluations, best, start_values, rounds = 0, None, [], []
        for _ in range(n_starts):
            start = cls.draw_start(rng, lo, hi, region)
            point, used, count = cls.sequential_descent(problem, region, start, lo, hi, directions)
            evaluations += used
            rounds.append(count)
            used = 1
            if not region.contains(point, 1e-9):
                point, used = cls.sequential_repair(region, point, directions)
            evaluations += used
            feasible = region.contains(point, 1e-9)
            value = scalar_value(problem, point)
            if not feasible or not np.isfinite(value):
                start_values.append(np.inf)
                continue
            start_values.append(value)
            candidate = (value, tuple(float(c) for c in point))
            if best is None or candidate < best:
                best = candidate
        value, point = best if best is not None else (np.inf, None)
        result = OracleResult(
            point, value, "multistart", evaluations,
            starts=n_starts, start_values=tuple(start_values),
        )
        return result, rounds

    def assert_multistart_matches(self, problem, n_starts, seed, box=None):
        got = multistart_descent(problem, n_starts, seed, box=box)
        want, _ = self.sequential_multistart(problem, n_starts, seed, box)
        assert got.best_point == want.best_point
        assert got.best_value == want.best_value
        assert got.start_values == want.start_values
        assert got.evaluations == want.evaluations

    @pytest.mark.parametrize("penalty", [1e4, 0.1])
    @pytest.mark.parametrize("make", [constrained_omrf, constrained_location])
    def test_lockstep_descents(self, make, penalty, monkeypatch):
        monkeypatch.setattr(oracle, "_PENALTY", penalty)
        self.assert_multistart_matches(make(), n_starts=6, seed=6)

    @pytest.mark.parametrize(
        "variant, options",
        [
            ("weber", {}),
            ("center", {}),
            ("kcentrum", {"k": 2}),
            ("trimmed", {"trim": (1, 1)}),
            ("range", {}),
        ],
    )
    def test_lockstep_descents_on_location_variants(self, variant, options):
        anchors = np.random.default_rng(11).random((5, 2))
        problem = LocationInstance(
            points=tuple(map(tuple, anchors)), variant=variant, **options
        )
        self.assert_multistart_matches(problem, n_starts=5, seed=2)

    @staticmethod
    def sequential_repair(region, point, directions):
        def violation(x):
            total = sum(abs(h.evaluate(x)) for h in region.equalities)
            total += sum(max(0.0, -g.evaluate(x)) for g in region.inequalities)
            return total + max(0.0, -region.ball_polynomial().evaluate(x))

        evaluations, current, h = 1, violation(point), 1e-2
        while h >= 1e-12 and current > 0.0:
            best_violation, best_point = current, None
            for direction in directions:
                candidate = point + h * direction
                cand_violation = violation(candidate)
                evaluations += 1
                if cand_violation < best_violation:
                    best_violation, best_point = cand_violation, candidate
            if best_point is not None:
                point, current = best_point, best_violation
                h *= 2.0
            else:
                h *= 0.5
        return point, evaluations

    @staticmethod
    def symbolic_restore(region, point, lo, hi, sweeps=3):
        z = np.array(point, dtype=float)
        constraints = list(region.inequalities) + [region.ball_polynomial()]
        for _ in range(sweeps):
            moved = False
            for g in constraints:
                value = g.evaluate(z)
                if value < 0.0:
                    grad = scalar_gradient(g, z)
                    z = z - (value / float(np.dot(grad, grad))) * grad
                    moved = True
            if not moved:
                break
        return np.clip(z, lo, hi)

    def assert_refine_matches(self, problem, region, start, h, box):
        value = value_at(problem, start)
        got = _coordinate_refine(problem, region, start, value, h, box)
        want = self.sequential_refine(problem, region, start, value, h, box)
        assert tuple(got[0]) == tuple(want[0])
        assert got[1:] == want[1:]

    def test_coordinate_refine(self):
        omrf = constrained_omrf()
        problem = pointwise(omrf.objective_value, omrf.region)
        box = ball_box(omrf.region)
        for start in np.random.default_rng(8).uniform(0.3, 0.9, (5, 2)):
            if omrf.region.contains(start):
                for h in (0.05, 0.01):
                    self.assert_refine_matches(problem, omrf.region, start, h, box)

    def test_coordinate_refine_ties_and_box_edges(self):
        box = [(-1.0, 1.0), (-1.0, 1.0)]
        flat = pointwise(lambda p: 0.0)
        self.assert_refine_matches(flat, None, np.array([0.2, -0.3]), 0.1, box)
        # descent pushes against the corner: moves out of the box are not polled
        outward = pointwise(lambda p: -float(p[0] + 2.0 * p[1]))
        self.assert_refine_matches(outward, None, np.array([0.35, 0.5]), 0.25, box)

    def test_repair(self):
        problem = constrained_location()
        directions = _stencil(2)
        points = np.random.default_rng(9).uniform(0.2, 1.0, (6, 2))
        got_points, values, _, used = _repair(problem, problem.region, points, directions)
        assert not problem.region.contains_many(points).all()
        for point, got_point, value, got_used in zip(points, got_points, values, used):
            want_point, want_used = self.sequential_repair(problem.region, point, directions)
            assert tuple(got_point) == tuple(want_point)
            assert got_used == want_used
            assert value == scalar_value(problem, want_point)

    def test_repair_keeps_its_point_on_a_violation_plateau(self):
        universe = VariableUniverse(["x", "y"])
        region = SemialgebraicSet(
            universe, [], [Polynomial.constant(universe, 1.0)], 4.0, (0, 1)
        )
        problem = pointwise(lambda p: 0.0, region)
        point = np.array([0.1, 0.2])
        got_points, _, feasible, used = _repair(problem, region, point[None, :], _stencil(2))
        want_point, want_used = self.sequential_repair(region, point, _stencil(2))
        assert not feasible[0]
        assert tuple(got_points[0]) == tuple(want_point) == (0.1, 0.2)
        assert used[0] == want_used

    def test_newton_restore_matches_the_symbolic_ball(self):
        problem = constrained_location()
        region = problem.region
        lo, hi = np.array(ball_box(region)).T
        radius = np.sqrt(region.ball_bound)
        angles = np.random.default_rng(10).uniform(0.0, 2.0 * np.pi, 8)
        # outside the ball, and on either side of the half-plane
        points = 1.05 * radius * np.column_stack([np.cos(angles), np.sin(angles)])
        got, restored = _newton_restore(region, points, lo, hi)
        assert restored.all()
        for point, row in zip(points, got):
            want = self.symbolic_restore(region, point, lo, hi)
            assert tuple(row) == tuple(want)
            assert not np.array_equal(row, point)

    @pytest.mark.parametrize("which", ["omrf", "circle"])
    def test_newton_restore_of_a_block_is_each_row_alone(self, which):
        rng = np.random.default_rng(12)
        if which == "omrf":
            region = constrained_omrf().region
            # around the active half-plane and the ellipse, some rows inside
            points = rng.uniform(-0.5, 1.6, (40, 2))
        else:
            universe = VariableUniverse(["x", "y"])
            circle = parse("x^2 + y^2 - 1", universe)
            region = SemialgebraicSet(universe, [], [circle], 4.0, (0, 1))
            # the origin's circle gradient vanishes: that row fails alone
            points = np.vstack([rng.uniform(-1.5, 1.5, (20, 2)), [[0.0, 0.0]]])
            points = points[rng.permutation(len(points))]
        lo, hi = np.array(ball_box(region)).T
        got, restored = _newton_restore(region, points, lo, hi)
        for point, row, ok in zip(points, got, restored):
            want = self.sequential_restore(region, point, lo, hi)
            alone, alone_ok = _newton_restore(region, point[None, :], lo, hi)
            assert ok == alone_ok[0] == (want is not None)
            if ok:
                assert tuple(row) == tuple(alone[0]) == tuple(want)
        assert restored.sum() == len(points) - (which == "circle")
        assert not np.array_equal(got[restored], np.clip(points, lo, hi)[restored])
