"""Tests for the ordered-median model and its polynomial lifts."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from owasdp.omrf import (
    EmptyProblemError,
    LambdaWeights,
    LiftBuildError,
    LiftedProblem,
    OmrfProblem,
    PatternMismatchError,
    build_auto,
    build_general_lift,
    build_telescoping,
    evaluate_ordered_median,
    function_bounds,
    lifted_witness,
    putinar_structurally_bounded,
    running_intersection_holds,
)
from owasdp.polynomial import (
    Polynomial,
    RationalFunction,
    SemialgebraicSet,
    VariableUniverse,
    parse,
)

from support import (
    WEIGHT_CLASSES,
    abs_evaluate,
    assignment_binaries,
    random_omrf_point,
    random_omrf_problem,
    random_sign_mixed_problem,
    weight_class_problem,
    with_constant_weights,
)


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def make_problem(
    names,
    numerator_texts,
    weights,
    denominator_texts=None,
    inequality_texts=(),
    equality_texts=(),
    ball=4.0,
):
    universe = VariableUniverse(names)
    functions = []
    for idx, text in enumerate(numerator_texts):
        numerator = parse(text, universe)
        if denominator_texts is None:
            denominator = Polynomial.constant(universe, 1.0)
        else:
            denominator = parse(denominator_texts[idx], universe)
        functions.append(RationalFunction(numerator, denominator))
    if not isinstance(weights, LambdaWeights):
        weights = LambdaWeights.constants(universe, weights)
    ground = SemialgebraicSet(
        universe,
        [parse(t, universe) for t in inequality_texts],
        [parse(t, universe) for t in equality_texts],
    )
    return OmrfProblem(tuple(functions), weights, ground, ball)


def assert_lift_sound(problem, lifted, point, tol=1e-10):
    """Witness feasibility plus objective agreement at one point."""
    z = lifted_witness(problem, lifted, point)
    for h in lifted.equality_constraints:
        assert abs(h.evaluate(z)) <= tol * (1.0 + abs_evaluate(h, z))
    for g in lifted.inequality_constraints:
        assert g.evaluate(z) >= -tol * (1.0 + abs_evaluate(g, z))
    om_value = evaluate_ordered_median(problem, point)
    den_value = lifted.objective_den.evaluate(z)
    assert den_value > 0.0
    lifted_value = lifted.objective_num.evaluate(z) / den_value
    assert abs(lifted_value - om_value) <= 1e-9 * (1.0 + abs(om_value))


random_problem = random_omrf_problem
random_point = random_omrf_point


# ---------------------------------------------------------------------------
# LambdaWeights
# ---------------------------------------------------------------------------


class TestLambdaWeights:
    def weights(self, values):
        universe = VariableUniverse(["x"])
        return LambdaWeights.constants(universe, values)

    def test_all_ones(self):
        w = self.weights([1.0, 1.0, 1.0])
        assert w.trimmed_window() == (0, 0)
        assert w.is_monotone()

    def test_top_k(self):
        w = self.weights([1.0, 1.0, 0.0])
        assert w.trimmed_window() == (0, 1)
        assert w.is_monotone()

    def test_trimmed_window(self):
        w = self.weights([0.0, 1.0, 1.0, 0.0])
        assert w.trimmed_window() == (1, 1)
        assert not w.is_monotone()

    def test_monotone(self):
        w = self.weights([3.0, 2.0, 1.0])
        assert w.trimmed_window() is None
        assert w.is_monotone()

    def test_generic(self):
        for values in ([1.0, 0.0, -1.0], [2.0, 1.0, 3.0], [1.0, 1.0, 0.0, 1.0]):
            w = self.weights(values)
            assert w.trimmed_window() is None
            assert not w.is_monotone()

    def test_all_zero_is_monotone(self):
        w = self.weights([0.0, 0.0])
        assert w.is_monotone()
        assert w.trimmed_window() is None

    def test_polynomial_weights(self):
        universe = VariableUniverse(["x"])
        entries = (parse("1 + x", universe), parse("x", universe))
        w = LambdaWeights(entries)
        assert not w.is_constant()
        assert w.trimmed_window() is None
        assert not w.is_monotone()
        with pytest.raises(ValueError):
            w.constant_values()

    def test_padded_values(self):
        assert self.weights([1.0, 0.5]).padded_constant_values() == (1.0, 0.5, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyProblemError):
            LambdaWeights(())


# ---------------------------------------------------------------------------
# OmrfProblem
# ---------------------------------------------------------------------------


class TestOmrfProblem:
    def test_length_mismatch(self):
        universe = VariableUniverse(["x"])
        f = RationalFunction.from_polynomial(parse("x", universe))
        w = LambdaWeights.constants(universe, [1.0, 0.0])
        with pytest.raises(ValueError):
            OmrfProblem((f,), w, SemialgebraicSet(universe), 1.0)

    def test_nonpositive_ball(self):
        universe = VariableUniverse(["x"])
        f = RationalFunction.from_polynomial(parse("x", universe))
        w = LambdaWeights.constants(universe, [1.0])
        with pytest.raises(ValueError):
            OmrfProblem((f,), w, SemialgebraicSet(universe), 0.0)

    @pytest.mark.parametrize("bound", [math.inf, math.nan])
    def test_non_finite_ball(self, bound):
        universe = VariableUniverse(["x"])
        f = RationalFunction.from_polynomial(parse("x", universe))
        w = LambdaWeights.constants(universe, [1.0])
        with pytest.raises(ValueError, match="finite and positive"):
            OmrfProblem((f,), w, SemialgebraicSet(universe), bound)

    def test_region_attaches_ball(self):
        problem = make_problem(("x", "y"), ("x", "y"), (1.0, 0.0), ball=9.0)
        region = problem.region
        assert region.ball_bound == 9.0
        assert region.ball_variables == (0, 1)
        assert region.contains(np.array([1.0, 2.0]))
        assert not region.contains(np.array([3.0, 1.0]))

    def test_ground_ball_must_cover_all_variables(self):
        universe = VariableUniverse(["x", "y"])
        f = RationalFunction.from_polynomial(parse("x", universe))
        w = LambdaWeights.constants(universe, [1.0])
        ground = SemialgebraicSet(universe, ball_bound=4.0, ball_variables=(0,))
        with pytest.raises(ValueError):
            OmrfProblem((f,), w, ground, 4.0)

    def test_matching_ground_ball_is_the_region(self):
        universe = VariableUniverse(["x", "y"])
        f = RationalFunction.from_polynomial(parse("x", universe))
        w = LambdaWeights.constants(universe, [1.0])
        ground = SemialgebraicSet(universe, ball_bound=4.0, ball_variables=(1, 0))
        assert OmrfProblem((f,), w, ground, 4.0).region is ground

    def test_ground_ball_must_agree(self):
        universe = VariableUniverse(["x"])
        f = RationalFunction.from_polynomial(parse("x", universe))
        w = LambdaWeights.constants(universe, [1.0])
        ground = SemialgebraicSet(universe, ball_bound=2.0, ball_variables=(0,))
        with pytest.raises(ValueError):
            OmrfProblem((f,), w, ground, 4.0)


# ---------------------------------------------------------------------------
# evaluate_ordered_median
# ---------------------------------------------------------------------------


class TestEvaluate:
    def test_max_of_two(self):
        problem = make_problem(("x",), ("x", "1 - x"), (1.0, 0.0), ball=2.0)
        assert evaluate_ordered_median(problem, [0.2]) == pytest.approx(0.8)

    def test_all_ones_is_plain_sum(self):
        rng = np.random.default_rng(7)
        problem = make_problem(
            ("x",), ("x^2", "1 - x", "3*x"), (1.0, 1.0, 1.0), ball=4.0
        )
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, 1)
            expected = sum(f.evaluate(x) for f in problem.functions)
            assert evaluate_ordered_median(problem, x) == pytest.approx(expected)

    def test_range_weights_match_independent_sort(self):
        problem = make_problem(
            ("x",), ("x^2", "x^2 - x", "2*x^2 + 1"), (1.0, 0.0, -1.0), ball=4.0
        )
        x = np.array([0.3])
        values = sorted((f.evaluate(x) for f in problem.functions), reverse=True)
        expected = values[0] - values[2]
        assert evaluate_ordered_median(problem, x) == pytest.approx(expected)
        assert expected == pytest.approx(1.18 - (-0.21))

    def test_denominator_zero_raises(self):
        problem = make_problem(
            ("x",), ("1",), (1.0,), denominator_texts=("x",), ball=4.0
        )
        with pytest.raises(ValueError):
            evaluate_ordered_median(problem, [0.0])
        with pytest.raises(ValueError):
            evaluate_ordered_median(problem, [-0.5])


class TestObjectiveValues:
    """The batched ``objective_values`` against the pointwise evaluator,
    bit for bit."""

    # f1 and f2 are identical (ties); the denominators of f1, f2 and f3
    # vanish on the lines x = -1.2, y = 1.1 and x + y = -1.5 of the box.
    NUMERATORS = ("x^2 - y + 0.5", "x^2 - y + 0.5", "x*y - x^3 + 2*y^2", "1 - x*y^3")
    DENOMINATORS = ("x + 1.2", "x + 1.2", "1.1 - y + 0.3*x^2", "x + y + 1.5")

    def problem(self, weights):
        m = len(weights)
        return make_problem(
            ("x", "y"),
            self.NUMERATORS[:m],
            weights,
            denominator_texts=self.DENOMINATORS[:m],
            ball=8.0,
        )

    def points(self):
        points = np.random.default_rng(23).uniform(-2.0, 2.0, (1000, 2))
        # exact zeros of the first denominator
        points[::97, 0] = -1.2
        return points

    def assert_matches_pointwise(self, problem):
        points = self.points()
        batch = problem.objective_values(points)
        undefined = 0
        for point, value in zip(points, batch):
            try:
                expected = problem.objective_value(point)
            except ValueError:
                assert value == math.inf
                undefined += 1
                continue
            assert value == expected
        assert 0 < undefined < len(points)

    def test_general_with_polynomial_weights(self):
        base = self.problem((0.0, 0.0, 0.0))
        weights = LambdaWeights(
            tuple(parse(t, base.universe) for t in ("1 + 0.5*x", "-0.3 + y", "0.7 - x*y"))
        )
        problem = OmrfProblem(base.functions, weights, base.ground_set, 8.0)
        assert not problem.weights.is_constant()
        self.assert_matches_pointwise(problem)

    def test_kcentrum(self):
        problem = self.problem((1.0, 1.0, 0.0, 0.0))
        assert problem.weights.trimmed_window() == (0, 2)
        self.assert_matches_pointwise(problem)

    def test_monotone(self):
        problem = self.problem((2.0, 1.0, 0.5))
        assert problem.weights.is_monotone()
        assert problem.weights.trimmed_window() is None
        self.assert_matches_pointwise(problem)

    def test_trimmed(self):
        problem = self.problem((0.0, 1.0, 1.0, 0.0))
        assert problem.weights.trimmed_window() == (1, 1)
        self.assert_matches_pointwise(problem)


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


class TestStructuralHelpers:
    def test_running_intersection_passes_on_chain(self):
        assert running_intersection_holds([(1, 2), (2, 3), (3, 4)])

    def test_running_intersection_detects_violation(self):
        # third clique overlaps {1} and {3} but no single predecessor holds both
        assert not running_intersection_holds([(1, 2), (3, 4), (1, 3)])

    def test_disjoint_cliques_pass(self):
        assert running_intersection_holds([(1,), (2,), (3,)])

    def test_putinar_check_detects_missing_ball(self):
        universe = VariableUniverse(["x"])
        x = parse("x", universe)
        lifted = LiftedProblem(
            universe=universe,
            objective_num=x,
            objective_den=Polynomial.constant(universe, 1.0),
            inequality_constraints=(x,),
            equality_constraints=(),
            cliques=((0,),),
            original_variables=(0,),
            form="general",
            variable_groups=(("w", ()),),
        )
        assert not putinar_structurally_bounded(lifted)


# ---------------------------------------------------------------------------
# Interval bounds
# ---------------------------------------------------------------------------


class TestFunctionBounds:
    def test_bounds_enclose_sampled_values(self):
        problem = make_problem(
            ("x",),
            ("x + 2", "x^2 - x"),
            (1.0, 0.0),
            denominator_texts=("1 + x^2", "1"),
            ball=1.0,
        )
        bounds = function_bounds(problem)
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = rng.uniform(-1.0, 1.0, 1)
            for f, (lo, hi) in zip(problem.functions, bounds):
                assert lo - 1e-12 <= f.evaluate(x) <= hi + 1e-12

    def test_uncertifiable_denominator_rejected(self):
        problem = make_problem(
            ("x",), ("1",), (1.0,), denominator_texts=("2 + x",), ball=9.0
        )
        # denominator enclosure over [-3, 3] dips below zero
        with pytest.raises(LiftBuildError):
            function_bounds(problem)


# ---------------------------------------------------------------------------
# General lift
# ---------------------------------------------------------------------------


class TestGeneralLift:
    def test_shapes_m2(self):
        problem = make_problem(
            ("x",),
            ("x", "1 - x"),
            (1.0, 0.0),
            inequality_texts=("x", "1 - x"),
            ball=2.0,
        )
        lifted = build_general_lift(problem)
        assert lifted.form == "general"
        # the first row of w; the second is one minus it
        assert len(lifted.universe) == 1 + 2
        # the first row's sum + binarity of both rows
        assert len(lifted.equality_constraints) == 1 + 4
        # ground (2) + ball + sorting (1) + per-column balls (2)
        assert len(lifted.inequality_constraints) == 2 + 1 + 1 + 2
        assert lifted.cliques == ((0, 1, 2),)
        assert putinar_structurally_bounded(lifted)
        assert running_intersection_holds(lifted.cliques)
        assert lifted.objective_den.is_constant()

    def test_cliques_overlap_consecutive_columns(self):
        problem = make_problem(
            ("x", "y"), ("x", "y", "x + y"), (1.0, 0.5, 0.0), ball=8.0
        )
        lifted = build_general_lift(problem)
        assert len(lifted.cliques) == 2
        for clique in lifted.cliques:
            assert len(clique) == 2 + 2 * 2  # x vars + two columns of w_1., w_2.
        assert running_intersection_holds(lifted.cliques)

    def test_m1_forces_single_assignment(self):
        # w_11 = 1 is the one column's sum: no variable and no constraint
        problem = make_problem(("x",), ("x^2",), (2.0,), ball=4.0)
        lifted = build_general_lift(problem)
        assert lifted.universe.names == ("x",)
        assert dict(lifted.variable_groups)["w"] == ()
        assert lifted.equality_constraints == ()
        assert lifted.cliques == ((0,),)
        assert lifted.objective_num == parse("2.0*x^2", lifted.universe)

    def test_objective_matches_weighted_columns(self):
        problem = make_problem(("x",), ("x", "1 - x"), (1.0, 0.0), ball=2.0)
        lifted = build_general_lift(problem)
        # w_21 = 1 - w_11
        expected = parse("2*w_1_1*x - x - w_1_1 + 1", lifted.universe)
        assert lifted.objective_num == expected

    def test_only_sorting_permutations_feasible(self):
        universe = VariableUniverse(["x"])
        x = parse("x", universe)
        functions = tuple(
            RationalFunction.from_polynomial(p)
            for p in (2.1 * x, 0.4 * x + 0.9, -1.3 * x + 1.7)
        )
        weights = LambdaWeights.constants(universe, [2.0, 1.0, 0.0])
        problem = OmrfProblem(
            functions, weights, SemialgebraicSet(universe), 4.0
        )
        lifted = build_general_lift(problem)
        w_ids = dict(lifted.variable_groups)["w"]
        m = 3
        # sorting constraints are the w-supported inequalities that also
        # involve x (the per-column balls are pure w)
        sorting = [
            g
            for g in lifted.inequality_constraints
            if set(g.variables()) & set(w_ids) and 0 in g.variables()
        ]
        assert len(sorting) == m - 1
        for x_val in np.linspace(0.05, 0.95, 7):
            point = np.array([x_val])
            values = [f.evaluate(point) for f in functions]
            for perm in itertools.permutations(range(m)):
                z = np.zeros(len(lifted.universe))
                z[0] = x_val
                for position, func_index in enumerate(perm):
                    if func_index < m - 1:  # the last row is one minus the others
                        z[w_ids[func_index * m + position]] = 1.0
                feasible = all(g.evaluate(z) >= -1e-9 for g in sorting)
                correctly_sorted = all(
                    values[perm[j]] >= values[perm[j + 1]] - 1e-12
                    for j in range(m - 1)
                )
                assert feasible == correctly_sorted
                if feasible:
                    om = evaluate_ordered_median(problem, point)
                    ratio = lifted.objective_num.evaluate(
                        z
                    ) / lifted.objective_den.evaluate(z)
                    assert ratio == pytest.approx(om, abs=1e-10)

    def test_witness_tie_break_prefers_lower_index(self):
        problem = make_problem(("x",), ("x", "x"), (1.0, 0.0), ball=2.0)
        lifted = build_general_lift(problem)
        z = lifted_witness(problem, lifted, [0.7])
        w_ids = dict(lifted.variable_groups)["w"]
        m = 2
        assert z[w_ids[0 * m + 0]] == 1.0  # function 1 takes position 1
        assert z[w_ids[0 * m + 1]] == 0.0  # so function 2 takes position 2

    def test_registers_all_rows_but_the_last(self):
        problem = make_problem(("x",), ("x", "x^2", "1 - x"), (1.0, 3.0, 2.0), ball=2.0)
        lifted = build_general_lift(problem)
        m = 3
        w_ids = dict(lifted.variable_groups)["w"]
        assert len(w_ids) == m * (m - 1)
        assert lifted.universe.names[1:] == tuple(
            f"w_{i + 1}_{j + 1}" for i in range(m - 1) for j in range(m)
        )
        # the only linear equalities are the sums of the registered rows:
        # no column sums, and no sum of the last row
        linear = [h for h in lifted.equality_constraints if h.degree == 1]
        rows = [set(w_ids[i * m : (i + 1) * m]) for i in range(m - 1)]
        assert [set(h.variables()) for h in linear] == rows
        assert all(h.constant_value() == -1.0 for h in linear)

    def test_every_binary_reaches_the_equalities(self):
        problem = make_problem(("x",), ("x", "x^2", "1 - x"), (1.0, 3.0, 2.0), ball=2.0)
        lifted = build_general_lift(problem)
        equalities = set(lifted.equality_constraints)
        binaries = assignment_binaries(lifted, 3)
        assert len(binaries) == 9
        assert all(b in equalities for b in binaries)


# ---------------------------------------------------------------------------
# Telescoping builder, by weight class
# ---------------------------------------------------------------------------


def group_sizes(lifted):
    return {name: len(ids) for name, ids in lifted.variable_groups}


class TestKcentrum:
    def make(self, k, m=3):
        texts = ["x^2", "x^2 - x", "2*x^2 + 1"][:m]
        weights = [1.0] * k + [0.0] * (m - k)
        return make_problem(("x",), texts, weights, ball=9.0)

    def test_pattern_required(self):
        # no level with lambda_k > lambda_{k+1}
        for weights in ((-1.0, 0.0), (-1.0, -1.0)):
            problem = make_problem(("x",), ("x", "1 - x"), weights, ball=4.0)
            with pytest.raises(PatternMismatchError):
                build_telescoping(problem)
        universe = VariableUniverse(["x"])
        functions = tuple(
            RationalFunction.from_polynomial(parse(t, universe)) for t in ("x", "1 - x")
        )
        weights = LambdaWeights((parse("1 + x", universe), parse("1", universe)))
        problem = OmrfProblem(functions, weights, SemialgebraicSet(universe), 4.0)
        with pytest.raises(PatternMismatchError):
            build_telescoping(problem)

    def test_structure(self):
        problem = self.make(2)
        lifted = build_telescoping(problem)
        assert lifted.form == "telescoping"
        assert group_sizes(lifted) == {"t": 1, "r": 3, "v": 0}
        assert len(lifted.universe) == 1 + 1 + 3
        assert len(lifted.cliques) == 3
        for clique in lifted.cliques:
            assert len(clique) == 3  # x, t, r_j
        assert putinar_structurally_bounded(lifted)
        assert running_intersection_holds(lifted.cliques)
        assert lifted.objective_den == Polynomial.constant(lifted.universe, 1.0)
        expected = parse("2*t_2 + r_2_1 + r_2_2 + r_2_3", lifted.universe)
        assert lifted.objective_num == expected

    def test_max_level_needs_no_slacks(self):
        # max_j f_j = min {t : t >= f_j}: one clique (x, t_1)
        problem = self.make(1)
        lifted = build_telescoping(problem)
        assert group_sizes(lifted) == {"t": 1, "r": 0, "v": 0}
        assert lifted.universe.names == ("x", "t_1")
        assert lifted.cliques == ((0, 1),)
        assert lifted.objective_num == parse("t_1", lifted.universe)
        t = parse("t_1", lifted.universe)
        for f in ("x^2", "x^2 - x", "2*x^2 + 1"):  # t_1 >= f_j
            assert t - parse(f, lifted.universe) in lifted.inequality_constraints
        assert putinar_structurally_bounded(lifted)

    def test_max_level_with_selectors_splits_by_column(self):
        # D = (1, -0.5, 0.5): the max level, one selector level and the
        # plain sum; column j's clique is (x, t_1, v_2j)
        problem = make_problem(
            ("x",), ("x^2", "x^2 - x", "2*x^2 + 1"), (1.0, 0.0, 0.5), ball=9.0
        )
        lifted = build_telescoping(problem)
        assert group_sizes(lifted) == {"t": 1, "r": 0, "v": 3}
        (t_id,) = dict(lifted.variable_groups)["t"]
        v_ids = dict(lifted.variable_groups)["v"]
        assert lifted.cliques == tuple((0, t_id, vid) for vid in v_ids)
        assert putinar_structurally_bounded(lifted)
        assert running_intersection_holds(lifted.cliques)
        for x in (-1.5, 0.0, 0.4, 2.0):
            assert_lift_sound(problem, lifted, np.array([x]))

    def test_k_equals_m_objective_is_plain_sum(self):
        problem = self.make(3)
        lifted = build_telescoping(problem)
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, 1)
            z = lifted_witness(problem, lifted, x)
            total = sum(f.evaluate(x) for f in problem.functions)
            assert lifted.objective_num.evaluate(z) == pytest.approx(total)

    def test_epigraph_minimization_matches_sorted_sum(self):
        # min over t of (k t + sum_j max(0, f_j - t)) equals the sum of the
        # k largest values; the minimum is attained at the k-th largest.
        rng = np.random.default_rng(5)
        for _ in range(50):
            values = rng.uniform(-3.0, 3.0, 5)
            k = int(rng.integers(1, 6))
            candidates = [
                k * t + sum(max(0.0, v - t) for v in values) for t in values
            ]
            expected = sum(sorted(values, reverse=True)[:k])
            assert min(candidates) == pytest.approx(expected, abs=1e-12)


class TestMonotone:
    def test_pattern_required(self):
        # only nonincreasing nonnegative weights and windows are telescoped
        # by build_auto; other constant weights keep the assignment lift
        for weights in ((1.0, 2.0), (1.0, -1.0)):
            problem = make_problem(("x",), ("x", "1 - x"), weights, ball=4.0)
            assert build_auto(problem).form == "general"

    def test_structure(self):
        problem = make_problem(
            ("x",), ("x^2", "x^2 - x", "2*x^2 + 1"), (3.0, 2.0, 1.0), ball=9.0
        )
        lifted = build_telescoping(problem)
        assert lifted.form == "telescoping"
        # levels 1 and 2 get epigraphs, level 1 (the max) without slacks;
        # the top level is the plain sum
        assert group_sizes(lifted) == {"t": 2, "r": 3, "v": 0}
        assert len(lifted.universe) == 1 + 2 + 3
        assert len(lifted.cliques) == 1 + 3  # (x, t_1), then (x, t_2, r_2j)
        assert lifted.objective_den == Polynomial.constant(lifted.universe, 1.0)
        expected = parse(
            "t_1 + 2*t_2 + r_2_1 + r_2_2 + r_2_3 + 4*x^2 - x + 1",
            lifted.universe,
        )
        assert lifted.objective_num == expected
        assert putinar_structurally_bounded(lifted)
        assert running_intersection_holds(lifted.cliques)

    def test_ties_drop_zero_levels(self):
        problem = make_problem(
            ("x",), ("x^2", "x^2 - x", "2*x^2 + 1"), (2.0, 2.0, 1.0), ball=9.0
        )
        lifted = build_telescoping(problem)
        # D = (0, 1, 1): no level 1, an epigraph for level 2 and the plain
        # sum for level 3
        assert group_sizes(lifted) == {"t": 1, "r": 3, "v": 0}
        assert "t_1" not in lifted.universe
        assert "t_3" not in lifted.universe
        assert len(lifted.cliques) == 3
        assert_lift_sound(problem, lifted, np.array([0.3]))

    def test_telescoping_identity(self):
        # weighted sorted sum == telescoped sums-of-largest, pointwise
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = int(rng.integers(1, 7))
            values = rng.uniform(-5.0, 5.0, m)
            lam = np.sort(rng.uniform(0.0, 4.0, m))[::-1]
            ordered = np.sort(values)[::-1]
            direct = float(np.dot(lam, ordered))
            padded = np.append(lam, 0.0)
            telescoped = sum(
                (padded[k] - padded[k + 1]) * ordered[: k + 1].sum()
                for k in range(m)
            )
            assert abs(direct - telescoped) <= 1e-10 * (1.0 + abs(direct))

    def test_single_level_matches_kcentrum_witness_values(self):
        top1 = make_problem(("x",), ("x^2", "1 - x"), (1.0, 0.0), ball=4.0)
        scaled = make_problem(("x",), ("x^2", "1 - x"), (2.5, 0.0), ball=4.0)
        kcentrum = build_telescoping(top1)
        monotone = build_telescoping(scaled)
        assert monotone.universe.names == kcentrum.universe.names
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, 1)
            z_m = lifted_witness(scaled, monotone, x)
            z_k = lifted_witness(top1, kcentrum, x)
            np.testing.assert_array_equal(z_m, z_k)
            value_m = monotone.objective_num.evaluate(z_m)
            value_k = kcentrum.objective_num.evaluate(z_k)
            assert value_m == pytest.approx(2.5 * value_k)
            assert value_m == pytest.approx(evaluate_ordered_median(scaled, x))

    def test_all_ones_reproduces_plain_sum(self):
        problem = make_problem(("x",), ("x", "1 - x", "x^2"), (1.0, 1.0, 1.0), ball=4.0)
        lifted = build_telescoping(problem)
        rng = np.random.default_rng(19)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, 1)
            z = lifted_witness(problem, lifted, x)
            total = sum(f.evaluate(x) for f in problem.functions)
            assert lifted.objective_num.evaluate(z) == pytest.approx(total)


class TestTrimmed:
    def make(self, weights, m=4):
        texts = ["x^2", "x^2 - x", "2*x^2 + 1", "x + 1"][:m]
        return make_problem(("x",), texts, weights, ball=9.0)

    def test_window_identity(self):
        # sum of central values == difference of sums-of-largest, pointwise
        rng = np.random.default_rng(23)
        for _ in range(100):
            m = int(rng.integers(2, 8))
            k1 = int(rng.integers(0, m))
            k2 = int(rng.integers(0, m - k1))
            values = rng.uniform(-5.0, 5.0, m)
            ordered = np.sort(values)[::-1]
            central = ordered[k1 : m - k2].sum()
            difference = ordered[: m - k2].sum() - ordered[:k1].sum()
            assert abs(central - difference) <= 1e-10 * (1.0 + abs(central))

    def test_zero_k1_collapses_to_kcentrum(self):
        problem = self.make([1.0, 1.0, 1.0, 0.0])
        lifted = build_telescoping(problem)
        assert group_sizes(lifted) == {"t": 1, "r": 4, "v": 0}
        assert lifted.equality_constraints == ()
        assert lifted.objective_den == Polynomial.constant(lifted.universe, 1.0)
        expected = parse("3*t_3 + r_3_1 + r_3_2 + r_3_3 + r_3_4", lifted.universe)
        assert lifted.objective_num == expected

    def test_zero_trim_is_plain_sum(self):
        problem = self.make([1.0, 1.0, 1.0, 1.0])
        lifted = build_telescoping(problem)
        assert group_sizes(lifted) == {"t": 0, "r": 0, "v": 0}
        assert lifted.cliques == ((0,),)
        assert lifted.objective_num == parse("4*x^2 + 2", lifted.universe)
        x = np.array([0.4])
        z = lifted_witness(problem, lifted, x)
        total = sum(f.evaluate(x) for f in problem.functions)
        assert lifted.objective_num.evaluate(z) == pytest.approx(total)

    def test_structure(self):
        problem = self.make([0.0, 1.0, 1.0, 0.0])
        lifted = build_telescoping(problem)
        assert group_sizes(lifted) == {"t": 1, "r": 4, "v": 4}
        assert len(lifted.universe) == 1 + 1 + 4 + 4
        assert len(lifted.cliques) == 4
        for clique in lifted.cliques:
            assert len(clique) == 4  # x, t, r_j, v_j
        assert putinar_structurally_bounded(lifted)
        assert running_intersection_holds(lifted.cliques)
        # selector sum is an equality crossing cliques
        v_ids = dict(lifted.variable_groups)["v"]
        crossing = [
            h
            for h in lifted.equality_constraints
            if set(h.variables()) == set(v_ids)
        ]
        assert len(crossing) == 1

    def test_pattern_must_match(self):
        # a window needs one block of ones; other 0/1 weights are neither
        # windows nor monotone and keep the assignment lift
        problem = self.make([0.0, 1.0, 0.0, 1.0])
        assert problem.weights.trimmed_window() is None
        assert build_auto(problem).form == "general"


class TestSignMixed:
    def test_structure(self):
        # differences (-0.5, -1, 2): two selector levels and the top level
        # as a plain sum, so no epigraph
        problem = make_problem(
            ("x",),
            ("x^2", "x^2 - x", "2*x^2 + 1"),
            (0.5, 1.0, 2.0),
            denominator_texts=("1 + x^2", "2", "1"),
            ball=4.0,
        )
        lifted = build_telescoping(problem)
        assert group_sizes(lifted) == {"t": 0, "r": 0, "v": 6}
        assert len(lifted.cliques) == 3
        for clique in lifted.cliques:
            assert len(clique) == 1 + 2  # x, v_1j, v_2j
        v_ids = dict(lifted.variable_groups)["v"]
        sums = [
            h for h in lifted.equality_constraints if len(h.variables()) == 3
        ]
        assert [set(h.variables()) for h in sums] == [set(v_ids[:3]), set(v_ids[3:])]
        assert [h.constant_value() for h in sums] == [-1.0, -2.0]
        assert lifted.objective_den == parse("2 + 2*x^2", lifted.universe)
        assert putinar_structurally_bounded(lifted)
        assert running_intersection_holds(lifted.cliques)
        for x in (-1.5, -0.2, 0.0, 0.7, 1.9):
            assert_lift_sound(problem, lifted, np.array([x]))

    def test_witness_selects_the_largest_values(self):
        problem = make_problem(("x",), ("x", "1 - x", "0.2"), (0.5, 1.0, 2.0), ball=4.0)
        lifted = build_telescoping(problem)
        z = lifted_witness(problem, lifted, [0.9])  # values 0.9, 0.1, 0.2
        v_ids = dict(lifted.variable_groups)["v"]
        np.testing.assert_array_equal(z[list(v_ids)], [1, 0, 0, 1, 0, 1])

    def test_all_zero_weights_keep_the_original_variables(self):
        problem = make_problem(("x", "y"), ("x", "x*y", "y^2"), (0.0, 0.0, 0.0), ball=4.0)
        lifted = build_auto(problem)
        assert lifted.form == "telescoping"
        assert lifted.universe.names == ("x", "y")
        assert lifted.cliques == ((0, 1),)
        assert lifted.objective_num.is_zero()
        assert lifted.objective_den == Polynomial.constant(lifted.universe, 1.0)
        assert putinar_structurally_bounded(lifted)
        assert_lift_sound(problem, lifted, np.array([0.3, -1.2]))


class TestTopLevel:
    """The top level S_m = sum_j f_j is a plain sum unless clearing its
    denominators would raise the minimum relaxation order."""

    def test_rational_plain_sum_keeps_its_epigraph(self):
        problem = weight_class_problem("plainsum", rational=True)
        lifted = build_telescoping(problem)
        assert group_sizes(lifted) == {"t": 1, "r": 3, "v": 0}
        assert "t_3" in lifted.universe
        assert lifted.objective_den == Polynomial.constant(lifted.universe, 1.0)

    def test_single_rational_function_is_its_quotient(self):
        problem = weight_class_problem("single", rational=True)
        lifted = build_telescoping(problem)
        assert lifted.universe.names == ("x",)
        assert lifted.objective_num == parse("1.5*x^2 - 1.5", lifted.universe)
        assert lifted.objective_den == parse("1 + x^2", lifted.universe)

    def test_one_rational_denominator_is_a_plain_sum(self):
        problem = make_problem(
            ("x",), ("x^2", "x"), (2.0, 1.0), denominator_texts=("1 + x^2", "2")
        )
        lifted = build_telescoping(problem)
        assert group_sizes(lifted) == {"t": 1, "r": 0, "v": 0}  # the max level
        assert lifted.objective_den == parse("2 + 2*x^2", lifted.universe)
        for x in (-1.5, 0.0, 0.8):
            assert_lift_sound(problem, lifted, np.array([x]))

    def test_two_rational_denominators_at_the_same_order_are_a_plain_sum(self):
        # k = m = 2 over two quadratic denominators: the cleared sum has
        # degree 4, as low as the epigraph rows' 3 in half-degree
        problem = make_problem(
            ("x",), ("x^2", "x"), (1.0, 1.0), denominator_texts=("1 + x^2", "2 + x^2")
        )
        lifted = build_telescoping(problem)
        assert lifted.universe.names == ("x",)
        assert lifted.objective_num == parse("2*x^2 + x^4 + x + x^3", lifted.universe)
        assert lifted.objective_den == parse("2 + 3*x^2 + x^4", lifted.universe)
        for x in (-1.5, 0.0, 0.8):
            assert_lift_sound(problem, lifted, np.array([x]))

    def test_rational_window_clears_over_the_selectors(self):
        # D = (-1, 0, 1): one selector level and the plain sum, so each
        # column j gets the clique (x, v_1j) with a ball over its selector
        problem = weight_class_problem("window", rational=True)
        lifted = build_telescoping(problem)
        assert group_sizes(lifted) == {"t": 0, "r": 0, "v": 3}
        v_ids = dict(lifted.variable_groups)["v"]
        assert lifted.cliques == tuple((0, vid) for vid in v_ids)
        assert not lifted.objective_den.is_constant()
        assert putinar_structurally_bounded(lifted)

    @pytest.mark.parametrize("rational", [False, True], ids=["poly", "rational"])
    @pytest.mark.parametrize("weight_class", sorted(WEIGHT_CLASSES))
    def test_witness_is_sound(self, weight_class, rational):
        problem = weight_class_problem(weight_class, rational)
        lifted = build_telescoping(problem)
        for x in np.linspace(-2.0, 2.0, 9):
            assert_lift_sound(problem, lifted, np.array([x]))
        assert putinar_structurally_bounded(lifted)
        assert running_intersection_holds(lifted.cliques)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


class TestBuildAuto:
    def test_top_k_routes_to_kcentrum(self):
        problem = make_problem(("x",), ("x", "1 - x"), (1.0, 1.0), ball=4.0)
        lifted = build_auto(problem)
        assert lifted.form == "telescoping"
        # k = m: the plain sum x + (1 - x)
        assert group_sizes(lifted) == {"t": 0, "r": 0, "v": 0}
        assert lifted.objective_num == Polynomial.constant(lifted.universe, 1.0)

    def test_window_routes_to_trimmed(self):
        problem = make_problem(("x",), ("x", "1 - x", "x^2"), (0.0, 1.0, 0.0), ball=4.0)
        lifted = build_auto(problem)
        assert lifted.form == "telescoping"
        assert group_sizes(lifted) == {"t": 1, "r": 3, "v": 3}

    def test_monotone_routes_to_telescoping(self):
        problem = make_problem(("x",), ("x", "1 - x"), (3.0, 1.0), ball=4.0)
        lifted = build_auto(problem)
        assert lifted.form == "telescoping"
        assert group_sizes(lifted) == {"t": 1, "r": 0, "v": 0}  # the max level

    def test_generic_routes_to_general(self):
        problem = make_problem(("x",), ("x", "1 - x"), (1.0, -1.0), ball=4.0)
        assert build_auto(problem).form == "general"

    def test_polynomial_weights_route_to_general(self):
        universe = VariableUniverse(["x"])
        entries = (parse("1 + x", universe), parse("1", universe))
        functions = tuple(
            RationalFunction.from_polynomial(parse(t, universe)) for t in ("x", "1 - x")
        )
        problem = OmrfProblem(
            functions,
            LambdaWeights(entries),
            SemialgebraicSet(universe),
            4.0,
        )
        assert build_auto(problem).form == "general"


# ---------------------------------------------------------------------------
# Lift soundness: witness feasibility and objective agreement on >= 100
# random (problem, point) pairs across both builders and every weight class.
# ---------------------------------------------------------------------------


class TestLiftSoundness:
    def run_pattern(self, pattern, builder, count, seed):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            problem = random_problem(rng, pattern)
            lifted = builder(problem)
            point = random_point(rng, problem)
            assert_lift_sound(problem, lifted, point)
            assert putinar_structurally_bounded(lifted)
            assert running_intersection_holds(lifted.cliques)

    def test_general(self):
        self.run_pattern("general", build_general_lift, 40, 101)

    def test_kcentrum(self):
        self.run_pattern("kcentrum", build_telescoping, 20, 102)

    def test_monotone(self):
        self.run_pattern("monotone", build_telescoping, 20, 103)

    def test_trimmed(self):
        self.run_pattern("trimmed", build_telescoping, 20, 104)

    def test_sign_mixed(self):
        rng = np.random.default_rng(105)
        for _ in range(20):
            problem = random_sign_mixed_problem(rng)
            lifted = build_telescoping(problem)
            for _ in range(2):
                assert_lift_sound(problem, lifted, random_point(rng, problem))
            assert putinar_structurally_bounded(lifted)
            assert running_intersection_holds(lifted.cliques)

    def test_all_zero(self):
        rng = np.random.default_rng(106)
        for _ in range(5):
            problem = with_constant_weights(random_problem(rng, "monotone"), 0.0)
            lifted = build_telescoping(problem)
            assert_lift_sound(problem, lifted, random_point(rng, problem))
            assert putinar_structurally_bounded(lifted)
