"""Tests for standard-form assembly of the moment relaxations."""

from __future__ import annotations

import numpy as np
import pytest

from owasdp.omrf import (
    build_general_lift,
    build_kcentrum,
    build_monotone,
    build_trimmed,
    evaluate_ordered_median,
    lifted_witness,
    LambdaWeights,
    LiftedProblem,
    OmrfProblem,
    running_intersection_holds,
)
from owasdp.polynomial import (
    Polynomial,
    RationalFunction,
    SemialgebraicSet,
    VariableUniverse,
    parse,
)
from owasdp.relaxation import (
    AffineForm,
    OrderTooSmallError,
    RelaxationStructureError,
    SdpProblem,
    SizeStats,
    build_dense,
    build_sparse,
    dirac_moment_vector,
    localizing_order,
    min_order,
    multiplier_degree,
)

from support import (
    hand_lift,
    random_omrf_problem,
    random_omrf_point,
    two_point_weber_lift,
)


def moment_position(sdp, text, universe):
    """Index in y of the moment of the single monomial ``text``."""
    (mono,) = parse(text, universe).terms
    return sdp.moments.index(mono)


class TestOrders:
    def test_quadratic_problem_is_first_order(self):
        lift = hand_lift(("x",), "x", inequality_texts=("x", "1 - x^2"))
        orders = min_order(lift)
        assert orders.r_min == 1
        assert orders.objective_order == 1
        assert orders.inequality_orders == (1, 1)

    def test_degree_five_constraint(self):
        lift = hand_lift(("x",), "x", inequality_texts=("1 - x^5",))
        orders = min_order(lift)
        assert orders.inequality_orders == (3,)
        assert orders.r_min == 3

    def test_rational_denominator_counts(self):
        lift = hand_lift(("x",), "x", denominator_text="1 + x^4")
        assert min_order(lift).objective_order == 2
        assert min_order(lift).r_min == 2

    def test_order_too_small_cites_minimum(self):
        lift = hand_lift(("x",), "x", inequality_texts=("1 - x^4",))
        with pytest.raises(OrderTooSmallError, match="minimum order 2"):
            build_dense(lift, 1)

    def test_truncation_helpers(self):
        assert localizing_order(2, 1) == 1
        assert localizing_order(2, 2) == 1
        assert localizing_order(2, 3) == 1
        assert localizing_order(3, 4) == 1
        assert multiplier_degree(2, 2) == 2
        assert multiplier_degree(1, 2) == 0
        assert multiplier_degree(2, 3) == 2
        assert multiplier_degree(3, 2) == 3


class TestCheckRip:
    def test_chain(self):
        assert running_intersection_holds([(0,), (0, 1), (0, 2)])

    def test_split_intersection(self):
        assert not running_intersection_holds([(0, 1), (2, 3), (1, 2)])

    def test_single(self):
        assert running_intersection_holds([(0, 1, 2)])


class TestHandWeberStructure:
    def test_sparse_block_inventory(self):
        sdp = build_sparse(two_point_weber_lift(), 2)
        kinds = [(b.kind, b.size) for b in sdp.psd_blocks]
        assert kinds == [
            ("moment", 10),
            ("moment", 10),
            ("localizing", 4),
            ("localizing", 4),
            ("localizing", 4),
            ("localizing", 4),
        ]
        assert sdp.psd_blocks[0].variables == (0, 1, 2)
        assert sdp.psd_blocks[1].variables == (0, 1, 3)
        # u1 >= 0 localizes over its whole clique
        assert sdp.psd_blocks[2].variables == (0, 1, 2)
        assert len(sdp.equalities) == 20
        assert sdp.y_dim == 54

    def test_size_stats_by_hand(self):
        sdp = build_sparse(two_point_weber_lift(), 2)
        stats = sdp.stats
        assert stats.cols == 2 * 100 + 4 * 16 + 20 == 284
        assert stats.rows == 54
        # nonzeros counted entry by entry: 99 per moment block, 16 per
        # plain-variable localizer, 63 per ball localizer, 30 + 49 for the
        # two expanded equalities
        expected_nnz = 2 * 99 + 2 * 16 + 2 * 63 + 30 + 49
        assert stats.nonzero_pct == pytest.approx(
            100.0 * expected_nnz / (284 * 54)
        )

    def test_dense_shapes(self):
        sdp = build_dense(two_point_weber_lift(), 2)
        assert sdp.y_dim == 69
        sizes = [b.size for b in sdp.psd_blocks]
        assert sizes == [15, 5, 5, 5, 5]
        assert len(sdp.equalities) == 30

    def test_moment_blocks_stay_inside_their_cliques(self):
        sdp = build_sparse(two_point_weber_lift(), 2)
        for block in sdp.psd_blocks:
            allowed = set(block.variables)
            for idx in block.referenced_indices():
                assert set(sdp.moments[idx].variables()) <= allowed

    def test_dirac_feasibility_and_objective(self):
        lift = two_point_weber_lift()
        sdp = build_sparse(lift, 2)
        point = np.array([0.3, 0.4, 0.5, np.sqrt(0.65)])
        y = dirac_moment_vector(sdp, point)
        for row in sdp.equalities:
            assert abs(row.residual(y)) <= 1e-9
        for block in sdp.psd_blocks:
            eigs = np.linalg.eigvalsh(block.assemble(y))
            assert eigs[0] >= -1e-9 * (1.0 + abs(eigs[-1]))
        assert sdp.objective.evaluate(y) == pytest.approx(
            0.5 + np.sqrt(0.65), abs=1e-12
        )


class TestPivotElimination:
    def test_constant_denominator_scales_corner(self):
        lift = hand_lift(("x",), "x", inequality_texts=("1 - x^2",),
                         denominator_text="2")
        sdp = build_dense(lift, 1)
        corner = next(
            form for i, j, form in sdp.psd_blocks[0].entries if (i, j) == (0, 0)
        )
        assert corner == AffineForm((), (), 0.5)

    def test_polynomial_denominator_substitutes(self):
        lift = hand_lift(("x",), "x", inequality_texts=("1 - x^2",),
                         denominator_text="1 + x^2")
        sdp = build_dense(lift, 1)
        idx = moment_position(sdp, "x^2", lift.universe)
        assert sdp.pivot_substitution == AffineForm((idx,), (-1.0,), 1.0)
        corner = next(
            form for i, j, form in sdp.psd_blocks[0].entries if (i, j) == (0, 0)
        )
        assert corner == AffineForm((idx,), (-1.0,), 1.0)

    def test_rational_dirac_matches_function_value(self):
        lift = hand_lift(("x",), "x^2 + 1", inequality_texts=("1 - x^2",),
                         denominator_text="x^2 + 2")
        sdp = build_dense(lift, 2)
        for x in (-0.8, 0.0, 0.3):
            y = dirac_moment_vector(sdp, np.array([x]))
            expected = (x * x + 1.0) / (x * x + 2.0)
            assert sdp.objective.evaluate(y) == pytest.approx(expected, abs=1e-12)
            # the substituted pivot moment reproduces L_y(1) = 1/q(x)
            assert sdp.pivot_substitution.evaluate(y) == pytest.approx(
                1.0 / (x * x + 2.0), abs=1e-12
            )


class TestOddDegreeConventions:
    def test_degree_three_block_and_multipliers(self):
        lift = hand_lift(
            ("x",),
            "x",
            inequality_texts=("1 - x^3", "1 - x^2"),
            equality_texts=("x^3 - x",),
        )
        sdp = build_dense(lift, 2)
        cubic_block = sdp.psd_blocks[1]
        assert cubic_block.kind == "localizing"
        assert cubic_block.size == 2  # truncated at order r - 1 = 1
        # entries reach degree 2r + 1 = 5; the dictionary extends on demand
        moment_position(sdp, "x^5", lift.universe)
        # degree-3 equality expands against multipliers up to degree 2
        labels = [row.label for row in sdp.equalities]
        assert labels == ["eq0.m0", "eq0.m1", "eq0.m2"]

    def test_contradictory_equality_rejected(self):
        lift = hand_lift(
            ("x",),
            "x",
            inequality_texts=("1 - x^2",),
            equality_texts=("2 + 2*x^2",),
            denominator_text="1 + x^2",
        )
        with pytest.raises(RelaxationStructureError, match="contradiction"):
            build_dense(lift, 1)


class TestCrossCliqueEqualities:
    def general_m3(self):
        universe = VariableUniverse(["x"])
        one = Polynomial.constant(universe, 1.0)
        functions = tuple(
            RationalFunction(parse(text, universe), one)
            for text in ("x", "x^2", "1 - x")
        )
        weights = LambdaWeights.constants(universe, (1.0, 3.0, 2.0))
        ground = SemialgebraicSet(universe, [parse("1 - x^2", universe)], [])
        return OmrfProblem(functions, weights, ground, 2.0)

    def test_row_sums_become_scalar_rows(self):
        lift = build_general_lift(self.general_m3())
        assert len(lift.cliques) == 2
        sdp = build_sparse(lift, min_order(lift).r_min)
        cross = [row for row in sdp.equalities if row.label.endswith(".cross")]
        # one scalar row per assignment-variable row sum: those span both
        # cliques, while column sums and binarity stay clique-local
        assert len(cross) == 3
        for row in cross:
            assert row.form.nnz == 3
            assert row.rhs == 1.0
            assert all(c == 1.0 for c in row.form.coefficients)
        expanded = [r for r in sdp.equalities if not r.label.endswith(".cross")]
        assert expanded


class TestScales:
    def test_moment_scales_multiply_per_degree(self):
        lift = hand_lift(
            ("x", "y"),
            "x + y",
            inequality_texts=("4 - x^2 - y^2",),
            scales=(2.0, 3.0),
        )
        sdp = build_dense(lift, 2)
        target = moment_position(sdp, "x^2*y", lift.universe)
        assert sdp.moment_scales[target] == pytest.approx(12.0)
        plain = hand_lift(("x", "y"), "x + y",
                          inequality_texts=("4 - x^2 - y^2",))
        assert all(s == 1.0 for s in build_dense(plain, 2).moment_scales)


class TestSparseDenseCoincidence:
    def test_single_clique_builds_identical_problems(self):
        problem = random_omrf_problem(
            np.random.default_rng(3), "kcentrum", rational=False, max_m=1
        )
        lift = build_kcentrum(problem, 1)
        # one function: single clique covering every variable
        assert len(lift.cliques) == 1
        r = min_order(lift).r_min
        assert build_sparse(lift, r) == build_dense(lift, r)


class TestDiracInvariant:
    """Any feasible lifted point yields feasible normalized Dirac moments:
    the assembled program is genuinely a relaxation."""

    def check(self, problem, lift, r, seeds=2):
        rng = np.random.default_rng(11)
        for sdp in (build_dense(lift, r), build_sparse(lift, r)):
            for _ in range(seeds):
                x = random_omrf_point(rng, problem)
                z = lifted_witness(problem, lift, x)
                y = dirac_moment_vector(sdp, z)
                for row in sdp.equalities:
                    assert abs(row.residual(y)) <= 1e-9 * (1.0 + abs(row.rhs))
                for block in sdp.psd_blocks:
                    mat = block.assemble(y)
                    eigs = np.linalg.eigvalsh(mat)
                    assert eigs[0] >= -1e-9 * (1.0 + eigs[-1])
                value = sdp.objective.evaluate(y)
                direct = evaluate_ordered_median(problem, x)
                assert value == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_general(self):
        rng = np.random.default_rng(21)
        for _ in range(4):
            problem = random_omrf_problem(rng, "general", rational=False, max_m=3)
            lift = build_general_lift(problem)
            self.check(problem, lift, min_order(lift).r_min)

    def test_kcentrum(self):
        rng = np.random.default_rng(22)
        for _ in range(4):
            problem = random_omrf_problem(rng, "kcentrum", max_m=4)
            lift = build_kcentrum(problem, problem.weights.top_k())
            self.check(problem, lift, min_order(lift).r_min)

    def test_monotone(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            problem = random_omrf_problem(rng, "monotone", max_m=3)
            lift = build_monotone(problem)
            self.check(problem, lift, min_order(lift).r_min)

    def test_trimmed(self):
        rng = np.random.default_rng(24)
        for _ in range(3):
            # polynomial entries only: rational trimmed lifts clear products
            # of denominators, and the resulting dense order is too large for
            # a unit test
            problem = random_omrf_problem(rng, "trimmed", rational=False, max_m=4)
            lift = build_trimmed(problem, *problem.weights.trimmed_window())
            self.check(problem, lift, min_order(lift).r_min)


class TestSizeStatsEdge:
    def test_empty_problem_reports_zeros(self):
        empty = SdpProblem(
            y_dim=0,
            order=1,
            objective=AffineForm((), (), 0.0),
            psd_blocks=(),
            equalities=(),
            pivot_substitution=AffineForm((), (), 1.0),
            moment_scales=(),
            original_variables=(),
        )
        assert empty.stats == SizeStats(0, 0, 0.0)
