"""Tests for standard-form assembly of the moment relaxations."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from owasdp.location import LocationInstance, build_lifted
from owasdp.omrf import (
    build_auto,
    build_general_lift,
    build_telescoping,
    evaluate_ordered_median,
    lifted_witness,
    LambdaWeights,
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
    EqualityRow,
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

from owasdp.moment import MomentIndex, monomial_rows
from owasdp.solver import SolveStatus, solve

from support import (
    DEMO_POINTS,
    WEIGHT_CLASSES,
    dirac_moments,
    half_plane,
    hand_lift,
    localizing_matrix,
    psd_block,
    random_omrf_problem,
    random_omrf_point,
    random_sign_mixed_problem,
    row_monomials,
    two_point_weber_lift,
    weight_class_problem,
    with_constant_weights,
)


def corner_form(block):
    """The affine form of a block's (0, 0) entry."""
    (e,) = np.flatnonzero((block.rows == 0) & (block.cols == 0))
    span = slice(block.indptr[e], block.indptr[e + 1])
    return AffineForm(
        tuple(block.indices[span].tolist()),
        tuple(block.coefficients[span].tolist()),
        float(block.constants[e]),
    )


def moment_position(sdp, text, universe):
    """Index in y of the moment of the single monomial ``text``."""
    (mono,) = parse(text, universe).terms
    row = monomial_rows([mono], sdp.moment_rows.shape[1])
    (idx,) = np.flatnonzero((sdp.moment_rows == row).all(axis=1))
    return int(idx)


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
        assert localizing_order(2, 0) == 1
        assert localizing_order(2, 1) == 1
        assert localizing_order(2, 2) == 1
        assert localizing_order(2, 3) == 0
        assert localizing_order(3, 4) == 1
        assert localizing_order(3, 5) == 0
        # A paired odd-degree inequality keeps order r - floor(d/2); pairing
        # changes nothing at even degree.
        assert localizing_order(2, 3, paired=True) == 1
        assert localizing_order(3, 5, paired=True) == 1
        assert localizing_order(3, 4, paired=True) == 1
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

    def test_block_bases_give_the_reference_matrices(self):
        # Each block, moment or localizing, is the reference matrix over its
        # own basis: at a Dirac vector they agree entry by entry.
        lift = two_point_weber_lift()
        sdp = build_sparse(lift, 2)
        point = np.array([0.3, -0.4, 0.5, 1.2])
        index = MomentIndex(lift.universe)
        polys = [Polynomial.constant(lift.universe, 1.0)] * 2
        polys += list(lift.inequality_constraints)
        for block, g in zip(sdp.psd_blocks, polys, strict=True):
            assert len(block.basis) == block.size
            reference = localizing_matrix(g, block.basis, index)
            np.testing.assert_allclose(
                block.assemble(dirac_moment_vector(sdp, point)),
                reference.assemble(dirac_moments(point, index)),
                rtol=0.0,
                atol=1e-12,
            )

    def test_moment_blocks_stay_inside_their_cliques(self):
        sdp = build_sparse(two_point_weber_lift(), 2)
        for block in sdp.psd_blocks:
            allowed = set(block.variables)
            for idx in np.unique(block.indices):
                row = sdp.moment_rows[idx]
                assert set(row[row >= 0].tolist()) <= allowed

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


class TestNormalization:
    def test_constant_denominator_scales_corner(self):
        lift = hand_lift(("x",), "x", inequality_texts=("1 - x^2",),
                         denominator_text="2")
        sdp = build_dense(lift, 1)
        # the constant monomial is no moment: L_y(1) = 1/q is a constant
        assert corner_form(sdp.psd_blocks[0]) == AffineForm((), (), 0.5)
        assert sdp.y_dim == 2
        assert sdp.equalities == ()

    def test_polynomial_denominator_is_the_first_row(self):
        lift = hand_lift(("x",), "x", inequality_texts=("1 - x^2",),
                         equality_texts=("x^2 - x",), denominator_text="1 + x^2")
        sdp = build_dense(lift, 1)
        one = moment_position(sdp, "1", lift.universe)
        x2 = moment_position(sdp, "x^2", lift.universe)
        assert sdp.y_dim == 3
        assert corner_form(sdp.psd_blocks[0]) == AffineForm((one,), (1.0,), 0.0)
        normalization = sdp.equalities[0]
        assert normalization.label == "normalization"
        assert normalization.rhs == 1.0
        assert normalization.form == AffineForm(tuple(sorted((one, x2))), (1.0, 1.0))
        assert [row.label for row in sdp.equalities[1:]] == ["eq0.m0"]

    def test_rational_dirac_matches_function_value(self):
        lift = hand_lift(("x",), "x^2 + 1", inequality_texts=("1 - x^2",),
                         denominator_text="x^2 + 2")
        sdp = build_dense(lift, 2)
        one = moment_position(sdp, "1", lift.universe)
        normalization = sdp.equalities[0]
        for x in (-0.8, 0.0, 0.3):
            y = dirac_moment_vector(sdp, np.array([x]))
            expected = (x * x + 1.0) / (x * x + 2.0)
            assert sdp.objective.evaluate(y) == pytest.approx(expected, abs=1e-12)
            # the constant moment is L_y(1) = 1/q(x), and L_y(q) = 1 holds
            assert y[one] == pytest.approx(1.0 / (x * x + 2.0), abs=1e-12)
            assert abs(normalization.residual(y)) <= 1e-12


class TestOddDegreeConventions:
    def test_lone_degree_three_block_stays_within_degree_2r(self):
        lift = hand_lift(("x",), "x", inequality_texts=("1 - x^3", "1 - x^2"))
        sdp = build_dense(lift, 2)
        cubic_block = sdp.psd_blocks[1]
        assert cubic_block.kind == "localizing"
        assert cubic_block.size == 1  # truncated at order r - ceil(3/2) = 0
        assert sdp.psd_blocks[2].size == 2  # the quadratic keeps order r - 1
        # so y holds only x, ..., x^4 (under the constant denominator 1 is
        # no moment): no x^5
        assert sdp.y_dim == 4
        with pytest.raises(ValueError):
            moment_position(sdp, "x^5", lift.universe)

    def test_degree_three_block_and_multipliers(self):
        lift = hand_lift(
            ("x", "y"),
            "y",
            inequality_texts=("y - x^3", "y + x^3", "1 - x^2 - y^2"),
            equality_texts=("x^3 - x",),
        )
        sdp = build_dense(lift, 2)
        # y >= +-x^3 bound the top moments from both sides, so each keeps
        # order r - floor(3/2) = 1 and its entries reach degree 2r + 1 = 5.
        assert [(b.kind, b.size) for b in sdp.psd_blocks] == [
            ("moment", 6),
            ("localizing", 3),
            ("localizing", 3),
            ("localizing", 3),
        ]
        x5 = moment_position(sdp, "x^5", lift.universe)
        assert x5 in sdp.psd_blocks[1].indices and x5 in sdp.psd_blocks[2].indices
        # the degree-3 equality expands against multipliers up to degree 2
        labels = [row.label for row in sdp.equalities]
        assert labels == [f"eq0.m{k}" for k in range(6)]

    @pytest.mark.parametrize(
        "texts, sizes",
        [
            (("1 - x^3", "1 + x^3"), [3, 3]),
            (("1 - x^3", "2 - x^3"), [2, 2]),  # same sign on top
            (("1 - x^3", "1 + x^5"), [2, 1]),  # negated, but another degree
            (("1 - x^3", "1 + 2*x^3"), [2, 2]),  # not exactly the negation
        ],
    )
    def test_only_negated_top_parts_pair(self, texts, sizes):
        lift = hand_lift(("x",), "x", inequality_texts=texts)
        assert [b.size for b in build_dense(lift, 3).psd_blocks[1:]] == sizes

    def test_contradictory_equality_rejected(self):
        # Under a constant denominator 1 is no moment, so the equality
        # 2 = 0 reduces to a row without moments and assembly rejects it.
        lift = hand_lift(
            ("x",),
            "x",
            inequality_texts=("1 - x^2",),
            equality_texts=("2",),
        )
        with pytest.raises(RelaxationStructureError, match="contradiction"):
            build_dense(lift, 1)

    def test_contradiction_with_the_normalization_is_infeasible(self):
        # Under q = 1 + x^2 the equality 2 + 2 x^2 = 0 reads 2 L_y(q) = 0,
        # which the solver's elimination finds inconsistent with L_y(q) = 1.
        lift = hand_lift(
            ("x",),
            "x",
            inequality_texts=("1 - x^2",),
            equality_texts=("2 + 2*x^2",),
            denominator_text="1 + x^2",
        )
        result = solve(build_dense(lift, 1))
        assert result.status is SolveStatus.INFEASIBLE
        assert result.diagnostics["note"] == "equality rows inconsistent"


class TestMatrixInequalities:
    """A matrix inequality G enters as one block of its first moments
    L_y(G_pq), over the variables of the cliques that hold its support."""

    @staticmethod
    def lift(corner="1 + x"):
        base = hand_lift(
            ("x", "y", "z"),
            "x + z",
            inequality_texts=("1 - x^2 - y^2", "1 - y^2 - z^2"),
            cliques=((0, 1), (1, 2)),
            denominator_text="2",
        )
        u = base.universe
        G = ((parse(corner, u), parse("y", u)), (parse("1 - x", u),))
        return dataclasses.replace(base, matrix_inequalities=(G,))

    def test_block_of_first_moments_at_every_order(self):
        lift = self.lift()
        for order in (1, 2):
            sdp = build_sparse(lift, order)
            (block,) = [b for b in sdp.psd_blocks if b.label == "loc.G0"]
            assert (block.size, block.kind, block.variables) == (2, "localizing", (0, 1))
            assert block.basis.shape == (2, 0)
            # L_y(1 + x) with L_y(1) = 1/2 substituted from L_y(2) = 1.
            x_moment = moment_position(sdp, "x", lift.universe)
            assert corner_form(block) == AffineForm((x_moment,), (1.0,), 0.5)
            y = dirac_moment_vector(sdp, np.array([0.6, 0.3, 0.1]))
            assert np.allclose(block.assemble(y), [[0.8, 0.15], [0.15, 0.2]], rtol=0, atol=1e-15)

    def test_min_order_counts_the_largest_entry(self):
        assert min_order(self.lift()).matrix_orders == (1,)
        cubic = self.lift("1 + x^3")
        orders = min_order(cubic)
        assert (orders.matrix_orders, orders.r_min) == ((2,), 2)
        with pytest.raises(OrderTooSmallError):
            build_sparse(cubic, 1)

    def test_support_must_lie_in_one_clique(self):
        lift = self.lift()
        u = lift.universe
        G = ((parse("1 + x", u), parse("z", u)), (parse("1 - x", u),))
        with pytest.raises(ValueError, match="matrix inequality support"):
            dataclasses.replace(lift, matrix_inequalities=(G,))


class TestLinearVariables:
    """A variable in no clique enters only terms of degree at most one; the
    relaxation holds its first moment alone, and every constraint on it
    enters at order 0."""

    @staticmethod
    def lift(objective="t", names=("x", "t"), **kwargs):
        # min t subject to t >= |x - 1/2| and x in [-1, 1], t in no clique.
        params = dict(
            inequality_texts=("1 - x^2", "t - x + 0.5", "t + x - 0.5", "t"),
            cliques=((0,),),
        )
        return hand_lift(names, objective, **{**params, **kwargs})

    @pytest.mark.parametrize(
        "text", ["t^2", "t*x", "x^2*t"], ids=["square", "product", "cubic"]
    )
    def test_rejects_a_linear_variable_above_degree_one(self, text):
        with pytest.raises(ValueError, match="degree at most one"):
            self.lift(inequality_texts=("1 - x^2", f"1 - {text}"))
        with pytest.raises(ValueError, match="degree at most one"):
            self.lift(objective=f"t + {text}")
        with pytest.raises(ValueError, match="degree at most one"):
            self.lift(equality_texts=(f"x - {text}",))

    def test_rejects_a_product_of_linear_variables(self):
        with pytest.raises(ValueError, match="degree at most one"):
            self.lift(names=("x", "t", "s"), inequality_texts=("1 - x^2", "t*s"))

    def test_clique_variables_still_lie_in_one_clique(self):
        with pytest.raises(ValueError, match="inequality support"):
            self.lift(
                names=("x", "y", "t"),
                inequality_texts=("1 - x^2", "1 - y^2", "t - x - y"),
                cliques=((0,), (1,)),
            )

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_first_moment_only_and_order_zero_constraints(self, order):
        lift = self.lift(equality_texts=("t - x",))
        sdp = build_sparse(lift, order)
        holds_t = np.flatnonzero((sdp.moment_rows == 1).any(axis=1))
        assert sdp.moment_rows[holds_t].tolist() == [[-1] * (2 * order - 1) + [1]]
        assert [(b.kind, b.size, b.variables) for b in sdp.psd_blocks] == [
            ("moment", order + 1, (0,)),
            ("localizing", order, (0,)),
            *[("localizing", 1, (0, 1))] * 3,
        ]

        def form(terms, constant):
            items = sorted(terms.items())
            return AffineForm(tuple(i for i, _ in items), tuple(c for _, c in items), constant)

        # The 1x1 blocks L_y(t - x + 1/2), L_y(t + x - 1/2) and L_y(t), and
        # the equality as the one scalar row L_y(t - x) = 0.
        t = moment_position(sdp, "t", lift.universe)
        x = moment_position(sdp, "x", lift.universe)
        assert [corner_form(b) for b in sdp.psd_blocks[2:]] == [
            form({t: 1.0, x: -1.0}, 0.5),
            form({t: 1.0, x: 1.0}, -0.5),
            form({t: 1.0}, 0.0),
        ]
        (row,) = sdp.equalities
        assert (row.label, row.form, row.rhs) == ("eq0.cross", form({t: 1.0, x: -1.0}, 0.0), 0.0)
        y = dirac_moment_vector(sdp, np.array([0.25, 0.25]))
        for block in sdp.psd_blocks:
            assert np.linalg.eigvalsh(block.assemble(y))[0] >= -1e-12
        assert row.residual(y) == 0.0

    @pytest.mark.parametrize("order", [1, 2])
    def test_relaxation_is_exact(self, order):
        result = solve(build_sparse(self.lift(), order))
        assert result.status.solved()
        assert abs(result.objective) <= 1e-7


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
        # one scalar row per registered assignment row's sum: those span
        # both cliques, while binarity stays clique-local (the last row is
        # one minus the others, so no column sum is left)
        assert len(cross) == 2
        for row in cross:
            assert row.form.nnz == 3
            assert row.rhs == 1.0
            assert all(c == 1.0 for c in row.form.coefficients)
        expanded = [r for r in sdp.equalities if not r.label.endswith(".cross")]
        assert expanded


class TestSparseDenseCoincidence:
    def test_single_clique_builds_identical_problems(self):
        problem = random_omrf_problem(
            np.random.default_rng(3), "kcentrum", rational=False, max_m=1
        )
        lift = build_telescoping(problem)
        # one function: single clique covering every variable
        assert len(lift.cliques) == 1
        r = min_order(lift).r_min
        sparse, dense = build_sparse(lift, r), build_dense(lift, r)
        assert relaxation_digest(sparse) == relaxation_digest(dense)
        assert (sparse.order, sparse.original_variables) == (dense.order, dense.original_variables)


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
            lift = build_telescoping(problem)
            self.check(problem, lift, min_order(lift).r_min)

    def test_monotone(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            problem = random_omrf_problem(rng, "monotone", max_m=3)
            lift = build_telescoping(problem)
            self.check(problem, lift, min_order(lift).r_min)

    def test_trimmed(self):
        rng = np.random.default_rng(24)
        for _ in range(3):
            # polynomial entries only: rational trimmed lifts clear products
            # of denominators, and the resulting dense order is too large for
            # a unit test
            problem = random_omrf_problem(rng, "trimmed", rational=False, max_m=4)
            lift = build_telescoping(problem)
            self.check(problem, lift, min_order(lift).r_min)

    def test_sign_mixed(self):
        rng = np.random.default_rng(25)
        for _ in range(3):
            # two or more selector levels join the first epigraph level's
            # cliques; polynomial entries keep the dense order small
            problem = random_sign_mixed_problem(rng, rational=False, max_m=3)
            lift = build_telescoping(problem)
            assert len(dict(lift.variable_groups)["v"]) >= 2 * problem.m
            self.check(problem, lift, min_order(lift).r_min)

    def test_all_zero(self):
        rng = np.random.default_rng(26)
        for _ in range(2):
            problem = with_constant_weights(random_omrf_problem(rng, "monotone"), 0.0)
            lift = build_telescoping(problem)
            self.check(problem, lift, min_order(lift).r_min)

    @pytest.mark.parametrize("rational", [False, True], ids=["poly", "rational"])
    @pytest.mark.parametrize("weight_class", sorted(WEIGHT_CLASSES))
    def test_weight_class(self, weight_class, rational):
        problem = weight_class_problem(weight_class, rational)
        lift = build_telescoping(problem)
        self.check(problem, lift, min_order(lift).r_min)


class TestSizeStatsEdge:
    def test_empty_problem_reports_zeros(self):
        empty = SdpProblem(
            y_dim=0,
            order=1,
            objective=AffineForm((), (), 0.0),
            psd_blocks=(),
            equalities=(),
            original_variables=(),
        )
        assert empty.stats == SizeStats(0, 0, 0.0)


class TestIndexValidation:
    """Every block and equality index must address a moment: 0 <= i < y_dim."""

    @staticmethod
    def problem(block_index, equality_index):
        return SdpProblem(
            y_dim=2,
            order=1,
            objective=AffineForm((0,), (1.0,), 0.0),
            psd_blocks=(
                psd_block(
                    1, "moment", "m", (), ((0, 0, AffineForm((block_index,), (1.0,), 0.0)),)
                ),
            ),
            equalities=(EqualityRow("e", AffineForm((equality_index,), (1.0,)), 0.5),),
            original_variables=(),
        )

    def test_in_range_indices_are_accepted(self):
        assert self.problem(1, 1).y_dim == 2

    @pytest.mark.parametrize(
        "block_index, equality_index, message",
        [
            (-1, 0, "block index out of range"),
            (2, 0, "block index out of range"),
            (0, -1, "equality index out of range"),
            (0, 2, "equality index out of range"),
        ],
        ids=["block-negative", "block-past-end", "equality-negative", "equality-past-end"],
    )
    def test_out_of_range_indices_are_rejected(self, block_index, equality_index, message):
        with pytest.raises(ValueError, match=message):
            self.problem(block_index, equality_index)


def relaxation_digest(sdp):
    """SHA-256 of the numeric content of a relaxation, one text line per
    item with every float as ``float.hex``: y_dim; every block's size, kind
    and label and, per upper-triangle entry in order, i, j, its constant and
    its (index, coefficient) terms; every equality row's label, right-hand
    side and terms; the objective (constant and terms); and ``repr`` of the
    tuple of ``Monomial`` objects of the moment rows."""

    def terms(indices, coefficients):
        return " ".join(f"{int(i)}:{float(c).hex()}" for i, c in zip(indices, coefficients))

    lines = [f"y_dim {sdp.y_dim}"]
    for b in sdp.psd_blocks:
        lines.append(f"block {b.size} {b.kind} {b.label}")
        for e in range(len(b.rows)):
            span = slice(b.indptr[e], b.indptr[e + 1])
            lines.append(
                f"{b.rows[e]} {b.cols[e]} {float(b.constants[e]).hex()} "
                + terms(b.indices[span], b.coefficients[span])
            )
    for row in sdp.equalities:
        lines.append(
            f"eq {row.label} {float(row.rhs).hex()} "
            + terms(row.form.indices, row.form.coefficients)
        )
    form = sdp.objective
    lines.append(
        f"objective {float(form.constant).hex()} " + terms(form.indices, form.coefficients)
    )
    lines.append("moments " + repr(row_monomials(sdp.moment_rows)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# (weight pattern, seed, rational) of each OMRF digest case: one random
# problem per pattern, then a rational monotone problem with three distinct
# weights, a rational trimmed problem that discards its two largest values
# (so its objective is over the product of the denominators) and a 2-of-3
# k-centrum problem.
OMRF_CASES = {
    "general": ("general", 0, None),
    "kcentrum": ("kcentrum", 1, None),
    "monotone": ("monotone", 2, None),
    "trimmed": ("trimmed", 3, None),
    "monotone3": ("monotone", 14, True),
    "trimmedrational": ("trimmed", 10, True),
    "kcentrum2of3": ("kcentrum", 14, None),
}


# ``LocationInstance`` keywords of each location digest case beyond the
# ladder's planar l2 shapes: the lift branches those leave out.  The odd
# numerator over an even denominator (tau = 3/2) adds ``v >= 0`` and, with a
# selector, the distance caps; tau = 4/3 lifts an even numerator with s > 1;
# a negative rank weight caps the general lift; a (0, 2) trim is built as a
# 4-centrum.
LOCATION_CASES = {
    "trimmed32": dict(variant="trimmed", norm_tau=(3, 2), trim=(1, 1)),
    "range43": dict(variant="range", norm_tau=(4, 3)),
    "general3": dict(variant="general", norm_tau=(3, 1), position_lambda=(1.0, 0.5, -0.25)),
    "kcentrum3": dict(variant="kcentrum", norm_tau=(3, 1), k=2),
    "trimmed02": dict(variant="trimmed", trim=(0, 2)),
    "center4": dict(variant="center", norm_tau=(4, 1)),
    "weberhalfplane": dict(variant="weber", ground_set=half_plane()),
}


def omrf_case_problem(variant):
    pattern, seed, rational = OMRF_CASES[variant]
    rng = np.random.default_rng(seed)
    return random_omrf_problem(rng, pattern, rational=rational, max_m=3)


def golden_case(name):
    """(lift, order) of a digest case: the planar l2 location variants over
    six anchors (the general variant over three), the ``LOCATION_CASES`` over
    the same anchors and the ``OMRF_CASES`` at their minimum order, and the
    paper's 20-anchor l3 example at its minimum order 2."""
    anchors = tuple(map(tuple, np.random.default_rng(0).random((6, 2))))
    kind, variant = name.split("-")
    if kind == "ladder":
        params = {"kcentrum": {"k": 2}, "trimmed": {"trim": (1, 1)}}.get(variant, {})
        if variant == "general":
            anchors = anchors[:3]
            params = {"position_lambda": (1.0, 0.5, -0.25)}
        lift = build_lifted(LocationInstance(points=anchors, variant=variant, **params))
        return lift, 2
    if kind == "loc":
        params = LOCATION_CASES[variant]
        if params["variant"] == "general":
            anchors = anchors[:3]
        lift = build_lifted(LocationInstance(points=anchors, **params))
        return lift, min_order(lift).r_min
    if kind == "omrf":
        lift = build_auto(omrf_case_problem(variant))
        return lift, min_order(lift).r_min
    return build_lifted(LocationInstance(points=DEMO_POINTS, norm_tau=(3, 1))), 2


# Recorded from the object-by-object relaxation assembly that the array
# assembly replaced.
GOLDEN_DIGESTS = {
    # Every digest was re-recorded when the relaxation stopped carrying
    # per-moment scale hints: the digest lost its ``scales`` line, and each
    # equals the one of its earlier relaxation with that line dropped.
    # Every digest was re-recorded again when the relaxation stopped
    # eliminating the normalization moment: the digest lost its ``pivot``
    # line.  The 18 constant-denominator cases equal the digests of their
    # earlier relaxations with that line dropped; omrf-general,
    # omrf-kcentrum and omrf-trimmedrational, whose denominators are not
    # constant, gained the constant moment and the normalization row.
    # Re-recorded when the planar l2 lifts of the aggregations nondecreasing
    # in each distance traded the distance equalities for arrow blocks
    # (center and k-centrum, and the (0, 2) trim, a 4-centrum, lost their
    # distance variables, and the Weber sums their equality rows), and again
    # when those lifts left their epigraph variables linear: one moment block
    # over the facility position, one ball, and 1x1 blocks for the sign rows
    # of the epigraph variables.
    "ladder-weber": "16ddf71955f783867a3e43c532acf1c22b6936f91ad0742ccbf51f7dd0675c7e",
    "ladder-center": "9d54c0f6ad71c734de7f342e1699239522291b266f5e326e4a9f5da82838b27c",
    "ladder-kcentrum": "6b67ed03b59646b733b26732209122b0ecc5b655dd0727c7c8916310b6ffe1d6",
    "loc-trimmed02": "78a7b669d3690b44d8d8d3bf765e2061667e744efeb94e3360271069e27d64a8",
    "loc-weberhalfplane": "bdb8a55d935df3a6ddc767f1d446ce2f63575461e65686a99014b6a3fd8e4743",
    "ladder-trimmed": "246cd969ec716cd43383dac5f004b3c795e7fcedce6a9f6e83d7393824d5a5f0",
    "ladder-range": "bd9f5bc46db7712305db5dfb4f780dd5ac4ec88b7f2366bd3985a2a2826de7a2",
    # Re-recorded when unpaired odd-degree inequalities moved to the
    # truncation order r - ceil(d/2): each of these lifts has a cubic
    # epigraph row whose block shrank.
    "omrf-kcentrum2of3": "5f8ca8768846e8de763a01f8a5c5b8ae7adf18188254ef5f1873858e38ef5e43",
    # Re-recorded when a positive top telescoping level became the plain sum
    # of the functions: these lifts lost the epigraph of that level.
    "omrf-monotone": "84235689d122f5e956fc593e1a7db35543a3ffe71f1dd9a1bab6f101169b2b3b",
    "omrf-trimmed": "99356a175978c50a3e7e1bf5c7c6dc65775e2af1cef0180838008479b777504b",
    "omrf-trimmedrational": "4b65c371e47d3d1f10dec18e01f6f5227635f0d6d86156c5ae0136c4e0aa65aa",
    "demo-l3": "95865dbc8f8083043aaa7ba91651e01baac87dd7857585cb513af4e930a7a766",
    # Recorded from the per-variant location builders that ``build_lifted``
    # folded into one scaffold.
    "loc-trimmed32": "fd13e2f634738149e1bbb70d38d6f7a51f833b7b547e52173eaa8de6c17f6233",
    "loc-range43": "0ad337225bfa3be71b427f61ccd7802475df3d0bb1ae9b0cd4d9642508f12d0c",
    "loc-kcentrum3": "3b86ce97edbef5ec1b1670e03de9177506c0e01f014341dcea4c7f878f76a5ba",
    "loc-center4": "7193e2c5aec32aba3f24732690cc21ad4a0b89a919a1b1907eb0fbfbfba0f1af",
    # Re-recorded when the assignment lift stopped registering its last row
    # (one minus the others) and the column sums that row made redundant.
    "ladder-general": "cd54f09cc3b4a1bae0d48e3d8de60a7a1fe928b0be910e2d40451ab2b3da98c5",
    "loc-general3": "fe71443636b4f939f4b807b83f6d3be2c8ea8425dd7d2ddd865816c5906f2f03",
    "omrf-general": "8c1d194bb0265bead908a20476eea21b547f1d067dd9db4857cebe669a990a29",
    # Re-recorded when the max level S_1 lost its slacks (omrf-monotone3)
    # and two rational denominators at the plain sum's own order stopped
    # keeping the top epigraph (omrf-kcentrum, k = m = 2).
    "omrf-kcentrum": "e8f2da4cbf4b8b0f8697eef025661267dd666772edc9ec06c7c66fe64fe9101a",
    "omrf-monotone3": "bb4b7a322257d3c35111a6787ce19a152e4acf50219f9efb9c8e5141703dee76",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_golden_relaxation_digest(name):
    lift, order = golden_case(name)
    assert relaxation_digest(build_sparse(lift, order)) == GOLDEN_DIGESTS[name]


def test_omrf_cases_have_their_weight_shapes():
    def shape(variant):
        problem = omrf_case_problem(variant)
        rational = any(not f.denominator.is_constant() for f in problem.functions)
        return problem.weights.constant_values(), rational

    weights, rational = shape("monotone3")
    assert len(set(weights)) == 3 and min(weights) > 0.0 and rational
    weights, rational = shape("trimmedrational")
    assert weights == (0.0, 0.0, 1.0) and rational
    assert shape("kcentrum2of3")[0] == (1.0, 1.0, 0.0)
