"""Tests for standard-form assembly of the moment relaxations."""

from __future__ import annotations

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

from support import (
    DEMO_POINTS,
    dirac_moments,
    hand_lift,
    localizing_matrix,
    psd_block,
    random_omrf_problem,
    random_omrf_point,
    random_sign_mixed_problem,
    row_monomials,
    two_point_weber_lift,
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


class TestPivotElimination:
    def test_constant_denominator_scales_corner(self):
        lift = hand_lift(("x",), "x", inequality_texts=("1 - x^2",),
                         denominator_text="2")
        sdp = build_dense(lift, 1)
        assert corner_form(sdp.psd_blocks[0]) == AffineForm((), (), 0.5)

    def test_polynomial_denominator_substitutes(self):
        lift = hand_lift(("x",), "x", inequality_texts=("1 - x^2",),
                         denominator_text="1 + x^2")
        sdp = build_dense(lift, 1)
        idx = moment_position(sdp, "x^2", lift.universe)
        assert sdp.pivot_substitution == AffineForm((idx,), (-1.0,), 1.0)
        assert corner_form(sdp.psd_blocks[0]) == AffineForm((idx,), (-1.0,), 1.0)

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
    def test_lone_degree_three_block_stays_within_degree_2r(self):
        lift = hand_lift(("x",), "x", inequality_texts=("1 - x^3", "1 - x^2"))
        sdp = build_dense(lift, 2)
        cubic_block = sdp.psd_blocks[1]
        assert cubic_block.kind == "localizing"
        assert cubic_block.size == 1  # truncated at order r - ceil(3/2) = 0
        assert sdp.psd_blocks[2].size == 2  # the quadratic keeps order r - 1
        # so only x, ..., x^4 are free (the pivot 1 is eliminated): no x^5
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
            pivot_substitution=AffineForm((), (), 1.0),
            moment_scales=(1.0, 1.0),
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
    side and terms; the objective and the pivot substitution (constant and
    terms); the moment scales and ``repr`` of the tuple of ``Monomial``
    objects of the moment rows."""

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
    for name, form in (("objective", sdp.objective), ("pivot", sdp.pivot_substitution)):
        lines.append(
            f"{name} {float(form.constant).hex()} " + terms(form.indices, form.coefficients)
        )
    lines.append("scales " + " ".join(float(s).hex() for s in sdp.moment_scales))
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


def half_plane():
    """The ground set {x1 + x2 >= 1/2} over the planar facility position."""
    universe = VariableUniverse(["x1", "x2"])
    return SemialgebraicSet(universe, [parse("x1 + x2 - 0.5", universe)], [])


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
    "ladder-weber": "3481f46c08a17d957985eb483ac9971c28e4887134722f2037c0c1214807e85e",
    "ladder-center": "75ec6c3e325186c5a42ad190d1b63586b6cfa610bbbb272faf42f77d193349a2",
    "ladder-kcentrum": "d3a22314ea2fb5e9443fb959f7499737ed7711190fdc71f90270803086eebc05",
    "ladder-trimmed": "2534fd69cf260daa664f02de216d62e4384f2545aed532eb1b3fe98ce66ef61c",
    "ladder-range": "629472cab04c5499efd3fee70d9debb9bd4e446cf2a267afb18ebb311100a4e4",
    "ladder-general": "f1fb746ca52801bf925e1a70da865a9357bf276327a107611cb45bf85452bcba",
    "omrf-monotone": "49475d1a20ea90c6eb26d1e47fe2dd34cd694365b55b220a62582b9791c05765",
    "omrf-trimmed": "3261410f1490e2adba2c4570bf58779ebd76a3a1fd7e9359b26b7de5dd6a0d0c",
    # Re-recorded when unpaired odd-degree inequalities moved to the
    # truncation order r - ceil(d/2): each of these lifts has a cubic
    # epigraph row whose block shrank.
    "omrf-general": "d39fd6d7745c0582780021fff0490cb40985ee51cd45ea32b611cbe7eadb3424",
    "omrf-kcentrum": "178d10e0073fb3d214b62a0dcdc7aab935bd26936410b178716d0b22d2567911",
    "omrf-monotone3": "e3005ebfa984ac328687ee6e89c99c2ec93824de8ea50657786599b88df1f160",
    "omrf-trimmedrational": "730191ca9ffbd8ed6682c6a4618cffd6947fb9187d027298771ff6c35292c3d7",
    "omrf-kcentrum2of3": "3f463b97ba455b1417f6ac705c5052cf55b55703b86c899abbfc3e5d37e86aaa",
    "demo-l3": "03f3c4892e87f6f55827a5b84715da0871adf983591cbad8ee4d6df0b2a97ee5",
    # Recorded from the per-variant location builders that ``build_lifted``
    # folded into one scaffold.
    "loc-trimmed32": "fd6b656a74f6c01b0dcdf88a590b3e5a410c702df2bd2586e2343a9eec36f45e",
    "loc-range43": "e316860fe0acb61711e82eb3cb96d0253cbef48cff41d9a7ebcb34703ca01a34",
    "loc-general3": "4fe72fa567ab43d3f7244059f755f886bf1c6ecd3aafb5dfc15fd4ff15d1df12",
    "loc-kcentrum3": "79a5e133a2f535ea8519c21583b7d0bed29a15e4f7b078d3b36f507d185ccc58",
    "loc-trimmed02": "57226952ac0640c4fac4e5e93ce425f7f35ab05e9461f8ff6ff7c23fd8d8e5bb",
    "loc-center4": "c0da6291c7d30f8a80c5926f842de20f0174fff8ff1fec7611522942303c5081",
    "loc-weberhalfplane": "1ddc0284444b691b3cb5c4619b62bf6886348c54a18f3c258281cdb9d050b48f",
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
