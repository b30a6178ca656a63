"""Tests for rank diagnostics, point extraction and objective-error measures."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from owasdp import extract as extract_module
from owasdp.extract import (
    DegenerateMomentError,
    RANK_TOLERANCE,
    ExtractedSolution,
    ExtractionError,
    FlatnessOrders,
    eps_obj,
    extract_point,
    flatness_orders,
    rank_check,
)
from owasdp.location import build_lifted, lifted_witness, random_instance
from owasdp.omrf import LambdaWeights, OmrfProblem, build_telescoping
from owasdp.polynomial import (
    Polynomial,
    RationalFunction,
    SemialgebraicSet,
    VariableUniverse,
    parse,
)
from owasdp.relaxation import (
    build_dense,
    build_sparse,
    dirac_moment_vector,
)
from owasdp.solver import solve

from support import hand_lift, two_point_weber_lift


@pytest.fixture(scope="module")
def weber_lift():
    return two_point_weber_lift()


@pytest.fixture(scope="module")
def weber_sparse(weber_lift):
    return build_sparse(weber_lift, 2)


@pytest.fixture(scope="module")
def interval_dense():
    """Linear objective on [0, 1], dense relaxation at order 2."""
    lift = hand_lift(("x",), "x", inequality_texts=("x", "1 - x"))
    return build_dense(lift, 2)


WEBER_POINT = np.array([0.3, 0.4, 0.5, math.sqrt(0.65)])
WEBER_POINT_B = np.array([0.6, 0.8, 1.0, math.sqrt(0.8)])


def reference_rank(matrix):
    singular = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(singular > RANK_TOLERANCE * singular[0]))


def rows_within(basis, variables, max_degree):
    """The basis rows over ``variables`` of degree <= ``max_degree``, by
    the set of each row's variables."""
    return [
        r for r, row in enumerate(basis.tolist())
        if {v for v in row if v >= 0} <= set(variables)
        and sum(v >= 0 for v in row) <= max_degree
    ]


def restricted(block, kept):
    """``block`` on its basis rows ``kept`` only, in the order given."""
    new = np.full(block.size, -1)
    new[kept] = np.arange(len(kept))
    entries = np.flatnonzero((new[block.rows] >= 0) & (new[block.cols] >= 0))
    i, j = new[block.rows[entries]], new[block.cols[entries]]
    i, j = np.minimum(i, j), np.maximum(i, j)
    order = np.lexsort((j, i))
    entries, i, j = entries[order], i[order], j[order]
    counts = np.diff(block.indptr)[entries]
    terms = np.concatenate(
        [np.arange(block.indptr[e], block.indptr[e + 1]) for e in entries]
    )
    return dataclasses.replace(
        block,
        size=len(kept),
        rows=i,
        cols=j,
        constants=block.constants[entries],
        indptr=np.concatenate([[0], np.cumsum(counts)]),
        indices=block.indices[terms],
        coefficients=block.coefficients[terms],
        basis=block.basis[kept],
    )


class TestEpsObj:
    def test_zero_when_values_coincide(self):
        assert eps_obj(8.729976, 8.729976) == 0.0

    def test_matches_reported_order_of_magnitude(self):
        reference = 10.109333 * (1.0 + 5.801151e-9)
        assert eps_obj(10.109333, reference) == pytest.approx(
            5.801151e-9, rel=1e-3
        )

    def test_denominator_clamps_at_one(self):
        assert eps_obj(0.4, 0.5) == pytest.approx(0.1)

    def test_negative_reference_keeps_unit_denominator(self):
        assert eps_obj(-1.0, -2.0) == pytest.approx(1.0)

    def test_nonnegative_and_definite(self):
        assert eps_obj(3.0, 3.0) == 0.0
        assert eps_obj(3.0, 3.5) > 0.0

    def test_requires_finite_reference(self):
        with pytest.raises(ValueError, match="finite"):
            eps_obj(1.0, math.inf)


class TestFlatnessOrders:
    def test_linear_problem_is_one_level(self):
        lift = hand_lift(("x",), "x", inequality_texts=("x", "1 - x"))
        assert flatness_orders(lift) == FlatnessOrders(1, 1)

    def test_weber_lift_is_one_level(self, weber_lift):
        assert flatness_orders(weber_lift) == FlatnessOrders(1, 1)

    def test_quartic_original_constraint_deepens_original(self):
        lift = hand_lift(("x",), "x", inequality_texts=("1 - x^4",))
        assert flatness_orders(lift) == FlatnessOrders(2, 1)

    def test_objective_degree_deepens_clique(self):
        lift = hand_lift(("x",), "x^4", inequality_texts=("1 - x^2",))
        assert flatness_orders(lift).clique_reduction == 2

    def test_reductions_must_be_positive(self):
        with pytest.raises(ValueError, match="at least one"):
            FlatnessOrders(0, 1)


class TestRankCheck:
    def test_dirac_is_rank_one_everywhere(self, weber_sparse):
        y = dirac_moment_vector(weber_sparse, WEBER_POINT)
        report = rank_check(weber_sparse, y, FlatnessOrders(1, 1))
        assert len(report.blocks) == 2
        for block in report.blocks:
            assert block.rank_full == 1
            assert block.rank_reduced == 1
            assert block.flat
        assert report.original is not None
        assert report.original.rank_full == 1
        assert all(rank == 1 for _, _, rank in report.cross_ranks)
        assert report.global_flat
        assert report.single_atom
        assert report.atom_count == 1

    def test_two_atoms_flat_at_rank_two(self, interval_dense):
        y = 0.5 * (
            dirac_moment_vector(interval_dense, np.array([0.2]))
            + dirac_moment_vector(interval_dense, np.array([0.8]))
        )
        report = rank_check(interval_dense, y, FlatnessOrders())
        (block,) = report.blocks
        assert block.rank_full == 2
        assert block.rank_reduced == 2
        assert report.global_flat
        assert not report.single_atom
        assert report.atom_count == 2

    def test_three_atoms_not_flat_at_low_order(self, interval_dense):
        y = (
            dirac_moment_vector(interval_dense, np.array([0.1]))
            + dirac_moment_vector(interval_dense, np.array([0.5]))
            + dirac_moment_vector(interval_dense, np.array([0.9]))
        ) / 3.0
        report = rank_check(interval_dense, y, FlatnessOrders())
        (block,) = report.blocks
        assert block.rank_full == 3
        assert block.rank_reduced == 2
        assert not block.flat
        assert not report.global_flat

    def test_cross_clique_rank_gates_global_flatness(self, weber_sparse):
        y = 0.5 * (
            dirac_moment_vector(weber_sparse, WEBER_POINT)
            + dirac_moment_vector(weber_sparse, WEBER_POINT_B)
        )
        report = rank_check(weber_sparse, y, FlatnessOrders())
        assert all(block.flat for block in report.blocks)
        assert any(rank == 2 for _, _, rank in report.cross_ranks)
        assert not report.cross_rank_one
        assert not report.global_flat

    def test_tolerance_controls_detected_rank(self, interval_dense, monkeypatch):
        y = (
            (1.0 - 1e-9) * dirac_moment_vector(interval_dense, np.array([0.2]))
            + 1e-9 * dirac_moment_vector(interval_dense, np.array([0.8]))
        )
        loose = rank_check(interval_dense, y, FlatnessOrders())
        monkeypatch.setattr(extract_module, "RANK_TOLERANCE", 1e-13)
        tight = rank_check(interval_dense, y, FlatnessOrders())
        assert (loose.tolerance, tight.tolerance) == (RANK_TOLERANCE, 1e-13)
        assert loose.blocks[0].rank_full == 1
        assert tight.blocks[0].rank_full >= 2

    def test_cross_ranks_match_the_pairwise_reference(self):
        # 40 anchors: 780 overlapping pairs of moment blocks, but only one
        # shared variable set per block.  The two-facility mixture gives
        # cross ranks of 2 that the memo must carry to every pair.
        instance = random_instance(40, 2, seed=1)
        lift = build_lifted(instance)
        sdp = build_sparse(lift, 2)
        y = 0.5 * sum(
            dirac_moment_vector(sdp, lifted_witness(instance, lift, point))
            for point in ([0.3, 0.4], [0.6, 0.5])
        )
        report = rank_check(sdp, y, FlatnessOrders())

        blocks = [b for b in sdp.psd_blocks if b.kind == "moment"]
        expected = []
        for i, first in enumerate(blocks):
            matrix = first.assemble(y)
            for second in blocks[i + 1 :]:
                shared = set(first.variables) & set(second.variables)
                if not shared:
                    continue
                rows = rows_within(first.basis, shared, sdp.order)
                rank = reference_rank(matrix[np.ix_(rows, rows)])
                expected.append((first.label, second.label, rank))
        assert len(expected) == 780
        assert report.cross_ranks == tuple(expected)
        assert {rank for _, _, rank in expected} == {2}

    def test_strict_subset_basis_ranks_its_own_rows(self, weber_sparse):
        # Clique 0's moment block without the rows of u1^2 and x2 u1, its
        # rows reversed out of graded order: rank_check must select every
        # submatrix by the block's own basis.
        full = weber_sparse.psd_blocks[0]
        kept = [
            r for r, row in enumerate(full.basis.tolist()) if row not in ([2, 2], [1, 2])
        ][::-1]
        block = restricted(full, kept)
        sdp = dataclasses.replace(
            weber_sparse, psd_blocks=(block,) + weber_sparse.psd_blocks[1:]
        )
        points = ([0.3, 0.4, 0.5, 0.8], [0.3, 0.4, 0.9, 0.2], [0.6, 0.1, 0.5, 0.7])
        y = sum(dirac_moment_vector(sdp, np.array(p)) for p in points) / 3.0
        matrix = full.assemble(y)[np.ix_(kept, kept)]
        np.testing.assert_array_equal(block.assemble(y), matrix)

        report = rank_check(sdp, y, FlatnessOrders(1, 1))

        def ranks(variables):
            rows = rows_within(block.basis, variables, 2)
            reduced = rows_within(block.basis, variables, 1)
            return (
                len(rows),
                len(reduced),
                reference_rank(matrix[np.ix_(rows, rows)]),
                reference_rank(matrix[np.ix_(reduced, reduced)]),
            )

        def observed(ranks):
            return (ranks.size, ranks.reduced_size, ranks.rank_full, ranks.rank_reduced)

        assert observed(report.blocks[0]) == ranks((0, 1, 2)) == (8, 4, 3, 3)
        assert observed(report.original) == ranks((0, 1)) == (6, 3, 2, 2)
        assert report.cross_ranks == (("moment.c0", "moment.c1", 2),)

    def test_moment_block_without_basis_raises(self, weber_sparse):
        stripped = dataclasses.replace(
            weber_sparse,
            psd_blocks=tuple(
                dataclasses.replace(b, basis=None) if b.kind == "moment" else b
                for b in weber_sparse.psd_blocks
            ),
        )
        y = dirac_moment_vector(weber_sparse, WEBER_POINT)
        with pytest.raises(ExtractionError, match="moment.c0 carries no basis"):
            rank_check(stripped, y, FlatnessOrders())
        with pytest.raises(ExtractionError, match="moment.c0 carries no basis"):
            extract_point(stripped, y)


class TestExtractPoint:
    def test_dirac_recovers_the_point_exactly(self, weber_sparse):
        y = dirac_moment_vector(weber_sparse, WEBER_POINT)
        solution = extract_point(weber_sparse, y)
        for var in weber_sparse.original_variables:
            assert solution.point[var] == pytest.approx(WEBER_POINT[var], abs=1e-9)
        expected = WEBER_POINT[2] + WEBER_POINT[3]
        assert solution.certified_value == pytest.approx(expected, abs=1e-9)
        assert solution.sdp_bound == pytest.approx(expected, abs=1e-9)
        assert abs(solution.gap) <= 1e-9
        assert solution.feasible

    def test_original_variables_only_by_default(self, weber_sparse):
        y = dirac_moment_vector(weber_sparse, WEBER_POINT)
        solution = extract_point(weber_sparse, y)
        assert set(solution.point) == {0, 1}

    def test_objective_callable_receives_original_point(self, weber_sparse):
        y = dirac_moment_vector(weber_sparse, WEBER_POINT)
        seen = []

        def true_objective(x):
            seen.append(np.array(x))
            return float(
                np.hypot(x[0], x[1]) + np.hypot(x[0] - 1.0, x[1])
            )

        solution = extract_point(weber_sparse, y, objective=true_objective)
        assert seen[0].shape == (2,)
        assert solution.certified_value == pytest.approx(
            WEBER_POINT[2] + WEBER_POINT[3], abs=1e-9
        )

    def test_solved_epigraph_minimizer(self):
        universe = VariableUniverse(["x"])
        one = Polynomial.constant(universe, 1.0)
        problem = OmrfProblem(
            (
                RationalFunction(parse("x", universe), one),
                RationalFunction(parse("1 - x", universe), one),
            ),
            LambdaWeights.constants(universe, (1.0, 0.0)),
            SemialgebraicSet(
                universe, [parse("x", universe), parse("1 - x", universe)], []
            ),
            1.0,
        )
        sdp = build_dense(build_telescoping(problem), 2)
        res = solve(sdp)
        assert res.status.solved()
        solution = extract_point(
            sdp, res.y, objective=lambda x: max(x[0], 1.0 - x[0])
        )
        (x_hat,) = (solution.point[v] for v in sorted(solution.point))
        assert x_hat == pytest.approx(0.5, abs=1e-3)
        assert solution.certified_value == pytest.approx(0.5, abs=1e-3)
        assert solution.gap >= -1e-6
        assert solution.feasible

    def test_solved_rational_objective_default_certifier(self):
        lift = hand_lift(
            ("x",),
            "x^2 + 1",
            inequality_texts=("1 - x^2",),
            denominator_text="x^2 + 2",
        )
        sdp = build_dense(lift, 2)
        res = solve(sdp)
        assert res.status.solved()
        solution = extract_point(sdp, res.y)
        assert solution.point[0] == pytest.approx(0.0, abs=1e-3)
        assert solution.certified_value == pytest.approx(0.5, abs=1e-4)
        assert solution.sdp_bound == pytest.approx(0.5, abs=1e-6)
        assert solution.gap >= -1e-6
        assert solution.feasible

    def test_degenerate_mass_is_rejected(self):
        lift = hand_lift(
            ("x",),
            "x",
            inequality_texts=("x - 1", "2 - x"),
            denominator_text="x^2",
        )
        sdp = build_dense(lift, 2)
        with pytest.raises(DegenerateMomentError, match="mass"):
            extract_point(sdp, np.zeros(sdp.y_dim))

    def test_gap_is_the_certified_value_minus_the_bound(self):
        solution = ExtractedSolution(
            {0: 0.25}, certified_value=1.5, sdp_bound=1.25, feasibility_residual=0.0, feasible=True
        )
        assert solution.gap == pytest.approx(0.25)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_moment_gives_an_infeasible_point(self, weber_sparse, bad):
        # The objective's denominator is constant, so only the feasibility
        # check meets the non-finite first moment.
        y = solve(weber_sparse).y.copy()
        y[1] = bad
        solution = extract_point(weber_sparse, y)
        assert not solution.feasible
        assert math.isnan(solution.feasibility_residual)
