"""End-to-end tests for the SDP solver backends and result verification."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

import owasdp.solver as solver_module
from owasdp.location import build_lifted, random_instance
from owasdp.omrf import LambdaWeights, OmrfProblem, build_general_lift, build_kcentrum
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
    PsdBlock,
    SdpProblem,
    build_dense,
    build_sparse,
    dirac_moment_vector,
    from_sdp_text,
    to_sdp_text,
)
from owasdp.solver import (
    SolveStatus,
    SolverOptions,
    SolverResult,
    available_backends,
    register_backend,
    solve,
    verify_result,
    verify_vector,
)

from support import hand_lift, two_point_weber_lift


def one_by_one_sdp():
    """Minimize the top moment subject to its 1x1 moment block: optimum 0."""
    return SdpProblem(
        y_dim=1,
        order=1,
        objective=AffineForm((0,), (1.0,), 0.0),
        psd_blocks=(
            PsdBlock(1, "moment", "m", (), ((0, 0, AffineForm((0,), (1.0,), 0.0)),)),
        ),
        equalities=(),
        pivot_substitution=AffineForm((), (), 1.0),
        moment_scales=(1.0,),
        original_variables=(),
    )


def infeasible_sdp():
    """y >= 0 and -1 - y >= 0 cannot hold together."""
    return SdpProblem(
        y_dim=1,
        order=1,
        objective=AffineForm((0,), (1.0,), 0.0),
        psd_blocks=(
            PsdBlock(1, "moment", "m", (), ((0, 0, AffineForm((0,), (1.0,), 0.0)),)),
            PsdBlock(
                1,
                "localizing",
                "neg",
                (),
                ((0, 0, AffineForm((0,), (-1.0,), -1.0)),),
            ),
        ),
        equalities=(),
        pivot_substitution=AffineForm((), (), 1.0),
        moment_scales=(1.0,),
        original_variables=(),
    )


def unbounded_sdp():
    """Minimize -y with only y >= 0: the objective has no lower bound."""
    return SdpProblem(
        y_dim=1,
        order=1,
        objective=AffineForm((0,), (-1.0,), 0.0),
        psd_blocks=(
            PsdBlock(1, "moment", "m", (), ((0, 0, AffineForm((0,), (1.0,), 0.0)),)),
        ),
        equalities=(),
        pivot_substitution=AffineForm((), (), 1.0),
        moment_scales=(1.0,),
        original_variables=(),
    )


def mixed_layout_sdp():
    """Blocks of sizes 1, 2 and 3: two 2x2 blocks touching 2 and 1 moments
    and a constant-only 3x3 block.  Minimize y0 + y1 + y2 subject to
    y1 >= y0^2, y0 >= -1, y0 <= 2, y2 >= 0 and y2 = 0.5: the optimum 0.25 is
    attained at y = (-0.5, 0.25, 0.5)."""

    def form(pairs, constant=0.0):
        return AffineForm(
            tuple(i for i, _ in pairs), tuple(c for _, c in pairs), constant
        )

    one = AffineForm((), (), 1.0)
    blocks = (
        PsdBlock(
            2,
            "localizing",
            "parabola",
            (),
            ((0, 0, one), (0, 1, form([(0, 1.0)])), (1, 1, form([(1, 1.0)]))),
        ),
        PsdBlock(
            2, "localizing", "lower", (), ((0, 0, form([(0, 1.0)], 1.0)), (1, 1, one))
        ),
        PsdBlock(
            3,
            "localizing",
            "constant",
            (),
            (
                (0, 0, AffineForm((), (), 2.0)),
                (0, 1, one),
                (1, 1, AffineForm((), (), 2.0)),
                (2, 2, one),
            ),
        ),
        PsdBlock(1, "moment", "slack", (), ((0, 0, form([(2, 1.0)])),)),
        PsdBlock(1, "localizing", "upper", (), ((0, 0, form([(0, -1.0)], 2.0)),)),
    )
    return SdpProblem(
        y_dim=3,
        order=1,
        objective=form([(0, 1.0), (1, 1.0), (2, 1.0)]),
        psd_blocks=blocks,
        equalities=(EqualityRow("fix", form([(2, 1.0)]), 0.5),),
        pivot_substitution=AffineForm((), (), 1.0),
        moment_scales=(1.0, 1.0, 1.0),
        original_variables=(),
    )


@pytest.fixture(scope="module")
def linear_sdp():
    lift = hand_lift(("x",), "x", inequality_texts=("x", "1 - x"))
    return build_dense(lift, 1)


@pytest.fixture(scope="module")
def rational_sdp():
    lift = hand_lift(
        ("x",),
        "x^2 + 1",
        inequality_texts=("1 - x^2",),
        denominator_text="x^2 + 2",
    )
    return build_dense(lift, 2)


@pytest.fixture(scope="module")
def weber_lift():
    return two_point_weber_lift()


@pytest.fixture(scope="module")
def weber_sparse(weber_lift):
    return build_sparse(weber_lift, 2)


@pytest.fixture(scope="module")
def weber50_instance():
    """Planar l2 Weber with 50 anchors: at order 2 its KKT system over the
    free moments has 514 rows, above the dense cut-off, so it runs the
    sparse factor."""
    return random_instance(50, 2, seed=2)


@pytest.fixture(scope="module")
def weber50_sparse(weber50_instance):
    return build_sparse(build_lifted(weber50_instance), 2)


@pytest.fixture(scope="module")
def mixed_layout():
    return mixed_layout_sdp()


@pytest.fixture(scope="module")
def rational_omrf():
    """The larger of two rational functions over [-1, 1]."""
    universe = VariableUniverse(["x"])
    return OmrfProblem(
        (
            RationalFunction(parse("x^2 + 1", universe), parse("0.5*x^2 + 2", universe)),
            RationalFunction(parse("3*x - 1", universe), parse("x^2 + 1.5", universe)),
        ),
        LambdaWeights.constants(universe, (1.0, 0.0)),
        SemialgebraicSet(universe, [parse("1 - x^2", universe)], []),
        4.0,
    )


@pytest.fixture(scope="module")
def rational_omrf_sparse(rational_omrf):
    """Its epigraph lift at order 2: moment and localizing blocks with
    non-unit coefficients and moment scales, in shape groups of one and two
    blocks."""
    return build_sparse(build_kcentrum(rational_omrf, 1), 2)


@pytest.fixture(scope="module")
def rational_general_sparse(rational_omrf):
    """Its general (assignment) lift at the minimum order 3: binary and
    assignment equality rows, about half of them dependent, and non-unit
    moment scales."""
    return build_sparse(build_general_lift(rational_omrf), 3)


def random_block_vector(comp, rng, definite):
    """Flat block vector of random symmetric blocks, PD when ``definite``."""
    flat = np.empty(comp.dim)
    for stack in comp.stacks(flat):
        B = rng.standard_normal(stack.shape)
        if definite:
            stack[...] = B @ np.swapaxes(B, 1, 2) + stack.shape[1] * np.eye(stack.shape[1])
        else:
            stack[...] = B + np.swapaxes(B, 1, 2)
    return flat


def random_scaling(comp, seed):
    """NT scaling matrices G of a random PD primal-dual pair, per size group."""
    rng = np.random.default_rng(seed)
    X = random_block_vector(comp, rng, definite=True)
    Z = random_block_vector(comp, rng, definite=True)
    return [
        solver_module._nt_scaling(x, z)[0]
        for x, z in zip(comp.stacks(X), comp.stacks(Z))
    ]


def unpermuted_kkt(comp, data):
    """Dense KKT matrix from its CSC data, in the original unknown order."""
    dim = comp.z_dim
    stored = scipy.sparse.csc_matrix(
        (data, comp.kkt_indices, comp.kkt_indptr), shape=(dim, dim)
    ).toarray()
    if comp.kkt_order is None:
        return stored
    out = np.empty_like(stored)
    out[np.ix_(comp.kkt_order, comp.kkt_order)] = stored
    return out


def operator_schur(comp, G):
    """H[:, j] = A' vec(G A_j G), with A_j the j-th column of the operator."""
    columns = comp.A.toarray()
    return np.column_stack(
        [
            comp.At @ solver_module._congruence(comp, G, columns[:, j])
            for j in range(comp.z_dim)
        ]
    )


def substituted_blocks(sdp, comp, z):
    """Every PSD block assembled at the moments y = fixed + free z (original
    units) and divided by the Frobenius norm of its substituted map,
    sqrt(|C|^2 + sum_l |A_l|^2) with C the block at z = 0 and A_l the change
    along the l-th free moment; computed from ``PsdBlock.assemble`` alone."""

    def moments(point):
        return comp.y_scales * comp.moments(point)

    out = []
    for block in sdp.psd_blocks:
        if not block.size:
            continue
        constant = block.assemble(moments(np.zeros(comp.z_dim)))
        coefficients = [
            block.assemble(moments(e)) - constant for e in np.eye(comp.z_dim)
        ]
        norm = math.sqrt(np.sum(constant**2) + sum(np.sum(a**2) for a in coefficients))
        out.append(block.assemble(moments(z)) / norm)
    return out


def assert_compiled_blocks_match(sdp, seed, atol):
    """The compiled block map at a random z equals ``substituted_blocks``."""
    comp = solver_module._Compiled(sdp)
    z = np.random.default_rng(seed).standard_normal(comp.z_dim)
    stacked = [m for s in comp.stacks(comp.constant + comp.A @ z) for m in s]
    expected_blocks = substituted_blocks(sdp, comp, z)
    assert len(stacked) == len(expected_blocks)
    for expected in expected_blocks:
        assert any(
            m.shape == expected.shape and np.allclose(m, expected, rtol=0, atol=atol)
            for m in stacked
        )
    return comp, z


def with_rows(sdp, *rows):
    """``sdp`` with extra equality rows."""
    return dataclasses.replace(sdp, equalities=sdp.equalities + rows)


@pytest.fixture(scope="module")
def max_lift():
    """Epigraph lift of min max(x, 1-x) over [0, 1]; optimum 0.5 at x = 0.5."""
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
    return build_kcentrum(problem, 1)


@pytest.fixture(scope="module")
def max_dense(max_lift):
    return build_dense(max_lift, 2)


class TestOptionsAndResults:
    def test_nonpositive_tolerances_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            SolverOptions(abs_tol=0.0)
        with pytest.raises(ValueError, match="positive"):
            SolverOptions(rel_tol=-1e-9)

    def test_zero_iteration_budget_rejected(self):
        with pytest.raises(ValueError, match="max_iters"):
            SolverOptions(max_iters=0)

    def test_result_carries_y_exactly_when_solved(self):
        with pytest.raises(ValueError, match="solved"):
            SolverResult(SolveStatus.OPTIMAL, None, 0.0, 1, 0.0)
        with pytest.raises(ValueError, match="solved"):
            SolverResult(SolveStatus.NUMERICAL_FAILURE, np.zeros(2), math.nan, 1, 0.0)

    def test_unknown_backend_lists_known_ones(self):
        with pytest.raises(ValueError, match="interior-point"):
            solve(one_by_one_sdp(), SolverOptions(backend="no-such-backend"))

    def test_backend_registry_dispatch(self):
        calls = []

        def stub(sdp, opts):
            calls.append(sdp.y_dim)
            return SolverResult(
                SolveStatus.OPTIMAL, np.zeros(sdp.y_dim), 0.0, 0, 0.0
            )

        register_backend("stub-for-test", stub)
        try:
            assert "stub-for-test" in available_backends()
            res = solve(one_by_one_sdp(), SolverOptions(backend="stub-for-test"))
            assert res.status is SolveStatus.OPTIMAL
            assert calls == [1]
        finally:
            del solver_module._BACKENDS["stub-for-test"]

    def test_default_backends_present(self):
        names = available_backends()
        assert "interior-point" in names
        assert "cvxopt" in names


class TestBundledBackend:
    def test_one_by_one_block(self):
        res = solve(one_by_one_sdp())
        assert res.status is SolveStatus.OPTIMAL
        assert abs(res.objective) <= 1e-7
        assert res.y.shape == (1,)

    def test_linear_over_interval(self, linear_sdp):
        res = solve(linear_sdp)
        assert res.status.solved()
        assert abs(res.objective) <= 1e-7

    def test_rational_objective(self, rational_sdp):
        res = solve(rational_sdp)
        assert res.status.solved()
        assert res.objective == pytest.approx(0.5, abs=1e-6)

    def test_max_of_two_affine_dense(self, max_dense):
        res = solve(max_dense)
        assert res.status.solved()
        assert res.objective == pytest.approx(0.5, abs=1e-6)

    def test_max_of_two_affine_sparse(self, max_lift):
        res = solve(build_sparse(max_lift, 2))
        assert res.status.solved()
        assert res.objective == pytest.approx(0.5, abs=1e-6)

    def test_weber_bound_and_feasibility(self, weber_sparse):
        res = solve(weber_sparse)
        assert res.status.solved()
        # The relaxation lower-bounds the true optimum 1 (the anchor gap).
        assert 0.0 < res.objective <= 1.0 + 1e-6
        report = verify_result(weber_sparse, res, 1e-6)
        assert report.within_tolerance

    def test_hierarchy_is_monotone(self, weber_lift, weber_sparse):
        low = solve(weber_sparse)
        high = solve(build_sparse(weber_lift, 3))
        assert low.status.solved() and high.status.solved()
        assert low.objective <= high.objective + 1e-6

    def test_bitwise_deterministic(self, weber_sparse):
        first = solve(weber_sparse)
        second = solve(weber_sparse)
        assert first.status is second.status
        assert first.iterations == second.iterations
        assert first.objective == second.objective
        assert np.array_equal(first.y, second.y)

    def test_phase_seconds_split_the_wall_time(self, weber_sparse):
        res = solve(weber_sparse)
        phases = res.diagnostics["phase_seconds"]
        assert set(phases) == {
            "residuals",
            "scaling",
            "schur",
            "kkt_factor",
            "kkt_solve",
            "step_search",
        }
        assert all(seconds >= 0.0 for seconds in phases.values())
        assert sum(phases.values()) <= res.wall_time

    def test_schur_diagnostics(self, weber_sparse):
        stats = solve(weber_sparse).diagnostics["schur"]
        assert set(stats) == {"coefficients", "terms"}
        # Count the nonzero coefficients of every block over the free
        # moments, and the free moments each block touches, from the blocks
        # assembled along each free moment.
        comp = solver_module._Compiled(weber_sparse)
        coefficients = terms = 0
        for block in weber_sparse.psd_blocks:
            base = block.assemble(comp.y_scales * comp.moments(np.zeros(comp.z_dim)))
            changes = [
                block.assemble(comp.y_scales * comp.moments(e)) - base
                for e in np.eye(comp.z_dim)
            ]
            nonzero = [np.abs(a) > 1e-12 * (1.0 + np.abs(base)) for a in changes]
            coefficients += sum(int(np.sum(mask)) for mask in nonzero)
            terms += sum(bool(mask.any()) for mask in nonzero) ** 2
        assert stats["coefficients"] == coefficients > 0
        assert stats["terms"] == terms

    def test_non_finite_kkt_solution_reports_failure(self, monkeypatch, weber_sparse):
        # Order 2 keeps the KKT system dense (LU), so lu_solve serves it.
        assert solver_module._Compiled(weber_sparse).z_dim <= 500
        real_lu_solve = scipy.linalg.lu_solve
        calls = []

        def breaking_lu_solve(*args, **kwargs):
            calls.append(1)
            if len(calls) > 30:
                return np.full_like(args[1], np.nan)
            return real_lu_solve(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "lu_solve", breaking_lu_solve)
        res = solve(weber_sparse)
        assert len(calls) > 30
        assert res.status is SolveStatus.NUMERICAL_FAILURE
        assert res.y is None
        assert "non-finite" in res.diagnostics["note"]

    @pytest.mark.parametrize("part", [0, 2], ids=["G", "S_inv"])
    def test_overflow_reports_failure_without_warnings(
        self, monkeypatch, weber_sparse, part
    ):
        # Blowing up the NT scaling G (or S^{-1}) overflows the Schur terms
        # (or the corrector and the congruences), which the solver checks.
        real_nt_scaling = solver_module._nt_scaling
        calls = []

        def blown_up(X, Z):
            calls.append(1)
            parts = list(real_nt_scaling(X, Z))
            if len(calls) > 6:
                parts[part] = parts[part] * 1e200
            return tuple(parts)

        monkeypatch.setattr(solver_module, "_nt_scaling", blown_up)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(weber_sparse)
        assert len(calls) > 6
        assert res.status is SolveStatus.NUMERICAL_FAILURE
        assert res.y is None
        assert "non-finite" in res.diagnostics["note"]

    def test_iteration_cap_reports_failure(self, max_dense):
        res = solve(max_dense, SolverOptions(max_iters=1))
        assert res.status is SolveStatus.NUMERICAL_FAILURE
        assert res.y is None
        assert math.isnan(res.objective)
        last = res.diagnostics["last_y"]
        assert last.shape == (max_dense.y_dim,)

    def test_infeasible_not_solved(self):
        res = solve(infeasible_sdp())
        assert res.status in (SolveStatus.INFEASIBLE, SolveStatus.NUMERICAL_FAILURE)
        assert not res.status.solved()
        assert res.y is None

    def test_unbounded_not_solved(self):
        res = solve(unbounded_sdp())
        assert res.status in (SolveStatus.UNBOUNDED, SolveStatus.NUMERICAL_FAILURE)
        assert not res.status.solved()
        assert res.y is None


class TestGroupedLayout:
    """Blocks of several sizes, mixed moment counts within one size, and a
    block without moments."""

    def test_known_optimum(self):
        res = solve(mixed_layout_sdp())
        assert res.status.solved()
        assert res.objective == pytest.approx(0.25, abs=1e-6)
        assert res.y == pytest.approx([-0.5, 0.25, 0.5], abs=1e-4)

    def test_bitwise_deterministic(self):
        first = solve(mixed_layout_sdp())
        second = solve(mixed_layout_sdp())
        assert first.iterations == second.iterations
        assert np.array_equal(first.y, second.y)


class TestBatchedKernels:
    """The stacked per-group kernels against per-block reference formulas."""

    def test_block_operator_matches_per_block_maps(self):
        # The compiled block is the assembled one at y = fixed + free z over
        # the Frobenius norm of its substituted map; the moment scales are
        # all 1, and the row y2 = 0.5 fixes one moment.
        assert_compiled_blocks_match(mixed_layout_sdp(), 0, 1e-14)

    def test_nt_scaling_identities(self):
        comp = solver_module._Compiled(mixed_layout_sdp())
        rng = np.random.default_rng(1)
        X = random_block_vector(comp, rng, definite=True)
        Z = random_block_vector(comp, rng, definite=True)
        for x, z in zip(comp.stacks(X), comp.stacks(Z)):
            G, S, S_inv, d, Q = solver_module._nt_scaling(x, z)
            lam = (Q * d[:, None, :]) @ np.swapaxes(Q, 1, 2)
            np.testing.assert_allclose(G @ x @ G, z, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(S @ S, G, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(S @ x @ S, lam, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(S_inv @ z @ S_inv, lam, rtol=1e-10, atol=1e-10)

    def test_step_length_matches_generalized_eigenproblem(self):
        comp = solver_module._Compiled(mixed_layout_sdp())
        rng = np.random.default_rng(2)
        current = random_block_vector(comp, rng, definite=True)
        direction = random_block_vector(comp, rng, definite=False)
        smallest = min(
            scipy.linalg.eigh(d, c, eigvals_only=True)[0]
            for cs, ds in zip(comp.stacks(current), comp.stacks(direction))
            for c, d in zip(cs, ds)
        )
        assert smallest < 0.0
        inv_chol = [np.linalg.inv(np.linalg.cholesky(c)) for c in comp.stacks(current)]
        step = solver_module._max_step(comp, inv_chol, direction)
        assert step == pytest.approx(-1.0 / smallest, rel=1e-10)

    @pytest.mark.parametrize(
        "problem", ["weber_sparse", "mixed_layout", "rational_omrf_sparse"]
    )
    def test_schur_complement_matches_operator_form(self, request, problem):
        comp = solver_module._Compiled(request.getfixturevalue(problem))
        G = random_scaling(comp, 3)
        reference = operator_schur(comp, G)
        solver_module._schur_terms(comp, G)
        schur = unpermuted_kkt(comp, comp.kkt_data(0.0))
        # The KKT matrix is the Schur complement alone: no equality rows.
        assert schur.shape == reference.shape == (comp.z_dim, comp.z_dim)
        scale = np.max(np.abs(reference))
        np.testing.assert_allclose(schur, reference, rtol=0, atol=1e-12 * scale)
        np.testing.assert_array_equal(schur, schur.T)


class TestSparseKkt:
    """The KKT system above the dense cut-off: factored by SuperLU in the
    minimum-degree order fixed at compile time."""

    @pytest.fixture(scope="class")
    def result(self, weber50_sparse):
        return solve(weber50_sparse)

    def test_solved_bitwise_repeatable_and_a_lower_bound(
        self, weber50_instance, weber50_sparse, result
    ):
        assert result.status.solved()
        again = solve(weber50_sparse)
        assert again.iterations == result.iterations
        assert np.array_equal(again.y, result.y)
        points = np.asarray(weber50_instance.points)
        centroid_value = np.linalg.norm(points - points.mean(axis=0), axis=1).sum()
        assert result.objective <= centroid_value

    def test_kkt_diagnostics(self, weber_sparse, weber50_sparse, result):
        stats = result.diagnostics["kkt"]
        assert set(stats) == {"dim", "nnz", "factor_nnz"}
        free = solver_module._Compiled(weber50_sparse).z_dim
        assert stats["dim"] == free == result.diagnostics["equalities"]["free"] == 514
        assert stats["nnz"] <= stats["factor_nnz"] < stats["dim"] ** 2
        dense = solve(weber_sparse).diagnostics["kkt"]
        assert dense["dim"] <= 500
        assert dense["factor_nnz"] == dense["dim"] ** 2

    def test_solve_matches_dense_reference(self, weber50_sparse):
        comp = solver_module._Compiled(weber50_sparse)
        assert np.array_equal(np.sort(comp.kkt_order), np.arange(comp.z_dim))
        G = random_scaling(comp, 4)
        delta = 1e-12
        solver_module._schur_terms(comp, G)
        data = comp.kkt_data(delta)
        matrix = unpermuted_kkt(comp, data)
        schur = operator_schur(comp, G)
        np.testing.assert_allclose(
            matrix - delta * np.eye(comp.z_dim),
            schur,
            rtol=0,
            atol=1e-12 * np.max(np.abs(schur)),
        )
        rhs = np.random.default_rng(5).standard_normal(comp.z_dim)
        solution = solver_module._Kkt(comp, data).solve(rhs)
        expected = np.linalg.solve(matrix, rhs)
        np.testing.assert_allclose(
            solution, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected))
        )

    def test_factorization_failure_reports_failure(self, monkeypatch, weber50_sparse):
        real_splu = scipy.sparse.linalg.splu

        def failing_splu(matrix, permc_spec=None, **kwargs):
            # The compile-time ordering goes through; every factorization in
            # that order fails.
            if permc_spec == "NATURAL":
                raise RuntimeError("Factor is exactly singular")
            return real_splu(matrix, permc_spec=permc_spec, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", failing_splu)
        res = solve(weber50_sparse)
        assert res.status is SolveStatus.NUMERICAL_FAILURE
        assert res.y is None
        assert res.diagnostics["note"] == "KKT factorization failed"


class TestEqualityElimination:
    """E y = b eliminated at compile time: y = fixed + free z."""

    @pytest.mark.parametrize(
        "problem", ["rational_omrf_sparse", "weber_sparse", "rational_general_sparse"]
    )
    def test_compiled_blocks_are_the_substituted_blocks(self, request, problem):
        sdp = request.getfixturevalue(problem)
        comp, z = assert_compiled_blocks_match(sdp, 6, 1e-14)
        assert comp.n_eq == len(sdp.equalities)
        assert comp.z_dim == sdp.y_dim - (comp.n_eq - comp.dependent)
        assert comp.equality_residual(comp.moments(z)) <= 1e-13
        y = comp.y_scales * comp.moments(z)
        residuals = [abs(row.residual(y)) for row in sdp.equalities]
        assert max(residuals, default=0.0) <= 1e-13 * (1.0 + np.max(np.abs(y)))

    def test_duplicate_row_changes_nothing(self):
        sdp = mixed_layout_sdp()
        (row,) = sdp.equalities
        tripled = AffineForm(
            row.form.indices, tuple(3.0 * c for c in row.form.coefficients), 0.0
        )
        duplicated = with_rows(sdp, EqualityRow("fix-again", tripled, 3.0 * row.rhs))
        plain, twice = solve(sdp), solve(duplicated)
        assert plain.status.solved() and twice.status.solved()
        assert twice.diagnostics["equalities"]["dependent"] == 1
        assert twice.diagnostics["equalities"]["free"] == plain.diagnostics["kkt"]["dim"]
        np.testing.assert_allclose(twice.y, plain.y, rtol=0, atol=1e-10)
        assert twice.objective == pytest.approx(plain.objective, rel=0, abs=1e-10)

    def test_inconsistent_rows_are_infeasible(self):
        sdp = mixed_layout_sdp()
        (row,) = sdp.equalities
        res = solve(with_rows(sdp, EqualityRow("clash", row.form, row.rhs + 0.25)))
        assert res.status is SolveStatus.INFEASIBLE
        assert res.y is None
        assert res.objective == math.inf
        assert res.diagnostics["note"] == "equality rows inconsistent"
        stats = res.diagnostics["equalities"]
        assert stats["dependent"] == 1
        assert stats["residual"] == pytest.approx(0.25)

    @staticmethod
    def _fixed_sdp(lower):
        """y0 + y1 = 1 and y0 - y1 = 0.5 fix y = (0.75, 0.25); the block
        asks y1 >= lower."""
        return SdpProblem(
            y_dim=2,
            order=1,
            objective=AffineForm((0, 1), (2.0, 1.0), 0.5),
            psd_blocks=(
                PsdBlock(
                    1, "localizing", "y1", (), ((0, 0, AffineForm((1,), (1.0,), -lower)),)
                ),
            ),
            equalities=(
                EqualityRow("sum", AffineForm((0, 1), (1.0, 1.0), 0.0), 1.0),
                EqualityRow("difference", AffineForm((0, 1), (1.0, -1.0), 0.0), 0.5),
            ),
            pivot_substitution=AffineForm((), (), 1.0),
            moment_scales=(1.0, 1.0),
            original_variables=(),
        )

    def test_fully_fixed_problem_returns_the_fixed_point(self):
        res = solve(self._fixed_sdp(0.0))
        assert res.status is SolveStatus.OPTIMAL
        assert res.iterations == 0
        np.testing.assert_allclose(res.y, [0.75, 0.25], rtol=0, atol=1e-15)
        assert res.objective == pytest.approx(2.25, abs=1e-15)
        assert res.diagnostics["kkt"]["dim"] == res.diagnostics["equalities"]["free"] == 0
        infeasible = solve(self._fixed_sdp(0.5))
        assert infeasible.status is SolveStatus.INFEASIBLE
        assert infeasible.y is None

    @pytest.mark.parametrize(
        "problem", ["weber_sparse", "rational_general_sparse", "mixed_layout", "max_dense"]
    )
    def test_usable_results_satisfy_their_equalities(self, request, problem):
        sdp = request.getfixturevalue(problem)
        res = solve(sdp)
        assert res.status.solved()
        report = verify_result(sdp, res, 1e-6)
        assert report.max_equality_residual <= 1e-10
        assert res.diagnostics["equalities"]["residual"] <= 1e-12

    def test_equality_residual_counts_in_pres(self, monkeypatch, weber_sparse):
        # An elimination whose fixed point misses a row by 1e-3 must not
        # yield a usable result, although its blocks are consistent.
        real_eliminate = solver_module._eliminate

        def off_by_one_row(E, b):
            elim = real_eliminate(E, b)
            fixed = elim.fixed.copy()
            fixed[E.indices[0]] += 1e-3 / E.data[0]
            return dataclasses.replace(elim, fixed=fixed)

        monkeypatch.setattr(solver_module, "_eliminate", off_by_one_row)
        res = solve(weber_sparse)
        assert not res.status.solved()
        assert res.diagnostics["primal_residual"] >= 1e-4
        assert res.diagnostics["equalities"]["residual"] >= 1e-4

    def test_equality_diagnostics(self, weber_sparse):
        res = solve(weber_sparse)
        stats = res.diagnostics["equalities"]
        assert set(stats) == {"rows", "dependent", "free", "residual"}
        assert stats["rows"] == len(weber_sparse.equalities) > 0
        assert stats["free"] == res.diagnostics["kkt"]["dim"]
        # Every independent row fixes one moment.
        assert stats["rows"] - stats["dependent"] == weber_sparse.y_dim - stats["free"]
        assert 0.0 <= stats["residual"] <= 1e-12


class TestCvxoptBackend:
    OPTS = SolverOptions(backend="cvxopt")

    def test_one_by_one_block(self):
        res = solve(one_by_one_sdp(), self.OPTS)
        assert res.status.solved()
        assert abs(res.objective) <= 1e-7

    def test_max_of_two_affine(self, max_dense):
        res = solve(max_dense, self.OPTS)
        assert res.status.solved()
        assert res.objective == pytest.approx(0.5, abs=1e-6)

    def test_backends_agree(self, rational_sdp, weber_sparse, max_dense):
        for sdp in (rational_sdp, weber_sparse, max_dense):
            bundled = solve(sdp)
            external = solve(sdp, self.OPTS)
            assert bundled.status.solved() and external.status.solved()
            scale = max(1.0, abs(external.objective))
            assert abs(bundled.objective - external.objective) <= 1e-5 * scale

    def test_serialized_roundtrip_agrees(self, weber_sparse):
        reread = from_sdp_text(to_sdp_text(weber_sparse))
        direct = solve(weber_sparse)
        external = solve(reread, self.OPTS)
        assert external.status.solved()
        scale = max(1.0, abs(external.objective))
        assert abs(direct.objective - external.objective) <= 1e-5 * scale

    def test_infeasible_certificate(self):
        res = solve(infeasible_sdp(), self.OPTS)
        assert res.status is SolveStatus.INFEASIBLE
        assert res.objective == math.inf
        assert res.y is None

    def test_unbounded_certificate(self):
        res = solve(unbounded_sdp(), self.OPTS)
        assert res.status is SolveStatus.UNBOUNDED
        assert res.objective == -math.inf
        assert res.y is None


class TestVerifyResult:
    def _dirac(self, weber_sparse):
        point = np.array([0.3, 0.4, 0.5, math.sqrt(0.65)])
        return dirac_moment_vector(weber_sparse, point)

    def test_dirac_vector_is_clean(self, weber_sparse):
        y = self._dirac(weber_sparse)
        report = verify_vector(weber_sparse, y, 1e-9)
        assert report.within_tolerance
        assert report.max_equality_residual <= 1e-9
        assert report.objective_delta == 0.0

    def test_single_entry_perturbation_is_flagged(self, weber_sparse):
        y = self._dirac(weber_sparse)
        target = next(
            i
            for i, mono in enumerate(weber_sparse.moments)
            if mono.exps == ((2, 2),)  # the squared first-distance moment
        )
        y[target] += 1e-3
        report = verify_vector(weber_sparse, y, 1e-6)
        assert not report.within_tolerance
        assert report.max_equality_residual >= 1e-4

    def test_requires_solved_result(self, weber_sparse):
        failed = SolverResult(
            SolveStatus.NUMERICAL_FAILURE, None, math.nan, 3, 0.0
        )
        with pytest.raises(ValueError, match="solved"):
            verify_result(weber_sparse, failed, 1e-6)

    def test_solver_output_self_check(self, max_dense):
        res = solve(max_dense)
        report = verify_result(max_dense, res, 1e-7)
        assert report.within_tolerance
        assert report.min_block_eigenvalue >= -1e-7
