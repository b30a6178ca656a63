"""End-to-end tests for the SDP solver backends and result verification."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import owasdp.solver as solver_module
from owasdp.omrf import LambdaWeights, OmrfProblem, build_kcentrum
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

    def test_non_finite_kkt_solution_reports_failure(self, monkeypatch, weber_sparse):
        # Order 2 keeps the KKT system dense (LU), so lu_solve serves it.
        assert weber_sparse.y_dim + len(weber_sparse.equalities) <= 500
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

    @staticmethod
    def _random_point(comp, rng, definite):
        flat = np.empty(comp.dim)
        for stack in comp.stacks(flat):
            B = rng.standard_normal(stack.shape)
            if definite:
                stack[...] = B @ np.swapaxes(B, 1, 2) + stack.shape[1] * np.eye(stack.shape[1])
            else:
                stack[...] = B + np.swapaxes(B, 1, 2)
        return flat

    def test_block_operator_matches_per_block_maps(self):
        sdp = mixed_layout_sdp()
        comp = solver_module._Compiled(sdp)
        y = np.random.default_rng(0).standard_normal(sdp.y_dim)
        stacked = [m for s in comp.stacks(comp.constant + comp.A @ y) for m in s]
        assert len(stacked) == len(sdp.psd_blocks)
        for block in sdp.psd_blocks:
            constant, indices, tensor = solver_module._dense_block(block, np.ones(3))
            expected = constant + np.tensordot(y[indices], tensor, axes=(0, 0))
            assert any(
                m.shape == expected.shape and np.allclose(m, expected, rtol=0, atol=1e-14)
                for m in stacked
            )

    def test_nt_scaling_identities(self):
        comp = solver_module._Compiled(mixed_layout_sdp())
        rng = np.random.default_rng(1)
        X = self._random_point(comp, rng, definite=True)
        Z = self._random_point(comp, rng, definite=True)
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
        current = self._random_point(comp, rng, definite=True)
        direction = self._random_point(comp, rng, definite=False)
        smallest = min(
            scipy.linalg.eigh(d, c, eigvals_only=True)[0]
            for cs, ds in zip(comp.stacks(current), comp.stacks(direction))
            for c, d in zip(cs, ds)
        )
        assert smallest < 0.0
        inv_chol = [np.linalg.inv(np.linalg.cholesky(c)) for c in comp.stacks(current)]
        step = solver_module._max_step(comp, inv_chol, direction)
        assert step == pytest.approx(-1.0 / smallest, rel=1e-10)

    def test_schur_complement_matches_operator_form(self, weber_sparse):
        # H[:, j] = A' vec(G A_j G), with A_j the j-th column of the operator.
        comp = solver_module._Compiled(weber_sparse)
        rng = np.random.default_rng(3)
        X = self._random_point(comp, rng, definite=True)
        Z = self._random_point(comp, rng, definite=True)
        G = [
            solver_module._nt_scaling(x, z)[0]
            for x, z in zip(comp.stacks(X), comp.stacks(Z))
        ]
        columns = comp.A.toarray()
        reference = np.column_stack(
            [
                comp.At @ solver_module._congruence(comp, G, columns[:, j])
                for j in range(comp.y_dim)
            ]
        )
        data = comp.kkt_data(solver_module._schur_terms(comp, G), 0.0)
        dim = comp.y_dim + comp.n_eq
        kkt = scipy.sparse.csc_matrix(
            (data, comp.kkt_indices, comp.kkt_indptr), shape=(dim, dim)
        ).toarray()
        scale = np.max(np.abs(reference))
        np.testing.assert_allclose(
            kkt[: comp.y_dim, : comp.y_dim], reference, rtol=0, atol=1e-12 * scale
        )
        np.testing.assert_array_equal(kkt[comp.y_dim :, : comp.y_dim], comp.E.toarray())


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
