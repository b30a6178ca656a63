"""End-to-end tests for the interior-point SDP solver and result verification."""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import owasdp.solver as solver_module
from owasdp.location import LocationInstance, build_lifted, random_instance
from owasdp.omrf import (
    LambdaWeights,
    OmrfProblem,
    build_auto,
    build_general_lift,
    build_telescoping,
)
from owasdp.oracle import ball_box, grid_search, multistart_descent
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
    SdpProblem,
    build_dense,
    build_sparse,
    dirac_moment_vector,
    min_order,
)
from owasdp.solver import (
    ResidualReport,
    SolveStatus,
    SolverResult,
    solve,
    verify_vector,
)

from support import (
    WEIGHT_CLASSES,
    corner_disk,
    hand_lift,
    psd_block,
    random_omrf_problem,
    random_sign_mixed_problem,
    two_point_weber_lift,
    weight_class_problem,
)


def one_by_one_sdp():
    """Minimize the top moment subject to its 1x1 moment block: optimum 0."""
    return SdpProblem(
        y_dim=1,
        order=1,
        objective=AffineForm((0,), (1.0,), 0.0),
        psd_blocks=(
            psd_block(1, "moment", "m", (), ((0, 0, AffineForm((0,), (1.0,), 0.0)),)),
        ),
        equalities=(),
        original_variables=(),
    )


def infeasible_sdp():
    """y >= 0 and -1 - y >= 0 cannot hold together."""
    return SdpProblem(
        y_dim=1,
        order=1,
        objective=AffineForm((0,), (1.0,), 0.0),
        psd_blocks=(
            psd_block(1, "moment", "m", (), ((0, 0, AffineForm((0,), (1.0,), 0.0)),)),
            psd_block(
                1,
                "localizing",
                "neg",
                (),
                ((0, 0, AffineForm((0,), (-1.0,), -1.0)),),
            ),
        ),
        equalities=(),
        original_variables=(),
    )


def unbounded_sdp():
    """Minimize -y with only y >= 0: the objective has no lower bound."""
    return SdpProblem(
        y_dim=1,
        order=1,
        objective=AffineForm((0,), (-1.0,), 0.0),
        psd_blocks=(
            psd_block(1, "moment", "m", (), ((0, 0, AffineForm((0,), (1.0,), 0.0)),)),
        ),
        equalities=(),
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
        psd_block(
            2,
            "localizing",
            "parabola",
            (),
            ((0, 0, one), (0, 1, form([(0, 1.0)])), (1, 1, form([(1, 1.0)]))),
        ),
        psd_block(
            2, "localizing", "lower", (), ((0, 0, form([(0, 1.0)], 1.0)), (1, 1, one))
        ),
        psd_block(
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
        psd_block(1, "moment", "slack", (), ((0, 0, form([(2, 1.0)])),)),
        psd_block(1, "localizing", "upper", (), ((0, 0, form([(0, -1.0)], 2.0)),)),
    )
    return SdpProblem(
        y_dim=3,
        order=1,
        objective=form([(0, 1.0), (1, 1.0), (2, 1.0)]),
        psd_blocks=blocks,
        equalities=(EqualityRow("fix", form([(2, 1.0)]), 0.5),),
        original_variables=(),
    )


def clique_chain_sdp(labelled):
    """Minimize the sum of 521 moments, no equality rows, over 130 random
    3x3 blocks: block k touches moments 4k + 1 .. 4k + 4 and moment 0, and
    is PSD at y = 0.  Its KKT system has 521 rows.  With ``labelled``
    every third block has ``variables`` (0,) and the rest (1,): two cliques
    of 176 and 344 private moments sharing moment 0.  Otherwise every block
    has empty ``variables``: one clique of all 521."""
    rng = np.random.default_rng(7)
    blocks = []
    for k in range(130):
        touched = (0, 4 * k + 1, 4 * k + 2, 4 * k + 3, 4 * k + 4)
        entries = tuple(
            (i, j, AffineForm(touched, tuple(rng.standard_normal(5)), float(i == j)))
            for i in range(3)
            for j in range(i, 3)
        )
        variables = ((0,) if k % 3 == 0 else (1,)) if labelled else ()
        blocks.append(psd_block(3, "localizing", f"b{k}", variables, entries))
    return SdpProblem(
        y_dim=521,
        order=1,
        objective=AffineForm(tuple(range(521)), (1.0,) * 521, 0.0),
        psd_blocks=tuple(blocks),
        equalities=(),
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
def weber_dense(weber_lift):
    return build_dense(weber_lift, 2)


@pytest.fixture(scope="module")
def weber50_instance():
    """Planar l2 Weber with 50 anchors on the disk through the corners of
    the unit square: the nonlinear ground set keeps a distance variable per
    anchor in its own clique, and at order 2 the KKT system over the free
    moments has 514 rows in 50 cliques."""
    return dataclasses.replace(random_instance(50, 2, seed=2), ground_set=corner_disk())


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
    non-unit coefficients, in shape groups of one and two blocks."""
    return build_sparse(build_telescoping(rational_omrf), 2)


@pytest.fixture(scope="module")
def rational_general_sparse(rational_omrf):
    """Its general (assignment) lift at the minimum order 3: binary and
    assignment equality rows, about half of them dependent."""
    return build_sparse(build_general_lift(rational_omrf), 3)


@pytest.fixture(scope="module")
def omrf_order3_sparse():
    """A rational ordered median of two functions of two variables with
    polynomial position weights, lifted by ``build_auto`` and relaxed at its
    minimum order 3: one moment block of size 35 over the two coordinates
    and the assignment row, beside blocks of sizes 1 and 15.  Compiled by
    the tests, never solved."""
    problem = random_omrf_problem(
        np.random.default_rng([7, 0]), "general", rational=True, max_m=2
    )
    lift = build_auto(problem)
    assert min_order(lift).r_min == 3
    return build_sparse(lift, 3)


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
    """NT scaling matrices G of a random PD primal-dual pair, per size group,
    from the pair's Cholesky factors."""
    rng = np.random.default_rng(seed)
    X = random_block_vector(comp, rng, definite=True)
    Z = random_block_vector(comp, rng, definite=True)
    factors = solver_module._cholesky(comp, np.stack([X, Z]))
    return comp.stacks(solver_module._nt_scaling(comp, factors)[0])


# Per-group reference kernels of the interior-point iteration: every step
# one call per size group, through NumPy's public ``linalg``.  The flat
# kernels must give their bits.


def reference_symmetrize(stack):
    return 0.5 * (stack + stack.mT)


def reference_cholesky(comp, x, z):
    """Per size group, the Cholesky factors of the X and the Z stack from one
    ``np.linalg.cholesky`` of both; None when a block is not PD."""
    try:
        factors = [
            np.linalg.cholesky(np.concatenate(pair))
            for pair in zip(comp.stacks(x), comp.stacks(z))
        ]
    except np.linalg.LinAlgError:
        return None
    counts = [hi - lo for _, lo, hi in comp.groups]
    return [f[:k] for f, k in zip(factors, counts)], [f[k:] for f, k in zip(factors, counts)]


def reference_nt_scaling(Lx, Lz, eye):
    """(G, T, T^{-1}, d, lambda, d^{-1/2} d^{-1/2}') of one size group."""
    U, d, Vt = np.linalg.svd(Lz.mT @ Lx)
    d = np.maximum(d, 1e-300)
    root = 1.0 / np.sqrt(d)
    T = (Lx @ Vt.mT) * root[:, None, :]
    T_inv = root[:, :, None] * (U.mT @ Lz.mT)
    G = reference_symmetrize(T_inv.mT @ T_inv)
    return G, T, T_inv, d, d[:, :, None] * eye, root[:, :, None] * root[:, None, :]


def reference_congruence(comp, G, flat):
    """sym(G M G) per block, as a flat block vector."""
    out = np.empty_like(flat)
    for g, m, dst in zip(G, comp.stacks(flat), comp.stacks(out)):
        dst[...] = reference_symmetrize(g @ m @ g)
    return out


def reference_scaled(comp, T_inv, flat):
    """sym(T^{-1} M T^{-T}) per block, as stacks per size group."""
    return [reference_symmetrize(ti @ m @ ti.mT) for ti, m in zip(T_inv, comp.stacks(flat))]


def reference_step_lengths(outer, primal, dual):
    """Both step lengths from the scaled direction stacks of every group."""
    smallest = [math.inf, math.inf]
    for oi, dx, dz in zip(outer, primal, dual):
        stacked = np.concatenate([dx * oi, dz * oi])
        if not np.isfinite(stacked).all():
            return None
        least = np.linalg.eigvalsh(stacked)[:, 0]
        K = oi.shape[0]
        smallest[0] = min(smallest[0], float(least[:K].min()))
        smallest[1] = min(smallest[1], float(least[K:].min()))
    return tuple(math.inf if s >= 0.0 else -1.0 / s for s in smallest)


def reference_corrector_target(comp, T, d, dx_aff, dz_aff, sigma, mu):
    """T J T' per size group, with the pure centering step in every block
    whose T J T' overflows."""
    target = np.empty(comp.dim)
    for (n, _, _), ti, di, dx, dzs, dst in zip(
        comp.groups, T, d, dx_aff, dz_aff, comp.stacks(target)
    ):
        diag = np.arange(n)
        rhs = -reference_symmetrize(dx @ dzs)
        rhs[:, diag, diag] += sigma * mu - di * di
        J = 2.0 * rhs / (di[:, :, None] + di[:, None, :])
        corrected = ti @ J @ ti.mT
        bad = ~np.isfinite(corrected).all(axis=(1, 2))
        if bad.any():
            J[bad] = (sigma * mu / di[bad] - di[bad])[:, :, None] * np.eye(n)
            corrected[bad] = ti[bad] @ J[bad] @ ti[bad].mT
        dst[...] = reference_symmetrize(corrected)
    return target


def reference_scaling(comp, X, Z):
    """The per-group reference NT scaling of a flat pair, as lists per part
    (G, T, T^{-1}, d, lambda, outer)."""
    Lx, Lz = reference_cholesky(comp, X, Z)
    parts = [reference_nt_scaling(lx, lz, np.eye(lx.shape[1])) for lx, lz in zip(Lx, Lz)]
    return [list(part) for part in zip(*parts)]


def flat_scaling(comp, X, Z):
    """The flat NT scaling of a flat pair, (G, T, T^{-1}, d, lambda, outer),
    and the stacks of G, T and T^{-1} per size group."""
    parts = solver_module._nt_scaling(comp, solver_module._cholesky(comp, np.stack([X, Z])))
    return parts, [comp.stacks(part) for part in parts[:3]]


def reference_nt_inverse(x, z):
    """W^{-1} = X^{-1/2} (X^{1/2} Z X^{1/2})^{1/2} X^{-1/2} of one PD pair."""
    ex, px = np.linalg.eigh(x)
    sqrt_x = (px * np.sqrt(ex)) @ px.T
    isqrt_x = (px / np.sqrt(ex)) @ px.T
    es, ps = np.linalg.eigh(sqrt_x @ z @ sqrt_x)
    return isqrt_x @ (ps * np.sqrt(es)) @ ps.T @ isqrt_x


def assembled_kkt(comp, data):
    """Dense KKT matrix from its stored data, in the original unknown order:
    the clique blocks P_c, B_c and S of the ``_CliqueLayout`` (B_c'
    mirrored)."""
    dim = comp.z_dim
    layout = comp.kkt_layout
    s = layout.shared
    stored = np.zeros((dim, dim))
    start = 0
    for p, count, p_offset, b_offset in layout.groups:
        P = data[p_offset:b_offset].reshape(count, p, p)
        B = data[b_offset : b_offset + count * p * s].reshape(count, p, s)
        for c in range(count):
            span = slice(start, start + p)
            stored[span, span] = P[c]
            stored[span, dim - s :] = B[c]
            stored[dim - s :, span] = B[c].T
            start += p
    assert start == dim - s
    stored[dim - s :, dim - s :] = data[layout.shared_offset : layout.size].reshape(s, s)
    out = np.empty_like(stored)
    out[np.ix_(layout.order, layout.order)] = stored
    return out


def last_newton_systems(monkeypatch, sdp):
    """The result of ``solve(sdp)``, and the compiled problem, the KKT data
    and the right-hand sides of the Newton systems of its last iteration
    (predictor, corrector and dual correction): a late iterate, where
    H + dI is far worse conditioned than at a random scaling."""
    systems = []
    real_init = solver_module._Kkt.__init__
    real_solve = solver_module._Kkt.solve

    def recording_init(kkt, comp, data):
        real_init(kkt, comp, data)
        systems.append((comp, data, []))

    def recording_solve(kkt, rhs):
        systems[-1][2].append(rhs.copy())
        return real_solve(kkt, rhs)

    with monkeypatch.context() as patch:
        patch.setattr(solver_module._Kkt, "__init__", recording_init)
        patch.setattr(solver_module._Kkt, "solve", recording_solve)
        result = solve(sdp)
    return (result, *systems[-1])


def as_scipy(matrix):
    """A ``solver._Csr`` as the ``scipy.sparse.csr_matrix`` of its arrays."""
    return scipy.sparse.csr_matrix(
        (matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape
    )


def operator_schur(comp, G):
    """H[:, j] = A' vec(G A_j G), with A_j the j-th column of the operator."""
    columns = as_scipy(comp.A).toarray()
    return np.column_stack(
        [
            comp.At @ solver_module._congruence(comp, G, columns[:, j], G)
            for j in range(comp.z_dim)
        ]
    )


def substituted_blocks(sdp, comp, z):
    """Every PSD block assembled at the moments y = fixed + free z and
    divided by the Frobenius norm of its substituted map,
    sqrt(|C|^2 + sum_l |A_l|^2) with C the block at z = 0 and A_l the change
    along the l-th free moment; computed from ``PsdBlock.assemble`` alone."""
    out = []
    for block in sdp.psd_blocks:
        if not block.size:
            continue
        constant = block.assemble(comp.moments(np.zeros(comp.z_dim)))
        coefficients = [
            block.assemble(comp.moments(e)) - constant for e in np.eye(comp.z_dim)
        ]
        norm = math.sqrt(np.sum(constant**2) + sum(np.sum(a**2) for a in coefficients))
        out.append(block.assemble(comp.moments(z)) / norm)
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


def reference_block_pattern(block, elim):
    """One block compiled on its own, entry by entry: its constant (n, n),
    touched free moments (m,) and coefficient pattern (sorted flat positions
    l n^2 + i n + j of the (m, n, n) coefficient tensor, and their values),
    substituted at y = fixed + free z and normalized to unit Frobenius
    norm."""
    n = block.size
    constant = np.zeros((n, n))
    ij, moments, coeffs = [], [], []
    for e, (i, j) in enumerate(zip(block.rows.tolist(), block.cols.tolist())):
        if block.constants[e] != 0.0:
            constant[i, j] = constant[j, i] = block.constants[e]
        span = slice(block.indptr[e], block.indptr[e + 1])
        for idx, coeff in zip(block.indices[span], block.coefficients[span]):
            for position in {i * n + j, j * n + i}:
                ij.append(position)
                moments.append(idx)
                coeffs.append(coeff)
    touched, local = np.unique(np.array(moments, dtype=np.int64), return_inverse=True)
    raw = scipy.sparse.csr_matrix(
        (np.array(coeffs), (np.array(ij, dtype=np.int64), local)),
        shape=(n * n, touched.size),
    )
    constant += (raw @ elim.fixed[touched]).reshape(n, n)
    sub = (raw @ as_scipy(elim.free)[touched]).tocoo()
    indices, local = np.unique(sub.col, return_inverse=True)
    position = local.astype(np.int64) * (n * n) + sub.row
    order = np.argsort(position)
    position, value = position[order], sub.data[order]
    nonzero = value != 0.0
    norm = math.sqrt(float(np.sum(constant**2)) + float(np.sum(value[nonzero] ** 2)))
    norm = norm if norm > 0.0 else 1.0
    return constant / norm, indices.astype(np.int64), position[nonzero], value[nonzero] / norm


def reference_compile(sdp, comp):
    """The block operator, Schur groups and KKT storage of ``sdp`` assembled
    from per-block patterns, over the elimination of ``comp``."""
    elim = solver_module._Elimination(comp.fixed, comp.free, 0, 0.0)
    nonempty = [b for b in sdp.psd_blocks if b.size]
    ranked = sorted(
        zip(
            (reference_block_pattern(b, elim) for b in nonempty),
            solver_module._clique_labels(nonempty).tolist(),
        ),
        key=lambda pair: (pair[0][0].shape[0], pair[0][1].size),
    )
    blocks = [blk for blk, _ in ranked]
    cliques = np.array([clique for _, clique in ranked], dtype=np.int64)
    offsets = np.cumsum([0] + [blk[0].size for blk in blocks])
    rows, cols, vals = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
    for (constant, indices, position, value), offset in zip(blocks, offsets):
        local, ij = np.divmod(position, constant.size)
        rows.append(offset + ij)
        cols.append(indices[local])
        vals.append(value)
    out = {
        "constant": np.concatenate([blk[0].ravel() for blk in blocks] + [np.zeros(0)]),
        "block_scale": 1.0 + np.array([np.linalg.norm(blk[0]) for blk in blocks]),
        "A": scipy.sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(int(offsets[-1]), comp.z_dim),
        ),
    }
    groups, shapes = [], []
    first, start = 0, comp.z_dim
    for n, same_size in itertools.groupby(blocks, key=lambda blk: blk[0].shape[0]):
        same_size = list(same_size)
        lo = 0
        for m, same_shape in itertools.groupby(same_size, key=lambda blk: blk[1].size):
            same_shape = list(same_shape)
            K = len(same_shape)
            if m:
                k = np.repeat(np.arange(K), [blk[2].size for blk in same_shape])
                l, ij = np.divmod(np.concatenate([blk[2] for blk in same_shape]), n * n)
                value = np.concatenate([blk[3] for blk in same_shape])
                indices = np.stack([blk[1] for blk in same_shape])
                labels = cliques[first + lo : first + lo + K]
                shapes.append(
                    solver_module._SchurGroup.build(
                        len(groups), lo, start, n, indices, labels, k, l, ij, value
                    )
                )
                start += K * m * m
            lo += K
        groups.append((n, first, first + lo))
        first += lo
    out["groups"], out["shapes"] = groups, shapes
    out["kkt_layout"], out["kkt_scatter"] = solver_module._CliqueLayout.build(
        comp.z_dim, shapes, start
    )
    return out


def assert_same_bits(actual, expected):
    """Equal dtype, shape and bytes (CSR matrices, scipy's or the solver's
    ``_Csr``: shape, indptr, indices and data; clique layouts: every field)."""
    if scipy.sparse.issparse(expected) or isinstance(expected, solver_module._Csr):
        assert isinstance(actual, solver_module._Csr)
        assert actual.shape == expected.shape
        for name in ("indptr", "indices", "data"):
            assert_same_bits(getattr(actual, name), getattr(expected, name))
        return
    if isinstance(expected, solver_module._CliqueLayout):
        for name in ("order", "groups", "shared", "shared_offset", "size"):
            assert_same_bits(getattr(actual, name), getattr(expected, name))
        return
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


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
    return build_telescoping(problem)


@pytest.fixture(scope="module")
def max_dense(max_lift):
    return build_dense(max_lift, 2)


class TestOptionsAndResults:
    def test_result_carries_y_exactly_when_solved(self):
        with pytest.raises(ValueError, match="solved"):
            SolverResult(SolveStatus.OPTIMAL, None, 0.0, 1, 0.0)
        with pytest.raises(ValueError, match="solved"):
            SolverResult(SolveStatus.NUMERICAL_FAILURE, np.zeros(2), math.nan, 1, 0.0)


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
        assert verify_vector(weber_sparse, res.y, 1e-6).within_tolerance

    def test_hierarchy_is_monotone(self, weber_lift, weber_sparse):
        low = solve(weber_sparse)
        high = solve(build_sparse(weber_lift, 3))
        assert low.status.solved() and high.status.solved()
        assert low.objective <= high.objective + 1e-6

    def test_weber_reaches_the_optimal_tolerances(self, weber_sparse):
        # The corrector's dual direction is projected back onto A'dZ = r_d,
        # so the dual residual does not drift as the Schur complement grows.
        res = solve(weber_sparse)
        assert res.status is SolveStatus.OPTIMAL
        assert res.diagnostics["dual_residual"] <= solver_module._ABS_TOL

    def test_best_iterate_passes_the_gates_before_it_minimizes_merit(self):
        # Planar 1-center of seven anchors on a disk at order 2 (a nonlinear
        # ground set, so the lift keeps the distance equalities): its
        # iterate of least merit misses the near-optimal gates, and an
        # earlier one passes them.
        universe = VariableUniverse(["x1", "x2"])
        disk = SemialgebraicSet(universe, [parse("4 - x1^2 - x2^2", universe)], [])
        points = np.random.default_rng(2).random((7, 2)).tolist()
        instance = LocationInstance(
            points=tuple(map(tuple, points)), variant="center", ground_set=disk
        )
        res = solve(build_sparse(build_lifted(instance), 2))
        relgap, pres, dres = res.trace[:, :3].T
        merit = np.maximum.reduce([relgap, pres, dres])
        near = (
            (relgap <= solver_module._NEAR_GAP)
            & (pres <= solver_module._NEAR_RES)
            & (dres <= solver_module._NEAR_RES)
        )
        assert not near[np.argmin(merit)]
        assert res.status is SolveStatus.NEAR_OPTIMAL
        best = 1 + np.flatnonzero(near)[np.argmin(merit[near])]
        assert res.diagnostics["best_iteration"] == best

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
            "compile",
            "residuals",
            "scaling",
            "schur",
            "kkt_factor",
            "kkt_solve",
            "step_search",
        }
        assert all(seconds >= 0.0 for seconds in phases.values())
        assert phases["compile"] > 0.0
        assert sum(phases.values()) <= res.wall_time

    def test_trace_has_one_finite_row_per_iteration(self, weber_sparse):
        res = solve(weber_sparse)
        trace = res.trace
        assert trace.shape == (res.iterations, len(solver_module.TRACE_COLUMNS))
        assert np.all(np.isfinite(trace))
        relgap, pres, dres, mu, sigma, alpha_p, alpha_d = trace.T
        best = res.diagnostics["best_iteration"] - 1
        assert (relgap[best], pres[best], dres[best]) == (
            res.diagnostics["relative_gap"],
            res.diagnostics["primal_residual"],
            res.diagnostics["dual_residual"],
        )
        assert np.all(mu > 0.0)
        # every iteration but the last takes a step; the last stops before it
        stepped = slice(0, -1)
        assert np.all((sigma[stepped] >= 1e-8) & (sigma[stepped] <= 0.999))
        assert np.all((alpha_p[stepped] > 0.0) & (alpha_p[stepped] <= 1.0))
        assert np.all((alpha_d[stepped] > 0.0) & (alpha_d[stepped] <= 1.0))
        assert sigma[-1] == alpha_p[-1] == alpha_d[-1] == 0.0

    def test_schur_diagnostics(self, weber_sparse, omrf_order3_sparse):
        stats = solve(weber_sparse).diagnostics["schur"]
        assert set(stats) == {
            "coefficients",
            "terms",
            "f2_shapes",
            "compact_shapes",
            "t_rows",
            "dense_t_rows",
        }
        # Count the nonzero coefficients of every block over the free
        # moments, the free moments each block touches and the rows of its
        # T, from the blocks assembled along each free moment.
        comp = solver_module._Compiled(weber_sparse)
        coefficients = terms = rows = 0
        for block in weber_sparse.psd_blocks:
            base = block.assemble(comp.moments(np.zeros(comp.z_dim)))
            changes = [
                block.assemble(comp.moments(e)) - base
                for e in np.eye(comp.z_dim)
            ]
            nonzero = [np.abs(a) > 1e-12 * (1.0 + np.abs(base)) for a in changes]
            coefficients += sum(int(np.sum(mask)) for mask in nonzero)
            touched = sum(bool(mask.any()) for mask in nonzero)
            terms += touched**2
            rows += block.size * touched
        assert stats["coefficients"] == coefficients > 0
        assert stats["terms"] == terms
        # Its blocks are small: every shape takes F2, which forms all of T.
        assert (stats["f2_shapes"], stats["compact_shapes"]) == (len(comp.shapes), 0)
        assert stats["t_rows"] == stats["dense_t_rows"] == rows

        wide = solver_module._Compiled(omrf_order3_sparse)
        stats = wide.schur_stats
        compact = [shape for shape in wide.shapes if shape.buckets]
        assert stats["compact_shapes"] == len(compact) == 1
        assert stats["f2_shapes"] == len(wide.shapes) - 1
        dense = [
            wide.groups[shape.group][0] * shape.indices.size for shape in wide.shapes
        ]
        formed = [
            nonzero_t_rows(wide, shape) if shape.buckets else all_rows
            for shape, all_rows in zip(wide.shapes, dense)
        ]
        assert stats["dense_t_rows"] == sum(dense)
        assert stats["t_rows"] == sum(formed) < sum(dense)

    def test_non_finite_kkt_solution_reports_failure(self, monkeypatch, weber_sparse):
        real_solve = solver_module._CliqueFactor.solve
        calls = []

        def breaking_solve(self, rhs):
            calls.append(1)
            if len(calls) > 30:
                return np.full_like(rhs, np.nan)
            return real_solve(self, rhs)

        monkeypatch.setattr(solver_module._CliqueFactor, "solve", breaking_solve)
        res = solve(weber_sparse)
        assert len(calls) > 30
        assert res.status is SolveStatus.NUMERICAL_FAILURE
        assert res.y is None
        assert "non-finite" in res.diagnostics["note"]

    @pytest.mark.parametrize(
        "part, note",
        [
            (0, "non-finite Schur complement"),
            (1, "non-finite corrector direction"),
            (2, "non-finite predictor direction"),
        ],
        ids=["G", "T", "T_inv"],
    )
    def test_overflow_reports_failure_without_warnings(
        self, monkeypatch, weber_sparse, part, note
    ):
        # Blowing up the NT scaling G overflows the Schur terms, T^{-1} the
        # scaled directions and their step lengths, and T, which only the
        # corrector uses, its X-space target T J T' and so its direction:
        # the solver checks each.  The scaling blows up from the fourth
        # iteration on.
        real_nt_scaling = solver_module._nt_scaling
        calls = []

        def blown_up(comp, factors):
            calls.append(1)
            parts = list(real_nt_scaling(comp, factors))
            if len(calls) > 3:
                parts[part] = parts[part] * 1e200
            return tuple(parts)

        monkeypatch.setattr(solver_module, "_nt_scaling", blown_up)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(weber_sparse)
        assert len(calls) > 3
        assert res.status is SolveStatus.NUMERICAL_FAILURE
        assert res.y is None
        assert res.diagnostics["note"] == note

    @pytest.mark.parametrize("failure", ["svd", "nan"])
    def test_non_finite_nt_scaling_reports_failure(self, monkeypatch, weber_sparse, failure):
        # An SVD that does not converge leaves NaN in its outputs, and a
        # scaling that comes out non-finite another way is caught by the
        # same check.  weber_sparse has two size groups, so the seventh SVD
        # is the first of the fourth iteration, and in that iteration the
        # first group's d turns NaN in the other case.
        calls = []
        if failure == "svd":
            real = solver_module._umath_linalg

            def unconverged_svd(a, out):
                calls.append(1)
                parts = real.svd_f(a, out=out)
                if len(calls) > 6:
                    for part in parts:
                        part[...] = np.nan
                return parts

            monkeypatch.setattr(
                solver_module,
                "_umath_linalg",
                types.SimpleNamespace(
                    svd_f=unconverged_svd,
                    eigvalsh_lo=real.eigvalsh_lo,
                    cholesky_lo=real.cholesky_lo,
                ),
            )
        else:
            real_nt_scaling = solver_module._nt_scaling

            def broken(comp, factors):
                calls.append(1)
                parts = real_nt_scaling(comp, factors)
                if len(calls) <= 3:
                    return parts
                d = parts[3].copy()
                comp.rows(d)[0][...] = np.nan
                return (*parts[:3], d, *parts[4:])

            monkeypatch.setattr(solver_module, "_nt_scaling", broken)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(weber_sparse)
        assert len(calls) > (6 if failure == "svd" else 3)
        assert res.status is SolveStatus.NUMERICAL_FAILURE
        assert res.y is None
        assert res.diagnostics["note"] == "non-finite NT scaling"

    def test_iteration_cap_reports_failure(self, max_dense, monkeypatch):
        monkeypatch.setattr(solver_module, "_MAX_ITERS", 1)
        res = solve(max_dense)
        assert res.status is SolveStatus.NUMERICAL_FAILURE
        assert res.y is None
        assert math.isnan(res.objective)
        last = res.diagnostics["last_y"]
        assert last.shape == (max_dense.y_dim,)

    def test_infeasible_not_solved(self):
        res = solve(infeasible_sdp())
        assert res.status is SolveStatus.INFEASIBLE
        assert res.diagnostics["note"] == "dual objective diverging"
        assert res.iterations == 6
        assert res.y is None

    def test_unbounded_not_solved(self):
        res = solve(unbounded_sdp())
        assert res.status is SolveStatus.UNBOUNDED
        assert res.diagnostics["note"] == "primal objective diverging"
        assert res.iterations == 12
        assert res.y is None


# Python frames of the package per interior-point iteration of the
# ``rational_omrf_sparse`` solve (14 iterations over blocks of sizes 1, 3
# and 6), not counting comprehensions, which Python 3.12 runs without a
# frame of their own.  The flat layout makes 111.6; running every
# elementwise step once per size group makes 123.8.
_FRAME_BUDGET = 112


def package_frames(call):
    """The number of Python frames whose code lies in the package that
    ``call()`` enters, without comprehension frames, and its result."""
    package = os.path.dirname(solver_module.__file__)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        code = frame.f_code
        if (
            event == "call"
            and code.co_filename.startswith(package)
            and code.co_name not in ("<listcomp>", "<dictcomp>", "<setcomp>")
        ):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(previous)
    return count, result


class TestCallBudget:
    """An iteration's calls stay within budget: a per-block or per-group
    Python step brought back into the loop shows in the frame count, which
    does not depend on the host's speed as a timing does."""

    def test_frames_per_iteration(self, rational_omrf_sparse):
        solved, result = package_frames(lambda: solve(rational_omrf_sparse))
        compiled, _ = package_frames(lambda: solver_module._Compiled(rational_omrf_sparse))
        assert result.status is SolveStatus.OPTIMAL
        assert (solved - compiled) / result.iterations <= _FRAME_BUDGET


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
        # the Frobenius norm of its substituted map; the row y2 = 0.5 fixes
        # one moment.
        assert_compiled_blocks_match(mixed_layout_sdp(), 0, 1e-14)

    def test_nt_scaling_identities(self):
        comp = solver_module._Compiled(mixed_layout_sdp())
        rng = np.random.default_rng(1)
        X = random_block_vector(comp, rng, definite=True)
        Z = random_block_vector(comp, rng, definite=True)
        (_, _, _, d, lam, outer), stacks = flat_scaling(comp, X, Z)
        for x, z, G, T, T_inv, di, lm, oi in zip(
            comp.stacks(X),
            comp.stacks(Z),
            *stacks,
            comp.rows(d),
            comp.stacks(lam),
            comp.stacks(outer),
        ):
            W = T @ np.swapaxes(T, 1, 2)
            # lambda = diag(d) and d^{-1/2} d^{-1/2}', exactly
            root = 1.0 / np.sqrt(di)
            np.testing.assert_array_equal(lm, np.stack([np.diag(v) for v in di]))
            np.testing.assert_array_equal(oi, np.einsum("ki,kj->kij", root, root))
            tol = dict(rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(W @ z @ W, x, **tol)
            identity = np.broadcast_to(np.eye(di.shape[1]), T.shape)
            np.testing.assert_allclose(T @ T_inv, identity, **tol)
            np.testing.assert_allclose(T_inv @ x @ np.swapaxes(T_inv, 1, 2), lm, **tol)
            np.testing.assert_allclose(np.swapaxes(T, 1, 2) @ z @ T, lm, **tol)
            np.testing.assert_allclose(G @ x @ G, z, **tol)
            reference = np.stack([reference_nt_inverse(a, b) for a, b in zip(x, z)])
            np.testing.assert_allclose(G, reference, **tol)

    def test_step_length_matches_generalized_eigenproblem(self):
        comp = solver_module._Compiled(mixed_layout_sdp())
        rng = np.random.default_rng(2)
        X = random_block_vector(comp, rng, definite=True)
        Z = random_block_vector(comp, rng, definite=True)
        dX = random_block_vector(comp, rng, definite=False)
        dZ = random_block_vector(comp, rng, definite=False)

        def smallest(direction, current):
            return min(
                scipy.linalg.eigh(d, c, eigvals_only=True)[0]
                for ds, cs in zip(comp.stacks(direction), comp.stacks(current))
                for d, c in zip(ds, cs)
            )

        primal, dual = smallest(dX, X), smallest(dZ, Z)
        assert primal < 0.0 and dual < 0.0
        (*_, outer), (_, T, T_inv) = flat_scaling(comp, X, Z)
        scaled = np.stack(
            [
                solver_module._congruence(comp, T_inv, dX, [t.mT for t in T_inv]),
                solver_module._congruence(comp, [t.mT for t in T], dZ, T),
            ]
        )
        steps = solver_module._step_lengths(comp, outer, scaled)
        assert steps == pytest.approx((-1.0 / primal, -1.0 / dual), rel=1e-10)

    def test_scaled_dual_directions_match_the_x_space_direction(self):
        # dX + W dZ W = target scales to dX~ + dZ~ = T^{-1} target T^{-T}: the
        # predictor's target -X gives dZ~ = -lambda - dX~, and the
        # corrector's target T J T' gives dZ~ = J - dX~.
        comp = solver_module._Compiled(mixed_layout_sdp())
        rng = np.random.default_rng(3)
        X = random_block_vector(comp, rng, definite=True)
        Z = random_block_vector(comp, rng, definite=True)
        dX = random_block_vector(comp, rng, definite=False)
        J = random_block_vector(comp, rng, definite=False)
        (_, _, _, _, lam, _), (G, T, T_inv) = flat_scaling(comp, X, Z)
        T_t = [np.swapaxes(t, 1, 2) for t in T]
        dx = solver_module._congruence(comp, T_inv, dX, [t.mT for t in T_inv])
        corrector_target = np.empty(comp.dim)
        for t, j, dst in zip(T, comp.stacks(J), comp.stacks(corrector_target)):
            dst[...] = t @ j @ np.swapaxes(t, 1, 2)
        tol = dict(rtol=1e-10, atol=1e-10)
        for target, expected in [(-X, -lam - dx), (corrector_target, J - dx)]:
            dZ = solver_module._congruence(comp, G, target - dX, G)
            np.testing.assert_allclose(
                solver_module._congruence(comp, T_t, dZ, T), expected, **tol
            )

    @pytest.mark.parametrize(
        "problem",
        [
            "weber_sparse",
            "mixed_layout",
            "rational_omrf_sparse",
            "rational_general_sparse",
            "weber50_sparse",
        ],
    )
    def test_schur_complement_matches_operator_form(self, request, problem):
        comp = solver_module._Compiled(request.getfixturevalue(problem))
        G = random_scaling(comp, 3)
        reference = operator_schur(comp, G)
        solver_module._schur_terms(comp, G)
        schur = assembled_kkt(comp, comp.kkt_data(0.0))
        # The KKT matrix is the Schur complement alone: no equality rows.
        assert schur.shape == reference.shape == (comp.z_dim, comp.z_dim)
        scale = np.max(np.abs(reference))
        np.testing.assert_allclose(schur, reference, rtol=0, atol=1e-12 * scale)
        np.testing.assert_array_equal(schur, schur.T)


def assert_stacks_equal(actual, expected):
    """Equal bits, stack by stack."""
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert_same_bits(got, want)


class TestFlatLayout:
    """The flat kernels of one iteration, each a call per size group only
    where a batched product or a LAPACK routine needs the stack, against
    the per-group reference kernels (``reference_*``), bit for bit."""

    @pytest.fixture(params=["mixed_layout", "rational_omrf_sparse"])
    def comp(self, request):
        comp = solver_module._Compiled(request.getfixturevalue(request.param))
        # Three size groups or more, one of them of 1x1 blocks.
        assert len(comp.groups) >= 3 and comp.groups[0][0] == 1
        return comp

    def test_index_maps(self, comp):
        mirror, row_of, col_of, diagonal, scale = [], [], [], [], []
        for k, start in enumerate(comp.block_starts.tolist()):
            n = next(n for n, lo, hi in comp.groups if lo <= k < hi)
            first = int(comp.first_rows[k])
            for i in range(n):
                diagonal.append(start + i * n + i)
                scale.append(comp.block_scale[k])
                for j in range(n):
                    mirror.append(start + j * n + i)
                    row_of.append(first + i)
                    col_of.append(first + j)
        assert comp.first_rows[-1] + comp.groups[-1][0] == comp.cone_dim
        assert comp.mirror.tolist() == mirror
        assert comp.row_of.tolist() == row_of and comp.col_of.tolist() == col_of
        assert comp.diagonal.tolist() == diagonal
        identity = np.zeros(comp.dim)
        for (n, lo, hi), dst in zip(comp.groups, comp.stacks(identity)):
            dst[...] = np.eye(n) * comp.block_scale[lo:hi, None, None]
        assert_same_bits(comp.identity_point(), identity)

    def test_group_sums_are_the_stack_sums(self, comp):
        flat = random_block_vector(comp, np.random.default_rng(4), definite=False)
        expected = [float(stack.sum()) for stack in comp.stacks(flat)]
        assert comp.group_sums(flat).tolist() == expected

    def test_kernels_equal_the_per_group_reference(self, comp):
        rng = np.random.default_rng(5)
        X, Z, dX, dZ, M = (
            random_block_vector(comp, rng, definite=definite)
            for definite in (True, True, False, False, False)
        )
        factors = solver_module._cholesky(comp, np.stack([X, Z]))
        Lx, Lz = reference_cholesky(comp, X, Z)
        assert_stacks_equal([f[0] for f in comp.stacks(factors)], Lx)
        assert_stacks_equal([f[1] for f in comp.stacks(factors)], Lz)

        parts = solver_module._nt_scaling(comp, factors)
        G, T, T_inv, d, lam, outer = reference_scaling(comp, X, Z)
        for flat, expected in zip(parts[:3] + parts[4:], [G, T, T_inv, lam, outer]):
            assert_stacks_equal(comp.stacks(flat), expected)
        assert_stacks_equal(comp.rows(parts[3]), d)

        G_s, T_s, T_inv_s = (comp.stacks(part) for part in parts[:3])
        T_t = [t.mT for t in T_s]
        assert_same_bits(
            solver_module._congruence(comp, G_s, M, G_s), reference_congruence(comp, G, M)
        )
        dx = solver_module._congruence(comp, T_inv_s, dX, [t.mT for t in T_inv_s])
        assert_stacks_equal(comp.stacks(dx), reference_scaled(comp, T_inv, dX))
        dzs = solver_module._congruence(comp, T_t, dZ, T_s)
        expected_dzs = [reference_symmetrize(t.mT @ m @ t) for t, m in zip(T, comp.stacks(dZ))]
        assert_stacks_equal(comp.stacks(dzs), expected_dzs)

        scaled = np.stack([dx, dzs])
        steps = solver_module._step_lengths(comp, parts[5], scaled)
        assert steps == reference_step_lengths(outer, comp.stacks(dx), expected_dzs)
        sigma, mu = 0.3, 0.7
        assert_same_bits(
            solver_module._corrector_target(comp, T_s, parts[3], scaled, sigma, mu),
            reference_corrector_target(comp, T, d, comp.stacks(dx), expected_dzs, sigma, mu),
        )

    def test_non_finite_scaled_direction_has_no_step_length(self, comp):
        rng = np.random.default_rng(6)
        scaled = np.stack([random_block_vector(comp, rng, definite=False) for _ in range(2)])
        scaled[1, -1] = np.inf
        assert solver_module._step_lengths(comp, np.ones(comp.dim), scaled) is None

    def test_unconverged_eigenvalues_have_no_step_length(self, comp, monkeypatch):
        # eigvalsh_lo leaves NaN in a block it does not converge on.
        real = solver_module._umath_linalg

        def unconverged(blocks, out):
            real.eigvalsh_lo(blocks, out=out)
            out[-1, -1, 0] = np.nan

        monkeypatch.setattr(
            solver_module,
            "_umath_linalg",
            types.SimpleNamespace(
                svd_f=real.svd_f, eigvalsh_lo=unconverged, cholesky_lo=real.cholesky_lo
            ),
        )
        rng = np.random.default_rng(9)
        scaled = np.stack([random_block_vector(comp, rng, definite=False) for _ in range(2)])
        assert solver_module._step_lengths(comp, np.ones(comp.dim), scaled) is None

    def test_not_positive_definite_pair_has_no_factors(self, comp):
        rng = np.random.default_rng(7)
        X = random_block_vector(comp, rng, definite=True)
        Z = random_block_vector(comp, rng, definite=True)
        Z[comp.diagonal[-1]] = -1.0
        # The interior-point loop's errstate, under which the factor of
        # that block is NaN and raises no warning.
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.simplefilter("error")
            assert solver_module._cholesky(comp, np.stack([X, Z])) is None
        assert reference_cholesky(comp, X, Z) is None

    def test_corrector_falls_back_to_centering_in_an_overflowing_block(self, comp):
        # The last block's predictor directions are so large that dx~ dz~,
        # and with it T J T', overflows there: its target is the pure
        # centering step T (sigma*mu*lambda^{-1} - lambda) T', and every
        # other block keeps its Jordan-product target.
        rng = np.random.default_rng(8)
        X = random_block_vector(comp, rng, definite=True)
        Z = random_block_vector(comp, rng, definite=True)
        scaled = np.stack([random_block_vector(comp, rng, definite=False) for _ in range(2)])
        last = slice(int(comp.block_starts[-1]), comp.dim)
        scaled[:, last] *= 1e200
        parts, (_, T_s, _) = flat_scaling(comp, X, Z)
        _, T, _, d, _, _ = reference_scaling(comp, X, Z)
        sigma, mu = 0.2, 0.9
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            target = solver_module._corrector_target(comp, T_s, parts[3], scaled, sigma, mu)
            expected = reference_corrector_target(
                comp, T, d, comp.stacks(scaled[0]), comp.stacks(scaled[1]), sigma, mu
            )
        assert_same_bits(target, expected)
        assert np.isfinite(target).all()
        t = T[-1][-1]
        di = d[-1][-1]
        centering = t @ np.diag(sigma * mu / di - di) @ t.T
        np.testing.assert_allclose(
            target[last].reshape(t.shape), 0.5 * (centering + centering.T), rtol=1e-12, atol=0
        )
        # Without the overflow the same block takes the Jordan-product step.
        scaled[:, last] /= 1e200
        calm = solver_module._corrector_target(comp, T_s, parts[3], scaled, sigma, mu)
        assert not np.allclose(calm[last], target[last])


def nonzero_t_rows(comp, shape):
    """The number of nonzero rows (A_l G)[i, :] of a shape's blocks: the
    distinct (block, free moment, row i) of the nonzeros of the operator A."""
    n, first, _ = comp.groups[shape.group]
    count = 0
    for q in range(first + shape.lo, first + shape.hi):
        rows = as_scipy(comp.A)[comp.block_starts[q] : comp.block_starts[q] + n * n].tocoo()
        count += np.unique(np.stack([rows.col, rows.row // n]), axis=1).shape[1]
    return count


def forced_formula(monkeypatch, compact):
    """Make every Schur shape compiled from now on take the compact formula
    (``compact``) or F2."""
    monkeypatch.setattr(solver_module, "_COMPACT_MIN_SIZE", 0 if compact else math.inf)
    monkeypatch.setattr(solver_module, "_COMPACT_SUPPORT_SHARE", 0)


class TestCompactSchur:
    """The compact Schur formula, which forms only the nonzero rows of
    T = A_l G, against F2 and the operator form."""

    def test_wide_sparse_shapes_take_the_compact_formula(self, omrf_order3_sparse):
        comp = solver_module._Compiled(omrf_order3_sparse)
        sizes = {}
        for shape in comp.shapes:
            K, m = shape.indices.shape
            n = comp.groups[shape.group][0]
            rows = nonzero_t_rows(comp, shape)
            compact = n >= 32 and 4 * rows <= K * m * n
            assert bool(shape.buckets) == compact
            assert shape.left.shape == ((rows if compact else K * n * m), K * n)
            sizes[n] = compact
        assert sizes == {1: False, 15: False, 35: True}

    @pytest.mark.parametrize("compact", [True, False], ids=["compact", "F2"])
    @pytest.mark.parametrize("problem", ["omrf_order3_sparse", "weber50_sparse"])
    def test_both_formulas_match_operator_form(
        self, monkeypatch, request, problem, compact
    ):
        sdp = request.getfixturevalue(problem)
        forced_formula(monkeypatch, compact)
        comp = solver_module._Compiled(sdp)
        assert all(bool(shape.buckets) == compact for shape in comp.shapes)
        G = random_scaling(comp, 3)
        solver_module._schur_terms(comp, G)
        schur = assembled_kkt(comp, comp.kkt_data(0.0))
        reference = operator_schur(comp, G)
        np.testing.assert_allclose(
            schur, reference, rtol=0, atol=1e-12 * np.max(np.abs(reference))
        )

    def test_compact_shapes_never_form_the_dense_t(
        self, monkeypatch, omrf_order3_sparse
    ):
        # tracemalloc sees NumPy's allocations: the peak of one compact call
        # stays below the bytes of the dense (K n m, n) T, which F2 allocates.
        def peak(comp, shape):
            G = random_scaling(comp, 3)
            one = types.SimpleNamespace(
                shapes=[shape],
                kkt_values=comp.kkt_values,
                schur_workspace=comp.schur_workspace,
            )
            tracemalloc.start()
            try:
                solver_module._schur_terms(one, G)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        comp = solver_module._Compiled(omrf_order3_sparse)
        compact = [shape for shape in comp.shapes if shape.buckets]
        assert compact
        for shape in compact:
            K, m = shape.indices.shape
            n = comp.groups[shape.group][0]
            assert peak(comp, shape) < K * n * m * n * 8
        forced_formula(monkeypatch, compact=False)
        dense = solver_module._Compiled(omrf_order3_sparse)
        (shape,) = [s for s in dense.shapes if dense.groups[s.group][0] == 35]
        K, m = shape.indices.shape
        assert peak(dense, shape) >= K * 35 * m * 35 * 8


def random_entries(rng, shape, count):
    """``count`` distinct positions of ``shape`` in random order, rows 0 and
    2 left empty, with random values (exact zeros among them)."""
    rows = rng.choice(np.setdiff1d(np.arange(shape[0]), [0, 2]), count)
    cols = rng.integers(0, shape[1], count)
    keys = np.unique(rows * shape[1] + cols)
    keys = keys[rng.permutation(keys.size)]
    values = rng.standard_normal(keys.size)
    values[::7] = 0.0
    return keys // shape[1], keys % shape[1], values


class TestCsr:
    """The solver's sparse maps: scipy's CSR arrays and products, bit for
    bit, without scipy's Python layers."""

    def test_arrays_equal_scipy(self):
        rng = np.random.default_rng(0)
        rows, cols, values = random_entries(rng, (9, 7), 30)
        ours = solver_module._Csr.from_entries(rows, cols, values, (9, 7))
        theirs = scipy.sparse.csr_matrix((values, (rows, cols)), shape=(9, 7))
        assert_same_bits(ours, theirs)
        assert ours.nnz == theirs.nnz
        assert_same_bits(ours.transpose(), theirs.T.tocsr())
        empty = solver_module._Csr.from_entries([], [], [], (3, 4))
        assert_same_bits(empty, scipy.sparse.csr_matrix((3, 4)))

    def test_repeated_positions_are_summed(self):
        ours = solver_module._Csr.from_entries(
            [1, 0, 1, 1], [2, 1, 0, 2], [0.5, 1.0, 2.0, 0.25], (2, 3)
        )
        assert ours.indptr.tolist() == [0, 1, 3]
        assert ours.indices.tolist() == [1, 0, 2]
        assert ours.data.tolist() == [1.0, 2.0, 0.75]

    def test_products_equal_scipy_bit_for_bit(self):
        rng = np.random.default_rng(1)
        shape = (40, 25)
        rows, cols, values = random_entries(rng, shape, 200)
        ours = solver_module._Csr.from_entries(rows, cols, values, shape)
        theirs = scipy.sparse.csr_matrix((values, (rows, cols)), shape=shape)
        wide = rng.standard_normal((25, 12))
        operands = [
            rng.standard_normal(25),
            rng.standard_normal((25, 1)),
            wide,
            wide[:, ::3],  # not contiguous
            rng.standard_normal(50)[::2],  # not contiguous
            np.zeros((25, 0)),
        ]
        for operand in operands:
            assert_same_bits(ours @ operand, theirs @ operand)
        with pytest.raises(ValueError):
            ours @ rng.standard_normal(24)
        with pytest.raises(ValueError):
            ours @ rng.standard_normal((25, 2, 2))


class TestBatchedCompile:
    """All blocks are substituted and compiled together; the result is the
    per-block compilation's, bit for bit."""

    @pytest.mark.parametrize(
        "problem",
        [
            "weber_sparse",
            "rational_general_sparse",
            "rational_omrf_sparse",
            "mixed_layout",
            "weber50_sparse",
        ],
    )
    def test_matches_the_per_block_reference(self, request, problem):
        sdp = request.getfixturevalue(problem)
        comp = solver_module._Compiled(sdp)
        reference = reference_compile(sdp, comp)
        for name in (
            "constant",
            "block_scale",
            "A",
            "kkt_scatter",
            "kkt_layout",
        ):
            assert_same_bits(getattr(comp, name), reference[name])
        assert comp.groups == reference["groups"]
        assert len(comp.shapes) == len(reference["shapes"])
        for shape, expected in zip(comp.shapes, reference["shapes"]):
            assert (shape.group, shape.lo, shape.hi, shape.start) == (
                expected.group,
                expected.lo,
                expected.hi,
                expected.start,
            )
            for name in ("indices", "cliques", "left", "pair_rows", "pair_cols", "right"):
                assert_same_bits(getattr(shape, name), getattr(expected, name))

    def test_the_iteration_makes_no_scipy_sparse_product(self, monkeypatch, weber_sparse):
        real_init = solver_module._Compiled.__init__

        def refuse(*args):
            raise AssertionError("scipy.sparse product inside the iteration")

        def compiled(comp, sdp):
            real_init(comp, sdp)
            monkeypatch.setattr(scipy.sparse._base._spbase, "__matmul__", refuse)

        monkeypatch.setattr(solver_module._Compiled, "__init__", compiled)
        result = solve(weber_sparse)
        assert result.status.solved() and result.iterations > 1

    @pytest.mark.parametrize("problem", ["weber_sparse", "weber50_sparse"])
    def test_builds_no_sparse_matrix_per_block(self, monkeypatch, request, problem):
        sdp = request.getfixturevalue(problem)
        built = []

        class CountingCsr(scipy.sparse.csr_matrix):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse, "csr_matrix", CountingCsr)
        comp = solver_module._Compiled(sdp)
        # The stacked raw blocks and the null-space basis they are
        # substituted with, and two inside scipy's product of the two:
        # every map the iteration applies is a ``_Csr``.
        assert len(built) <= 4
        if problem == "weber50_sparse":
            assert len(built) < len(sdp.psd_blocks) / 4


class TestSparseKkt:
    """The KKT system: stored in the blocks of a ``_CliqueLayout`` fixed at
    compile time and factored by block elimination, clique-private moments
    first and the shared ones last."""

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
        assert set(stats) == {"dim", "cliques", "private", "separator", "nnz"}
        free = solver_module._Compiled(weber50_sparse).z_dim
        assert stats["dim"] == free == result.diagnostics["equalities"]["free"] == 514
        # One clique per anchor, each with 10 private moments (its distance
        # equality fixes the other 10 that hold u_i^2); the 14 free moments
        # of the facility position alone are shared.
        assert stats["cliques"] == len(stats["private"]) == 50
        assert stats["private"] == [10] * 50 and stats["separator"] == 14
        s = stats["separator"]
        blocks = sum(p * p + 2 * p * s for p in stats["private"]) + s * s
        assert stats["nnz"] == blocks < stats["dim"] ** 2
        # Two anchors: two cliques of 10 private moments around the same 14
        # shared ones.
        small = solve(weber_sparse).diagnostics["kkt"]
        assert small["dim"] == 34
        assert (small["cliques"], small["private"], small["separator"]) == (2, [10, 10], 14)
        s = small["separator"]
        blocks = sum(p * p + 2 * p * s for p in small["private"]) + s * s
        assert small["nnz"] == blocks

    def test_solve_matches_dense_reference(self, weber50_sparse):
        comp = solver_module._Compiled(weber50_sparse)
        assert np.array_equal(np.sort(comp.kkt_layout.order), np.arange(comp.z_dim))
        G = random_scaling(comp, 4)
        delta = 1e-12
        solver_module._schur_terms(comp, G)
        data = comp.kkt_data(delta)
        matrix = assembled_kkt(comp, data)
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

    @pytest.mark.parametrize(
        "problem, cliques, separator",
        [
            ("weber50", 50, 14),
            ("weber", 2, 14),
            ("empty_variables", 1, 0),
            ("two_cliques", 2, 1),
        ],
    )
    def test_block_solve_matches_numpy(
        self, weber50_sparse, weber_sparse, problem, cliques, separator
    ):
        # H + dI assembled from the block operator alone, against the block
        # elimination's solve.
        sdp = {
            "weber50": weber50_sparse,
            "weber": weber_sparse,
            "empty_variables": clique_chain_sdp(labelled=False),
            "two_cliques": clique_chain_sdp(labelled=True),
        }[problem]
        comp = solver_module._Compiled(sdp)
        stats = comp.kkt_stats()
        assert (stats["cliques"], stats["separator"]) == (cliques, separator)
        G = random_scaling(comp, 6)
        delta = 1e-12
        solver_module._schur_terms(comp, G)
        kkt = solver_module._Kkt(comp, comp.kkt_data(delta))
        H = operator_schur(comp, G) + delta * np.eye(comp.z_dim)
        rhs = np.random.default_rng(8).standard_normal(comp.z_dim)
        expected = np.linalg.solve(H, rhs)
        np.testing.assert_allclose(
            kkt.solve(rhs), expected, rtol=0, atol=1e-12 * np.max(np.abs(expected))
        )

    @pytest.mark.parametrize(
        "problem, cliques, separator, passes",
        [("weber_dense", 1, 0, 1), ("weber_sparse", 2, 14, 2)],
    )
    def test_clique_solves_per_pass(
        self, monkeypatch, request, problem, cliques, separator, passes
    ):
        # With shared moments every clique is solved twice per pass, once to
        # eliminate it and once to substitute back; without them the
        # elimination pass would only be discarded, so it is skipped.  A
        # solve is one pass, also on the predictor's system of the last
        # iterate, which is ill-conditioned.
        sdp = request.getfixturevalue(problem)
        _, comp, data, (predictor, *_) = last_newton_systems(monkeypatch, sdp)
        stats = comp.kkt_stats()
        assert (stats["cliques"], stats["separator"]) == (cliques, separator)
        kkt = solver_module._Kkt(comp, data)
        real_solve = solver_module._CliqueFactor.solve
        calls = []

        def counting_solve(factor, vector):
            calls.append(factor)
            return real_solve(factor, vector)

        monkeypatch.setattr(solver_module._CliqueFactor, "solve", counting_solve)
        kkt.solve(predictor)
        assert len(calls) == passes * cliques + (separator > 0)

    def test_late_iterate_solve_is_backward_stable(self, monkeypatch):
        # The planar range instance over six anchors from default_rng(0) at
        # order 2 ends near_optimal; every Newton system of its last
        # iterate is solved to a normwise backward error of 1e-12 by one
        # elimination pass.
        anchors = tuple(map(tuple, np.random.default_rng(0).random((6, 2))))
        sdp = build_sparse(build_lifted(LocationInstance(points=anchors, variant="range")), 2)
        result, comp, data, rhs_list = last_newton_systems(monkeypatch, sdp)
        assert result.status is SolveStatus.NEAR_OPTIMAL
        assert len(rhs_list) == 3
        matrix = assembled_kkt(comp, data)
        norm = np.linalg.norm(matrix, 2)
        kkt = solver_module._Kkt(comp, data)
        for rhs in rhs_list:
            x = kkt.solve(rhs)
            residual = np.linalg.norm(matrix @ x - rhs)
            assert residual <= 1e-12 * (norm * np.linalg.norm(x) + np.linalg.norm(rhs))

    def test_clique_labels(self, weber50_sparse):
        # Every moment block is a clique of its own, and every block lies in
        # the clique it is labelled with; blocks without variables share one.
        blocks = [b for b in weber50_sparse.psd_blocks if b.size]
        labels = solver_module._clique_labels(blocks).tolist()
        cliques = {l: b.variables for b, l in zip(blocks, labels) if b.kind == "moment"}
        assert sorted(cliques) == list(range(50))
        assert all(set(b.variables) <= set(cliques[l]) for b, l in zip(blocks, labels))
        unlabelled = [dataclasses.replace(b, variables=()) for b in blocks]
        assert not solver_module._clique_labels(unlabelled).any()

    def test_factorization_failure_reports_failure(self, monkeypatch, weber50_sparse):
        real_potrf = scipy.linalg.lapack.dpotrf
        real_getrf = scipy.linalg.lapack.dgetrf

        def indefinite_potrf(matrix, *args, **kwargs):
            # Cholesky meets a nonpositive first pivot (info = 1) ...
            return real_potrf(matrix, *args, **kwargs)[0], 1

        def singular_getrf(matrix, *args, **kwargs):
            # ... and the LU fallback an exactly zero last one (info = n).
            lu, piv, _ = real_getrf(matrix, *args, **kwargs)
            lu[-1, -1] = 0.0
            return lu, piv, lu.shape[0]

        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", indefinite_potrf)
        monkeypatch.setattr(scipy.linalg.lapack, "dgetrf", singular_getrf)
        res = solve(weber50_sparse)
        assert res.status is SolveStatus.NUMERICAL_FAILURE
        assert res.y is None
        assert res.diagnostics["note"] == "KKT factorization failed"

    def test_lu_fallback_solves_the_same_problem(self, monkeypatch, weber50_sparse, result):
        # With every Cholesky factorization refused, the LU factors serve.
        real_potrf = scipy.linalg.lapack.dpotrf
        monkeypatch.setattr(
            scipy.linalg.lapack,
            "dpotrf",
            lambda matrix, *args, **kwargs: (real_potrf(matrix, *args, **kwargs)[0], 1),
        )
        res = solve(weber50_sparse)
        assert res.status is result.status
        assert res.objective == pytest.approx(result.objective, rel=1e-6)


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
        y = comp.moments(z)
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
                psd_block(
                    1, "localizing", "y1", (), ((0, 0, AffineForm((1,), (1.0,), -lower)),)
                ),
            ),
            equalities=(
                EqualityRow("sum", AffineForm((0, 1), (1.0, 1.0), 0.0), 1.0),
                EqualityRow("difference", AffineForm((0, 1), (1.0, -1.0), 0.0), 0.5),
            ),
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
        report = verify_vector(sdp, res.y, 1e-6)
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


def reference_verify(sdp, y, tol):
    """``verify_vector`` block by block and row by row: each block assembled
    on its own with its own ``eigvalsh`` and Frobenius norm, each equality
    row evaluated by ``EqualityRow.residual``."""
    max_eq = 0.0
    for row in sdp.equalities:
        max_eq = max(max_eq, abs(row.residual(y)))
    smallest = []
    eig_ok = True
    for block in sdp.psd_blocks:
        mat = block.assemble(y)
        smallest.append(float(np.linalg.eigvalsh(mat)[0]) if block.size else 0.0)
        if smallest[-1] < -tol * (1.0 + float(np.linalg.norm(mat))):
            eig_ok = False
    ok = eig_ok and max_eq <= tol
    return ResidualReport(max_eq, min(smallest, default=0.0), ok)


class TestVerifyResult:
    @pytest.mark.parametrize(
        "problem",
        [
            "weber_sparse",
            "weber50_sparse",
            "mixed_layout",
            "rational_omrf_sparse",
            "rational_general_sparse",
            "max_dense",
        ],
    )
    def test_matches_the_per_block_reference(self, request, problem):
        # At a random vector (indefinite blocks, large residuals) and at the
        # solver's iterate, whose smallest eigenvalues sit near the
        # tolerances, so both sides of the eigenvalue test are taken.  The
        # last tolerance lies between |lambda_min| / (1 + norm) and
        # |lambda_min| for the block of the smallest eigenvalue, where only
        # its Frobenius norm keeps it within tolerance.
        sdp = request.getfixturevalue(problem)
        res = solve(sdp)
        solved = res.y if res.y is not None else res.diagnostics["last_y"]
        random = np.random.default_rng(7).standard_normal(sdp.y_dim)
        flags = set()
        for y in (random, solved):
            least = reference_verify(sdp, y, 1.0).min_block_eigenvalue
            for tol in (1e-10, 1e-8, 1e-6, 1e-3, max(-least, 0.0) / 1.5):
                report = verify_vector(sdp, y, tol)
                assert_same_bits(
                    np.array(dataclasses.astuple(report), dtype=float),
                    np.array(dataclasses.astuple(reference_verify(sdp, y, tol)), dtype=float),
                )
                flags.add(report.within_tolerance)
        assert flags == {True, False}

    def _dirac(self, weber_sparse):
        point = np.array([0.3, 0.4, 0.5, math.sqrt(0.65)])
        return dirac_moment_vector(weber_sparse, point)

    def test_dirac_vector_is_clean(self, weber_sparse):
        y = self._dirac(weber_sparse)
        report = verify_vector(weber_sparse, y, 1e-9)
        assert report.within_tolerance
        assert report.max_equality_residual <= 1e-9

    def test_single_entry_perturbation_is_flagged(self, weber_sparse):
        y = self._dirac(weber_sparse)
        target = next(
            i
            for i, row in enumerate(weber_sparse.moment_rows.tolist())
            if [v for v in row if v >= 0] == [2, 2]  # the squared first-distance moment
        )
        y[target] += 1e-3
        report = verify_vector(weber_sparse, y, 1e-6)
        assert not report.within_tolerance
        assert report.max_equality_residual >= 1e-4

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_moment_is_out_of_tolerance(self, weber_sparse, bad):
        y = self._dirac(weber_sparse)
        y[1] = bad
        report = verify_vector(weber_sparse, y, 1e-6)
        assert not report.within_tolerance
        assert not math.isfinite(report.max_equality_residual)
        assert math.isnan(report.min_block_eigenvalue)

    def test_solver_output_self_check(self, max_dense):
        res = solve(max_dense)
        report = verify_vector(max_dense, res.y, 1e-7)
        assert report.within_tolerance
        assert report.min_block_eigenvalue >= -1e-7


class TestDualBound:
    """The reported bound is the dual objective of the reported iterate.  Over
    seeds it lies at or below the direct-search value on both front-ends,
    where the primal moment objective c'y, reported beside it, lies above
    that value on some instances.  The dual iterate is feasible only up to
    its residual, so the bound may pass the value by rounding; it gets the
    allowance of :class:`TestTelescopingBounds`."""

    LOCATION_VARIANTS = (
        ("weber", {}),
        ("center", {}),
        ("kcentrum", {"k": 2}),
        ("trimmed", {"trim": (1, 1)}),
        ("range", {}),
    )

    @staticmethod
    def location_bound(seed, variant, params, scale):
        """The order-2 result of an instance over five anchors of the unit
        square scaled by ``scale``, and the instance."""
        anchors = random_instance(5, 2, seed, variant, **params).points
        points = tuple(tuple(scale * c for c in point) for point in anchors)
        instance = LocationInstance(points=points, variant=variant, **params)
        return solve(build_sparse(build_lifted(instance), 2)), instance

    @pytest.mark.parametrize("scale", [0.01, 1.0, 3.0, 10.0])
    def test_location(self, scale):
        # Anchors scaled from 0.01 to 10: each variant ends usable, and the
        # exact arrow lifts (Weber, center, 2-centrum) give the unit-square
        # bound times the scale.
        above = 0
        for seed, (variant, params) in itertools.product(range(3), self.LOCATION_VARIANTS):
            result, instance = self.location_bound(seed, variant, params, scale)
            assert result.status.solved()
            oracle = multistart_descent(instance, n_starts=10, seed=0).best_value
            assert result.objective <= oracle + 1e-6 * (1.0 + abs(oracle))
            above += result.diagnostics["primal_objective"] > oracle
            if variant in ("weber", "center", "kcentrum"):
                unit = self.location_bound(seed, variant, params, 1.0)[0].objective
                assert abs(result.objective / scale - unit) <= 1e-6 * abs(unit)
        assert above > 0

    def test_omrf(self):
        # The lifts of minimum order at most 2 among five random problems
        # per weight pattern, against a grid of step 1e-2 in one variable
        # and 5e-2 in two.
        solved = above = 0
        for pattern in ("general", "kcentrum", "monotone", "trimmed"):
            rng = np.random.default_rng(3)
            for _ in range(5):
                problem = random_omrf_problem(rng, pattern, max_m=3)
                lift = build_auto(problem)
                order = min_order(lift).r_min
                if order > 2:
                    continue
                result = solve(build_sparse(lift, order))
                assert result.status.solved()
                step = 1e-2 if len(problem.universe) == 1 else 5e-2
                reference = grid_search(problem, ball_box(problem.region), step).best_value
                assert result.objective <= reference + 1e-6 * (1.0 + abs(reference))
                solved += 1
                above += result.diagnostics["primal_objective"] > reference
        assert solved >= 15 and above > 0


class TestLargeBall:
    """OMRF problems of ``random_omrf_problem`` rebuilt on the ball
    sum(x^2) <= 100, where the moments of degree 4 reach 1e4: each solves
    at its minimum order, with its bound below a grid of step 0.2."""

    @pytest.mark.parametrize(
        "pattern, seed",
        [
            ("general", 5),
            ("general", 10),
            ("kcentrum", 6),
            ("kcentrum", 9),
            ("monotone", 4),
            ("monotone", 10),
            ("trimmed", 2),
            ("trimmed", 3),
            ("trimmed", 5),
            ("trimmed", 8),
        ],
    )
    def test_bound_below_the_grid(self, pattern, seed):
        drawn = random_omrf_problem(np.random.default_rng(seed), pattern, max_m=3)
        problem = OmrfProblem(drawn.functions, drawn.weights, drawn.ground_set, 100.0)
        lift = build_auto(problem)
        result = solve(build_sparse(lift, min_order(lift).r_min))
        assert result.status.solved()
        reference = grid_search(problem, ball_box(problem.region), 0.2).best_value
        assert result.objective <= reference + 1e-8 * (1.0 + abs(reference))


class TestTelescopingBounds:
    """The relaxation of a telescoping lift bounds the ordered median from
    below, for sign-mixed weights with two or more selector levels and for
    all-zero weights."""

    def bound_and_reference(self, problem, step):
        lift = build_telescoping(problem)
        result = solve(build_sparse(lift, min_order(lift).r_min))
        reference = grid_search(problem, ball_box(problem.region), step).best_value
        if result.status.solved():
            assert result.objective <= reference + 1e-6 * (1.0 + abs(reference))
        return result, reference

    def solved_count(self, problems, step=None):
        """How many of ``problems`` solve; each solved bound is checked
        against a grid of ``step``, by default 1e-2 in one variable and
        5e-2 in two."""
        solved = 0
        for problem in problems:
            grid = step or (1e-2 if len(problem.universe) == 1 else 5e-2)
            result, _ = self.bound_and_reference(problem, grid)
            solved += result.status.solved()
        return solved

    def test_sign_mixed(self):
        # Every one of these selector lifts solves at the minimum order.
        rng = np.random.default_rng(8)
        problems = [random_sign_mixed_problem(rng, rational=False, max_m=3) for _ in range(8)]
        assert self.solved_count(problems) == len(problems)

    def test_trimmed(self):
        # Windows that discard the largest values; every one of these
        # selector lifts solves at the minimum order.
        rng = np.random.default_rng(7)
        problems = [
            random_omrf_problem(rng, "trimmed", rational=False, max_m=3) for _ in range(10)
        ]
        assert self.solved_count(problems) == len(problems)

    def test_weight_classes(self):
        # Every telescoping weight class, polynomial and rational, the
        # rational window with k2 > 0 (order 4) included.
        problems = [
            weight_class_problem(weight_class, rational)
            for weight_class in WEIGHT_CLASSES
            for rational in (False, True)
        ]
        assert self.solved_count(problems, step=1e-3) == len(problems)

    def test_all_zero(self):
        universe = VariableUniverse(["x", "y"])
        functions = (
            RationalFunction.from_polynomial(parse("x*y", universe)),
            RationalFunction(parse("x - y^2", universe), parse("1 + x^2", universe)),
        )
        weights = LambdaWeights.constants(universe, (0.0, 0.0))
        problem = OmrfProblem(functions, weights, SemialgebraicSet(universe, [], []), 4.0)
        result, reference = self.bound_and_reference(problem, 0.05)
        assert result.status.solved()
        assert result.objective == pytest.approx(0.0, abs=1e-8)
        assert reference == 0.0


class TestOverflowGuards:
    """An overflowing KKT right-hand side ends in a result, not in a
    RuntimeWarning (an error under the test settings)."""

    def test_range_instance_returns_a_result(self):
        # the planar range instance over six anchors from default_rng(0) at
        # order 2, whose KKT right-hand side has overflowed under
        # rounding-level changes to the solve (a BLAS thread count, the KKT
        # factor)
        anchors = tuple(map(tuple, np.random.default_rng(0).random((6, 2))))
        lift = build_lifted(LocationInstance(points=anchors, variant="range"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = solve(build_sparse(lift, 2))
        assert isinstance(result, SolverResult)

    @pytest.mark.parametrize("fixture", ["weber_sparse", "weber50_sparse"])
    def test_kkt_solve_of_an_overflowing_norm(self, request, fixture):
        # two cliques of 10 private moments (weber), fifty of 10 (weber50):
        # under the interior-point loop's errstate the solve returns a
        # vector, non-finite entries and all, for the loop's finiteness check
        comp = solver_module._Compiled(request.getfixturevalue(fixture))
        solver_module._schur_terms(comp, random_scaling(comp, 4))
        kkt = solver_module._Kkt(comp, comp.kkt_data(1e-12))
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("error", RuntimeWarning)
            solution = kkt.solve(np.full(comp.z_dim, 1e300))
        assert solution.shape == (comp.z_dim,)
