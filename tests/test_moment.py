"""Tests for monomial rows, moment indexing and moment/localizing matrix
assembly."""

import math

import numpy as np
import pytest

from owasdp.moment import MomentIndex, basis_rows, key_rows, monomial_values
from owasdp.polynomial import Monomial, Polynomial, VariableUniverse, parse

from support import dirac_moments, localizing_matrix, moment_matrix, row_monomials


def uni(n):
    return VariableUniverse([f"x{i + 1}" for i in range(n)])


class TestMonomialBasis:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("d", range(0, 5))
    def test_closed_form_size(self, n, d):
        assert len(basis_rows(range(n), d)) == math.comb(n + d, d)

    def test_graded_lex_order_and_nesting(self):
        b = basis_rows([0, 1], 2)
        degs = (b >= 0).sum(axis=1).tolist()
        assert degs == sorted(degs)
        assert (b[0] == -1).all()
        unsorted = row_monomials(basis_rows([4, 0, 2], 3))
        assert list(unsorted) == sorted(unsorted, key=Monomial.grlex_key)
        # the basis of a lower degree is a prefix, narrower by the padding
        t = basis_rows([0, 1], 1)
        assert np.array_equal(t, b[: len(t), 1:])

    def test_duplicate_vars_rejected(self):
        with pytest.raises(ValueError):
            basis_rows([0, 0], 1)


class TestMomentIndex:
    def test_constant_is_position_zero(self):
        idx = MomentIndex(uni(2))
        assert idx.lookup(np.zeros((1, 0), dtype=np.int64))[0] == 0
        assert idx.lookup(np.array([[-1, -1]]))[0] == 0

    def test_shared_monomials_merge_across_cliques(self):
        u = uni(3)
        idx = MomentIndex(u)
        idx.intern(basis_rows([0, 1], 2))  # clique {x1, x2}
        n_after_first = idx.n_moments
        idx.intern(basis_rows([0, 2], 2))  # clique {x1, x3}, shares x1-monomials
        # shared: 1, x1, x1^2 already present; new: x3, x1*x3, x3^2
        assert idx.n_moments == n_after_first + 3
        assert idx.lookup(np.array([[0, 0]]))[0] < n_after_first

    def test_register_count(self):
        idx = MomentIndex(uni(3))
        idx.intern(basis_rows([0, 1, 2], 4))
        assert idx.n_moments == math.comb(3 + 4, 4)

    def test_keys_wider_than_int64(self):
        # 101^10 > 2^63: degree-10 keys over 100 variables are Python integers.
        idx = MomentIndex(uni(100))
        idx.intern(basis_rows([98, 99], 10))
        assert idx.keys.dtype == object
        assert np.array_equal(key_rows(idx.keys, 100), basis_rows([98, 99], 10))
        assert idx.lookup(np.full((1, 10), 98))[0] == idx.n_moments - 1 == 65

    def test_lookup_missing_is_minus_one(self):
        idx = MomentIndex(uni(2))
        assert idx.lookup(np.full((1, 5), 1))[0] == -1


class TestMonomialValues:
    def test_matches_monomial_evaluation_bitwise(self):
        rng = np.random.default_rng(5)
        point = rng.uniform(-2.0, 2.0, 4)
        rows = basis_rows(range(4), 5)
        monos = row_monomials(rows)
        expected = [Polynomial(uni(4), {mono: 1.0}).evaluate(point) for mono in monos]
        assert monomial_values(rows, point).tolist() == expected
        # wider padding leaves every value unchanged
        padded = np.concatenate([np.full((len(rows), 2), -1), rows], axis=1)
        assert monomial_values(padded, point).tolist() == expected

    def test_matches_evaluate_many_bitwise(self):
        # enough points that a power taken another way than evaluate_many's
        # (a Python float power, or an exponent array) differs somewhere
        points = np.random.default_rng(9).uniform(-3.0, 3.0, (500, 3))
        rows = basis_rows(range(3), 4)
        columns = [
            Polynomial(uni(3), {mono: 1.0}).evaluate_many(points) for mono in row_monomials(rows)
        ]
        expected = np.stack(columns, axis=1)
        actual = np.stack([monomial_values(rows, point) for point in points])
        np.testing.assert_array_equal(actual, expected)


class TestMomentMatrix:
    def test_hankel_structure_univariate(self):
        u = uni(1)
        idx = MomentIndex(u)
        mm = moment_matrix(basis_rows([0], 2), idx)
        y = np.array([1.0, 2.0, 5.0, 14.0, 42.0])  # y_0..y_4
        M = mm.assemble(y)
        expect = np.array([[1, 2, 5], [2, 5, 14], [5, 14, 42]], dtype=float)
        assert np.allclose(M, expect)

    def test_dirac_moment_matrix_psd_rank_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 3))
            u = uni(n)
            idx = MomentIndex(u)
            mm = moment_matrix(basis_rows(range(n), d), idx)
            pt = rng.uniform(-2, 2, size=n)
            y = dirac_moments(pt, idx)
            M = mm.assemble(y)
            w = np.linalg.eigvalsh(M)
            scale = max(1.0, w[-1])
            assert w[0] >= -1e-9 * scale
            assert (w[:-1] <= 1e-9 * scale).all()  # rank one

    def test_symmetry(self):
        u = uni(2)
        idx = MomentIndex(u)
        mm = moment_matrix(basis_rows([0, 1], 2), idx)
        y = np.arange(1.0, idx.n_moments + 1.0)
        M = mm.assemble(y)
        assert np.array_equal(M, M.T)


class TestLocalizingMatrix:
    def test_dirac_sign(self):
        """M(g y) at a Dirac point is g(point) * (rank-one PSD factor)."""
        u = uni(2)
        g = parse("1 - x1^2 - x2^2", u)
        rng = np.random.default_rng(3)
        b = basis_rows([0, 1], 1)
        for _ in range(50):
            idx = MomentIndex(u)
            loc = localizing_matrix(g, b, idx)
            pt = rng.uniform(-1.5, 1.5, size=2)
            y = dirac_moments(pt, idx)
            L = loc.assemble(y)
            w = np.linalg.eigvalsh(L)
            gval = g.evaluate(pt)
            if gval >= 0:
                assert w[0] >= -1e-10
            else:
                assert w[0] < 0
            # L = g(pt) * v v^T with v the basis evaluated at pt
            v = monomial_values(b, pt)
            assert np.allclose(L, gval * np.outer(v, v), atol=1e-10)

    def test_constant_polynomial_gives_scaled_moment_matrix(self):
        u = uni(1)
        idx = MomentIndex(u)
        b = basis_rows([0], 1)
        loc = localizing_matrix(Polynomial.constant(u, 3.0), b, idx)
        mm = moment_matrix(b, MomentIndex(u))
        y = np.array([1.0, 0.5, 0.3])
        assert np.allclose(loc.assemble(y), 3.0 * mm.assemble(y))
