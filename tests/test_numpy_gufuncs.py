"""The private NumPy gufuncs that the interior-point iteration calls.

``owasdp.solver`` calls ``svd_f``, ``eigvalsh_lo`` and ``cholesky_lo`` of
``numpy.linalg._umath_linalg`` directly, as ``np.linalg.svd``,
``eigvalsh`` and ``cholesky`` do inside their wrappers.  These tests trip
when a NumPy release renames them, changes their signatures or their bits,
or stops returning NaN for a block it cannot factor.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

SIZES = [1, 2, 3, 5, 8, 13, 21, 28]


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def stacks(n, K=6, seed=0):
    """A (K, n, n) general, symmetric and positive-definite stack."""
    B = np.random.default_rng([seed, n]).standard_normal((K, n, n))
    return B, B + B.mT, B @ B.mT + n * np.eye(n)


def test_signatures():
    assert _umath_linalg.svd_f.signature == "(m,n)->(m,m),(p),(n,n)"
    assert _umath_linalg.eigvalsh_lo.signature == "(m,m)->(m)"
    assert _umath_linalg.cholesky_lo.signature == "(m,m)->(m,m)"


@pytest.mark.parametrize("n", SIZES)
def test_bits_equal_the_linalg_wrappers(n):
    general, symmetric, definite = stacks(n)
    for got, want in zip(_umath_linalg.svd_f(general), np.linalg.svd(general)):
        assert_same_bits(got, want)
    assert_same_bits(_umath_linalg.eigvalsh_lo(symmetric), np.linalg.eigvalsh(symmetric))
    assert_same_bits(_umath_linalg.cholesky_lo(definite), np.linalg.cholesky(definite))


@pytest.mark.parametrize("n", SIZES)
def test_pair_views_and_outputs_keep_the_bits(n):
    # The solver reads a size group's [X stack; Z stack] as a (2, K, n, n)
    # view of two flat vectors, and writes the results into views of flat
    # vectors: the bits are those of one call on the concatenated stacks.
    K = 6
    _, symmetric, definite = stacks(n, K)
    _, other_symmetric, other_definite = stacks(n, K, seed=1)
    for routine, first, second, wrapper, out_shape in [
        (_umath_linalg.eigvalsh_lo, symmetric, other_symmetric, np.linalg.eigvalsh, (K, n)),
        (_umath_linalg.cholesky_lo, definite, other_definite, np.linalg.cholesky, (K, n, n)),
    ]:
        flat = np.zeros((2, K * n * n + 3))
        flat[0, 3:], flat[1, 3:] = first.ravel(), second.ravel()
        size = int(np.prod(out_shape))
        out = np.zeros((2, size + 1))
        routine(flat[:, 3:].reshape(2, K, n, n), out=out[:, 1:].reshape((2,) + out_shape))
        expected = wrapper(np.concatenate([first, second]))
        assert_same_bits(out[:, 1:].reshape(expected.shape), expected)
    general, _, _ = stacks(n, K)
    values = np.zeros((2, K * n))
    _, d, _ = _umath_linalg.svd_f(general, out=(None, values[1].reshape(K, n), None))
    assert np.shares_memory(d, values)
    assert_same_bits(values[1].reshape(K, n), np.linalg.svd(general)[1])


def test_failures_are_nan_without_a_warning():
    # Under the interior-point loop's errstate, a block that is not positive
    # definite gets a NaN factor and one that the SVD cannot decompose NaN
    # outputs; the other blocks of the stack are unaffected.
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    nan_block = np.array([[np.nan, 1.0], [1.0, 2.0]])
    good = 2.0 * np.eye(2)
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("error")
        factors = _umath_linalg.cholesky_lo(np.stack([indefinite, good]))
        U, d, Vt = _umath_linalg.svd_f(np.stack([nan_block, good]))
    assert np.isnan(factors[0]).all()
    assert_same_bits(factors[1], np.linalg.cholesky(good))
    for part in (U, d, Vt):
        assert np.isnan(part[0]).all() and np.isfinite(part[1]).all()
