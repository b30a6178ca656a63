"""Tests for the polynomial substrate: arithmetic, ordering, parsing,
interval enclosures."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owasdp.polynomial import (
    Monomial,
    ParseError,
    Polynomial,
    RationalFunction,
    SemialgebraicSet,
    UniverseMismatchError,
    VariableUniverse,
    interval_enclosure,
    parse,
    to_string,
)

from support import scalar_gradient


def uni(n=3, prefix="x"):
    return VariableUniverse([f"{prefix}{i + 1}" for i in range(n)])


class TestMonomial:
    def test_one(self):
        m = Monomial.one()
        assert m.degree == 0 and m.is_one()

    def test_mul_merges_exponents(self):
        m = Monomial.of(0, 2) * Monomial.of(1) * Monomial.of(0)
        assert m.exps == ((0, 3), (1, 1))
        assert m.degree == 4

    def test_zero_exponents_dropped(self):
        assert Monomial({0: 0, 1: 2}) == Monomial.of(1, 2)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial({0: -1})

    def test_grlex_order(self):
        # degree dominates; within a degree, earlier variables with higher
        # exponents come later in ascending order
        x2 = Monomial.of(0, 2)
        xy = Monomial(((0, 1), (1, 1)))
        y2 = Monomial.of(1, 2)
        x = Monomial.of(0)
        ordered = sorted([x2, xy, y2, x, Monomial.one()], key=lambda m: m.grlex_key())
        assert ordered == [Monomial.one(), x, y2, xy, x2]


class TestPolynomialArithmetic:
    def test_small_coefficients_dropped(self):
        u = uni()
        p = Polynomial(u, {Monomial.of(0): 1e-16})
        assert p.is_zero()

    def test_add_sub(self):
        u = uni()
        x = Polynomial.variable(u, 0)
        y = Polynomial.variable(u, 1)
        p = (x + y) - x
        assert p == y

    def test_mul_expands(self):
        u = uni()
        x = Polynomial.variable(u, 0)
        y = Polynomial.variable(u, 1)
        p = (x + y) * (x - y)
        assert p == x * x - y * y

    def test_pow(self):
        u = uni()
        x = Polynomial.variable(u, 0)
        p = (x + 1.0) ** 3
        assert p.coefficient(Monomial.of(0, 2)) == pytest.approx(3.0)
        assert p.coefficient(Monomial.one()) == pytest.approx(1.0)

    def test_universe_mismatch(self):
        a = Polynomial.variable(uni(), 0)
        b = Polynomial.variable(uni(), 0)
        with pytest.raises(UniverseMismatchError):
            _ = a + b

    def test_degree(self):
        u = uni()
        x, y = (Polynomial.variable(u, i) for i in (0, 1))
        assert (x * x * y + y).degree == 3
        assert Polynomial.zero(u).degree == 0


coef_st = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False)


def poly_st(u, max_terms=5, max_deg=3):
    mono = st.lists(
        st.tuples(st.integers(0, len(u) - 1), st.integers(1, max_deg)), max_size=2
    ).map(lambda ve: Monomial(dict(ve)))
    term = st.tuples(mono, coef_st)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: Polynomial(u, {})
        + sum((Polynomial(u, {m: c}) for m, c in ts), Polynomial.zero(u))
    )


UNI = uni(4)


class TestRingAxioms:
    """Ring axioms checked by evaluation at random points (spec invariant)."""

    @settings(max_examples=60, deadline=None)
    @given(poly_st(UNI), poly_st(UNI), poly_st(UNI), st.integers(0, 10**6))
    def test_ring_axioms_by_evaluation(self, p, q, r, seed):
        rng = np.random.default_rng(seed)
        pt = rng.uniform(-1.0, 1.0, size=len(UNI))
        scale = max(
            1.0,
            abs(p.evaluate(pt)),
            abs(q.evaluate(pt)),
            abs(r.evaluate(pt)),
        )
        tol = 1e-10 * scale * scale
        assert ((p + q) * r).evaluate(pt) == pytest.approx(
            (p * r + q * r).evaluate(pt), abs=tol
        )
        assert (p * q).evaluate(pt) == pytest.approx((q * p).evaluate(pt), abs=tol)
        assert ((p * q) * r).evaluate(pt) == pytest.approx(
            (p * (q * r)).evaluate(pt), abs=tol * scale
        )

    @settings(max_examples=40, deadline=None)
    @given(poly_st(UNI))
    def test_parse_print_roundtrip(self, p):
        assert parse(to_string(p), UNI) == p


class TestParse:
    def test_examples(self):
        u = uni()
        p = parse("x1^2 - 2*x2^2 - 2*x3^2", u)
        assert p.coefficient(Monomial.of(0, 2)) == 1.0
        assert p.coefficient(Monomial.of(1, 2)) == -2.0
        assert p.coefficient(Monomial.of(2, 2)) == -2.0

    def test_term_forms(self):
        u = uni()
        assert parse("3", u) == Polynomial.constant(u, 3.0)
        assert parse("3*x1", u) == 3.0 * Polynomial.variable(u, 0)
        assert parse("x1*x2", u) == Polynomial.variable(u, 0) * Polynomial.variable(u, 1)
        assert parse("-x1 + 0.5", u) == Polynomial.constant(u, 0.5) - Polynomial.variable(u, 0)
        assert parse("2.5e-1*x3^2", u) == 0.25 * Polynomial.variable(u, 2) ** 2

    def test_whitespace_insignificant(self):
        u = uni()
        assert parse(" x1 ^ 2 + 1 ", u) == parse("x1^2+1", u)

    def test_merges_repeated_monomials(self):
        u = uni()
        assert parse("x1 + x1", u) == 2.0 * Polynomial.variable(u, 0)

    @pytest.mark.parametrize(
        "bad", ["", "x9", "x1 ^ -2", "x1^2.5", "* x1", "x1 x2", "2 +", "x1^", "(x1)"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises((ParseError, KeyError)):
            parse(bad, uni())

    def test_print_golden(self):
        u = uni()
        p = parse("x1^2 - 2*x2^2 - 2*x3^2", u)
        assert to_string(p) == "x1^2 - 2.0*x2^2 - 2.0*x3^2"


class TestRational:
    def test_evaluate(self):
        u = uni(1)
        x = Polynomial.variable(u, 0)
        f = RationalFunction(x * x + 1.0, x + 2.0)
        assert f.evaluate(np.array([1.0])) == pytest.approx(2.0 / 3.0)

    def test_evaluate_is_the_batched_ratio_bitwise(self):
        u = uni(2)
        f = RationalFunction(parse("x1^3 - 2*x1*x2^2 + x2", u), parse("3 + x1^3*x2", u))
        points = np.random.default_rng(8).uniform(-1.0, 1.0, (1000, 2))
        batch = f.numerator.evaluate_many(points) / f.denominator.evaluate_many(points)
        assert [f.evaluate(p) for p in points] == batch.tolist()

    def test_nonpositive_denominator_rejected(self):
        u = uni(1)
        x = Polynomial.variable(u, 0)
        f = RationalFunction(x, x)
        with pytest.raises(ValueError):
            f.evaluate(np.array([-1.0]))

    def test_zero_denominator_rejected(self):
        u = uni(1)
        with pytest.raises(ZeroDivisionError):
            RationalFunction(Polynomial.constant(u, 1.0), Polynomial.zero(u))


class TestSemialgebraicSet:
    def test_ball_and_contains(self):
        u = uni(2)
        x, y = (Polynomial.variable(u, i) for i in (0, 1))
        K = SemialgebraicSet(u, inequalities=[x], ball_bound=2.0, ball_variables=(0, 1))
        assert K.contains(np.array([1.0, 1.0]))
        assert not K.contains(np.array([-0.5, 0.0]))
        assert not K.contains(np.array([1.3, 1.0]))
        ball = K.ball_polynomial()
        assert ball.evaluate(np.array([1.0, 1.0])) == pytest.approx(0.0)

    def test_ball_values_equal_the_ball_polynomial_bitwise(self):
        u = uni(3)
        K = SemialgebraicSet(u, ball_bound=3.5, ball_variables=(2, 0))
        # enough points that a square taken another way than evaluate_many's
        # (Python's float power, or NumPy's power of an exponent array) shows up
        points = np.random.default_rng(5).uniform(-2.5, 2.5, (20000, 3))
        ball = K.ball_polynomial()
        expected = np.array([ball.evaluate(p) for p in points])
        np.testing.assert_array_equal(K.ball_values(points), expected)
        assert K.ball_values(points[7]) == ball.evaluate(points[7])
        assert SemialgebraicSet(u).ball_values(points) is None

    def test_contains_equalities_use_absolute_tolerance(self):
        u = uni(2)
        K = SemialgebraicSet(u, equalities=[parse("x1 - x2", u)])
        assert K.contains(np.array([1.0, 1.0 + 5e-10]))
        assert not K.contains(np.array([1.0, 1.0 + 2e-9]))
        assert not K.contains(np.array([1.0 + 2e-9, 1.0]))
        # a NaN constraint value violates the set, as in the oracle's totals
        assert not K.contains(np.array([np.nan, 1.0]))

    def test_nan_values_violate_every_kind_of_constraint(self):
        u = uni(2)
        nan = np.nan
        points = np.array([[nan, 0.5], [0.5, nan], [0.5, 0.5]])
        for K in (
            SemialgebraicSet(u, equalities=[parse("x1 - 0.5", u)]),
            SemialgebraicSet(u, inequalities=[parse("x1", u)]),
            SemialgebraicSet(u, ball_bound=1.0, ball_variables=(0, 1)),
        ):
            inside = K.contains_many(points)
            violation = K.violation_many(points)
            # the first coordinate alone enters the polynomials; both enter the ball
            ball = K.ball_bound is not None
            assert inside.tolist() == [False, not ball, True]
            assert violation.tolist() == [np.inf, np.inf if ball else 0.0, 0.0]

    def test_violation_many_sums_each_constraint_in_order(self):
        u = uni(2)
        K = SemialgebraicSet(
            u, [parse("x1", u)], [parse("x2 - 0.5", u)], ball_bound=1.0, ball_variables=(0, 1)
        )
        points = np.random.default_rng(3).uniform(-1.5, 1.5, (200, 2))
        parts = (
            np.abs(points[:, 1] - 0.5),
            np.maximum(0.0, -points[:, 0]),
            np.maximum(0.0, -K.ball_values(points)),
        )
        np.testing.assert_array_equal(K.violation_many(points), parts[0] + parts[1] + parts[2])
        # membership bounds each violation, not their total
        inside = K.contains_many(points, 0.3)
        np.testing.assert_array_equal(inside, np.maximum.reduce(parts) <= 0.3)
        assert (inside & (K.violation_many(points) > 0.3)).any()

    def test_contains_is_one_row_of_contains_many(self):
        u = uni(2)
        tol = 1e-6
        K = SemialgebraicSet(
            u, [parse("x1", u)], [parse("x2 - 0.5", u)], ball_bound=4.0, ball_variables=(0, 1)
        )
        offsets = (-2.0 * tol, -0.5 * tol, 0.5 * tol, 2.0 * tol)
        rim = [np.sqrt(3.75 - d) for d in offsets]  # ball value d at x2 = 0.5
        points = np.array(
            [[d, 0.5] for d in offsets]  # near the inequality
            + [[1.0, 0.5 + d] for d in offsets]  # near the equality
            + [[x, 0.5] for x in rim]  # near the ball
        )
        inside = K.contains_many(points, tol)
        assert inside.tolist() == [False, True, True, True] + [False, True, True, False] + [
            False, True, True, True
        ]
        assert [K.contains(p, tol) for p in points] == inside.tolist()


class TestDerivative:
    def test_monomial_in_each_variable(self):
        u = uni(2)
        p = parse("x1^3*x2^2", u)
        assert p.derivative(0) == parse("3*x1^2*x2^2", u)
        assert p.derivative(1) == parse("2*x1^3*x2", u)

    def test_constant_and_missing_variable_give_zero(self):
        u = uni(3)
        assert Polynomial.constant(u, 2.5).derivative(0).is_zero()
        p = parse("x1^2 - 3*x1*x2 + 4", u)
        assert p.derivative(2).is_zero()
        np.testing.assert_array_equal(p.derivative(2).evaluate_many(np.ones((4, 3))), 0.0)

    def test_central_differences(self):
        u = uni(3)
        p = parse("x1^3*x2^2 - 2*x1*x3 + 0.5*x2^4*x3 - x3 + 7", u)
        h = 1e-6
        for point in np.random.default_rng(2).uniform(-1.5, 1.5, (20, 3)):
            for vid in range(3):
                step = np.zeros(3)
                step[vid] = h
                central = (p.evaluate(point + step) - p.evaluate(point - step)) / (2 * h)
                assert p.derivative(vid).evaluate(point) == pytest.approx(
                    central, rel=1e-6, abs=1e-6
                )

    @pytest.mark.parametrize(
        "text", ["x1 + x2 - 1.6", "2 - x1^2 - 2*x2^2", "x1^2 + x2^2 - 1", "0.3*x1*x2 - x2 + 0.7*x1^2"]
    )
    def test_matches_the_scalar_gradient_bitwise_to_degree_two(self, text):
        u = uni(2)
        p = parse(text, u)
        points = np.random.default_rng(4).uniform(-3.0, 3.0, (2000, 2))
        got = np.column_stack([p.derivative(vid).evaluate_many(points) for vid in range(2)])
        want = np.array([scalar_gradient(p, point) for point in points])
        np.testing.assert_array_equal(got, want)


class TestEvaluateMany:
    def test_matches_evaluate_row_by_row(self):
        u = uni(3)
        rng = np.random.default_rng(11)
        points = rng.uniform(-1.5, 1.5, (1000, 3))
        monomials = [
            Monomial(dict(zip(range(3), exps)))
            for exps in itertools.product(range(4), repeat=3)
            if sum(exps) <= 4
        ]
        polys = []
        for _ in range(5):
            chosen = rng.choice(len(monomials), size=8, replace=False)
            poly = Polynomial(
                u, {monomials[i]: float(rng.uniform(-2.0, 2.0)) for i in chosen}
            )
            polys.append(poly)
        # squares and cubes, where a Python float power and NumPy's vector
        # power can round differently
        polys.append(parse("x1^3 + x2^2 - 2*x1*x2", u))
        for poly in polys:
            batch = poly.evaluate_many(points)
            assert batch.shape == (len(points),)
            assert [poly.evaluate(row) for row in points] == batch.tolist()

    def test_constant_and_zero_polynomials(self):
        u = uni(2)
        points = np.zeros((4, 2))
        np.testing.assert_array_equal(
            Polynomial.constant(u, 2.5).evaluate_many(points), np.full(4, 2.5)
        )
        np.testing.assert_array_equal(Polynomial.zero(u).evaluate_many(points), np.zeros(4))


class TestIntervalEnclosure:
    def test_simple(self):
        u = uni(2)
        x, y = (Polynomial.variable(u, i) for i in (0, 1))
        p = x * x - y
        lo, hi = interval_enclosure(p, {0: (-1.0, 2.0), 1: (0.0, 3.0)})
        assert lo <= -3.0 and hi >= 4.0
        assert lo == pytest.approx(-3.0)
        assert hi == pytest.approx(4.0)

    def test_even_power_nonnegative(self):
        u = uni(1)
        x = Polynomial.variable(u, 0)
        lo, hi = interval_enclosure(x**2, {0: (-2.0, 1.0)})
        assert lo == 0.0 and hi == 4.0

    def test_enclosure_contains_samples(self):
        u = uni(2)
        p = parse("x1^2*x2 - 3*x1 + 0.5", u)
        box = {0: (-1.5, 0.5), 1: (-2.0, 2.0)}
        lo, hi = interval_enclosure(p, box)
        rng = np.random.default_rng(0)
        for _ in range(200):
            pt = np.array(
                [rng.uniform(*box[0]), rng.uniform(*box[1])]
            )
            v = p.evaluate(pt)
            assert lo - 1e-12 <= v <= hi + 1e-12

    def test_missing_interval(self):
        u = uni(2)
        p = parse("x1*x2", u)
        with pytest.raises(KeyError):
            interval_enclosure(p, {0: (0.0, 1.0)})
