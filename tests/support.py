"""Shared fixtures and helpers for the test suite.

``DEMO_POINTS`` is the fixed 20-point R^3 instance used as the package's
worked example.  The golden optima below were computed independently at
1e-12 resolution (high-precision local refinement cross-checked against a
dense scan) and are frozen here as regression values: the plain
sum-of-distances objective with cubic-mean distances, unconstrained and with
the nonconvex cone constraint x1^2 - 2 x2^2 - 2 x3^2 >= 0.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from owasdp.moment import LinearMatrixMap, key_rows, localizing_forms, pair_rows
from owasdp.polynomial import Monomial, Polynomial, SemialgebraicSet, VariableUniverse, parse

DEMO_POINTS = np.array(
    [
        (0.0758, 0.0540, 0.5308),
        (0.7792, 0.9340, 0.1299),
        (0.5688, 0.4694, 0.0119),
        (0.3371, 0.1622, 0.7943),
        (0.3112, 0.5285, 0.1656),
        (0.6020, 0.2630, 0.6541),
        (0.6892, 0.7482, 0.4505),
        (0.0838, 0.2290, 0.9133),
        (0.1524, 0.8259, 0.5383),
        (0.9961, 0.0782, 0.4427),
        (0.1066, 0.9619, 0.0046),
        (0.7749, 0.8173, 0.8687),
        (0.0844, 0.3998, 0.2599),
        (0.8000, 0.4314, 0.9106),
        (0.1818, 0.2638, 0.1455),
        (0.1361, 0.8693, 0.5797),
        (0.5499, 0.1450, 0.8530),
        (0.6220334, 0.35100755, 0.51310874),
        (0.4018, 0.0760, 0.2399),
        (0.1233, 0.1839, 0.2400),
    ]
)

SUM_L3_OPT_VALUE = 8.729976
SUM_L3_OPT_POINT = (0.426397, 0.438730, 0.455857)
CONE_L3_OPT_VALUE = 10.109333
CONE_L3_OPT_POINT = (0.562304, 0.266296, 0.295262)


def sum_l3_batch(xs: np.ndarray, points: np.ndarray = DEMO_POINTS) -> np.ndarray:
    """Sum over the anchors of the cubic-mean distance ||x - a||_3, at each
    row x of ``xs``."""
    diff = np.abs(xs[:, None, :] - points[None, :, :])
    return np.cbrt((diff**3).sum(axis=2)).sum(axis=1)


def cone_region(ball_bound: float = 3.0) -> SemialgebraicSet:
    """{x in R^3 : x1^2 - 2 x2^2 - 2 x3^2 >= 0}, with a covering ball."""
    universe = VariableUniverse(["x1", "x2", "x3"])
    cone = parse("x1^2 - 2*x2^2 - 2*x3^2", universe)
    return SemialgebraicSet(
        universe, [cone], [], ball_bound=ball_bound, ball_variables=(0, 1, 2)
    )


def abs_evaluate(poly: Polynomial, point: np.ndarray) -> float:
    """Sum of absolute term values: a conditioning scale for residual checks."""
    magnitudes = Polynomial(poly.universe, {mono: abs(c) for mono, c in poly.terms.items()})
    return magnitudes.evaluate(np.abs(point))


def scalar_gradient(poly: Polynomial, point: np.ndarray) -> np.ndarray:
    """Exact gradient of a polynomial at one point, term by term with
    scalar powers: a reference for ``Polynomial.derivative``."""
    grad = np.zeros(len(point))
    for mono, coef in poly.terms.items():
        for vid, exp in mono.exps:
            value = coef * exp
            for other_vid, other_exp in mono.exps:
                e = other_exp - 1 if other_vid == vid else other_exp
                if e:
                    value *= point[other_vid] ** e
            grad[vid] += value
    return grad


def half_plane():
    """The ground set {x1 + x2 >= 1/2} over the planar facility position."""
    universe = VariableUniverse(["x1", "x2"])
    return SemialgebraicSet(universe, [parse("x1 + x2 - 0.5", universe)], [])


def corner_disk():
    """The disk through the corners of the unit square, {x1 + x2 - x1^2 -
    x2^2 >= 0}, over the planar facility position.  The ground set is
    nonlinear, so an l2 lift over it keeps each anchor's distance variable
    in a clique of its own."""
    universe = VariableUniverse(["x1", "x2"])
    return SemialgebraicSet(universe, [parse("x1 + x2 - x1^2 - x2^2", universe)], [])


def row_monomials(rows):
    """The ``Monomial`` of each monomial row (sorted variable ids, padded in
    front with -1), as a tuple."""
    return tuple(
        Monomial((v, len(list(run))) for v, run in groupby(row) if v >= 0)
        for row in np.asarray(rows).tolist()
    )


def localizing_matrix(g, basis, index):
    """Reference localizing matrix M(g y) over the basis rows: entry (a, b)
    is L_y(g * a * b), its moments interned in ``index``."""
    i, j, pairs = pair_rows(basis)
    form, position, coef = localizing_forms(index, [pairs], [g])
    indptr = np.searchsorted(form, np.arange(i.size + 1))
    return LinearMatrixMap(len(basis), i, j, np.zeros(i.size), indptr, position, coef)


def moment_matrix(basis, index):
    """Reference moment matrix M(y) over the basis rows: entry (a, b) is
    y_{a+b}."""
    return localizing_matrix(Polynomial.constant(index.universe, 1.0), basis, index)


def dirac_moments(point, index):
    """Reference moment vector of the Dirac measure at ``point`` (indexed by
    variable id) over every monomial of ``index``, one ``Monomial`` at a
    time."""
    monos = row_monomials(key_rows(index.keys, len(index.universe)))
    return np.array([Polynomial(index.universe, {mono: 1.0}).evaluate(point) for mono in monos])


def psd_block(size, kind, label, variables, entries):
    """A PsdBlock from its upper-triangle entries (i, j, AffineForm)."""
    from owasdp.relaxation import PsdBlock

    forms = [form for _, _, form in entries]
    return PsdBlock(
        size=size,
        rows=[i for i, _, _ in entries],
        cols=[j for _, j, _ in entries],
        constants=[form.constant for form in forms],
        indptr=np.cumsum([0] + [form.nnz for form in forms]),
        indices=[idx for form in forms for idx in form.indices],
        coefficients=[c for form in forms for c in form.coefficients],
        kind=kind,
        label=label,
        variables=variables,
    )


def random_omrf_problem(rng, pattern, rational=None, max_m=4):
    """Random small ordered-median problem whose weights match ``pattern``.

    ``pattern`` is one of "general", "kcentrum", "monotone", "trimmed";
    ``rational`` forces (True) or forbids (False) rational entries, or picks
    at random (None).  Functions are quadratics over 1-2 variables; rational
    denominators are certified positive (constant >= 1 plus even terms).
    """
    from owasdp.omrf import LambdaWeights, OmrfProblem
    from owasdp.polynomial import RationalFunction

    n_vars = int(rng.integers(1, 3))
    if pattern == "trimmed":
        m = int(rng.integers(2, max_m + 1))
    else:
        m = int(rng.integers(1, max_m + 1))
    universe = VariableUniverse([f"x{i + 1}" for i in range(n_vars)])
    xs = [Polynomial.from_name(universe, f"x{i + 1}") for i in range(n_vars)]
    if rational is None:
        rational = bool(rng.integers(0, 2))
    functions = []
    for _ in range(m):
        numerator = Polynomial.constant(universe, float(rng.uniform(-2.0, 2.0)))
        for x in xs:
            numerator = (
                numerator
                + float(rng.uniform(-2.0, 2.0)) * x
                + float(rng.uniform(-1.0, 1.0)) * x**2
            )
        if rational:
            denominator = Polynomial.constant(universe, 1.0 + float(rng.uniform(0.0, 1.0)))
            for x in xs:
                denominator = denominator + float(rng.uniform(0.0, 0.5)) * x**2
            functions.append(RationalFunction(numerator, denominator))
        else:
            functions.append(RationalFunction.from_polynomial(numerator))
    if pattern == "general":
        if rng.integers(0, 2):
            entries = tuple(
                Polynomial.constant(universe, float(rng.uniform(-2.0, 2.0)))
                + float(rng.uniform(-0.5, 0.5)) * xs[0]
                for _ in range(m)
            )
            weights = LambdaWeights(entries)
        else:
            weights = LambdaWeights.constants(universe, rng.uniform(-2.0, 2.0, m))
    elif pattern == "kcentrum":
        k = int(rng.integers(1, m + 1))
        weights = LambdaWeights.constants(universe, [1.0] * k + [0.0] * (m - k))
    elif pattern == "monotone":
        values = np.sort(rng.uniform(0.0, 3.0, m))[::-1]
        weights = LambdaWeights.constants(universe, values)
    elif pattern == "trimmed":
        k1 = int(rng.integers(1, m))
        k2 = int(rng.integers(0, m - k1))
        window = m - k1 - k2
        weights = LambdaWeights.constants(
            universe, [0.0] * k1 + [1.0] * window + [0.0] * k2
        )
    else:
        raise AssertionError(pattern)
    ground = SemialgebraicSet(universe, [], [])
    return OmrfProblem(tuple(functions), weights, ground, 4.0)


def random_omrf_point(rng, problem):
    return rng.uniform(-1.0, 1.0, len(problem.universe))


def hand_lift(
    names,
    objective_text,
    inequality_texts=(),
    equality_texts=(),
    cliques=None,
    denominator_text=None,
    original=None,
):
    """Assemble a LiftedProblem directly from polynomial text."""
    from owasdp.omrf import LiftedProblem

    universe = VariableUniverse(names)
    num = parse(objective_text, universe)
    den = (
        Polynomial.constant(universe, 1.0)
        if denominator_text is None
        else parse(denominator_text, universe)
    )
    if cliques is None:
        cliques = (tuple(range(len(names))),)
    return LiftedProblem(
        universe=universe,
        objective_num=num,
        objective_den=den,
        inequality_constraints=tuple(parse(t, universe) for t in inequality_texts),
        equality_constraints=tuple(parse(t, universe) for t in equality_texts),
        cliques=tuple(tuple(c) for c in cliques),
        original_variables=tuple(
            range(len(names) if original is None else original)
        ),
        form="general",
    )


def two_point_weber_lift(ball=9.0):
    """Planar 2-point Euclidean sum-of-distances lift, assembled by hand:
    anchors (0,0) and (1,0), distance variables u1, u2."""
    return hand_lift(
        ("x1", "x2", "u1", "u2"),
        "u1 + u2",
        inequality_texts=(
            "u1",
            "u2",
            f"{ball} - x1^2 - x2^2 - u1^2",
            f"{ball} - x1^2 - x2^2 - u2^2",
        ),
        equality_texts=(
            "u1^2 - x1^2 - x2^2",
            "u2^2 - x1^2 + 2*x1 - 1 - x2^2",
        ),
        cliques=((0, 1, 2), (0, 1, 3)),
        original=2,
    )


def with_constant_weights(problem, values):
    """``problem`` with constant position weights ``values`` (a scalar
    applies to every position)."""
    from owasdp.omrf import LambdaWeights, OmrfProblem

    values = np.broadcast_to(np.asarray(values, dtype=float), (problem.m,))
    weights = LambdaWeights.constants(problem.universe, values)
    return OmrfProblem(problem.functions, weights, problem.ground_set, problem.ball_bound)


def assignment_binaries(lifted, m):
    """The ``m**2`` binaries ``w_ij**2 - w_ij`` of a lift's assignment
    matrix (variable group "w"), its last row being one minus the others."""
    ids = dict(lifted.variable_groups)["w"]
    w = [
        [Polynomial.variable(lifted.universe, ids[i * m + j]) for j in range(m)]
        for i in range(m - 1)
    ]
    w.append([1.0 - sum(row[j] for row in w) for j in range(m)])
    return [p**2 - p for row in w for p in row]


def random_sign_mixed_problem(rng, rational=None, max_m=4):
    """Random problem of 3 to ``max_m`` functions whose constant weights
    telescope into at least one positive and at least two negative levels:
    lambda_k - lambda_{k+1} (with lambda_{m+1} = 0) takes both signs."""
    problem = random_omrf_problem(rng, "monotone", rational=rational, max_m=max_m)
    while problem.m < 3:
        problem = random_omrf_problem(rng, "monotone", rational=rational, max_m=max_m)
    while True:
        values = rng.uniform(-2.0, 2.0, problem.m)
        deltas = values - np.append(values[1:], 0.0)
        if (deltas > 0.0).any() and (deltas < 0.0).sum() >= 2:
            return with_constant_weights(problem, values)


# Constant position weights of each telescoping weight class, over three
# functions (and one for "single").
WEIGHT_CLASSES = {
    "max": (1.0, 0.0, 0.0),
    "kcentrum": (1.0, 1.0, 0.0),
    "plainsum": (1.0, 1.0, 1.0),
    "monotone": (2.0, 1.5, 0.5),
    "window": (0.0, 1.0, 1.0),
    "window2": (0.0, 1.0, 0.0),
    "signmixed": (0.5, 1.0, 2.0),
    "allzero": (0.0, 0.0, 0.0),
    "single": (1.5,),
}


def weight_class_problem(weight_class, rational):
    """Ordered median of quadratics in one variable over the ball x^2 <= 4,
    with the weights of ``WEIGHT_CLASSES[weight_class]``; ``rational``
    divides each by its own quadratic denominator."""
    from owasdp.omrf import LambdaWeights, OmrfProblem
    from owasdp.polynomial import RationalFunction

    weights = WEIGHT_CLASSES[weight_class]
    universe = VariableUniverse(["x"])
    numerators = ("x^2 - 1", "x - 0.5*x^2 + 0.3", "0.5 - x")[: len(weights)]
    denominators = ("1 + x^2", "2 + 0.5*x^2", "1.5 + x^2") if rational else ("1",) * 3
    functions = tuple(
        RationalFunction(parse(p, universe), parse(q, universe))
        for p, q in zip(numerators, denominators)
    )
    ground = SemialgebraicSet(universe, [], [])
    return OmrfProblem(functions, LambdaWeights.constants(universe, weights), ground, 4.0)
