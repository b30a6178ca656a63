"""Instance generators of the benchmark workloads.

The benchmark owns its inputs: the paper's 20 demo anchors are copied here
and the random instances are drawn by the generators below, so an edit to
the package's tests or to its own random helpers cannot change what is
measured.

Each workload is a fixed panel of instances, visited in a fixed order.  The
workload seed is recorded with every result but changes neither.  With the
data drawn from the seed, the pass time of the OMRF panel moved by 28% of
its median between seeds 1-5 (interquartile range), because iteration
counts and failures move with the data; no usable regression bound
survives that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from owasdp.location import LocationInstance
from owasdp.omrf import LambdaWeights, OmrfProblem
from owasdp.polynomial import Polynomial, RationalFunction, SemialgebraicSet, VariableUniverse

# The paper's worked example: 20 anchors in R^3, l3 Weber objective.
DEMO_POINTS = (
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
)
# Minimum of the demo objective, computed independently at 1e-12 resolution.
DEMO_GOLDEN = 8.729976

# Six fixed shapes per weight pattern: (variables, functions m, rational,
# pattern parameter).  The parameter is "polynomial weights" for general, k
# for kcentrum and (k1, k2) for trimmed.  The random draws set only
# coefficients, so a shape fixes the lift form, order and relaxation size.
# Rational functions are kept to m <= 2, and the general pattern to m <= 2:
# beyond that the single-clique lifts reach order 4 (a two-variable rational
# trimmed problem with m = 3 has y_dim 4,897 and takes minutes and GBs).
OMRF_SHAPES = {
    "general": (
        (1, 2, False, False), (1, 2, True, True), (2, 2, False, True),
        (1, 2, True, False), (2, 2, False, False), (2, 1, True, False),
    ),
    "kcentrum": (
        (1, 3, False, 2), (1, 2, True, 1), (2, 3, False, 1),
        (2, 2, True, 2), (2, 2, False, 1), (2, 1, True, 1),
    ),
    "monotone": (
        (1, 3, False, None), (1, 2, True, None), (2, 3, False, None),
        (2, 2, True, None), (2, 2, False, None), (1, 1, True, None),
    ),
    "trimmed": (
        (1, 3, False, (1, 1)), (1, 2, True, (1, 0)), (2, 3, False, (2, 0)),
        (2, 2, True, (1, 0)), (2, 2, False, (1, 0)), (1, 2, True, (1, 0)),
    ),
}
OMRF_BALL = 4.0
LADDER_WEBER_SIZES = (5, 10, 20, 40)
LADDER_INSTANCE_SEEDS = 3
OMRF_PANEL_SEED = 0


@dataclass(frozen=True)
class Instance:
    """One pipeline input.

    ``problem`` is a ``LocationInstance`` (lifted by ``build_lifted``) or an
    ``OmrfProblem`` (lifted by ``build_auto``).  ``order`` is the relaxation
    order, or None for the lift's minimum order.  ``golden`` is a known
    optimum that replaces the direct-search reference.
    """

    id: str
    problem: object
    order: Optional[int]
    golden: Optional[float] = None

    @property
    def is_location(self) -> bool:
        return isinstance(self.problem, LocationInstance)


def _unit_cube_points(n: int, dim: int, seed: int) -> Tuple[Tuple[float, ...], ...]:
    pts = np.random.default_rng(seed).random((n, dim))
    return tuple(tuple(float(c) for c in row) for row in pts)


def demo_instances() -> Tuple[Instance, ...]:
    """The paper's example at order 2."""
    problem = LocationInstance(points=DEMO_POINTS, norm_tau=(3, 1))
    return (Instance("demo-l3-r2", problem, 2, DEMO_GOLDEN),)


def ladder_instances() -> Tuple[Instance, ...]:
    """Planar l2 location at order 2: Weber for n in {5, 10, 20, 40} and the
    center, 2-centrum, (1, 1)-trimmed and range aggregations with n = 6,
    with anchors drawn uniformly from the unit square by instance seeds 0-2."""
    out = []
    for iseed in range(LADDER_INSTANCE_SEEDS):
        for n in LADDER_WEBER_SIZES:
            problem = LocationInstance(points=_unit_cube_points(n, 2, iseed))
            out.append(Instance(f"s{iseed}-weber-n{n}", problem, 2))
        six = _unit_cube_points(6, 2, iseed)
        variants = (
            ("center", {}),
            ("kcentrum", {"k": 2}),
            ("trimmed", {"trim": (1, 1)}),
            ("range", {}),
        )
        for variant, params in variants:
            problem = LocationInstance(points=six, variant=variant, **params)
            out.append(Instance(f"s{iseed}-{variant}-n6", problem, 2))
    return tuple(out)


def random_omrf_problem(
    rng: np.random.Generator, pattern: str, n_vars: int, m: int, rational: bool, param
) -> OmrfProblem:
    """Ordered median of m quadratics in ``n_vars`` variables (or quadratic
    ratios whose denominators are at least 1) on the ball sum(x_i^2) <= 4,
    with position weights of the given pattern."""
    universe = VariableUniverse([f"x{i + 1}" for i in range(n_vars)])
    xs = [Polynomial.from_name(universe, f"x{i + 1}") for i in range(n_vars)]
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
        if param:
            entries = tuple(
                Polynomial.constant(universe, float(rng.uniform(-2.0, 2.0)))
                + float(rng.uniform(-0.5, 0.5)) * xs[0]
                for _ in range(m)
            )
            weights = LambdaWeights(entries)
        else:
            weights = LambdaWeights.constants(universe, rng.uniform(-2.0, 2.0, m))
    elif pattern == "kcentrum":
        weights = LambdaWeights.constants(universe, [1.0] * param + [0.0] * (m - param))
    elif pattern == "monotone":
        weights = LambdaWeights.constants(universe, np.sort(rng.uniform(0.0, 3.0, m))[::-1])
    elif pattern == "trimmed":
        k1, k2 = param
        window = [1.0] * (m - k1 - k2)
        weights = LambdaWeights.constants(universe, [0.0] * k1 + window + [0.0] * k2)
    else:
        raise ValueError(f"unknown weight pattern {pattern!r}")
    return OmrfProblem(tuple(functions), weights, SemialgebraicSet(universe, [], []), OMRF_BALL)


def omrf_instances() -> Tuple[Instance, ...]:
    """Six problems per weight pattern (``OMRF_SHAPES``), each relaxed at
    its lift's minimum order."""
    out = []
    for p, (pattern, shapes) in enumerate(OMRF_SHAPES.items()):
        for j, shape in enumerate(shapes):
            rng = np.random.default_rng([OMRF_PANEL_SEED, p, j])
            problem = random_omrf_problem(rng, pattern, *shape)
            out.append(Instance(f"{pattern}-{j}", problem, None))
    return tuple(out)


PANELS: Dict[str, Callable[[], Tuple[Instance, ...]]] = {
    "demo-l3-r2": demo_instances,
    "ladder-l2": ladder_instances,
    "omrf-patterns": omrf_instances,
}


def warmup_instance() -> Instance:
    """Small fixed planar Weber problem solved once, untimed, during set-up."""
    points = ((0.1, 0.2), (0.9, 0.3), (0.4, 0.8), (0.6, 0.1), (0.2, 0.7))
    return Instance("warmup-weber-n5", LocationInstance(points=points), 2)
