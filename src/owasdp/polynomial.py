"""Sparse multivariate polynomials and rational functions.

Algebraic substrate for the rest of the package: named variables live in a
``VariableUniverse``, monomials are sparse exponent maps, polynomials are
monomial-to-coefficient maps with float coefficients, and rational functions
are numerator/denominator pairs.  A small text grammar (``parse`` /
``to_string``) round-trips polynomials exactly.

Values at points have one arithmetic, ``Polynomial.evaluate_many``, which
raises float arrays to Python int exponents.  One point is its one-row
case, the ball and region tests take the same powers, and a gradient is
the values of ``Polynomial.derivative``, so a value does not depend on
whether its point is evaluated alone or in a batch.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

import numpy as np

# Coefficients with magnitude below this are dropped on construction.
COEFF_EPS = 1e-14

VarId = int


class UniverseMismatchError(ValueError):
    """Raised when polynomials from different variable universes are mixed."""


class ParseError(ValueError):
    """Raised when polynomial text does not conform to the grammar."""


class VariableUniverse:
    """Ordered registry of named variables.

    Variable identifiers are dense integers in registration order; names must
    be unique identifiers (letters, digits, underscores, not starting with a
    digit).
    """

    __slots__ = ("_names", "_ids")

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._names: List[str] = []
        self._ids: Dict[str, VarId] = {}
        for name in names:
            self.add(name)

    def add(self, name: str) -> VarId:
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise ValueError(f"invalid variable name: {name!r}")
        if name in self._ids:
            raise ValueError(f"variable {name!r} already registered")
        vid = len(self._names)
        self._names.append(name)
        self._ids[name] = vid
        return vid

    def id_of(self, name: str) -> VarId:
        try:
            return self._ids[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def name_of(self, vid: VarId) -> str:
        return self._names[vid]

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self._names)

    def __repr__(self) -> str:
        return f"VariableUniverse({list(self._names)!r})"


def _check_same_universe(a: "Polynomial", b: "Polynomial") -> None:
    if a.universe is not b.universe:
        raise UniverseMismatchError("operands belong to different variable universes")


class Monomial:
    """Immutable sparse monomial: mapping of variable id to positive exponent."""

    __slots__ = ("_exps", "_degree", "_hash")

    def __init__(self, exps: Mapping[VarId, int] | Iterable[Tuple[VarId, int]] = ()) -> None:
        items = exps.items() if isinstance(exps, Mapping) else exps
        cleaned = tuple(sorted((int(v), int(e)) for v, e in items if e != 0))
        if any(e < 0 for _, e in cleaned):
            raise ValueError("monomial exponents must be nonnegative")
        self._exps = cleaned
        self._degree = sum(e for _, e in cleaned)
        self._hash = hash(cleaned)

    @staticmethod
    def one() -> "Monomial":
        return _MONOMIAL_ONE

    @staticmethod
    def of(vid: VarId, exp: int = 1) -> "Monomial":
        return Monomial(((vid, exp),))

    @property
    def exps(self) -> Tuple[Tuple[VarId, int], ...]:
        return self._exps

    @property
    def degree(self) -> int:
        return self._degree

    def is_one(self) -> bool:
        return not self._exps

    def exponent(self, vid: VarId) -> int:
        for v, e in self._exps:
            if v == vid:
                return e
        return 0

    def variables(self) -> Tuple[VarId, ...]:
        return tuple(v for v, _ in self._exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        if self.is_one():
            return other
        if other.is_one():
            return self
        merged: Dict[VarId, int] = dict(self._exps)
        for v, e in other._exps:
            merged[v] = merged.get(v, 0) + e
        return Monomial(merged)

    def grlex_key(self) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
        """Sort key for graded-lexicographic order (degree, then lex).

        Within a degree class, lex order treats lower variable ids as more
        significant and higher exponents as larger; the key encodes the sparse
        exponent vector so that tuple comparison realizes that order.
        """
        # Negating ids makes a support on earlier variables compare larger,
        # which matches dense exponent-vector comparison for equal degrees.
        return (self._degree, tuple((-v, e) for v, e in self._exps))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self._exps == other._exps

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self._exps:
            return "Monomial(1)"
        body = "*".join(f"v{v}^{e}" if e > 1 else f"v{v}" for v, e in self._exps)
        return f"Monomial({body})"


_MONOMIAL_ONE = Monomial()


class Polynomial:
    """Sparse polynomial with float coefficients over a variable universe.

    Instances are immutable by convention: operations return new objects and
    never mutate the term map.  Coefficients with magnitude below
    ``COEFF_EPS`` are dropped.
    """

    __slots__ = ("universe", "_terms")

    def __init__(self, universe: VariableUniverse, terms: Mapping[Monomial, float] = ()) -> None:
        self.universe = universe
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._terms: Dict[Monomial, float] = {
            m: float(c) for m, c in items if abs(c) >= COEFF_EPS
        }

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(universe: VariableUniverse) -> "Polynomial":
        return Polynomial(universe)

    @staticmethod
    def constant(universe: VariableUniverse, value: float) -> "Polynomial":
        return Polynomial(universe, {Monomial.one(): value})

    @staticmethod
    def variable(universe: VariableUniverse, vid: VarId) -> "Polynomial":
        if not 0 <= vid < len(universe):
            raise KeyError(f"variable id {vid} outside universe")
        return Polynomial(universe, {Monomial.of(vid): 1.0})

    @staticmethod
    def from_name(universe: VariableUniverse, name: str) -> "Polynomial":
        return Polynomial.variable(universe, universe.id_of(name))

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Dict[Monomial, float]:
        return dict(self._terms)

    def coefficient(self, mono: Monomial) -> float:
        return self._terms.get(mono, 0.0)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(m.is_one() for m in self._terms)

    def constant_value(self) -> float:
        return self._terms.get(Monomial.one(), 0.0)

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0."""
        return max((m.degree for m in self._terms), default=0)

    def variables(self) -> Tuple[VarId, ...]:
        out = set()
        for m in self._terms:
            out.update(m.variables())
        return tuple(sorted(out))

    def sorted_terms(self) -> List[Tuple[Monomial, float]]:
        """Terms in descending graded-lex order: leading term first."""
        return sorted(self._terms.items(), key=lambda t: t[0].grlex_key(), reverse=True)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Polynomial | float | int") -> "Polynomial":
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.universe, other)
        _check_same_universe(self, other)
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, 0.0) + c
        return Polynomial(self.universe, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.universe, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial | float | int") -> "Polynomial":
        return self + (-other if isinstance(other, Polynomial) else -float(other))

    def __rsub__(self, other: float) -> "Polynomial":
        return (-self) + float(other)

    def __mul__(self, other: "Polynomial | float | int") -> "Polynomial":
        if isinstance(other, (int, float)):
            return Polynomial(self.universe, {m: c * other for m, c in self._terms.items()})
        _check_same_universe(self, other)
        out: Dict[Monomial, float] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                m = ma * mb
                out[m] = out.get(m, 0.0) + ca * cb
        return Polynomial(self.universe, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(self.universe, 1.0)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def derivative(self, vid: VarId) -> "Polynomial":
        """Partial derivative in variable ``vid``; the terms keep their order."""
        terms: Dict[Monomial, float] = {}
        for mono, coef in self._terms.items():
            exp = mono.exponent(vid)
            if exp:
                terms[Monomial((v, e - 1 if v == vid else e) for v, e in mono.exps)] = coef * exp
        return Polynomial(self.universe, terms)

    def evaluate(self, point: np.ndarray) -> float:
        """Value at one point: the one row of ``evaluate_many``."""
        return float(self.evaluate_many(np.asarray(point, dtype=float)[None, :])[0])

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Values at each row of the 2-D array ``points``.

        Each monomial is the product, from 1.0 and in increasing variable
        id, of its columns raised to Python int exponents; the terms add
        from 0.0 in insertion order.
        """
        x = np.asarray(points, dtype=float)
        out = np.zeros(len(x))
        for mono, coef in self._terms.items():
            values = 1.0
            for vid, exp in mono.exps:
                values = values * x[:, vid] ** exp
            out += coef * values
        return out

    # -- comparison / formatting --------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.universe is other.universe and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((id(self.universe), tuple(sorted(self._terms.items(), key=lambda t: t[0].grlex_key()))))

    def __str__(self) -> str:
        return to_string(self)

    def __repr__(self) -> str:
        return f"Polynomial({to_string(self)!r})"


@dataclass(frozen=True)
class RationalFunction:
    """Quotient of two polynomials; the denominator is assumed positive on
    the domain of interest (enforced by callers, checked at evaluation)."""

    numerator: Polynomial
    denominator: Polynomial

    def __post_init__(self) -> None:
        _check_same_universe(self.numerator, self.denominator)
        if self.denominator.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")

    @staticmethod
    def from_polynomial(p: Polynomial) -> "RationalFunction":
        return RationalFunction(p, Polynomial.constant(p.universe, 1.0))

    @property
    def universe(self) -> VariableUniverse:
        return self.numerator.universe

    def evaluate(self, point: np.ndarray) -> float:
        """Numerator over denominator at one point, each the one row of its
        ``evaluate_many``; raises ValueError where the denominator is not
        positive."""
        den = self.denominator.evaluate(point)
        if den <= 0.0:
            raise ValueError(f"denominator nonpositive ({den!r}) at evaluation point")
        return self.numerator.evaluate(point) / den


# ----------------------------------------------------------------------------
# Semialgebraic sets
# ----------------------------------------------------------------------------


@dataclass
class SemialgebraicSet:
    """Basic closed semialgebraic set {x : g_j(x) >= 0, h_k(x) = 0}.

    ``ball_bound`` optionally records a bound M such that the set is contained
    in the ball {sum of the squares of every variable <= M}; builders use it
    to emit redundant compactness constraints, and membership tests it as a
    constraint of the set.
    """

    universe: VariableUniverse
    inequalities: List[Polynomial] = field(default_factory=list)
    equalities: List[Polynomial] = field(default_factory=list)
    ball_bound: float | None = None

    def __post_init__(self) -> None:
        for p in list(self.inequalities) + list(self.equalities):
            if p.universe is not self.universe:
                raise UniverseMismatchError("constraint from a different universe")

    def with_ball(self, bound: float) -> "SemialgebraicSet":
        """This set with the ball ``sum of all squared variables <= bound``.

        A set that already records that ball is returned itself; one that
        records another bound raises ValueError, as does a bound that is not
        finite and positive.
        """
        if not (np.isfinite(bound) and bound > 0.0):
            raise ValueError(f"ball bound must be finite and positive, got {bound}")
        if self.ball_bound is None:
            return SemialgebraicSet(
                self.universe, list(self.inequalities), list(self.equalities), bound
            )
        if self.ball_bound != bound:
            raise ValueError(f"ground-set ball bound {self.ball_bound} disagrees with {bound}")
        return self

    def ball_polynomial(self) -> Polynomial | None:
        """The ball constraint M - sum(v^2) over every variable v in id
        order, as a polynomial, if M is set."""
        if self.ball_bound is None:
            return None
        p = Polynomial.constant(self.universe, self.ball_bound)
        for v in range(len(self.universe)):
            p = p - Polynomial.variable(self.universe, v) ** 2
        return p

    def ball_values(self, points: np.ndarray) -> np.ndarray | None:
        """M - sum(v^2) at one point, or at each row of a 2-D array of points.

        Equal bit for bit to ``ball_polynomial().evaluate_many``, whose
        squares are the same ``column ** 2``.  None when M is not set.
        """
        if self.ball_bound is None:
            return None
        x = np.asarray(points, dtype=float)
        values = np.full(x.shape[:-1], float(self.ball_bound))
        for v in range(len(self.universe)):
            values -= x[..., v] ** 2
        return values

    def _violations(self, x: np.ndarray) -> Iterator[np.ndarray]:
        """Each constraint's violation at each row of ``x``: |h| for the
        equalities, then max(0, -g) for the inequalities and the ball."""
        for h in self.equalities:
            yield np.abs(h.evaluate_many(x))
        for g in self.inequalities:
            yield np.maximum(0.0, -g.evaluate_many(x))
        ball = self.ball_values(x)
        if ball is not None:
            yield np.maximum(0.0, -ball)

    def violation_many(self, points: np.ndarray) -> np.ndarray:
        """Total constraint violation at each row of the 2-D array
        ``points``; a NaN total is +inf."""
        total = np.zeros(len(points))
        for violation in self._violations(np.asarray(points, dtype=float)):
            total += violation
        return np.where(np.isnan(total), np.inf, total)

    def contains_many(self, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Whether each row of the 2-D array ``points`` lies in the set: no
        constraint is violated by more than ``tol``, and none is NaN."""
        inside = np.ones(len(points), dtype=bool)
        for violation in self._violations(np.asarray(points, dtype=float)):
            inside &= violation <= tol
        return inside

    def contains(self, point: np.ndarray, tol: float = 1e-9) -> bool:
        """Whether ``point`` lies in the set: the one row of ``contains_many``."""
        return bool(self.contains_many(np.asarray(point, dtype=float)[None, :], tol)[0])


# ----------------------------------------------------------------------------
# Interval arithmetic (used for box bounds in the compact reformulations)
# ----------------------------------------------------------------------------


def interval_enclosure(
    p: Polynomial, box: Mapping[VarId, Tuple[float, float]]
) -> Tuple[float, float]:
    """Interval-arithmetic enclosure of a polynomial's range over a box.

    Every variable occurring in ``p`` must have an interval in ``box``.
    The returned interval is a (generally non-tight) superset of the range.
    """
    lo_total, hi_total = 0.0, 0.0
    for mono, coef in p.terms.items():
        lo, hi = 1.0, 1.0
        for v, e in mono.exps:
            if v not in box:
                raise KeyError(f"no interval for variable id {v}")
        for v, e in mono.exps:
            lo, hi = _interval_mul((lo, hi), _interval_pow(box[v], e))
        term_lo, term_hi = (coef * lo, coef * hi) if coef >= 0 else (coef * hi, coef * lo)
        lo_total += term_lo
        hi_total += term_hi
    return lo_total, hi_total


def _interval_mul(a: Tuple[float, float], b: Tuple[float, float]) -> Tuple[float, float]:
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(products), max(products)


def _interval_pow(iv: Tuple[float, float], e: int) -> Tuple[float, float]:
    lo, hi = iv
    if e == 0:
        return 1.0, 1.0
    if e % 2 == 1 or lo >= 0.0:
        return lo**e, hi**e
    if hi <= 0.0:
        return hi**e, lo**e
    return 0.0, max(lo**e, hi**e)


# ----------------------------------------------------------------------------
# Text grammar
# ----------------------------------------------------------------------------
#
#   polynomial := [sign] term (sign term)*
#   term       := number | number '*' monomial | monomial
#   monomial   := factor ('*' factor)*
#   factor     := name | name '^' integer
#
# Whitespace is insignificant.  Numbers are decimal literals with optional
# exponent; names must be registered in the universe.

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[*^+\-])"
    r")"
)


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unexpected input at {rest[:20]!r}")
        pos = m.end()
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))
    return tokens


def parse(text: str, universe: VariableUniverse) -> Polynomial:
    """Parse polynomial text against the grammar above."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    terms: Dict[Monomial, float] = {}
    i = 0
    n = len(tokens)
    first = True
    while i < n:
        sign = 1.0
        saw_sign = False
        while i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            saw_sign = True
            i += 1
        if not first and not saw_sign:
            raise ParseError("terms must be joined by '+' or '-'")
        if i >= n:
            raise ParseError("dangling sign at end of input")
        coef = 1.0
        have_coef = False
        if tokens[i][0] == "number":
            coef = float(tokens[i][1])
            have_coef = True
            i += 1
        mono = Monomial.one()
        have_mono = False
        expect_factor = False
        if have_coef and i < n and tokens[i] == ("op", "*"):
            i += 1
            expect_factor = True
        if expect_factor or (i < n and tokens[i][0] == "name"):
            while True:
                if i >= n or tokens[i][0] != "name":
                    got = tokens[i][1] if i < n else "end of input"
                    raise ParseError(f"expected variable name, got {got!r}")
                name = tokens[i][1]
                if name not in universe:
                    raise ParseError(f"unknown variable {name!r}")
                vid = universe.id_of(name)
                i += 1
                exp = 1
                if i < n and tokens[i] == ("op", "^"):
                    i += 1
                    if i >= n or tokens[i][0] != "number" or not tokens[i][1].isdigit():
                        raise ParseError("exponent must be a positive integer")
                    exp = int(tokens[i][1])
                    if exp <= 0:
                        raise ParseError("exponent must be a positive integer")
                    i += 1
                mono = mono * Monomial.of(vid, exp)
                have_mono = True
                # factors are joined by '*'; anything else ends the monomial
                if i + 1 < n and tokens[i] == ("op", "*") and tokens[i + 1][0] == "name":
                    i += 1
                    continue
                break
        if not have_coef and not have_mono:
            raise ParseError(f"expected term, got {tokens[i][1]!r}")
        if i < n and tokens[i][0] == "name":
            raise ParseError("monomial factors must be joined by '*'")
        if i < n and tokens[i][0] == "number":
            raise ParseError("unexpected number; terms are joined by '+' or '-'")
        terms[mono] = terms.get(mono, 0.0) + sign * coef
        first = False
    return Polynomial(universe, terms)


def to_string(p: Polynomial) -> str:
    """Render a polynomial; ``parse(to_string(p)) == p`` exactly.

    Terms appear in graded-lex order, leading term first; coefficients use
    shortest round-trip float formatting.
    """
    if p.is_zero():
        return "0"
    parts: List[str] = []
    for idx, (mono, coef) in enumerate(p.sorted_terms()):
        neg = coef < 0 or (coef == 0.0 and np.signbit(coef))
        mag = -coef if neg else coef
        mono_txt = "*".join(
            f"{p.universe.name_of(v)}^{e}" if e > 1 else p.universe.name_of(v)
            for v, e in mono.exps
        )
        if mono.is_one():
            body = repr(mag)
        elif mag == 1.0:
            body = mono_txt
        else:
            body = f"{mag!r}*{mono_txt}"
        if idx == 0:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)
