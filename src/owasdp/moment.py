"""Monomial bases, moment indexing, and moment/localizing matrix assembly.

A truncated moment sequence y is stored as a flat vector indexed by a
``MomentIndex``: a global monomial-to-position dictionary shared by all
cliques, so that monomials supported on clique intersections receive a single
moment variable.  Moment and localizing matrices are produced as
``LinearMatrixMap`` objects — symmetric matrices whose entries are linear
forms in y — which downstream modules turn into semidefinite blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .polynomial import Monomial, Polynomial, VariableUniverse, VarId

# L_y(p) as a sparse map from moment position to coefficient.
LinearForm = Dict[int, float]


def basis_size(n_vars: int, degree: int) -> int:
    """Number of monomials in n_vars variables of total degree <= degree."""
    return math.comb(n_vars + degree, degree)


@dataclass(frozen=True)
class MonomialBasis:
    """All monomials over a fixed variable tuple up to a total degree,
    enumerated in graded-lex order (constant first)."""

    variables: Tuple[VarId, ...]
    degree: int
    elements: Tuple[Monomial, ...]

    @staticmethod
    def build(variables: Sequence[VarId], degree: int) -> "MonomialBasis":
        if degree < 0:
            raise ValueError("basis degree must be nonnegative")
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate variables in basis")
        monos: List[Monomial] = []
        for d in range(degree + 1):
            for combo in combinations_with_replacement(vs, d):
                exps: Dict[VarId, int] = {}
                for v in combo:
                    exps[v] = exps.get(v, 0) + 1
                monos.append(Monomial(exps))
        monos.sort(key=lambda m: m.grlex_key())
        return MonomialBasis(vs, degree, tuple(monos))

    def __post_init__(self) -> None:
        expected = basis_size(len(self.variables), self.degree)
        if len(self.elements) != expected:
            raise ValueError(
                f"basis has {len(self.elements)} elements, expected {expected}"
            )

    def __len__(self) -> int:
        return len(self.elements)

    def truncated(self, degree: int) -> "MonomialBasis":
        """The sub-basis of degree <= ``degree`` (a prefix in graded-lex order)."""
        if degree > self.degree:
            raise ValueError("cannot truncate to a larger degree")
        keep = tuple(m for m in self.elements if m.degree <= degree)
        return MonomialBasis(self.variables, degree, keep)


class MomentIndex:
    """Global dictionary of moment variables keyed by monomial.

    The constant monomial always occupies position 0.  Cliques register their
    full monomial range up front (everything of degree <= 2r over the clique
    variables); matrix assembly may intern further monomials on demand, e.g.
    for odd-degree localizing blocks that reach degree 2r+1.
    """

    __slots__ = ("universe", "_positions", "_monomials")

    def __init__(self, universe: VariableUniverse) -> None:
        self.universe = universe
        self._positions: Dict[Monomial, int] = {}
        self._monomials: List[Monomial] = []
        self.intern(Monomial.one())

    @property
    def one_index(self) -> int:
        return 0

    @property
    def n_moments(self) -> int:
        return len(self._monomials)

    @property
    def monomials(self) -> Tuple[Monomial, ...]:
        return tuple(self._monomials)

    def register_range(self, variables: Sequence[VarId], degree: int) -> None:
        """Intern every monomial over ``variables`` up to ``degree``,
        in graded-lex order."""
        for m in MonomialBasis.build(variables, degree).elements:
            self.intern(m)

    def intern(self, mono: Monomial) -> int:
        pos = self._positions.get(mono)
        if pos is None:
            pos = len(self._monomials)
            self._positions[mono] = pos
            self._monomials.append(mono)
        return pos

    def get(self, mono: Monomial) -> int:
        try:
            return self._positions[mono]
        except KeyError:
            raise KeyError(f"monomial {mono!r} not indexed") from None

    def __contains__(self, mono: Monomial) -> bool:
        return mono in self._positions

    def monomial_at(self, pos: int) -> Monomial:
        return self._monomials[pos]


@dataclass
class LinearMatrixMap:
    """Symmetric matrix whose entries are linear forms in the moment vector.

    Only the upper triangle (i <= j) is stored.
    """

    size: int
    entries: Dict[Tuple[int, int], LinearForm] = field(default_factory=dict)

    def set_entry(self, i: int, j: int, form: LinearForm) -> None:
        if not (0 <= i <= j < self.size):
            raise IndexError("entry outside upper triangle")
        self.entries[(i, j)] = form

    def assemble(self, y: np.ndarray) -> np.ndarray:
        """Evaluate the map at a concrete moment vector (dense symmetric)."""
        out = np.zeros((self.size, self.size))
        for (i, j), form in self.entries.items():
            val = sum(c * y[pos] for pos, c in form.items())
            out[i, j] = val
            out[j, i] = val
        return out


def moment_matrix(basis: MonomialBasis, index: MomentIndex) -> LinearMatrixMap:
    """Moment matrix M(y) over the basis: entry (a, b) is y_{a+b}."""
    n = len(basis)
    mat = LinearMatrixMap(n)
    els = basis.elements
    for i in range(n):
        for j in range(i, n):
            mat.set_entry(i, j, {index.intern(els[i] * els[j]): 1.0})
    return mat


def localizing_matrix(
    g: Polynomial, basis: MonomialBasis, index: MomentIndex
) -> LinearMatrixMap:
    """Localizing matrix M(g y): entry (a, b) is L_y(g * a * b)."""
    n = len(basis)
    mat = LinearMatrixMap(n)
    els = basis.elements
    terms = list(g.terms.items())
    for i in range(n):
        for j in range(i, n):
            prod = els[i] * els[j]
            form: LinearForm = {}
            for mono, coef in terms:
                pos = index.intern(prod * mono)
                form[pos] = form.get(pos, 0.0) + coef
            mat.set_entry(i, j, {k: v for k, v in form.items() if v != 0.0})
    return mat


def dirac_moments(point: np.ndarray, index: MomentIndex) -> np.ndarray:
    """Moment vector of the Dirac measure at ``point``.

    ``point`` must assign a value to every variable occurring in the indexed
    monomials (it is indexed by variable id).
    """
    y = np.empty(index.n_moments)
    for pos, mono in enumerate(index.monomials):
        y[pos] = mono.evaluate(point)
    return y
