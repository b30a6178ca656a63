"""Monomial rows and keys, bases, moment indexing, and localizing forms.

A monomial is the sorted multiset of its variable ids (x0^2 x3 is 0, 0, 3).
An array of monomials is an integer array of such rows, padded in front with
-1 to a common width; a product of monomials is a concatenation of rows,
sorted again.  Read as the digits id + 1 in base ``n_vars + 1``, a row packs
into one integer key that does not depend on the padding
(``monomial_keys``).  Rows are the one monomial format from relaxation
assembly to extraction: a relaxation lists the monomial row of every moment,
and consumers find moments by key (``key_positions``) and evaluate them at
points (``monomial_values``).

A truncated moment sequence y is stored as a flat vector indexed by a
``MomentIndex``: a global key-to-position map shared by all cliques, so that
monomials supported on clique intersections receive a single moment
variable.  ``localizing_forms`` builds the entries of many moment and
localizing matrices (and equality rows) at once: one sort of all product
rows and one interning pass.  ``LinearMatrixMap`` holds such a matrix —
symmetric, with upper-triangle entries that are affine forms in y.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement
from typing import Sequence, Tuple

import numpy as np

from .polynomial import Monomial, Polynomial, VariableUniverse, VarId


def local_basis(n_vars: int, degree: int) -> np.ndarray:
    """Rows (width ``degree``) of all monomials of degree <= ``degree`` over
    the local variables 0..n_vars-1, in graded-lex order (constant first).

    Within one degree, graded-lex order is the reverse lexicographic order
    of the sorted rows: a lower variable id is more significant and a higher
    exponent larger."""
    parts = [np.full((1, degree), -1, dtype=np.int64)]
    for d in range(1, degree + 1):
        combos = np.fromiter(
            chain.from_iterable(combinations_with_replacement(range(n_vars), d)),
            dtype=np.int64,
        ).reshape(-1, d)
        part = np.full((len(combos), degree), -1, dtype=np.int64)
        part[:, degree - d :] = combos[::-1]
        parts.append(part)
    return np.concatenate(parts)


def basis_rows(variables: Sequence[VarId], degree: int) -> np.ndarray:
    """``local_basis`` over the given (distinct) variable ids."""
    if len(set(variables)) != len(variables):
        raise ValueError("duplicate variables in basis")
    # The trailing -1 maps the padding (local -1) to itself.
    ids = np.array(sorted(variables) + [-1], dtype=np.int64)
    return ids[local_basis(len(variables), degree)]


def monomial_rows(monos: Sequence[Monomial], width: int) -> np.ndarray:
    """Rows of the given monomials, each of degree <= ``width``."""
    rows = []
    for mono in monos:
        ids = [v for v, e in mono.exps for _ in range(e)]
        rows.append([-1] * (width - len(ids)) + ids)
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


def monomial_values(rows: np.ndarray, point: Sequence[float]) -> np.ndarray:
    """The monomials of the rows at ``point`` (indexed by variable id): per
    row, the product of ``point[v] ** e`` over its variables v with
    exponents e, in increasing v from 1.0.  Each power raises an array to a
    Python int, one exponent at a time, so every value agrees bit for bit
    with ``Polynomial.evaluate_many``."""
    n, width = rows.shape
    # Exponent of each run of equal ids, at the run's last position.
    run = np.ones((n, width), dtype=np.int64)
    for k in range(1, width):
        run[:, k] += np.where(rows[:, k] == rows[:, k - 1], run[:, k - 1], 0)
    last = rows >= 0
    last[:, :-1] &= rows[:, :-1] != rows[:, 1:]
    pairs, inverse = np.unique(rows[last] * (width + 1) + run[last], return_inverse=True)
    ids, exponents = np.divmod(pairs, width + 1)
    x = np.asarray(point, dtype=float)
    powers = np.empty(len(pairs))
    for e in np.unique(exponents).tolist():
        at = exponents == e
        powers[at] = x[ids[at]] ** e
    factors = np.ones((n, width))
    factors[last] = powers[inverse]
    values = np.ones(n)
    for column in factors.T:
        values *= column
    return values


def monomial_keys(rows: np.ndarray, n_vars: int) -> np.ndarray:
    """One integer key per row: its digits id + 1 in base n_vars + 1 (the
    padding reads as leading zeros).  Python integers (object dtype) carry
    keys too wide for int64."""
    base = n_vars + 1
    dtype = np.int64 if base ** rows.shape[1] <= np.iinfo(np.int64).max else object
    keys = np.zeros(len(rows), dtype=dtype)
    for column in rows.T:
        keys = keys * base + (column + 1).astype(dtype)
    return keys


def key_rows(keys: np.ndarray, n_vars: int) -> np.ndarray:
    """The rows of ``monomial_keys`` (inverse map), as narrow as possible."""
    base = n_vars + 1
    columns = []
    rest = keys
    while np.any(rest > 0):
        columns.append((rest % base).astype(np.int64) - 1)
        rest = rest // base
    return np.stack(columns[::-1], axis=1) if columns else np.zeros((len(keys), 0), np.int64)


def key_positions(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Positions in ``keys`` (distinct) of the ``query`` keys, -1 where
    absent."""
    order = np.argsort(keys)
    at = np.minimum(np.searchsorted(keys[order], query), order.size - 1)
    return np.where(keys[order[at]] == query, order[at], -1)


class MomentIndex:
    """Global dictionary of moment variables keyed by monomial key.

    The constant monomial always occupies position 0.  Relaxation assembly
    interns every clique's full monomial range up front (everything of
    degree <= 2r over the clique variables), then the products of its
    localizing forms, which reach degree 2r+1 only for paired odd-degree
    inequalities and odd-degree equalities.  New monomials take positions in
    order of first occurrence.
    """

    __slots__ = ("universe", "keys")

    def __init__(self, universe: VariableUniverse) -> None:
        self.universe = universe
        self.keys = monomial_keys(np.zeros((1, 0), dtype=np.int64), len(universe))

    @property
    def n_moments(self) -> int:
        return len(self.keys)

    def intern(self, rows: np.ndarray) -> np.ndarray:
        """Positions of the monomial rows, adding the absent ones."""
        known = len(self.keys)
        stacked = np.concatenate([self.keys, monomial_keys(rows, len(self.universe))])
        unique, first, inverse = np.unique(stacked, return_index=True, return_inverse=True)
        order = np.argsort(first)
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        self.keys = unique[order]
        return position[inverse[known:]]

    def lookup(self, rows: np.ndarray) -> np.ndarray:
        """Positions of the monomial rows, -1 where absent."""
        return key_positions(self.keys, monomial_keys(rows, len(self.universe)))


def term_sums(
    constants: np.ndarray,
    counts: np.ndarray,
    indices: np.ndarray,
    coefficients: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """constants[e] + sum_k coefficients[k] y[indices[k]] for every e, over
    its counts[e] terms k (the terms of e follow those of e - 1), each summed
    term by term in order from its constant."""
    values = np.array(constants, dtype=float)
    starts = np.cumsum(counts) - counts
    for k in range(int(np.max(counts, initial=0))):
        live = np.flatnonzero(counts > k)
        term = starts[live] + k
        values[live] += coefficients[term] * y[indices[term]]
    return values


@dataclass(frozen=True, eq=False)
class LinearMatrixMap:
    """Symmetric matrix whose entries are affine forms in the moment vector.

    Only the upper triangle is stored, one entry e per nonzero position
    (rows[e] <= cols[e]): its value is constants[e] + sum_k coefficients[k]
    y[indices[k]] over k in indptr[e]:indptr[e + 1].
    """

    size: int
    rows: np.ndarray
    cols: np.ndarray
    constants: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (
            ("rows", np.int64),
            ("cols", np.int64),
            ("constants", float),
            ("indptr", np.int64),
            ("indices", np.int64),
            ("coefficients", float),
        ):
            array = np.asarray(getattr(self, name), dtype=dtype).view()
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        entries = len(self.rows)
        if not (
            len(self.cols) == len(self.constants) == entries
            and len(self.indptr) == entries + 1
            and self.indptr[0] == 0
            and np.all(np.diff(self.indptr) >= 0)
            and self.indptr[-1] == len(self.indices) == len(self.coefficients)
        ):
            raise ValueError("inconsistent entry arrays")
        if np.any((self.rows < 0) | (self.rows > self.cols) | (self.cols >= self.size)):
            raise ValueError("block entry outside the upper triangle")

    def assemble(self, y: np.ndarray) -> np.ndarray:
        """Evaluate the map at a concrete moment vector (dense symmetric)."""
        out = np.zeros((self.size, self.size))
        counts = np.diff(self.indptr)
        values = term_sums(self.constants, counts, self.indices, self.coefficients, y)
        out[self.rows, self.cols] = values
        out[self.cols, self.rows] = values
        return out

    def nonzero_count(self) -> int:
        """Nonzero coefficients in the full (square) vectorization."""
        counts = np.diff(self.indptr)
        return int(np.sum(np.where(self.rows == self.cols, counts, 2 * counts)))


def localizing_forms(
    index: MomentIndex, products: Sequence[np.ndarray], polys: Sequence[Polynomial]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The raw forms L_y(p_k m) for every monomial row m of ``products[k]``.

    Forms are numbered through all rows of all products in order.  Returns
    (form, position, coefficient) per nonzero, each form's nonzeros in the
    term order of its polynomial.  The product monomials are interned in
    that order."""
    counts = np.array([len(rows) for rows in products], dtype=np.int64)
    width = max((rows.shape[1] for rows in products), default=0)
    entry_rows = np.full((int(counts.sum()), width), -1, dtype=np.int64)
    ends = np.cumsum(counts)
    for rows, end in zip(products, ends):
        entry_rows[end - len(rows) : end, width - rows.shape[1] :] = rows

    term_width = max((p.degree for p in polys), default=0)
    sizes, monos, coefs = [], [], []
    for p in polys:
        terms = p.terms
        sizes.append(len(terms))
        monos.extend(terms)
        coefs.extend(terms.values())
    term_rows = monomial_rows(monos, term_width)
    sizes = np.array(sizes, dtype=np.int64)
    term_start = np.cumsum(sizes) - sizes

    piece = np.repeat(np.arange(len(products)), counts)
    per_form = sizes[piece]
    form = np.repeat(np.arange(piece.size), per_form)
    term = np.repeat(term_start[piece] - (np.cumsum(per_form) - per_form), per_form)
    term += np.arange(form.size)
    product = np.sort(
        np.concatenate([entry_rows[form], term_rows[term]], axis=1), axis=1
    )
    degree = int(np.max(np.sum(product >= 0, axis=1), initial=0))
    product = product[:, product.shape[1] - degree :]
    return form, index.intern(product), np.array(coefs, dtype=float)[term]


def pair_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs i <= j of basis rows in row-major order, and the rows of
    their products b_i b_j (unsorted concatenations)."""
    i, j = np.triu_indices(len(rows))
    return i, j, np.concatenate([rows[i], rows[j]], axis=1)
