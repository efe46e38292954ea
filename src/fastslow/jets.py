"""Truncated multivariate power series ("jets") over float coefficients.

A :class:`Jet` is a polynomial in ``num_vars`` variables, truncated at total
degree ``order``.  Its coefficients are one float64 array on the graded
basis of that shape (:class:`_GradedTable`): the constant first, then the
monomials of degree 1..order in graded-lex order, cut after the last degree
block that holds a nonzero coefficient.  A monomial is a row of the
table's exponent array; :class:`MultiIndex` is only the key type of the
public boundary: ``Jet(mapping)``, ``coefficient``, ``terms``, the
read-only ``coeffs`` mapping and :func:`monomials_of_degree`.  Jets are
immutable and all operations are pure functions, so they can be shared
freely across threads.

Truncation bookkeeping: differentiating a jet lowers the degree up to which
its coefficients agree with those of the underlying function.  Every jet
carries a ``reliable_order`` recording that degree; operations propagate it
conservatively.  Callers that need full-order derivatives must build their
source jets one order higher.

Every kernel runs on the arrays.  The product is one gather and one
``np.bincount`` over the table's product pairs; derivatives, shifts and the
variable bookkeeping are index maps between bases.  Composition uses one
matrix Phi per inner vector holding the coefficients of every power product
inner^alpha (:func:`_composition_matrix`), and each outer jet is its
coefficient row times Phi, plus its constant term.  This is the dense
graded-coefficient technique of Jorba and Zou, Exp. Math. 14 (2005).
"""

from __future__ import annotations

import math
from functools import cache, total_ordering
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConstantTermError, StructuralError

__all__ = [
    "MultiIndex",
    "Jet",
    "JetVector",
    "jet_mul",
    "jet_compose",
    "jetvector_compose",
    "jet_partial",
    "jet_shift",
    "jet_reciprocal",
    "jet_linear_map",
    "jet_matrix_inverse",
    "max_coeff_diff",
    "monomials_of_degree",
    "count_monomials",
]


@total_ordering
class MultiIndex:
    """Exponent tuple of a monomial with its total degree cached.

    The ordering is graded lexicographic (compare degree first, then the
    exponent tuple), which is a total order on indices of equal arity.

    Indices are hash-consed: ``MultiIndex(e)`` returns the one instance of
    its exponent tuple, so ``MultiIndex(e) is MultiIndex(list(e))``, and
    every jet holding a monomial shares that instance.  The exponents are
    validated when the instance is first made; a negative or non-integral
    exponent is refused on every call, since no such instance is ever
    stored.  Pickle and ``copy`` go through the constructor and return the
    shared instance.
    """

    __slots__ = ("exponents", "degree", "_hash")

    def __new__(cls, exponents: Iterable[int]) -> "MultiIndex":
        key = exponents if type(exponents) is tuple else tuple(exponents)
        self = _INTERNED.get(key)
        if self is not None:
            return self
        try:
            exps = tuple(map(int, key))
        except (TypeError, ValueError, OverflowError):
            exps = ()
        if exps != key:
            raise StructuralError(f"non-integral exponent in {key}")
        for e in exps:
            if e < 0:
                raise StructuralError(f"negative exponent in {exps}")
        self = super().__new__(cls)
        self.exponents = exps
        self.degree = sum(exps)
        self._hash = hash(exps)
        return _INTERNED.setdefault(exps, self)

    def __reduce__(self):
        return MultiIndex, (self.exponents,)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiIndex) and self.exponents == other.exponents

    def __lt__(self, other: "MultiIndex") -> bool:
        return (self.degree, self.exponents) < (other.degree, other.exponents)

    def __len__(self) -> int:
        return len(self.exponents)

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        return MultiIndex(a + b for a, b in zip(self.exponents, other.exponents))

    def replace(self, var: int, exponent: int) -> "MultiIndex":
        exps = list(self.exponents)
        exps[var] = exponent
        return MultiIndex(exps)

    def __repr__(self) -> str:
        return f"MultiIndex{self.exponents}"


# exponent tuple -> its one MultiIndex; grows with the distinct monomials used
_INTERNED: dict[tuple[int, ...], MultiIndex] = {}


def _as_index(key, num_vars: int) -> MultiIndex:
    idx = key if isinstance(key, MultiIndex) else MultiIndex(key)
    if len(idx) != num_vars:
        raise StructuralError(f"index {idx} has arity {len(idx)}, expected {num_vars}")
    return idx


_EMPTY = np.zeros(0)
_EMPTY.flags.writeable = False


class Jet:
    """Truncated polynomial, stored as its coefficient array on the graded
    basis of (``num_vars``, ``order``): position p holds the monomial with
    exponents ``_GradedTable.exponents[p]`` (p = 0 is the constant).  The array
    ends with the last degree block holding a nonzero coefficient (the zero
    jet's is empty) and holds no negative zero.  Treat instances as
    immutable."""

    __slots__ = ("num_vars", "order", "reliable_order", "_graded", "_coeffs")

    def __init__(self, num_vars: int, order: int,
                 coeffs: Mapping | None = None,
                 reliable_order: int | None = None):
        table = _graded_table(num_vars, order)
        graded = np.zeros(len(table.exponents))
        if coeffs:
            for key, value in coeffs.items():
                idx = _as_index(key, num_vars)
                if idx.degree > order:
                    raise StructuralError(
                        f"index {idx} exceeds truncation order {order}")
                c = float(value)
                if c != 0.0:
                    graded[table.position[idx.exponents]] = c
        self._init(num_vars, order, graded, reliable_order, table)

    def _init(self, num_vars: int, order: int, graded: np.ndarray,
              reliable_order: int | None, table: "_GradedTable") -> None:
        """Store a copy of ``graded`` cut after its top nonzero degree block,
        with negative zeros made positive."""
        self.num_vars = num_vars
        self.order = order
        self.reliable_order = order if reliable_order is None else min(int(reliable_order), order)
        nonzero = graded.nonzero()[0]
        if len(nonzero):
            graded = graded[:table.ends[table.ends.searchsorted(nonzero[-1])] + 1] + 0.0
            graded.flags.writeable = False
        else:
            graded = _EMPTY
        self._graded = graded

    @classmethod
    def _from_graded(cls, num_vars: int, order: int, graded: np.ndarray,
                     reliable_order: int | None = None) -> "Jet":
        """The jet with coefficient array ``graded`` (any length up to the
        basis size; it is copied and trimmed)."""
        self = cls.__new__(cls)
        self._init(num_vars, order, graded, reliable_order, _graded_table(num_vars, order))
        return self

    def __reduce__(self):
        return Jet._from_graded, (self.num_vars, self.order, self._graded,
                                  self.reliable_order)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int, order: int) -> "Jet":
        return cls._from_graded(num_vars, order, _EMPTY)

    @classmethod
    def constant(cls, num_vars: int, order: int, value: float) -> "Jet":
        return cls._from_graded(num_vars, order, np.array([float(value)]))

    @classmethod
    def variable(cls, num_vars: int, order: int, var: int) -> "Jet":
        if not 0 <= var < num_vars:
            raise StructuralError(f"variable index {var} out of range")
        graded = np.zeros(num_vars + 1)
        graded[1 + _graded_table(num_vars, order).var[var]] = 1.0
        return cls._from_graded(num_vars, order, graded)

    @classmethod
    def from_terms(cls, num_vars: int, order: int, terms: Mapping) -> "Jet":
        return cls(num_vars, order, terms)

    # -- queries -----------------------------------------------------------

    def _table(self) -> "_GradedTable":
        return _graded_table(self.num_vars, self.order)

    def _at(self, pos: int | None) -> float:
        return float(self._graded[pos]) if pos is not None and pos < len(self._graded) else 0.0

    @property
    def coeffs(self) -> Mapping[MultiIndex, float]:
        """Read-only mapping of the nonzero terms in graded-lex order, built
        on first use."""
        try:
            return self._coeffs
        except AttributeError:
            self._coeffs = MappingProxyType(dict(self.terms()))
            return self._coeffs

    def coefficient(self, key) -> float:
        return self._at(self._table().position.get(_as_index(key, self.num_vars).exponents))

    @property
    def constant_term(self) -> float:
        return self._at(0)

    @property
    def valuation(self) -> int:
        """Smallest degree with a nonzero coefficient (order+1 if zero jet)."""
        nonzero = self._graded.nonzero()[0]
        if not len(nonzero):
            return self.order + 1
        return int(self._table().ends.searchsorted(nonzero[0]))

    @property
    def degree_max(self) -> int:
        return int(self._table().ends.searchsorted(len(self._graded) - 1))

    def terms(self) -> Iterator[tuple[MultiIndex, float]]:
        return ((MultiIndex(e), c) for c, e in _jet_terms(self))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self._graded), initial=0.0))

    def is_zero(self) -> bool:
        return not len(self._graded)

    def linear_coefficients(self) -> np.ndarray:
        if len(self._graded) <= 1:
            return np.zeros(self.num_vars)
        return self._graded[1 + self._table().var]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Jet)
                and self.num_vars == other.num_vars
                and self.order == other.order
                and np.array_equal(self._graded, other._graded))

    __hash__ = None  # equality compares coefficients, which no hash could follow

    def __repr__(self) -> str:
        terms = list(self.terms())
        inner = ", ".join(f"{i.exponents}:{c:g}" for i, c in terms[:6])
        more = "" if len(terms) <= 6 else f", ... ({len(terms)} terms)"
        return f"Jet[{self.num_vars} vars, order {self.order}]({inner}{more})"

    # -- arithmetic --------------------------------------------------------

    def _check_shape(self, other: "Jet") -> None:
        if self.num_vars != other.num_vars or self.order != other.order:
            raise StructuralError(
                f"jet shape mismatch: ({self.num_vars} vars, order {self.order}) vs "
                f"({other.num_vars} vars, order {other.order})")

    def _like(self, graded: np.ndarray, reliable_order: int | None = None) -> "Jet":
        """A jet of this shape with coefficient array ``graded``."""
        return Jet._from_graded(self.num_vars, self.order, graded,
                                self.reliable_order if reliable_order is None else reliable_order)

    def __add__(self, other) -> "Jet":
        if isinstance(other, (int, float)):
            other = Jet.constant(self.num_vars, self.order, other)
        self._check_shape(other)
        a, b = self._graded, other._graded
        if len(a) < len(b):
            a, b = b, a
        total = a.copy()
        total[:len(b)] += b
        return self._like(total, min(self.reliable_order, other.reliable_order))

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return self._like(-self._graded)

    def __sub__(self, other) -> "Jet":
        if isinstance(other, (int, float)):
            other = Jet.constant(self.num_vars, self.order, other)
        return self + (-other)

    def __rsub__(self, other) -> "Jet":
        return (-self) + other

    def __mul__(self, other) -> "Jet":
        if isinstance(other, (int, float)):
            return self._like(self._graded * float(other))
        return jet_mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Jet":
        if k < 0:
            raise StructuralError("negative jet powers are not defined")
        result = Jet.constant(self.num_vars, self.order, 1.0)
        base = self
        n = k
        while n:
            if n & 1:
                result = jet_mul(result, base)
            n >>= 1
            if n:
                base = jet_mul(base, base)
        return result

    # -- calculus and structure ---------------------------------------------

    def evaluate(self, point: Sequence[float]) -> float:
        return _term_sum(_jet_terms(self), _point_coords(point, self.num_vars))

    def degree_part(self, degree: int) -> "Jet":
        if not 0 <= degree <= self.order:
            return self._like(_EMPTY)
        ends = self._table().ends
        graded = self._graded[:ends[degree] + 1].copy()
        graded[:ends[degree - 1] + 1 if degree else 0] = 0.0
        return self._like(graded)

    def degree_cap(self, degree: int) -> "Jet":
        """Drop every term of total degree above ``degree`` (order unchanged)."""
        if degree < 0:
            return self._like(_EMPTY)
        return self._like(self._graded[:self._table().ends[min(degree, self.order)] + 1])

    def truncated(self, order: int) -> "Jet":
        table = _graded_table(self.num_vars, order)
        return Jet._from_graded(self.num_vars, order, self._graded[:len(table.exponents)],
                                min(self.reliable_order, order))

    def extend_vars(self, num_vars: int, positions: Sequence[int] | None = None) -> "Jet":
        """Embed into a larger variable space; old variable ``i`` becomes
        variable ``positions[i]`` (identity prefix by default)."""
        if positions is None:
            positions = range(self.num_vars)
        positions = tuple(positions)
        if len(positions) != self.num_vars or len(set(positions)) != self.num_vars:
            raise StructuralError("positions must map variables injectively")
        src, dst = _relabel_map(self.num_vars, num_vars, self.order, positions)
        size = len(_graded_table(num_vars, self.order).exponents)
        return Jet._from_graded(num_vars, self.order, _remap(self._graded, src, dst, size),
                                self.reliable_order)

    def subs_zero(self, var: int) -> "Jet":
        """Set one variable to zero (drop every term that carries it)."""
        free = self._table().exponents[:len(self._graded), var] == 0
        return self._like(np.where(free, self._graded, 0.0))

    def drop_var(self, var: int) -> "Jet":
        """Remove a variable the jet does not depend on."""
        carries = self._table().exponents[:len(self._graded), var] != 0
        if self._graded[carries].any():
            raise StructuralError(f"jet depends on variable {var}")
        src, dst = _relabel_map(self.num_vars, self.num_vars - 1, self.order,
                                tuple(None if i == var else i - (i > var)
                                      for i in range(self.num_vars)))
        return Jet._from_graded(self.num_vars - 1, self.order,
                                _remap(self._graded, src, dst, len(self._graded)),
                                self.reliable_order)

    def div_var(self, var: int, power: int = 1) -> "Jet":
        """Exact division by ``x_var**power``; every term must carry it."""
        table = self._table()
        short = np.flatnonzero((table.exponents[:len(self._graded), var] < power)
                               & (self._graded != 0.0))
        if len(short):
            raise StructuralError(f"term {table.rows[short[0]]} not "
                                  f"divisible by variable {var}^{power}")
        src, dst, _ = _shift_map(self.num_vars, self.order, var, -power)
        return self._like(_remap(self._graded, src, dst, len(self._graded)))

    def mul_var(self, var: int, power: int = 1) -> "Jet":
        """Multiply by ``x_var**power``, discarding terms past the order."""
        src, dst, _ = _shift_map(self.num_vars, self.order, var, power)
        return self._like(_remap(self._graded, src, dst, len(self._table().exponents)))


class JetVector:
    """A tuple of jets sharing ``num_vars`` and ``order``.

    May be empty, in which case the shape must be given explicitly."""

    __slots__ = ("components", "num_vars", "order")

    def __init__(self, components: Sequence[Jet],
                 num_vars: int | None = None, order: int | None = None):
        comps = tuple(components)
        if comps:
            num_vars = comps[0].num_vars if num_vars is None else num_vars
            order = comps[0].order if order is None else order
            for c in comps:
                if c.num_vars != num_vars or c.order != order:
                    raise StructuralError("jet vector components disagree on shape")
        elif num_vars is None or order is None:
            raise StructuralError("empty jet vector needs explicit num_vars/order")
        self.components = comps
        self.num_vars = num_vars
        self.order = order

    @classmethod
    def zeros(cls, n: int, num_vars: int, order: int) -> "JetVector":
        return cls([Jet.zero(num_vars, order) for _ in range(n)], num_vars, order)

    @classmethod
    def identity(cls, num_vars: int, order: int) -> "JetVector":
        return cls([Jet.variable(num_vars, order, i) for i in range(num_vars)])

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self) -> Iterator[Jet]:
        return iter(self.components)

    def __getitem__(self, i: int) -> Jet:
        return self.components[i]

    def __eq__(self, other) -> bool:
        return (isinstance(other, JetVector)
                and self.num_vars == other.num_vars
                and self.order == other.order
                and self.components == other.components)

    __hash__ = None

    def __add__(self, other: "JetVector") -> "JetVector":
        if len(other) != len(self):
            raise StructuralError("jet vector length mismatch")
        return JetVector([a + b for a, b in zip(self, other)],
                         self.num_vars, self.order)

    def __sub__(self, other: "JetVector") -> "JetVector":
        if len(other) != len(self):
            raise StructuralError("jet vector length mismatch")
        return JetVector([a - b for a, b in zip(self, other)],
                         self.num_vars, self.order)

    def __mul__(self, scalar: float) -> "JetVector":
        return JetVector([c * scalar for c in self], self.num_vars, self.order)

    __rmul__ = __mul__

    def evaluate(self, point: Sequence[float]) -> np.ndarray:
        return _evaluate_terms([_jet_terms(c) for c in self], self.num_vars, point)

    def linear_matrix(self) -> np.ndarray:
        """Coefficient matrix of the linear part, shape (len, num_vars)."""
        return np.array([c.linear_coefficients() for c in self]).reshape(
            len(self.components), self.num_vars)

    def constant_vector(self) -> np.ndarray:
        return np.array([c.constant_term for c in self])

    def degree_part(self, degree: int) -> "JetVector":
        return JetVector([c.degree_part(degree) for c in self],
                         self.num_vars, self.order)

    def degree_cap(self, degree: int) -> "JetVector":
        return JetVector([c.degree_cap(degree) for c in self],
                         self.num_vars, self.order)

    def max_abs(self) -> float:
        return max((c.max_abs() for c in self.components), default=0.0)

    def __repr__(self) -> str:
        return (f"JetVector[{len(self.components)} comps, {self.num_vars} vars, "
                f"order {self.order}]")


# -- operations -------------------------------------------------------------


def _jet_terms(jet: Jet) -> list[tuple[float, tuple[int, ...]]]:
    """(coefficient, exponent tuple) of each nonzero term, in graded-lex order."""
    nonzero = jet._graded.nonzero()[0]
    rows = jet._table().rows
    return [(c, rows[p]) for c, p in zip(jet._graded[nonzero].tolist(), nonzero.tolist())]


def _point_coords(point: Sequence[float], num_vars: int) -> list[float]:
    if len(point) != num_vars:
        raise StructuralError(
            f"point has {len(point)} coordinates, expected {num_vars}")
    return [float(x) for x in point]


def _term_sum(terms: Iterable[tuple[float, tuple[int, ...]]], p: list[float]) -> float:
    """Sum of ``c * prod(x ** e)`` over (coefficient, exponents) pairs."""
    acc = 0.0
    for c, exps in terms:
        for x, e in zip(p, exps):
            if e == 1:
                c *= x
            elif e:
                c *= x ** e
        acc += c
    return acc


def _evaluate_terms(table: list[list[tuple[float, tuple[int, ...]]]], num_vars: int,
                    point: Sequence[float]) -> np.ndarray:
    """Value at ``point`` of every jet of a table of :func:`_jet_terms`."""
    p = _point_coords(point, num_vars)
    out = np.empty(len(table))
    for i, terms in enumerate(table):
        out[i] = _term_sum(terms, p)
    return out


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Truncated product; bilinear, monomials past the order are discarded.

    The constant-free parts multiply through the product pairs of degree at
    most the product's top degree, summed by one ``np.bincount``."""
    a._check_shape(b)
    x, y = a._graded, b._graded
    reliable = min(a.reliable_order, b.reliable_order)
    if not len(x) or not len(y):
        return a._like(_EMPTY, reliable)
    table = a._table()
    ends = table.ends
    top = min(a.order, int(ends.searchsorted(len(x) - 1) + ends.searchsorted(len(y) - 1)))
    n, q = ends[top], table.pair_ends[top]
    xs, ys = np.zeros(n), np.zeros(n)
    xs[:len(x) - 1], ys[:len(y) - 1] = x[1:], y[1:]
    out = np.empty(n + 1)
    out[0] = x[0] * y[0]
    out[1:] = np.bincount(table.target[:q], weights=xs[table.left[:q]] * ys[table.right[:q]],
                          minlength=n)
    out[1:] += x[0] * ys + y[0] * xs
    return a._like(out, reliable)


def _as_jetvector(inner) -> JetVector:
    if isinstance(inner, JetVector):
        return inner
    return JetVector(list(inner))


def jet_compose(outer: Jet, inner) -> Jet:
    """Composition ``outer(inner_1, ..., inner_m)`` truncated at the shared
    order.  Inner components must have zero constant term; affine shifts are
    handled by re-expanding about the working point (see :func:`jet_shift`).

    The one-jet case of :func:`jetvector_compose`: the outer coefficients
    on the graded basis times the composition matrix of ``inner``."""
    return _compose(JetVector([outer]), inner)[0]


def jetvector_compose(outer: JetVector, inner) -> JetVector:
    """Every component of ``outer`` composed with ``inner``, through one
    composition matrix of ``inner`` (see :func:`jet_compose`)."""
    return _compose(outer, inner)


def _compose(outer, inner, degree: int | None = None) -> JetVector:
    """:func:`jetvector_compose` keeping only the terms of degree <= ``degree``
    (default: the order).  They depend only on the terms of degree <= ``degree``
    of both sides, so a capped composition is the full one, truncated."""
    outer, inner = _as_jetvector(outer), _as_jetvector(inner)
    if len(inner) != outer.num_vars:
        raise StructuralError(
            f"outer has {outer.num_vars} variables but inner has {len(inner)} components")
    if inner.order != outer.order:
        raise StructuralError("composition requires matching truncation orders")
    for k, comp in enumerate(inner):
        if comp.constant_term != 0.0:
            raise ConstantTermError(
                f"inner component {k} has constant term {comp.constant_term!r}")
    m, order = inner.num_vars, inner.order
    degree = order if degree is None else degree
    out_table, in_table = _graded_table(len(inner), order), _graded_table(m, order)
    phi = _composition_matrix(_graded_coeffs(inner, in_table), out_table, in_table, degree)
    coeffs = _graded_coeffs(outer, out_table)[:, :len(phi)]
    reliable = min(c.reliable_order for c in inner)
    comps = []
    for jet, row in zip(outer, coeffs):
        # one vector-matrix product per jet (not one matrix product for all),
        # so that a jet composes to the same bits alone and in a vector
        graded = np.empty(phi.shape[1] + 1)
        graded[0] = jet.constant_term
        graded[1:] = row @ phi
        comps.append(Jet._from_graded(m, order, graded, min(jet.reliable_order, reliable)))
    return JetVector(comps, m, order)


def jet_partial(a: Jet, var: int) -> Jet:
    """Partial derivative.  The stored truncation order is kept, but the
    reliable order drops by one: top-degree coefficients of the derivative
    cannot be recovered from a truncated source."""
    if not 0 <= var < a.num_vars:
        raise StructuralError(f"variable index {var} out of range")
    src, dst, weight = _shift_map(a.num_vars, a.order, var, -1)
    return a._like(_remap(a._graded, src, dst, len(a._graded), weight), a.reliable_order - 1)


def jet_shift(a: Jet, offsets: Sequence[float]) -> Jet:
    """Re-expand about a shifted point: returns ``q`` with ``q(d) = a(d + c)``.

    Exact on the stored polynomial; the usual truncation caveat applies to
    the underlying function."""
    if len(offsets) != a.num_vars:
        raise StructuralError("offset arity mismatch")
    graded = a._graded
    for var, c in enumerate(offsets):
        c = float(c)
        if c == 0.0:
            continue
        src, dst, binom, power = _binomial_map(a.num_vars, a.order, var)
        k = src.searchsorted(len(graded))
        graded = np.bincount(dst[:k], weights=graded[src[:k]] * binom[:k] * c ** power[:k],
                             minlength=len(graded))
    return a._like(graded)


def jet_reciprocal(a: Jet) -> Jet:
    """Multiplicative inverse of a jet with nonzero constant term: the 1 x 1
    case of :func:`jet_matrix_inverse`."""
    if a.constant_term == 0.0:
        raise StructuralError("cannot invert a jet with zero constant term")
    return jet_matrix_inverse([[a]])[0][0]


def jet_matrix_mul(A: Sequence[Sequence[Jet]], B: Sequence[Sequence[Jet]]) -> list[list[Jet]]:
    rows, inner, cols = len(A), len(B), len(B[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = jet_mul(A[i][0], B[0][j])
            for k in range(1, inner):
                acc = acc + jet_mul(A[i][k], B[k][j])
            row.append(acc)
        out.append(row)
    return out


def jet_linear_map(A, jets: Sequence[Jet]) -> list[Jet]:
    """``A @ jets`` for a numeric matrix ``A``: entry i is the sum over j of
    ``A[i, j] * jets[j]``.  A vector ``A`` is one row.  The sum runs over j
    in order on the coefficient arrays, so entry i has the bits of that sum
    of jets."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    jets = list(jets)
    if not jets or A.shape[1] != len(jets):
        raise StructuralError(f"a matrix of shape {A.shape} needs one jet per "
                              f"column (at least one), got {len(jets)}")
    for jet in jets:
        jets[0]._check_shape(jet)
    reliable = min(jet.reliable_order for jet in jets)
    graded = np.zeros((len(jets), max(len(jet._graded) for jet in jets)))
    for row, jet in zip(graded, jets):
        row[:len(jet._graded)] = jet._graded
    acc = A[:, :1] * graded[0]
    for j in range(1, len(jets)):
        acc += A[:, j:j + 1] * graded[j]
    return [jets[0]._like(row, reliable) for row in acc]


def jet_matrix_inverse(M: Sequence[Sequence[Jet]]) -> list[list[Jet]]:
    """Inverse of a square jet matrix with invertible constant part, by
    Newton iteration (quadratic convergence in achieved degree).  A singular
    constant part is refused with :class:`StructuralError`."""
    p = len(M)
    if any(len(row) != p for row in M):
        raise StructuralError("jet matrix must be square")
    num_vars, order = M[0][0].num_vars, M[0][0].order
    M0 = np.array([[M[i][j].constant_term for j in range(p)] for i in range(p)])
    try:
        X0 = np.linalg.inv(M0)
    except np.linalg.LinAlgError:
        raise StructuralError("cannot invert a jet matrix with a singular "
                              "constant part") from None
    X = [[Jet.constant(num_vars, order, X0[i, j]) for j in range(p)] for i in range(p)]
    two_id = [[Jet.constant(num_vars, order, 2.0 if i == j else 0.0)
               for j in range(p)] for i in range(p)]
    for _ in range(max(1, math.ceil(math.log2(order + 1))) + 1):
        MX = jet_matrix_mul(M, X)
        corr = [[two_id[i][j] - MX[i][j] for j in range(p)] for i in range(p)]
        X = jet_matrix_mul(X, corr)
    return X


def max_coeff_diff(a: Jet | JetVector, b: Jet | JetVector) -> float:
    """Largest absolute coefficient of ``a - b``."""
    if isinstance(a, JetVector):
        return max((max_coeff_diff(x, y) for x, y in zip(a, b)), default=0.0)
    diff = a - b
    return diff.max_abs()


def monomials_of_degree(num_vars: int, degree: int) -> list[MultiIndex]:
    """All exponent tuples of the given total degree, graded-lex sorted, as
    the shared :class:`MultiIndex` instances."""
    if num_vars < 1:
        raise StructuralError(f"num_vars must be >= 1, got {num_vars}")
    E = _graded_exponents(num_vars, max(degree, 0))
    return [MultiIndex(tuple(e)) for e in E[E.sum(axis=1) == degree].tolist()]


def count_monomials(num_vars: int, degree: int) -> int:
    return math.comb(degree + num_vars - 1, degree)


# -- the graded monomial basis ----------------------------------------------

# cap on the size of a jet shape's tables (m variables): the exponents of
# the basis, m C(m + order, m), and C(2m + order, 2m), a bound on the product
# pairs, so that no input builds tables of gigabytes
_SHAPE_CAP = 500_000


class _GradedTable:
    """The graded basis of jets in ``num_vars`` variables to ``order``, and
    the index tables of the kernels that run on it.

    A monomial is a row of ``exponents``: the constant, then the D
    monomials of degree 1..order in graded-lex order, the layout of a jet's
    coefficient array.  ``ends[d]`` counts the monomials of degree 1..d, so
    the degree-d ones are rows ``ends[d-1]+1:ends[d]+1``.  Arrays without
    the constant (fields, inner vectors) have row a + 1 in column a, and
    ``var[i]`` is that column of x_i (graded lex lists x_{m-1} first).
    ``rows`` (the rows as tuples), ``position`` (their inverse), the
    derivation triples and the product table are built on first use.
    A field V is an (m, D) array with ``V[j, a]`` the coefficient of
    monomial a in V_j.  Triple t adds ``V.flat[coeff[t]] * weight[t]`` to
    the operator entry in row ``row[t]`` and column ``col[t]``: column b =
    x^beta, weight beta_j, row x^(alpha + beta - e_j) for coeff = j D +
    alpha.  Triples are sorted by (row, column); a row never has a lower
    degree than its column, so the first ``triple_ends[d]`` triples build
    the leading block on degrees 1..d.

    The product table lists every pair of monomials ``left[q]``,
    ``right[q]`` whose product ``target[q]`` has degree <= order, sorted by
    that degree, so the first ``pair_ends[d]`` pairs are the products on
    degrees 1..d."""

    _TRIPLES = ("row", "col", "coeff", "weight", "triple_ends")
    _PAIRS = ("left", "right", "target", "pair_ends")

    def __init__(self, num_vars: int, order: int):
        if num_vars < 1:
            raise StructuralError(f"num_vars must be >= 1, got {num_vars}")
        if order < 1:
            raise StructuralError(f"order must be >= 1, got {order}")
        m = num_vars
        if max(m * math.comb(m + order, m), math.comb(2 * m + order, order)) > _SHAPE_CAP:
            raise StructuralError(f"jets in {m} variables to order {order} are too "
                                  f"large for the dense graded basis")
        self.order = order
        ends = np.array([math.comb(m + d, d) - 1 for d in range(order + 1)])
        self._freeze(exponents=_graded_exponents(m, order), ends=ends,
                     var=_graded_rank(np.eye(m, dtype=np.int64), ends))

    def __getattr__(self, name: str):
        if name in _GradedTable._TRIPLES:
            self._build_triples()
        elif name in _GradedTable._PAIRS:
            self._build_pairs()
        elif name in ("rows", "position"):
            self.rows = list(map(tuple, self.exponents.tolist()))
            self.position = {e: p for p, e in enumerate(self.rows)}
        else:
            raise AttributeError(name)
        return self.__dict__[name]

    def _build_triples(self) -> None:
        E = self.exponents[1:]
        size, m = E.shape
        columns = np.ascontiguousarray(E.T)
        degree = columns.sum(axis=0)
        # the columns x^beta with beta_j > 0, j-major, and gamma = beta - e_j;
        # alpha runs over the monomials of degree <= order + 1 - |beta|, a
        # prefix of the basis
        var, beta = np.nonzero(columns)
        gamma = np.take(columns, beta, axis=1)
        gamma[var, np.arange(len(var))] -= 1
        pair, alpha = _prefix_pairs(np.arange(len(beta)),
                                    self.ends[self.order + 1 - degree[beta]])
        col, j = beta[pair], var[pair]
        row = _graded_rank((np.take(columns, alpha, axis=1) + np.take(gamma, pair, axis=1)).T,
                           self.ends)
        # a (row, column) entry has at most one triple per j, so sorting by
        # (row, column, j) orders the triples of an entry by j
        perm = np.argsort((row * size + col) * m + j)
        row, col, j = row[perm], col[perm], j[perm]
        self._freeze(row=row, col=col, coeff=j * size + alpha[perm],
                     weight=columns.ravel()[j * size + col].astype(float),
                     triple_ends=np.searchsorted(row, self.ends))

    def _build_pairs(self) -> None:
        E = self.exponents[1:]
        degree = E.sum(axis=1)
        left, right = _prefix_pairs(np.arange(len(E)), self.ends[self.order - degree])
        total = degree[left] + degree[right]
        perm = np.argsort(total, kind="stable")
        left, right = left[perm], right[perm]
        self._freeze(left=left, right=right,
                     target=_graded_rank(E[left] + E[right], self.ends),
                     pair_ends=np.searchsorted(total[perm], np.arange(self.order + 1),
                                               side="right"))

    def _freeze(self, **arrays: np.ndarray) -> None:
        for name, arr in arrays.items():
            arr.flags.writeable = False
            setattr(self, name, arr)


def _graded_exponents(num_vars: int, order: int) -> np.ndarray:
    """Exponents of the monomials of degree 0..``order`` in ``num_vars``
    variables, in graded-lex order.  Variables are put in front one at a
    time: in degree d, rows (e, t) run over e = 0..d, then over the rows t
    of degree d - e in the later variables."""
    E = np.zeros((1, 0), dtype=np.int64)
    sizes = np.eye(1, order + 1, dtype=np.int64)[0]  # rows of E of each degree
    degree, first = _prefix_pairs(np.arange(order + 1), np.arange(1, order + 2))
    for _ in range(num_vars):
        counts = sizes[degree - first]
        start, offset = _prefix_pairs((np.cumsum(sizes) - sizes)[degree - first], counts)
        E = np.column_stack((np.repeat(first, counts), E[start + offset]))
        sizes = np.cumsum(sizes)
    return E


def _prefix_pairs(rows: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (row, b) for b in 0..counts[i]-1 of each ``rows[i]``: with the
    basis in graded order, each row meets a prefix of the basis."""
    return (np.repeat(rows, counts),
            np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts))


def _graded_rank(E: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Positions of the rows of ``E``, exponents of degree 0..order, among
    the monomials of degree 1..order: the constant ranks -1, so a row's
    position in a jet's coefficient array is 1 + its rank.

    Within degree d, the tuples that share the first i exponents of e and
    have a smaller i-th one number C(r + k, k) - C(r - e_i + k, k), where
    r = d - e_0 - ... - e_{i-1} and k = m - 1 - i slots remain after i.
    It runs on the columns of ``E``, one exponent of every row at a time."""
    m = E.shape[1]
    columns = E.T
    degree = columns.sum(axis=0)
    rank = np.concatenate(([-1], ends))[degree]
    r = degree
    for i in range(m - 1):
        k = m - 1 - i
        comb = np.array([math.comb(n + k, k) for n in range(int(degree.max(initial=0)) + 1)])
        rank = rank + comb[r] - comb[r - columns[i]]
        r = r - columns[i]
    return rank


@cache
def _graded_table(num_vars: int, order: int) -> _GradedTable:
    return _GradedTable(num_vars, order)


# -- index maps of the structural operations, one per shape and argument -----


def _remap(graded: np.ndarray, src: np.ndarray, dst: np.ndarray, size: int,
           weight: np.ndarray | None = None) -> np.ndarray:
    """The length-``size`` array with ``graded[src] (* weight)`` at ``dst``,
    for increasing ``src`` and one source per destination; sources past
    ``graded`` are zero."""
    k = src.searchsorted(len(graded))
    out = np.zeros(size)
    out[dst[:k]] = graded[src[:k]] if weight is None else graded[src[:k]] * weight[:k]
    return out


@cache
def _shift_map(num_vars: int, order: int, var: int,
               power: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x^alpha -> x^(alpha + power e_var) on the basis, for the monomials
    whose image has degree 0..order, with the falling factorial
    alpha_var!/(alpha_var + power)! of a derivative for power < 0."""
    table = _graded_table(num_vars, order)
    E = table.exponents
    image = E.copy()
    image[:, var] += power
    src = np.flatnonzero((image[:, var] >= 0) & (image.sum(axis=1) <= order))
    falling = np.ones(len(src))
    for i in range(-power):
        falling *= E[src, var] - i
    return src, 1 + _graded_rank(image[src], table.ends), falling


@cache
def _relabel_map(num_vars: int, wide: int, order: int,
                 positions: tuple[int | None, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The monomials free of each variable i with ``positions[i]`` None onto
    the basis in ``wide`` variables, variable i moved to ``positions[i]``."""
    E = _graded_table(num_vars, order).exponents
    kept = [i for i, p in enumerate(positions) if p is not None]
    src = np.flatnonzero(E.sum(axis=1) == E[:, kept].sum(axis=1))
    image = np.zeros((len(src), wide), dtype=np.int64)
    image[:, [positions[i] for i in kept]] = E[np.ix_(src, kept)]
    return src, 1 + _graded_rank(image, _graded_table(wide, order).ends)


@cache
def _binomial_map(num_vars: int, order: int,
                  var: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(src, dst, C(e, j), e - j) for x^alpha -> x^alpha with alpha_var = e
    replaced by j = 0..e: the terms of (x_var + c)^e, by increasing src."""
    table = _graded_table(num_vars, order)
    E = table.exponents
    e = E[:, var]
    src, j = _prefix_pairs(np.arange(len(E)), e + 1)
    image = E[src].copy()
    image[:, var] = j
    binom = np.array([math.comb(int(a), int(b)) for a, b in zip(e[src], j)], dtype=float)
    return src, 1 + _graded_rank(image, table.ends), binom, (e[src] - j).astype(float)


# -- packing for the graded kernels ------------------------------------------


def _graded_coeffs(jets: Iterable[Jet], table: _GradedTable) -> np.ndarray:
    """(len(jets), D) coefficients of each jet on the graded basis of
    ``table``: each jet's array without the constant, cut or padded to the
    table's order."""
    jets = list(jets)
    out = np.zeros((len(jets), table.ends[-1]))
    for row, jet in zip(out, jets):
        graded = jet._graded[1:len(row) + 1]
        row[:len(graded)] = graded
    return out


def _graded_jets(coeffs: np.ndarray, table: _GradedTable, num_vars: int, order: int,
                 reliable_order: int | None = None) -> list[Jet]:
    """Jets (storage order ``order``) from rows of graded-basis coefficients."""
    return [Jet._from_graded(num_vars, order, np.concatenate(([0.0], row)), reliable_order)
            for row in coeffs]


def _mul_matrix(graded: np.ndarray, table: _GradedTable, degree: int) -> np.ndarray:
    """Truncated multiplication by the jet with coefficient array ``graded``
    on the basis of degree 0..``degree``: row s holds the coefficients of
    the monomial ``table.exponents[s]`` times the jet.  Each entry is one coefficient of the
    jet; nothing sums."""
    n = table.ends[degree] + 1
    c = np.zeros(n)
    c[:min(n, len(graded))] = graded[:n]
    mult = np.zeros((n, n))
    mult[0] = c
    mult[np.arange(1, n), np.arange(1, n)] = c[0]
    q = table.pair_ends[degree]
    mult[1 + table.left[:q], 1 + table.target[:q]] = c[1 + table.right[:q]]
    return mult


def _derivation(V: np.ndarray, table: _GradedTable, degree: int) -> np.ndarray:
    """D_V as a dense matrix on the monomials of degree 1..``degree``, for a
    field ``V`` given on the graded basis of ``table``.  Each entry sums its
    triples in one fixed order, so equal fields give equal bits."""
    n, t = table.ends[degree], table.triple_ends[degree]
    data = np.bincount(table.row[:t] * n + table.col[:t],
                       weights=V.ravel()[table.coeff[:t]] * table.weight[:t],
                       minlength=n * n)
    return data.reshape(n, n)


def _composition_matrix(inner: np.ndarray, out_table: _GradedTable,
                        in_table: _GradedTable, degree: int) -> np.ndarray:
    """Phi on the monomials of degree 1..``degree``: row a holds the
    coefficients of inner^alpha on the basis of ``in_table``, for
    x^alpha in row a + 1 of ``out_table.exponents`` and an inner vector given as an
    (m, D) array on that basis (it has no constant terms).

    Rows are built degree by degree, Phi[alpha] = Phi[alpha - e_j] M_j, with
    x_j the first variable of x^alpha and M_j the matrix of truncated
    multiplication by inner_j.  In graded lex the monomials of degree d whose
    first variable is x_j are one run, and alpha -> alpha - e_j maps it in
    order onto the run of degree d-1 monomials free of x_0..x_{j-1}; those
    have first variables x_j and later, so j runs from the last variable
    down.  inner^alpha has no term below degree |alpha|, so only the
    columns from there on are multiplied."""
    m = len(inner)
    ends_out, ends_in = out_table.ends, in_table.ends
    n = ends_in[degree]
    phi = np.zeros((ends_out[degree], n))
    phi[out_table.var] = inner[:, :n]
    for j in reversed(range(m)):
        mult = _mul_matrix(np.concatenate(([0.0], inner[j])), in_table, degree)[1:, 1:]
        k = m - 1 - j  # variables after x_j
        for d in range(2, degree + 1):
            start = ends_out[d - 1] + (math.comb(d + k - 1, k - 1) if k else 0)
            stop = ends_out[d - 1] + math.comb(d + k, k)
            src, lo, hi = ends_out[d - 2], ends_in[d - 2], ends_in[d - 1]
            phi[start:stop, hi:] = phi[src:src + stop - start, lo:] @ mult[lo:, hi:]
    return phi
