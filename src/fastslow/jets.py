"""Truncated multivariate power series ("jets") over float coefficients.

A :class:`Jet` is a polynomial in ``num_vars`` variables, truncated at total
degree ``order``, stored sparsely: a coefficient is present if and only if it
is nonzero.  Jets are immutable after construction and all operations are
pure functions, so they can be shared freely across threads.

Truncation bookkeeping: differentiating a jet lowers the degree up to which
its coefficients agree with those of the underlying function.  Every jet
carries a ``reliable_order`` recording that degree; operations propagate it
conservatively.  Callers that need full-order derivatives must build their
source jets one order higher.

Composition runs on the graded monomial basis (:class:`_GradedTable`): the
constant-free monomials of degree 1..order in graded-lex order.  One matrix
Phi per inner vector holds the coefficients of every power product
inner^alpha (:func:`_composition_matrix`), and each outer jet is its
coefficient row times Phi, plus its constant term.  This is the dense
graded-coefficient technique of Jorba and Zou, Exp. Math. 14 (2005).
"""

from __future__ import annotations

import math
from functools import lru_cache, total_ordering
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
    validated when the instance is first made; a negative exponent is
    refused on every call, since no such instance is ever stored.  Pickle
    and ``copy`` go through the constructor and return the shared instance.
    """

    __slots__ = ("exponents", "degree", "_hash")

    def __new__(cls, exponents: Iterable[int]) -> "MultiIndex":
        key = exponents if type(exponents) is tuple else tuple(exponents)
        self = _INTERNED.get(key)
        if self is not None:
            return self
        exps = tuple(int(e) for e in key)
        self = _INTERNED.get(exps)
        if self is not None:
            return self
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


class Jet:
    """Sparse truncated polynomial.  Treat instances as immutable."""

    __slots__ = ("num_vars", "order", "coeffs", "reliable_order")

    def __init__(self, num_vars: int, order: int,
                 coeffs: Mapping | None = None,
                 reliable_order: int | None = None):
        if num_vars < 1:
            raise StructuralError(f"num_vars must be >= 1, got {num_vars}")
        if order < 1:
            raise StructuralError(f"order must be >= 1, got {order}")
        self.num_vars = num_vars
        self.order = order
        clean: dict[MultiIndex, float] = {}
        if coeffs:
            for key, value in coeffs.items():
                idx = _as_index(key, num_vars)
                if idx.degree > order:
                    raise StructuralError(
                        f"index {idx} exceeds truncation order {order}")
                c = float(value)
                if c != 0.0:
                    clean[idx] = c
        self.coeffs = clean
        self.reliable_order = order if reliable_order is None else min(int(reliable_order), order)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int, order: int) -> "Jet":
        return cls(num_vars, order)

    @classmethod
    def constant(cls, num_vars: int, order: int, value: float) -> "Jet":
        return cls(num_vars, order, {(0,) * num_vars: value})

    @classmethod
    def variable(cls, num_vars: int, order: int, var: int) -> "Jet":
        if not 0 <= var < num_vars:
            raise StructuralError(f"variable index {var} out of range")
        exps = [0] * num_vars
        exps[var] = 1
        return cls(num_vars, order, {tuple(exps): 1.0})

    @classmethod
    def from_terms(cls, num_vars: int, order: int, terms: Mapping) -> "Jet":
        return cls(num_vars, order, terms)

    # -- queries -----------------------------------------------------------

    def coefficient(self, key) -> float:
        return self.coeffs.get(_as_index(key, self.num_vars), 0.0)

    @property
    def constant_term(self) -> float:
        return self.coeffs.get(MultiIndex((0,) * self.num_vars), 0.0)

    @property
    def valuation(self) -> int:
        """Smallest degree with a nonzero coefficient (order+1 if zero jet)."""
        if not self.coeffs:
            return self.order + 1
        return min(i.degree for i in self.coeffs)

    @property
    def degree_max(self) -> int:
        return max((i.degree for i in self.coeffs), default=0)

    def terms(self) -> Iterator[tuple[MultiIndex, float]]:
        for idx in sorted(self.coeffs):
            yield idx, self.coeffs[idx]

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def linear_coefficients(self) -> np.ndarray:
        out = np.zeros(self.num_vars)
        for var in range(self.num_vars):
            exps = [0] * self.num_vars
            exps[var] = 1
            out[var] = self.coeffs.get(MultiIndex(exps), 0.0)
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, Jet)
                and self.num_vars == other.num_vars
                and self.order == other.order
                and self.coeffs == other.coeffs)

    __hash__ = None  # mutable dict inside; identity hashing would mislead

    def __repr__(self) -> str:
        inner = ", ".join(f"{i.exponents}:{c:g}" for i, c in list(self.terms())[:6])
        more = "" if len(self.coeffs) <= 6 else f", ... ({len(self.coeffs)} terms)"
        return f"Jet[{self.num_vars} vars, order {self.order}]({inner}{more})"

    # -- arithmetic --------------------------------------------------------

    def _check_shape(self, other: "Jet") -> None:
        if self.num_vars != other.num_vars or self.order != other.order:
            raise StructuralError(
                f"jet shape mismatch: ({self.num_vars} vars, order {self.order}) vs "
                f"({other.num_vars} vars, order {other.order})")

    def __add__(self, other) -> "Jet":
        if isinstance(other, (int, float)):
            other = Jet.constant(self.num_vars, self.order, other)
        self._check_shape(other)
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = out.get(idx, 0.0) + c
        return Jet(self.num_vars, self.order, out,
                   min(self.reliable_order, other.reliable_order))

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return Jet(self.num_vars, self.order,
                   {i: -c for i, c in self.coeffs.items()}, self.reliable_order)

    def __sub__(self, other) -> "Jet":
        if isinstance(other, (int, float)):
            other = Jet.constant(self.num_vars, self.order, other)
        return self + (-other)

    def __rsub__(self, other) -> "Jet":
        return (-self) + other

    def __mul__(self, other) -> "Jet":
        if isinstance(other, (int, float)):
            s = float(other)
            return Jet(self.num_vars, self.order,
                       {i: c * s for i, c in self.coeffs.items()}, self.reliable_order)
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

    def partial(self, var: int) -> "Jet":
        return jet_partial(self, var)

    def evaluate(self, point: Sequence[float]) -> float:
        return _term_sum(((c, idx.exponents) for idx, c in self.coeffs.items()),
                         _point_coords(point, self.num_vars))

    def degree_part(self, degree: int) -> "Jet":
        return Jet(self.num_vars, self.order,
                   {i: c for i, c in self.coeffs.items() if i.degree == degree},
                   self.reliable_order)

    def degree_cap(self, degree: int) -> "Jet":
        """Drop every term of total degree above ``degree`` (order unchanged)."""
        return Jet(self.num_vars, self.order,
                   {i: c for i, c in self.coeffs.items() if i.degree <= degree},
                   self.reliable_order)

    def truncated(self, order: int) -> "Jet":
        return Jet(self.num_vars, order,
                   {i: c for i, c in self.coeffs.items() if i.degree <= order},
                   min(self.reliable_order, order))

    def extend_vars(self, num_vars: int, positions: Sequence[int] | None = None) -> "Jet":
        """Embed into a larger variable space; old variable ``i`` becomes
        variable ``positions[i]`` (identity prefix by default)."""
        if positions is None:
            positions = range(self.num_vars)
        positions = list(positions)
        if len(positions) != self.num_vars or len(set(positions)) != self.num_vars:
            raise StructuralError("positions must map variables injectively")
        out = {}
        for idx, c in self.coeffs.items():
            exps = [0] * num_vars
            for old, new in enumerate(positions):
                exps[new] = idx.exponents[old]
            out[tuple(exps)] = c
        return Jet(num_vars, self.order, out, self.reliable_order)

    def subs_zero(self, var: int) -> "Jet":
        """Set one variable to zero (drop every term that carries it)."""
        return Jet(self.num_vars, self.order,
                   {i: c for i, c in self.coeffs.items() if i.exponents[var] == 0},
                   self.reliable_order)

    def drop_var(self, var: int) -> "Jet":
        """Remove a variable the jet does not depend on."""
        out = {}
        for idx, c in self.coeffs.items():
            if idx.exponents[var] != 0:
                raise StructuralError(f"jet depends on variable {var}")
            exps = idx.exponents[:var] + idx.exponents[var + 1:]
            out[exps] = c
        return Jet(self.num_vars - 1, self.order, out, self.reliable_order)

    def div_var(self, var: int, power: int = 1) -> "Jet":
        """Exact division by ``x_var**power``; every term must carry it."""
        out = {}
        for idx, c in self.coeffs.items():
            e = idx.exponents[var]
            if e < power:
                raise StructuralError(
                    f"term {idx.exponents} not divisible by variable {var}^{power}")
            out[idx.replace(var, e - power)] = c
        return Jet(self.num_vars, self.order, out, self.reliable_order)

    def mul_var(self, var: int, power: int = 1) -> "Jet":
        """Multiply by ``x_var**power``, discarding terms past the order."""
        out = {}
        for idx, c in self.coeffs.items():
            if idx.degree + power <= self.order:
                out[idx.replace(var, idx.exponents[var] + power)] = c
        return Jet(self.num_vars, self.order, out, self.reliable_order)

    def shift(self, offsets: Sequence[float]) -> "Jet":
        return jet_shift(self, offsets)


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
        return _evaluate_terms(_term_table(self), self.num_vars, point)

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


def _term_table(jets: Iterable[Jet]) -> list[list[tuple[float, tuple[int, ...]]]]:
    """(coefficient, exponents) pairs of each jet, in storage order."""
    return [[(c, idx.exponents) for idx, c in jet.coeffs.items()] for jet in jets]


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
    """Value at ``point`` of every jet of a :func:`_term_table`."""
    p = _point_coords(point, num_vars)
    out = np.empty(len(table))
    for i, terms in enumerate(table):
        out[i] = _term_sum(terms, p)
    return out


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Truncated product; bilinear, monomials past the order are discarded."""
    a._check_shape(b)
    order = a.order
    out: dict[MultiIndex, float] = {}
    for ia, ca in a.coeffs.items():
        da = ia.degree
        for ib, cb in b.coeffs.items():
            if da + ib.degree > order:
                continue
            key = ia + ib
            out[key] = out.get(key, 0.0) + ca * cb
    return Jet(a.num_vars, order, out, min(a.reliable_order, b.reliable_order))


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
    zero = MultiIndex((0,) * m)
    comps = []
    for jet, row in zip(outer, coeffs):
        # one vector-matrix product per jet (not one matrix product for all),
        # so that a jet composes to the same bits alone and in a vector
        terms = dict(zip(in_table.monomials, (row @ phi).tolist()))
        terms[zero] = jet.constant_term
        comps.append(Jet(m, order, terms, min(jet.reliable_order, reliable)))
    return JetVector(comps, m, order)


def jet_partial(a: Jet, var: int) -> Jet:
    """Partial derivative.  The stored truncation order is kept, but the
    reliable order drops by one: top-degree coefficients of the derivative
    cannot be recovered from a truncated source."""
    if not 0 <= var < a.num_vars:
        raise StructuralError(f"variable index {var} out of range")
    out: dict[MultiIndex, float] = {}
    for idx, c in a.coeffs.items():
        e = idx.exponents[var]
        if e:
            out[idx.replace(var, e - 1)] = c * e
    return Jet(a.num_vars, a.order, out, a.reliable_order - 1)


def jet_shift(a: Jet, offsets: Sequence[float]) -> Jet:
    """Re-expand about a shifted point: returns ``q`` with ``q(d) = a(d + c)``.

    Exact on the stored polynomial; the usual truncation caveat applies to
    the underlying function."""
    if len(offsets) != a.num_vars:
        raise StructuralError("offset arity mismatch")
    cur = a
    for var, c in enumerate(offsets):
        c = float(c)
        if c == 0.0:
            continue
        out: dict[MultiIndex, float] = {}
        for idx, coeff in cur.coeffs.items():
            e = idx.exponents[var]
            for j in range(e + 1):
                val = coeff * math.comb(e, j) * c ** (e - j)
                if val == 0.0:
                    continue
                key = idx.replace(var, j)
                out[key] = out.get(key, 0.0) + val
        cur = Jet(a.num_vars, a.order, out, cur.reliable_order)
    return cur


def jet_reciprocal(a: Jet) -> Jet:
    """Multiplicative inverse of a jet with nonzero constant term."""
    a0 = a.constant_term
    if a0 == 0.0:
        raise StructuralError("cannot invert a jet with zero constant term")
    x = Jet.constant(a.num_vars, a.order, 1.0 / a0)
    two = Jet.constant(a.num_vars, a.order, 2.0)
    for _ in range(max(1, math.ceil(math.log2(a.order + 1))) + 1):
        x = jet_mul(x, two - jet_mul(a, x))
    return Jet(a.num_vars, a.order, x.coeffs,
               min(a.reliable_order, a.order))


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
    ``A[i, j] * jets[j]``.  A vector ``A`` is one row."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    jets = list(jets)
    if not jets or A.shape[1] != len(jets):
        raise StructuralError(f"a matrix of shape {A.shape} needs one jet per "
                              f"column (at least one), got {len(jets)}")
    num_vars, order = jets[0].num_vars, jets[0].order
    for jet in jets:
        jets[0]._check_shape(jet)
    reliable = min(jet.reliable_order for jet in jets)
    out = []
    for row in A:
        acc: dict[MultiIndex, float] = {}
        for a, jet in zip(row, jets):
            for idx, c in jet.coeffs.items():
                acc[idx] = acc.get(idx, 0.0) + a * c
        out.append(Jet(num_vars, order, acc, reliable))
    return out


def jet_matrix_inverse(M: Sequence[Sequence[Jet]]) -> list[list[Jet]]:
    """Inverse of a square jet matrix with invertible constant part, by
    Newton iteration (quadratic convergence in achieved degree)."""
    p = len(M)
    if any(len(row) != p for row in M):
        raise StructuralError("jet matrix must be square")
    num_vars, order = M[0][0].num_vars, M[0][0].order
    M0 = np.array([[M[i][j].constant_term for j in range(p)] for i in range(p)])
    X0 = np.linalg.inv(M0)  # raises LinAlgError if singular constant part
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
    """All exponent tuples of the given total degree, graded-lex sorted."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, num_vars)
    idxs = [MultiIndex(t) for t in out]
    idxs.sort()
    return idxs


def count_monomials(num_vars: int, degree: int) -> int:
    return math.comb(degree + num_vars - 1, degree)


# -- the graded monomial basis ----------------------------------------------


class _GradedTable:
    """The constant-free monomials of degree 1..order in graded-lex order,
    and the index triples of the derivation D_V g = sum_j V_j dg/dx_j on
    them.

    ``ends[d]`` counts the monomials of degree 1..d, so the degree-d ones
    sit at ``ends[d-1]:ends[d]``, and ``var[i]`` is the position of x_i
    (graded lex lists x_{m-1} first).  A field V is an (m, D) array with
    ``V[j, a]`` the coefficient of monomial a in V_j.  Triple t adds
    ``V.flat[coeff[t]] * weight[t]`` to the operator entry in row
    ``row[t]`` and column ``col[t]``: column b = x^beta, weight beta_j, row
    x^(alpha + beta - e_j) for coeff = j D + alpha.  Triples are sorted by
    (row, column); a row never has a lower degree than its column, so the
    first ``triple_ends[d]`` triples build the leading block on degrees
    1..d.

    The product table lists every pair of monomials ``left[q]``,
    ``right[q]`` whose product ``target[q]`` has degree <= order, sorted by
    that degree, so the first ``pair_ends[d]`` pairs are the products on
    degrees 1..d."""

    __slots__ = ("monomials", "index", "ends", "var", "row", "col", "coeff", "weight",
                 "triple_ends", "left", "right", "target", "pair_ends")

    def __init__(self, num_vars: int, order: int):
        m = num_vars
        self.monomials = [a for d in range(1, order + 1)
                          for a in monomials_of_degree(m, d)]
        self.index = {a: i for i, a in enumerate(self.monomials)}
        size = len(self.monomials)
        E = np.array([a.exponents for a in self.monomials], dtype=np.int64)
        degree = E.sum(axis=1)
        self.ends = np.array([math.comb(m + d, d) - 1 for d in range(order + 1)])
        self.var = _graded_rank(np.eye(m, dtype=np.int64), self.ends)
        targets, columns, coeffs, weights = [], [], [], []
        for j in range(m):
            # columns x^beta with beta_j > 0; alpha runs over the monomials
            # of degree <= order + 1 - |beta|, a prefix of the basis
            cols = np.flatnonzero(E[:, j])
            col, alpha = _prefix_pairs(cols, self.ends[order + 1 - degree[cols]])
            target = E[alpha] + E[col]
            target[:, j] -= 1
            targets.append(_graded_rank(target, self.ends))
            columns.append(col)
            coeffs.append(j * size + alpha)
            weights.append(E[col, j])
        key = np.concatenate(targets) * size + np.concatenate(columns)
        perm = np.argsort(key, kind="stable")
        self.row, self.col = np.divmod(key[perm], size)
        self.coeff = np.concatenate(coeffs)[perm]
        self.weight = np.concatenate(weights)[perm].astype(float)
        self.triple_ends = np.searchsorted(self.row, self.ends)
        left, right = _prefix_pairs(np.arange(size), self.ends[order - degree])
        total = degree[left] + degree[right]
        perm = np.argsort(total, kind="stable")
        self.left, self.right = left[perm], right[perm]
        self.target = _graded_rank(E[self.left] + E[self.right], self.ends)
        self.pair_ends = np.searchsorted(total[perm], np.arange(order + 1), side="right")
        for arr in (self.ends, self.var, self.row, self.col, self.coeff, self.weight,
                    self.triple_ends, self.left, self.right, self.target,
                    self.pair_ends):
            arr.flags.writeable = False


def _prefix_pairs(rows: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (row, b) for b in 0..counts[i]-1 of each ``rows[i]``: with the
    basis in graded order, each row meets a prefix of the basis."""
    return (np.repeat(rows, counts),
            np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts))


def _graded_rank(E: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Basis positions of the rows of ``E``, exponents of degree 1..order.

    Within degree d, the tuples that share the first i exponents of e and
    have a smaller i-th one number C(r + k, k) - C(r - e_i + k, k), where
    r = d - e_0 - ... - e_{i-1} and k = m - 1 - i slots remain after i."""
    m = E.shape[1]
    degree = E.sum(axis=1)
    rank = ends[degree - 1].copy()
    r = degree[:, None] - np.cumsum(E, axis=1) + E
    for i in range(m - 1):
        k = m - 1 - i
        comb = np.array([math.comb(n + k, k) for n in range(int(degree.max(initial=0)) + 1)])
        rank += comb[r[:, i]] - comb[r[:, i] - E[:, i]]
    return rank


@lru_cache(maxsize=8)
def _graded_table(num_vars: int, order: int) -> _GradedTable:
    return _GradedTable(num_vars, order)


def _graded_coeffs(jets: Iterable[Jet], table: _GradedTable) -> np.ndarray:
    """(len(jets), D) coefficients of each jet on the graded basis; terms of
    degree 0 and above the table's order are left out."""
    jets = list(jets)
    out = np.zeros((len(jets), len(table.monomials)))
    for i, jet in enumerate(jets):
        for idx, c in jet.coeffs.items():
            pos = table.index.get(idx)
            if pos is not None:
                out[i, pos] = c
    return out


def _graded_jets(coeffs: np.ndarray, table: _GradedTable, num_vars: int, order: int,
                 reliable_order: int | None = None) -> list[Jet]:
    """Jets (storage order ``order``) from rows of graded-basis coefficients."""
    return [Jet(num_vars, order, dict(zip(table.monomials, row.tolist())), reliable_order)
            for row in coeffs]


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
    x^alpha = ``out_table.monomials[a]`` and an inner vector given as an
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
    q = in_table.pair_ends[degree]
    left, right, target = in_table.left[:q], in_table.right[:q], in_table.target[:q]
    phi = np.zeros((ends_out[degree], n))
    phi[out_table.var] = inner[:, :n]
    for j in reversed(range(m)):
        mult = np.zeros((n, n))
        mult[left, target] = inner[j, right]  # one b per (a, target): nothing sums
        k = m - 1 - j  # variables after x_j
        for d in range(2, degree + 1):
            start = ends_out[d - 1] + (math.comb(d + k - 1, k - 1) if k else 0)
            stop = ends_out[d - 1] + math.comb(d + k, k)
            src, lo, hi = ends_out[d - 2], ends_in[d - 2], ends_in[d - 1]
            phi[start:stop, hi:] = phi[src:src + stop - start, lo:] @ mult[lo:, hi:]
    return phi
