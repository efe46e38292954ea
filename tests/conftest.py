"""Shared spec builders and random corpora for the test suite."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
from hypothesis import settings

from fastslow.dynamics import _MapRunner, _interpolate_crossing
from fastslow.errors import StructuralError, UnsupportedCaseError
from fastslow.jets import (Jet, JetVector, MultiIndex, _derivation, jet_mul, jet_partial,
                           monomials_of_degree)
from fastslow.model import FastSlowMapSpec, nilpotency_index, standard_form_2d
from fastslow.singularities import check_regular_contact

# property tests must not fail on timing (host speed varies) nor vary from
# run to run
settings.register_profile("fastslow", deadline=None, derandomize=True)
settings.load_profile("fastslow")


def make_fold_spec(order=5):
    """f = x^2 - y, g = -1: attracting branch on the left, drift to the fold."""
    return standard_form_2d({(2, 0): 1.0, (0, 1): -1.0}, {}, {(0, 0, 0): -1.0},
                            order=order)


def make_transcritical_spec(lam=0.5, order=5):
    """f = x^2 - y^2 + eps*lam, g = 1."""
    return standard_form_2d({(2, 0): 1.0, (0, 2): -1.0}, {(0, 0, 0): lam},
                            {(0, 0, 0): 1.0}, order=order)


def make_pitchfork_spec(lam=0.5, g0=1.0, order=5):
    """f = x*y - x^3 + eps*lam (supercritical)."""
    return standard_form_2d({(1, 1): 1.0, (3, 0): -1.0}, {(0, 0, 0): lam},
                            {(0, 0, 0): g0}, order=order)


def make_superstable_spec(order=4):
    """The squaring map (x, y) -> (x^2, y + eps): N = (1,0), f = -x + x^2.

    The x = 0 branch of the critical manifold carries the single nontrivial
    multiplier 0, so the map is non-invertible there while the reduced map
    (0, y) -> (0, y + eps) stays a diffeomorphism."""
    return standard_form_2d({(1, 0): -1.0, (2, 0): 1.0}, {}, {(0, 0, 0): 1.0},
                            order=order)


def make_quadratic_g_spec(order=4):
    """Superstable-at-origin fast equation with a tilted factor column and a
    quadratic, eps-dependent drift; exercises the dense projection jets and
    the second-order-in-eps structure of the slow map."""
    f = JetVector([Jet.from_terms(2, order, {(1, 0): -1.0, (2, 0): 1.0})])
    N = ((Jet.constant(2, order, 1.0),),
         (Jet.constant(2, order, 0.4),))
    G = JetVector([
        Jet.from_terms(3, order, {(0, 0, 0): 0.3, (1, 0, 0): 0.2, (0, 1, 0): 0.1,
                                  (0, 0, 1): 0.05, (0, 2, 0): 0.1, (1, 1, 0): 0.07}),
        Jet.from_terms(3, order, {(0, 0, 0): 1.0, (1, 0, 0): 0.5, (0, 1, 0): 0.25,
                                  (0, 0, 1): 0.2, (0, 2, 0): 0.05, (2, 0, 0): 0.3}),
    ])
    return FastSlowMapSpec(n=2, k=1, order=order, N=N, f=f, G=G,
                           base_point=np.zeros(2))


def make_contact3d_spec(order=5):
    """n = 3, k = 1 regular contact point at the origin with one stable extra
    multiplier (0.5): DfN(0) = [[0, 0], [0, -1/2]]."""
    def J3(terms):
        return Jet.from_terms(3, order, terms)

    f = JetVector([
        J3({(0, 1, 0): 1, (0, 2, 0): 1, (2, 0, 0): 0.25, (1, 0, 1): 0.1,
            (0, 0, 2): 0.05}),
        J3({(0, 0, 1): 1, (1, 1, 0): 0.1, (2, 0, 0): 0.08}),
    ])
    N = (
        (J3({(0, 0, 0): 1, (0, 1, 0): 0.1}), J3({(1, 0, 0): 0.05})),
        (J3({(1, 0, 0): 0.1}), J3({(0, 0, 1): 0.02})),
        (J3({(0, 1, 0): 0.03}), J3({(0, 0, 0): -0.5, (1, 0, 0): 0.1})),
    )
    G = JetVector([
        Jet.from_terms(4, order, {(0, 0, 0, 0): 1, (0, 0, 0, 1): 0.1,
                                  (1, 0, 0, 0): 0.05}),
        Jet.from_terms(4, order, {(0, 0, 0, 0): 0.3, (1, 0, 0, 0): 0.2,
                                  (0, 1, 0, 0): 0.1}),
        Jet.from_terms(4, order, {(0, 1, 0, 0): 0.1, (0, 0, 0, 1): 0.05}),
    ])
    return FastSlowMapSpec(n=3, k=1, order=order, N=N, f=f, G=G,
                           base_point=np.zeros(3))


def make_contact4d_k1_spec(order=5):
    """n = 4, k = 1 regular contact point at the origin with two extra
    multipliers (0.7 and 0.4) whose w-block is coupled:
    DfN(0) = [[0, 0, 0], [0, -1/2, 1/5], [0, 1/10, -2/5]]."""
    def J4(terms):
        return Jet.from_terms(4, order, terms)

    f = JetVector([
        J4({(0, 1, 0, 0): 1, (0, 2, 0, 0): 1, (2, 0, 0, 0): 0.25, (1, 0, 1, 0): 0.1,
            (0, 0, 0, 2): 0.05, (1, 0, 0, 1): 0.03}),
        J4({(0, 0, 1, 0): 1, (1, 1, 0, 0): 0.1, (2, 0, 0, 0): 0.08}),
        J4({(0, 0, 0, 1): 1, (1, 0, 1, 0): 0.05, (2, 0, 0, 0): 0.06, (0, 1, 1, 0): 0.04}),
    ])
    N = (
        (J4({(0, 0, 0, 0): 1, (0, 1, 0, 0): 0.1}), J4({(1, 0, 0, 0): 0.05}),
         J4({(0, 0, 1, 0): 0.02})),
        (J4({(1, 0, 0, 0): 0.1}), J4({(0, 0, 0, 1): 0.02}), J4({})),
        (J4({(0, 1, 0, 0): 0.03}), J4({(0, 0, 0, 0): -0.5, (1, 0, 0, 0): 0.1}),
         J4({(0, 0, 0, 0): 0.2})),
        (J4({(0, 0, 1, 0): 0.02}), J4({(0, 0, 0, 0): 0.1}),
         J4({(0, 0, 0, 0): -0.4, (1, 0, 0, 0): 0.05})),
    )
    G = JetVector([
        Jet.from_terms(5, order, {(0, 0, 0, 0, 0): 1, (0, 0, 0, 0, 1): 0.1,
                                  (1, 0, 0, 0, 0): 0.05}),
        Jet.from_terms(5, order, {(0, 0, 0, 0, 0): 0.3, (1, 0, 0, 0, 0): 0.2,
                                  (0, 1, 0, 0, 0): 0.1}),
        Jet.from_terms(5, order, {(0, 1, 0, 0, 0): 0.1, (0, 0, 0, 0, 1): 0.05}),
        Jet.from_terms(5, order, {(0, 0, 0, 0, 0): -0.2, (0, 0, 1, 0, 0): 0.1}),
    ])
    return FastSlowMapSpec(n=4, k=1, order=order, N=N, f=f, G=G,
                           base_point=np.zeros(4))


def make_contact4d_k2_spec(order=5):
    """n = 4, k = 2 regular contact point at the origin (reduced variables
    (x_1, x_2, u, eps)) with one extra multiplier, 0.5:
    DfN(0) = [[0, 0], [0, -1/2]]."""
    def J4(terms):
        return Jet.from_terms(4, order, terms)

    f = JetVector([
        J4({(0, 0, 1, 0): 1, (0, 0, 2, 0): 1, (2, 0, 0, 0): 0.25, (0, 2, 0, 0): 0.1,
            (1, 0, 0, 1): 0.1, (0, 1, 1, 0): 0.05}),
        J4({(0, 0, 0, 1): 1, (1, 0, 1, 0): 0.1, (0, 2, 0, 0): 0.08}),
    ])
    N = (
        (J4({(0, 0, 0, 0): 1, (0, 0, 1, 0): 0.1}), J4({(1, 0, 0, 0): 0.05})),
        (J4({(0, 0, 0, 0): 0.3, (1, 0, 0, 0): 0.05}), J4({(0, 0, 0, 0): 0.1})),
        (J4({(1, 0, 0, 0): 0.1}), J4({(0, 0, 0, 1): 0.02})),
        (J4({(0, 1, 0, 0): 0.03}), J4({(0, 0, 0, 0): -0.5, (0, 1, 0, 0): 0.1})),
    )
    G = JetVector([
        Jet.from_terms(5, order, {(0, 0, 0, 0, 0): 1, (0, 0, 0, 0, 1): 0.1}),
        Jet.from_terms(5, order, {(0, 0, 0, 0, 0): 0.5, (1, 0, 0, 0, 0): 0.1}),
        Jet.from_terms(5, order, {(0, 0, 0, 0, 0): 0.3, (0, 1, 0, 0, 0): 0.2}),
        Jet.from_terms(5, order, {(0, 0, 1, 0, 0): 0.1, (0, 0, 0, 0, 1): 0.05}),
    ])
    return FastSlowMapSpec(n=4, k=2, order=order, N=N, f=f, G=G,
                           base_point=np.zeros(4))


_JORDAN_BLOCKS = {
    2: [np.zeros((2, 2)),
        np.array([[0.0, 1.0], [0.0, 0.0]])],
    3: [np.zeros((3, 3)),
        np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])],
}


def random_nilpotent_field(rng, num_vars=None, order=4, fill=0.4):
    """Polynomial field with a nilpotent Jordan-block linear part and random
    sparse coefficients up to the order."""
    m = num_vars or int(rng.integers(2, 4))
    blocks = _JORDAN_BLOCKS[m]
    L = blocks[int(rng.integers(len(blocks)))]
    comps = []
    for i in range(m):
        terms = {}
        for s in range(m):
            if L[i, s] != 0.0:
                terms[tuple(1 if j == s else 0 for j in range(m))] = L[i, s]
        for d in range(2, order + 1):
            for alpha in monomials_of_degree(m, d):
                if rng.random() < fill:
                    terms[alpha.exponents] = float(rng.uniform(-0.8, 0.8))
        comps.append(Jet.from_terms(m, order, terms))
    return JetVector(comps, m, order)


def lie_series_oracle(V, order, depth):
    """Reference for ``flow_time1_jet``: the Lie series exp(D_V) x summed one
    jet product at a time, with the term bound and the stop on an exactly
    zero term of ``embedding._time1``.  Slow; for tests only."""
    m = V.num_vars
    field = [c.truncated(order) for c in V]
    term = JetVector.identity(m, order)
    total = term
    for k in range(1, order + (depth - 1) * order * (order + 1) // 2):
        comps = []
        for g in term:
            acc = Jet.zero(m, order)
            for j, v in enumerate(field):
                acc = acc + jet_mul(v, jet_partial(g, j))
            comps.append(acc * (1.0 / k))
        term = JetVector(comps, m, order)
        if term.max_abs() == 0.0:
            break
        total = total + term
    return total


def csr_derivation_oracle(V, table, degree):
    """Reference for ``jets._derivation``: D_V as a scipy CSR matrix on the
    monomials of degree 1..``degree``.  Each stored entry is one run of equal
    (row, column) triples, summed in order by one ``np.bincount``."""
    n, t = table.ends[degree], table.triple_ends[degree]
    row, col = table.row[:t], table.col[:t]
    new = np.ones(t, dtype=bool)
    new[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
    data = np.bincount(np.cumsum(new) - 1,
                       weights=V.ravel()[table.coeff[:t]] * table.weight[:t])
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row[new], minlength=n))))
    return scipy.sparse.csr_matrix((data, col[new], indptr), shape=(n, n))


def csr_time1_oracle(V, table, degree, depth):
    """Reference for ``embedding._time1``: the same Lie series, term bound
    and stop on an exactly zero term, with the CSR operator of
    :func:`csr_derivation_oracle`."""
    op = csr_derivation_oracle(V, table, degree)
    X = np.zeros((op.shape[0], len(V)))
    X[table.var, np.arange(len(V))] = 1.0
    total = X
    for k in range(1, degree + (depth - 1) * degree * (degree + 1) // 2):
        X = (op @ X) * (1.0 / k)
        if not X.any():
            break
        total = total + X
    return total.T


def takens_operator_oracle(Lpows, A, top):
    """Reference for ``embedding._takens_solve``: the matrix of
    F -> int_0^1 exp(L(1-tau)) F(exp(L tau) x) dtau on the homogeneous
    fields of one degree l, packed component-major as ``np.kron`` lays out
    an operator acting on each component.

    ``Lpows`` is [I, L, L^2, ...] and ``A`` the degree-l diagonal block of
    D_{Lx} on the graded basis, so F(exp(L tau) x) = exp(tau A) F.  The Beta
    integral int (1-tau)^p tau^q dtau = p! q!/(p+q+1)! cancels the factorials
    of both exponentials, leaving sum_{p,q} L^p (x) A^q/(p+q+1)!; A^q = 0 for
    q > ``top`` = l(depth - 1) (see ``embedding._time1``).  kron is linear
    in its second factor, so the q-sum is taken before it."""
    Apows = [np.eye(len(A))]
    for _ in range(top):
        Apows.append(Apows[-1] @ A)
    return sum(np.kron(P, sum(Aq / math.factorial(p + q + 1) for q, Aq in enumerate(Apows)))
               for p, P in enumerate(Lpows))


def graph_operator_oracle(B, Phi):
    """Reference for ``singularities._graph_solve``: the matrix of
    X -> B X - X Phi on (p - 1, D_d) arrays, packed row-major."""
    return np.kron(B, np.eye(len(Phi))) - np.kron(np.eye(len(B)), Phi.T)


def dense_takens_solve(L, A, rhs, depth, degree):
    """``embedding._takens_solve`` by a dense solve with
    :func:`takens_operator_oracle`; same arguments."""
    Lpows = [np.eye(len(L))]
    for _ in range(depth - 1):
        Lpows.append(Lpows[-1] @ L)
    op = takens_operator_oracle(Lpows, A, degree * (depth - 1))
    return np.linalg.solve(op, rhs.ravel()).reshape(rhs.shape)


def dense_graph_solve(C, Phi, rhs, depth, degree):
    """``singularities._graph_solve`` by a dense solve with
    :func:`graph_operator_oracle`; same arguments, B = I + C^-1."""
    B = np.eye(len(C)) + np.linalg.inv(C)
    return np.linalg.solve(graph_operator_oracle(B, Phi), rhs.ravel()).reshape(rhs.shape)


def finite_series_oracle(step, term, coeffs):
    """Reference for ``embedding._finite_series``: every coefficient
    multiplies its term and each sum makes a new array."""
    total = coeffs[0] * term
    for k in range(1, len(coeffs)):
        term = step(term, k)
        if not term.any():
            break
        total = total + coeffs[k] * term
    return total


def time1_oracle(V, table, degree, depth):
    """Reference for ``embedding._time1``: the same series, with a new array
    for every product, scaling and sum."""
    op = _derivation(V, table, degree)
    X = np.zeros((op.shape[0], len(V)))
    X[table.var, np.arange(len(V))] = 1.0
    terms = degree + (depth - 1) * degree * (degree + 1) // 2
    return finite_series_oracle(lambda X, k: (op @ X) * (1.0 / k), X, [1.0] * terms).T


def takens_solve_oracle(L, A, rhs, depth, degree):
    """Reference for ``embedding._takens_solve``: the same two series, with
    a new array for every product, difference and sum, and the Bernoulli
    coefficients of :func:`bernoulli_oracle`."""
    start = finite_series_oracle(lambda F, k: (L @ F) * (-1.0 / k), rhs, [1.0] * depth)
    coeffs = [float(b) for b in bernoulli_oracle((depth - 1) * (degree + 1))]
    return finite_series_oracle(lambda F, k: F @ A.T - L @ F, start, coeffs)


def nilpotency_index_oracle(M, tol):
    """Reference for ``model.nilpotency_index``: one 2-norm per power, until
    a power passes."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise StructuralError("nilpotency index needs a square matrix")
    dim = M.shape[0]
    if dim > 64:
        raise StructuralError(f"dimension {dim} exceeds the cap 64")
    if dim == 0:
        return 1
    scale = max(1.0, float(np.linalg.norm(M, 2)))
    P = np.eye(dim)
    for power in range(1, dim + 1):
        P = P @ M
        if np.linalg.norm(P, 2) <= tol * scale ** power:
            return power
    return None


def bernoulli_oracle(top):
    """B_k/k! for k = 0..``top`` as exact fractions, from the recurrence
    sum_{j<=k} C(k+1, j) B_j = 0 on fractions."""
    B = [Fraction(1)]
    for k in range(1, top + 1):
        B.append(-sum(math.comb(k + 1, j) * B[j] for j in range(k)) / (k + 1))
    return [b / math.factorial(k) for k, b in enumerate(B)]


def graded_rank_oracle(E, ends):
    """Reference for ``jets._graded_rank``: the same count, on the rows of
    ``E`` through its running column sums."""
    m = E.shape[1]
    degree = E.sum(axis=1)
    rank = ends[degree - 1].copy()
    r = degree[:, None] - np.cumsum(E, axis=1) + E
    for i in range(m - 1):
        k = m - 1 - i
        comb = np.array([math.comb(n + k, k) for n in range(int(degree.max(initial=0)) + 1)])
        rank += comb[r[:, i]] - comb[r[:, i] - E[:, i]]
    return rank


def derivation_triples_oracle(table):
    """Reference for the derivation triples of ``jets._GradedTable``: built
    one variable j at a time, concatenated and put in (row, column) order by
    a stable sort, so the triples of one entry keep the order of j."""
    E = table.exponents[1:]
    size, m = E.shape
    degree = E.sum(axis=1)
    targets, columns, coeffs, weights = [], [], [], []
    for j in range(m):
        cols = np.flatnonzero(E[:, j])
        counts = table.ends[table.order + 1 - degree[cols]]
        col = np.repeat(cols, counts)
        alpha = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        target = E[alpha] + E[col]
        target[:, j] -= 1
        targets.append(graded_rank_oracle(target, table.ends))
        columns.append(col)
        coeffs.append(j * size + alpha)
        weights.append(E[col, j])
    key = np.concatenate(targets) * size + np.concatenate(columns)
    perm = np.argsort(key, kind="stable")
    row, col = np.divmod(key[perm], size)
    return {"row": row, "col": col, "coeff": np.concatenate(coeffs)[perm],
            "weight": np.concatenate(weights)[perm].astype(float),
            "triple_ends": np.searchsorted(row, table.ends)}


def compose_oracle(outer, inner):
    """Reference for ``jet_compose``: the sum over the outer monomials of
    their coefficient times a product of powers of the inner components, each
    power built by repeated ``jet_mul`` once and reused.  Slow; for tests
    only."""
    m, order = inner.num_vars, outer.order
    reliable = min([outer.reliable_order] + [c.reliable_order for c in inner])
    powers = {}

    def power(s, e):
        got = powers.get((s, e))
        if got is None:
            got = inner[s] if e == 1 else jet_mul(power(s, e - 1), inner[s])
            powers[(s, e)] = got
        return got

    acc = {}
    zero_key = MultiIndex((0,) * m)
    for idx, c in outer.coeffs.items():
        term = None
        for s, e in enumerate(idx.exponents):
            if e:
                p = power(s, e)
                term = p if term is None else jet_mul(term, p)
        if term is None:  # constant monomial of the outer jet
            acc[zero_key] = acc.get(zero_key, 0.0) + c
            continue
        for i2, c2 in term.coeffs.items():
            acc[i2] = acc.get(i2, 0.0) + c * c2
    return Jet(m, order, acc, reliable)


def nilpotent_powers(L, tol):
    """[I, L, L^2, ...] up to the last nonzero power; refuses a matrix that
    is not nilpotent."""
    dim = L.shape[0]
    idx = nilpotency_index(L, tol)
    if idx is None:
        raise UnsupportedCaseError(
            "linear part is not nilpotent; run jordan_chevalley_split for the "
            "semisimple/nilpotent diagnosis")
    out = [np.eye(dim)]
    for _ in range(idx - 1):
        out.append(out[-1] @ L)
    return out


# -- dict references for the jet kernels: each works on ``Jet.coeffs`` and
# sums into a dict keyed by MultiIndex, term by term


def jet_mul_oracle(a, b):
    """Reference for ``jet_mul``."""
    a._check_shape(b)
    order = a.order
    out = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            if ia.degree + ib.degree <= order:
                key = ia + ib
                out[key] = out.get(key, 0.0) + ca * cb
    return Jet(a.num_vars, order, out, min(a.reliable_order, b.reliable_order))


def jet_partial_oracle(a, var):
    """Reference for ``jet_partial``."""
    out = {}
    for idx, c in a.coeffs.items():
        e = idx.exponents[var]
        if e:
            out[idx.replace(var, e - 1)] = c * e
    return Jet(a.num_vars, a.order, out, a.reliable_order - 1)


def jet_shift_oracle(a, offsets):
    """Reference for ``jet_shift``: one variable at a time, by the binomial
    expansion of each term."""
    cur = a
    for var, c in enumerate(offsets):
        c = float(c)
        if c == 0.0:
            continue
        out = {}
        for idx, coeff in cur.coeffs.items():
            e = idx.exponents[var]
            for j in range(e + 1):
                key = idx.replace(var, j)
                out[key] = out.get(key, 0.0) + coeff * math.comb(e, j) * c ** (e - j)
        cur = Jet(a.num_vars, a.order, out, cur.reliable_order)
    return cur


def jet_linear_map_oracle(A, jets):
    """Reference for ``jet_linear_map``."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    reliable = min(jet.reliable_order for jet in jets)
    out = []
    for row in A:
        acc = {}
        for a, jet in zip(row, jets):
            for idx, c in jet.coeffs.items():
                acc[idx] = acc.get(idx, 0.0) + a * c
        out.append(Jet(jets[0].num_vars, jets[0].order, acc, reliable))
    return out


def _filtered(jet, keep, num_vars=None, order=None, reliable=None):
    """The terms (index, c) of ``jet`` that ``keep`` maps to a new key, or
    drops with None."""
    out = {}
    for idx, c in jet.coeffs.items():
        key = keep(idx)
        if key is not None:
            out[key] = c
    return Jet(num_vars or jet.num_vars, order or jet.order, out,
               jet.reliable_order if reliable is None else reliable)


def _dropping(var):
    def keep(idx):
        if idx.exponents[var]:
            raise StructuralError(f"jet depends on variable {var}")
        return idx.exponents[:var] + idx.exponents[var + 1:]
    return keep


def _dividing(var, power):
    def keep(idx):
        e = idx.exponents[var]
        if e < power:
            raise StructuralError(f"term {idx.exponents} not divisible by variable "
                                  f"{var}^{power}")
        return idx.replace(var, e - power)
    return keep


def _extending(num_vars, positions):
    def keep(idx):
        exps = [0] * num_vars
        for old, new in enumerate(positions):
            exps[new] = idx.exponents[old]
        return tuple(exps)
    return keep


# name -> reference for ``getattr(jet, name)(*args)``
STRUCTURAL_ORACLES = {
    "degree_part": lambda jet, d: _filtered(jet, lambda i: i if i.degree == d else None),
    "degree_cap": lambda jet, d: _filtered(jet, lambda i: i if i.degree <= d else None),
    "truncated": lambda jet, order: _filtered(
        jet, lambda i: i if i.degree <= order else None, order=order,
        reliable=min(jet.reliable_order, order)),
    "subs_zero": lambda jet, var: _filtered(
        jet, lambda i: i if i.exponents[var] == 0 else None),
    "drop_var": lambda jet, var: _filtered(jet, _dropping(var), num_vars=jet.num_vars - 1),
    "div_var": lambda jet, var, power: _filtered(jet, _dividing(var, power)),
    "mul_var": lambda jet, var, power: _filtered(
        jet, lambda i: (i.replace(var, i.exponents[var] + power)
                        if i.degree + power <= jet.order else None)),
    "extend_vars": lambda jet, num_vars, positions: _filtered(
        jet, _extending(num_vars, positions), num_vars=num_vars),
}


# -- references for the exponent enumeration and the structure checks that
# walked ``Jet.coeffs`` dicts, kept as they were


def monomials_oracle(num_vars, degree):
    """Reference for ``monomials_of_degree``: the recursive enumeration of
    every exponent tuple of the degree, as sorted ``MultiIndex`` instances."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, num_vars)
    return sorted(MultiIndex(t) for t in out)


def eps01_diffs_oracle(H, V, order):
    """Reference for ``verify_reduced_embedding``'s ``eps01_diffs``: per
    degree, the worst gap between map and field over the monomials whose
    last (eps) exponent is 0 or 1."""
    eps01 = {}
    for l in range(2, order + 1):
        worst = 0.0
        for i in range(len(H)):
            hpart = H[i].degree_part(l)
            vpart = V[i].degree_part(l)
            for idx in set(hpart.coeffs) | set(vpart.coeffs):
                if idx.exponents[-1] in (0, 1):
                    worst = max(worst, abs(hpart.coeffs.get(idx, 0.0)
                                           - vpart.coeffs.get(idx, 0.0)))
        eps01[l] = worst
    return eps01


def eps2_oracle(H, V):
    """Reference for ``verify_reduced_embedding``'s ``eps2_solver`` and
    ``eps2_closed``: the eps^2 coefficients of the field and their closed
    form from the map, by ``coefficient`` lookups."""
    n = len(H) - 1
    a = np.array([H[i].coefficient((0,) * n + (1,)) for i in range(n)])
    eps2_idx = (0,) * n + (2,)
    solver, closed = np.zeros(n), np.zeros(n)
    for i in range(n):
        corr = 0.0
        for s in range(n):
            exps = [0] * (n + 1)
            exps[s] = 1
            exps[n] = 1
            corr += H[i].coefficient(tuple(exps)) * a[s] / 2.0
        closed[i] = H[i].coefficient(eps2_idx) - corr
        solver[i] = V[i].coefficient(eps2_idx)
    return solver, closed


def pure_x_oracle(hat_map, k):
    """Reference for ``cm_normal_form_transform``'s ``pure_x_residual``: the
    largest coefficient of hat_map - identity free of every variable past
    the k slow ones."""
    pure_x = 0.0
    for i, comp in enumerate(hat_map):
        delta = comp - Jet.variable(comp.num_vars, comp.order, i)
        for idx, c in delta.coeffs.items():
            if all(e == 0 for e in idx.exponents[k:]):
                pure_x = max(pure_x, abs(c))
    return pure_x


def quad_closed_oracle(V, H, k, N0):
    """Reference for ``embed_on_center_manifold``'s ``quad_closed_diff``:
    the degree-2 eps-free coefficients of the critical component V[k]
    against their closed formulas from H[k]."""
    mred = k + 2
    vu2 = V[k].degree_part(2)
    hu2 = H[k].degree_part(2)
    quad = 0.0
    for alpha in monomials_oracle(mred, 2):
        if alpha.exponents[k + 1] != 0:
            continue
        eu = alpha.exponents[k]
        got = vu2.coeffs.get(alpha, 0.0)
        if eu == 0:
            expected = 0.0
        elif eu == 1:
            expected = hu2.coeffs.get(alpha, 0.0)
        else:
            expected = hu2.coeffs.get(alpha, 0.0)
            for s in range(k):
                exps = [0] * mred
                exps[s] = 1
                exps[k] = 1
                expected -= 0.5 * hu2.coeffs.get(MultiIndex(exps), 0.0) * N0[s]
        quad = max(quad, abs(got - expected))
    return quad


def face_roots_oracle(spec, exit_point, axis_fixed, box):
    """Reference for ``dynamics._face_roots``: the face polynomial summed
    over ``f.coeffs`` term by term, then its real roots inside the face."""
    f = spec.f[0]
    base = spec.base_point
    fixed_val = exit_point[axis_fixed] - base[axis_fixed]
    free = 1 - axis_fixed
    poly = np.zeros(f.order + 1)
    for idx, c in f.coeffs.items():
        poly[idx.exponents[free]] += c * fixed_val ** idx.exponents[axis_fixed]
    coeffs_desc = poly[::-1]
    nz = np.flatnonzero(np.abs(coeffs_desc) > 0)
    if nz.size == 0:
        return []
    lo, hi = box.bounds[free]
    out = []
    for root in np.roots(coeffs_desc[nz[0]:]):
        if abs(root.imag) > 1e-8:
            continue
        val = root.real + base[free]
        if lo - 1e-9 <= val <= hi + 1e-9:
            out.append(val)
    return sorted(out)


@dataclass
class OracleOrbit:
    points: np.ndarray          # post-transient start, then every step
    end: int | None             # index of the first point past the stop
    exit_face: str | None       # its box face, when walking out of a box
    crossing: np.ndarray | None  # where the orbit crosses x = level


def orbit_oracle(spec, z, eps, step_cap, transient=10, box=None, stop_x=None,
                 level=None):
    """Reference for the orbit loop of ``dynamics``: ``transient`` steps of
    ``_MapRunner.step`` from z, then steps until a point leaves ``box`` (or
    passes x > stop_x) or ``step_cap`` steps are taken, keeping every
    point.  After the walk, the first point past the stop, its exit face
    and the crossing of x = level are read off the whole array: the
    crossing interpolates the first pair with x_i <= level < x_{i+1} up to
    that point, or else its last pair.  Slow and memory-hungry; for tests
    only."""
    runner = _MapRunner(spec)
    for _ in range(transient):
        z = runner.step(z, eps)
    pts = [z]
    for _ in range(step_cap):
        pts.append(runner.step(pts[-1], eps))
        if (not box.contains(pts[-1])) if box is not None else pts[-1][0] > stop_x:
            break
    pts = np.array(pts)
    if box is not None:
        lo, hi = np.array(box.bounds).T
        past = ~np.all((lo <= pts) & (pts <= hi), axis=1)
    else:
        past = pts[:, 0] > stop_x
    past[0] = False  # the start is never tested
    ends = np.flatnonzero(past)
    if not ends.size:
        return OracleOrbit(pts, None, None, None)
    end = int(ends[0])
    crossing = None
    if level is not None:
        xs = pts[:end + 1, 0]
        hits = np.flatnonzero((xs[:-1] <= level) & (level < xs[1:]))
        k = int(hits[0]) if hits.size else end - 1
        crossing = _interpolate_crossing(pts[k], pts[k + 1], 0, level)
    return OracleOrbit(pts, end, box.exit_face(pts[end]) if box is not None else None,
                       crossing)


def random_contact3d_spec(rng, order=5):
    """Random perturbation of the canonical 3-D contact template, keeping the
    contact structure at the origin exact (linear parts pinned, higher
    coefficients random)."""
    c = float(rng.uniform(-0.7, -0.3))  # extra multiplier 1 + c in (0.3, 0.7)

    def sprinkle(base, m, max_degree):
        terms = dict(base)
        for d in range(2, max_degree + 1):
            for alpha in monomials_of_degree(m, d):
                if rng.random() < 0.3:
                    terms[alpha.exponents] = terms.get(alpha.exponents, 0.0) \
                        + float(rng.uniform(-0.4, 0.4))
        return terms

    f = JetVector([
        Jet.from_terms(3, order, sprinkle({(0, 1, 0): 1.0}, 3, 3)),
        Jet.from_terms(3, order, sprinkle({(0, 0, 1): 1.0}, 3, 3)),
    ])

    def njet(const, slot):
        terms = {} if const == 0.0 else {(0, 0, 0): const}
        for var in range(3):
            if rng.random() < 0.5:
                exps = tuple(1 if j == var else 0 for j in range(3))
                terms[exps] = terms.get(exps, 0.0) + float(rng.uniform(-0.2, 0.2))
        return Jet.from_terms(3, order, terms)

    # N(0) = [[1, 0], [0, 0], [0, c]]: row 2 vanishes at the origin
    N = ((njet(1.0, 0), njet(0.0, 1)),
         (njet(0.0, 2), njet(0.0, 3)),
         (njet(0.0, 4), njet(c, 5)))
    G = JetVector([
        Jet.from_terms(4, order, {(0, 0, 0, 0): float(rng.uniform(0.5, 1.5)),
                                  (1, 0, 0, 0): float(rng.uniform(-0.3, 0.3)),
                                  (0, 0, 0, 1): float(rng.uniform(-0.2, 0.2))}),
        Jet.from_terms(4, order, {(0, 0, 0, 0): float(rng.uniform(0.2, 0.8)),
                                  (0, 1, 0, 0): float(rng.uniform(-0.3, 0.3))}),
        Jet.from_terms(4, order, {(0, 0, 1, 0): float(rng.uniform(-0.3, 0.3)),
                                  (0, 0, 0, 1): float(rng.uniform(-0.2, 0.2))}),
    ])
    return FastSlowMapSpec(n=3, k=1, order=order, N=N, f=f, G=G,
                           base_point=np.zeros(3))


def random_reduced_spec(rng, n, k, order=5):
    """Random map in n variables, k of them slow, about a random base point
    that lies on the critical manifold and is normally hyperbolic: the fast
    equations are f_i = a_i y_i + B z + random terms of degree 2 and 3, with
    a_i in (-1.2, -0.6), y the first p = n - k variables and z the slow
    ones; N(0) stacks I_p over C, and B, C have entries in (-0.3, 0.3), so
    the multipliers, the eigenvalues of I + diag(a) + B C, stay inside the
    unit circle.  N and G get random higher terms, G its eps terms too."""
    p = n - k

    def sprinkle(base, m, degrees):
        terms = dict(base)
        for d in degrees:
            for alpha in monomials_of_degree(m, d):
                if rng.random() < 0.4:
                    terms[alpha.exponents] = float(rng.uniform(-1.0, 1.0))
        return terms

    def unit(var):
        return tuple(int(j == var) for j in range(n))

    B, C = rng.uniform(-0.3, 0.3, (p, k)), rng.uniform(-0.3, 0.3, (k, p))
    f = JetVector([Jet.from_terms(n, order, sprinkle(
        {unit(i): float(rng.uniform(-1.2, -0.6)),
         **{unit(p + s): float(B[i, s]) for s in range(k)}}, n, (2, 3))) for i in range(p)])
    N0 = np.vstack((np.eye(p), C))
    N = tuple(tuple(Jet.from_terms(n, order, sprinkle({(0,) * n: float(N0[a, j])}, n, (1,)))
                    for j in range(p)) for a in range(n))
    G = JetVector([Jet.from_terms(n + 1, order, sprinkle({}, n + 1, (0, 1, 2)))
                   for _ in range(n)])
    return FastSlowMapSpec(n=n, k=k, order=order, N=N, f=f, G=G,
                           base_point=rng.uniform(-0.3, 0.3, n))


def random_contact_spec(rng, n, k, order=4):
    """Random n-d map with a regular contact point at the origin,
    generalising :func:`random_contact3d_spec` to k slow variables
    x_1..x_k and p = n - k fast ones y_1..y_p.

    The linear parts are pinned: f_i = y_i + ..., with an x_1^2 term in f_1;
    N(0) has a unit entry in the x_1 row of the critical column, a zero
    row for y_1 (the critical direction u) and a stable block C in the rows
    of y_2..y_p (the w block); and G has a constant in every row.  The x
    rows of N(0) carry random entries in the w columns, so for p >= 2 the
    graph's degree-1 part W_1 (driven by the eps constants of G) feeds back
    into the linear return map.  Higher coefficients are random; a draw
    that misses a contact condition is redrawn."""
    p = n - k

    def unit(var, m=n):
        return tuple(1 if j == var else 0 for j in range(m))

    def sprinkle(base):
        terms = dict(base)
        for d in (2, 3):
            for alpha in monomials_of_degree(n, d):
                if rng.random() < 0.3:
                    terms[alpha.exponents] = terms.get(alpha.exponents, 0.0) \
                        + float(rng.uniform(-0.4, 0.4))
        return terms

    def njet(const):
        terms = {} if const == 0.0 else {(0,) * n: float(const)}
        for var in range(n):
            if rng.random() < 0.5:
                terms[unit(var)] = float(rng.uniform(-0.2, 0.2))
        return Jet.from_terms(n, order, terms)

    while True:
        x1_squared = {tuple(2 if j == 0 else 0 for j in range(n)):
                      float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.5))}
        f = JetVector([Jet.from_terms(n, order, sprinkle(
            {unit(k + i): 1.0, **(x1_squared if i == 0 else {})})) for i in range(p)])

        # N(0): x rows (1 or random, then random w entries), u row zero,
        # w rows (0, C) with I + C a contraction
        N0 = np.zeros((n, p))
        N0[0, 0] = 1.0
        N0[1:k, 0] = rng.uniform(-0.5, 0.5, k - 1)
        N0[:k, 1:] = rng.uniform(-0.3, 0.3, (k, p - 1))
        C = rng.uniform(-0.1, 0.1, (p - 1, p - 1))
        C[np.diag_indices(p - 1)] = rng.uniform(-0.7, -0.3, p - 1)
        N0[k + 1:, 1:] = C
        N = tuple(tuple(njet(N0[a, j]) for j in range(p)) for a in range(n))
        G = []
        for a in range(n):
            const = rng.uniform(0.2, 0.8) if a == k else rng.uniform(-0.5, 0.5)
            terms = {(0,) * (n + 1): float(const)}
            for var in rng.choice(n + 1, size=2, replace=False):
                terms[unit(int(var), n + 1)] = float(rng.uniform(-0.3, 0.3))
            G.append(Jet.from_terms(n + 1, order, terms))
        spec = FastSlowMapSpec(n=n, k=k, order=order, N=N, f=f, G=JetVector(G),
                               base_point=np.zeros(n))
        if check_regular_contact(spec, np.zeros(n)).verdict:
            return spec


@pytest.fixture
def fold_spec():
    return make_fold_spec()


@pytest.fixture
def superstable_spec():
    return make_superstable_spec()


@pytest.fixture
def contact3d_spec():
    return make_contact3d_spec()
