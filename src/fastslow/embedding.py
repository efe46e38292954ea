"""Formal flow embeddings for maps with unipotent linear part.

Two directions:

* :func:`flow_time1_jet` computes the jet of the time-1 map of a polynomial
  vector field V with nilpotent linear part as the Lie series exp(D_V) x,
  where D_V g = sum_j V_j dg/dx_j.  On the basis of the constant-free
  monomials of degree 1..order in graded-lex order, D_V is a dense
  D x D matrix, D = C(m + order, m) - 1, built by one scatter from the
  coefficients of V.  It never lowers a degree, so it is block
  lower-triangular by degree and its leading block on degrees 1..l is the
  operator of the order-l truncation.  Because the linear part is
  nilpotent, the series is finite and exact; its term bound is derived in
  :func:`_time1`.

* :func:`takens_embed_unipotent` inverts that computation: given a map jet
  whose linear part is unipotent, it solves degree by degree for the unique
  vector field whose time-1 map matches the given jet.  At each degree l the
  unknown part enters through an operator with a finite Bernoulli series
  inverse (:func:`_takens_solve`); the known part is the same Lie series on
  degrees 1..l for the field found so far.  :func:`_finite_series` sums
  every finite series here and the center-manifold graph solve's.

Both refuse a non-finite coefficient with :class:`PreconditionError`, and
the embedding refuses a field whose time-1 map misses the map jet by more
than ``embed_residual`` with :class:`ConvergenceError`.

:func:`jordan_chevalley_split` is a diagnostic that separates a general
linear part into commuting semisimple and nilpotent factors; maps whose
semisimple factor is not the identity are refused by the embedding solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import (ConvergenceError, PreconditionError, StructuralError,
                     UnsupportedCaseError)
from .jets import (Jet, JetVector, _GradedTable, _derivation, _graded_coeffs,
                   _graded_jets, _graded_table, jet_matrix_inverse, jet_matrix_mul,
                   jet_mul)
from .model import (FastSlowMapSpec, classify_point, nilpotency_index,
                    reduced_data)
from .tols import DEFAULT_TOLS, Tolerances

__all__ = [
    "LinearPartDecomposition",
    "EmbeddingResult",
    "jordan_chevalley_split",
    "nilpotent_log",
    "flow_time1_jet",
    "takens_embed_unipotent",
    "projection_jets",
    "reduced_map_jets",
    "ReducedEmbeddingReport",
    "verify_reduced_embedding",
]

_DIM_CAP = 16


# ---------------------------------------------------------------------------
# linear-part diagnostics


@dataclass
class LinearPartDecomposition:
    """A = B (I + M) with B semisimple, M nilpotent, B M = M B."""
    A: np.ndarray
    B: np.ndarray
    M: np.ndarray
    nilpotent_index_of_M: int | None
    is_unipotent: bool


def _cluster(values: np.ndarray, tol: float) -> list[tuple[complex, int]]:
    """Greedy clustering of eigenvalues into (center, multiplicity) groups."""
    groups: list[list[complex]] = []
    for v in sorted(values, key=lambda x: (x.real, x.imag)):
        for g in groups:
            if abs(v - np.mean(g)) <= tol:
                g.append(v)
                break
        else:
            groups.append([v])
    return [(complex(np.mean(g)), len(g)) for g in groups]


def jordan_chevalley_split(A: np.ndarray,
                           tols: Tolerances = DEFAULT_TOLS) -> LinearPartDecomposition:
    """Multiplicative Jordan-Chevalley decomposition of an invertible matrix.

    The semisimple factor is computed as ``p(A)`` for the Hermite
    interpolation polynomial with ``p = lambda_c + O((x - lambda_c)^m_c)`` at
    each eigenvalue cluster.  Ill-conditioned or inconsistent splits are
    refused rather than returned.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise StructuralError("square matrix required")
    dim = A.shape[0]
    if dim > _DIM_CAP:
        raise StructuralError(f"dimension {dim} exceeds the cap {_DIM_CAP}")
    scale = max(1.0, float(np.linalg.norm(A, 2)))
    values = np.linalg.eigvals(A)

    if np.all(np.abs(values - 1.0) <= tols.unit):
        M = A - np.eye(dim)
        return LinearPartDecomposition(
            A=A, B=np.eye(dim), M=M,
            nilpotent_index_of_M=nilpotency_index(M, tols.nilp),
            is_unipotent=True)

    if np.any(np.abs(values) <= tols.zero * scale):
        raise UnsupportedCaseError(
            "linear part is singular; the multiplicative decomposition "
            "A = B(I + M) needs an invertible semisimple factor")

    clusters = _cluster(values, tol=1e-6 * scale)
    # Hermite conditions: p(c) = c and p^(j)(c) = 0 for j = 1..m-1, per cluster.
    size = sum(m for _, m in clusters)
    rows, rhs = [], []
    for center, mult in clusters:
        for j in range(mult):
            row = np.zeros(size, dtype=complex)
            for i in range(j, size):
                row[i] = math.perm(i, j) * center ** (i - j)
            rows.append(row)
            rhs.append(center if j == 0 else 0.0)
    try:
        coeffs = np.linalg.solve(np.array(rows), np.array(rhs))
    except np.linalg.LinAlgError as exc:
        raise UnsupportedCaseError(f"eigenvalue clustering is degenerate: {exc}") from exc

    B_c = np.zeros((dim, dim), dtype=complex)
    for c in reversed(coeffs):  # Horner in A
        B_c = B_c @ A + c * np.eye(dim)
    if np.max(np.abs(B_c.imag)) > 1e-8 * scale:
        raise UnsupportedCaseError(
            "semisimple factor came out non-real; the eigenproblem is too "
            "ill-conditioned to split reliably")
    B = B_c.real
    M = np.linalg.solve(B, A) - np.eye(dim)

    resid = max(np.max(np.abs(A - B @ (np.eye(dim) + M))),
                np.max(np.abs(B @ M - M @ B)))
    idx = nilpotency_index(M, tols.nilp)
    if resid > 1e-9 * scale or (np.max(np.abs(M)) > tols.nilp * scale and idx is None):
        raise UnsupportedCaseError(
            f"defective eigenproblem beyond the conditioning cap "
            f"(split residual {resid:.3g}); refusing to mis-split")
    return LinearPartDecomposition(A=A, B=B, M=M, nilpotent_index_of_M=idx,
                                   is_unipotent=False)


def _finite_series(step, term: np.ndarray, coeffs: list[float]) -> np.ndarray:
    """sum_k coeffs[k] R_k for R_0 = ``term`` and R_k = step(R_{k-1}, k), exact
    when R_len(coeffs) = 0; it stops early at an exactly zero term.  A
    coefficient of exactly 1 adds its term unscaled, which gives the same
    bits as the product."""
    total = term.copy() if coeffs[0] == 1.0 else coeffs[0] * term
    for k in range(1, len(coeffs)):
        term = step(term, k)
        if not np.count_nonzero(term):
            break
        total += term if coeffs[k] == 1.0 else coeffs[k] * term
    return total


def nilpotent_log(A: np.ndarray, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Matrix logarithm of a unipotent matrix (finite series, exact).

    Coincides with A - I when (A - I)^2 = 0; for deeper nilpotency the
    higher terms are required so that the exponential reproduces A exactly.
    The series runs to (A - I)^m, zero for any nilpotent m x m matrix, or
    to its first exactly zero term; the nilpotency test of A - I only
    refuses a matrix that is not unipotent.
    """
    A = np.asarray(A, dtype=float)
    N = A - np.eye(len(A))
    _refuse_non_nilpotent(N, tols.nilp, "linear part is not unipotent; see")
    return _finite_series(lambda P, k: P @ N, N,
                          [(-1.0) ** p / (p + 1) for p in range(max(len(A), 1))])


def _refuse_non_nilpotent(L: np.ndarray, tol: float,
                          refusal: str = "linear part is not nilpotent; run") -> None:
    """Refuses ``L`` with :class:`UnsupportedCaseError` unless it is nilpotent
    within ``tol``; ``refusal`` opens the message."""
    if nilpotency_index(L, tol) is None:
        raise UnsupportedCaseError(
            f"{refusal} jordan_chevalley_split for the semisimple/nilpotent diagnosis")


def _time1(V: np.ndarray, table: _GradedTable, degree: int, depth: int) -> np.ndarray:
    """Time-1 map of the field ``V`` (an (m, D) array on the graded basis of
    ``table``), truncated at ``degree``: the Lie series exp(D_V) x with
    D_V g = sum_j V_j dg/dx_j, as (m, n) coefficients on the n monomials of
    degree 1..``degree``.

    Requires V(0) = 0, so D_V never lowers a degree: on the graded basis it
    is block lower-triangular by degree, and its leading n x n block is the
    operator of the order-``degree`` truncation, exactly.  The series runs
    X <- D_V X / k on that block from the columns of x_1..x_m and is finite.
    L^depth = 0 for the linear part L (callers pass the dimension m), so
    the diagonal block of D_V on degree d is nilpotent of index at most
    d(depth - 1) + 1, while the blocks below the diagonal raise the degree.
    A nonzero coefficient of degree at most ``degree`` therefore comes from
    at most degree - 1 raising steps and d(depth - 1) steps in each diagonal
    block d = 1..``degree``, which bounds the number of terms by
    (degree - 1) + (depth - 1) degree (degree + 1) / 2; the series stops
    earlier at its first exactly zero term."""
    op = _derivation(V, table, degree)
    X = np.zeros((op.shape[0], len(V)))
    X[table.var, np.arange(len(V))] = 1.0
    terms = degree + (depth - 1) * degree * (degree + 1) // 2

    def step(X, k):
        X = op @ X
        X *= 1.0 / k
        return X

    return _finite_series(step, X, [1.0] * terms).T


def _graded_finite(jets: JetVector, table: _GradedTable, what: str) -> np.ndarray:
    """Coefficients of ``jets`` on the graded basis of ``table``; refuses a
    non-finite one."""
    coeffs = _graded_coeffs(jets, table)
    finite = np.isfinite(coeffs)
    if not finite.all():
        i, a = np.argwhere(~finite)[0]
        raise PreconditionError(
            f"{what} component {i} has the non-finite coefficient {coeffs[i, a]!r} "
            f"at monomial {table.rows[1 + a]}")
    return coeffs


def _check_field(V: JetVector, table: _GradedTable, tols: Tolerances) -> np.ndarray:
    """Validate a vector field, refusing one whose linear part is not
    nilpotent; returns its coefficients on the graded basis of ``table``."""
    if len(V) != V.num_vars:
        raise StructuralError("vector field must have one component per variable")
    const = V.constant_vector()
    if np.max(np.abs(const), initial=0.0) != 0.0:
        raise StructuralError("vector field must vanish at the origin; "
                              "re-expand about the equilibrium first")
    coeffs = _graded_finite(V, table, "vector field")
    _refuse_non_nilpotent(coeffs[:, table.var], tols.nilp)
    return coeffs


def flow_time1_jet(V: JetVector, order: int,
                   tols: Tolerances = DEFAULT_TOLS) -> JetVector:
    """Jet of the time-1 map of a vector field with nilpotent linear part.

    Sums the Lie series exp(D_V) x, which is finite because the linear part
    is nilpotent; every coefficient is exact up to rounding.  A non-finite
    coefficient up to ``order`` is refused with :class:`PreconditionError`.
    """
    if order < 1 or order > V.order:
        raise StructuralError(f"order must lie in 1..{V.order}")
    table = _graded_table(V.num_vars, order)
    coeffs = _check_field(V, table, tols)
    reliable = min(c.reliable_order for c in V)
    return JetVector(_graded_jets(_time1(coeffs, table, order, V.num_vars), table,
                                  V.num_vars, V.order, reliable),
                     V.num_vars, V.order)


@dataclass
class EmbeddingResult:
    """Vector field jet whose time-1 flow matches a map jet."""
    V: JetVector
    matched_order: int
    residual: float


def _bernoulli_series(top: int) -> list[float]:
    """B_k/k! for k = 0..``top``, each rounded once; a fresh list per call
    from a table computed once per ``top``."""
    return list(_bernoulli_table(top))


@cache
def _bernoulli_table(top: int) -> tuple[float, ...]:
    """The recurrence sum_{j<=k} C(k+1, j) B_j = 0 runs on the integers
    B_j (top + 1)!, since the denominator of B_k divides (k + 1)!.  It skips
    the zero B_k of odd k > 1."""
    D = math.factorial(top + 1)
    BD = [D]
    for k in range(1, top + 1):
        BD.append(0 if k > 1 and k % 2 else
                  -sum(math.comb(k + 1, j) * BD[j] for j in range(k) if BD[j]) // (k + 1))
    return tuple(BD[k] / (D * math.factorial(k)) for k in range(top + 1))


def _takens_solve(L: np.ndarray, A: np.ndarray, rhs: np.ndarray,
                  depth: int, degree: int) -> np.ndarray:
    """The (m, D_l) part F of degree l = ``degree`` whose contribution
    sum_{p,q} L^p F (A^T)^q/(p+q+1)! to the time-1 map of Lx + F is ``rhs``,
    with ``A`` the degree-l block of D_{Lx}.  For the commuting X F = L F and
    N F = F A^T - L F that operator is e^X (e^N - 1)/N, so F = beta(N) e^-L rhs
    with beta(z) = z/(e^z - 1); N^k = 0 for k > (depth - 1)(l + 1) when
    L^depth = 0 (callers pass the dimension m)."""
    start = _finite_series(lambda F, k: (L @ F) * (-1.0 / k), rhs, [1.0] * depth)

    def step(F, k):
        G = F @ A.T
        G -= L @ F
        return G

    return _finite_series(step, start,
                          _bernoulli_series((depth - 1) * (degree + 1)))


def takens_embed_unipotent(H: JetVector, order: int,
                           tols: Tolerances = DEFAULT_TOLS) -> EmbeddingResult:
    """Unique formal vector field whose time-1 flow jet matches ``H``.

    Requires H(0) = 0 and a unipotent linear part.  The field's linear part
    is the nilpotent logarithm L of the map's linear part; each homogeneous
    part is the finite Bernoulli series of :func:`_takens_solve`, on the
    diagonal blocks of one derivation matrix D_{Lx} on the graded basis.
    A non-finite coefficient up to ``order`` is refused with
    :class:`PreconditionError`, and a residual above ``tols.embed_residual``
    times max(1, largest coefficient of ``H``) with
    :class:`ConvergenceError`.
    """
    if order < 1 or order > H.order:
        raise StructuralError(f"order must lie in 1..{H.order}")
    m = H.num_vars
    if len(H) != m:
        raise StructuralError("map jet must be square (one component per variable)")
    if np.max(np.abs(H.constant_vector()), initial=0.0) != 0.0:
        raise PreconditionError("map must fix the origin; re-center first")
    table = _graded_table(m, order)
    target = _graded_finite(H, table, "map")
    L = nilpotent_log(target[:, table.var], tols)  # refuses non-unipotent ones

    V = np.zeros_like(target)
    V[:, table.var] = L
    lin = _derivation(V, table, order)  # D_{Lx}, block diagonal by degree

    for l in range(2, order + 1):
        # V holds degrees < l here; F_l enters degree l linearly
        part = slice(table.ends[l - 1], table.ends[l])
        known_l = _time1(V, table, l, m)[:, part]
        V[:, part] = _takens_solve(L, lin[part, part], target[:, part] - known_l,
                                   m, l)

    residual = float(np.max(np.abs(_time1(V, table, order, m) - target)))
    if not residual <= tols.embed_residual * max(1.0, H.max_abs()):
        raise ConvergenceError(f"embedded field misses the map: residual {residual:.3g} "
                               f"above embed_residual x max(1, |H|)")
    return EmbeddingResult(V=JetVector(_graded_jets(V, table, m, H.order), m, H.order),
                           matched_order=order, residual=residual)


# ---------------------------------------------------------------------------
# reduced-map embedding verification


def projection_jets(spec: FastSlowMapSpec) -> list[list[Jet]]:
    """Jets (about the base point) of the oblique projection along the fast
    fibers onto the critical manifold's tangent directions."""
    n, p = spec.n, spec.n - spec.k
    Df = spec._df
    M = jet_matrix_mul(Df, spec.N)
    M0 = np.array([[M[i][j].constant_term for j in range(p)] for i in range(p)])
    if not np.isfinite(np.linalg.cond(M0)) or np.linalg.cond(M0) > spec.tols.cond_cap:
        raise PreconditionError(
            "projection jets need an invertible fast-fiber pairing at the base "
            "point (some multiplier equals 1 there)")
    NXDf = jet_matrix_mul(spec.N, jet_matrix_mul(jet_matrix_inverse(M), Df))
    # I - N X Df
    return [[(1.0 if i == j else 0.0) - NXDf[i][j] for j in range(n)]
            for i in range(n)]


def reduced_map_jets(spec: FastSlowMapSpec) -> JetVector:
    """Extended jet of the slow map ``z -> z + eps * P(z) G(z, eps)`` about the
    base point, with the trivial eps row appended.

    ``P`` is the fast-fiber projection extended as a jet; retaining the full
    eps-dependence of G exercises the second-order-in-eps structure."""
    n, r = spec.n, spec.order
    m = n + 1
    proj = projection_jets(spec)
    eps_var = Jet.variable(m, r, n)
    comps = []
    for i in range(n):
        acc = Jet.variable(m, r, i)
        w = Jet.zero(m, r)
        for j in range(n):
            w = w + jet_mul(proj[i][j].extend_vars(m), spec.G[j])
        comps.append(acc + jet_mul(eps_var, w))
    comps.append(eps_var)
    return JetVector(comps, m, r)


@dataclass
class ReducedEmbeddingReport:
    """Coefficient-level comparison of the slow map against the time-1 flow
    of its reduced vector field."""
    order: int
    j1_diff: float
    eps01_diffs: dict[int, float]          # per degree, eps-exponent in {0, 1}
    eps2_solver: np.ndarray                # eps^2 field coefficients, generic solve
    eps2_closed: np.ndarray                # same, closed-form correction
    eps2_diff: float
    residual: float


def verify_reduced_embedding(spec: FastSlowMapSpec, z0, order: int,
                             tols: Tolerances | None = None) -> ReducedEmbeddingReport:
    """Check the order structure of the slow-map embedding at a normally
    hyperbolic point: coefficients with eps-exponent 0 or 1 of map and field
    agree, and the eps^2 coefficients differ by the closed-form correction."""
    tols = tols or spec.tols
    cls = classify_point(spec, z0)
    if not cls.tag.startswith("NH"):
        raise PreconditionError(
            f"slow-map embedding needs a normally hyperbolic point, got {cls.tag}")
    local = spec.recenter(z0)
    rd = reduced_data(local, local.base_point)
    if not rd.valid:
        raise PreconditionError("fast-fiber projection is singular at this point")

    n = local.n
    H = reduced_map_jets(local)
    result = takens_embed_unipotent(H, order, tols)
    V = result.V

    A = H.linear_matrix()
    j1_diff = float(np.max(np.abs(V.linear_matrix() - (A - np.eye(n + 1)))))

    # gaps at the monomials of eps-exponent 0 or 1, worst per degree
    table = _graded_table(n + 1, H.order)
    Hc, Vc = _graded_coeffs(H, table), _graded_coeffs(V, table)
    gap = np.abs(Hc - Vc)
    gap[:, table.exponents[1:, -1] > 1] = 0.0
    eps01 = {l: float(gap[:, table.ends[l - 1]:table.ends[l]].max())
             for l in range(2, order + 1)}

    # eps^2 correction at degree 2: closed form vs the generic solve, with
    # the terms of the correction summed in the order of s
    eps2 = table.position[(0,) * n + (2,)] - 1
    corr = np.zeros(n)
    for s in range(n):
        x_eps = table.position[tuple(int(j in (s, n)) for j in range(n + 1))] - 1
        corr += Hc[:n, x_eps] * A[s, n] / 2.0
    closed = Hc[:n, eps2] - corr
    solver = Vc[:n, eps2]
    eps2_diff = float(np.max(np.abs(solver - closed), initial=0.0))

    return ReducedEmbeddingReport(order=order, j1_diff=j1_diff, eps01_diffs=eps01,
                                  eps2_solver=solver, eps2_closed=closed,
                                  eps2_diff=eps2_diff, residual=result.residual)
