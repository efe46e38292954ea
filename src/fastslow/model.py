"""Fast-slow map model and singular theory.

A fast-slow map acts as ``z -> z + N(z) f(z) + eps G(z, eps)`` with an
``n x (n-k)`` factor matrix ``N`` of full column rank and an ``(n-k)``-vector
``f`` whose zero set is the manifold of fixed points of the eps = 0 map.
The factorization is a user contract: it is supplied, never computed.

All jets are local expansions in the displacement ``d = z - base_point``
(and eps where applicable); evaluation at a point first forms ``d`` and
rejects points outside the trust radius.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (AssumptionViolationError, ConvergenceError, DomainError,
                     PreconditionError, StructuralError)
from .jets import (Jet, JetVector, jet_partial, jet_shift)
from .tols import DEFAULT_TOLS, Tolerances

__all__ = [
    "FastSlowMapSpec",
    "MultiplierSet",
    "SingularityClass",
    "ReducedData",
    "standard_form_2d",
    "nontrivial_multipliers",
    "classify_point",
    "reduced_data",
    "reduced_map_step",
    "critical_manifold_solve",
    "nilpotency_index",
    "extended_map_jets",
]

TAGS = ("NH_attracting", "NH_repelling", "NH_saddle",
        "FoldContact", "Flip", "NeimarkSacker", "MixedNonNH")


def _evaluate_matrix(rows: Sequence[Sequence[Jet]], point: np.ndarray) -> np.ndarray:
    """Values of a matrix of jets at ``point``, from one term table."""
    flat = JetVector([e for row in rows for e in row])
    return flat.evaluate(point).reshape(len(rows), -1)


@dataclass
class FastSlowMapSpec:
    """Immutable-by-convention description of one fast-slow map.

    ``N`` is an n x (n-k) matrix of jets in the n displacement variables,
    ``f`` an (n-k)-component jet vector in the same variables, and ``G`` an
    n-component jet vector in (d_1..d_n, eps).
    """

    n: int
    k: int
    order: int
    N: tuple[tuple[Jet, ...], ...]
    f: JetVector
    G: JetVector
    base_point: np.ndarray
    tols: Tolerances = field(default_factory=lambda: DEFAULT_TOLS)

    def __post_init__(self):
        n, k, r = self.n, self.k, self.order
        if not 1 <= k < n:
            raise StructuralError(f"need 1 <= k < n, got n={n}, k={k}")
        if r < 3:
            raise StructuralError(f"truncation order must be >= 3, got {r}")
        self.N = tuple(tuple(row) for row in self.N)
        if len(self.N) != n or any(len(row) != n - k for row in self.N):
            raise StructuralError(f"N must be {n} x {n - k} jets")
        for row in self.N:
            for entry in row:
                if entry.num_vars != n or entry.order != r:
                    raise StructuralError("N entries must be jets in the n "
                                          "displacement variables at the shared order")
        if len(self.f) != n - k or self.f.num_vars != n or self.f.order != r:
            raise StructuralError(f"f must be {n - k} jets in {n} variables")
        if len(self.G) != n or self.G.num_vars != n + 1 or self.G.order != r:
            raise StructuralError(f"G must be {n} jets in {n + 1} variables (last is eps)")
        self.base_point = np.asarray(self.base_point, dtype=float)
        if self.base_point.shape != (n,):
            raise StructuralError(f"base point must have {n} coordinates")
        N0 = np.array([[e.constant_term for e in row] for row in self.N])
        if np.linalg.matrix_rank(N0, tol=None) < n - k:
            raise AssumptionViolationError(
                "factor matrix must have full column rank at the base point "
                f"(rank {np.linalg.matrix_rank(N0)} < {n - k})")
        self._df: list[list[Jet]] = [[jet_partial(self.f[i], j) for j in range(n)]
                                     for i in range(n - k)]
        self._map_jets: JetVector | None = None

    # -- local evaluation ----------------------------------------------------

    def local(self, z: Sequence[float]) -> np.ndarray:
        d = np.asarray(z, dtype=float) - self.base_point
        if np.linalg.norm(d) > self.tols.trust_radius:
            raise DomainError(
                f"point {np.asarray(z)} lies {np.linalg.norm(d):.3g} from the base "
                f"point, beyond the trust radius {self.tols.trust_radius:g}")
        return d

    def f_at(self, z) -> np.ndarray:
        d = self.local(z)
        return self.f.evaluate(d)

    def N_at(self, z) -> np.ndarray:
        return _evaluate_matrix(self.N, self.local(z))

    def Df_at(self, z) -> np.ndarray:
        return _evaluate_matrix(self._df, self.local(z))

    def DfN_at(self, z) -> np.ndarray:
        return self.Df_at(z) @ self.N_at(z)

    def G_at(self, z, eps: float) -> np.ndarray:
        d = self.local(z)
        return self.G.evaluate(np.append(d, eps))

    def map_apply(self, z, eps: float) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return z + self.N_at(z) @ self.f_at(z) + eps * self.G_at(z, eps)

    def recenter(self, z0) -> "FastSlowMapSpec":
        """Re-expand every jet about a new base point (polynomial shift)."""
        d0 = self.local(z0)
        if not np.any(d0):
            return self
        off = list(d0)
        off_eps = off + [0.0]
        return FastSlowMapSpec(
            n=self.n, k=self.k, order=self.order,
            N=tuple(tuple(jet_shift(e, off) for e in row) for row in self.N),
            f=JetVector([jet_shift(c, off) for c in self.f]),
            G=JetVector([jet_shift(c, off_eps) for c in self.G]),
            base_point=np.asarray(z0, dtype=float),
            tols=self.tols)


def standard_form_2d(f_terms, g_fast_terms, g_slow_terms, order: int,
                     base=(0.0, 0.0), tols: Tolerances = DEFAULT_TOLS) -> FastSlowMapSpec:
    """Convenience builder for planar maps ``(x, y) -> (x + f + eps*gf, y + eps*gs)``.

    ``f_terms`` maps (i, j) exponents of x^i y^j; the g-terms use (i, j, l)
    with l the eps exponent.
    """
    f = Jet.from_terms(2, order, f_terms)
    one = Jet.constant(2, order, 1.0)
    zero = Jet.zero(2, order)
    G = JetVector([Jet.from_terms(3, order, g_fast_terms),
                   Jet.from_terms(3, order, g_slow_terms)])
    return FastSlowMapSpec(n=2, k=1, order=order,
                           N=((one,), (zero,)), f=JetVector([f]),
                           G=G, base_point=np.asarray(base, dtype=float), tols=tols)


@dataclass
class MultiplierSet:
    """Nontrivial multipliers: eigenvalues of I + Df(z) N(z)."""
    values: np.ndarray
    eigen_basis: np.ndarray


@dataclass
class SingularityClass:
    tag: str
    superstable: bool
    unipotent_index: int | None


@dataclass
class ReducedData:
    projection: np.ndarray
    reduced_field: np.ndarray
    valid: bool


def nontrivial_multipliers(spec: FastSlowMapSpec, z) -> MultiplierSet:
    M = spec.DfN_at(z)
    values, basis = np.linalg.eig(np.eye(spec.n - spec.k) + M)
    order = np.lexsort((values.imag, values.real))
    return MultiplierSet(values=values[order], eigen_basis=basis[:, order])


def classify_point(spec: FastSlowMapSpec, z) -> SingularityClass:
    fz = spec.f_at(z)
    resid = float(np.max(np.abs(fz))) if fz.size else 0.0
    if not resid <= spec.tols.manifold:
        raise PreconditionError(
            f"point is off the critical manifold: |f(z)| = {resid:.3g} exceeds "
            f"{spec.tols.manifold:g}")
    tols = spec.tols
    mu = nontrivial_multipliers(spec, z).values
    on_circle = np.abs(np.abs(mu) - 1.0) <= tols.unit
    at_one = np.abs(mu - 1.0) <= tols.unit
    at_minus_one = np.abs(mu + 1.0) <= tols.unit
    superstable = bool(np.any(np.abs(mu) <= tols.zero))

    unipotent_index = None
    if bool(np.all(at_one)):
        unipotent_index = nilpotency_index(spec.DfN_at(z), tols.nilp)

    if not np.any(on_circle):
        mods = np.abs(mu)
        if np.all(mods < 1.0):
            tag = "NH_attracting"
        elif np.all(mods > 1.0):
            tag = "NH_repelling"
        else:
            tag = "NH_saddle"
    else:
        others_off = ~on_circle
        n_one = int(np.sum(at_one))
        n_minus = int(np.sum(at_minus_one))
        complex_on = on_circle & ~at_one & ~at_minus_one
        if n_one == 1 and np.all(others_off | at_one):
            tag = "FoldContact"
        elif n_minus == 1 and np.all(others_off | at_minus_one):
            tag = "Flip"
        elif (int(np.sum(complex_on)) == 2 and n_one == 0 and n_minus == 0
              and np.all(others_off | complex_on)):
            tag = "NeimarkSacker"
        else:
            tag = "MixedNonNH"
    return SingularityClass(tag=tag, superstable=superstable,
                            unipotent_index=unipotent_index)


def reduced_data(spec: FastSlowMapSpec, z) -> ReducedData:
    fz = spec.f_at(z)
    resid = float(np.max(np.abs(fz))) if fz.size else 0.0
    if not resid <= spec.tols.manifold:
        raise PreconditionError(
            f"point is off the critical manifold: |f(z)| = {resid:.3g}")
    n = spec.n
    Df = spec.Df_at(z)
    N = spec.N_at(z)
    M = Df @ N
    # singular (any multiplier at 1) -> flagged invalid, callers branch on it
    if M.size:
        cond = np.linalg.cond(M)
        if not np.isfinite(cond) or cond > spec.tols.cond_cap:
            return ReducedData(projection=np.zeros((n, n)),
                               reduced_field=np.zeros(n), valid=False)
    proj = np.eye(n) - N @ np.linalg.solve(M, Df)
    g0 = spec.G_at(z, 0.0)
    return ReducedData(projection=proj, reduced_field=proj @ g0, valid=True)


def reduced_map_step(spec: FastSlowMapSpec, z, eps: float) -> np.ndarray:
    if eps < 0:
        raise PreconditionError(f"eps must be nonnegative, got {eps}")
    rd = reduced_data(spec, z)
    if not rd.valid:
        mu = nontrivial_multipliers(spec, z).values
        raise PreconditionError(
            "reduced map undefined here: the fast-fiber projection is singular "
            f"(multipliers {np.round(mu, 12)})")
    z = np.asarray(z, dtype=float)
    if eps == 0.0:
        return z.copy()
    return z + eps * rd.reduced_field


def critical_manifold_solve(spec: FastSlowMapSpec, guess,
                            max_iter: int = 50,
                            frozen: Sequence[int] = ()) -> np.ndarray:
    """Newton iteration on f with minimum-norm updates of the coordinates
    not listed in ``frozen``; frozen coordinates come back unchanged.

    Raises :class:`PreconditionError` when the Jacobian of f over the free
    coordinates loses row rank."""
    z = np.asarray(guess, dtype=float).copy()
    fz = spec.f_at(z)
    if float(np.max(np.abs(fz), initial=0.0)) <= spec.tols.manifold:
        return z
    free = [i for i in range(spec.n) if i not in frozen]
    p = spec.n - spec.k
    resid = None
    for _ in range(max_iter):
        Df = spec.Df_at(z)[:, free]
        if np.linalg.matrix_rank(Df) < p:
            raise PreconditionError(
                f"Jacobian of f over the free coordinates {free} loses row "
                f"rank at z = {z}")
        step, *_ = np.linalg.lstsq(Df, -fz, rcond=None)
        z[free] += step
        fz = spec.f_at(z)
        resid = float(np.max(np.abs(fz)))
        if resid <= spec.tols.manifold:
            return z
    raise ConvergenceError(
        f"critical-manifold Newton did not converge in {max_iter} iterations "
        f"(last residual {resid:.3g})")


_NILPOTENCY_DIM_CAP = 64


def nilpotency_index(M: np.ndarray, tol: float) -> int | None:
    """Smallest l with ``M^l ~ 0`` relative to ``max(1, |M|)^l``, or None.

    The powers M^1..M^dim are formed up to the first exactly zero one, as
    all later ones are zero too.  The 2-norms of M and of the powers before
    the first non-finite one come from one stacked SVD; a non-finite power
    is normed alone, and only if no earlier power passed."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise StructuralError("nilpotency index needs a square matrix")
    dim = M.shape[0]
    if dim > _NILPOTENCY_DIM_CAP:
        raise StructuralError(
            f"dimension {dim} exceeds the cap {_NILPOTENCY_DIM_CAP}")
    if dim == 0:
        return 1
    stack = np.empty((dim + 1, dim, dim))  # M, then M^1, M^2, ...
    stack[0] = M
    np.matmul(np.eye(dim), M, out=stack[1])
    formed = 1
    while formed < dim and np.count_nonzero(stack[formed]):
        np.matmul(stack[formed], M, out=stack[formed + 1])
        formed += 1
    finite = np.isfinite(stack[1:formed + 1]).all(axis=(1, 2))
    count = formed if finite.all() else int(finite.argmin())
    norms = np.linalg.svd(stack[:count + 1], compute_uv=False).max(axis=1).tolist()
    scale = max(1.0, norms[0])
    for power in range(1, dim + 1):
        if power <= count:
            norm = norms[power]
        elif power <= formed:
            norm = np.linalg.norm(stack[power], 2)
        else:
            norm = 0.0
        if norm <= tol * scale ** power:
            return power
    return None


def extended_map_jets(spec: FastSlowMapSpec) -> JetVector:
    """Jets of the full map in (d_1..d_n, eps): components of H(z, eps) - base,
    with the trivial eps -> eps row appended."""
    if spec._map_jets is not None:
        return spec._map_jets
    n, r = spec.n, spec.order
    m = n + 1
    eps_var = Jet.variable(m, r, n)
    f_ext = [c.extend_vars(m) for c in spec.f]
    comps = []
    for i in range(n):
        acc = Jet.variable(m, r, i)
        for j in range(n - spec.k):
            acc = acc + spec.N[i][j].extend_vars(m) * f_ext[j]
        acc = acc + eps_var * spec.G[i]
        comps.append(acc)
    comps.append(eps_var)
    spec._map_jets = JetVector(comps)
    return spec._map_jets
