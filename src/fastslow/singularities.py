"""Codimension-1 singularity analysis.

Planar standard-form maps: regular fold / transcritical / pitchfork
detection from partial-derivative conditions, threshold coefficients for
branch selection, and the planar embedding with its structure checks.

General maps: regular contact points (rank drop of the fast pairing by one
plus transversality, quadratic nondegeneracy and slow regularity), the
rectifying chart that exposes the center directions, the center-manifold
graph solve, and the embedding of the restricted map with closed-form
coefficient cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, DegenerateCaseError, PreconditionError,
                     StructuralError)
from .jets import (Jet, JetVector, _compose, _composition_matrix, _graded_coeffs,
                   _graded_jets, _graded_table, _mul_matrix, jet_linear_map,
                   jet_matrix_mul, jet_mul, jet_partial, jet_reciprocal,
                   jetvector_compose)
from .model import (FastSlowMapSpec, _evaluate_matrix, extended_map_jets,
                    nontrivial_multipliers)
from .embedding import (EmbeddingResult, _finite_series, _nilpotent_depth,
                        takens_embed_unipotent)
from .tols import DEFAULT_TOLS, Tolerances

__all__ = [
    "NormalFormCoefficients",
    "PlanarSingularity",
    "is_standard_2d",
    "classify_planar_singularity",
    "threshold_lambda",
    "Embed2DResult",
    "embed_2d",
    "ContactFrame",
    "ContactReport",
    "check_regular_contact",
    "ContactNormalForm",
    "cm_normal_form_transform",
    "CenterManifoldData",
    "center_manifold_restricted_map",
    "ContactEmbedding",
    "embed_on_center_manifold",
]


# ---------------------------------------------------------------------------
# planar classification


@dataclass
class NormalFormCoefficients:
    """Case-dependent normal-form data at a planar singular point.

    Fold and transcritical use the quadratic convention alpha = fxx/2,
    beta = fxy/2, gamma = fyy/2; pitchfork uses alpha = fxy, beta = fyy/2,
    gamma = fxxx/6.  ``delta`` is the eps-derivative of the fast equation
    and ``g0`` the slow drift, both at the singular point.
    """
    case: str
    alpha: float
    beta: float
    gamma: float
    delta: float
    g0: float


@dataclass
class _PlanarPartials:
    f0: float
    fx: float
    fy: float
    fxx: float
    fxy: float
    fyy: float
    fxxx: float
    delta: float
    g0: float


@dataclass
class PlanarSingularity:
    case: str | None
    coefficients: NormalFormCoefficients | None
    failed: tuple[str, ...]


def _band(value: float, name: str, tols: Tolerances,
          ambiguous: list[str]) -> str:
    """'zero', 'nonzero', or record the quantity as ambiguous."""
    if abs(value) <= tols.eq_zero:
        return "zero"
    if abs(value) >= tols.genericity_floor:
        return "nonzero"
    ambiguous.append(f"{name} = {value:.3g}")
    return "ambiguous"


def _planar_case(p: _PlanarPartials, tols: Tolerances) -> PlanarSingularity:
    amb: list[str] = []
    failed: list[str] = []
    if abs(p.f0) > tols.eq_zero:
        failed.append(f"f(0) = {p.f0:.3g} != 0")
    if abs(p.fx) > tols.eq_zero:
        failed.append(f"f_x(0) = {p.fx:.3g} != 0")
    if failed:
        return PlanarSingularity(None, None, tuple(failed))

    g0_band = _band(p.g0, "g(0)", tols, amb)
    fy_band = _band(p.fy, "f_y(0)", tols, amb)
    if fy_band == "nonzero":
        fxx_band = _band(p.fxx, "f_xx(0)", tols, amb)
        if amb:
            raise DegenerateCaseError(
                "planar classification ambiguous near the fold conditions: "
                + "; ".join(amb))
        if fxx_band == "nonzero" and g0_band == "nonzero":
            coeffs = NormalFormCoefficients("Fold", p.fxx / 2, p.fxy / 2,
                                            p.fyy / 2, p.delta, p.g0)
            return PlanarSingularity("Fold", coeffs, ())
        if fxx_band != "nonzero":
            failed.append(f"fold genericity f_xx(0) = {p.fxx:.3g} == 0")
        if g0_band != "nonzero":
            failed.append(f"fold genericity g(0) = {p.g0:.3g} == 0")
        return PlanarSingularity(None, None, tuple(failed))

    if fy_band == "ambiguous":
        raise DegenerateCaseError(
            "planar classification ambiguous: " + "; ".join(amb))

    # f_y(0) = 0: transcritical vs pitchfork, separated by f_xx(0)
    fxx_band = _band(p.fxx, "f_xx(0)", tols, amb)
    if fxx_band == "ambiguous" or (amb and g0_band == "ambiguous"):
        raise DegenerateCaseError(
            "planar classification ambiguous: " + "; ".join(amb))
    if fxx_band == "nonzero":
        det = p.fxx * p.fyy - p.fxy ** 2
        if det >= -tols.genericity_floor:
            failed.append(f"transcritical determinant condition det = {det:.3g} not < 0")
        if g0_band != "nonzero":
            failed.append(f"transcritical genericity g(0) = {p.g0:.3g} == 0")
        if failed:
            return PlanarSingularity(None, None, tuple(failed))
        coeffs = NormalFormCoefficients("Transcritical", p.fxx / 2, p.fxy / 2,
                                        p.fyy / 2, p.delta, p.g0)
        return PlanarSingularity("Transcritical", coeffs, ())

    fxxx_band = _band(p.fxxx, "f_xxx(0)", tols, amb)
    fxy_band = _band(p.fxy, "f_xy(0)", tols, amb)
    if amb:
        raise DegenerateCaseError(
            "planar classification ambiguous: " + "; ".join(amb))
    if fxxx_band == "nonzero" and fxy_band == "nonzero" and g0_band == "nonzero":
        coeffs = NormalFormCoefficients("Pitchfork", p.fxy, p.fyy / 2,
                                        p.fxxx / 6, p.delta, p.g0)
        return PlanarSingularity("Pitchfork", coeffs, ())
    if fxxx_band != "nonzero":
        failed.append(f"pitchfork genericity f_xxx(0) = {p.fxxx:.3g} == 0")
    if fxy_band != "nonzero":
        failed.append(f"pitchfork genericity f_xy(0) = {p.fxy:.3g} == 0")
    if g0_band != "nonzero":
        failed.append(f"pitchfork genericity g(0) = {p.g0:.3g} == 0")
    return PlanarSingularity(None, None, tuple(failed))


def is_standard_2d(spec: FastSlowMapSpec) -> bool:
    """Planar (n = 2, k = 1) with the constant factor column N = (1, 0)."""
    if spec.n != 2 or spec.k != 1:
        return False
    n00, n10 = spec.N[0][0], spec.N[1][0]
    return (abs(n00.constant_term - 1.0) <= 1e-12 and n00.degree_max == 0
            and n10.is_zero())


def _require_standard_2d(spec: FastSlowMapSpec) -> None:
    if not is_standard_2d(spec):
        raise PreconditionError(
            "planar analysis needs n = 2, k = 1 and the standard-form factor "
            "column (1, 0)")


def _planar_partials(f: Jet, delta: float, g0: float) -> _PlanarPartials:
    """Classifier inputs from a fast jet in (x, y, ...); exponents of any
    further variables are zero."""
    def c(*exps: int) -> float:
        return f.coefficient(exps + (0,) * (f.num_vars - 2))

    return _PlanarPartials(f0=f.constant_term, fx=c(1, 0), fy=c(0, 1),
                           fxx=2 * c(2, 0), fxy=c(1, 1), fyy=2 * c(0, 2),
                           fxxx=6 * c(3, 0), delta=delta, g0=g0)


def classify_planar_singularity(spec: FastSlowMapSpec) -> PlanarSingularity:
    """Match the base point of a planar standard-form map against the
    regular-fold / transcritical / pitchfork defining and genericity
    conditions.  Returns the unique matching case, or a no-case report
    listing the failed conditions.
    """
    _require_standard_2d(spec)
    if spec.order < 3:
        raise PreconditionError("planar classification needs jets of order >= 3")
    return _planar_case(_planar_partials(spec.f[0], spec.G[0].constant_term,
                                         spec.G[1].constant_term), spec.tols)


def threshold_lambda(coeffs: NormalFormCoefficients) -> float:
    """Branch-selection threshold coefficient for the transcritical and
    pitchfork cases (closed formulas in the normal-form data)."""
    a, b, g, d, g0 = coeffs.alpha, coeffs.beta, coeffs.gamma, coeffs.delta, coeffs.g0
    if coeffs.case == "Transcritical":
        rad = b * b - g * a
        if rad <= 0:
            raise PreconditionError(
                f"transcritical threshold needs beta^2 - gamma*alpha > 0, got {rad:.3g}")
        return (d * a + g0 * b) / (abs(g0) * math.sqrt(rad))
    if coeffs.case == "Pitchfork":
        if g >= 0:
            raise PreconditionError(
                f"pitchfork threshold needs gamma < 0 (supercritical), got {g:.3g}")
        # the double |alpha| in the denominator is used as stated
        return (d * a + b * g0) * math.sqrt(-g) / (a * abs(g0) * abs(a))
    raise PreconditionError(f"no threshold coefficient for case {coeffs.case!r}")


# ---------------------------------------------------------------------------
# factor extraction by least squares


def _jet_divide_lstsq(numer: Jet, divisor: Jet, quotient_degree: int,
                      match_degree: int | None = None) -> tuple[Jet, float]:
    """Best quotient q with q * divisor = numer through ``match_degree``.

    Solved as a dense least-squares problem on the graded basis, with the
    divisor's multiplication matrix; the returned residual is the largest
    unmatched coefficient.
    """
    m, order = numer.num_vars, numer.order
    match = order if match_degree is None else match_degree
    table = _graded_table(m, order)
    rows = table.ends[match] + 1
    cols = table.ends[quotient_degree] + 1 if quotient_degree >= 0 else 0
    A = _mul_matrix(divisor._graded, table, max(match, quotient_degree))[:cols, :rows].T
    b = np.zeros(rows)
    b[:min(rows, len(numer._graded))] = numer._graded[:rows]
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    q = Jet._from_graded(m, order, sol)
    resid = (jet_mul(q, divisor) - numer).degree_cap(match).max_abs()
    return q, resid


# ---------------------------------------------------------------------------
# planar embedding


@dataclass
class Embed2DResult:
    embedding: EmbeddingResult
    case_in: str
    case_out: str | None
    coefficients_in: NormalFormCoefficients
    coefficients_out: NormalFormCoefficients | None
    K: Jet
    K0: float
    factor_residual: float
    slow_eps0_residual: float
    g0_slow: float


def embed_2d(spec: FastSlowMapSpec, order: int | None = None,
             tols: Tolerances | None = None) -> Embed2DResult:
    """Embed a planar standard-form map near its singular base point and
    verify the fast-slow structure of the resulting field: the slow
    component is eps times (slow drift + higher order), the fast component
    at eps = 0 factors through the fast equation's jet with unit leading
    factor, and the field's singularity case matches the map's.
    """
    tols = tols or spec.tols
    cls = classify_planar_singularity(spec)
    if cls.case is None:
        raise PreconditionError(
            "planar embedding needs a classified singular point; failed: "
            + "; ".join(cls.failed))
    order = spec.order if order is None else order

    H = extended_map_jets(spec)
    result = takens_embed_unipotent(H, order, tols)
    V = result.V

    # slow component must be eps * (g0 + higher order)
    v2 = V[1]
    slow_eps0 = v2.subs_zero(2).max_abs()
    g0_slow = v2.coefficient((0, 0, 1))

    # fast component at eps = 0 factors as K * j^r f with K(0,0) = 1
    v1_layer = V[0].subs_zero(2).drop_var(2).degree_cap(order)
    f_layer = spec.f[0].degree_cap(order)
    K, factor_residual = _jet_divide_lstsq(v1_layer, f_layer,
                                           order - f_layer.valuation,
                                           match_degree=order)
    K0 = K.constant_term

    out = _planar_case(_planar_partials(V[0], V[0].coefficient((0, 0, 1)),
                                        V[1].coefficient((0, 0, 1))), tols)
    if factor_residual > tols.structure:
        raise StructuralError(
            f"embedded field does not factor through the fast equation: "
            f"residual {factor_residual:.3g} exceeds {tols.structure:g}")
    return Embed2DResult(embedding=result, case_in=cls.case, case_out=out.case,
                         coefficients_in=cls.coefficients,
                         coefficients_out=out.coefficients,
                         K=K, K0=K0, factor_residual=factor_residual,
                         slow_eps0_residual=slow_eps0, g0_slow=g0_slow)


# ---------------------------------------------------------------------------
# regular contact points


@dataclass
class ContactFrame:
    """Null vectors and complements of the fast pairing at a contact point.

    Normalized so l . r = 1; P has orthonormal columns spanning the kernel
    of l, and Q is the matching left complement, so that stacking (l; Q)
    and (r P) gives mutually inverse square matrices.
    """
    l: np.ndarray
    r: np.ndarray
    Q: np.ndarray
    P: np.ndarray


def build_contact_frame(DfN: np.ndarray, tols: Tolerances = DEFAULT_TOLS) -> ContactFrame:
    p = DfN.shape[0]
    U, sigma, Vt = np.linalg.svd(DfN)
    r = Vt[-1, :]
    l_raw = U[:, -1]
    s = float(l_raw @ r)
    if abs(s) < 1e-8:
        raise PreconditionError(
            "left and right null vectors are near-orthogonal: the critical "
            "multiplier is not algebraically simple, no contact frame exists")
    l = l_raw / s
    if p == 1:
        P = np.zeros((1, 0))
        Q = np.zeros((0, 1))
    else:
        # l is nonzero, so the row l has rank 1 and its null space is
        # spanned by the trailing p - 1 right singular vectors
        P = np.linalg.svd(l.reshape(1, -1))[2][1:].T
        Q = P.T @ (np.eye(p) - np.outer(r, l))
    return ContactFrame(l=l, r=r, Q=Q, P=P)


@dataclass
class ContactReport:
    rank: int
    rank_ok: bool
    transversality_rank: int
    transversality_ok: bool
    nondegeneracy: float
    nondegeneracy_ok: bool
    slow_regularity: np.ndarray
    slow_regularity_ok: bool
    verdict: bool
    frame: ContactFrame | None
    multipliers: np.ndarray


def _numerical_rank(M: np.ndarray, tol: float) -> int:
    if M.size == 0:
        return 0
    sigma = np.linalg.svd(M, compute_uv=False)
    if sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma > tol * sigma[0]))


def check_regular_contact(spec: FastSlowMapSpec, z,
                          tols: Tolerances | None = None) -> ContactReport:
    """Evaluate the contact-point conditions at a point of the critical
    manifold: rank drop of the fast pairing by exactly one, transversality,
    quadratic nondegeneracy and slow regularity."""
    tols = tols or spec.tols
    fz = spec.f_at(z)
    if float(np.max(np.abs(fz))) > tols.manifold:
        raise PreconditionError(
            f"point is off the critical manifold: |f(z)| = {np.max(np.abs(fz)):.3g}")
    n, k = spec.n, spec.k
    p = n - k
    d = spec.local(z)
    Df = spec.Df_at(z)
    N = spec.N_at(z)
    DfN = Df @ N
    mu = nontrivial_multipliers(spec, z).values

    rank = _numerical_rank(DfN, tols.rank)
    rank_ok = rank == p - 1
    trans_rank = _numerical_rank(Df, tols.rank)
    trans_ok = trans_rank == p

    if not rank_ok:
        return ContactReport(rank=rank, rank_ok=False,
                             transversality_rank=trans_rank,
                             transversality_ok=trans_ok,
                             nondegeneracy=0.0, nondegeneracy_ok=False,
                             slow_regularity=np.zeros(n),
                             slow_regularity_ok=False, verdict=False,
                             frame=None, multipliers=mu)
    frame = build_contact_frame(DfN, tols)
    l, r = frame.l, frame.r
    Nr = N @ r

    # quadratic nondegeneracy: l . (Hess f applied to (Nr, Nr) + Df DN(Nr, r));
    # the Hessian rows and the partials of N each evaluate from one term table
    hess = _evaluate_matrix([[jet_partial(spec._df[i][a], b) for b in range(n)]
                             for i in range(p) for a in range(n)], d).reshape(p, n, n)
    hess_term = np.array([Nr @ H @ Nr for H in hess])
    dN = _evaluate_matrix([[jet_partial(spec.N[a][j], mm) for mm in range(n)]
                           for a in range(n) for j in range(p)], d).reshape(n, p, n)
    # derivative of N along the direction Nr
    dn_dir = np.array([[sum(dN[a, j, mm] * Nr[mm] for mm in range(n)) for j in range(p)]
                       for a in range(n)])
    df_dn_term = Df @ (dn_dir @ r)
    nondeg = float(l @ (hess_term + df_dn_term))

    g0 = spec.G_at(z, 0.0)
    slow_reg = Nr * float(l @ (Df @ g0))

    nondeg_ok = abs(nondeg) >= tols.genericity_floor
    slow_ok = float(np.linalg.norm(slow_reg)) >= tols.genericity_floor
    verdict = rank_ok and trans_ok and nondeg_ok and slow_ok
    return ContactReport(rank=rank, rank_ok=rank_ok,
                         transversality_rank=trans_rank, transversality_ok=trans_ok,
                         nondegeneracy=nondeg, nondegeneracy_ok=nondeg_ok,
                         slow_regularity=slow_reg, slow_regularity_ok=slow_ok,
                         verdict=verdict, frame=frame, multipliers=mu)


# ---------------------------------------------------------------------------
# rectifying chart and center-manifold coordinates
#
# chart variables are ordered (x_1..x_k, u, w_1..w_{n-k-1}, eps)


@dataclass
class ContactNormalForm:
    spec: FastSlowMapSpec
    frame: ContactFrame
    n: int
    k: int
    order: int
    hat_map: JetVector          # n components in (x, u, w, eps)
    K: JetVector                # rectification inverse, (x, v, eps) variables
    z_chart: JetVector          # original coordinates as jets in (x, u, w, eps)
    rectification_residual: float
    pure_x_residual: float
    jacobian_residual: float


def _newton_rectify(spec: FastSlowMapSpec) -> tuple[JetVector, float]:
    """Solve f(x, K(x, v)) = v for K by the chord iteration
    K <- K - D_y f(0)^-1 (f(x, K) - v), starting from K = 0.

    The error e = K - K* obeys e <- D_y f(0)^-1 (D_y f(0) - D_y f(x, K*)) e
    + O(e^2).  Since x and K* have no constant term, the bracket has none
    either, so each step raises the lowest degree of e by one: ``order``
    steps make K exact on the jets."""
    n, k, r = spec.n, spec.k, spec.order
    p = n - k
    m = n + 1  # (x, v, eps)
    Dy = spec.Df_at(spec.base_point)[:, k:]
    cond = np.linalg.cond(Dy)
    if not np.isfinite(cond) or cond > spec.tols.cond_cap:
        raise PreconditionError(
            "the last n-k coordinates do not parametrize the fast directions "
            "(D_y f singular at the base point); permute the variables so the "
            "critical manifold is a graph over the first k coordinates")
    Dy_inv = np.linalg.inv(Dy)

    x_jets = [Jet.variable(m, r, i) for i in range(k)]
    v_jets = JetVector([Jet.variable(m, r, k + j) for j in range(p)], m, r)
    K = JetVector.zeros(p, m, r)
    for step in range(r + 1):
        target = jetvector_compose(spec.f, x_jets + list(K)) - v_jets
        resid = target.max_abs()
        if resid == 0.0 or step == r:
            break
        K = K - JetVector(jet_linear_map(Dy_inv, target), m, r)
    return K, resid


def cm_normal_form_transform(spec: FastSlowMapSpec,
                             tols: Tolerances | None = None) -> ContactNormalForm:
    """Conjugate the map into coordinates adapted to a regular contact point:
    rectify the critical manifold to {v = 0} with the jet inverse K of the
    fast equations, and split v into the critical direction u and its
    complement w with the contact frame.

    The chart is z = (x, K(x, r u + P w, eps)); the map in it is
    (x, l v, Q v) of z-hat = H(z, eps) with v = f(z-hat)."""
    tols = tols or spec.tols
    for comp in spec.f:
        if comp.constant_term != 0.0:
            raise PreconditionError(
                "fast equations must vanish exactly at the base point "
                f"(found constant term {comp.constant_term!r}); re-emit the "
                "spec expanded about the contact point")
    report = check_regular_contact(spec, spec.base_point, tols)
    if not report.verdict:
        raise PreconditionError(
            "base point is not a regular contact point: "
            f"rank_ok={report.rank_ok}, transversality={report.transversality_ok}, "
            f"nondegeneracy={report.nondegeneracy:.3g}, "
            f"slow_regularity={np.linalg.norm(report.slow_regularity):.3g}")
    frame = report.frame
    n, k, r = spec.n, spec.k, spec.order
    p = n - k
    m = n + 1

    K, rect_resid = _newton_rectify(spec)

    # linear chart (x, u, w, eps) -> (x, r u + P w, eps)
    C = np.eye(m)
    C[k:n, k:n] = np.column_stack([frame.r, frame.P])
    ident = JetVector.identity(m, r)
    chart = jet_linear_map(C, ident)
    z_chart = JetVector(list(ident[:k]) + list(jetvector_compose(K, chart)), m, r)
    inner = JetVector(list(z_chart) + [ident[n]], m, r)
    z_hat = jetvector_compose(JetVector(extended_map_jets(spec)[:n], m, r), inner)
    v_hat = jetvector_compose(spec.f, z_hat)
    hat_map = JetVector(list(z_hat[:k]) + jet_linear_map(np.vstack([frame.l, frame.Q]),
                                                         v_hat), m, r)

    # the critical manifold is the pure-x subspace: it must stay fixed
    table = _graded_table(m, r)
    delta = np.column_stack((hat_map.constant_vector(), _graded_coeffs(hat_map, table)))
    delta[np.arange(n), 1 + table.var[:n]] -= 1.0
    pure_x = float(np.abs(delta[:, ~table.exponents[:, k:].any(axis=1)]).max())

    # block structure of the layer linearization: the u row is trivial, the
    # w rows decouple from (x, u), the w block is the framed fast pairing,
    # and the x rows pick up the tangency direction in the u column
    hm = hat_map.linear_matrix()
    DfN0 = spec.Df_at(spec.base_point) @ spec.N_at(spec.base_point)
    jac_res = float(np.max(np.abs(hm[k, :n] - np.eye(n)[k])))
    if p > 1:
        jac_res = max(jac_res, float(np.max(np.abs(hm[k + 1:n, :k + 1]))))
        expected_w = np.eye(p - 1) + frame.Q @ DfN0 @ frame.P
        jac_res = max(jac_res, float(np.max(np.abs(hm[k + 1:n, k + 1:n] - expected_w))))
    Nx_r = (spec.N_at(spec.base_point) @ frame.r)[:k]
    jac_res = max(jac_res, float(np.max(np.abs(hm[:k, k] - Nx_r))))

    return ContactNormalForm(spec=spec, frame=frame, n=n, k=k, order=r,
                             hat_map=hat_map, K=K, z_chart=z_chart,
                             rectification_residual=rect_resid,
                             pure_x_residual=pure_x,
                             jacobian_residual=jac_res)


# ---------------------------------------------------------------------------
# center-manifold graph and restricted map
#
# reduced variables are (x_1..x_k, u, eps)


@dataclass
class CenterManifoldData:
    """Graph of the center manifold over (x, u, eps) and the restricted map.

    ``W`` solves the invariance equation for the w block; ``restricted_map``
    is the exact (x, u) block of the conjugated map evaluated on the graph
    and is the ground truth for downstream embedding.  ``restricted_N`` and
    ``restricted_f`` realize its fast-slow factorization: the closed-form
    factor (the original factor matrix and fast pairing evaluated along the
    graph, contracted with the tilted null direction) and the rectified fast
    scalar obtained by exact division.
    """
    W: JetVector                  # n-k-1 components in (x, u, eps)
    restricted_N: JetVector       # k+1 components in (x, u, eps), eps-free
    restricted_f: Jet             # scalar in (x, u, eps), eps-free
    restricted_G: JetVector       # k+1 components in (x, u, eps)
    invariance_residual: float
    restricted_map: JetVector     # k+1 components in (x, u, eps)
    W0: JetVector                 # W at eps = 0 divided by u
    mu1: float                    # nontrivial multiplier of the restricted map
    n: int
    k: int
    order: int


def _split_var_divisible(jet: Jet, var: int, tol: float, what: str) -> Jet:
    """Drop sub-tolerance terms not carrying ``var``; reject larger ones."""
    free = jet.subs_zero(var)
    worst = free.max_abs()
    if worst > tol:
        raise StructuralError(
            f"{what} has a coefficient {worst:.3g} not divisible by the "
            f"critical variable; the graph solve did not converge")
    return jet - free


def _graph_solve(C: np.ndarray, Phi: np.ndarray, rhs: np.ndarray,
                 depth: int, degree: int) -> np.ndarray:
    """X with B X - X Phi = ``rhs`` at degree d = ``degree``, for
    C = (B - I)^-1 and Phi the degree-d block of the composition matrix of
    the linear return map M: the Neumann series of X = C rhs + C X N, N = Phi
    - I, ends as N^j = 0 for j > d(depth - 1) when (M - I)^depth = 0."""
    N = Phi - np.eye(len(Phi))
    return _finite_series(lambda X, k: C @ X @ N, C @ rhs,
                          [1.0] * (degree * (depth - 1) + 1))


def center_manifold_restricted_map(nf: ContactNormalForm,
                                   order: int | None = None,
                                   tols: Tolerances | None = None) -> CenterManifoldData:
    """Solve the graph-invariance equation for the center manifold order by
    order and build the restricted (k+1)-dimensional map on it.

    Each degree yields a Sylvester equation, solved by :func:`_graph_solve`;
    the framed fast block has no multiplier on the unit circle.  A graph whose
    invariance residual exceeds ``tols.structure`` times max(1, largest graph
    coefficient) is refused with :class:`ConvergenceError`."""
    tols = tols or nf.spec.tols
    spec, frame = nf.spec, nf.frame
    n, k, r = nf.n, nf.k, nf.order
    p = n - k
    order = r if order is None else order
    if order > r:
        raise StructuralError(f"order {order} exceeds the jet order {r}")
    if order < 1:
        raise StructuralError(f"order must be at least 1, got {order}")
    mred = k + 2  # (x, u, eps)

    x_red = [Jet.variable(mred, r, i) for i in range(k)]
    u_red = Jet.variable(mred, r, k)
    eps_red = Jet.variable(mred, r, k + 1)

    def on_graph(W: JetVector, degree: int) -> tuple[JetVector, JetVector]:
        """The (x, u) block of the chart map on the graph w = W, and the
        graph defect W(x, u block, eps) - (w block), up to ``degree``."""
        image = _compose(nf.hat_map, x_red + [u_red] + list(W) + [eps_red], degree)
        ret_xu = JetVector(image[:k + 1], mred, r)
        lhs = JetVector(image[k + 1:], mred, r)
        return ret_xu, _compose(W, list(ret_xu) + [eps_red], degree) - lhs

    hm = nf.hat_map.linear_matrix()  # n x (n+1)
    btilde = hm[k + 1:n, k + 1:n]
    lam_w = np.linalg.eigvals(btilde)
    if np.any(np.abs(np.abs(lam_w) - 1.0) <= tols.unit):
        raise PreconditionError(
            "framed fast block has a multiplier on the unit circle "
            f"({np.round(lam_w, 12)}); the graph solve is singular")
    # linear part of the (x, u, eps) return map, w columns dropped; on the
    # graph the w columns enter through W_1, which the degree-1 solve finds
    M = np.zeros((mred, mred))
    M[:k + 1, :k + 1] = hm[:k + 1, :k + 1]
    M[:k + 1, k + 1] = hm[:k + 1, n]
    M[k + 1, k + 1] = 1.0

    W = JetVector.zeros(p - 1, mred, r)
    if p > 1:  # with p = 1, W is empty
        table = _graded_table(mred, r)
        inner = np.zeros((mred, table.ends[-1]))
        C = np.linalg.inv(btilde - np.eye(p - 1))
        coeffs = np.zeros((p - 1, table.ends[-1]))
        for d in range(1, order + 1):
            if d <= 2:  # M is final from degree 2 on, see below
                inner[:, table.var] = M
                phi = _composition_matrix(inner, table, table, order)
                depth = _nilpotent_depth(M - np.eye(mred), tols.nilp)
            # pass d needs degree d of the defect only
            _, defect = on_graph(W, d)
            part = slice(table.ends[d - 1], table.ends[d])
            coeffs[:, part] = _graph_solve(C, phi[part, part],
                                           _graded_coeffs(defect, table)[:, part],
                                           depth, d)
            W = JetVector(_graded_jets(coeffs, table, mred, r), mred, r)
            if d == 1:
                # the (x, u) rows see w = W_1 z + ..., so the linear return
                # map on the graph is M + hm_xw W_1.  The chart's w rows have
                # no (x, u) term (see jacobian_residual), so W_1 has only an
                # eps column, W_1 M is unchanged and degree 1 stands.
                M[:k + 1] += hm[:k + 1, k + 1:n] @ coeffs[:, table.var]
    restricted, defect = on_graph(W, r)
    residual = defect.degree_cap(order).max_abs()
    if residual > tols.structure * max(1.0, W.max_abs()):
        raise ConvergenceError(f"center-manifold graph misses invariance: residual "
                               f"{residual:.3g} above structure x max(1, |W|)")

    # graph factorization W = u W0 + eps W_rem at eps = 0
    eps_var = k + 1
    W_eps0 = JetVector([_split_var_divisible(c.subs_zero(eps_var), k,
                                             tols.structure, "center graph")
                        for c in W], mred, r)
    W0 = JetVector([c.div_var(k) for c in W_eps0], mred, r)

    # closed-form factor along the graph (original data composed with the
    # chart): rows N^x and l Df N, contracted with the tilted null direction
    # r + P W0
    z_cm = jetvector_compose(nf.z_chart, x_red + [u_red] + list(W_eps0) + [eps_red])
    DfN_jets = jet_matrix_mul(spec._df, spec.N)
    lDfN = [jet_linear_map(frame.l, col)[0] for col in zip(*DfN_jets)]
    rows = list(spec.N[:k]) + [lDfN]
    composed = list(jetvector_compose(JetVector([c for row in rows for c in row], n, r),
                                      z_cm))
    factor = [composed[i * p:(i + 1) * p] for i in range(k + 1)]
    rPW0 = jet_linear_map(np.column_stack([frame.r, frame.P]),
                          [Jet.constant(mred, r, 1.0)] + list(W0))
    Ntilde = JetVector([row[0] for row in jet_matrix_mul(factor, [[c] for c in rPW0])],
                       mred, r)

    # layer part and eps part of the restricted map (the eps split is exact)
    displ = restricted - JetVector(x_red + [u_red], mred, r)
    layer = [_split_var_divisible(c.subs_zero(eps_var), k, tols.structure,
                                  "restricted layer map") for c in displ]
    G_tilde = JetVector([(c - c.subs_zero(eps_var)).div_var(eps_var)
                         for c in displ], mred, r)

    N0 = Ntilde.constant_vector()
    jstar = int(np.argmax(np.abs(N0[:k])))
    if abs(N0[jstar]) < tols.genericity_floor:
        raise PreconditionError(
            "tangency direction vanishes in the slow block; cannot normalize "
            "the restricted fast scalar")
    f_tilde = jet_mul(layer[jstar], jet_reciprocal(Ntilde[jstar]))

    # nontrivial multiplier at the contact point (structural formula)
    df0 = f_tilde.linear_coefficients()[:k + 1]
    mu1 = 1.0 + float(df0 @ N0)

    return CenterManifoldData(W=W, restricted_N=Ntilde, restricted_f=f_tilde,
                              restricted_G=G_tilde, invariance_residual=residual,
                              restricted_map=restricted, W0=W0, mu1=mu1,
                              n=n, k=k, order=order)


# ---------------------------------------------------------------------------
# embedding on the center manifold


@dataclass
class ContactEmbedding:
    embedding: EmbeddingResult
    N_frak: JetVector            # factor of the field's layer part
    factor_residual: float
    linear_match: float          # n-frak and script-G values at the origin
    partials_diff: float         # slow derivatives of the critical factor
    quad_closed_diff: float      # quadratic coefficients vs closed formulas
    contact_ok: bool


def embed_on_center_manifold(cm: CenterManifoldData, order: int | None = None,
                             tols: Tolerances = DEFAULT_TOLS) -> ContactEmbedding:
    """Embed the restricted map into a flow and cross-check the field's
    coefficients against closed formulas computed from the map alone.

    Checks, all at the structural tolerance:
      * the field's layer part factors through the restricted fast scalar,
        with factor and eps-forcing matching the map data at the origin (the
        eps column of the slow block carries the finite log-series
        correction -N^x G^u/2, which is accounted for);
      * first slow derivatives of the critical factor component agree
        between field and map;
      * the degree-2 coefficients of the field's critical component equal
        the closed formulas: pure-slow terms vanish, mixed terms copy the
        map, and the critical-squared term picks up half the slow tangency
        contraction.
    """
    k = cm.k
    mred = k + 2
    r = cm.restricted_map.order
    order = cm.order if order is None else order
    eps_var = k + 1

    H = JetVector(list(cm.restricted_map) + [Jet.variable(mred, r, eps_var)],
                  mred, r)
    result = takens_embed_unipotent(H, order, tols)
    V = result.V

    # (a) linear data at the origin: the u column is N(0); in the eps column
    # the log of the unipotent linear part shifts the slow rows by
    # -(1/2) N^x(0) G^u(0), and the critical row is exact
    N0 = cm.restricted_N.constant_vector()
    G0 = cm.restricted_G.constant_vector()
    VL = V.linear_matrix()
    gu = G0[k]
    lin = max(np.abs(VL[:k + 1, k] - N0[:k + 1]).max(),
              np.abs(VL[:k, eps_var] - (G0[:k] - 0.5 * N0[:k] * gu)).max(initial=0.0),
              abs(VL[k, eps_var] - gu))

    # (b) layer part of the field factors through the restricted fast scalar
    layer = JetVector([V[i].subs_zero(eps_var) for i in range(k + 1)], mred, r)
    f_t = cm.restricted_f
    N_frak = []
    factor_residual = 0.0
    qdeg = order - max(f_t.valuation, 1)
    for i in range(k + 1):
        q, res = _jet_divide_lstsq(layer[i].degree_cap(order), f_t.degree_cap(order), qdeg)
        N_frak.append(q)
        factor_residual = max(factor_residual, res)
    N_frak = JetVector(N_frak, mred, r)
    for i in range(k + 1):
        lin = max(lin, abs(N_frak[i].constant_term - N0[i]))

    # (c) slow partial derivatives of the critical factor component
    partials_diff = float(np.abs(N_frak[k].linear_coefficients()[:k]
                                 - cm.restricted_N[k].linear_coefficients()[:k]).max(initial=0.0))

    # (d) degree-2 coefficients of the critical component vs closed formulas
    table = _graded_table(mred, r)
    quad2 = slice(table.ends[1], table.ends[2])
    E2 = table.exponents[1:][quad2]
    vk, hk = _graded_coeffs([V[k], H[k]], table)
    got, expected = vk[quad2], np.where(E2[:, k] == 0, 0.0, hk[quad2])
    # u^2 coefficient: integrating the mixed terms along the linear flow
    # x -> x + tau N^x(0) u contributes half the slow tangency contraction,
    # which the field coefficient must shed
    u2 = E2[:, k] == 2
    for s in range(k):
        xu = table.position[tuple(int(i in (s, k)) for i in range(mred))] - 1
        expected[u2] -= 0.5 * hk[xu] * N0[s]
    quad = float(np.abs(got - expected)[E2[:, eps_var] == 0].max())

    failures = []
    if lin > tols.structure:
        failures.append(f"origin values of the factor/forcing (gap {lin:.3g})")
    if factor_residual > tols.structure:
        failures.append(f"layer factorization through the restricted fast "
                        f"scalar (residual {factor_residual:.3g})")
    if partials_diff > tols.structure:
        failures.append(f"slow partial derivatives of the critical factor "
                        f"(gap {partials_diff:.3g})")
    if quad > tols.structure:
        failures.append(f"closed-form quadratic coefficients (gap {quad:.3g})")
    if failures:
        raise StructuralError("embedding structure checks failed: "
                              + "; ".join(failures))
    ok = True
    return ContactEmbedding(embedding=result, N_frak=N_frak,
                            factor_residual=factor_residual,
                            linear_match=lin, partials_diff=partials_diff,
                            quad_closed_diff=quad, contact_ok=ok)
