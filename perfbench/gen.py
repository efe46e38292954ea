"""Seeded input generators for the benchmark.

Every generator takes a ``numpy.random.Generator`` and builds its inputs
through the public fastslow API only, so the same seed always gives the
same fields and specs.  Nothing here imports the test suite.
"""

from __future__ import annotations

import math

import numpy as np

from fastslow import jets as J
from fastslow import model as M
from fastslow import singularities as S

# scaling-grid cells of the formal_embed workload:
# name -> (num_vars, order, coefficient fill, Jordan depth)
EMBED_CELLS = {
    "m2o7": (2, 7, 1.0, 2),
    "m3o5": (3, 5, 1.0, 3),
    "m4o4": (4, 4, 1.0, 4),
    "m3o6s": (3, 6, 0.15, 3),
}


# Work per operation depends on which terms are present, so sparse inputs
# draw their term pattern from this fixed seed and only their values from
# the workload seed.  For the m3o6s cell the kernel work varies fivefold
# across pattern seeds 0-6; seed 0 gives the median.
PATTERN_SEED = 0


def _unit(m: int, s: int) -> tuple[int, ...]:
    return tuple(1 if j == s else 0 for j in range(m))


def nilpotent_field(rng, num_vars: int, order: int, fill: float,
                    depth: int) -> "J.JetVector":
    """Polynomial vector field whose linear part is nilpotent of index
    ``depth`` (one Jordan chain on the first ``depth`` variables, with
    seeded nonzero superdiagonal entries) and whose degree-2..order part
    holds seeded random coefficients.

    With ``fill < 1`` each component gets exactly ``round(fill * D)`` of the
    ``D`` monomials of each degree (at least one), chosen by
    ``PATTERN_SEED``."""
    m = num_vars
    if not 1 <= depth <= m:
        raise ValueError(f"Jordan depth {depth} outside 1..{m}")
    pattern = np.random.default_rng(PATTERN_SEED)
    L = np.zeros((m, m))
    for i in range(depth - 1):
        L[i, i + 1] = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0))
    comps = []
    for i in range(m):
        terms = {_unit(m, s): L[i, s] for s in range(m) if L[i, s] != 0.0}
        for d in range(2, order + 1):
            basis = J.monomials_of_degree(m, d)
            if fill >= 1.0:
                chosen = range(len(basis))
            else:
                count = max(1, round(fill * len(basis)))
                chosen = sorted(pattern.choice(len(basis), size=count,
                                               replace=False))
            for a in chosen:
                terms[basis[a].exponents] = float(rng.uniform(-0.5, 0.5))
        comps.append(J.Jet.from_terms(m, order, terms))
    return J.JetVector(comps, m, order)


# ---------------------------------------------------------------------------
# planar normal forms (standard form: N = (1, 0))


def fold_spec(rng, order: int = 6) -> "M.FastSlowMapSpec":
    """f = a x^2 - b y with drift g0 < 0 toward the fold (a, b > 0).

    Along the attracting branch y = (a/b) x^2 the slow drift eps*g0 moves x
    at a rate proportional to b |g0| / a, so ``g0 = -a/b`` keeps the number
    of map steps through the fold region that of the canonical fold while
    a and b vary with the seed."""
    a = float(rng.uniform(0.9, 1.1))
    b = float(rng.uniform(0.9, 1.1))
    return M.standard_form_2d({(2, 0): a, (0, 1): -b}, {},
                              {(0, 0, 0): -a / b}, order=order)


def transcritical_spec(rng, order: int = 6, escape: bool | None = None
                       ) -> "M.FastSlowMapSpec":
    """f = x^2 - y^2, drift g0 > 0, and a threshold lam drawn below 1 or,
    with ``escape``, above it, outside the exclusion band (side seeded when
    ``escape`` is None).  |g0| stays within 10 % of 1 because the steps
    through the box scale with 1 / (eps |g0|)."""
    if escape is None:
        escape = bool(rng.integers(2))
    g0 = float(rng.uniform(0.9, 1.1))
    lam = float(rng.uniform(1.4, 2.2) if escape else rng.uniform(0.2, 0.6))
    # threshold_lambda = delta / |g0| for this normal form
    return M.standard_form_2d({(2, 0): 1.0, (0, 2): -1.0},
                              {(0, 0, 0): lam * g0}, {(0, 0, 0): g0},
                              order=order)


def pitchfork_spec(rng, order: int = 6, g0_sign: float | None = None,
                   lam_sign: float | None = None) -> "M.FastSlowMapSpec":
    """f = x y - x^3 (supercritical), drift g0 and threshold lam of the
    given (else seeded) signs, lam outside the exclusion band around 0 and
    |g0| within 10 % of 1."""
    if g0_sign is None:
        g0_sign = float(rng.choice([-1.0, 1.0]))
    if lam_sign is None:
        lam_sign = float(rng.choice([-1.0, 1.0]))
    g0 = g0_sign * float(rng.uniform(0.9, 1.1))
    lam = lam_sign * float(rng.uniform(0.3, 0.8))
    # threshold_lambda = delta / |g0| for this normal form
    return M.standard_form_2d({(1, 1): 1.0, (3, 0): -1.0},
                              {(0, 0, 0): lam * abs(g0)}, {(0, 0, 0): g0},
                              order=order)


# ---------------------------------------------------------------------------
# superstable quadratic-G specs with a tilted factor column


def quadratic_g_spec(rng, order: int = 5) -> "M.FastSlowMapSpec":
    """f = -x + x^2 (multiplier 0 on the branch x = 0), N = (1, t) with a
    seeded tilt t, and a G with random constant, linear, quadratic and eps
    terms."""
    tilt = float(rng.uniform(0.2, 0.6))
    f = J.JetVector([J.Jet.from_terms(2, order, {(1, 0): -1.0, (2, 0): 1.0})])
    N = ((J.Jet.constant(2, order, 1.0),), (J.Jet.constant(2, order, tilt),))
    keys = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0)]

    def g(const):
        terms = {(0, 0, 0): const}
        for key in keys:
            terms[key] = float(rng.uniform(-0.3, 0.3))
        return J.Jet.from_terms(3, order, terms)

    G = J.JetVector([g(float(rng.uniform(0.2, 0.5))),
                     g(float(rng.uniform(0.7, 1.3)))])
    return M.FastSlowMapSpec(n=2, k=1, order=order, N=N, f=f, G=G,
                             base_point=np.zeros(2))


# ---------------------------------------------------------------------------
# 3-D regular contact specs


def _contact_candidate(rng, order: int, pattern) -> "M.FastSlowMapSpec":
    """Random perturbation of a 3-D contact template: linear parts of f and
    N(0) pinned so the origin has one critical and one stable multiplier, an
    x^2 term in f_1 (the quadratic nondegeneracy), and random higher
    coefficients.  Which optional terms are present is drawn from
    ``pattern``, their values from ``rng``."""
    c = float(rng.uniform(-0.7, -0.3))

    def sprinkle(base, max_degree):
        terms = dict(base)
        for d in range(2, max_degree + 1):
            for alpha in J.monomials_of_degree(3, d):
                if pattern.random() < 0.3 and alpha.exponents not in base:
                    terms[alpha.exponents] = float(rng.uniform(-0.4, 0.4))
        return J.Jet.from_terms(3, order, terms)

    fxx = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.4))
    f = J.JetVector([sprinkle({(0, 1, 0): 1.0, (2, 0, 0): fxx}, 3),
                     sprinkle({(0, 0, 1): 1.0}, 3)])

    def njet(const):
        terms = {} if const == 0.0 else {(0, 0, 0): const}
        for var in range(3):
            if pattern.random() < 0.5:
                e = _unit(3, var)
                terms[e] = terms.get(e, 0.0) + float(rng.uniform(-0.2, 0.2))
        return J.Jet.from_terms(3, order, terms)

    N = ((njet(1.0), njet(0.0)), (njet(0.0), njet(0.0)), (njet(0.0), njet(c)))
    G = J.JetVector([
        J.Jet.from_terms(4, order, {(0, 0, 0, 0): float(rng.uniform(0.5, 1.5)),
                                    (1, 0, 0, 0): float(rng.uniform(-0.3, 0.3)),
                                    (0, 0, 0, 1): float(rng.uniform(-0.2, 0.2))}),
        J.Jet.from_terms(4, order, {(0, 0, 0, 0): float(rng.uniform(0.2, 0.8)),
                                    (0, 1, 0, 0): float(rng.uniform(-0.3, 0.3))}),
        J.Jet.from_terms(4, order, {(0, 0, 1, 0): float(rng.uniform(-0.3, 0.3)),
                                    (0, 0, 0, 1): float(rng.uniform(-0.2, 0.2))}),
    ])
    return M.FastSlowMapSpec(n=3, k=1, order=order, N=N, f=f, G=G,
                             base_point=np.zeros(3))


def contact3d_spec(rng, order: int = 6, max_tries: int = 200):
    """A random 3-D spec whose origin passes ``check_regular_contact``;
    returns (spec, candidates drawn).  Candidates that fail the verdict are
    discarded (rejection sampling).  Every candidate has the term pattern
    of ``PATTERN_SEED``."""
    for tries in range(1, max_tries + 1):
        spec = _contact_candidate(rng, order, np.random.default_rng(PATTERN_SEED))
        if S.check_regular_contact(spec, spec.base_point).verdict:
            return spec, tries
    raise RuntimeError(f"no regular contact spec in {max_tries} candidates")


def stratified_log_uniform(rng, lo: float, hi: float, count: int) -> list[float]:
    """``count`` log-uniform draws from [lo, hi], the k-th one inside the
    k-th of ``count`` equal strata of log(eps).  The sample has the
    log-uniform distribution, and its quantiles, which set an operation's
    cost, barely move with the seed."""
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (k + rng.uniform()) * (b - a) / count)
            for k in range(count)]
