"""Forward iteration, reference flows, slow-manifold tracking, and the
desk-scale scaling experiments.

The experiments realize the local results near planar singularities: the
two-thirds-power fold exit law, the transcritical exchange-versus-escape
dichotomy with its square-root escape distance, and pitchfork branch
selection.  All orbits are deterministic; every observable is interpolated
linearly between the two iterates straddling the measurement face, which is
the stable choice for discrete orbits whose last interior iterate lands an
eps-dependent distance from the face.

Every orbit steps through one loop, ``_walk``: it calls ``_MapRunner.step``
until a stop test on the last two points holds or a step budget runs out,
and returns those two points.  Only ``iterate_map_orbit`` and
``track_slow_manifold``, which return orbits, keep the points in between;
the two experiments hold two points whatever the orbit's length.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, ExperimentError, PreconditionError,
                     StructuralError)
from .jets import JetVector, _evaluate_terms, _jet_terms
from .model import (FastSlowMapSpec, critical_manifold_solve, extended_map_jets,
                    reduced_data)
from .singularities import classify_planar_singularity, threshold_lambda

__all__ = [
    "Box",
    "Orbit",
    "ScalingFit",
    "BranchSelection",
    "compile_jet_callable",
    "iterate_map_orbit",
    "integrate_time1",
    "track_slow_manifold",
    "fold_exit_experiment",
    "branch_selection_experiment",
    "fit_powerlaw",
]

# exclusion band around branch-selection thresholds; labels inside the band
# are undefined by design (threshold crossings live in an eps-dependent
# neighbourhood there)
LAMBDA_EXCLUSION_BAND = 0.25
# matching distance for branch labelling, in units of sqrt(eps): the escape
# case approaches the critical fiber at the square-root scale, with margin
D_MATCH_FACTOR = 5.0
DEFAULT_TRANSIENT = 10
_STEP_CAP = 2_000_000  # steps an experiment walks before it gives up


@dataclass(frozen=True)
class Box:
    """Axis-aligned region given as (lo, hi) per coordinate."""
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for lo, hi in self.bounds:
            if not lo < hi:
                raise StructuralError(f"empty box side ({lo}, {hi})")

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def contains(self, z) -> bool:
        return all(lo <= v <= hi for v, (lo, hi) in zip(z, self.bounds))

    def exit_face(self, z) -> str | None:
        """Label of the (first) violated face, e.g. 'x+' or 'z3-'."""
        names = ("x", "y") if self.dim == 2 else tuple(
            f"z{i + 1}" for i in range(self.dim))
        for name, v, (lo, hi) in zip(names, z, self.bounds):
            if v < lo:
                return f"{name}-"
            if v > hi:
                return f"{name}+"
        return None


@dataclass
class Orbit:
    points: np.ndarray          # (steps+1, n), includes the start point
    eps: float
    exited: bool
    exit_edge: str | None


@dataclass
class ScalingFit:
    """Least-squares line through (log eps, log |observable|)."""
    eps_values: tuple[float, ...]
    observables: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float
    excluded: tuple[float, ...] = ()


def compile_jet_callable(jets: JetVector):
    """Flatten a jet vector into a fast point evaluator."""
    return functools.partial(_evaluate_terms, [_jet_terms(c) for c in jets], jets.num_vars)


class _MapRunner:
    """Compiled one-step map in displacement coordinates.

    Steps are refused once the orbit leaves a generous multiple of the trust
    radius: the jets are local and iterating the polynomial extrapolation
    diverges double-exponentially."""

    def __init__(self, spec: FastSlowMapSpec):
        self.spec = spec
        self.base = spec.base_point
        self._cap = 10.0 * spec.tols.trust_radius
        self._eval = compile_jet_callable(
            JetVector(extended_map_jets(spec).components[:spec.n],
                      spec.n + 1, spec.order))

    def step(self, z: np.ndarray, eps: float) -> np.ndarray:
        d = z - self.base
        if not np.all(np.abs(d) <= self._cap):
            raise ExperimentError(
                f"orbit left the expansion region (|z - base| > {self._cap:g}); "
                "the local map is meaningless there")
        return self.base + self._eval(np.append(d, eps))


def _walk(runner: _MapRunner, z: np.ndarray, eps: float, budget: int,
          stop=None, keep: list | None = None):
    """The one orbit loop: step from z until stop(prev, z) holds or budget
    steps are taken.  Returns (prev, z, stopped, steps): the last two points
    (prev is z when no step was taken), whether the stop test ended the
    walk, and the steps taken.  Every new point is appended to keep when
    given; otherwise only the last two are held."""
    prev = z
    for steps in range(1, budget + 1):
        prev, z = z, runner.step(z, eps)
        if keep is not None:
            keep.append(z)
        if stop is not None and stop(prev, z):
            return prev, z, True, steps
    return prev, z, False, max(budget, 0)


def _walk_out_of(box: Box, runner: _MapRunner, z: np.ndarray, eps: float,
                 budget: int, keep: list | None = None):
    """Walk from a start inside the box to the first point outside it.
    Returns (that point, whether the orbit left within budget steps)."""
    if not box.contains(z):
        raise PreconditionError(f"start point {z} is outside the box")
    _, z, exited, _ = _walk(runner, z, eps, budget,
                            lambda prev, z: not box.contains(z), keep)
    return z, exited


def iterate_map_orbit(spec: FastSlowMapSpec, z0, eps: float, box: Box,
                      max_steps: int) -> Orbit:
    """Iterate the full map until the orbit leaves the box (the first
    outside point is recorded) or the step cap is reached.  Every point is
    kept; eps must be finite and nonnegative."""
    if not (math.isfinite(eps) and eps >= 0):
        raise PreconditionError(f"eps must be finite and nonnegative, got {eps!r}")
    z = np.asarray(z0, dtype=float)
    pts = [z]
    z, exited = _walk_out_of(box, _MapRunner(spec), z, eps, max_steps, pts)
    return Orbit(points=np.array(pts), eps=eps, exited=exited,
                 exit_edge=box.exit_face(z) if exited else None)


# Gragg-Bulirsch-Stoer reference integrator (Hairer, Norsett & Wanner,
# Solving ODEs I, sec. II.9): modified midpoint steps on these step counts,
# extrapolated in h^2
_GBS_COUNTS = (2, 4, 6, 8, 10, 12, 14, 16)
# a time-1 solve that needs a shorter step, or more attempted steps, has
# met a blow-up or a field it cannot resolve
_GBS_MIN_STEP = 1e-12
_GBS_MAX_STEPS = 10_000


def _finite_rhs(f, y: np.ndarray) -> np.ndarray | None:
    """f(y) as a float array, or None when a component is not finite."""
    try:
        v = np.asarray(f(y), dtype=float)
    except OverflowError:
        return None
    return v if np.isfinite(v).all() else None


def _gbs_step(f, y: np.ndarray, f0: np.ndarray, h: float, rtol: float,
              atol: float):
    """One extrapolated step of length h from y, where f0 = f(y).  Returns
    (state, column) for the first diagonal entry of the Aitken-Neville
    tableau within tolerance of its left neighbour, or None when no column
    meets the tolerance or a stage is not finite."""
    previous_row: list[np.ndarray] = []
    for j, n in enumerate(_GBS_COUNTS):
        sub = h / n
        prev, cur = y, y + sub * f0
        for _ in range(n - 1):
            v = _finite_rhs(f, cur)
            if v is None:
                return None
            prev, cur = cur, prev + (2.0 * sub) * v
        row = [cur]
        for k in range(1, j + 1):
            ratio = (n / _GBS_COUNTS[j - k]) ** 2 - 1.0
            row.append(row[k - 1] + (row[k - 1] - previous_row[k - 1]) / ratio)
        if j:
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(row[-1]))
            if np.max(np.abs(row[-1] - row[-2]) / scale) <= 1.0:
                return row[-1], j
        previous_row = row
    return None


def integrate_time1(V, z0, rtol: float = 1e-12, atol: float = 1e-12) -> np.ndarray:
    """Reference time-1 state of a vector field (jet vector or callable).

    Gragg-Bulirsch-Stoer extrapolation: each step runs the modified
    midpoint rule with 2, 4, ..., 16 substeps and extrapolates the results
    polynomially in the squared substep.  A step is accepted at the first
    tableau column whose change from the previous column is within
    atol + rtol * |y| in every component; a step that no column resolves
    is halved and retried, and a step resolved within four columns doubles
    the next one.  The start must be finite (else ``PreconditionError``).
    A stage that is not finite rejects its step; a step shorter than 1e-12,
    more than 10000 attempted steps, or a field that is not finite at an
    accepted state end in ``ConvergenceError`` -- which is how a blow-up
    before time 1 ends."""
    f = compile_jet_callable(V) if isinstance(V, JetVector) else V
    y = np.array(z0, dtype=float)
    if not np.isfinite(y).all():
        raise PreconditionError(f"time-1 integration needs a finite start, got {z0!r}")
    t, h = 0.0, 1.0
    f0 = _finite_rhs(f, y)
    for _ in range(_GBS_MAX_STEPS):
        if f0 is None:
            raise ConvergenceError(
                f"time-1 integration failed: field is not finite at t = {t:.6g}")
        last = h >= 1.0 - t
        if last:
            h = 1.0 - t
        step = _gbs_step(f, y, f0, h, rtol, atol)
        if step is None:
            h *= 0.5
            if h < _GBS_MIN_STEP:
                raise ConvergenceError(
                    f"time-1 integration failed: step fell below {_GBS_MIN_STEP:g} "
                    f"at t = {t:.6g}")
            continue
        y, column = step
        if last:
            return y
        t += h
        if column <= 3:
            h *= 2.0
        f0 = _finite_rhs(f, y)
    raise ConvergenceError(
        f"time-1 integration failed: more than {_GBS_MAX_STEPS} steps")


# ---------------------------------------------------------------------------
# slow-manifold tracking (planar standard-form specs)


def _seed_on_manifold(spec: FastSlowMapSpec, x_start: float, eps: float,
                      y_guess: float = 0.0) -> np.ndarray:
    """Critical-manifold point over x_start, corrected by eps times the
    reduced vector field."""
    z = critical_manifold_solve(spec, [x_start, y_guess], frozen=(0,))
    mu = 1.0 + spec.DfN_at(z)[0, 0]
    if abs(mu) >= 1.0:
        raise PreconditionError(
            f"seed branch is not attracting: multiplier {mu:.6g} at x = {x_start}")
    rd = reduced_data(spec, z)
    return z + eps * rd.reduced_field


def track_slow_manifold(spec: FastSlowMapSpec, eps: float, x_start: float,
                        transient: int = DEFAULT_TRANSIENT,
                        max_steps: int = 500_000,
                        stop_x: float | None = None,
                        y_guess: float = 0.0) -> np.ndarray:
    """Iterate from the corrected manifold seed, discard the transient, and
    return the post-transient points as the numerical slow-manifold sample.

    Stops at the first iterate with x > stop_x when given, else after
    max_steps.  eps must be finite and nonnegative."""
    if spec.n != 2:
        raise PreconditionError("slow-manifold tracking is planar (n = 2)")
    if not (math.isfinite(eps) and eps >= 0):
        raise PreconditionError(f"eps must be finite and nonnegative, got {eps!r}")
    runner = _MapRunner(spec)
    _, z, _, _ = _walk(runner, _seed_on_manifold(spec, x_start, eps, y_guess),
                       eps, transient)
    pts = [z]
    stop = None if stop_x is None else (lambda prev, z: z[0] > stop_x)
    _, _, reached, _ = _walk(runner, z, eps, max_steps, stop, pts)
    if stop_x is not None and not reached:
        raise ExperimentError(
            f"orbit did not reach x = {stop_x} within {max_steps} steps")
    return np.array(pts)


def fit_powerlaw(eps_values, observables, excluded=()) -> ScalingFit:
    eps_values = tuple(float(e) for e in eps_values)
    observables = tuple(float(o) for o in observables)
    if len(eps_values) < 3:
        raise ExperimentError(
            f"power-law fit needs at least 3 points, got {len(eps_values)}")
    X = np.log(np.asarray(eps_values))
    L = np.log(np.abs(np.asarray(observables)))
    A = np.vstack([X, np.ones_like(X)]).T
    coefs, *_ = np.linalg.lstsq(A, L, rcond=None)
    pred = A @ coefs
    ss_res = float(np.sum((L - pred) ** 2))
    ss_tot = float(np.sum((L - L.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ScalingFit(eps_values=eps_values, observables=observables,
                      slope=float(coefs[0]), intercept=float(coefs[1]),
                      r_squared=r2, excluded=tuple(float(e) for e in excluded))


def _interpolate_crossing(p_in: np.ndarray, p_out: np.ndarray, axis: int,
                          level: float) -> np.ndarray:
    t = (level - p_in[axis]) / (p_out[axis] - p_in[axis])
    return p_in + t * (p_out - p_in)


def fold_exit_experiment(spec: FastSlowMapSpec, rho: float, eps_grid,
                         observable: str = "exit") -> ScalingFit:
    """Track the attracting slow manifold through the fold region for each
    eps and fit the power law of the recorded level against eps.

    ``observable = "exit"`` records the y-value interpolated at the crossing
    of the face x = base + rho (the exit level of the extension).  The
    diagnostic variant ``observable = "fiber"`` records the y-level at the
    crossing of the critical fiber x = base instead; it tracks the leading
    power on coarser eps grids because the exit level carries the slow
    logarithmic correction of the corner analysis.

    Each orbit starts on the attracting branch over x = -0.5.  rho and
    every grid entry must be finite and > 0.  Each orbit is walked
    to its first crossing of the observable level and then on to the face
    x = base + rho, holding two points; an eps whose orbit does not reach
    that face within 2e6 steps is excluded from the fit.
    """
    if not (math.isfinite(rho) and rho > 0):
        raise PreconditionError(f"fold exit needs a finite rho > 0, got {rho!r}")
    eps_values = [float(eps) for eps in eps_grid]
    for eps in eps_values:
        if not (math.isfinite(eps) and eps > 0):
            raise PreconditionError(
                f"fold exit needs every eps finite and > 0, got {eps!r}")
    cls = classify_planar_singularity(spec)
    if cls.case != "Fold":
        raise PreconditionError(
            f"fold exit experiment needs a fold point, got {cls.case} "
            f"(failed: {'; '.join(cls.failed)})")
    c = cls.coefficients
    if not (c.alpha > 0 and c.g0 < 0 and
            spec.f[0].coefficient((0, 1)) < 0):
        raise PreconditionError(
            "fold orientation must be: fxx > 0, fy < 0, g0 < 0 "
            "(attracting branch on the left, drift toward the fold)")
    if observable not in ("exit", "fiber"):
        raise StructuralError(f"unknown observable {observable!r}")
    level = spec.base_point[0] + (rho if observable == "exit" else 0.0)
    stop = spec.base_point[0] + rho

    runner = _MapRunner(spec)
    eps_ok, values, excluded = [], [], []
    for eps in eps_values:
        _, z, _, _ = _walk(runner, _seed_on_manifold(spec, -0.5, eps), eps,
                           DEFAULT_TRANSIENT)
        # to the first crossing of the observable level, or to the stop
        # face when no crossing comes first
        prev, z, hit, steps = _walk(
            runner, z, eps, _STEP_CAP,
            lambda prev, z: prev[0] <= level < z[0] or z[0] > stop)
        if hit and not z[0] > stop:  # fiber level: walk on to the stop face
            _, _, hit, _ = _walk(runner, z, eps, _STEP_CAP - steps,
                                 lambda prev, z: z[0] > stop)
        if not hit:
            excluded.append(eps)
            continue
        eps_ok.append(eps)
        values.append(_interpolate_crossing(prev, z, 0, level)[1]
                      - spec.base_point[1])
    if excluded and not eps_ok:
        raise ExperimentError("no eps value produced an exit within the step cap")
    return fit_powerlaw(eps_ok, values, excluded=excluded)


# ---------------------------------------------------------------------------
# branch selection (transcritical / pitchfork)


@dataclass
class BranchSelection:
    label: str
    exit_point: np.ndarray
    exit_edge: str
    matched_point: np.ndarray | None
    distance: float | None
    d_match: float
    lam: float


def _face_roots(spec: FastSlowMapSpec, exit_point: np.ndarray, axis_fixed: int,
                box: Box) -> list[float]:
    """Real roots of the fast equation restricted to the exit face, inside
    the face segment."""
    f = spec.f[0]
    base = spec.base_point
    fixed_val = exit_point[axis_fixed] - base[axis_fixed]
    free = 1 - axis_fixed
    # univariate coefficients of f on the face, each summed in graded-lex order
    nonzero = f._graded.nonzero()[0]
    E = f._table().exponents[nonzero]
    powers = np.array([fixed_val ** e for e in range(f.order + 1)])
    poly = np.bincount(E[:, free], weights=f._graded[nonzero] * powers[E[:, axis_fixed]],
                       minlength=f.order + 1)
    coeffs_desc = poly[::-1]
    nz = np.flatnonzero(np.abs(coeffs_desc) > 0)
    if nz.size == 0:
        return []
    roots = np.roots(coeffs_desc[nz[0]:])
    lo, hi = box.bounds[free]
    out = []
    for root in roots:
        if abs(root.imag) > 1e-8:
            continue
        val = root.real + base[free]
        if lo - 1e-9 <= val <= hi + 1e-9:
            out.append(val)
    return sorted(out)


def branch_selection_experiment(spec: FastSlowMapSpec, case: str, eps: float,
                                seed: np.ndarray | None = None,
                                side: str = "plus",
                                box: Box | None = None) -> BranchSelection:
    """Track the incoming attracting slow manifold through the box and label
    the outcome by which outgoing branch (or fast-escape fiber) the orbit is
    within the matching distance of at exit.  Needs eps > 0: at eps = 0 the
    orbit has no slow drift and would run out the step cap in place.  The
    transient and the walk to the box face share one compiled map and hold
    two points, so memory does not grow with the orbit's length."""
    if not eps > 0:
        raise PreconditionError(f"branch selection needs eps > 0, got {eps!r}")
    cls = classify_planar_singularity(spec)
    if cls.case != case:
        raise PreconditionError(
            f"spec classifies as {cls.case}, experiment asked for {case}")
    lam = threshold_lambda(cls.coefficients)
    lam_crit = 1.0 if case == "Transcritical" else 0.0
    # the threshold decides the outcome except in the pitchfork g0 < 0 case,
    # where both outer manifolds land on the center branch for every lambda
    lam_decides = case == "Transcritical" or cls.coefficients.g0 > 0
    if lam_decides and abs(lam - lam_crit) < LAMBDA_EXCLUSION_BAND:
        raise PreconditionError(
            f"lambda = {lam:.4g} lies inside the exclusion band "
            f"{LAMBDA_EXCLUSION_BAND} around the threshold {lam_crit}; "
            "labels are undefined by design there")
    box = box or Box(((-0.5, 0.5), (-0.4, 0.4)))
    d_match = D_MATCH_FACTOR * math.sqrt(eps)
    base = spec.base_point
    g0 = cls.coefficients.g0

    if seed is None:
        if case == "Transcritical":
            z = critical_manifold_solve(spec, [base[0] - 0.35, base[1] - 0.35])
        else:
            if g0 > 0:
                z = critical_manifold_solve(spec, [base[0], base[1] - 0.35],
                                            frozen=(0,))
            else:
                s = +1.0 if side == "plus" else -1.0
                z = critical_manifold_solve(
                    spec, [base[0] + s * 0.35, base[1] + 0.35 ** 2], frozen=(0,))
    else:
        z = np.asarray(seed, dtype=float)

    rd = reduced_data(spec, z)
    if rd.valid:
        z = z + eps * rd.reduced_field
    runner = _MapRunner(spec)
    _, z, _, _ = _walk(runner, z, eps, DEFAULT_TRANSIENT)
    z_exit, exited = _walk_out_of(box, runner, z, eps, _STEP_CAP)
    if not exited:
        raise ExperimentError(f"orbit did not leave the box in {_STEP_CAP} steps")
    edge = box.exit_face(z_exit)
    axis_fixed = 0 if edge.startswith(("x", "z1")) else 1
    free = 1 - axis_fixed
    roots = _face_roots(spec, z_exit, axis_fixed, box)
    close = [rt for rt in roots if abs(z_exit[free] - rt) <= d_match]
    if len(close) > 1:
        raise ExperimentError(
            f"ambiguous branch label: exit point {z_exit} is within "
            f"{d_match:.3g} of branches at {close}")

    matched = None
    dist = None
    if close:
        matched = z_exit.copy()
        matched[free] = close[0]
        dist = float(abs(z_exit[free] - close[0]))

    if case == "Transcritical":
        if matched is not None:
            label = "ExchangeOfStability"
        elif abs(z_exit[1] - base[1]) <= d_match and axis_fixed == 0:
            label = "FastEscape"
            matched = np.array([z_exit[0], base[1]])
            dist = float(abs(z_exit[1] - base[1]))
        else:
            raise ExperimentError(
                f"transcritical exit {z_exit} matches neither a branch nor "
                f"the critical fiber within {d_match:.3g}")
    else:
        if matched is None:
            raise ExperimentError(
                f"pitchfork exit {z_exit} is not within {d_match:.3g} of any branch")
        if axis_fixed == 1 and abs(matched[0] - base[0]) <= d_match:
            label = "BothToCenter"
        elif matched[0] > base[0]:
            label = "BranchPlus"
        else:
            label = "BranchMinus"
    return BranchSelection(label=label, exit_point=z_exit, exit_edge=edge,
                           matched_point=matched, distance=dist,
                           d_match=d_match, lam=lam)
