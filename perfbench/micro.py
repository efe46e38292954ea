"""Fixed-shape kernel microbenchmarks on seeded dense operands.

Each kernel is called once as warm-up and once to calibrate, then timed
in repeats of a calibrated number of calls; the result is the median time
per call in microseconds.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from fastslow import dynamics as D
from fastslow import jets as J

import gen

REPEATS = 5
REPEAT_S = 0.04      # target length of one timed repeat
WARMUP_CALLS = 1


def dense_jet(rng, m: int, order: int, constant: float | None = None) -> "J.Jet":
    """Every monomial of degree 0..order with a coefficient in [-1, 1]; the
    constant term is ``constant`` when given."""
    terms = {}
    for d in range(order + 1):
        for alpha in J.monomials_of_degree(m, d):
            terms[alpha.exponents] = float(rng.uniform(-1.0, 1.0))
    if constant is not None:
        terms[(0,) * m] = constant
    return J.Jet.from_terms(m, order, terms)


def time_per_call_us(fn) -> float:
    for _ in range(WARMUP_CALLS):
        fn()
    t0 = perf_counter()
    fn()
    one = perf_counter() - t0
    calls = max(1, int(REPEAT_S / max(one, 1e-9)))
    samples = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        samples.append((perf_counter() - t0) / calls)
    return statistics.median(samples) * 1e6


def _step_us(rng) -> float:
    """Map-step time on a seeded fold: one ``iterate_map_orbit`` call of a
    fixed number of steps, divided by its steps."""
    spec = gen.fold_spec(rng, order=5)
    a = spec.f[0].coefficient((2, 0))
    b = -spec.f[0].coefficient((0, 1))
    z0 = np.array([-0.5, a * 0.25 / b])
    box = D.Box(((-2.0, 2.0), (-2.0, 2.0)))
    steps = 2000

    def run():
        orbit = D.iterate_map_orbit(spec, z0, 1e-6, box, max_steps=steps)
        if len(orbit.points) != steps + 1:
            raise RuntimeError("step benchmark orbit left its box")
    return time_per_call_us(run) / steps


def run_all(seed: int) -> dict[str, float]:
    rng = np.random.default_rng([seed, 7])
    a36, b36 = dense_jet(rng, 3, 6), dense_jet(rng, 3, 6)
    a45, b45 = dense_jet(rng, 4, 5), dense_jet(rng, 4, 5)
    outer = dense_jet(rng, 4, 5)
    inner = J.JetVector([dense_jet(rng, 4, 5, constant=0.0) for _ in range(4)])
    offsets = [float(v) for v in rng.uniform(-0.5, 0.5, 3)]
    mat = [[dense_jet(rng, 4, 5, constant=(2.0 if i == j else 0.3))
            for j in range(2)] for i in range(2)]
    field = J.JetVector([dense_jet(rng, 3, 6) for _ in range(2)])
    evaluate = D.compile_jet_callable(field)
    points = [tuple(rng.uniform(-0.3, 0.3, 3)) for _ in range(64)]

    def eval_points():
        for p in points:
            evaluate(p)

    return {
        "jets.mul_us.m3o6": time_per_call_us(lambda: J.jet_mul(a36, b36)),
        "jets.mul_us.m4o5": time_per_call_us(lambda: J.jet_mul(a45, b45)),
        "jets.compose_us.m4o5": time_per_call_us(lambda: J.jet_compose(outer, inner)),
        "jets.shift_us.m3o6": time_per_call_us(lambda: J.jet_shift(a36, offsets)),
        "jets.matinv_us.p2m4o5": time_per_call_us(lambda: J.jet_matrix_inverse(mat)),
        "dynamics.eval_us": time_per_call_us(eval_points) / len(points),
        "dynamics.step_us": _step_us(rng),
    }
