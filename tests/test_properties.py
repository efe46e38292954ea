"""Property tests (hypothesis): embedding round trips, the flow's group
law, shift round trips and evaluator agreement on generated fields."""

import numpy as np
from hypothesis import given, strategies as st

from fastslow.dynamics import compile_jet_callable
from fastslow.embedding import flow_time1_jet, takens_embed_unipotent
from fastslow.jets import (Jet, JetVector, jet_shift, jetvector_compose,
                           max_coeff_diff, monomials_of_degree)

COEFF = st.floats(-0.8, 0.8, allow_nan=False, allow_subnormal=False)


@st.composite
def jet_vectors(draw, num_vars, order, components, min_degree=0):
    """Jet vectors with each monomial of degree min_degree..order either
    absent or given a coefficient from COEFF."""
    comps = []
    for _ in range(components):
        terms = {}
        for d in range(min_degree, order + 1):
            for alpha in monomials_of_degree(num_vars, d):
                if draw(st.booleans()):
                    terms[alpha.exponents] = draw(COEFF)
        comps.append(Jet.from_terms(num_vars, order, terms))
    return JetVector(comps, num_vars, order)


@st.composite
def nilpotent_fields(draw):
    """Fields with a nilpotent linear part (one Jordan chain of seeded
    length and superdiagonal entries) plus a generated nonlinear part."""
    m = draw(st.integers(1, 3))
    order = draw(st.integers(2, 4))
    depth = draw(st.integers(1, m))
    V = draw(jet_vectors(m, order, m, min_degree=2))
    comps = []
    for i, comp in enumerate(V):
        if i + 1 < depth:
            entry = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 1.0))
            unit = tuple(1 if j == i + 1 else 0 for j in range(m))
            comp = comp + Jet.from_terms(m, order, {unit: entry})
        comps.append(comp)
    return JetVector(comps, m, order)


@given(nilpotent_fields())
def test_embedding_inverts_time1_flow(V):
    H = flow_time1_jet(V, V.order)
    res = takens_embed_unipotent(H, V.order)
    assert max_coeff_diff(res.V, V) <= 1e-9
    assert res.residual <= 1e-9


@given(nilpotent_fields())
def test_time1_flow_group_law(V):
    phi = flow_time1_jet(V, V.order)
    twice = jetvector_compose(phi, phi)
    gap = max_coeff_diff(flow_time1_jet(V * 2.0, V.order), twice)
    assert gap <= 1e-12 * max(1.0, twice.max_abs())


@st.composite
def jets_and_offsets(draw):
    m = draw(st.integers(1, 3))
    (jet,) = draw(jet_vectors(m, draw(st.integers(1, 5)), 1))
    offsets = draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m))
    return jet, offsets


@given(jets_and_offsets())
def test_shift_round_trip(case):
    jet, offsets = case
    shifted = jet_shift(jet, offsets)
    back = jet_shift(shifted, [-c for c in offsets])
    assert max_coeff_diff(back, jet) <= 1e-12 * max(1.0, shifted.max_abs())


@st.composite
def fields_and_points(draw):
    m = draw(st.integers(1, 3))
    V = draw(jet_vectors(m, draw(st.integers(1, 4)), draw(st.integers(1, 3))))
    point = draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m))
    return V, point


@given(fields_and_points())
def test_compiled_evaluator_matches_jetvector(case):
    V, point = case
    compiled = compile_jet_callable(V)(point)
    direct = V.evaluate(point)
    assert compiled.tobytes() == direct.tobytes()
    assert direct.tobytes() == np.array([c.evaluate(point) for c in V]).tobytes()
