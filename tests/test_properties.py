"""Property tests (hypothesis): embedding round trips, the flow's group
law and its agreement with the jet-product Lie series, flow and embedding
under a linear change of coordinates, the per-degree Takens operator as
the first variation of the time-1 map, the finite series of both
per-degree solvers against their dense operators, the nilpotency index
against its per-power oracle, the bits of the round trip and of the
center-manifold solve against the series oracles, the ring laws of
``jet_mul``, the Leibniz rule, the graded-basis derivation operator and the
dense operator and its series against the CSR oracle, shift
round trips, evaluator agreement, composition against the sparse oracle and
its associativity, linear maps of jets and spec-file round trips on
generated inputs; the contact chart against its two-stage construction;
the center-manifold pipeline on random n-d contact specs;
the reference integrator and the contact frame's null space against their
scipy counterparts; and a fuzz of the command line over generated argv and
spec text."""

import contextlib
import io
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from fastslow.cli import execute_command
from fastslow.dynamics import (Box, _face_roots, _seed_on_manifold,
                               branch_selection_experiment, compile_jet_callable,
                               fit_powerlaw, fold_exit_experiment, integrate_time1)
from fastslow import embedding, singularities
from fastslow.embedding import (_takens_solve, _time1, flow_time1_jet, nilpotent_log,
                                reduced_map_jets, takens_embed_unipotent,
                                verify_reduced_embedding)
from fastslow.errors import ConvergenceError, StructuralError
from fastslow.jets import (Jet, JetVector, MultiIndex, _composition_matrix, _derivation,
                           _graded_coeffs, _graded_jets, _graded_table, jet_compose,
                           jet_linear_map, jet_mul, jet_partial, jet_shift,
                           jetvector_compose, max_coeff_diff, monomials_of_degree)
from fastslow.model import (FastSlowMapSpec, critical_manifold_solve,
                            extended_map_jets, nilpotency_index, reduced_data)
from fastslow.singularities import (_graph_solve, _newton_rectify,
                                    build_contact_frame,
                                    center_manifold_restricted_map,
                                    cm_normal_form_transform,
                                    embed_on_center_manifold)
from fastslow.specfiles import emit_mapspec, parse_mapspec
from fastslow.tols import DEFAULT_TOLS
from conftest import nilpotent_powers as _nilpotent_powers
from conftest import (STRUCTURAL_ORACLES, compose_oracle, csr_derivation_oracle,
                      csr_time1_oracle, eps01_diffs_oracle, eps2_oracle, face_roots_oracle,
                      finite_series_oracle, graph_operator_oracle,
                      jet_linear_map_oracle, jet_mul_oracle, jet_partial_oracle,
                      jet_shift_oracle, lie_series_oracle, make_contact3d_spec,
                      make_contact4d_k1_spec, make_contact4d_k2_spec, make_fold_spec,
                      make_pitchfork_spec, make_transcritical_spec,
                      nilpotency_index_oracle, orbit_oracle, pure_x_oracle,
                      quad_closed_oracle, random_contact_spec, random_nilpotent_field,
                      random_reduced_spec,
                      takens_operator_oracle, takens_solve_oracle, time1_oracle)

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
    """Fields with a nilpotent linear part plus a generated nonlinear part.
    The linear part is one Jordan chain J of seeded length and superdiagonal
    entries, or a non-triangular L = P J P^-1 with |P - I| <= 0.3 entrywise
    (so P is invertible for m <= 3)."""
    m = draw(st.integers(1, 3))
    order = draw(st.integers(2, 4))
    depth = draw(st.integers(1, m))
    V = draw(jet_vectors(m, order, m, min_degree=2))
    L = np.zeros((m, m))
    for i in range(depth - 1):
        L[i, i + 1] = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 1.0))
    if draw(st.booleans()):
        entries = draw(st.lists(st.floats(-0.3, 0.3), min_size=m * m, max_size=m * m))
        P = np.eye(m) + np.reshape(entries, (m, m))
        L = P @ L @ np.linalg.inv(P)
    comps = []
    for i, comp in enumerate(V):
        linear = {tuple(1 if j == s else 0 for j in range(m)): L[i, s] for s in range(m)}
        comps.append(comp + Jet.from_terms(m, order, linear))
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


@given(nilpotent_fields())
def test_time1_flow_matches_lie_series_oracle(V):
    flow = flow_time1_jet(V, V.order)
    depth = len(_nilpotent_powers(V.linear_matrix(), DEFAULT_TOLS.nilp))
    oracle = lie_series_oracle(V, V.order, depth)
    assert max_coeff_diff(flow, oracle) <= 1e-13 * oracle.max_abs()


@st.composite
def conjugated_fields(draw):
    """A field of ``random_nilpotent_field`` (m 2-3, order 3-6) and an
    invertible P with |P - I| <= 0.3 entrywise: diagonally dominant for
    m <= 3."""
    m = draw(st.integers(2, 3))
    order = draw(st.integers(3, 6))
    V = random_nilpotent_field(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))),
                               m, order)
    entries = draw(st.lists(st.floats(-0.3, 0.3), min_size=m * m, max_size=m * m))
    return V, np.eye(m) + np.reshape(entries, (m, m))


def _conjugate(F, P, Pinv):
    """P^-1 F(P x)."""
    m, order = F.num_vars, F.order
    Px = jet_linear_map(P, JetVector.identity(m, order))
    return JetVector(jet_linear_map(Pinv, jetvector_compose(F, Px)), m, order)


@settings(max_examples=100)
@given(conjugated_fields())
def test_flow_and_embedding_commute_with_linear_conjugation(case):
    # the flow of P^-1 V(P .) is P^-1 flow(V)(P .), and the Takens field of
    # a map is unique, so the embedding commutes with the same change
    V, P = case
    Pinv = np.linalg.inv(P)
    H = flow_time1_jet(V, V.order)
    want = _conjugate(H, P, Pinv)
    got = flow_time1_jet(_conjugate(V, P, Pinv), V.order)
    assert max_coeff_diff(got, want) <= 1e-13 * want.max_abs()
    want = _conjugate(takens_embed_unipotent(H, V.order).V, P, Pinv)
    got = takens_embed_unipotent(_conjugate(H, P, Pinv), V.order).V
    assert max_coeff_diff(got, want) <= 1e-13 * want.max_abs()


@st.composite
def takens_cases(draw):
    """A nilpotent L and a homogeneous field F of one degree l >= 2.  L is one
    Jordan chain, or L = P J P^-1 with |P - I| <= 0.2 entrywise, so that P is
    diagonally dominant, hence invertible, for m <= 4."""
    m = draw(st.integers(1, 4))
    l = draw(st.integers(2, 4 if m < 4 else 3))
    depth = draw(st.integers(1, m))
    L = np.zeros((m, m))
    for i in range(depth - 1):
        L[i, i + 1] = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 1.0))
    if draw(st.booleans()):
        entries = draw(st.lists(st.floats(-0.2, 0.2), min_size=m * m, max_size=m * m))
        P = np.eye(m) + np.reshape(entries, (m, m))
        L = P @ L @ np.linalg.inv(P)
    return L, draw(jet_vectors(m, l, m, min_degree=l))


@given(takens_cases())
def test_takens_operator_is_the_first_variation_of_time1(case):
    # F enters the time-1 map of L x + F nonlinearly only from degree
    # 2l - 1 > l on, so its degree-l part is exactly the operator applied to F
    L, F = case
    m, l = F.num_vars, F.order
    table = _graded_table(m, l)
    part = slice(table.ends[l - 1], table.ends[l])
    Lpows = _nilpotent_powers(L, DEFAULT_TOLS.nilp)
    V = np.zeros((m, table.ends[-1]))
    V[:, table.var] = L
    A = _derivation(V, table, l)[part, part]
    op = takens_operator_oracle(Lpows, A, l * (len(Lpows) - 1))
    V += _graded_coeffs(F, table)
    want = _time1(V, table, l, len(Lpows))[:, part]
    got = (op @ V[:, part].ravel()).reshape(m, -1)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@given(takens_cases())
def test_takens_series_inverts_the_dense_operator(case):
    # the coefficients of F serve as the right-hand side of degree l
    L, F = case
    m, l = F.num_vars, F.order
    table = _graded_table(m, l)
    part = slice(table.ends[l - 1], table.ends[l])
    Lpows = _nilpotent_powers(L, DEFAULT_TOLS.nilp)
    V = np.zeros((m, table.ends[-1]))
    V[:, table.var] = L
    A = _derivation(V, table, l)[part, part]
    rhs = _graded_coeffs(F, table)[:, part]
    got = _takens_solve(L, A, rhs, len(Lpows), l)
    back = takens_operator_oracle(Lpows, A, l * (len(Lpows) - 1)) @ got.ravel()
    assert np.max(np.abs(back - rhs.ravel())) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


@st.composite
def graph_cases(draw):
    """One degree d of the graph equation B X - X Phi = R of a contact chart
    with k slow variables and p - 1 w variables.  B is a framed fast block,
    contracting or expanding, whose Gershgorin discs keep 0.2 from the unit
    circle.  Phi is the degree-d block of the composition matrix of the
    linear return map M on (x_1..x_k, u, eps): the identity plus the
    tangency column in u and an eps column, to which the coupling hm_xw W_1
    of a nonzero W_1 is added.

    The residual of any backward-stable solution scales with |X|, which
    grows like (|(B - I)^-1| |Phi - I|)^d; degrees up to 3 keep |X| within
    a few thousand, where a bound relative to the right-hand side means
    something."""
    k = draw(st.integers(1, 3))
    q = draw(st.integers(1, 3))  # p - 1
    d = draw(st.integers(1, 3))
    unit = st.floats(-0.5, 0.5)

    def matrix(rows, cols, elements=unit):
        return np.reshape(draw(st.lists(elements, min_size=rows * cols,
                                        max_size=rows * cols)), (rows, cols))

    B = np.eye(q) + matrix(q, q, st.floats(-0.1, 0.1))
    B[np.diag_indices(q)] = [draw(st.sampled_from([0.3, 1.7]))
                             + draw(st.floats(0.0, 0.3)) for _ in range(q)]
    mred = k + 2
    M = np.eye(mred)
    M[0, k] = 1.0
    M[1:k, k] = matrix(k - 1, 1)[:, 0]
    M[:k + 1, k + 1] = matrix(k + 1, 1)[:, 0]
    W1 = matrix(q, 1, st.floats(0.1, 0.5))
    M[:k + 1, k + 1] += (matrix(k + 1, q) @ W1)[:, 0]
    table = _graded_table(mred, d)
    inner = np.zeros((mred, table.ends[-1]))
    inner[:, table.var] = M
    part = slice(table.ends[d - 1], table.ends[d])
    Phi = _composition_matrix(inner, table, table, d)[part, part]
    depth = len(_nilpotent_powers(M - np.eye(mred), DEFAULT_TOLS.nilp))
    return B, Phi, matrix(q, int(part.stop - part.start)), depth, d


@given(graph_cases())
def test_graph_series_inverts_the_dense_operator(case):
    B, Phi, rhs, depth, d = case
    got = _graph_solve(np.linalg.inv(B - np.eye(len(B))), Phi, rhs, depth, d)
    back = graph_operator_oracle(B, Phi) @ got.ravel()
    assert np.max(np.abs(back - rhs.ravel())) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


@st.composite
def nilpotency_cases(draw):
    """A matrix of dimension 1..16 and a tolerance.  Nilpotent ones are
    Jordan blocks of drawn sizes, conjugated by an orthogonal Q or left with
    powers that reach exactly zero, scaled by 1e-3..1e3, plus a perturbation
    of norm tol x 10^[-2, 2] that straddles the threshold; the others are
    dense, or nilpotent plus a multiple of the identity.  Zero entries may
    be negative zeros."""
    dim = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tol = draw(st.sampled_from([1e-12, DEFAULT_TOLS.nilp, 1e-6]))
    kind = draw(st.sampled_from(["nilpotent", "dense", "shifted"]))
    if kind == "dense":
        M = rng.standard_normal((dim, dim))
    else:
        J = np.zeros((dim, dim))
        start = 0
        while start < dim:
            size = draw(st.integers(1, dim - start))
            J[range(start, start + size - 1), range(start + 1, start + size)] = 1.0
            start += size
        M = J
        if draw(st.booleans()):
            Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            M = Q @ J @ Q.T
        if kind == "shifted":
            M += draw(st.floats(1e-3, 1.0)) * np.eye(dim)
    M *= 10.0 ** draw(st.floats(-3.0, 3.0))
    if draw(st.booleans()):
        E = rng.standard_normal((dim, dim))
        M += tol * 10.0 ** draw(st.floats(-2.0, 2.0)) * E / np.linalg.norm(E, 2)
    if draw(st.booleans()):
        M = np.where(M == 0.0, -0.0, M)
    return M, tol


@settings(max_examples=300)
@given(nilpotency_cases())
def test_nilpotency_index_matches_per_power_oracle(case):
    M, tol = case
    assert nilpotency_index(M, tol) == nilpotency_index_oracle(M, tol)


@st.composite
def seeded_nilpotent_fields(draw):
    """Fields in 1..4 variables to order 2..7: a nilpotent linear part of
    one Jordan chain of drawn length, conjugated by I + U(-0.3, 0.3) or not,
    and seeded coefficients on about half of the monomials of degree >= 2."""
    m = draw(st.integers(1, 4))
    order = draw(st.integers(2, 7))
    depth = draw(st.integers(1, m))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    L = np.zeros((m, m))
    L[range(depth - 1), range(1, depth)] = rng.choice([-1.0, 1.0], depth - 1)
    if draw(st.booleans()):
        P = np.eye(m) + rng.uniform(-0.3, 0.3, (m, m))
        L = P @ L @ np.linalg.inv(P)
    comps = []
    for i in range(m):
        terms = {tuple(1 if j == s else 0 for j in range(m)): L[i, s] for s in range(m)}
        for d in range(2, order + 1):
            for alpha in monomials_of_degree(m, d):
                if rng.random() < 0.5:
                    terms[alpha.exponents] = float(rng.uniform(-0.8, 0.8))
        comps.append(Jet.from_terms(m, order, terms))
    return JetVector(comps, m, order)


def _same_bits(got, want):
    """Equal coefficient arrays for jet vectors of one shape, or equal arrays."""
    if isinstance(want, JetVector):
        table = _graded_table(want.num_vars, want.order)
        return np.array_equal(_graded_coeffs(got, table), _graded_coeffs(want, table))
    return np.array_equal(got, want)


def _with_series_oracles(compute):
    """``compute()`` with ``finite_series_oracle`` as the series helper of
    both solvers, and the time-1 series and Takens solve replaced by their
    oracles, which make a new array for every step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embedding, "_finite_series", finite_series_oracle)
        mp.setattr(singularities, "_finite_series", finite_series_oracle)
        mp.setattr(embedding, "_time1", time1_oracle)
        mp.setattr(embedding, "_takens_solve", takens_solve_oracle)
        return compute()


@settings(max_examples=60)
@given(seeded_nilpotent_fields())
def test_round_trip_has_the_bits_of_the_series_oracles(V):
    def round_trip():
        H = flow_time1_jet(V, V.order)
        res = takens_embed_unipotent(H, V.order)
        return H, res.V, res.residual, nilpotent_log(H.linear_matrix())

    for got, want in zip(round_trip(), _with_series_oracles(round_trip)):
        assert _same_bits(got, want)


def _on_a_jordan_chain(V):
    """True when the linear part of ``V`` is nonzero on the superdiagonal only."""
    L = V.linear_matrix()
    return np.array_equal(L, np.diag(np.diag(L, 1), 1))


@settings(max_examples=60)
@given(seeded_nilpotent_fields().filter(_on_a_jordan_chain))
def test_flow_of_an_exactly_nilpotent_field_keeps_its_bits(V):
    """A linear part on one Jordan chain is nilpotent in floating point too,
    so the Lie series summed to the dimension bound meets the same exactly
    zero term as the series summed to the tested index."""
    table = _graded_table(V.num_vars, V.order)
    depth = len(_nilpotent_powers(V.linear_matrix(), DEFAULT_TOLS.nilp))
    want = time1_oracle(_graded_coeffs(V, table), table, V.order, depth)
    assert np.array_equal(_graded_coeffs(flow_time1_jet(V, V.order), table), want)


@pytest.mark.parametrize("make_spec", [make_contact3d_spec, make_contact4d_k1_spec,
                                       make_contact4d_k2_spec])
def test_center_manifold_has_the_bits_of_the_series_oracles(make_spec):
    nf = cm_normal_form_transform(make_spec())

    def solve():
        return center_manifold_restricted_map(nf, order=4)

    got, want = solve(), _with_series_oracles(solve)
    for name in ("W", "restricted_N", "restricted_G", "restricted_map", "W0"):
        assert _same_bits(getattr(got, name), getattr(want, name)), name
    assert _same_bits(JetVector([got.restricted_f]), JetVector([want.restricted_f]))
    assert (got.invariance_residual, got.mu1) == (want.invariance_residual, want.mu1)


@st.composite
def jet_triples(draw):
    m = draw(st.integers(1, 3))
    return draw(jet_vectors(m, draw(st.integers(1, 4)), 3))


def _close(a, b):
    return max_coeff_diff(a, b) <= 1e-12 * max(1.0, a.max_abs(), b.max_abs())


@given(jet_triples())
def test_jet_mul_ring_laws(abc):
    a, b, c = abc
    assert _close(jet_mul(a, b), jet_mul(b, a))
    assert _close(jet_mul(jet_mul(a, b), c), jet_mul(a, jet_mul(b, c)))
    assert _close(jet_mul(a, b + c), jet_mul(a, b) + jet_mul(a, c))


@given(jet_triples(), st.integers(0, 2))
def test_jet_partial_leibniz(abc, var):
    a, b, _ = abc
    var %= a.num_vars
    lhs = jet_partial(jet_mul(a, b), var)
    rhs = jet_mul(a, jet_partial(b, var)) + jet_mul(b, jet_partial(a, var))
    # the product's top degree is truncated away, so its derivative is
    # right only up to the reliable order, one below the order
    assert lhs.reliable_order == rhs.reliable_order == a.order - 1
    assert _close(lhs.degree_cap(lhs.reliable_order), rhs.degree_cap(lhs.reliable_order))


@st.composite
def fields_and_jet_pairs(draw):
    m = draw(st.integers(1, 3))
    order = draw(st.integers(1, 5))
    return (draw(jet_vectors(m, order, m, min_degree=1)),
            draw(jet_vectors(m, order, 2, min_degree=1)))


@given(fields_and_jet_pairs())
def test_graded_operator_is_the_derivation(case):
    V, (g, h) = case
    m, order = V.num_vars, V.order
    table = _graded_table(m, order)
    op = _derivation(_graded_coeffs(V, table), table, order)

    def apply(u):
        return _graded_jets((op @ _graded_coeffs([u], table).T).T, table, m, order)[0]

    direct = sum((jet_mul(V[j], jet_partial(g, j)) for j in range(m)), Jet.zero(m, order))
    assert _close(apply(g), direct)
    assert _close(apply(jet_mul(g, h)), jet_mul(g, apply(h)) + jet_mul(h, apply(g)))


@given(nilpotent_fields())
def test_dense_derivation_matches_csr_oracle(V):
    # the dense operator is scattered by the same bincount over the same
    # triples, so it keeps the CSR entries' bits; the series differs only
    # in the order BLAS sums each product
    m, order = V.num_vars, V.order
    table = _graded_table(m, order)
    coeffs = _graded_coeffs(V, table)
    depth = len(_nilpotent_powers(V.linear_matrix(), DEFAULT_TOLS.nilp))
    for degree in range(1, order + 1):
        dense = _derivation(coeffs, table, degree)
        want = csr_derivation_oracle(coeffs, table, degree).toarray()
        assert dense.shape == want.shape and dense.tobytes() == want.tobytes()
        series = csr_time1_oracle(coeffs, table, degree, depth)
        gap = np.max(np.abs(_time1(coeffs, table, degree, depth) - series))
        assert gap <= 1e-13 * np.max(np.abs(series))


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


# -- the array kernels against the dict references of conftest ----------------


@st.composite
def seeded_jets(draw, count):
    """``count`` jets of one shape, m <= 4 and order <= 6: each holds every
    monomial of degree 0..top with probability ``fill`` (sparse to dense),
    so arrays of every trimmed length occur, and has a reliable order at or
    below the order."""
    m, order = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    jets = []
    for _ in range(count):
        top = draw(st.integers(0, order))
        fill = draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)))
        terms = {a: float(rng.uniform(-1.0, 1.0)) for d in range(top + 1)
                 for a in monomials_of_degree(m, d) if rng.random() < fill}
        jets.append(Jet(m, order, terms, draw(st.integers(order - 2, order))))
    return jets


def _matches(got, want, exact=True):
    """Equal shape and reliable order, coefficients equal bit for bit (or
    within 1e-13 times the reference's largest one), and ``coeffs`` holds
    no zero and is keyed by the shared indices."""
    assert (got.num_vars, got.order, got.reliable_order) == \
        (want.num_vars, want.order, want.reliable_order)
    if exact:
        assert got.coeffs == want.coeffs
    else:
        assert max_coeff_diff(got, want) <= 1e-13 * want.max_abs()
    assert all(c != 0.0 for c in got.coeffs.values())
    assert all(key is MultiIndex(key.exponents) for key in got.coeffs)


@given(seeded_jets(1), st.integers(0, 3), st.integers(-1, 7), st.integers(0, 3),
       st.randoms(use_true_random=False))
def test_structural_operations_equal_dict_oracles(jets, var, degree, power, rnd):
    (jet,) = jets
    m, order = jet.num_vars, jet.order
    var %= m
    _matches(jet_partial(jet, var), jet_partial_oracle(jet, var))
    calls = [("degree_part", degree), ("degree_cap", degree), ("subs_zero", var),
             ("truncated", max(1, degree)), ("mul_var", var, power)]
    wide = m + rnd.randint(0, 2)
    calls.append(("extend_vars", wide, tuple(rnd.sample(range(wide), m))))
    divisible = STRUCTURAL_ORACLES["mul_var"](jet, var, power)
    free = STRUCTURAL_ORACLES["subs_zero"](jet, var)
    for name, *args in calls:
        _matches(getattr(jet, name)(*args), STRUCTURAL_ORACLES[name](jet, *args))
    _matches(divisible.div_var(var, power),
              STRUCTURAL_ORACLES["div_var"](divisible, var, power))
    if m > 1:
        _matches(free.drop_var(var), STRUCTURAL_ORACLES["drop_var"](free, var))
    # a term that does not carry x_var^power is refused by both
    if any(idx.exponents[var] < power for idx in jet.coeffs):
        with pytest.raises(StructuralError):
            jet.div_var(var, power)
        with pytest.raises(StructuralError):
            STRUCTURAL_ORACLES["div_var"](jet, var, power)
    if m > 1 and not free == jet:
        with pytest.raises(StructuralError):
            jet.drop_var(var)


@given(seeded_jets(3), st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       st.lists(COEFF, min_size=6, max_size=6))
def test_products_shifts_and_linear_maps_match_dict_oracles(jets, offsets, entries):
    a, b, c = jets
    _matches(jet_mul(a, b), jet_mul_oracle(a, b), exact=False)
    offsets = offsets[:a.num_vars]
    _matches(jet_shift(a, offsets), jet_shift_oracle(a, offsets), exact=False)
    A = np.reshape(entries, (2, 3))
    for got, want in zip(jet_linear_map(A, jets), jet_linear_map_oracle(A, jets)):
        _matches(got, want, exact=False)


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


@st.composite
def jets_and_points(draw):
    """One jet with monomials up to degree 6, so that every exponent branch
    of the evaluator (0, 1 and powers) is taken, and a point that may leave
    the unit box."""
    m = draw(st.integers(1, 4))
    order = draw(st.integers(1, 6 if m <= 2 else 4))
    (jet,) = draw(jet_vectors(m, order, 1))
    point = draw(st.lists(st.floats(-2.0, 2.0, allow_subnormal=False),
                          min_size=m, max_size=m))
    return jet, point


@given(jets_and_points())
def test_jet_evaluate_is_bitwise_the_jetvector_row(case):
    jet, point = case
    value = jet.evaluate(point)
    assert type(value) is float
    row = JetVector([jet]).evaluate(point)
    assert np.array([value]).tobytes() == row.tobytes()


@st.composite
def compose_chains(draw):
    """f in a variables, g: a components in b variables, h: b components
    in c variables, with a, b, c three different arities; g and h have no
    constant term."""
    a, b, c = draw(st.permutations([1, 2, 3]))
    order = draw(st.integers(1, 4))
    (f,) = draw(jet_vectors(a, order, 1))
    g = draw(jet_vectors(b, order, a, min_degree=1))
    h = draw(jet_vectors(c, order, b, min_degree=1))
    return f, g, h


@given(compose_chains())
def test_composition_associative_across_arities(chain):
    f, g, h = chain
    left = jet_compose(jet_compose(f, g), h)
    right = jet_compose(f, jetvector_compose(g, h))
    assert left.num_vars == right.num_vars == h.num_vars
    assert max_coeff_diff(left, right) <= 1e-12 * max(1.0, left.max_abs())


def _compose_case(m_out, m_in, order, fill, count, seed):
    """``count`` outer jets in ``m_out`` variables (constant terms included)
    and an inner vector of ``m_out`` jets in ``m_in`` variables (no constant
    terms), each monomial present with probability ``fill``, with random
    coefficients and reliable orders from ``seed``."""
    rng = np.random.default_rng(seed)

    def jets(m, components, min_degree):
        comps = []
        for _ in range(components):
            terms = {alpha.exponents: float(rng.uniform(-1.0, 1.0))
                     for d in range(min_degree, order + 1)
                     for alpha in monomials_of_degree(m, d) if rng.random() < fill}
            comps.append(Jet(m, order, terms, int(rng.integers(0, order + 1))))
        return JetVector(comps, m, order)

    return jets(m_out, count, 0), jets(m_in, m_out, 1)


@st.composite
def compose_cases(draw):
    """Composition inputs in arities 1..4 and orders 1..6, dense or with
    each monomial kept with probability 0.3.  Shapes are sampled uniformly,
    so that order 6 comes up as often as order 1; the coefficients come from
    a drawn seed, since dense jets in four variables at order 6 hold more
    numbers than hypothesis draws well."""
    shape = [draw(st.sampled_from(range(1, 5))), draw(st.sampled_from(range(1, 5))),
             draw(st.sampled_from(range(1, 7)))]
    return _compose_case(*shape, draw(st.sampled_from([1.0, 0.3])),
                         draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1)))


@given(compose_cases())
@example(_compose_case(4, 4, 6, 1.0, 1, 0))  # the largest shape, dense
def test_composition_matches_compose_oracle(case):
    outer, inner = case
    composed = jetvector_compose(outer, inner)
    for jet, comp in zip(outer, composed):
        oracle = compose_oracle(jet, inner)
        assert max_coeff_diff(comp, oracle) <= 1e-13 * max(1.0, oracle.max_abs())
        assert comp.reliable_order == oracle.reliable_order
        alone = jet_compose(jet, inner)
        assert alone == comp
        assert alone.reliable_order == comp.reliable_order


@st.composite
def matrices_and_jets(draw):
    m = draw(st.integers(1, 3))
    q = draw(st.integers(1, 3))
    jets = draw(jet_vectors(m, draw(st.integers(1, 4)), q))
    rows = draw(st.integers(1, 3))
    A = np.array(draw(st.lists(st.lists(COEFF, min_size=q, max_size=q),
                               min_size=rows, max_size=rows)))
    return A, jets


@given(matrices_and_jets())
def test_jet_linear_map_is_the_explicit_sum(case):
    A, jets = case
    got = jet_linear_map(A, jets)
    assert len(got) == A.shape[0]
    for i, jet in enumerate(got):
        expected = sum((jets[j] * A[i, j] for j in range(len(jets))),
                       Jet.zero(jets.num_vars, jets.order))
        assert jet.coeffs == expected.coeffs


def _two_stage_hat_map(spec):
    """The chart map composed in two stages: the map in the rectified
    chart (x, v, eps), then the linear (u, w) split of v."""
    nf = cm_normal_form_transform(spec)
    n, k, r, frame = spec.n, spec.k, spec.order, nf.frame
    p, m = n - k, n + 1
    K, _ = _newton_rectify(spec)
    var = [Jet.variable(m, r, i) for i in range(m)]
    inner1 = JetVector(var[:k] + list(K) + [var[n]], m, r)
    zbar = jetvector_compose(JetVector(extended_map_jets(spec)[:n], m, r), inner1)
    vbar = jetvector_compose(spec.f, zbar)
    split = [sum((var[k + 1 + j] * frame.P[i, j] for j in range(p - 1)),
                 var[k] * frame.r[i]) for i in range(p)]
    inner2 = JetVector(var[:k] + split + [var[n]], m, r)
    hat_x = jetvector_compose(JetVector(zbar[:k], m, r), inner2)
    hat_v = jetvector_compose(vbar, inner2)
    rows = [frame.l] + list(frame.Q)
    hat_uw = [sum((hat_v[j] * row[j] for j in range(1, p)), hat_v[0] * row[0])
              for row in rows]
    return nf.hat_map, JetVector(list(hat_x) + hat_uw, m, r)


@pytest.mark.parametrize("make_spec", [make_contact3d_spec, make_fold_spec])
def test_chart_map_equals_two_stage_composition(make_spec):
    one_stage, two_stage = _two_stage_hat_map(make_spec())
    assert max_coeff_diff(one_stage, two_stage) <= 1e-13 * one_stage.max_abs()


@st.composite
def contact_specs(draw):
    """(n, k, seed) for :func:`random_contact_spec`: n = 3..6 and
    k = 1..min(3, n - 2), so there is always a w block."""
    n = draw(st.integers(3, 6))
    return n, draw(st.integers(1, min(3, n - 2))), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=100)
@given(contact_specs())
def test_random_contact_specs_pass_the_center_manifold_checks(case):
    # the x rows of N(0) reach into the w columns, so the graph's W_1
    # changes the linear return map; a solve that misses this leaves an
    # invariance residual far above the band
    n, k, seed = case
    spec = random_contact_spec(np.random.default_rng(seed), n, k)
    cm = center_manifold_restricted_map(cm_normal_form_transform(spec))
    assert cm.invariance_residual <= 1e-10 * max(1.0, cm.W.max_abs())
    assert abs(cm.mu1 - 1.0) <= 1e-10
    assert embed_on_center_manifold(cm).contact_ok


# -- structure checks on the graded arrays equal their loop oracles ----------


def _hex(values):
    return [float(v).hex() for v in values]


@st.composite
def reduced_specs(draw):
    """:func:`random_reduced_spec` with n = 2 or 3 and order 3..5."""
    n = draw(st.integers(2, 3))
    k, order = draw(st.integers(1, n - 1)), draw(st.integers(3, 5))
    return random_reduced_spec(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))),
                               n, k, order)


@settings(max_examples=60)
@given(reduced_specs(), st.integers(0, 1), st.floats(0.0, 1.0), st.booleans())
def test_reduced_and_face_checks_have_the_bits_of_the_loop_oracles(spec, axis, where, upper):
    order = spec.order
    rep = verify_reduced_embedding(spec, spec.base_point, order)
    H = reduced_map_jets(spec.recenter(spec.base_point))
    V = takens_embed_unipotent(H, order, spec.tols).V
    want = eps01_diffs_oracle(H, V, order)
    assert list(rep.eps01_diffs) == list(want)
    assert _hex(rep.eps01_diffs.values()) == _hex(want.values())
    solver, closed = eps2_oracle(H, V)
    assert _hex(rep.eps2_solver) == _hex(solver) and _hex(rep.eps2_closed) == _hex(closed)
    if spec.n == 2:
        box = Box(((-0.5, 0.5), (-0.4, 0.4)))
        exit_point = np.array([lo + where * (hi - lo) for lo, hi in box.bounds])
        exit_point[axis] = box.bounds[axis][upper]
        assert _hex(_face_roots(spec, exit_point, axis, box)) == \
            _hex(face_roots_oracle(spec, exit_point, axis, box))


@settings(max_examples=30)
@given(contact_specs())
def test_contact_checks_have_the_bits_of_the_loop_oracles(case):
    n, k, seed = case
    spec = random_contact_spec(np.random.default_rng(seed), n, k)
    nf = cm_normal_form_transform(spec)
    assert _hex([nf.pure_x_residual]) == _hex([pure_x_oracle(nf.hat_map, k)])
    cm = center_manifold_restricted_map(nf)
    emb = embed_on_center_manifold(cm)
    r = cm.restricted_map.order
    H = JetVector(list(cm.restricted_map) + [Jet.variable(k + 2, r, k + 1)], k + 2, r)
    want = quad_closed_oracle(emb.embedding.V, H, k, cm.restricted_N.constant_vector())
    assert _hex([emb.quad_closed_diff]) == _hex([want])


# -- one nilpotency test per embedding ------------------------------------------


def conjugated_chain_map(m, order, seed):
    """A map jet whose linear part is I + P C P^-1: C one Jordan chain over
    all m variables with weights U(-3, 3), P = I + U(-0.9, 0.9), and random
    terms of degree 2..``order``, drawn from numpy seed ``seed``."""
    rng = np.random.default_rng(seed)
    P = np.eye(m) + rng.uniform(-0.9, 0.9, (m, m))
    A = np.eye(m) + P @ np.diag(rng.uniform(-3.0, 3.0, m - 1), 1) @ np.linalg.inv(P)
    comps = []
    for i in range(m):
        terms = {tuple(1 if j == s else 0 for j in range(m)): A[i, s] for s in range(m)}
        for d in range(2, order + 1):
            for alpha in monomials_of_degree(m, d):
                if rng.random() < 0.3:
                    terms[alpha.exponents] = float(rng.uniform(-0.5, 0.5))
        comps.append(Jet.from_terms(m, order, terms))
    return JetVector(comps, m, order)


@st.composite
def conjugated_chain_maps(draw):
    """:func:`conjugated_chain_map` for m = 2..7 and order 2 or 3.  The
    nilpotency tests of A - I and of its logarithm disagree on some of these
    draws."""
    m, order = draw(st.integers(2, 7)), draw(st.integers(2, 3))
    return conjugated_chain_map(m, order, draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=150)
@given(conjugated_chain_maps())
@example(conjugated_chain_map(7, 2, 617))
@example(conjugated_chain_map(7, 2, 665))
@example(conjugated_chain_map(7, 2, 773))
def test_embedding_meets_the_band_or_refuses(H):
    """A field the embedding returns must meet the band: by its residual,
    by the time-1 map summed to the bound L^m = 0 of any nilpotent m x m
    matrix, and by :func:`flow_time1_jet`, whatever the nilpotency tests of
    A - I and of L read.  On the three examples the test of L reads 6 for
    m = 7, and a Lie series cut there misses the map by up to 1559 times
    the band."""
    m, order = H.num_vars, H.order
    band = DEFAULT_TOLS.embed_residual * max(1.0, H.max_abs())
    try:
        result = takens_embed_unipotent(H, order)
    except ConvergenceError:
        return
    table = _graded_table(m, order)
    flow = _time1(_graded_coeffs(result.V, table), table, order, m)
    assert result.residual <= band
    assert np.max(np.abs(flow - _graded_coeffs(H, table))) <= band
    assert max_coeff_diff(flow_time1_jet(result.V, order), H) <= band


# -- scipy as the oracle -------------------------------------------------------


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 5), st.floats(0.0, 0.3),
       st.integers(0, 2 ** 32 - 1))
def test_integrate_time1_matches_dop853(field_seed, order, radius, point_seed):
    V = random_nilpotent_field(np.random.default_rng(field_seed), order=order)
    z = np.random.default_rng(point_seed).uniform(-1.0, 1.0, V.num_vars)
    z *= radius / max(1e-12, np.linalg.norm(z))
    f = compile_jet_callable(V)
    ref = solve_ivp(lambda t, y: f(y), (0.0, 1.0), z, method="DOP853",
                    rtol=1e-13, atol=1e-13).y[:, -1]
    got = integrate_time1(V, z)
    assert np.max(np.abs(got - ref)) <= 1e-11 * (1.0 + np.max(np.abs(ref)))


@st.composite
def simple_zero_matrices(draw):
    """DfN = S diag(0, d_2, ..., d_p) S^-1 with |S - I| <= 0.2 entrywise (so S
    is strictly diagonally dominant for p <= 4) and 0.5 <= |d_i| <= 2: a
    simple zero eigenvalue whose left and right null vectors are far from
    orthogonal."""
    p = draw(st.integers(2, 4))
    entries = draw(st.lists(st.floats(-0.2, 0.2), min_size=p * p, max_size=p * p))
    S = np.eye(p) + np.reshape(entries, (p, p))
    d = [draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
         for _ in range(p - 1)]
    return S @ np.diag([0.0] + d) @ np.linalg.inv(S)


@given(simple_zero_matrices())
def test_contact_frame_null_space_is_scipy_null_space(DfN):
    frame = build_contact_frame(DfN)
    P = frame.P
    assert np.array_equal(P, scipy.linalg.null_space(frame.l.reshape(1, -1)))
    assert np.max(np.abs(frame.l @ P)) <= 1e-14 * np.max(np.abs(frame.l))
    assert np.max(np.abs(P.T @ P - np.eye(P.shape[1]))) <= 1e-14


VALUE = st.floats(-1e3, 1e3, allow_nan=False)


def sparse_terms(num_vars, order):
    """A few terms of any degree up to the order."""
    keys = [a.exponents for d in range(order + 1)
            for a in monomials_of_degree(num_vars, d)]
    return st.dictionaries(st.sampled_from(keys), VALUE, max_size=5)


@st.composite
def map_specs(draw):
    """Random specs; the constant term of N[j][j] is at least 1e4 in size,
    so the top block of N(0) is diagonally dominant and N has full column
    rank."""
    n = draw(st.integers(2, 3))
    k = draw(st.integers(1, n - 1))
    order = draw(st.integers(3, 5))

    def jet(num_vars, constant=None):
        terms = draw(sparse_terms(num_vars, order))
        if constant is not None:
            terms[(0,) * num_vars] = constant
        return Jet.from_terms(num_vars, order, terms)

    def pivot():
        return draw(st.floats(1e4, 1e5)) * draw(st.sampled_from([-1.0, 1.0]))

    N = tuple(tuple(jet(n, pivot() if i == j else None) for j in range(n - k))
              for i in range(n))
    f = JetVector([jet(n) for _ in range(n - k)], n, order)
    G = JetVector([jet(n + 1) for _ in range(n)], n + 1, order)
    base = draw(st.lists(VALUE, min_size=n, max_size=n))
    return FastSlowMapSpec(n=n, k=k, order=order, N=N, f=f, G=G,
                           base_point=np.array(base))


@given(map_specs())
def test_parse_emit_round_trip(spec):
    again = parse_mapspec(emit_mapspec(spec)).spec
    assert (again.n, again.k, again.order) == (spec.n, spec.k, spec.order)
    assert again.N == spec.N
    assert again.f == spec.f
    assert again.G == spec.G
    assert again.base_point.tobytes() == spec.base_point.tobytes()


# -- CLI fuzz ------------------------------------------------------------------

# each command's options besides --spec and --tol; "@out" names a file
COMMAND_OPTIONS = {
    "classify": ("--point",),
    "reduce": ("--point", "--out"),
    "embed": ("--order", "--out"),
    "verify-reduced": ("--point", "--order", "--out"),
    "fold-exit": ("--eps", "--rho", "--observable", "--out"),
    "branch-select": ("--eps", "--case", "--side"),
    "contact": ("--point", "--out"),
    "center-manifold": ("--order", "--out"),
    "selftest": (),
}
ORBIT_COMMANDS = ("fold-exit", "branch-select")
JUNK = ("", "x", "-", "--", "nan", "inf", "-inf", "-1", "0", "1", "2", "1e400",
        "0.5", "0,0", ",", "1:2", "--bogus", "--version", "-h", "bogus", "é", " ")
SPEC_JUNK = ("", "x", "nan", "inf", "-1", "0", "1", "2", "0.5", "1e400", ":",
             "[", "]", "[f 9]", "dims", "order")
OPTION_VALUES = {
    "--point": ("0,0", "0,0,0", "0.1,0.01", "0.1", "a,b", "nan,0", "1e400,0", "0,0,0,0"),
    "--order": ("1", "2", "3", "4", "0", "-1", "99", "x"),
    "--tol": ("unit=1e-6", "eq_zero=1e-12", "unit=nan", "nope=1", "unit", "=", "unit=-1"),
    "--rho": ("0.1", "0.05", "0", "-1", "nan", "x"),
    "--eps": ("1e-2:4e-2:log:3", "0.05", "0.02", "1e-2:1e-3:log:3", "1:2", "nan", "0", "-1"),
    "--observable": ("exit", "fiber", "x"),
    "--case": ("auto", "Transcritical", "Pitchfork", "Fold"),
    "--side": ("plus", "minus", "up"),
    "--out": ("@out",),
}
ERROR_LINE = re.compile(r"error\[[A-Za-z]+\]: [^\n]*\n")


SPEC_TEXTS = {name: emit_mapspec(make()) for name, make in (
    ("fold", make_fold_spec), ("transcritical", make_transcritical_spec),
    ("pitchfork", make_pitchfork_spec), ("contact3d", make_contact3d_spec))}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory holding the canonical spec files."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in SPEC_TEXTS.items():
        (root / f"{name}.map").write_text(text)
    return root


@st.composite
def mutated_spec_texts(draw):
    """(name, text): a canonical spec text with one to three line-level or
    token-level mutations."""
    name = draw(st.sampled_from(sorted(SPEC_TEXTS)))
    lines = SPEC_TEXTS[name].split("\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("delete", "duplicate", "token", "token", "cut")))
        if kind == "delete" and len(lines) > 1:
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "token":
            tokens = lines[i].split(" ")
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[j] = draw(st.sampled_from(SPEC_JUNK))
            lines[i] = " ".join(tokens)
        else:
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
    return name, "\n".join(lines)


@st.composite
def cli_argvs(draw):
    """A command with its own options, each present three times in four, on
    a canonical spec; sometimes an option of another command or a junk
    token.  "@name" stands for a file in the fuzz directory."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    argv = [command]
    if command != "selftest" and draw(st.integers(0, 9)) > 0:
        argv += ["--spec", "@" + draw(st.sampled_from(sorted(SPEC_TEXTS)))]
    options = [o for o in COMMAND_OPTIONS[command] if draw(st.integers(0, 3)) > 0]
    options += ["--tol"] * draw(st.integers(0, 2))
    if draw(st.integers(0, 9)) == 0:
        options.append(draw(st.sampled_from(sorted(OPTION_VALUES))))
    for option in options:
        argv += [option, draw(st.sampled_from(OPTION_VALUES[option]))]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(JUNK)))
    return argv


def _check_cli_exit(argv, fuzz_dir):
    """Run one in-process call: it ends in exit 0, 1 or 2 and lets no
    exception escape.  A failing run writes no traceback; outside argparse
    refusals its stderr is exactly one ``error[...]`` line."""
    argv = [str(fuzz_dir / (a[1:] + (".csv" if a == "@out" else ".map")))
            if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    refused = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = execute_command(argv)
        except SystemExit as exc:
            code, refused = exc.code, True
    stderr = err.getvalue()
    assert code in (0, 1, 2), (argv, stderr)
    assert "Traceback" not in stderr
    if code != 0 and not refused:
        assert ERROR_LINE.fullmatch(stderr), (argv, stderr)
    return code, out.getvalue()


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(cli_argvs())
@example(["branch-select", "--spec", "@pitchfork", "--eps", "0"])
@example(["classify", "--spec", "@fold", "--point", "a,b"])
def test_cli_fuzz_argv(fuzz_dir, argv):
    _check_cli_exit(argv, fuzz_dir)


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_spec_texts(),
       st.sampled_from(sorted(set(COMMAND_OPTIONS) - set(ORBIT_COMMANDS) - {"selftest"})),
       st.booleans())
def test_cli_fuzz_spec_text(fuzz_dir, spec, command, out):
    """The pipelines on mutated spec text, with valid options.  The orbit
    commands are left out: a mutated drift can hold an orbit in place for
    the whole 2e6-step cap, which is a long run, not an error."""
    name, text = spec
    (fuzz_dir / "mutated.map").write_text(text)
    argv = [command, "--spec", "@mutated"]
    if "--point" in COMMAND_OPTIONS[command]:
        argv += ["--point", "0,0,0" if name == "contact3d" else "0,0"]
    if out and "--out" in COMMAND_OPTIONS[command]:
        argv += ["--out", "@out"]
    _check_cli_exit(argv, fuzz_dir)


@settings(max_examples=40)
@given(contact_specs(), st.sampled_from(("contact", "center-manifold")))
def test_cli_on_random_contact_specs(fuzz_dir, case, command):
    """contact and center-manifold on emitted random contact specs: exit 0
    with the verdict line, or exit 1 or 2 with one error line."""
    n, k, seed = case
    spec = random_contact_spec(np.random.default_rng(seed), n, k)
    (fuzz_dir / "random_contact.map").write_text(emit_mapspec(spec))
    argv = [command, "--spec", "@random_contact"]
    if command == "contact":
        argv += ["--point", ",".join("0" * n)]
    code, stdout = _check_cli_exit(argv, fuzz_dir)
    if code == 0:
        assert stdout.splitlines()[-1] in ("contact", "center-manifold pipeline ok")


# ---------------------------------------------------------------------------
# the two-point orbit walks against orbits kept whole

log_uniform_eps = st.floats(-4.0, -2.0).map(lambda t: 10.0 ** t)


@settings(max_examples=20)
@given(st.lists(log_uniform_eps, min_size=3, max_size=3, unique=True),
       st.sampled_from(["exit", "fiber"]))
def test_fold_exit_matches_orbit_oracle(eps_grid, observable):
    """Every fold orbit, kept whole, crosses the observable level where the
    experiment's two-point walk says, bit for bit, and so gives the same
    fit."""
    spec, rho = make_fold_spec(), 0.1
    base = spec.base_point
    level = base[0] + (rho if observable == "exit" else 0.0)
    values = []
    for eps in eps_grid:
        orbit = orbit_oracle(spec, _seed_on_manifold(spec, -0.5, eps), eps,
                             step_cap=2_000_000, stop_x=base[0] + rho, level=level)
        values.append(orbit.crossing[1] - base[1])
    got = fold_exit_experiment(spec, rho, eps_grid, observable=observable)
    assert repr(got) == repr(fit_powerlaw(eps_grid, values))


# the default seeds of branch_selection_experiment: spec, case, Newton guess
# and the coordinates it holds fixed
BRANCH_FIXTURES = {
    "exchange": (make_transcritical_spec(0.5), "Transcritical", [-0.35, -0.35], ()),
    "escape": (make_transcritical_spec(2.0), "Transcritical", [-0.35, -0.35], ()),
    "plus": (make_pitchfork_spec(0.5, 1.0), "Pitchfork", [0.0, -0.35], (0,)),
    "minus": (make_pitchfork_spec(-0.5, 1.0), "Pitchfork", [0.0, -0.35], (0,)),
    "center+": (make_pitchfork_spec(0.5, -1.0), "Pitchfork", [0.35, 0.35 ** 2], (0,)),
    "center-": (make_pitchfork_spec(0.5, -1.0), "Pitchfork", [-0.35, 0.35 ** 2], (0,)),
}


@settings(max_examples=40)
@given(st.sampled_from(sorted(BRANCH_FIXTURES)), log_uniform_eps)
def test_branch_selection_matches_orbit_oracle(name, eps):
    """The experiment's exit point and face are those of the orbit kept
    whole, bit for bit."""
    spec, case, guess, frozen = BRANCH_FIXTURES[name]
    seed = critical_manifold_solve(spec, guess, frozen=frozen)
    rd = reduced_data(spec, seed)
    z = seed + eps * rd.reduced_field if rd.valid else seed
    orbit = orbit_oracle(spec, z, eps, step_cap=2_000_000,
                         box=Box(((-0.5, 0.5), (-0.4, 0.4))))
    sel = branch_selection_experiment(spec, case, eps, seed=seed)
    assert sel.exit_edge == orbit.exit_face
    assert sel.exit_point.tobytes() == orbit.points[orbit.end].tobytes()
