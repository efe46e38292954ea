"""Flow-jet and embedding tests: frozen examples, round trips, numerical
cross-checks, scaling of the truncation error, bits that do not depend on
the BLAS thread count, and the reduced-map coefficient structure."""

import os
import subprocess
import sys

import numpy as np
import pytest

import fastslow
from fastslow.errors import (ConvergenceError, PreconditionError, StructuralError,
                             UnsupportedCaseError)
from fastslow.jets import (Jet, JetVector, jetvector_compose, max_coeff_diff,
                           monomials_of_degree)
from fastslow.embedding import (_bernoulli_series, flow_time1_jet, jordan_chevalley_split,
                                nilpotent_log, reduced_map_jets,
                                takens_embed_unipotent, verify_reduced_embedding)
from fastslow.dynamics import compile_jet_callable, integrate_time1
from conftest import (bernoulli_oracle, make_fold_spec, make_quadratic_g_spec,
                      make_superstable_spec, random_nilpotent_field)

# headroom constant for the flow-vs-integrator cross-check: measured worst
# case over large corpora is < 2; the truncation tail scales like |z|^(r+1)
C_HEAD = 10.0


class TestJordanChevalley:
    def test_already_unipotent(self):
        A = np.eye(2) + np.array([[0.0, 1.0], [0.0, 0.0]])
        d = jordan_chevalley_split(A)
        assert d.is_unipotent
        assert np.allclose(d.B, np.eye(2), atol=0)
        assert np.allclose(d.M, A - np.eye(2), atol=0)
        assert d.nilpotent_index_of_M == 2

    def test_semisimple(self):
        d = jordan_chevalley_split(np.diag([2.0, 1.0]))
        assert not d.is_unipotent
        assert np.allclose(d.B, np.diag([2.0, 1.0]), atol=1e-12)
        assert np.max(np.abs(d.M)) <= 1e-12

    def test_defective_nontrivial(self):
        A = np.array([[2.0, 1.0], [0.0, 2.0]])
        d = jordan_chevalley_split(A)
        assert np.allclose(d.B, 2.0 * np.eye(2), atol=1e-9)
        assert np.allclose(d.M, [[0.0, 0.5], [0.0, 0.0]], atol=1e-9)
        assert np.allclose(d.A, d.B @ (np.eye(2) + d.M), atol=1e-9)
        assert np.max(np.abs(d.B @ d.M - d.M @ d.B)) <= 1e-9

    def test_complex_pair(self):
        A = np.array([[0.0, -2.0], [2.0, 0.0]])
        d = jordan_chevalley_split(A)
        assert np.allclose(d.B, A, atol=1e-9)
        assert np.max(np.abs(d.M)) <= 1e-9

    def test_singular_refused(self):
        with pytest.raises(UnsupportedCaseError):
            jordan_chevalley_split(np.array([[0.0, 1.0], [0.0, 2.0]]))

    def test_nilpotent_log_exponentiates_back(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            N = np.triu(rng.uniform(-1, 1, (4, 4)), 1)
            A = np.eye(4) + N
            L = nilpotent_log(A)
            E = np.eye(4)
            P = np.eye(4)
            for p in range(1, 5):
                P = P @ L / p
                E = E + P
            assert np.max(np.abs(E - A)) <= 1e-12


class TestFlowJet:
    def test_scalar_quadratic(self):
        # closed-form flow x / (1 - t x), expanded at t = 1
        x = Jet.variable(1, 4, 0)
        flow = flow_time1_jet(JetVector([x ** 2]), 4)
        assert max_coeff_diff(flow[0], x + x**2 + x**3 + x**4) <= 1e-14

    def test_linear_nilpotent(self):
        L = np.array([[0.0, 0.7], [0.0, 0.0]])
        comps = [Jet.from_terms(2, 3, {(0, 1): 0.7}), Jet.zero(2, 3)]
        flow = flow_time1_jet(JetVector(comps, 2, 3), 3)
        assert np.allclose(flow.linear_matrix(), np.eye(2) + L, atol=0)
        assert max((c.degree_max for c in flow), default=0) <= 1

    def test_zero_field(self):
        flow = flow_time1_jet(JetVector.zeros(2, 2, 3), 3)
        assert flow == JetVector.identity(2, 3)

    def test_non_nilpotent_rejected(self):
        x = Jet.variable(1, 3, 0)
        with pytest.raises(UnsupportedCaseError):
            flow_time1_jet(JetVector([x * 0.5]), 3)

    def test_constant_rejected(self):
        with pytest.raises(StructuralError):
            flow_time1_jet(JetVector([Jet.constant(1, 3, 1.0)]), 3)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_refused(self, value):
        V = JetVector([Jet.from_terms(1, 4, {(2,): value})])
        with pytest.raises(PreconditionError, match=r"component 0 .*monomial \(2,\)"):
            flow_time1_jet(V, 4)


class TestEmbedding:
    def test_scalar_inverse_of_flow(self):
        x = Jet.variable(1, 4, 0)
        H = JetVector([x + x**2 + x**3 + x**4])
        res = takens_embed_unipotent(H, 4)
        assert max_coeff_diff(res.V[0], x ** 2) <= 1e-12
        assert res.residual <= 1e-12

    def test_linear_log(self):
        L = np.array([[0.0, 0.3], [0.0, 0.0]])
        H = JetVector([Jet.from_terms(2, 3, {(1, 0): 1.0, (0, 1): 0.3}),
                       Jet.variable(2, 3, 1)])
        res = takens_embed_unipotent(H, 3)
        assert np.allclose(res.V.linear_matrix(), L, atol=1e-12)
        assert all(c.degree_max <= 1 for c in res.V)

    def test_identity_embeds_in_zero_field(self):
        res = takens_embed_unipotent(JetVector.identity(3, 3), 3)
        assert res.V.max_abs() == 0.0

    def test_linear_part_is_shift_when_squared_zero(self):
        # EmbeddingResult invariant: V linear part = A - I in the flat case
        H = JetVector([Jet.from_terms(2, 3, {(1, 0): 1.0, (0, 1): 0.5,
                                             (2, 0): 0.2}),
                       Jet.variable(2, 3, 1)])
        res = takens_embed_unipotent(H, 3)
        A = H.linear_matrix()
        assert np.max(np.abs(res.V.linear_matrix() - (A - np.eye(2)))) <= 1e-10

    @pytest.mark.parametrize("terms", [{(1, 0): 1.0, (0, 1): 1.0, (1, 1): -np.inf},
                                       {(1, 0): np.nan}])
    def test_non_finite_refused(self, terms):
        H = JetVector([Jet.from_terms(2, 3, terms), Jet.variable(2, 3, 1)])
        bad = next(k for k, v in terms.items() if not np.isfinite(v))
        with pytest.raises(PreconditionError,
                           match=rf"component 0 .*monomial \({bad[0]}, {bad[1]}\)"):
            takens_embed_unipotent(H, 3)

    def test_nan_residual_refused(self):
        # a finite map whose Lie series overflows: no band accepts the NaN
        # residual
        x, y = Jet.variable(2, 3, 0), Jet.variable(2, 3, 1)
        H = JetVector([x + y + 1e200 * x ** 2 + 1e200 * y ** 3, y - 1e200 * x ** 3])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ConvergenceError, match="residual nan"):
            takens_embed_unipotent(H, 3)

    def test_non_unipotent_routed_to_split(self):
        H = JetVector([Jet.from_terms(1, 3, {(1,): 0.5})])
        with pytest.raises(UnsupportedCaseError, match="jordan_chevalley"):
            takens_embed_unipotent(H, 3)

    def test_round_trip_corpus(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            V = random_nilpotent_field(rng)
            H = flow_time1_jet(V, 4)
            res = takens_embed_unipotent(H, 4)
            assert max_coeff_diff(res.V, V.degree_cap(4)) <= 1e-9
            assert res.residual <= 1e-9

    def test_non_triangular_linear_part(self):
        # L = P J P^-1 is nilpotent only up to rounding, so the flow's Lie
        # series never meets an exactly zero term and ends at its term bound
        J = np.diag([1.0, 1.0], 1)
        P = np.array([[1.0, 0.4, -0.3], [0.2, 1.0, 0.5], [-0.6, 0.3, 1.0]])
        L = P @ J @ np.linalg.inv(P)
        rng = np.random.default_rng(11)
        comps = []
        for i in range(3):
            terms = {tuple(1 if j == s else 0 for j in range(3)): L[i, s]
                     for s in range(3)}
            for d in range(2, 5):
                for alpha in monomials_of_degree(3, d):
                    if rng.random() < 0.4:
                        terms[alpha.exponents] = float(rng.uniform(-0.8, 0.8))
            comps.append(Jet.from_terms(3, 4, terms))
        V = JetVector(comps, 3, 4)
        H = flow_time1_jet(V, 4)
        res = takens_embed_unipotent(H, 4)
        assert max_coeff_diff(res.V, V) <= 1e-9
        assert res.residual <= 1e-9
        # group law: the time-1 map of 2V is the time-1 map of V applied twice
        twice = jetvector_compose(H, H)
        gap = max_coeff_diff(flow_time1_jet(V * 2.0, 4), twice)
        assert gap <= 1e-12 * max(1.0, twice.max_abs())

    def test_round_trip_dense_depth_five(self):
        # every coefficient of degree 2..5 in 5 variables, on one Jordan chain
        # through all of them
        rng = np.random.default_rng(23)
        comps = []
        for i in range(5):
            terms = {alpha.exponents: float(rng.uniform(-0.5, 0.5))
                     for d in range(2, 6) for alpha in monomials_of_degree(5, d)}
            if i < 4:
                terms[tuple(1 if j == i + 1 else 0 for j in range(5))] = \
                    float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0))
            comps.append(Jet.from_terms(5, 5, terms))
        V = JetVector(comps, 5, 5)
        H = flow_time1_jet(V, 5)
        res = takens_embed_unipotent(H, 5)
        assert max_coeff_diff(res.V, V) <= 1e-9
        assert res.residual <= 1e-9

    def test_deterministic_solves(self):
        rng = np.random.default_rng(4)
        V = random_nilpotent_field(rng, num_vars=3)
        H = flow_time1_jet(V, 4)
        a = takens_embed_unipotent(H, 4)
        b = takens_embed_unipotent(H, 4)
        # bit-identical coefficient dictionaries, not just close
        for ca, cb in zip(a.V, b.V):
            assert ca.coeffs == cb.coeffs

    def test_flow_vs_integrator(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            V = random_nilpotent_field(rng)
            m = V.num_vars
            flow = compile_jet_callable(flow_time1_jet(V, 4))
            for _ in range(20):
                z = rng.uniform(-1.0, 1.0, m)
                z *= rng.uniform(0.0, 0.1) / max(1e-12, np.linalg.norm(z))
                num = integrate_time1(V, z)
                rel = np.max(np.abs(num - flow(z))) / (1.0 + np.max(np.abs(num)))
                assert rel <= 1e-6 + C_HEAD * np.linalg.norm(z) ** 5

    def test_truncation_error_order(self):
        # with a degree-(r+1) tail on H, the sup mismatch against the true
        # flow decays at least like s^r under halving of the cloud radius
        rng = np.random.default_rng(12)
        order = 4
        V5 = random_nilpotent_field(rng, num_vars=2, order=5)
        V = JetVector([c.degree_cap(order) for c in V5], 2, 5)
        H = flow_time1_jet(V, order)
        tail = {alpha.exponents: float(rng.uniform(0.5, 1.0))
                for alpha in monomials_of_degree(2, order + 1)}
        H_tailed = JetVector(
            [c + Jet.from_terms(2, 5, tail) for c in H], 2, 5)
        h_eval = compile_jet_callable(H_tailed)
        sups = []
        for s in (0.2, 0.1, 0.05):
            worst = 0.0
            for _ in range(40):
                z = rng.uniform(-1.0, 1.0, 2)
                z *= s / np.linalg.norm(z)
                worst = max(worst, np.max(np.abs(h_eval(z) - integrate_time1(V, z))))
            sups.append(worst)
        for hi, lo in zip(sups, sups[1:]):
            assert hi / lo >= 2 ** (order - 1) * 0.8


THREAD_PROBE = """\
import numpy as np
from fastslow.embedding import flow_time1_jet, takens_embed_unipotent
from fastslow.jets import Jet, JetVector, monomials_of_degree
from fastslow.specfiles import emit_jetvector

# name -> (num_vars, order, coefficient fill, Jordan depth)
CELLS = {"m2o7": (2, 7, 1.0, 2), "m3o5": (3, 5, 1.0, 3), "m4o4": (4, 4, 1.0, 4),
         "m3o6s": (3, 6, 0.15, 3), "m4o6": (4, 6, 1.0, 4), "m5o5": (5, 5, 1.0, 5)}
for seed, (name, (m, order, fill, depth)) in enumerate(CELLS.items()):
    rng = np.random.default_rng(seed)
    terms = [{} for _ in range(m)]
    for i in range(depth - 1):
        terms[i][tuple(int(j == i + 1) for j in range(m))] = float(
            rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0))
    for comp in terms:
        for d in range(2, order + 1):
            for alpha in monomials_of_degree(m, d):
                if rng.random() < fill:
                    comp[alpha.exponents] = float(rng.uniform(-0.5, 0.5))
    V = JetVector([Jet.from_terms(m, order, t) for t in terms], m, order)
    H = flow_time1_jet(V, order)
    print(f"# {name} flow\\n{emit_jetvector(H)}")
    print(f"# {name} embed\\n{emit_jetvector(takens_embed_unipotent(H, order).V)}")
"""


def test_bits_do_not_depend_on_blas_threads():
    # the Lie series multiplies by a dense D_V and the Takens solve is dense:
    # on these cells one and two BLAS threads must give the same bytes
    # (larger operators, m5o6 and up, may not; see the README)
    src = os.path.dirname(os.path.dirname(fastslow.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].count("# ") == 12
    assert outputs[0] == outputs[1]


class TestBernoulliSeries:
    def test_each_coefficient_is_the_rounded_exact_one(self):
        # B_k/k! rounded once, for every table up to top = 80
        exact = [float(b) for b in bernoulli_oracle(80)]
        for top in range(81):
            assert _bernoulli_series(top) == exact[:top + 1]

    def test_a_caller_cannot_corrupt_the_table(self):
        want = _bernoulli_series(12)
        got = _bernoulli_series(12)
        got[3] = 99.0
        got.append(1.0)
        assert _bernoulli_series(12) == want


class TestReducedEmbedding:
    def test_superstable_line_exact(self):
        spec = make_superstable_spec()
        rep = verify_reduced_embedding(spec, [0.0, 0.0], 4)
        assert rep.j1_diff <= 1e-15
        assert all(v <= 1e-15 for v in rep.eps01_diffs.values())
        assert rep.eps2_diff <= 1e-15
        assert rep.residual <= 1e-15

    def test_constant_drift_exact_in_eps(self):
        # G constant and the projection constant along the manifold: the
        # eps-linear coefficients match exactly and no eps^2 term appears
        spec = make_superstable_spec()
        H = reduced_map_jets(spec)
        assert H[1].coefficient((0, 0, 2)) == 0.0
        rep = verify_reduced_embedding(spec, [0.0, 0.0], 3)
        assert rep.eps01_diffs[2] <= 1e-15
        assert np.max(np.abs(rep.eps2_solver)) <= 1e-15

    def test_quadratic_drift_structure(self):
        spec = make_quadratic_g_spec()
        rep = verify_reduced_embedding(spec, [0.0, 0.0], 4)
        assert rep.j1_diff <= 1e-12
        for l in (2, 3, 4):
            assert rep.eps01_diffs[l] <= 1e-10
        assert rep.eps2_diff <= 1e-10
        # the correction itself is nontrivial for this spec
        assert np.max(np.abs(rep.eps2_solver)) > 1e-3

    def test_requires_normal_hyperbolicity(self):
        spec = make_fold_spec()
        with pytest.raises(PreconditionError):
            verify_reduced_embedding(spec, [0.0, 0.0], 3)

    def test_off_base_point(self):
        # re-expansion about another manifold point gives the same structure
        spec = make_quadratic_g_spec()
        rep = verify_reduced_embedding(spec, [0.0, 0.3], 3)
        assert all(v <= 1e-10 for v in rep.eps01_diffs.values())
        assert rep.eps2_diff <= 1e-10
