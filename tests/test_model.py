"""Fast-slow model tests: multipliers, classification, reduced dynamics,
manifold solves, nilpotency bookkeeping."""

import warnings

import numpy as np
import pytest

from fastslow.errors import (AssumptionViolationError, DomainError,
                             PreconditionError, StructuralError)
from fastslow.jets import Jet, JetVector
from fastslow.model import (FastSlowMapSpec, classify_point,
                            critical_manifold_solve, extended_map_jets,
                            nilpotency_index, nontrivial_multipliers,
                            reduced_data, reduced_map_step, standard_form_2d)
from conftest import make_fold_spec, make_superstable_spec, nilpotency_index_oracle


def _outcome(index, M, tol=1e-9):
    """The value ``index`` returns for M, or the type of what it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return index(M, tol)
        except Exception as exc:  # the type is what is compared
            return type(exc)


def _non_finite_matrices():
    rng = np.random.default_rng(7)
    out = []
    for dim in (1, 2, 3, 5):
        for bad in (np.nan, np.inf, -np.inf):
            for dense in (False, True):
                M = (rng.standard_normal((dim, dim)) if dense
                     else np.triu(np.ones((dim, dim)), 1))
                M[rng.integers(dim), rng.integers(dim)] = bad
                out.append(M)
        out.append(np.full((dim, dim), np.inf))
    # finite entries whose powers or scale**power overflow
    out.append(np.array([[1e200, 0.0], [0.0, 0.0]]))
    out.append(np.array([[1e200, 1e200], [-1e200, -1e200]]))
    out.append(np.array([[0.0, 1e300, 0.0], [0.0, 0.0, 1e300], [0.0, 0.0, 0.0]]))
    return out


class TestSpecValidation:
    def test_rank_contract_enforced(self):
        zero = Jet.zero(2, 3)
        f = JetVector([Jet.variable(2, 3, 0)])
        G = JetVector([Jet.zero(3, 3), Jet.constant(3, 3, 1.0)])
        with pytest.raises(AssumptionViolationError):
            FastSlowMapSpec(n=2, k=1, order=3, N=((zero,), (zero,)), f=f, G=G,
                            base_point=np.zeros(2))

    def test_trust_region(self):
        spec = make_fold_spec()
        with pytest.raises(DomainError):
            spec.f_at([5.0, 0.0])

    def test_map_apply_matches_pieces(self):
        spec = make_fold_spec()
        z = np.array([0.2, 0.1])
        eps = 0.05
        expected = z + spec.N_at(z) @ spec.f_at(z) + eps * spec.G_at(z, eps)
        assert np.allclose(spec.map_apply(z, eps), expected, atol=0)
        # and through the assembled extended jets
        jets = extended_map_jets(spec)
        d = np.append(z - spec.base_point, eps)
        assert np.allclose(jets.evaluate(d)[:2] + spec.base_point, expected,
                           atol=1e-15)

    def test_recenter_preserves_evaluation(self):
        spec = make_fold_spec()
        z0 = np.array([0.3, 0.09])
        moved = spec.recenter(z0)
        for z in ([0.35, 0.12], [0.25, 0.06]):
            assert np.allclose(moved.f_at(z), spec.f_at(z), atol=1e-13)
            assert np.allclose(moved.G_at(z, 0.02), spec.G_at(z, 0.02),
                               atol=1e-13)


class TestMultipliers:
    def test_fold_on_manifold_point(self, fold_spec):
        # DfN = 2x, so at x = 0.1 the multiplier is 1.2
        mu = nontrivial_multipliers(fold_spec, [0.1, 0.01]).values
        assert np.allclose(mu, [1.2], atol=1e-14)

    def test_fold_point_multiplier_one(self, fold_spec):
        mu = nontrivial_multipliers(fold_spec, [0.0, 0.0]).values
        assert np.allclose(mu, [1.0], atol=0)

    def test_superstable_line(self, superstable_spec):
        # single nontrivial multiplier identically 0 along x = 0
        for y in (0.0, 0.4, -0.3):
            mu = nontrivial_multipliers(superstable_spec, [0.0, y]).values
            assert np.allclose(mu, [0.0], atol=1e-14)

    def test_characteristic_residual(self, contact3d_spec):
        z = np.zeros(3)
        ms = nontrivial_multipliers(contact3d_spec, z)
        M = np.eye(2) + contact3d_spec.DfN_at(z)
        for mu in ms.values:
            residual = abs(np.linalg.det(M - mu * np.eye(2)))
            assert residual <= 1e-9

    def test_eigen_correspondence_fuzz(self):
        # multipliers are 1 + eigenvalues of Df N, as multisets
        rng = np.random.default_rng(23)
        spec = make_fold_spec()
        for _ in range(10):
            x = float(rng.uniform(-0.6, 0.6))
            z = [x, x * x]
            mu = np.sort_complex(nontrivial_multipliers(spec, z).values)
            lam = np.sort_complex(np.linalg.eigvals(spec.DfN_at(z)))
            assert np.max(np.abs(mu - (1.0 + lam))) <= 1e-9


class TestClassification:
    def test_attracting_point(self, fold_spec):
        cls = classify_point(fold_spec, [-0.2, 0.04])
        assert cls.tag == "NH_attracting" and not cls.superstable
        assert cls.unipotent_index is None

    def test_fold_contact(self, fold_spec):
        cls = classify_point(fold_spec, [0.0, 0.0])
        assert cls.tag == "FoldContact"
        assert cls.unipotent_index == 1

    def test_superstable_attracting(self, superstable_spec):
        cls = classify_point(superstable_spec, [0.0, 0.0])
        assert cls.tag == "NH_attracting"
        assert cls.superstable

    def test_repelling_and_saddle(self, fold_spec):
        assert classify_point(fold_spec, [0.2, 0.04]).tag == "NH_repelling"

    def test_flip_tag(self):
        spec = standard_form_2d({(1, 0): -2.0, (2, 0): 1.0}, {},
                                {(0, 0, 0): 1.0}, order=3)
        assert classify_point(spec, [0.0, 0.0]).tag == "Flip"

    def test_neimark_sacker_tag(self):
        # planar fast block rotating by 90 degrees: multipliers +-i
        r = 3
        f = JetVector([Jet.from_terms(3, r, {(1, 0, 0): -1.0, (0, 1, 0): -1.0}),
                       Jet.from_terms(3, r, {(1, 0, 0): 1.0, (0, 1, 0): -1.0})])
        one = Jet.constant(3, r, 1.0)
        zero = Jet.zero(3, r)
        N = ((one, zero), (zero, one), (zero, zero))
        G = JetVector([Jet.zero(4, r)] * 2 + [Jet.constant(4, r, 1.0)])
        spec = FastSlowMapSpec(n=3, k=1, order=r, N=N, f=f, G=G,
                               base_point=np.zeros(3))
        assert classify_point(spec, np.zeros(3)).tag == "NeimarkSacker"

    def test_off_manifold_rejected(self, fold_spec):
        with pytest.raises(PreconditionError, match="off the critical manifold"):
            classify_point(fold_spec, [0.1, 0.5])


class TestReducedDynamics:
    def test_trivial_projection(self):
        spec = standard_form_2d({(1, 0): 1.0}, {}, {(0, 0, 0): 1.0}, order=3)
        rd = reduced_data(spec, [0.0, 0.5])
        assert rd.valid
        assert np.allclose(rd.projection, [[0.0, 0.0], [0.0, 1.0]], atol=1e-12)

    def test_superstable_reduced_field(self, superstable_spec):
        rd = reduced_data(superstable_spec, [0.0, 0.25])
        assert rd.valid
        assert np.allclose(rd.projection, [[0.0, 0.0], [0.0, 1.0]], atol=1e-12)
        assert np.allclose(rd.reduced_field, [0.0, 1.0], atol=1e-12)

    def test_singular_at_fold(self, fold_spec):
        rd = reduced_data(fold_spec, [0.0, 0.0])
        assert not rd.valid
        assert not rd.projection.any() and not rd.reduced_field.any()

    def test_projector_laws_fuzz(self):
        rng = np.random.default_rng(31)
        for spec in (make_fold_spec(), make_superstable_spec()):
            for _ in range(10):
                x = float(rng.uniform(-0.6, -0.05)) if spec.f[0].coefficient(
                    (0, 1)) else 0.0
                z = [x, x * x] if x else [0.0, float(rng.uniform(-0.5, 0.5))]
                rd = reduced_data(spec, z)
                assert rd.valid
                P = rd.projection
                assert np.max(np.abs(P @ P - P)) <= 1e-9
                assert np.max(np.abs(P @ spec.N_at(z))) <= 1e-9

    def test_reduced_step(self, superstable_spec):
        out = reduced_map_step(superstable_spec, [0.0, 0.5], 0.01)
        assert np.allclose(out, [0.0, 0.51], atol=1e-15)
        same = reduced_map_step(superstable_spec, [0.0, 0.5], 0.0)
        assert np.array_equal(same, [0.0, 0.5])

    def test_reduced_step_slow_decrease(self, fold_spec):
        z = np.array([-0.5, 0.25])
        out = reduced_map_step(fold_spec, z, 0.1)
        assert np.isclose(out[1], 0.25 - 0.1, atol=1e-14)
        # tangency drift: dx = dy / (df/dx-slope of the branch) = -0.1/(2x)
        assert np.isclose(out[0], -0.5 + 0.1, atol=1e-14)

    def test_invalid_step_raises_with_multipliers(self, fold_spec):
        with pytest.raises(PreconditionError, match="multipliers"):
            reduced_map_step(fold_spec, [0.0, 0.0], 0.1)

    def test_fixed_point_correspondence(self):
        # reduced field zero <=> reduced step fixes the point for every eps
        spec = standard_form_2d({(1, 0): 1.0}, {},
                                {(0, 1, 0): 1.0}, order=3)  # g = y: zero at y=0
        z0 = np.array([0.0, 0.0])
        rd = reduced_data(spec, z0)
        assert np.allclose(rd.reduced_field, 0.0, atol=1e-14)
        for eps in (0.01, 0.1, 0.5):
            assert np.allclose(reduced_map_step(spec, z0, eps), z0, atol=1e-14)
        z1 = np.array([0.0, 0.2])
        assert not np.allclose(reduced_map_step(spec, z1, 0.1), z1)


class TestManifoldSolve:
    def test_parabola(self, fold_spec):
        z = critical_manifold_solve(fold_spec, [0.5, 0.2])
        assert abs(fold_spec.f_at(z)[0]) <= 1e-12

    def test_already_on_manifold(self, fold_spec):
        start = np.array([0.3, 0.09])
        out = critical_manifold_solve(fold_spec, start)
        assert np.array_equal(out, start)

    def test_linear(self):
        import dataclasses
        from fastslow.tols import DEFAULT_TOLS
        wide = dataclasses.replace(DEFAULT_TOLS, trust_radius=2.0)
        spec = standard_form_2d({(1, 0): 1.0}, {}, {(0, 0, 0): 1.0}, order=3,
                                tols=wide)
        out = critical_manifold_solve(spec, [0.3, 1.0])
        assert np.allclose(out, [0.0, 1.0], atol=1e-12)


class TestNilpotency:
    def test_jordan_block(self):
        assert nilpotency_index(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-9) == 2

    def test_identity_never(self):
        assert nilpotency_index(np.eye(3), 1e-9) is None

    def test_scalar_zero(self):
        assert nilpotency_index(np.zeros((1, 1)), 1e-9) == 1

    @pytest.mark.parametrize("M", _non_finite_matrices())
    def test_non_finite_and_overflowing_input_as_the_oracle(self, M):
        # the same return value, or an exception of the same type
        assert _outcome(nilpotency_index, M) == _outcome(nilpotency_index_oracle, M)

    def test_index_two_at_the_dimension_cap(self):
        rng = np.random.default_rng(64)
        Q, _ = np.linalg.qr(rng.standard_normal((64, 64)))
        N = np.zeros((64, 64))
        N[0, 1] = N[2, 3] = 1.0
        M = Q @ N @ Q.T
        assert nilpotency_index(M, 1e-10) == nilpotency_index_oracle(M, 1e-10) == 2
        with pytest.raises(StructuralError, match="exceeds the cap 64"):
            nilpotency_index(np.zeros((65, 65)), 1e-10)

    def test_index_shift_fuzz(self):
        # full-rank factor N and Df with Df N nilpotent of index l implies
        # N Df nilpotent of index exactly l + 1
        rng = np.random.default_rng(101)
        for _ in range(100):
            k = int(rng.integers(1, 4))
            p = int(rng.integers(1, 4))
            n = k + p
            blocks = np.zeros((p, p))
            index = int(rng.integers(1, p + 1))
            for i in range(index - 1):
                blocks[i, i + 1] = 1.0
            Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            A = Q @ blocks @ Q.T  # similarity keeps the index, orthogonal basis
            while True:
                N = rng.standard_normal((n, p))
                if np.linalg.matrix_rank(N) == p:
                    break
            pinv = np.linalg.pinv(N)
            while True:
                W = rng.standard_normal((p, n))
                Df = A @ pinv + W @ (np.eye(n) - N @ pinv)
                if np.linalg.matrix_rank(Df) == p:
                    break
            assert nilpotency_index(Df @ N, 1e-10) == index
            NDf = N @ Df
            assert nilpotency_index(NDf, 1e-10) == index + 1
            powers = np.linalg.matrix_power(NDf, index + 1)
            assert np.linalg.norm(powers, 2) <= 1e-10
            if index >= 1:
                assert np.linalg.norm(np.linalg.matrix_power(NDf, index), 2) > 1e-4


class TestOscillatoryExtension:
    def _ns_spec(self):
        r = 3
        f = JetVector([Jet.from_terms(3, r, {(1, 0, 0): -1.0, (0, 1, 0): -1.0}),
                       Jet.from_terms(3, r, {(1, 0, 0): 1.0, (0, 1, 0): -1.0})])
        one = Jet.constant(3, r, 1.0)
        zero = Jet.zero(3, r)
        N = ((one, zero), (zero, one), (zero, zero))
        G = JetVector([Jet.zero(4, r)] * 2 + [Jet.constant(4, r, 1.0)])
        return FastSlowMapSpec(n=3, k=1, order=r, N=N, f=f, G=G,
                               base_point=np.zeros(3))

    def test_projection_extends_to_oscillatory_points(self):
        # multipliers on the unit circle but away from 1: the fast pairing
        # stays invertible, so the projection and reduced field are defined
        spec = self._ns_spec()
        assert classify_point(spec, np.zeros(3)).tag == "NeimarkSacker"
        rd = reduced_data(spec, np.zeros(3))
        assert rd.valid
        P = rd.projection
        assert np.max(np.abs(P @ P - P)) <= 1e-9
        assert np.max(np.abs(P @ spec.N_at(np.zeros(3)))) <= 1e-9

    def test_double_unipotent_reports_mixed_band(self):
        # two multipliers at 1 with a nilpotent index-2 pairing: none of the
        # single-multiplier tags applies, the band is reported honestly
        r = 3
        f = JetVector([Jet.from_terms(3, r, {(0, 0, 1): 1.0, (2, 0, 0): 1.0}),
                       Jet.from_terms(3, r, {(1, 1, 0): 1.0, (0, 2, 0): 1.0})])
        one = Jet.constant(3, r, 1.0)
        zero = Jet.zero(3, r)
        N = ((zero, zero), (one, zero), (zero, one))
        G = JetVector([Jet.constant(4, r, 1.0)] + [Jet.zero(4, r)] * 2)
        spec = FastSlowMapSpec(n=3, k=1, order=r, N=N, f=f, G=G,
                               base_point=np.zeros(3))
        cls = classify_point(spec, np.zeros(3))
        assert cls.tag == "MixedNonNH"
        assert cls.unipotent_index == 2


class TestFrozenManifoldSolve:
    def test_frozen_coordinate_unchanged(self, fold_spec):
        start = np.array([-0.43, 0.1])
        out = critical_manifold_solve(fold_spec, start, frozen=(0,))
        assert out[0] == start[0]
        assert abs(fold_spec.f_at(out)[0]) <= 1e-11

    def test_degenerate_free_jacobian_refused(self):
        # f = x^2 - y^2: f_y vanishes on y = 0, so y alone cannot be solved for
        spec = standard_form_2d({(2, 0): 1.0, (0, 2): -1.0}, {}, {(0, 0, 0): 1.0},
                                order=3)
        with pytest.raises(PreconditionError, match="loses row rank"):
            critical_manifold_solve(spec, [-0.5, 0.0], frozen=(0,))
        # with both coordinates free the same guess converges
        out = critical_manifold_solve(spec, [-0.5, 0.0])
        assert abs(spec.f_at(out)[0]) <= 1e-11
