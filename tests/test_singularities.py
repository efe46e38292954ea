"""Singularity analysis tests: planar classifier, thresholds, planar
embedding structure, contact points, center-manifold pipeline, and the
closed-form coefficient identities."""

import dataclasses

import numpy as np
import pytest

from fastslow.errors import (ConvergenceError, DegenerateCaseError, PreconditionError,
                             StructuralError)
from fastslow.jets import Jet, JetVector, jet_partial
from fastslow.model import FastSlowMapSpec, standard_form_2d
from fastslow.singularities import (CenterManifoldData, NormalFormCoefficients,
                                    center_manifold_restricted_map,
                                    check_regular_contact,
                                    classify_planar_singularity,
                                    cm_normal_form_transform, embed_2d,
                                    embed_on_center_manifold, threshold_lambda)
from fastslow.specfiles import emit_mapspec, parse_mapspec
from fastslow.tols import DEFAULT_TOLS
from conftest import (make_contact3d_spec, make_contact4d_k1_spec,
                      make_contact4d_k2_spec, make_fold_spec,
                      make_pitchfork_spec, make_transcritical_spec,
                      random_contact3d_spec)


class TestPlanarClassifier:
    def test_fold(self):
        out = classify_planar_singularity(make_fold_spec())
        assert out.case == "Fold"
        c = out.coefficients
        assert (c.alpha, c.beta, c.gamma) == (1.0, 0.0, 0.0)
        assert c.g0 == -1.0

    def test_transcritical(self):
        out = classify_planar_singularity(make_transcritical_spec(0.7))
        assert out.case == "Transcritical"
        c = out.coefficients
        assert (c.alpha, c.beta, c.gamma, c.delta) == (1.0, 0.0, -1.0, 0.7)
        # determinant condition fxx*fyy - fxy^2 = -4 < 0
        assert 4 * (c.alpha * c.gamma - c.beta ** 2) == -4.0

    def test_pitchfork(self):
        out = classify_planar_singularity(make_pitchfork_spec(0.3))
        assert out.case == "Pitchfork"
        c = out.coefficients
        assert (c.alpha, c.gamma, c.delta) == (1.0, -1.0, 0.3)

    def test_no_case_report(self):
        # regular NH point: f_x != 0 at the base
        spec = standard_form_2d({(1, 0): -1.0, (0, 1): 1.0}, {},
                                {(0, 0, 0): 1.0}, order=3)
        out = classify_planar_singularity(spec)
        assert out.case is None
        assert any("f_x" in msg for msg in out.failed)

    def test_degenerate_band_raises(self):
        # f_y between the zero band and the genericity floor
        spec = standard_form_2d({(2, 0): 1.0, (0, 1): -1e-6}, {},
                                {(0, 0, 0): -1.0}, order=3)
        with pytest.raises(DegenerateCaseError):
            classify_planar_singularity(spec)

    def test_fold_with_failed_genericity(self):
        spec = standard_form_2d({(0, 1): -1.0, (3, 0): 1.0}, {},
                                {(0, 0, 0): -1.0}, order=4)
        out = classify_planar_singularity(spec)
        assert out.case is None
        assert any("f_xx" in msg for msg in out.failed)


class TestThreshold:
    def test_transcritical_symbolic(self):
        # alpha=1, beta=0, gamma=-1, delta=lam, g0=1 -> lambda = lam
        for lam in (0.5, 2.0, -1.3):
            out = classify_planar_singularity(make_transcritical_spec(lam))
            assert threshold_lambda(out.coefficients) == pytest.approx(lam, abs=1e-14)

    def test_pitchfork_symbolic(self):
        for lam in (0.5, -0.5):
            out = classify_planar_singularity(make_pitchfork_spec(lam))
            assert threshold_lambda(out.coefficients) == pytest.approx(lam, abs=1e-14)

    def test_zero_numerator(self):
        c = NormalFormCoefficients("Transcritical", alpha=1.0, beta=0.0,
                                   gamma=-1.0, delta=0.0, g0=2.0)
        assert threshold_lambda(c) == 0.0

    def test_scale_invariance_in_g(self):
        # with delta = 0, lambda = beta * sign(g0) / sqrt(beta^2 - gamma*alpha)
        base = dict(alpha=1.0, beta=0.4, gamma=-1.0, delta=0.0)
        vals = [threshold_lambda(NormalFormCoefficients("Transcritical",
                                                        g0=c, **base))
                for c in (0.5, 1.0, 7.0)]
        expected = 0.4 / np.sqrt(0.4 ** 2 + 1.0)
        assert np.allclose(vals, expected, atol=1e-14)

    def test_radicand_violation(self):
        c = NormalFormCoefficients("Transcritical", alpha=1.0, beta=0.0,
                                   gamma=1.0, delta=0.0, g0=1.0)
        with pytest.raises(PreconditionError):
            threshold_lambda(c)

    def test_fold_has_no_threshold(self):
        out = classify_planar_singularity(make_fold_spec())
        with pytest.raises(PreconditionError):
            threshold_lambda(out.coefficients)


class TestEmbed2D:
    @pytest.mark.parametrize("maker", [make_fold_spec,
                                       make_transcritical_spec,
                                       make_pitchfork_spec])
    def test_case_preserved(self, maker):
        result = embed_2d(maker(), order=4)
        assert result.case_out == result.case_in
        assert abs(result.K0 - 1.0) <= 1e-8
        assert result.factor_residual <= 1e-8
        assert result.embedding.residual <= 1e-9

    def test_slow_component_structure(self):
        result = embed_2d(make_fold_spec(), order=4)
        assert result.slow_eps0_residual <= 1e-12
        assert abs(result.g0_slow - (-1.0)) <= 1e-12

    def test_k_normalization_on_all_cases(self):
        for maker in (make_fold_spec, make_transcritical_spec,
                      make_pitchfork_spec):
            result = embed_2d(maker(), order=4)
            assert abs(result.K.constant_term - 1.0) <= 1e-8

    def test_needs_singular_point(self):
        spec = standard_form_2d({(1, 0): -1.0, (0, 1): 1.0}, {},
                                {(0, 0, 0): 1.0}, order=3)
        with pytest.raises(PreconditionError):
            embed_2d(spec)


def _contact_oracle(spec, z):
    """Independent evaluation of the contact conditions with plain loops."""
    n, p = spec.n, spec.n - spec.k
    d = np.asarray(z, dtype=float) - spec.base_point
    Df = spec.Df_at(z)
    N = spec.N_at(z)
    rank = np.linalg.matrix_rank(Df @ N, tol=1e-9)
    U, _, Vt = np.linalg.svd(Df @ N)
    r = Vt[-1]
    l = U[:, -1] / (U[:, -1] @ r)
    Nr = N @ r
    hess = np.zeros(p)
    for i in range(p):
        for a in range(n):
            for b in range(n):
                hess[i] += (jet_partial(jet_partial(spec.f[i], a), b).evaluate(d)
                            * Nr[a] * Nr[b])
    dn = np.zeros(p)
    for i in range(p):
        for a in range(n):
            for j in range(p):
                for mm in range(n):
                    dn[i] += (Df[i, a]
                              * jet_partial(spec.N[a][j], mm).evaluate(d)
                              * Nr[mm] * r[j])
    nondeg = float(l @ (hess + dn))
    slow = Nr * float(l @ Df @ spec.G_at(z, 0.0))
    return rank, nondeg, slow


class TestContactPoints:
    def test_planar_fold_is_contact(self):
        spec = make_fold_spec()
        rep = check_regular_contact(spec, [0.0, 0.0])
        assert rep.verdict and rep.rank == 0
        assert rep.nondegeneracy == pytest.approx(2.0, abs=1e-12)

    def test_normally_hyperbolic_is_not(self):
        spec = make_fold_spec()
        rep = check_regular_contact(spec, [-0.2, 0.04])
        assert not rep.verdict
        assert rep.rank == 1  # full rank for n - k = 1

    def test_3d_contact_against_oracle(self, contact3d_spec):
        rep = check_regular_contact(contact3d_spec, np.zeros(3))
        assert rep.verdict and rep.rank == 1
        rank, nondeg, slow = _contact_oracle(contact3d_spec, np.zeros(3))
        assert rep.rank == rank
        assert rep.nondegeneracy == pytest.approx(nondeg, abs=1e-12)
        assert np.allclose(rep.slow_regularity, slow, atol=1e-12)

    def test_frame_identities(self, contact3d_spec):
        rep = check_regular_contact(contact3d_spec, np.zeros(3))
        fr = rep.frame
        DfN = contact3d_spec.DfN_at(np.zeros(3))
        assert np.max(np.abs(fr.l @ DfN)) <= 1e-10
        assert np.max(np.abs(DfN @ fr.r)) <= 1e-10
        stack = np.vstack([fr.l, fr.Q])
        wide = np.column_stack([fr.r, fr.P])
        assert np.max(np.abs(wide @ stack - np.eye(2))) <= 1e-9
        assert np.max(np.abs(stack @ wide - np.eye(2))) <= 1e-9


class TestChartTransform:
    def test_already_rectified_is_near_identity(self):
        # f = y: v = y, so the chart is the identity relabeling
        spec = standard_form_2d({(0, 1): 1.0}, {}, {(0, 0, 0): -1.0}, order=4)
        # not a contact point (f_x = 0 but fxx = 0): build chart pieces only
        from fastslow.singularities import _newton_rectify
        K, resid = _newton_rectify(spec)
        assert resid <= 1e-12
        assert K[0] == Jet.variable(3, 4, 1)  # y = v exactly

    def test_parabola_inverse(self):
        spec = make_fold_spec()
        from fastslow.singularities import _newton_rectify
        K, resid = _newton_rectify(spec)
        assert resid <= 1e-12
        # v = x^2 - y inverts to y = x^2 - v
        assert K[0].coefficient((2, 0, 0)) == pytest.approx(1.0, abs=1e-13)
        assert K[0].coefficient((0, 1, 0)) == pytest.approx(-1.0, abs=1e-13)
        assert K[0].max_abs() <= 1.0 + 1e-12

    def test_3d_chart_structure(self, contact3d_spec):
        nf = cm_normal_form_transform(contact3d_spec)
        assert nf.rectification_residual <= 1e-12
        assert nf.pure_x_residual <= 1e-12
        assert nf.jacobian_residual <= 1e-10

    def test_requires_contact(self):
        spec = make_fold_spec()
        moved = spec.recenter([-0.2, 0.04])
        with pytest.raises(PreconditionError):
            cm_normal_form_transform(moved)


class TestCenterManifold:
    def test_decoupled_w_gives_zero_graph(self):
        # u-dynamics independent of w, w block linear: W = 0 solves the
        # invariance equation and the restricted map is the (x, u) block
        r = 5
        f = JetVector([
            Jet.from_terms(3, r, {(0, 1, 0): 1.0, (0, 2, 0): 0.5,
                                  (1, 1, 0): 0.1, (2, 0, 0): 0.3}),
            Jet.from_terms(3, r, {(0, 0, 1): 1.0}),
        ])
        one = Jet.constant(3, r, 1.0)
        zero = Jet.zero(3, r)
        N = ((one, zero), (zero, zero), (zero, Jet.constant(3, r, -0.4)))
        G = JetVector([Jet.from_terms(4, r, {(0, 0, 0, 0): 1.0}),
                       Jet.from_terms(4, r, {(0, 0, 0, 0): 0.2}),
                       Jet.zero(4, r)])
        spec = FastSlowMapSpec(n=3, k=1, order=r, N=N, f=f, G=G,
                               base_point=np.zeros(3))
        nf = cm_normal_form_transform(spec)
        cm = center_manifold_restricted_map(nf, order=4)
        assert cm.W.max_abs() <= 1e-12
        assert cm.invariance_residual <= 1e-12
        # restricted map = (x, u) block of the chart map with w = 0
        for i in range(2):
            direct = nf.hat_map[i]
            got = cm.restricted_map[i]
            for idx, c in got.coeffs.items():
                exps = idx.exponents[:2] + (0,) + idx.exponents[2:]
                assert direct.coefficient(exps) == pytest.approx(c, abs=1e-12)

    def test_canonical_contact_pipeline(self, contact3d_spec):
        nf = cm_normal_form_transform(contact3d_spec)
        cm = center_manifold_restricted_map(nf, order=4)
        assert cm.invariance_residual <= 1e-10
        assert abs(cm.mu1 - 1.0) <= 1e-10
        ft = cm.restricted_f
        # ftilde(x, 0) = 0 coefficient-wise
        pure_x = max((abs(c) for i, c in ft.coeffs.items()
                      if i.exponents[1] == 0 and i.exponents[2] == 0), default=0.0)
        assert pure_x <= 1e-12
        # d ftilde / du (x, 0) = 1 coefficient-wise
        for idx, c in ft.coeffs.items():
            if idx.exponents[1] == 1 and idx.exponents[2] == 0:
                want = 1.0 if idx.degree == 1 else 0.0
                assert c == pytest.approx(want, abs=1e-12)
        # graph vanishes along the manifold: W(x, 0, 0) = 0 up to solver dust
        for comp in cm.W:
            dust = max((abs(c) for i, c in comp.coeffs.items()
                        if i.exponents[1] == 0 and i.exponents[2] == 0),
                       default=0.0)
            assert dust <= 1e-12

    def test_graph_solve_sees_w_through_the_linear_graph(self):
        # a constant in the w row of G gives W_1 an eps column, and the
        # (x, u) rows couple to w: the solve must use the linear return map
        # on the graph, M + hm_xw W_1, or the invariance residual is O(0.1)
        base = make_contact4d_k2_spec()
        G = list(base.G)
        G[3] = G[3] + Jet.constant(5, base.order, 0.2)
        spec = FastSlowMapSpec(n=4, k=2, order=base.order, N=base.N, f=base.f,
                               G=JetVector(G, 5, base.order), base_point=np.zeros(4))
        nf = cm_normal_form_transform(spec)
        cm = center_manifold_restricted_map(nf, order=4)
        assert cm.W.linear_matrix()[0] == pytest.approx([0.0, 0.0, 0.0, 0.4], abs=1e-12)
        assert np.any(nf.hat_map.linear_matrix()[:3, 3] != 0.0)
        assert cm.invariance_residual <= 1e-10 * max(1.0, cm.W.max_abs())
        assert abs(cm.mu1 - 1.0) <= 1e-10
        assert embed_on_center_manifold(cm, order=4).contact_ok

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_refused(self, contact3d_spec, order):
        nf = cm_normal_form_transform(contact3d_spec)
        with pytest.raises(StructuralError, match="at least 1"):
            center_manifold_restricted_map(nf, order=order)

    def test_restricted_multiplier_structure(self, contact3d_spec):
        nf = cm_normal_form_transform(contact3d_spec)
        cm = center_manifold_restricted_map(nf, order=4)
        # exactly one nontrivial multiplier, at 1: the factor's critical
        # component vanishes at the origin
        assert abs(cm.restricted_N[1].constant_term) <= 1e-12
        assert abs(cm.mu1 - 1.0) <= 1e-10


class TestContactEmbedding:
    def test_planar_fold_reduces_to_embed_2d(self):
        spec = make_fold_spec()
        nf = cm_normal_form_transform(spec)
        cm = center_manifold_restricted_map(nf, order=4)
        emb = embed_on_center_manifold(cm, order=4)
        assert emb.contact_ok
        # field case equals the planar embedding's case
        planar = embed_2d(spec, order=4)
        assert planar.case_out == "Fold"
        # the restricted field's fast component behaves like a fold at 0:
        # quadratic coefficient in u... the chart flips x and u roles, so
        # check the embedding residual and factor structure instead
        assert emb.embedding.residual <= 1e-9
        assert emb.factor_residual <= 1e-8

    def test_canonical_3d_checks(self, contact3d_spec):
        nf = cm_normal_form_transform(contact3d_spec)
        cm = center_manifold_restricted_map(nf, order=4)
        emb = embed_on_center_manifold(cm, order=4)
        assert emb.contact_ok
        assert emb.linear_match <= 1e-8
        assert emb.partials_diff <= 1e-8
        assert emb.quad_closed_diff <= 1e-8
        assert emb.factor_residual <= 1e-8

    @pytest.mark.parametrize("make_spec,components", [
        (make_contact4d_k1_spec, 2),  # coupled w-block: C = (B - I)^-1 is full
        (make_contact4d_k2_spec, 1),  # reduced variables (x_1, x_2, u, eps)
    ])
    def test_four_dimensional_pipeline(self, make_spec, components):
        spec = make_spec()
        assert check_regular_contact(spec, np.zeros(4)).verdict
        nf = cm_normal_form_transform(spec)
        assert nf.rectification_residual <= 1e-12
        cm = center_manifold_restricted_map(nf, order=4)
        assert len(cm.W) == components and cm.W.num_vars == spec.k + 2
        assert cm.invariance_residual <= 1e-10 * max(1.0, cm.W.max_abs())
        emb = embed_on_center_manifold(cm, order=4)
        assert emb.contact_ok

    def test_linear_restricted_map_embeds_linearly(self):
        # synthetic data: linear unipotent restricted map; the field is
        # linear and every quadratic identity degenerates to 0 = 0
        r = 4
        mred = 3
        restricted = JetVector([
            Jet.from_terms(mred, r, {(1, 0, 0): 1.0, (0, 1, 0): 0.7,
                                     (0, 0, 1): 0.2}),
            Jet.from_terms(mred, r, {(0, 1, 0): 1.0, (0, 0, 1): 0.3}),
        ], mred, r)
        u = Jet.variable(mred, r, 1)
        cm = CenterManifoldData(
            W=JetVector([], mred, r),
            restricted_N=JetVector([Jet.constant(mred, r, 0.7), Jet.zero(mred, r)],
                                   mred, r),
            restricted_f=u,
            restricted_G=JetVector([Jet.constant(mred, r, 0.2),
                                    Jet.constant(mred, r, 0.3)], mred, r),
            invariance_residual=0.0,
            restricted_map=restricted,
            W0=JetVector([], mred, r), mu1=1.0, n=2, k=1, order=r)
        emb = embed_on_center_manifold(cm, order=3)
        assert emb.quad_closed_diff <= 1e-14
        assert all(c.degree_max <= 1 for c in emb.embedding.V)
        assert emb.contact_ok

    def test_slow_partials_identity_fuzz(self):
        rng = np.random.default_rng(2718)
        produced = 0
        attempts = 0
        while produced < 20 and attempts < 200:
            attempts += 1
            spec = random_contact3d_spec(rng)
            rep = check_regular_contact(spec, np.zeros(3))
            if not rep.verdict:
                continue
            nf = cm_normal_form_transform(spec)
            cm = center_manifold_restricted_map(nf, order=4)
            emb = embed_on_center_manifold(cm, order=4)
            assert emb.partials_diff <= 1e-8
            assert emb.quad_closed_diff <= 1e-8
            assert abs(cm.mu1 - 1.0) <= 1e-10
            produced += 1
        assert produced == 20


class TestSpecTolerances:
    """An analysis of a spec reads its tolerances from the spec alone."""

    @pytest.mark.parametrize("maker", [make_contact3d_spec, make_contact4d_k1_spec,
                                       make_contact4d_k2_spec])
    def test_contact_chain_reads_the_spec_band(self, maker):
        # the fixtures embed with residuals of 1e-16..1e-15: a band of 1e-20
        # parsed into the spec refuses them, as center-manifold --tol does
        tols = dataclasses.replace(DEFAULT_TOLS, embed_residual=1e-20)
        spec = parse_mapspec(emit_mapspec(maker()), tols=tols).spec
        cm = center_manifold_restricted_map(cm_normal_form_transform(spec), order=4)
        assert cm.tols is tols
        with pytest.raises(ConvergenceError):
            embed_on_center_manifold(cm, order=4)

    def test_embed_2d_judges_both_cases_by_the_spec_bands(self):
        # a genericity floor of 10 leaves the fold's bands ambiguous: the
        # input case is refused by the bands that would judge the output
        # case, and no call can pass the output case other bands
        tols = dataclasses.replace(DEFAULT_TOLS, genericity_floor=10.0)
        spec = parse_mapspec(emit_mapspec(make_fold_spec()), tols=tols).spec
        with pytest.raises(DegenerateCaseError) as judged_in:
            classify_planar_singularity(spec)
        with pytest.raises(DegenerateCaseError) as judged_by_embed:
            embed_2d(spec, order=4)
        assert str(judged_by_embed.value) == str(judged_in.value)
        with pytest.raises(TypeError):
            embed_2d(make_fold_spec(), order=4, tols=tols)
