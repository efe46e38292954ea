"""Dynamics tests: orbits, reference integration, slow-manifold tracking,
and the three scaling experiments."""

import time
import tracemalloc

import numpy as np
import pytest

from fastslow.errors import (ConvergenceError, ExperimentError, PreconditionError,
                             StructuralError)
from fastslow.jets import Jet, JetVector
from fastslow.dynamics import (Box, branch_selection_experiment,
                               compile_jet_callable, fit_powerlaw,
                               fold_exit_experiment, integrate_time1,
                               iterate_map_orbit, track_slow_manifold)
from fastslow.embedding import takens_embed_unipotent
from fastslow.model import extended_map_jets
from conftest import (make_fold_spec, make_pitchfork_spec,
                      make_superstable_spec, make_transcritical_spec)


class TestOrbits:
    def test_superstable_line_exit(self, superstable_spec):
        box = Box(((-1.0, 1.0), (-1.0, 0.35)))
        orbit = iterate_map_orbit(superstable_spec, [0.0, 0.0], 0.1, box, 100)
        assert orbit.exited and orbit.exit_edge == "y+"
        assert np.allclose(orbit.points[:, 1], [0.0, 0.1, 0.2, 0.3, 0.4], atol=0)
        assert len(orbit.points) == 5  # 4 steps to leave

    def test_zero_eps_fixed_point(self, fold_spec):
        box = Box(((-1.0, 1.0), (-1.0, 1.0)))
        orbit = iterate_map_orbit(fold_spec, [-0.3, 0.09], 0.0, box, 50)
        assert not orbit.exited
        assert np.max(np.abs(orbit.points - orbit.points[0])) <= 1e-15

    def test_layer_escape(self, fold_spec):
        box = Box(((-1.0, 0.9), (-1.0, 1.0)))
        orbit = iterate_map_orbit(fold_spec, [0.5, 0.0], 0.0, box, 100)
        xs = orbit.points[:, 0]
        assert orbit.exited and orbit.exit_edge == "x+"
        assert np.all(np.diff(xs) > 0)          # monotone fast escape
        assert np.max(np.abs(orbit.points[:, 1])) == 0.0  # slow variable frozen

    def test_consecutive_points_satisfy_map(self, fold_spec):
        box = Box(((-1.0, 1.0), (-1.0, 1.0)))
        orbit = iterate_map_orbit(fold_spec, [-0.4, 0.16], 0.01, box, 30)
        for a, b in zip(orbit.points[:-1:7], orbit.points[1::7]):
            assert np.max(np.abs(fold_spec.map_apply(a, 0.01) - b)) <= 1e-12

    def test_start_outside_rejected(self, fold_spec):
        with pytest.raises(PreconditionError):
            iterate_map_orbit(fold_spec, [2.0, 0.0],
                              0.1, Box(((-1, 1), (-1, 1))), 10)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -1e-3])
    def test_bad_eps_refused(self, fold_spec, eps):
        # a nan eps used to give exited=True with no exit edge after one step
        with pytest.raises(PreconditionError, match="finite and nonnegative"):
            iterate_map_orbit(fold_spec, [-0.3, 0.09], eps,
                              Box(((-1, 1), (-1, 1))), 10)


class TestIntegrator:
    def test_closed_form_quadratic(self):
        x = Jet.variable(1, 4, 0)
        out = integrate_time1(JetVector([x ** 2]), [0.05])
        assert out[0] == pytest.approx(0.05 / 0.95, abs=1e-10)

    def test_zero_field(self):
        out = integrate_time1(JetVector.zeros(2, 2, 3), [0.3, -0.2])
        assert np.allclose(out, [0.3, -0.2], atol=1e-12)

    def test_linear_nilpotent_exact(self):
        L = np.array([[0.0, 0.4], [0.0, 0.0]])
        V = JetVector([Jet.from_terms(2, 3, {(0, 1): 0.4}), Jet.zero(2, 3)], 2, 3)
        z0 = np.array([0.2, -0.1])
        assert np.allclose(integrate_time1(V, z0), (np.eye(2) + L) @ z0,
                           atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_start_refused(self, bad):
        x = Jet.variable(2, 3, 0)
        V = JetVector([x ** 2, Jet.zero(2, 3)], 2, 3)
        with pytest.raises(PreconditionError, match="finite start"):
            integrate_time1(V, [0.1, bad])

    @pytest.mark.parametrize("field", ["jet", "callable"])
    def test_blow_up_is_a_convergence_error(self, field):
        # x' = x^2 from 2 leaves every bound at t = 0.5; on the way the jet
        # evaluator's stages overflow
        V = (JetVector([Jet.variable(1, 4, 0) ** 2]) if field == "jet"
             else (lambda y: y * y))
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="t = 0.5"):
            integrate_time1(V, [2.0])
        assert time.perf_counter() - start < 1.0

    def test_field_not_finite_at_state(self):
        with pytest.raises(ConvergenceError, match="not finite at t = 0"):
            integrate_time1(lambda y: y * np.nan, [1.0])


class TestTracking:
    def test_gap_is_order_eps(self, fold_spec):
        eps = 1e-3
        curve = track_slow_manifold(fold_spec, eps, -0.5, stop_x=-0.1)
        mask = (curve[:, 0] >= -0.4) & (curve[:, 0] <= -0.1)
        gap = np.abs(curve[mask, 1] - curve[mask, 0] ** 2)
        assert gap.max() <= 10.0 * eps

    def test_gap_slope_one(self, fold_spec):
        # fitted log-log slope of the gap at a fixed interior x vs eps
        gaps = []
        eps_grid = np.logspace(-4, -2, 7)
        for eps in eps_grid:
            curve = track_slow_manifold(fold_spec, eps, -0.5, stop_x=-0.25)
            z = curve[-1]
            gaps.append(abs(z[1] - z[0] ** 2))
        fit = fit_powerlaw(eps_grid, gaps)
        assert abs(fit.slope - 1.0) <= 0.1

    def test_invariant_at_zero_eps(self, fold_spec):
        curve = track_slow_manifold(fold_spec, 0.0, -0.5, max_steps=40)
        assert np.max(np.abs(curve[:, 1] - curve[:, 0] ** 2)) <= 1e-12

    def test_superstable_line_tracked(self, superstable_spec):
        curve = track_slow_manifold(superstable_spec, 1e-3, 0.0, max_steps=200)
        assert np.max(np.abs(curve[:, 0])) <= 1e-12

    def test_repelling_seed_rejected(self, fold_spec):
        with pytest.raises(PreconditionError, match="not attracting"):
            track_slow_manifold(fold_spec, 1e-3, 0.3, max_steps=10)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -1e-3])
    def test_bad_eps_refused(self, fold_spec, eps):
        with pytest.raises(PreconditionError, match="finite and nonnegative"):
            track_slow_manifold(fold_spec, eps, -0.5, max_steps=10)


class TestFoldExit:
    def test_exit_experiment_protocol(self, fold_spec):
        fit = fold_exit_experiment(fold_spec, 0.1, np.logspace(-3, -2, 5))
        assert len(fit.eps_values) == 5 and not fit.excluded
        assert fit.r_squared >= 0.999
        # all exit levels below the fold, monotone in eps
        obs = np.asarray(fit.observables)
        assert np.all(obs < 0)
        assert np.all(np.diff(np.abs(obs)) > 0)

    def test_adjacent_ratio_near_two_thirds_power(self, fold_spec):
        eps = np.array([1e-4, 2e-4, 4e-4])
        fit = fold_exit_experiment(fold_spec, 0.1, eps)
        for lo, hi in zip(fit.observables, fit.observables[1:]):
            assert abs(hi / lo) == pytest.approx(2 ** (2 / 3), rel=0.12)

    def test_fiber_observable_tracks_leading_power(self, fold_spec):
        fit = fold_exit_experiment(fold_spec, 0.1, np.logspace(-4, -2, 13),
                                   observable="fiber")
        assert abs(fit.slope - 2 / 3) <= 0.05
        assert fit.r_squared >= 0.999

    def test_determinism(self, fold_spec):
        grid = np.logspace(-3, -2, 4)
        a = fold_exit_experiment(fold_spec, 0.1, grid)
        b = fold_exit_experiment(fold_spec, 0.1, grid)
        assert a.observables == b.observables  # bit-identical
        assert a.slope == b.slope

    @pytest.mark.parametrize("bad", [-1e-3, 0.0, np.nan, np.inf])
    def test_bad_grid_entry_refused(self, fold_spec, bad):
        # -1e-3 used to end in a raw LinAlgError, and 0 ran the whole
        # 2e6-step cap before it was excluded
        with pytest.raises(PreconditionError, match="every eps finite and > 0"):
            fold_exit_experiment(fold_spec, 0.1, [1e-3, 2e-3, bad])

    @pytest.mark.parametrize("rho", [-1.0, 0.0, np.nan, np.inf])
    def test_bad_rho_refused(self, fold_spec, rho):
        # rho = -1 used to fit levels extrapolated from the first step
        with pytest.raises(PreconditionError, match="rho > 0"):
            fold_exit_experiment(fold_spec, rho, [1e-3, 2e-3, 4e-3])

    def test_orientation_enforced(self):
        from fastslow.model import standard_form_2d
        wrong = standard_form_2d({(2, 0): 1.0, (0, 1): -1.0}, {},
                                 {(0, 0, 0): 1.0}, order=4)  # g0 > 0: drifts away
        with pytest.raises(PreconditionError, match="orientation"):
            fold_exit_experiment(wrong, 0.1, [1e-3, 1e-2])


class TestBranchSelection:
    def test_transcritical_exchange(self):
        sel = branch_selection_experiment(make_transcritical_spec(0.5),
                                          "Transcritical", 1e-3)
        assert sel.label == "ExchangeOfStability"
        x, y = sel.exit_point
        assert abs(y + x) <= sel.d_match  # near the crossing branch y = -x

    def test_transcritical_escape(self):
        sel = branch_selection_experiment(make_transcritical_spec(2.0),
                                          "Transcritical", 1e-3)
        assert sel.label == "FastEscape"
        assert sel.exit_edge == "x+"
        assert abs(sel.exit_point[1]) <= sel.d_match

    def test_escape_distance_scaling(self):
        eps_grid = np.logspace(-4, -2, 9)
        dists = []
        for eps in eps_grid:
            sel = branch_selection_experiment(make_transcritical_spec(2.0),
                                              "Transcritical", float(eps))
            assert sel.label == "FastEscape"
            dists.append(abs(sel.exit_point[1]))
        fit = fit_powerlaw(eps_grid, dists)
        assert abs(fit.slope - 0.5) <= 0.1

    @pytest.mark.parametrize("lam,label", [(0.5, "BranchPlus"),
                                           (-0.5, "BranchMinus")])
    def test_pitchfork_selection(self, lam, label):
        sel = branch_selection_experiment(make_pitchfork_spec(lam, 1.0),
                                          "Pitchfork", 1e-3)
        assert sel.label == label

    def test_pitchfork_to_center(self):
        for side in ("plus", "minus"):
            sel = branch_selection_experiment(make_pitchfork_spec(0.5, -1.0),
                                              "Pitchfork", 1e-3, side=side)
            assert sel.label == "BothToCenter"

    @pytest.mark.parametrize("eps", [0.0, -1e-3])
    def test_nonpositive_eps_refused(self, eps):
        # at eps = 0 the orbit has no drift: it used to run the whole
        # 2e6-step cap in place before failing
        with pytest.raises(PreconditionError, match="eps > 0"):
            branch_selection_experiment(make_pitchfork_spec(0.5, 1.0),
                                        "Pitchfork", eps)

    @pytest.mark.parametrize("spec,case", [
        (make_pitchfork_spec(0.5, 1.0), "Pitchfork"),
        (make_transcritical_spec(2.0), "Transcritical")])
    def test_heap_stays_flat(self, spec, case):
        # the walk holds two points; keeping every point of these eps = 1e-4
        # orbits peaked at 0.66-1.1 MB
        tracemalloc.start()
        try:
            branch_selection_experiment(spec, case, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25e6

    def test_threshold_band_excluded(self):
        with pytest.raises(PreconditionError, match="exclusion band"):
            branch_selection_experiment(make_transcritical_spec(1.1),
                                        "Transcritical", 1e-3)

    def test_label_flips_once_across_threshold(self):
        labels = []
        for lam in np.concatenate([np.linspace(0.1, 0.7, 5),
                                   np.linspace(1.3, 1.9, 6)]):
            sel = branch_selection_experiment(make_transcritical_spec(float(lam)),
                                              "Transcritical", 1e-3)
            labels.append(sel.label)
        flips = sum(a != b for a, b in zip(labels, labels[1:]))
        assert flips == 1
        assert labels[0] == "ExchangeOfStability" and labels[-1] == "FastEscape"

    def test_pitchfork_flip_across_zero(self):
        labels = []
        for lam in np.concatenate([np.linspace(-0.9, -0.3, 5),
                                   np.linspace(0.3, 0.9, 6)]):
            sel = branch_selection_experiment(make_pitchfork_spec(float(lam), 1.0),
                                              "Pitchfork", 1e-3)
            labels.append(sel.label)
        flips = sum(a != b for a, b in zip(labels, labels[1:]))
        assert flips == 1


class TestMapVsFlow:
    @pytest.mark.parametrize("maker", [make_fold_spec, make_transcritical_spec,
                                       make_pitchfork_spec])
    def test_cloud_error_shrinks_at_jet_order(self, maker):
        spec = maker()
        order = 4
        emb = takens_embed_unipotent(extended_map_jets(spec), order)
        h_eval = compile_jet_callable(
            JetVector(extended_map_jets(spec).components, 3, spec.order))
        rng = np.random.default_rng(5)
        sups = []
        for s in (0.05, 0.025):
            worst = 0.0
            for _ in range(30):
                z = rng.uniform(-1.0, 1.0, 3)
                z[2] = abs(z[2])  # eps >= 0
                z *= s / np.linalg.norm(z)
                num = integrate_time1(emb.V, z)
                worst = max(worst, np.max(np.abs(h_eval(z) - num)))
            sups.append(worst)
        assert sups[0] / sups[1] >= 2 ** (order - 1)


class TestLabelErrorPaths:
    def test_ambiguous_branch_rejected(self):
        # a matching distance wide enough to reach both branches at the exit
        # face must refuse to label rather than guess
        with pytest.raises(ExperimentError, match="ambiguous"):
            branch_selection_experiment(make_transcritical_spec(0.5),
                                        "Transcritical", 0.05)

    def test_runaway_orbit_reported(self, fold_spec):
        # iterating the local polynomial far outside its region is refused
        # before float overflow can occur
        box = Box(((-2e6, 2e6), (-2e6, 2e6)))
        with pytest.raises(ExperimentError, match="expansion region"):
            iterate_map_orbit(fold_spec, [5.0, 0.0], 0.0, box, 1000)


class TestEmbeddedFlowReproducesExit:
    def test_fold_exit_level_matches_field_flow(self, fold_spec):
        # the slow-manifold extension of the map and of the flow of the
        # embedded field leave the fold region at matching levels, with the
        # gap shrinking as eps does (measured 0.01% at 1e-3, 0.4% at 1e-2)
        from scipy.integrate import solve_ivp
        from fastslow.singularities import embed_2d

        field = compile_jet_callable(embed_2d(fold_spec, order=5).embedding.V)

        def flow_exit(eps, rho=0.1, x0=-0.5):
            def event(t, z):
                return z[0] - rho
            event.terminal = True
            event.direction = 1
            sol = solve_ivp(lambda t, z: field(z), (0, 1e7), [x0, x0 ** 2, eps],
                            events=event, rtol=1e-11, atol=1e-13,
                            method="DOP853", max_step=0.5 / eps)
            return sol.y_events[0][0][1]

        gaps = []
        for eps in (1e-3, 1e-2):
            fit = fold_exit_experiment(fold_spec, 0.1, [eps, 2 * eps, 4 * eps])
            y_map = fit.observables[0]
            y_flow = flow_exit(eps)
            gaps.append(abs(y_map - y_flow) / abs(y_map))
        assert all(g <= 0.01 for g in gaps)
        assert gaps[0] < gaps[1]  # agreement improves toward the singular limit


class TestManifoldSeeds:
    def test_degenerate_fast_equation_refused(self):
        # f = x^2 - y^2 has f_y = 0 on y = 0: Newton in y alone cannot move
        with pytest.raises(PreconditionError):
            track_slow_manifold(make_transcritical_spec(), 1e-3, -0.5, y_guess=0.0)

    def test_seed_keeps_x_start(self, fold_spec):
        curve = track_slow_manifold(fold_spec, 0.0, -0.37, transient=0, max_steps=0)
        assert curve[0, 0] == -0.37
        assert abs(curve[0, 1] - 0.37 ** 2) <= 1e-11


class TestCompiledEvaluator:
    def test_arity_checked(self):
        V = JetVector([Jet.from_terms(2, 3, {(0, 0): 1.0, (1, 0): 0.3}),
                       Jet.from_terms(2, 3, {(1, 1): 0.5, (2, 0): 1.0})])
        with pytest.raises(StructuralError, match="2 coordinates|expected 2"):
            compile_jet_callable(V)([0.3])
        with pytest.raises(StructuralError):
            compile_jet_callable(V)([0.3, 0.1, 0.2])
