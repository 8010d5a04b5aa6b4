"""Solver tests: closed-form oracles, single-level scheme, refinement ladder."""

import math
import os

import numpy as np
import pytest

import oblique_skorohod as ok

from oblique_skorohod import convex, solver
from conftest import (DT, GRID_N, Bundle, grid_times, halfline_set,
                      make_bundles, nan_drift, ramp_path, sinusoid_path,
                      solve_bundle)

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def zero_path(n: int = GRID_N, dt: float = DT, dim: int = 1) -> ok.SampledPath:
    return ok.SampledPath(t0=0.0, dt=dt, values=np.zeros((n + 1, dim)),
                          extension="zero")


def halfline_phi() -> ok.ConvexFunction:
    return ok.indicator(halfline_set(), r0=0.5, h0=0.5)


class TestOracleHalfline:
    def test_downward_ramp(self):
        # psi = -t stays pinned at the boundary: x = 0, k = -t/2 for h = 2
        sol = ok.oracle_halfline(2.0, 0.0, ramp_path(-1.0))
        assert np.all(sol.x.values == 0.0)
        np.testing.assert_allclose(sol.k.values[:, 0], -grid_times() / 2.0,
                                   atol=1e-15)
        assert abs(sol.tv_k - 0.5) < 1e-12
        assert sol.diagnostics["complementarity_max"] == 0.0
        assert sol.diagnostics["max_feasibility_defect"] == 0.0

    def test_upward_ramp_free(self):
        sol = ok.oracle_halfline(2.0, 0.0, ramp_path(1.0))
        np.testing.assert_array_equal(sol.x.values[:, 0], grid_times())
        assert np.all(sol.k.values == 0.0)
        assert sol.tv_k == 0.0

    def test_zigzag_exact(self):
        m = ok.SampledPath(t0=0.0, dt=1.0,
                           values=np.array([[0.0], [-1.0], [0.0]]),
                           extension="zero")
        sol = ok.oracle_halfline(1.0, 0.0, m)
        np.testing.assert_array_equal(sol.x.values[:, 0], [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(sol.k.values[:, 0], [0.0, -1.0, -1.0])
        assert sol.tv_k == 1.0

    def test_positive_start_delays_contact(self):
        # x0 = 0.3: free until psi dips below 0 at t = 0.3, reflected after
        sol = ok.oracle_halfline(1.0, 0.3, ramp_path(-1.0))
        t = grid_times()
        np.testing.assert_allclose(sol.x.values[:, 0],
                                   np.maximum(0.3 - t, 0.0), atol=1e-15)
        assert abs(sol.tv_k - 0.7) < 1e-12

    def test_complementarity_small_on_oscillation(self):
        sol = ok.oracle_halfline(1.5, 0.0, sinusoid_path([-1.0], 0.9))
        # growth of k concentrates where x sits at the boundary, so the
        # discrete product is at most one increment wide
        assert sol.diagnostics["complementarity_max"] < 1e-5
        assert sol.x.values.min() >= -1e-12

    def test_rejects_bad_arguments(self):
        m = ramp_path(-1.0)
        with pytest.raises(ValueError):
            ok.oracle_halfline(1.0, -0.1, m)
        with pytest.raises(ValueError):
            ok.oracle_halfline(0.0, 0.0, m)
        with pytest.raises(ValueError):
            ok.oracle_halfline(1.0, 0.0, ramp_path(-1.0, 1.0))
        shifted = ok.SampledPath(t0=0.5, dt=DT, values=m.values,
                                 extension="zero")
        with pytest.raises(ok.GridMismatch):
            ok.oracle_halfline(1.0, 0.0, shifted)


class TestPenalizedLevel:
    def test_upward_ramp_sees_delayed_smoothed_input(self):
        # input t averaged over a trailing eps window and read eps late:
        # the state ends at T - 3 eps / 2 and never needs the constraint
        eps = 0.02
        m = ok.mollify(ramp_path(1.0), eps)
        sol = ok.solve_penalized(halfline_phi(),
                                 ok.constant_field([[2.0]], c=2.0),
                                 ok.zero_drift(1), m, [0.0],
                                 ok.PenalizedConfig(eps=eps))
        assert abs(sol.x.values[-1, 0] - (1.0 - 1.5 * eps)) < 1e-12
        assert sol.tv_k == 0.0
        assert sol.diagnostics["max_feasibility_defect"] == 0.0

    def test_constant_drift_is_delayed_too(self):
        eps = 0.1
        sol = ok.solve_penalized(halfline_phi(),
                                 ok.constant_field([[1.0]], c=2.0),
                                 ok.constant_drift([-1.0]), zero_path(),
                                 [1.0], ok.PenalizedConfig(eps=eps))
        # drift is zero-extended before time 0, so only T - eps of it acts
        assert abs(sol.x.values[-1, 0] - eps) < 1e-10
        assert np.all(sol.k.values == 0.0)

    def test_drift_is_evaluated_only_where_the_kernel_reads_it(
            self, monkeypatch):
        # f is read from substep lag n_sub on, each time at the state
        # lag n_sub substeps back: no evaluation before time 0.  The drift
        # reads the state (a constant one is part of the rate, unevaluated)
        times, real = [], ok.DriftSpec.eval

        def spy(f, t, x):
            times.append(np.asarray(t))
            return real(f, t, x)
        monkeypatch.setattr(ok.DriftSpec, "eval", spy)
        sol = ok.solve_penalized(halfline_phi(),
                                 ok.constant_field([[1.0]], c=2.0),
                                 ok.affine_drift([[-0.5]], [-1.0], fsharp=2.0),
                                 zero_path(), [1.0],
                                 ok.PenalizedConfig(eps=0.1))
        t = np.concatenate(times)
        n_sub = sol.diagnostics["n_substeps_per_cell"]
        assert t.size == (GRID_N - round(0.1 / DT)) * n_sub
        assert t.min() == 0.0

    @pytest.mark.parametrize("path", ["scenarios/box-rotation.json",
                                      "bench/scenarios/simplex3.json"])
    def test_constant_drift_is_part_of_the_rate(self, path):
        # a constant drift joins the input rate, b0 + rate; an affine one
        # with A = 0 is filled block by block into the rates on the
        # substep grid, rate + b0, the same bits: the levels agree
        sc = ok.load_scenario(os.path.join(ROOT, path))
        d = sc.f.dim
        affine = ok.affine_drift(np.zeros((d, d)), sc.f.b0,
                                 fsharp=sc.f.fsharp)
        cfg = ok.PenalizedConfig(eps=0.005)
        m = ok.mollify(sc.m, cfg.eps)
        sol, ref = (ok.solve_penalized(sc.phi, sc.hf, f, m, sc.x0, cfg)
                    for f in (sc.f, affine))
        assert sc.f.kind == "constant" and sc.f.b0.any()
        assert sol.diagnostics["n_substeps_per_cell"] >= 2
        assert_bits(sol.x_quad, ref.x_quad)
        assert_bits(sol.k_quad, ref.k_quad)

    @pytest.mark.parametrize("ladder", [False, True])
    def test_drift_of_another_width_fails_before_the_sweep(
            self, monkeypatch, ladder):
        # a 1-wide constant drift on a 2-D box used to be broadcast over
        # both coordinates; the one dimension check rejects it first
        swept = []
        monkeypatch.setattr(solver, "_sweep", lambda *a: swept.append(a))
        phi = ok.indicator(ok.box([0.0, 0.0], [1.0, 1.0]), r0=0.2)
        hf = ok.constant_field(np.eye(2), c=1.0)
        f, m, x0 = ok.constant_drift([0.3]), zero_path(dim=2), [0.5, 0.5]
        with pytest.raises(ValueError, match="dimension mismatch between "
                                             "phi, H, f, m, x0"):
            if ladder:
                ok.solve_skorohod(phi, hf, f, m, x0)
            else:
                ok.solve_penalized(phi, hf, f, m, x0,
                                   ok.PenalizedConfig(eps=0.1))
        assert swept == []

    @pytest.mark.parametrize("substep_grid", [False, True])
    def test_eps_near_a_grid_multiple_delays_by_whole_cells(
            self, substep_grid):
        # eps = 4 dt (1 + 5e-10) is 4 cells to grid_cells' relative 1e-9,
        # so substep q reads cell q // n_sub - 4 from substep 8 on; on the
        # whole space g = 0 and every step h rates[cell] is exact in binary.
        # On the substep grid (a state-reading drift's form, its fill
        # adding nothing) eps is 8 substeps to the same 1e-9
        dt, n_sub, lag = 0.5, 2, 4
        cfg = ok.PenalizedConfig(eps=lag * dt * (1.0 + 5e-10))
        rates = 2.0 ** np.arange(10)[:, None]
        xq = np.empty((21, 1))
        xq[0] = 0.0
        prox = ok.make_resolvent(ok.indicator(ok.whole_space(1), r0=1.0),
                                 cfg.eps)
        field_at = ok.make_field_eval(ok.constant_field([[1.0]], c=1.0))
        if substep_grid:
            whole_sweep(xq, 1, dt / n_sub, cfg, prox, prox, field_at,
                        np.repeat(rates, n_sub, axis=0), "test",
                        lambda j: 20)
        else:
            whole_sweep(xq, n_sub, dt, cfg, prox, prox, field_at, rates,
                        "test")
        q = np.arange(20)
        moves = np.where(q >= lag * n_sub,
                         dt / n_sub * rates[np.maximum(q // n_sub - lag, 0),
                                            0], 0.0)
        assert_bits(np.diff(xq[:, 0]), moves)

    def test_discrete_identity_replay(self):
        # replay the update rule from the published quadrature arrays
        eps = 0.01
        phi = halfline_phi()
        hf = ok.constant_field([[2.0]], c=2.0)
        m = ok.mollify(ramp_path(-1.0), eps)
        sol = ok.solve_penalized(phi, hf, ok.zero_drift(1), m, [0.0],
                                 ok.PenalizedConfig(eps=eps))
        prox = ok.make_resolvent(phi, eps)
        feval = ok.make_field_eval(hf)
        mderiv = np.diff(m.values, axis=0) / m.dt
        n_sub = sol.diagnostics["n_substeps_per_cell"]
        h = sol.diagnostics["substep"]
        worst_x = worst_k = 0.0
        for q in range(sol.x_quad.shape[0] - 1):
            x = sol.x_quad[q]
            g = (x - prox(x)) / eps
            tau = q * h - eps
            u = np.zeros(1)
            if tau >= -1e-12:
                cell = min(int(tau / m.dt + 1e-9), m.n_cells - 1)
                u = mderiv[cell]
            rx = sol.x_quad[q + 1] - x - h * (u - feval(x) @ g)
            rk = sol.k_quad[q + 1] - sol.k_quad[q] - h * g
            worst_x = max(worst_x, float(np.abs(rx).max()))
            worst_k = max(worst_k, float(np.abs(rk).max()))
        assert worst_x < 1e-13
        assert worst_k < 1e-12
        assert n_sub == 2

    def test_discrete_identity_with_drift_and_history(self):
        # drift reads the projected state one lag back, frozen at x0 early
        b = [b for b in make_bundles() if b.name == "ball-affine"][0]
        eps = 0.02
        m = ok.mollify(b.m, eps)
        sol = ok.solve_penalized(b.phi, b.hf, b.f, m, b.x0,
                                 ok.PenalizedConfig(eps=eps))
        prox = ok.make_resolvent(b.phi, eps)
        feval = ok.make_field_eval(b.hf)
        mderiv = np.diff(m.values, axis=0) / m.dt
        h = sol.diagnostics["substep"]
        n_sub = sol.diagnostics["n_substeps_per_cell"]
        lag_sub = int(round(eps / m.dt)) * n_sub
        worst = 0.0
        for q in range(sol.x_quad.shape[0] - 1):
            x = sol.x_quad[q]
            g = (x - prox(x)) / eps
            tau = q * h - eps
            if tau >= -1e-12:
                cell = min(int(tau / m.dt + 1e-9), m.n_cells - 1)
                xd = sol.x_quad[q - lag_sub] if q >= lag_sub else sol.x_quad[0]
                u = mderiv[cell] + b.f.eval(tau, ok.project_set(b.phi.domain, xd))
                step = h * (u - feval(x) @ g)
            else:
                step = -h * (feval(x) @ g)
            worst = max(worst, float(np.abs(sol.x_quad[q + 1] - x - step).max()))
        assert worst < 1e-13

    def test_quadrature_arrays_match_grid_slices(self):
        eps = 0.01
        m = ok.mollify(ramp_path(-1.0), eps)
        sol = ok.solve_penalized(halfline_phi(),
                                 ok.constant_field([[2.0]], c=2.0),
                                 ok.zero_drift(1), m, [0.0],
                                 ok.PenalizedConfig(eps=eps))
        n_sub = sol.diagnostics["n_substeps_per_cell"]
        np.testing.assert_array_equal(sol.x_quad[::n_sub], sol.x.values)
        np.testing.assert_array_equal(sol.k_quad[::n_sub], sol.k.values)
        assert np.all(sol.k_quad[0] == 0.0)
        dtq = np.diff(sol.t_quad)
        assert abs(dtq.max() - dtq.min()) < 1e-15
        assert abs(dtq[0] - sol.diagnostics["substep"]) < 1e-15

    def test_feasibility_defect_within_eps_gradient_bound(self):
        for eps in (0.05, 0.01):
            m = ok.mollify(ramp_path(-1.0), eps)
            sol = ok.solve_penalized(halfline_phi(),
                                     ok.constant_field([[2.0]], c=2.0),
                                     ok.zero_drift(1), m, [0.0],
                                     ok.PenalizedConfig(eps=eps))
            d = sol.diagnostics
            assert d["feasibility_bound"] == eps * d["max_gradient_norm"]
            assert d["max_feasibility_defect"] <= d["feasibility_bound"] + 1e-12

    def test_eps_off_grid_rejected(self):
        m = ramp_path(-1.0)
        for eps in (0.0015, 5e-4):
            with pytest.raises(ok.GridMismatch):
                ok.solve_penalized(halfline_phi(),
                                   ok.constant_field([[2.0]], c=2.0),
                                   ok.zero_drift(1), m, [0.0],
                                   ok.PenalizedConfig(eps=eps))

    def test_guard_ball_breach(self):
        cfg = ok.PenalizedConfig(eps=0.01, guard_radius=0.3)
        with pytest.raises(ok.StabilityBreach,
                           match=r"left the guard ball at t=.* \(eps=0\.01\)$"):
            ok.solve_penalized(halfline_phi(),
                               ok.constant_field([[2.0]], c=2.0),
                               ok.zero_drift(1), ramp_path(-1.0), [0.5], cfg)

    def test_nan_state_breaches_the_guard(self):
        with pytest.raises(ok.StabilityBreach,
                           match=r"state norm nan .* \(eps=0\.01\)$"):
            ok.solve_penalized(halfline_phi(),
                               ok.constant_field([[2.0]], c=2.0),
                               nan_drift(1), ramp_path(-1.0),
                               [0.5], ok.PenalizedConfig(eps=0.01))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ok.solve_penalized(halfline_phi(),
                               ok.constant_field([[2.0]], c=2.0),
                               ok.zero_drift(1), ramp_path(-1.0),
                               [0.0, 0.0], ok.PenalizedConfig(eps=0.01))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ok.PenalizedConfig(eps=0.0)
        with pytest.raises(ValueError):
            ok.PenalizedConfig(eps=0.01, substep_ratio=1)
        with pytest.raises(ValueError):
            ok.PenalizedConfig(eps=0.01, guard_radius=0.0)

    @pytest.mark.parametrize("ratio", [2.9, "12", True, math.inf, None])
    def test_substep_ratio_is_never_truncated(self, ratio):
        with pytest.raises(ValueError,
                           match="substep_ratio must be an integer"):
            ok.PenalizedConfig(eps=0.01, substep_ratio=ratio)

    def test_integral_counts_are_kept_as_ints(self):
        cfg = ok.PenalizedConfig(eps=0.01, substep_ratio=np.float64(12.0))
        assert type(cfg.substep_ratio) is int and cfg.substep_ratio == 12
        args = (halfline_phi(), ok.constant_field([[1.0]], c=1.0),
                ok.zero_drift(1), zero_path(n=100), [0.5])
        sol = ok.solve_skorohod(*args, tol=0.0, max_halvings=np.int64(1))
        assert len(sol.refinement_history) == 2
        with pytest.raises(ValueError,
                           match="max_halvings must be an integer"):
            ok.solve_skorohod(*args, max_halvings=2.5)


class TestRefinement:
    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_bad_tol_rejected(self, tol):
        b = [b for b in make_bundles() if b.name == "halfline"][0]
        with pytest.raises(ValueError, match="tol must be >= 0"):
            solve_bundle(b, tol=tol)

    def test_halfline_matches_oracle(self):
        b = [b for b in make_bundles() if b.name == "halfline"][0]
        sol = solve_bundle(b)
        ref = ok.oracle_halfline(2.0, 0.0, b.m)
        gap = np.abs(sol.x.values - ref.x.values).max()
        assert gap < 1e-2
        assert abs(sol.tv_k - 0.5) < 2e-2
        assert np.abs(sol.k.values - ref.k.values).max() < 1e-2

    def test_box_problem_decouples_per_coordinate(self):
        # diagonal field + box constraint: the 2D sweep is two independent 1D ones
        b = [b for b in make_bundles() if b.name == "box-diag"][0]
        eps = 0.02
        m2 = ok.mollify(b.m, eps)
        sol2 = ok.solve_penalized(b.phi, b.hf, b.f, m2, b.x0,
                                  ok.PenalizedConfig(eps=eps))
        for j, hval in enumerate([2.0, 0.5]):
            phi1 = ok.indicator(ok.box([0.0], [1.0]), r0=0.1)
            m1 = ok.SampledPath(t0=0.0, dt=DT, values=m2.values[:, j:j + 1],
                                extension="zero")
            sol1 = ok.solve_penalized(phi1, ok.constant_field([[hval]], c=2.0),
                                      ok.zero_drift(1), m1, [0.5],
                                      ok.PenalizedConfig(eps=eps))
            np.testing.assert_array_equal(sol2.x.values[:, j],
                                          sol1.x.values[:, 0])
            np.testing.assert_array_equal(sol2.k.values[:, j],
                                          sol1.k.values[:, 0])

    def test_quadratic_part_drives_decay(self):
        # phi = x^2/2 on the half-line, no input: x' = -1.5 x in the limit
        phi = ok.quadratic_plus_indicator([[1.0]], [0.0], halfline_set(),
                                          r0=0.5, h0=0.5)
        sol = ok.solve_skorohod(phi, ok.constant_field([[1.5]], c=2.0),
                                ok.zero_drift(1), zero_path(), [0.5],
                                tol=1e-3)
        t = grid_times()
        err = np.abs(sol.x.values[:, 0] - 0.5 * np.exp(-1.5 * t)).max()
        assert err < 5e-3
        tv_ref = (0.5 / 1.5) * (1.0 - math.exp(-1.5))
        assert abs(sol.tv_k - tv_ref) < 5e-3
        # pathwise balance x + H k = x0 holds to rounding at every node
        ident = np.abs(sol.x.values[:, 0] + 1.5 * sol.k.values[:, 0] - 0.5)
        assert ident.max() < 1e-10

    def test_stationary_input_converges_immediately(self):
        sol = ok.solve_skorohod(halfline_phi(),
                                ok.constant_field([[2.0]], c=2.0),
                                ok.zero_drift(1), zero_path(), [0.5],
                                tol=1e-6)
        assert sol.refinement_history == [(0.1, None), (0.05, 0.0)]
        assert np.all(sol.x.values == 0.5)
        assert sol.tv_k == 0.0

    def test_tol_zero_runs_the_full_ladder(self):
        b = [b for b in make_bundles() if b.name == "halfline"][0]
        sol = solve_bundle(b, tol=0.0, max_halvings=7)
        eps_seq = [e for e, _ in sol.refinement_history]
        assert eps_seq == pytest.approx(
            [0.1, 0.05, 0.025, 0.013, 0.007, 0.004, 0.002, 0.001],
            abs=1e-12)
        assert len(sol.diagnostics["tv_k_levels"]) == 8
        assert "tv_k_ratio_last_two" in sol.diagnostics
        gaps = [g for _, g in sol.refinement_history[1:]]
        assert all(g > 0.0 for g in gaps)

    def test_ladder_stops_at_the_grid_floor(self):
        m = ramp_path(-1.0, dt=0.01, n=100)
        sol = ok.solve_skorohod(halfline_phi(),
                                ok.constant_field([[2.0]], c=2.0),
                                ok.zero_drift(1), m, [0.0], tol=0.0,
                                eps0=0.04, max_halvings=50)
        eps_seq = [e for e, _ in sol.refinement_history]
        assert eps_seq == [0.04, 0.02, 0.01]
        assert sol.eps == 0.01

    def test_eps0_snaps_up_to_the_grid(self):
        b = [b for b in make_bundles() if b.name == "halfline"][0]
        sol = ok.solve_skorohod(b.phi, b.hf, b.f, b.m, b.x0, tol=b.tol,
                                eps0=0.0234)
        assert sol.refinement_history[0][0] == 0.024

    def test_no_convergence_carries_history(self):
        b = [b for b in make_bundles() if b.name == "halfline"][0]
        with pytest.raises(ok.NoConvergence) as exc:
            solve_bundle(b, tol=1e-9, max_halvings=3)
        hist = exc.value.history
        assert len(hist) == 4
        assert hist[0][1] is None
        assert all(g > 1e-9 for _, g in hist[1:])

    def test_invalid_arguments(self):
        b = [b for b in make_bundles() if b.name == "halfline"][0]
        with pytest.raises(ValueError):
            solve_bundle(b, tol=-1.0)
        with pytest.raises(ValueError):
            ok.solve_skorohod(b.phi, b.hf, b.f, b.m, b.x0, tol=b.tol,
                              max_halvings=-1)

    def test_refined_catalog_feasibility(self, refined_catalog):
        # converged solutions sit within 10 tol of the constraint set
        for name, (b, sol) in refined_catalog.items():
            worst = max(ok.set_distance(b.phi.domain, x)
                        for x in sol.x.values)
            assert worst <= 10.0 * b.tol, (name, worst)

    def test_refined_catalog_histories_converged(self, refined_catalog):
        for name, (b, sol) in refined_catalog.items():
            eps_f, gap = sol.refinement_history[-1]
            assert gap is not None and gap <= b.tol, name
            assert sol.eps == eps_f


class TestStabilityGap:
    def test_identical_runs_have_zero_gap(self):
        b = [b for b in make_bundles() if b.name == "halfline"][0]
        s1 = solve_bundle(b)
        s2 = solve_bundle(b)
        rep = ok.stability_gap(s1, s2, b.m, b.m)
        assert rep["sup_gap"] == 0.0
        assert rep["tv_gap_m"] == 0.0
        assert rep["V"] > 0.0

    def test_ramp_perturbation_gap_is_controlled(self):
        b = [b for b in make_bundles() if b.name == "halfline"][0]
        delta = 1e-3
        m2 = ramp_path(-1.0 - delta)
        s1 = solve_bundle(b)
        s2 = ok.solve_skorohod(b.phi, b.hf, b.f, m2, b.x0, tol=b.tol)
        rep = ok.stability_gap(s1, s2, b.m, m2)
        assert 0.0 < rep["sup_gap"] < 0.05
        assert abs(rep["tv_gap_m"] - delta) < 1e-12

    def test_grid_mismatch_rejected(self):
        b = [b for b in make_bundles() if b.name == "halfline"][0]
        s1 = solve_bundle(b)
        m_short = ramp_path(-1.0, n=500)
        s2 = ok.solve_skorohod(b.phi, b.hf, b.f, m_short, b.x0, tol=b.tol)
        with pytest.raises(ok.GridMismatch):
            ok.stability_gap(s1, s2, b.m, m_short)


def test_tracer_patch_points_are_the_closure_builders(monkeypatch):
    # the benchmark tracer counts resolvent and field calls by replacing
    # make_resolvent and make_field_eval on solver and sde; a rename, or a
    # call that bypasses these module names, would only zero its counts
    from oblique_skorohod import convex, field, sde, solver
    built = []

    def counted(where, real):
        def builder(*args):
            built.append(where)
            return real(*args)
        return builder

    for mod in (solver, sde):
        assert mod.make_resolvent is convex.make_resolvent
        assert mod.make_field_eval is field.make_field_eval
        for name, real in (("make_resolvent", convex.make_resolvent),
                           ("make_field_eval", field.make_field_eval)):
            monkeypatch.setattr(mod, name, counted((mod.__name__, name), real))
    phi = halfline_phi()
    hf = ok.constant_field([[2.0]], c=2.0)
    ok.solve_penalized(phi, hf, ok.zero_drift(1),
                       ok.mollify(ramp_path(-1.0), 0.05), [0.0],
                       ok.PenalizedConfig(eps=0.05))
    drv = ok.BrownianDriver(seed=1, dt=DT, dims=1, horizon=0.1)
    ok.solve_svi_path(phi, hf, ok.zero_drift(1),
                      ok.constant_diffusion([[0.3]]), [0.0], drv, 8)
    for mod in ("oblique_skorohod.solver", "oblique_skorohod.sde"):
        assert (mod, "make_resolvent") in built
        assert (mod, "make_field_eval") in built


def whole_sweep(xq, n_sub, dt, cfg, prox, prox_rows, field_at, rates, where,
                fill=None):
    """solver._sweep over the whole grid in one block, from k = 0."""
    return solver._sweep(xq, np.zeros(xq.shape), 0, n_sub, dt, cfg, prox,
                         prox_rows, field_at, rates, where, {}, fill)


def reference_sweep(xq, n_sub, dt, cfg, prox, prox_rows, field_at, rates,
                    where, fill=None, drift=None):
    """The substep kernel of one path as a plain loop over every substep:
    one prox, one field evaluation and one update each, k summed as it
    goes.  _sweep skips and stacks work, and must give the same bits.
    prox_rows goes unused.  The reference keeps its own drift path, apart
    from _sweep's one input form: given a per-substep drift array, which
    fill fills, it adds each filled block's cell rates into drift[q], and
    substep q reads drift[q]."""
    eps, h = cfg.eps, dt / n_sub
    guard2 = cfg.guard_radius * cfg.guard_radius
    n_steps = xq.shape[0] - 1
    n_cells = n_steps // n_sub
    # the delay on a float clock, apart from _sweep's whole cells: substep
    # q >= first reads the grid cell of tau = q h - eps
    tau = np.arange(n_steps) * h - eps
    first = int(np.count_nonzero(tau < -1e-12))
    cells = np.minimum((tau[first:] / dt + 1e-9).astype(np.intp),
                       n_cells - 1)
    x = xq[0].copy()
    kq = np.zeros(xq.shape)
    top, ready = 0.0, 0
    for j in range(n_cells):
        if j == ready and fill is not None:
            ready = fill(j)
            if drift is not None:
                lo, hi = max(j * n_sub, first), ready * n_sub
                drift[lo:hi] += rates[cells[lo - first:hi - first]]
        for q in range(j * n_sub, (j + 1) * n_sub):
            g = (x - prox(x)) / eps
            hg = field_at(x) @ g
            if q < first:
                x = x - h * hg
            else:
                u = rates[cells[q - first]] if drift is None else drift[q]
                x = x + h * (u - hg)
            kq[q + 1] = kq[q] + h * g
            top = max(top, float(g @ g))
            if not float(x @ x) <= guard2:
                raise ok.StabilityBreach(
                    f"state norm {float(np.linalg.norm(x)):.3e} left the "
                    f"guard ball at t={(q + 1) * h:.6g} ({where})")
            xq[q + 1] = x
    return kq, math.sqrt(top), {}


def whole_reference(xq, kq, start, n_sub, dt, cfg, prox, prox_rows,
                    field_at, rates, where, breaches, fill=None):
    """reference_sweep in the place of solver._sweep, which solve_penalized
    calls over the whole grid in one block, from k = 0."""
    assert start == 0 and not kq.any() and breaches == {}
    return reference_sweep(xq, n_sub, dt, cfg, prox, prox_rows, field_at,
                           rates, where, fill)


def assert_bits(a, b):
    """a and b hold the same float bits (a -0.0 is no +0.0)."""
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class Counted:
    """A resolvent that counts its point calls and its stacked rows."""

    def __init__(self, prox):
        self.prox, self.points, self.stacks = prox, 0, []

    def __call__(self, x):
        if x.ndim == 1:
            self.points += 1
        else:
            self.stacks.append(x.shape[0])
        return self.prox(x)


class TestInteriorStretches:
    """Where g is exactly 0 at the start of a cell, _sweep takes the
    following substeps in stacked passes; every result must equal the
    substep loop's, bit for bit."""

    H1 = ok.constant_field([[2.0]], c=2.0)

    def sweep_both(self, phi, rates, x0, cfg, n_sub=3, dt=0.01):
        # (xq, kq, max_grad, prox) of _sweep and of the reference loop;
        # a StabilityBreach from either is returned in place of kq
        out = []
        for kernel in (whole_sweep, reference_sweep):
            xq = np.full((rates.shape[0] * n_sub + 1,) + np.shape(x0),
                         np.nan)
            xq[0] = x0
            prox = Counted(ok.make_resolvent(phi, cfg.eps))
            try:
                kq, top, _ = kernel(xq, n_sub, dt, cfg, prox, prox,
                                    ok.make_field_eval(self.H1), rates,
                                    "test")
            except ok.StabilityBreach as exc:
                kq, top = str(exc), None
            out.append((xq, kq, top, prox))
        return out

    def test_one_stretch_from_before_the_delay_to_the_end(self):
        # the state starts on the boundary, at -0.0 (g = 0), and only
        # climbs: one stretch from substep 0, before the delay ends at
        # substep 6, through the last substep.  Before the delay the loop
        # keeps x - h (+0.0) = -0.0, so the stretch must add -0.0.
        rates = np.ones((50, 1))
        cfg = ok.PenalizedConfig(eps=0.02)
        (xq, kq, top, prox), (rx, rk, rtop, _) = self.sweep_both(
            halfline_phi(), rates, [-0.0], cfg)
        assert_bits(xq, rx)
        assert_bits(kq, rk)
        assert np.signbit(xq[:7]).all()
        assert top == rtop == 0.0
        assert prox.points == 2 and prox.stacks == [150]

    def test_a_zero_product_keeps_its_sign_in_one_dimension(self):
        # on a box from 0, x = -0.0 has prox +0.0, so g = -0.0 and, with
        # d = 1, H(x) g is 0 + 2 (-0.0) = +0.0 (the reference's @; .dot
        # would give -0.0): x - h hg and x + h (u - hg) with u = -0.0 keep
        # x at -0.0.  g = -0.0 is exactly 0, so _sweep takes the level in
        # stretches, which add -0.0 and store k's +0.0 for the loop's -0.0
        # g, the same k once summed
        phi = ok.indicator(ok.box([0.0], [1.0]), r0=0.2)
        cfg = ok.PenalizedConfig(eps=0.02)
        runs = []
        for kernel in (whole_sweep, reference_sweep):
            xq = np.empty((151, 1))
            xq[0] = -0.0
            prox = Counted(ok.make_resolvent(phi, cfg.eps))
            kq, top, _ = kernel(xq, 3, 0.01, cfg, prox, prox,
                                ok.make_field_eval(self.H1),
                                np.full((50, 1), -0.0), "test")
            runs.append((xq, kq, top, prox))
        (xq, kq, top, prox), (rx, rk, rtop, _) = runs
        assert prox.stacks
        assert_bits(xq, rx)
        assert_bits(kq, rk)
        assert np.signbit(xq).all() and top == rtop == 0.0

    def test_stretch_ends_at_the_boundary(self):
        # the state falls onto the boundary: the stretch ends at the first
        # state whose prox moves it, and the substep loop takes over
        rates = -np.ones((50, 1))
        cfg = ok.PenalizedConfig(eps=0.02)
        (xq, kq, top, prox), (rx, rk, rtop, rprox) = self.sweep_both(
            halfline_phi(), rates, [0.2], cfg)
        assert_bits(xq, rx)
        assert_bits(kq, rk)
        assert top == rtop > 0.0
        assert prox.stacks and prox.points < rprox.points

    @pytest.mark.parametrize("bad, message", [
        ((np.nan,), "state norm nan left the guard ball at t=0.0833333 "
                    "(test)"),
        ((np.inf, -np.inf), "state norm inf left the guard ball at "
                            "t=0.0833333 (test)")])
    def test_bad_input_inside_a_stretch(self, bad, message):
        # the substep loop raises at the first bad state, with its message
        # and time and without a RuntimeWarning (an error under pytest)
        rates = np.ones((50, 1))
        rates[6:6 + len(bad), 0] = bad
        cfg = ok.PenalizedConfig(eps=0.02)
        (_, kq, _, prox), (_, rk, _, _) = self.sweep_both(
            halfline_phi(), rates, [0.5], cfg)
        assert kq == rk == message
        assert prox.stacks

    def test_guard_breach_inside_a_stretch(self):
        # on the whole space every state is interior: the stretch stops
        # short of the breaching state and the substep loop raises
        phi = ok.indicator(ok.whole_space(1), r0=1.0)
        cfg = ok.PenalizedConfig(eps=0.02, guard_radius=0.25)
        (_, kq, _, prox), (_, rk, _, _) = self.sweep_both(
            phi, np.ones((50, 1)), [0.0], cfg)
        assert kq == rk == ("state norm 2.533e-01 left the guard ball at "
                            "t=0.273333 (test)")
        # the stretch takes substeps 0..80; substep 81 breaches
        assert prox.stacks == [81] and prox.points == 2

    def test_chunk_rows_match_their_reference_runs(self):
        # three paths in one chunk: stretches need every row interior; a
        # row with a NaN input leaves during one, the others go on
        n_sub, dt, cfg = 3, 0.01, ok.PenalizedConfig(eps=0.02)
        rates = np.ones((50, 3, 1))
        rates[:, 1] = 0.5
        rates[20, 2] = np.nan
        rates[35:, 0] = -4.0
        xq = np.empty((151, 3, 1))
        xq[0] = [[0.0], [0.3], [0.1]]
        prox = Counted(ok.make_resolvent(halfline_phi(), cfg.eps))
        kq, tops, breaches = whole_sweep(
            xq, n_sub, dt, cfg, prox, prox, ok.make_field_eval(self.H1),
            rates, ["a", "b", "c"])
        assert list(breaches) == [2]
        assert prox.stacks.count(3) < 150
        for i, label in enumerate("abc"):
            rx = np.empty((151, 1))
            rx[0] = xq[0, i]
            try:
                rprox = ok.make_resolvent(halfline_phi(), cfg.eps)
                rk, rtop, _ = reference_sweep(
                    rx, n_sub, dt, cfg, rprox, rprox,
                    ok.make_field_eval(self.H1), rates[:, i], label)
            except ok.StabilityBreach as exc:
                assert str(breaches[i]) == str(exc)
                continue
            assert_bits(xq[:, i], rx)
            assert_bits(kq[:, i], rk)
            assert tops[i] == rtop

    @pytest.mark.parametrize("cuts", [[0, 50], [0, 1, 2, 7, 23, 24, 50],
                                      [0, 10, 20, 30, 40, 50]])
    def test_blocks_give_the_whole_sweep(self, cuts):
        # the rows of test_chunk_rows_match_their_reference_runs, swept a
        # block of cells at a time: each block starts from the last states
        # and k of the one before, with the rates from input cell
        # max(start - lag, 0) on and the rows that left before; row c
        # leaves in the block of cell 22 (its input cell 20 is NaN)
        n_sub, dt, cfg, lag = 3, 0.01, ok.PenalizedConfig(eps=0.02), 2
        rates = np.ones((50, 3, 1))
        rates[:, 1] = 0.5
        rates[20, 2] = np.nan
        rates[35:, 0] = -4.0
        prox = ok.make_resolvent(halfline_phi(), cfg.eps)
        field_at = ok.make_field_eval(self.H1)
        xq = np.empty((151, 3, 1))
        xq[0] = [[0.0], [0.3], [0.1]]
        kq, tops, breaches = whole_sweep(xq, n_sub, dt, cfg, prox, prox,
                                         field_at, rates, list("abc"))
        bx, bk = np.empty(xq.shape), np.empty(kq.shape)
        bx[0], bk[0] = xq[0], 0.0
        got, top = {}, np.zeros(3)
        for start, end in zip(cuts, cuts[1:]):
            base, lo, hi = max(start - lag, 0), start * n_sub, end * n_sub
            _, norms, got = solver._sweep(
                bx[lo:hi + 1], bk[lo:hi + 1], start, n_sub, dt, cfg, prox,
                prox, field_at, rates[base:max(end - lag, base)],
                list("abc"), got)
            top = np.fmax(top, norms)
        top[list(got)] = 0.0
        assert list(got) == list(breaches) == [2]
        assert str(got[2]) == str(breaches[2])
        assert_bits(bx, xq)
        assert_bits(bk, kq)
        assert_bits(top, tops)

    @pytest.mark.parametrize("path", [
        "scenarios/box-rotation.json", "scenarios/halfline-ramp.json",
        "bench/scenarios/simplex3.json"])
    def test_scenario_levels_match_the_substep_loop(self, path,
                                                     monkeypatch):
        # whole levels of solve_penalized: stretches cross cells, and on
        # box-rotation and simplex3 their constant drift is part of the
        # rate, so no block end cuts them
        sc = ok.load_scenario(os.path.join(ROOT, path))
        stacks = []

        def counted(phi, eps):
            prox = Counted(make_resolvent(phi, eps))
            stacks.append(prox.stacks)
            return prox
        make_resolvent = convex.make_resolvent
        # eps = the horizon: no substep reads a delayed input
        for eps in (1.0, 0.1, 0.025, 0.013):
            cfg = ok.PenalizedConfig(eps=eps)
            m = ok.mollify(sc.m, eps)
            with monkeypatch.context() as mp:
                mp.setattr(convex, "make_resolvent", counted)
                sol = ok.solve_penalized(sc.phi, sc.hf, sc.f, m, sc.x0, cfg)
            with monkeypatch.context() as mp:
                mp.setattr(solver, "_sweep", whole_reference)
                ref = ok.solve_penalized(sc.phi, sc.hf, sc.f, m, sc.x0, cfg)
            assert_bits(sol.x_quad, ref.x_quad)
            assert_bits(sol.k_quad, ref.k_quad)
            assert sol.diagnostics == ref.diagnostics
        n_sub = sol.diagnostics["n_substeps_per_cell"]
        assert max(max(s, default=0) for s in stacks) > n_sub

    @pytest.mark.parametrize("path, kind", [
        ("scenarios/box-rotation.json", "affine"),
        ("bench/scenarios/simplex3.json", "time_modulated"),
        # d = 1: the level sweeps on Python floats
        ("scenarios/halfline-ramp.json", "affine")])
    def test_drift_reading_levels_match_the_reference_drift_path(self, path,
                                                                 kind):
        # a drift that reads the state: solve_penalized runs _sweep on the
        # substep grid, the drift filled into the rates; the reference
        # runs on the cell grid with its own per-substep drift array
        sc = ok.load_scenario(os.path.join(ROOT, path))
        d = sc.dim
        A = 0.1 * np.ones((d, d)) - 0.5 * np.eye(d)
        b0 = np.full(d, -0.3) if sc.f.b0 is None else sc.f.b0
        f = ok.affine_drift(A, b0, fsharp=3.0) if kind == "affine" \
            else ok.time_modulated_drift(
                A, b0, ok.TimeProfile(kind="sinusoid", amplitude=1.3,
                                      period=0.3, phase=0.2),
                horizon=sc.horizon, fsharp=3.0)
        for eps in (0.1, 0.005):
            cfg = ok.PenalizedConfig(eps=eps)
            m = ok.mollify(sc.m, eps)
            sol = ok.solve_penalized(sc.phi, sc.hf, f, m, sc.x0, cfg)
            lag, n_sub = solver._substep_mesh(cfg, m.dt, sc.hf.c)
            h = m.dt / n_sub
            xq = np.empty_like(sol.x_quad)
            xq[0] = sc.x0
            drift = np.empty((xq.shape[0] - 1, d))

            def fill(j):
                hi = min(j + lag, m.n_cells)
                q = np.arange(max(j, lag) * n_sub, hi * n_sub)
                if q.size:
                    xd = ok.project_set(sc.phi.domain, xq[q - lag * n_sub])
                    drift[q] = f.eval(q * h - eps, xd)
                return hi
            prox = ok.make_resolvent(sc.phi, eps)
            kq, top, _ = reference_sweep(
                xq, n_sub, m.dt, cfg, prox, prox, ok.make_field_eval(sc.hf),
                np.diff(m.values, axis=0) / m.dt, "ref", fill, drift)
            assert_bits(sol.x_quad, xq)
            assert_bits(sol.k_quad, kq)
            assert sol.diagnostics["max_gradient_norm"] == top
        assert n_sub >= 2


class TestBeforeTheDelay:
    """Before the delay ends every substep reads the rate -0.0: _sweep's
    x + h (-0.0 - hg) must keep the bits of the reference's x - h hg, also
    where g is not zero, so that no stretch takes the substeps."""

    @pytest.mark.parametrize("hi, H, starts", [
        # d = 1 on a box from 0: row 0 sits at -0.0 (g is a zero), row 1
        # starts below the box, so g is not zero in the chunk
        ([1.0], [[2.0]], [[-0.0], [-0.3]]),
        ([1.0, 1.0], [[2.0, 0.5], [0.5, 1.0]], [[-0.0, 0.5], [-0.2, 1.4]]),
    ])
    def test_loop_substeps_match_the_reference(self, hi, H, starts):
        phi = ok.indicator(ok.box(np.zeros(len(hi)), hi), r0=0.2)
        field_at = ok.make_field_eval(ok.constant_field(H, c=2.5))
        # the delay is 20 cells of 3 substeps, 60 of the 150
        n_sub, dt, cfg, first = 3, 0.01, ok.PenalizedConfig(eps=0.2), 60
        starts = np.array(starts)
        rates = np.ones((50,) + starts.shape)
        xq = np.empty((151,) + starts.shape)
        xq[0] = starts
        prox = ok.make_resolvent(phi, cfg.eps)
        kq, tops, breaches = whole_sweep(xq, n_sub, dt, cfg, prox, prox,
                                         field_at, rates, ["a", "b"])
        assert breaches == {}
        # the chunk took every substep before the delay in the loop
        assert np.diff(kq[:first + 1, 1], axis=0).any(axis=-1).all()
        assert np.signbit(xq[:first + 1, 0, 0]).all()
        for i in range(2):
            runs = []
            for kernel in (whole_sweep, reference_sweep):
                x = np.empty((151, starts.shape[1]))
                x[0] = starts[i]
                runs.append((x,) + kernel(x, n_sub, dt, cfg, prox, prox,
                                          field_at, rates[:, i], "p")[:2])
            (px, pk, ptop), (rx, rk, rtop) = runs
            assert_bits(px, rx)
            assert_bits(pk, rk)
            assert_bits(xq[:, i], rx)
            assert_bits(kq[:, i], rk)
            assert ptop == rtop == tops[i]


def arrays_only(fn):
    """fn behind a plain function: without its float_form, _sweep keeps a
    1-D or 2-D point on arrays."""
    return lambda x: fn(x)


class Spy:
    """A closure that counts its array calls and the calls of the float
    form it carries over."""

    def __init__(self, fn):
        self.fn, self.calls, self.float_calls = fn, 0, 0

        def on_float(x):
            self.float_calls += 1
            return fn.float_form(x)
        self.float_form = on_float

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def sweep_three(phi, hf, rates, x0, cfg, n_sub=3, dt=0.01):
    """(xq, kq or the breach message, max_grad) of _sweep on floats, of
    _sweep on arrays and of the reference loop, and the float run's field
    spy."""
    out, spy = [], Spy(ok.make_field_eval(hf))
    prox = ok.make_resolvent(phi, cfg.eps)
    for kernel, point, field_at in (
            (whole_sweep, prox, spy),
            (whole_sweep, arrays_only(prox),
             arrays_only(ok.make_field_eval(hf))),
            (reference_sweep, prox, ok.make_field_eval(hf))):
        xq = np.full((rates.shape[0] * n_sub + 1, np.size(x0)), np.nan)
        xq[0] = x0
        try:
            kq, top, _ = kernel(xq, n_sub, dt, cfg, point, prox, field_at,
                                rates, "test")
        except ok.StabilityBreach as exc:
            kq, top = str(exc), None
        out.append((xq, kq, top))
    return out, spy


def assert_same_runs(runs):
    """The float run of sweep_three has the bits of the other two."""
    (fx, fk, ftop), *others = runs
    for xq, kq, top in others:
        assert_bits(fx, xq)
        if isinstance(fk, str):
            assert fk == kq
        else:
            assert_bits(fk, kq)
        assert ftop == top


class TestFloatPoints:
    """A 1-D point whose resolvent and field have float forms sweeps on
    Python floats; it must give the array loop's bits and the reference
    loop's, breaches included."""

    PHI = halfline_phi()
    H1 = ok.constant_field([[2.0]], c=2.0)

    def sweep_three(self, rates, x0, cfg, n_sub=3, dt=0.01):
        return sweep_three(self.PHI, self.H1, rates, x0, cfg, n_sub, dt)

    def assert_same(self, runs):
        assert_same_runs(runs)

    def test_substeps_before_the_delay_with_a_gradient(self):
        # x0 below the half-line: g is not 0 through the 60 substeps before
        # the delay ends, which read the rate -0.0; then a falling input
        # keeps the state on the face
        cfg = ok.PenalizedConfig(eps=0.2)
        runs, spy = self.sweep_three(-np.ones((50, 1)), [-0.3], cfg)
        self.assert_same(runs)
        (fx, fk, _), _, _ = runs
        assert np.diff(fk[:61], axis=0).all()
        # the array field closure is never called: H comes from its float
        # form, once per loop substep
        assert spy.calls == 0 and spy.float_calls > 60

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "state norm nan left the guard ball at t=0.0833333 (test)"),
        (np.inf, "state norm inf left the guard ball at t=0.0833333 (test)"),
        ("climb", "state norm 2.533e-01 left the guard ball at t=0.273333 "
                  "(test)"),
        ("fall", "state norm 4.040e+00 left the guard ball at t=0.31 "
                 "(test)")])
    def test_guard_breaches(self, bad, message):
        # a bad input in a stretch, a state climbing out of a small guard
        # ball from a stretch, or one pushed below the face by a steep
        # fall, in the substep loop: the same StabilityBreach on floats,
        # with no RuntimeWarning (an error under pytest)
        rates = np.ones((50, 1))
        cfg, x0 = ok.PenalizedConfig(eps=0.02), [0.5]
        if bad == "climb":
            cfg, x0 = ok.PenalizedConfig(eps=0.02, guard_radius=0.25), [0.0]
        elif bad == "fall":
            rates[:] = -60.0
            cfg, x0 = ok.PenalizedConfig(eps=0.2, guard_radius=4.0), [0.0]
        else:
            rates[6, 0] = bad
        runs, _ = self.sweep_three(rates, x0, cfg)
        self.assert_same(runs)
        assert runs[0][1] == message

    @pytest.mark.parametrize("drift", [
        ok.zero_drift(1), ok.constant_drift([-0.4]),
        ok.affine_drift([[-0.5]], [0.3], fsharp=3.0)])
    def test_levels_match_the_array_loop(self, drift, monkeypatch):
        # whole halfline-ramp levels, a drift that reads the state (filled
        # on the substep grid) included, with and without the float forms
        sc = ok.load_scenario(os.path.join(ROOT,
                                           "scenarios/halfline-ramp.json"))
        for eps in (0.1, 0.013):
            cfg = ok.PenalizedConfig(eps=eps)
            m = ok.mollify(sc.m, eps)
            sols = [ok.solve_penalized(sc.phi, sc.hf, drift, m, sc.x0, cfg)]
            with monkeypatch.context() as mp:
                for name in ("make_resolvent", "make_field_eval"):
                    mp.setattr(solver, name, lambda *a, b=getattr(
                        solver, name): arrays_only(b(*a)))
                sols.append(ok.solve_penalized(sc.phi, sc.hf, drift, m,
                                               sc.x0, cfg))
            if drift.kind != "affine":  # the reference reads cell rates
                with monkeypatch.context() as mp:
                    mp.setattr(solver, "_sweep", whole_reference)
                    sols.append(ok.solve_penalized(sc.phi, sc.hf, drift, m,
                                                   sc.x0, cfg))
            for other in sols[1:]:
                assert_bits(sols[0].x_quad, other.x_quad)
                assert_bits(sols[0].k_quad, other.k_quad)
                assert sols[0].diagnostics == other.diagnostics

    def test_a_lone_path_matches_its_row_in_a_chunk(self):
        # solve_svi_path sweeps one path on floats, monte_carlo three in
        # one chunk on stacks
        sc = ok.load_scenario(os.path.join(ROOT,
                                           "scenarios/halfline-svi.json"))
        p = ok.SviProblem(phi=sc.phi, hf=sc.hf, f=sc.f, g=sc.g, x0=sc.x0,
                          dt=sc.dt, horizon=sc.horizon, n=sc.n_window)
        out = ok.monte_carlo(p, 3, base_seed=60, collect_paths=True)
        assert out["n_ok"] == 3
        for seed, row in zip(range(60, 63), out["paths"]):
            drv = ok.BrownianDriver(seed=seed, dt=sc.dt, dims=1,
                                    horizon=sc.horizon)
            alone = ok.solve_svi_path(sc.phi, sc.hf, sc.f, sc.g, sc.x0, drv,
                                      sc.n_window)
            assert_bits(alone.x_quad, row.x_quad)
            assert_bits(alone.k_quad, row.k_quad)
            assert alone.diagnostics == row.diagnostics


def pair_case(rng, affine=False):
    """A random 2-D box (an indicator or an affine function on it) and a
    rotation-blend field whose m0 and m1 are diagonal and whose weight
    direction has one nonzero entry, of random sign and scale: the kinds
    whose 2-D points sweep on floats."""
    lo = rng.normal(0.0, 1.0, 2)
    s = ok.box(lo, lo + rng.uniform(0.5, 2.0, 2))
    phi = ok.lipschitz_affine_plus_indicator(rng.normal(0.0, 1.0, 2), 0.1,
                                             s, r0=0.1) if affine \
        else ok.indicator(s, r0=0.1)
    wd = np.zeros(2)
    wd[rng.integers(2)] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1, 1)
    m0, m1 = (np.diag(rng.uniform(0.5, 2.0, 2)) for _ in range(2))
    return phi, ok.rotation_blend_field(m0, m1, wd, rng.normal(0.0, 0.5),
                                        c=2.0, b=1.0)


class TestPairPoints:
    """A 2-D point on a box under a diagonal rotation blend sweeps on
    2-tuples of Python floats; it must give the array loop's bits and the
    reference loop's, breaches included."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sweeps_match_the_array_and_reference_loops(self, seed):
        # inputs steep enough to cross faces and corners, from x0 inside,
        # on a face, on a corner and outside (g not 0 through the
        # substeps before the delay, which read the rate -0.0)
        rng = np.random.default_rng(seed)
        phi, hf = pair_case(rng, affine=seed % 2 == 1)
        lo, hi = phi.domain.lo, phi.domain.hi
        starts = [0.5 * (lo + hi), [lo[0], 0.5 * (lo[1] + hi[1])],
                  [hi[0], lo[1]], lo - 0.3]
        rates = rng.normal(0.0, 8.0, (50, 2))
        calls = []
        for x0 in starts:
            for eps in (0.02, 0.2):
                runs, spy = sweep_three(phi, hf, rates, x0,
                                        ok.PenalizedConfig(eps=eps))
                assert_same_runs(runs)
                assert not isinstance(runs[0][1], str)
                calls.append((spy.calls, spy.float_calls))
        # H comes from the float form alone, at each loop substep: from
        # outside at least through the delay
        assert max(calls)[0] == 0 and min(calls[-2:])[1] > 0

    def test_a_signed_zero_on_a_face_stays(self):
        # x0 = (-0.0, 0.5) on a box from 0: the projection's +0.0 makes g
        # = (-0.0, 0), exactly zero, and no input moves the state: the
        # stretches keep -0.0, and the loop's substeps before the delay
        # (from a point outside) match too
        phi = ok.indicator(ok.box([0.0, 0.0], [1.0, 1.0]), r0=0.1)
        hf = ok.rotation_blend_field(np.eye(2), np.diag([2.0, 0.5]),
                                     [1.0, 0.0], 0.0, c=2.0, b=5.1)
        cfg = ok.PenalizedConfig(eps=0.2)
        for x0, rates in (([-0.0, 0.5], np.full((50, 2), -0.0)),
                          ([-0.3, 1.2], np.zeros((50, 2))),
                          # g = (-0.0, < 0): H(x) g's first entry is
                          # +0.0, which keeps x0 at -0.0
                          ([-0.0, -0.3], np.full((50, 2), -0.0))):
            runs, _ = sweep_three(phi, hf, rates, x0, cfg)
            assert_same_runs(runs)
        assert np.signbit(sweep_three(phi, hf, np.full((50, 2), -0.0),
                                      [-0.0, 0.5], cfg)[0][0][0][:, 0]).all()

    @pytest.mark.parametrize("bad", ["climb", "fall", "nan", "inf"])
    def test_guard_breaches(self, bad):
        # a state climbing out of a small guard ball, one pushed out by a
        # steep fall in the loop, or a bad input: the same StabilityBreach
        # message and time on floats
        rng = np.random.default_rng(11)
        phi, hf = pair_case(rng)
        cfg, rates = ok.PenalizedConfig(eps=0.02), np.ones((50, 2))
        if bad == "climb":
            phi = ok.indicator(ok.box([-10.0, -10.0], [10.0, 10.0]), r0=0.1)
            cfg = ok.PenalizedConfig(eps=0.02, guard_radius=2.0)
            rates *= 30.0
        elif bad == "fall":
            cfg = ok.PenalizedConfig(eps=0.2, guard_radius=6.0)
            rates *= -300.0
        else:
            rates[6, 1] = getattr(np, bad)
        runs, _ = sweep_three(phi, hf, rates,
                              0.5 * (phi.domain.lo + phi.domain.hi), cfg)
        assert_same_runs(runs)
        assert runs[0][1].startswith("state norm ")

    def test_the_guard_test_near_the_ball_edge(self):
        # states outside the box, where the loop takes the first substep
        # and x0 x0 + x1 x1 and x.dot(x) round to different floats: with
        # guard^2 between the two the float loop decides as x.dot(x) does
        phi = ok.indicator(ok.box([0.0, 0.0], [1.0, 1.0]), r0=0.1)
        hf = ok.rotation_blend_field(np.eye(2), np.diag([2.0, 0.5]),
                                     [1.0, 0.0], 0.0, c=2.0, b=5.1)
        rng = np.random.default_rng(5)
        rates, found = np.zeros((5, 2)), 0
        for _ in range(2000):
            x0 = rng.uniform(1.5, 3.0, 2)
            runs, _ = sweep_three(phi, hf, rates, x0,
                                  ok.PenalizedConfig(eps=0.02))
            x1 = runs[1][0][1]
            a, b = sorted((float(x1[0] * x1[0] + x1[1] * x1[1]),
                           float(x1.dot(x1))))
            r = [c for c in (math.sqrt(a), float(np.nextafter(
                math.sqrt(a), np.inf))) if a <= c * c < b]
            if a == b or not r:
                continue
            runs, _ = sweep_three(phi, hf, rates, x0, ok.PenalizedConfig(
                eps=0.02, guard_radius=r[0]))
            assert_same_runs(runs)
            found += 1
            if found == 6:
                break
        assert found == 6

    @pytest.mark.parametrize("seed", range(3))
    def test_levels_with_a_drift_match_the_array_loop(self, seed,
                                                      monkeypatch):
        # whole solve_penalized levels on a sinusoid input, with a drift
        # that reads the state (filled on the substep grid) and a
        # constant one, with and without the float forms
        rng = np.random.default_rng(100 + seed)
        phi, hf = pair_case(rng, affine=seed == 1)
        x0 = phi.domain.lo + 0.3 * (phi.domain.hi - phi.domain.lo)
        m = sinusoid_path(rng.normal(0.0, 2.0, 2), period=0.4)
        drifts = [ok.affine_drift(rng.normal(0.0, 1.0, (2, 2)),
                                  rng.normal(0.0, 1.0, 2), fsharp=10.0),
                  ok.constant_drift(rng.normal(0.0, 1.0, 2))]
        for drift in drifts:
            for eps in (0.1, 0.013):
                cfg = ok.PenalizedConfig(eps=eps)
                mm = ok.mollify(m, eps)
                sol = ok.solve_penalized(phi, hf, drift, mm, x0, cfg)
                with monkeypatch.context() as mp:
                    for name in ("make_resolvent", "make_field_eval"):
                        mp.setattr(solver, name, lambda *a, b=getattr(
                            solver, name): arrays_only(b(*a)))
                    ref = ok.solve_penalized(phi, hf, drift, mm, x0, cfg)
                assert_bits(sol.x_quad, ref.x_quad)
                assert_bits(sol.k_quad, ref.k_quad)
                assert sol.diagnostics == ref.diagnostics
