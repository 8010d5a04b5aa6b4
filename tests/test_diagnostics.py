"""Diagnostics tests against closed-form reflected solutions."""

import math
import os

import numpy as np
import pytest

import oblique_skorohod as ok
from oblique_skorohod import convex
from oblique_skorohod.diagnostics import _vi_plan, _vi_worst
from oblique_skorohod.paths import _SUM_BLOCK

from conftest import (DT, default_windows, halfline_set, make_bundles,
                      ramp_path, solve_bundle)


def halfline_phi() -> ok.ConvexFunction:
    return ok.indicator(halfline_set(), r0=0.5, h0=0.5)


def flipped_k(sol: ok.SkorohodSolution) -> ok.SkorohodSolution:
    """Same states, reflection term with the wrong sign."""
    return ok.SkorohodSolution(
        x=sol.x,
        k=ok.SampledPath(t0=0.0, dt=sol.k.dt, values=-sol.k.values,
                         extension="zero"),
        tv_k=sol.tv_k, eps=sol.eps, system_id=sol.system_id,
        refinement_history=sol.refinement_history,
        diagnostics=dict(sol.diagnostics), t_quad=sol.t_quad,
        x_quad=sol.x_quad, k_quad=None if sol.k_quad is None else -sol.k_quad,
        input_m=sol.input_m)


class TestViResidual:
    def test_pinned_oracle_exact_values(self):
        # x = 0, k = -t/2: the pairing with y = 1 integrates to -T/2
        sol = ok.oracle_halfline(2.0, 0.0, ramp_path(-1.0))
        phi = halfline_phi()
        out = ok.vi_residual(sol, phi, test_points=[np.array([1.0])])
        assert abs(out["residual"] + 0.5) < 1e-10
        assert out["tol_vi"] == 1e-4 * (1.0 + sol.tv_k)
        out0 = ok.vi_residual(sol, phi, test_points=[np.array([0.0])])
        assert out0["residual"] == 0.0

    def test_window_restriction(self):
        sol = ok.oracle_halfline(2.0, 0.0, ramp_path(-1.0))
        out = ok.vi_residual(sol, halfline_phi(), windows=[(0.0, 0.5)],
                             test_points=[np.array([1.0])])
        assert abs(out["residual"] + 0.25) < 1e-10
        assert out["worst_window"] == (0.0, 0.5)

    def test_an_off_mesh_window_is_labelled_by_its_nodes(self):
        # 0.5004 rounds to the node at 0.5 on the 1e-3 mesh: the residual
        # is summed over (0, 0.5), and the window says so
        sol = ok.oracle_halfline(2.0, 0.0, ramp_path(-1.0))
        out = ok.vi_residual(sol, halfline_phi(), windows=[(0.0, 0.5004)],
                             test_points=[np.array([1.0])])
        assert abs(out["residual"] + 0.25) < 1e-10
        assert out["worst_window"] == (0.0, 0.5)

    def test_sign_flip_is_detected(self):
        sol = ok.oracle_halfline(2.0, 0.0, ramp_path(-1.0))
        bad = flipped_k(sol)
        out = ok.vi_residual(bad, halfline_phi(),
                             test_points=[np.array([1.0])])
        assert out["residual"] > 0.4

    def test_free_motion_residual_vanishes(self):
        # k = 0 and an indicator phi: every window and test point gives 0
        sol = ok.oracle_halfline(2.0, 0.0, ramp_path(1.0))
        out = ok.vi_residual(sol, halfline_phi(),
                             windows=default_windows(1.0),
                             test_points=[np.array([0.0]), np.array([0.7])])
        assert out["residual"] == 0.0

    def test_refined_solution_with_blends(self):
        b = [b for b in make_bundles() if b.name == "halfline"][0]
        sol = solve_bundle(b)
        out = ok.vi_residual(sol, b.phi, windows=default_windows(1.0),
                             test_points=b.test_points, u0=b.u0)
        assert out["residual"] <= out["tol_vi"]
        assert out["worst_test_fn"] is not None
        assert out["worst_window"] is not None

    def test_bad_inputs(self):
        sol = ok.oracle_halfline(2.0, 0.0, ramp_path(-1.0))
        phi = halfline_phi()
        with pytest.raises(ValueError, match="outside the domain"):
            ok.vi_residual(sol, phi, test_points=[np.array([-1.0])])
        with pytest.raises(ValueError, match="no test paths"):
            ok.vi_residual(sol, phi)
        with pytest.raises(ValueError, match="window"):
            ok.vi_residual(sol, phi, windows=[(0.0, 2.0)],
                           test_points=[np.array([1.0])])

    def test_a_point_of_another_width_is_rejected(self):
        # on box-rotation a 1-wide point was broadcast against the 2-D box
        # and gave a residual
        sc = ok.load_scenario(os.path.join(os.path.dirname(__file__),
                                           os.pardir, "scenarios",
                                           "box-rotation.json"))
        cfg = ok.PenalizedConfig(eps=0.1)
        sol = ok.solve_penalized(sc.phi, sc.hf, sc.f, ok.mollify(sc.m, 0.1),
                                 sc.x0, cfg)
        with pytest.raises(ValueError, match=r"test point \[0.5\] has "
                                             "dimension 1, the domain 2"):
            ok.vi_residual(sol, sc.phi, test_points=[np.array([0.5])])


def per_path_vi_worst(phi, plan, xq, kq):
    """_vi_worst one path at a time: each pairing an np.einsum("ij,ij->i")
    over the path's own slices, and each sum along the mesh taken block by
    block (blocks of _SUM_BLOCK mesh indices from index 0, each one np.sum,
    added in order): the reference the stacked pass must match."""
    def blocked(vals, a, lo, hi):
        # the sum of the entries at mesh indices lo .. hi - 1, vals[0]
        # being index a
        total = 0.0
        while lo < hi:
            end = min(hi, (lo // _SUM_BLOCK + 1) * _SUM_BLOCK)
            total = total + vals[lo - a:end - a].sum()
            lo = end
        return total

    def trapz(vals, i0, i1):
        return plan.dtq * (blocked(vals, 0, i0, i1 + 1)
                           - 0.5 * (vals[i0] + vals[i1]))

    out = []
    for x, k in zip(xq, kq):
        xp = convex.project_set(phi.domain, x)
        phi_x = ok.eval_fn(phi, xp)
        dk = np.diff(k, axis=0)
        blends = []
        for label, theta in plan.blends:
            ys = convex.project_set(phi.domain,
                                    (1.0 - theta) * xp + theta * plan.u0)
            blends.append((label, ys, ok.eval_fn(phi, ys)))
        worst = (-math.inf, None, None)
        for window, i0, i1, consts in plan.spans:
            int_phi_x = trapz(phi_x, i0, i1)
            for label, y, int_phi_y in consts + [
                    (label, ys[i0:i1], trapz(phi_y, i0, i1))
                    for label, ys, phi_y in blends]:
                pair = blocked(np.einsum("ij,ij->i", y - x[i0:i1],
                                         dk[i0:i1]), i0, i0, i1)
                res = float(pair + int_phi_x - int_phi_y)
                if res > worst[0]:
                    worst = (res, window, label)
        out.append(worst)
    return out


class TestStackedViPairing:
    @pytest.mark.parametrize("name", ["halfline", "box-diag", "quad-box",
                                      "wedge"])
    def test_every_path_matches_its_own_pairing(self, name):
        b = [b for b in make_bundles() if b.name == name][0]
        rng = np.random.default_rng(12)
        for n_paths, T in ((1, 9), (7, 301), (16, 650)):
            tq = np.arange(T) / (T - 1)
            xq = rng.normal(0.5, 1.0, size=(n_paths, T, b.phi.dim))
            kq = np.cumsum(rng.normal(0.0, 0.1, size=xq.shape), axis=1)
            plan = _vi_plan(b.phi, tq, default_windows(1.0)
                            if T > 9 else None, b.test_points, b.u0)
            got = _vi_worst(b.phi, plan, xq, kq)
            assert got == per_path_vi_worst(b.phi, plan, xq, kq)
            assert all(type(r) is float for r, _, _ in got)


class TestMonotonicityGap:
    def test_identical_solutions_give_zero(self):
        sol = ok.oracle_halfline(2.0, 0.0, ramp_path(-1.0))
        assert ok.monotonicity_gap(sol, sol) == 0.0

    def test_oracle_pair_positive_gap(self):
        # same system, different starts: the pairing is the known integral
        # of (0.3 - t)/2 over [0, 0.3]
        m = ramp_path(-1.0)
        s1 = ok.oracle_halfline(2.0, 0.0, m)
        s2 = ok.oracle_halfline(2.0, 0.3, m)
        gap = ok.monotonicity_gap(s1, s2)
        assert gap >= 0.0
        assert abs(gap - 0.0225) < 2e-3

    def test_penalized_pair_same_width(self):
        phi = halfline_phi()
        hf = ok.constant_field([[2.0]], c=2.0)
        eps = 0.01
        cfg = ok.PenalizedConfig(eps=eps)
        s1 = ok.solve_penalized(phi, hf, ok.zero_drift(1),
                                ok.mollify(ramp_path(-1.0), eps), [0.0], cfg)
        s2 = ok.solve_penalized(phi, hf, ok.zero_drift(1),
                                ok.mollify(ramp_path(-1.5), eps), [0.0], cfg)
        gap = ok.monotonicity_gap(s1, s2)
        assert gap >= -1e-6 * (1.0 + s1.tv_k + s2.tv_k)

    def test_different_widths_fall_back_to_the_grid(self):
        phi = halfline_phi()
        hf = ok.constant_field([[2.0]], c=2.0)
        s1 = ok.solve_penalized(phi, hf, ok.zero_drift(1),
                                ok.mollify(ramp_path(-1.0), 0.01), [0.0],
                                ok.PenalizedConfig(eps=0.01))
        s2 = ok.solve_penalized(phi, hf, ok.zero_drift(1),
                                ok.mollify(ramp_path(-1.5), 0.02), [0.0],
                                ok.PenalizedConfig(eps=0.02))
        gap = ok.monotonicity_gap(s1, s2)
        assert gap >= -1e-6 * (1.0 + s1.tv_k + s2.tv_k)

    def test_different_systems_rejected(self):
        m = ramp_path(-1.0)
        s1 = ok.oracle_halfline(2.0, 0.0, m)
        s2 = ok.oracle_halfline(1.0, 0.0, m)
        with pytest.raises(ValueError, match="different"):
            ok.monotonicity_gap(s1, s2)

    def test_incompatible_grids_rejected(self):
        s1 = ok.oracle_halfline(2.0, 0.0, ramp_path(-1.0))
        s2 = ok.oracle_halfline(2.0, 0.0, ramp_path(-1.0, n=500))
        with pytest.raises(ok.GridMismatch):
            ok.monotonicity_gap(s1, s2)


class TestAnnexB:
    def test_halfline_oracle_closed_form(self):
        # tv k = 0.5, u0 = 1: lhs = r0/2, rhs = sum (0 - 1) dk = 1/2
        sol = ok.oracle_halfline(2.0, 0.0, ramp_path(-1.0))
        out = ok.annexB_bound(sol, halfline_phi(), [1.0], r0=0.5)
        assert abs(out["lhs"] - 0.25) < 1e-10
        assert abs(out["rhs"] - 0.5) < 1e-10
        assert abs(out["margin"] - 0.25) < 1e-10
        assert out["phi_sharp"] == 0.0

    def test_quadratic_part_enters_phi_sharp(self):
        b = [b for b in make_bundles() if b.name == "quad-halfline"][0]
        sol = solve_bundle(b)
        out = ok.annexB_bound(sol, b.phi, [1.0], r0=0.5)
        assert abs(out["phi_sharp"] - 1.125) < 1e-9
        assert out["margin"] > 0.0

    def test_boundary_u0_rejected(self):
        sol = ok.oracle_halfline(2.0, 0.0, ramp_path(-1.0))
        with pytest.raises(ValueError, match="not interior"):
            ok.annexB_bound(sol, halfline_phi(), [0.3], r0=0.5)
        with pytest.raises(ValueError, match="r0"):
            ok.annexB_bound(sol, halfline_phi(), [1.0], r0=0.0)


class TestConvergenceSlope:
    def test_synthetic_orders(self):
        eps = [0.1, 0.05, 0.025, 0.0125]
        lin = [(e, 3.0 * e) for e in eps]
        half = [(e, 2.0 * np.sqrt(e)) for e in eps]
        assert abs(ok.convergence_slope(lin) - 1.0) < 1e-12
        assert abs(ok.convergence_slope(half) - 0.5) < 1e-12

    def test_leading_none_is_ignored(self):
        hist = [(0.1, None), (0.05, 0.05), (0.025, 0.025), (0.0125, 0.0125)]
        assert abs(ok.convergence_slope(hist) - 1.0) < 1e-12

    def test_needs_three_positive_gaps(self):
        with pytest.raises(ValueError, match="at least 3"):
            ok.convergence_slope([(0.1, None), (0.05, 0.01), (0.025, 0.005)])
        with pytest.raises(ValueError, match="non-positive"):
            ok.convergence_slope([(0.1, 0.1), (0.05, 0.0), (0.025, 0.01)])

    def test_ladder_slope_in_range(self):
        b = [b for b in make_bundles() if b.name == "halfline"][0]
        sol = solve_bundle(b, tol=0.0, max_halvings=5)
        slope = ok.convergence_slope(sol.refinement_history)
        assert 0.4 <= slope <= 1.2


class TestAprioriMonitor:
    def test_ratio_and_echo(self):
        hist = [(0.1, None), (0.05, 0.01)]
        out = ok.apriori_monitor(hist, {"tv_k": [0.5, 0.5], "norm_m": 1.0})
        assert out["tv_ratio"] == 1.0
        assert out["tv_k_levels"] == [0.5, 0.5]
        assert out["norm_m"] == 1.0
        assert out["eps_levels"] == [0.1, 0.05]

    def test_single_level_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            ok.apriori_monitor([(0.1, None)], {"tv_k": [0.5], "norm_m": 1.0})

    def test_scaled_family_ordering(self):
        hist = [(0.1, None), (0.05, 0.01)]
        fam = [{"lam": 4.0, "norm_m": 4.0, "tv_k": 2.0},
               {"lam": 1.0, "norm_m": 1.0, "tv_k": 0.5},
               {"lam": 2.0, "norm_m": 2.0, "tv_k": 1.0}]
        out = ok.apriori_monitor(hist, {"tv_k": [0.5, 0.5], "norm_m": 1.0},
                                 scaled_family=fam)
        assert out["tv_nondecreasing_in_lam"] is True
        assert [r["lam"] for r in out["scaled_family"]] == [1.0, 2.0, 4.0]
        bad = [{"lam": 1.0, "norm_m": 1.0, "tv_k": 0.5},
               {"lam": 2.0, "norm_m": 2.0, "tv_k": 0.3}]
        out2 = ok.apriori_monitor(hist, {"tv_k": [0.5, 0.5], "norm_m": 1.0},
                                  scaled_family=bad)
        assert out2["tv_nondecreasing_in_lam"] is False

    def test_vanishing_reflection_ratio_is_one(self):
        hist = [(0.1, None), (0.05, 0.01)]
        out = ok.apriori_monitor(hist, {"tv_k": [0.0, 0.0], "norm_m": 0.0})
        assert out["tv_ratio"] == 1.0


def test_default_windows():
    assert default_windows(1.0) == [(0.0, 1.0), (0.0, 0.5), (0.5, 1.0)]
