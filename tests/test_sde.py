"""Stochastic layer tests: generators, window-averaged inputs, sample paths."""

import dataclasses
import functools
import os
import tracemalloc
import warnings

import numpy as np
import pytest

import oblique_skorohod as ok
from oblique_skorohod import convex, noise, sde

from conftest import halfline_set, nan_drift


def halfline_phi() -> ok.ConvexFunction:
    return ok.indicator(halfline_set(), r0=0.5, h0=0.5)


def step_path(cells: int, dt: float, jump_cell: int) -> ok.SampledPath:
    """Unit increment at one cell, zero elsewhere (a basis driving path)."""
    vals = np.zeros((cells + 1, 1))
    vals[jump_cell + 1:] = 1.0
    return ok.SampledPath(t0=0.0, dt=dt, values=vals, extension="zero")


def window_weights(cells: int, dt: float, n: int) -> np.ndarray:
    """Kernel weights of the terminal window average, read off basis paths."""
    f0 = ok.zero_drift(1)
    g1 = ok.constant_diffusion([[1.0]])
    xh = ok.SampledPath(t0=0.0, dt=dt, values=np.zeros((cells + 1, 1)),
                        extension="frozen")
    w = np.empty(cells)
    for l in range(cells):
        m = ok.build_Mn(f0, g1, xh, step_path(cells, dt, l), n, halfline_phi())
        w[l] = m.values[-1, 0]
    return w


class TestGenerators:
    def test_generator_id(self):
        assert ok.GENERATOR_ID == "philox4x64-boxmuller-v1"

    def test_normals_deterministic(self):
        a = ok.standard_normals(7, 1000)
        b = ok.standard_normals(7, 1000)
        c = ok.standard_normals(8, 1000)
        np.testing.assert_array_equal(a, b)
        assert np.abs(a - c).max() > 0.1

    def test_normals_odd_count_and_moments(self):
        z = ok.standard_normals(123, 100001)
        assert z.shape == (100001,)
        n = z.size
        assert abs(z.mean()) < 3.0 / np.sqrt(n)
        assert abs(z.var() - 1.0) < 3.0 * np.sqrt(2.0 / n)
        assert np.isfinite(z).all()

    def test_brownian_shape_and_start(self):
        drv = ok.BrownianDriver(seed=5, dt=0.01, dims=3, horizon=1.0)
        b = ok.brownian_path(drv)
        assert b.values.shape == (101, 3)
        assert np.all(b.values[0] == 0.0)
        np.testing.assert_array_equal(b.values,
                                      ok.brownian_path(drv).values)

    def test_increment_variance(self):
        # 10_000 increments of variance dt, sample variance within 3 sigma
        dt = 1e-3
        drv = ok.BrownianDriver(seed=2718, dt=dt, dims=10, horizon=1.0)
        inc = np.diff(ok.brownian_path(drv).values, axis=0).ravel()
        assert inc.size == 10_000
        assert abs(inc.var() - dt) < 3.0 * np.sqrt(2.0 / inc.size) * dt

    def test_driver_validation(self):
        with pytest.raises(ValueError):
            ok.BrownianDriver(seed=-1, dt=0.01, dims=1, horizon=1.0)
        with pytest.raises(ValueError):
            ok.BrownianDriver(seed=2 ** 64, dt=0.01, dims=1, horizon=1.0)
        with pytest.raises(ValueError):
            ok.BrownianDriver(seed=1, dt=0.0, dims=1, horizon=1.0)
        with pytest.raises(ValueError):
            ok.BrownianDriver(seed=1, dt=0.01, dims=0, horizon=1.0)
        with pytest.raises(ok.GridMismatch):
            ok.BrownianDriver(seed=1, dt=0.01, dims=1, horizon=1.005)


class TestBuildMn:
    def test_drift_only_reproduces_the_integral(self):
        dt = 1.0 / 64.0
        cells = 64
        f = ok.constant_drift([0.7])
        g = ok.zero_diffusion(1, 1)
        xh = ok.SampledPath(t0=0.0, dt=dt, values=np.full((cells + 1, 1), 0.5),
                            extension="frozen")
        b = ok.brownian_path(ok.BrownianDriver(seed=1, dt=dt, dims=1,
                                               horizon=1.0))
        m = ok.build_Mn(f, g, xh, b, 8, halfline_phi())
        t = dt * np.arange(cells + 1)
        np.testing.assert_allclose(m.values[:, 0], 0.7 * t, atol=1e-13)

    def test_zero_coefficients_give_zero_input(self):
        dt = 1.0 / 32.0
        cells = 32
        xh = ok.SampledPath(t0=0.0, dt=dt, values=np.zeros((cells + 1, 1)),
                            extension="frozen")
        b = ok.brownian_path(ok.BrownianDriver(seed=3, dt=dt, dims=1,
                                               horizon=1.0))
        m = ok.build_Mn(ok.zero_drift(1), ok.zero_diffusion(1, 1), xh, b, 4,
                        halfline_phi())
        assert np.all(m.values == 0.0)

    def test_identity_diffusion_is_a_trailing_average(self):
        # g = 1: M(t) is the rectangle-rule average of B over [t - 1/n, t]
        dt = 1.0 / 64.0
        cells = 64
        n = 8
        win = 8
        b = ok.brownian_path(ok.BrownianDriver(seed=11, dt=dt, dims=1,
                                               horizon=1.0))
        xh = ok.SampledPath(t0=0.0, dt=dt, values=np.zeros((cells + 1, 1)),
                            extension="frozen")
        m = ok.build_Mn(ok.zero_drift(1), ok.constant_diffusion([[1.0]]), xh,
                        b, n, halfline_phi())
        bv = b.values[:, 0]
        for j in range(cells + 1):
            lo = max(0, j - win)
            direct = bv[lo:j].sum() / win
            assert abs(m.values[j, 0] - direct) < 1e-12

    def test_kernel_weights_shape(self):
        # weights ramp up linearly over the last window and are 1/win flat
        # before it; they vanish at and beyond the terminal cell index
        dt = 1.0 / 16.0
        cells = 16
        n = 4
        win = 4
        w = window_weights(cells, dt, n)
        for l in range(cells):
            inside = min(max(cells - 1 - l, 0), win)
            assert abs(w[l] - inside / win) < 1e-12

    def test_terminal_variance_matches_kernel(self):
        # empirical Var M(T) over seeds against sum_l w_l^2 dt
        dt = 1.0 / 16.0
        cells = 16
        n = 4
        w = window_weights(cells, dt, n)
        target = float((w ** 2).sum() * dt)
        f0 = ok.zero_drift(1)
        g1 = ok.constant_diffusion([[1.0]])
        xh = ok.SampledPath(t0=0.0, dt=dt, values=np.zeros((cells + 1, 1)),
                            extension="frozen")
        phi = halfline_phi()
        vals = np.empty(2000)
        for s in range(vals.size):
            b = ok.brownian_path(ok.BrownianDriver(seed=s, dt=dt, dims=1,
                                                   horizon=1.0))
            vals[s] = ok.build_Mn(f0, g1, xh, b, n, phi).values[-1, 0]
        n_s = vals.size
        sd = target * np.sqrt(2.0 / n_s)
        assert abs(vals.var() - target) < 3.0 * sd
        assert abs(vals.mean()) < 3.0 * np.sqrt(target / n_s)
        # Gaussian tail mass at 2 sigma
        frac = float(np.mean(np.abs(vals) > 2.0 * np.sqrt(target)))
        assert abs(frac - 0.0455) < 0.02

    def test_drift_of_another_width_is_rejected(self):
        # a 1-wide drift against a 2-D state history was broadcast over both
        # coordinates; build_Mn now makes the drivers' dimension check
        dt = 1.0 / 64.0
        xh = ok.SampledPath(t0=0.0, dt=dt, values=np.full((65, 2), 0.5),
                            extension="frozen")
        b = ok.brownian_path(ok.BrownianDriver(seed=1, dt=dt, dims=2,
                                               horizon=1.0))
        phi = ok.indicator(ok.box([0.0, 0.0], [1.0, 1.0]), r0=0.2)
        with pytest.raises(ValueError, match="dimension mismatch between "
                                             "phi, f, g, x0"):
            ok.build_Mn(ok.constant_drift([0.3]),
                        ok.constant_diffusion(np.eye(2)), xh, b, 8, phi)

    def test_grid_mismatch(self):
        dt = 1e-3
        cells = 1000
        xh = ok.SampledPath(t0=0.0, dt=dt, values=np.zeros((cells + 1, 1)),
                            extension="frozen")
        b = ok.brownian_path(ok.BrownianDriver(seed=1, dt=dt, dims=1,
                                               horizon=1.0))
        with pytest.raises(ok.GridMismatch):
            ok.build_Mn(ok.zero_drift(1), ok.constant_diffusion([[1.0]]),
                        xh, b, 3, halfline_phi())
        xh_short = ok.SampledPath(t0=0.0, dt=dt, values=np.zeros((501, 1)),
                                  extension="frozen")
        with pytest.raises(ok.GridMismatch):
            ok.build_Mn(ok.zero_drift(1), ok.constant_diffusion([[1.0]]),
                        xh_short, b, 10, halfline_phi())
        with pytest.raises(ValueError):
            ok.build_Mn(ok.zero_drift(1), ok.constant_diffusion([[1.0]]),
                        xh, b, 0, halfline_phi())


def _point_drift(f, t, x):
    """f(t, x) at one point, as the catalog evaluated it before the stacked
    form.  Kept as the reference for the row contract."""
    if f.kind == "zero":
        return np.zeros(f.dim)
    if f.kind == "constant":
        return f.b0
    val = f.A @ x + f.b0
    if f.kind == "affine":
        return val
    return f.profile.eval(t) * val


def _point_diffusion(g, x):
    """g(t, x) at one point, as the catalog evaluated it before the stacked
    form, Frobenius clamp included."""
    if g.kind == "zero":
        return np.zeros((g.dim, g.noise_dim))
    if g.kind == "constant":
        return g.matrix
    m = g.base + np.tensordot(x, g.gains, axes=(0, 0))
    nrm = float(np.linalg.norm(m, "fro"))
    if nrm > g.gsharp:
        m = m * (g.gsharp / nrm)
    return m


def _cellwise_Mn(f, g, phi, x_hist, db, dt, win):
    """M by the per-cell recurrence that the block builder replaced: one
    projection and one f/g evaluation per cell.  Kept as the reference."""
    cells, d = db.shape[0], x_hist.shape[1]
    ito, drift, run, values = (np.zeros((cells + 1, d)) for _ in range(4))
    for i in range(cells):
        xd = x_hist[i - win] if i >= win else x_hist[0]
        px = ok.project_set(phi.domain, xd)
        t = i * dt
        ito[i + 1] = ito[i] + _point_diffusion(g, px) @ db[i]
        if not f.is_zero():
            drift[i + 1] = drift[i] + dt * _point_drift(f, t, px)
        run[i + 1] = run[i] + ito[i]
        lo = i + 1 - win if i + 1 - win > 0 else 0
        values[i + 1] = drift[i + 1] + (run[i + 1] - run[lo]) / win
    return values


def _domain_phi(kind: str, d: int) -> ok.ConvexFunction:
    if kind == "halfline":
        # one face: the half-line in 1-D, a half-space above
        return ok.indicator(ok.halfspace_intersection(
            [-np.eye(d)[0]], [0.0]), r0=0.5, h0=0.5)
    if kind == "box":
        return ok.indicator(ok.box(np.zeros(d), np.ones(d)), r0=0.1)
    if kind == "ball":
        return ok.indicator(ok.ball(np.zeros(d), 1.0), r0=0.3)
    # x >= 0 and sum(x) <= 1.5: d + 1 faces, acute corners for d >= 2
    return ok.indicator(ok.halfspace_intersection(
        np.vstack([-np.eye(d), np.ones((1, d))]), np.r_[np.zeros(d), 1.5]),
        r0=0.05, h0=0.3)


def _drift_catalog(d: int, rng) -> list:
    A = rng.normal(size=(d, d))
    b0 = rng.normal(size=d)
    return [
        ok.zero_drift(d),
        ok.constant_drift(b0),
        ok.affine_drift(A, b0, fsharp=10.0),
        ok.time_modulated_drift(A, b0, ok.TimeProfile(
            kind="sinusoid", amplitude=1.3, period=0.3, phase=0.2),
            horizon=1.0, fsharp=10.0),
        ok.time_modulated_drift(A, b0, ok.TimeProfile(kind="ramp", slope=-2.0),
                                horizon=1.0, fsharp=10.0),
        ok.time_modulated_drift(A, b0, ok.TimeProfile(value=0.7),
                                horizon=1.0, fsharp=10.0),
    ]


def _diffusion_catalog(d: int, k: int, rng) -> list:
    base = rng.normal(size=(d, k))
    # gsharp at the base norm: the clamp acts on part of the rows only
    return [
        ok.zero_diffusion(d, k),
        ok.constant_diffusion(base),
        ok.affine_diffusion(base, rng.normal(size=(d, d, k)),
                            gsharp=float(np.linalg.norm(base))),
    ]


DOMAINS = ["halfline", "box", "ball", "polytope"]


class TestBlockBuilder:
    DT = 1.0 / 192.0

    @pytest.mark.parametrize("cells", [130, 131])
    @pytest.mark.parametrize("win", [1, 3, 64])
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_matches_the_cellwise_recurrence(self, domain, win, cells):
        # blocks of win + 1 cells: 130 cells are a multiple of the block at
        # win = 1 and 64, 131 cells of none
        rng = np.random.default_rng([win, cells, DOMAINS.index(domain)])
        n = int(round(1.0 / (win * self.DT)))
        for d in (1, 2, 3):
            phi = _domain_phi(domain, d)
            # states straddling the domain, so the projection acts on some
            xs = 0.5 + 0.8 * rng.normal(size=(cells + 1, d))
            xh = ok.SampledPath(t0=0.0, dt=self.DT, values=xs,
                                extension="frozen")
            for k in (1, 2):
                bv = np.vstack([np.zeros((1, k)), np.cumsum(
                    rng.normal(scale=np.sqrt(self.DT), size=(cells, k)), 0)])
                b = ok.SampledPath(t0=0.0, dt=self.DT, values=bv,
                                   extension="zero")
                # every drift kind, each diffusion kind twice
                for f, g in zip(_drift_catalog(d, rng),
                                2 * _diffusion_catalog(d, k, rng)):
                    want = _cellwise_Mn(f, g, phi, xs, np.diff(bv, axis=0),
                                        self.DT, win)
                    got = ok.build_Mn(f, g, xh, b, n, phi)
                    np.testing.assert_array_equal(got.values, want)

    def test_stacked_coefficients_match_point_calls(self):
        rng = np.random.default_rng(2024)
        for d in (1, 2, 3):
            xs = 0.5 + rng.normal(size=(200, d))
            ts = rng.uniform(0.0, 1.0, size=200)
            for f in _drift_catalog(d, rng):
                want = [_point_drift(f, t, x) for t, x in zip(ts, xs)]
                np.testing.assert_array_equal(f.eval(ts, xs), want)
                # a point is a one-row stack
                np.testing.assert_array_equal(
                    [f.eval(t, x) for t, x in zip(ts, xs)], want)
            for k in (1, 2):
                for g in _diffusion_catalog(d, k, rng):
                    want = [_point_diffusion(g, x) for x in xs]
                    rows = g.eval(ts, xs)
                    assert rows.shape == (200, d, k)
                    np.testing.assert_array_equal(rows, want)
                    np.testing.assert_array_equal(
                        [g.eval(t, x) for t, x in zip(ts, xs)], want)
                    # the stacked products of the window input's Ito sums
                    db = rng.normal(size=(200, k))
                    np.testing.assert_array_equal(
                        (rows @ db[:, :, None])[:, :, 0],
                        [w @ b for w, b in zip(want, db)])

def svi_inputs(dt=1.0 / 64.0, sigma=0.3):
    phi = halfline_phi()
    hf = ok.constant_field([[1.0]], c=1.0)
    f = ok.zero_drift(1)
    g = ok.constant_diffusion([[sigma]])
    return phi, hf, f, g


class TestSviPath:
    def test_deterministic_per_seed(self):
        phi, hf, f, g = svi_inputs()
        drv = ok.BrownianDriver(seed=99, dt=1.0 / 64.0, dims=1, horizon=1.0)
        s1 = ok.solve_svi_path(phi, hf, f, g, [1.0], drv, 8)
        s2 = ok.solve_svi_path(phi, hf, f, g, [1.0], drv, 8)
        np.testing.assert_array_equal(s1.x.values, s2.x.values)
        np.testing.assert_array_equal(s1.k.values, s2.k.values)
        drv2 = ok.BrownianDriver(seed=100, dt=1.0 / 64.0, dims=1, horizon=1.0)
        s3 = ok.solve_svi_path(phi, hf, f, g, [1.0], drv2, 8)
        assert np.abs(s1.x.values - s3.x.values).max() > 1e-6

    def test_default_width_is_the_window(self):
        phi, hf, f, g = svi_inputs()
        drv = ok.BrownianDriver(seed=1, dt=1.0 / 64.0, dims=1, horizon=1.0)
        sol = ok.solve_svi_path(phi, hf, f, g, [1.0], drv, 8)
        assert sol.eps == 1.0 / 8.0
        assert sol.diagnostics["window_cells"] == 8
        assert sol.diagnostics["generator"] == ok.GENERATOR_ID
        assert sol.diagnostics["seed"] == 1

    @pytest.mark.parametrize("n", [2.5, "8", True])
    def test_window_count_is_never_truncated(self, n):
        # 1/2.5 is 160 cells of dt = 1/400: a grid multiple, and no count
        phi, hf, f, g = svi_inputs()
        drv = ok.BrownianDriver(seed=1, dt=1.0 / 400.0, dims=1, horizon=1.0)
        with pytest.raises(ValueError, match="n must be an integer"):
            ok.solve_svi_path(phi, hf, f, g, [1.0], drv, n)

    def test_input_path_reproducible_from_states(self):
        # feeding the published states back through the input builder
        # reproduces the input the sweep actually used, bit for bit
        phi, hf, f, g = svi_inputs()
        f = ok.constant_drift([-0.4])
        drv = ok.BrownianDriver(seed=31, dt=1.0 / 64.0, dims=1, horizon=1.0)
        sol = ok.solve_svi_path(phi, hf, f, g, [1.0], drv, 8)
        b = ok.brownian_path(drv)
        m = ok.build_Mn(f, g, sol.x, b, 8, phi)
        np.testing.assert_array_equal(m.values, sol.input_m.values)

    def test_injected_path_matches_driver_route(self):
        phi, hf, f, g = svi_inputs()
        drv = ok.BrownianDriver(seed=77, dt=1.0 / 64.0, dims=1, horizon=1.0)
        s1 = ok.solve_svi_path(phi, hf, f, g, [1.0], drv, 8)
        s2 = ok.solve_svi_path(phi, hf, f, g, [1.0], ok.brownian_path(drv), 8)
        np.testing.assert_array_equal(s1.x.values, s2.x.values)
        assert s2.diagnostics["seed"] is None

    def test_causal_dependence_on_the_noise(self):
        # tampering with increments after cell i0 cannot move the state
        # at or before i0: the sweep only reads the past
        phi, hf, f, g = svi_inputs()
        drv = ok.BrownianDriver(seed=13, dt=1.0 / 64.0, dims=1, horizon=1.0)
        b1 = ok.brownian_path(drv)
        i0 = 40
        v2 = b1.values.copy()
        v2[i0 + 1:] += 0.5
        b2 = ok.SampledPath(t0=0.0, dt=b1.dt, values=v2, extension="zero")
        s1 = ok.solve_svi_path(phi, hf, f, g, [1.0], b1, 8)
        s2 = ok.solve_svi_path(phi, hf, f, g, [1.0], b2, 8)
        np.testing.assert_array_equal(s1.x.values[:i0 + 1],
                                      s2.x.values[:i0 + 1])
        assert np.abs(s1.x.values[i0 + 1:] - s2.x.values[i0 + 1:]).max() > 1e-9

    def test_zero_noise_reduces_to_the_deterministic_sweep(self):
        # g = 0 and constant drift on a dyadic grid: bit-identical to the
        # single-level deterministic solve fed the zero input path
        dt = 1.0 / 512.0
        cells = 512
        phi = halfline_phi()
        hf = ok.constant_field([[1.0]], c=1.0)
        f = ok.constant_drift([-1.0])
        g = ok.zero_diffusion(1, 1)
        drv = ok.BrownianDriver(seed=42, dt=dt, dims=1, horizon=1.0)
        svi = ok.solve_svi_path(phi, hf, f, g, [0.5], drv, 8)
        m0 = ok.SampledPath(t0=0.0, dt=dt, values=np.zeros((cells + 1, 1)),
                            extension="zero")
        det = ok.solve_penalized(phi, hf, f, m0, [0.5],
                                 ok.PenalizedConfig(eps=svi.eps))
        np.testing.assert_array_equal(svi.x.values, det.x.values)
        np.testing.assert_array_equal(svi.k.values, det.k.values)

    def test_feasibility_bound_and_reflection(self):
        # noise pushes against the constraint; defect obeys the eps bound
        phi, hf, f, g = svi_inputs(sigma=1.0)
        drv = ok.BrownianDriver(seed=7, dt=1.0 / 64.0, dims=1, horizon=1.0)
        sol = ok.solve_svi_path(phi, hf, f, g, [0.2], drv, 8)
        d = sol.diagnostics
        assert d["max_feasibility_defect"] <= d["feasibility_bound"] + 1e-12
        assert sol.tv_k >= 0.0

    def test_guard_breach_reports_seed(self):
        phi, hf, f, g = svi_inputs()
        drv = ok.BrownianDriver(seed=5, dt=1.0 / 64.0, dims=1, horizon=1.0)
        cfg = ok.PenalizedConfig(eps=1.0 / 8.0, guard_radius=0.5)
        with pytest.raises(ok.StabilityBreach, match="seed=5"):
            ok.solve_svi_path(phi, hf, f, g, [1.0], drv, 8, cfg)

    def test_nan_state_breaches_the_guard(self):
        phi, hf, _, g = svi_inputs()
        drv = ok.BrownianDriver(seed=5, dt=1.0 / 64.0, dims=1, horizon=1.0)
        with pytest.raises(ok.StabilityBreach,
                           match=r"state norm nan .*seed=5"):
            ok.solve_svi_path(phi, hf, nan_drift(1), g, [1.0], drv, 8)

    def test_dimension_checks(self):
        phi, hf, f, g = svi_inputs()
        drv = ok.BrownianDriver(seed=1, dt=1.0 / 64.0, dims=1, horizon=1.0)
        with pytest.raises(ValueError):
            ok.solve_svi_path(phi, hf, f, g, [1.0, 0.0], drv, 8)
        with pytest.raises(ValueError):
            ok.solve_svi_path(phi, hf, ok.zero_drift(2), g, [1.0], drv, 8)

    def test_noise_dimension_checked_before_the_sweep(self, monkeypatch):
        # two noise columns against a g with one: a ValueError naming both
        # numbers, from a driver or a given path, and no sweep runs
        swept = []
        monkeypatch.setattr(sde, "_sweep", lambda *a: swept.append(a))
        phi, hf, f, g = svi_inputs()
        drv = ok.BrownianDriver(seed=1, dt=1.0 / 64.0, dims=2, horizon=1.0)
        message = "noise dimension 2 does not match the 1 noise columns of g"
        for noise in (drv, ok.brownian_path(drv)):
            with pytest.raises(ValueError, match=message):
                ok.solve_svi_path(phi, hf, f, g, [1.0], noise, 8)
        assert swept == []


class TestMonteCarlo:
    def problem(self, **kw):
        phi, hf, f, g = svi_inputs()
        defaults = dict(phi=phi, hf=hf, f=f, g=g, x0=np.array([1.0]),
                        dt=1.0 / 64.0, horizon=1.0, n=8)
        defaults.update(kw)
        return ok.SviProblem(**defaults)

    def test_single_path_matches_direct_solve(self):
        p = self.problem()
        out = ok.monte_carlo(p, 1, base_seed=17)
        drv = ok.BrownianDriver(seed=17, dt=p.dt, dims=1, horizon=1.0)
        sol = ok.solve_svi_path(p.phi, p.hf, p.f, p.g, p.x0, drv, p.n)
        np.testing.assert_array_equal(out["mean_x"], sol.x.values)
        assert np.all(out["var_x"] == 0.0)
        assert out["seeds_ok"] == [17]
        assert out["n_ok"] == 1
        assert out["failures"] == []

    def test_seed_layout_and_collect(self):
        p = self.problem()
        out = ok.monte_carlo(p, 4, base_seed=100, collect_paths=True)
        assert out["seeds_ok"] == [100, 101, 102, 103]
        assert len(out["paths"]) == 4
        for seed, sol in zip(out["seeds_ok"], out["paths"]):
            assert sol.diagnostics["seed"] == seed

    @pytest.mark.parametrize("n_paths, base_seed, name", [
        (2.5, 1, "n_paths"), (4, 2.5, "base_seed"), (4, True, "base_seed")])
    def test_counts_are_never_truncated(self, n_paths, base_seed, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ok.monte_carlo(self.problem(), n_paths, base_seed)

    def test_integral_float_counts_are_accepted(self):
        out = ok.monte_carlo(self.problem(), 2.0, 7.0)
        assert out["seeds_ok"] == [7, 8]
        assert out["n_paths"] == 2 and out["base_seed"] == 7

    def test_zero_noise_has_zero_variance(self):
        p = self.problem(g=ok.zero_diffusion(1, 1),
                         f=ok.constant_drift([-0.5]))
        out = ok.monte_carlo(p, 3, base_seed=1)
        assert np.abs(out["var_x"]).max() == 0.0

    def test_noise_dimension_fails_every_path_before_the_sweep(
            self, monkeypatch):
        swept = []
        monkeypatch.setattr(sde, "_sweep", lambda *a: swept.append(a))
        with pytest.raises(ValueError, match="noise dimension 2 does not match"):
            ok.monte_carlo(self.problem(noise_dims=2), 3, base_seed=9)
        assert swept == []

    def test_a_problem_keeps_no_noise_width_of_its_own(self):
        # the noise is as wide as g has columns; a caller stating another
        # width is rejected as the problem is made
        assert "noise_dims" not in {
            f.name for f in dataclasses.fields(ok.SviProblem)}
        with pytest.raises(ValueError, match="noise dimension 2 does not "
                                             "match the 1 noise columns"):
            self.problem(noise_dims=2)
        assert "noise_dims" not in vars(self.problem(noise_dims=1))

    @pytest.mark.parametrize("kw, message", [
        ({"test_points": (np.array([0.5]),)},
         r"test point \[0.5\] has dimension 1, the domain 2"),
        ({"u0": [0.5]}, r"u0 \[0.5\] has dimension 1, the domain 2"),
        ({"u0": [5.0, 5.0]}, r"u0 \[5. 5.\] is outside the domain")])
    def test_points_of_another_width_or_outside_fail_before_the_sweep(
            self, monkeypatch, kw, message):
        # on a 2-D box a 1-wide test point was broadcast by contains and
        # nothing checked u0: each ran and reported max_vi_residual 0.0
        swept = []
        monkeypatch.setattr(sde, "_sweep", lambda *a: swept.append(a))
        p = self.problem(phi=ok.indicator(ok.box([0.0, 0.0], [1.0, 1.0]),
                                          r0=0.2),
                         hf=ok.constant_field(np.eye(2), c=1.0),
                         f=ok.zero_drift(2),
                         g=ok.constant_diffusion(0.3 * np.eye(2)),
                         x0=np.array([0.5, 0.5]), **kw)
        with pytest.raises(ValueError, match=message):
            ok.monte_carlo(p, 3, base_seed=9)
        assert swept == []

    def test_horizon_off_the_grid_fails_before_any_noise(self, monkeypatch):
        # a horizon of 64.5 cells fails the problem once, as GridMismatch,
        # before any path draws its noise
        drawn = []
        monkeypatch.setattr(noise, "_philox_key", drawn.append)
        with pytest.raises(ok.GridMismatch, match="horizon 1.0078125"):
            ok.monte_carlo(self.problem(horizon=1.0 + 1.0 / 128.0), 3, 9)
        assert drawn == []

    @pytest.mark.parametrize("base_seed", [-1, 2 ** 64 - 3])
    def test_seeds_outside_64_bits_fail_before_the_sweep(
            self, monkeypatch, base_seed):
        # seeds base_seed .. base_seed + 3: one of them would not fit
        swept = []
        monkeypatch.setattr(sde, "_sweep", lambda *a: swept.append(a))
        with pytest.raises(ValueError, match="must fit in 64 bits"):
            ok.monte_carlo(self.problem(), 4, base_seed)
        assert swept == []

    def test_the_last_64_bit_seeds_are_accepted(self):
        out = ok.monte_carlo(self.problem(), 2, 2 ** 64 - 2)
        assert out["seeds_ok"] == [2 ** 64 - 2, 2 ** 64 - 1]

    def test_all_paths_failing_raises(self):
        p = self.problem(cfg=ok.PenalizedConfig(eps=1.0 / 8.0,
                                                guard_radius=0.5))
        with pytest.raises(RuntimeError, match="every path failed"):
            ok.monte_carlo(p, 3, base_seed=9)

    def test_vi_residual_reported_with_test_points(self):
        p = self.problem(u0=np.array([1.0]),
                         test_points=(np.array([0.0]), np.array([2.0])))
        out = ok.monte_carlo(p, 2, base_seed=3)
        assert out["max_vi_residual"] is not None

    def test_reflected_mean_stays_nonnegative(self):
        # upward reflection keeps the ensemble mean of X(T) well above
        # the unconstrained Gaussian mean of 1 - no drift, sigma = 0.3
        p = self.problem()
        out = ok.monte_carlo(p, 200, base_seed=1000)
        assert out["n_ok"] == 200
        xT = out["mean_x"][-1, 0]
        assert xT >= 0.99
        assert out["max_feasibility_defect"] <= 1.0 / 8.0 * 5.0


def _scenario_problem() -> ok.SviProblem:
    sc = ok.load_scenario(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "scenarios", "halfline-svi.json"))
    return ok.SviProblem(phi=sc.phi, hf=sc.hf, f=sc.f, g=sc.g, x0=sc.x0,
                         dt=sc.dt, horizon=sc.horizon, n=sc.n_window,
                         u0=sc.u0, test_points=tuple(sc.test_points))


def _triangle_problem() -> ok.SviProblem:
    # the inputs of the golden 2-D polytope path: affine drift, affine-in-x
    # diffusion clamped at about half the nodes, 2-D noise
    tri = ok.halfspace_intersection([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                                    [0.0, 0.0, 1.5])
    gains = np.array([[[0.6, -0.2], [0.3, 0.5]], [[-0.4, 0.7], [0.2, -0.3]]])
    return ok.SviProblem(
        phi=ok.indicator(tri, r0=0.1, h0=0.3),
        hf=ok.constant_field([[1.5, 0.2], [0.2, 1.0]], c=2.0),
        f=ok.affine_drift([[-0.6, 0.3], [0.1, -0.4]], [-0.5, -0.8],
                          fsharp=2.0),
        g=ok.affine_diffusion([[0.4, 0.1], [-0.2, 0.5]], gains, gsharp=0.8),
        x0=np.array([0.3, 0.4]), dt=1.0 / 256.0, horizon=1.0,
        n=16)


def _ball_problem() -> ok.SviProblem:
    # a rotation-blend field and a sinusoid-modulated drift on the unit ball
    return ok.SviProblem(
        phi=ok.indicator(ok.ball([0.0, 0.0], 1.0), r0=0.3),
        hf=ok.rotation_blend_field(np.eye(2), np.diag([2.0, 0.5]),
                                   [0.6, 0.8], 0.1, c=2.0, b=5.1),
        f=ok.time_modulated_drift(
            [[-0.3, 0.2], [0.1, -0.2]], [0.6, 0.3],
            ok.TimeProfile(kind="sinusoid", amplitude=1.3, period=0.3,
                           phase=0.2), horizon=0.5, fsharp=3.0),
        g=ok.constant_diffusion([[0.9, 0.2], [-0.1, 0.7]]),
        x0=np.array([0.2, -0.3]), dt=1.0 / 128.0, horizon=0.5,
        n=16, u0=np.array([0.0, 0.0]))


def _quad_box_problem() -> ok.SviProblem:
    # a quadratic on a box: the prox is an active-set projection in the
    # metric I/eps + A, under a diagonal_affine field
    phi = ok.quadratic_plus_indicator([[2.0, 0.7], [0.7, 1.0]], [0.4, -0.3],
                                      ok.box([0.0, 0.0], [1.0, 1.0]), r0=0.1)
    return ok.SviProblem(
        phi=phi,
        hf=ok.diagonal_affine_field([1.0, 1.0], [[0.3, 0.1], [0.1, 0.3]],
                                    c=2.0, b=0.5, span=[0.4, 0.4]),
        f=ok.constant_drift([0.8, -0.9]),
        g=ok.constant_diffusion([[0.8, 0.0], [0.3, 0.6]]),
        x0=np.array([0.5, 0.5]), dt=1.0 / 128.0, horizon=0.5,
        n=16, test_points=(np.array([0.5, 0.5]),))


# name -> (problem, paths, base seed)
CHUNK_CASES = {
    "halfline-svi": (_scenario_problem, 70, 42),
    "triangle-affine": (_triangle_problem, 20, 7),
    "ball-rotation-blend": (_ball_problem, 20, 100),
    "quad-box": (_quad_box_problem, 20, 300),
}


def _solo(p, seeds) -> dict:
    """seed -> what solve_svi_path gives: a solution or a StabilityBreach."""
    sols = {}
    for seed in seeds:
        drv = ok.BrownianDriver(seed=seed, dt=p.dt, dims=p.g.noise_dim,
                                horizon=p.horizon)
        try:
            sols[seed] = ok.solve_svi_path(p.phi, p.hf, p.f, p.g, p.x0, drv,
                                           p.n, p.cfg)
        except ok.StabilityBreach as exc:
            sols[seed] = exc
    return sols


@functools.lru_cache(maxsize=None)
def _solo_runs(name):
    make, paths, base = CHUNK_CASES[name]
    p = make()
    return p, _solo(p, range(base, base + paths))


def _with_rows(monkeypatch, p, rows, streamed=False):
    monkeypatch.setattr(sde, "_CHUNK_BYTES",
                        rows * sde._row_bytes(p, streamed))
    assert sde._chunk_rows(p, streamed) == rows


def _assert_solo(sol, ref):
    np.testing.assert_array_equal(sol.x_quad, ref.x_quad)
    np.testing.assert_array_equal(sol.k_quad, ref.k_quad)
    np.testing.assert_array_equal(sol.input_m.values, ref.input_m.values)
    assert sol.diagnostics == ref.diagnostics
    assert sol.tv_k == ref.tv_k


class TestChunks:
    @pytest.mark.parametrize("name", sorted(CHUNK_CASES))
    def test_every_path_is_its_solo_run_at_any_chunk_size(self, monkeypatch,
                                                           name):
        p, solo = _solo_runs(name)
        assert all(isinstance(s, ok.SkorohodSolution) for s in solo.values())
        vi = None
        if p.test_points or p.u0 is not None:
            vi = max(ok.vi_residual(s, p.phi, test_points=list(p.test_points)
                                    or None, u0=p.u0)["residual"]
                     for s in solo.values())
        summaries = []
        for rows in (1, 64, 256):
            _with_rows(monkeypatch, p, rows)
            out = ok.monte_carlo(p, len(solo), min(solo), collect_paths=True)
            assert out["seeds_ok"] == sorted(solo)
            for seed, sol in zip(out["seeds_ok"], out.pop("paths")):
                _assert_solo(sol, solo[seed])
            assert out["max_vi_residual"] == vi
            summaries.append(out)
            # uncollected paths are views of the chunk's arrays
            summaries.append(ok.monte_carlo(p, len(solo), min(solo)))
        for out in summaries[1:]:
            np.testing.assert_equal(out, summaries[0])

    @pytest.mark.parametrize("rows", [8, 64])
    def test_guard_breaches_leave_the_chunk(self, monkeypatch, rows):
        # paths that leave the guard ball at different times fail with
        # their solo messages; the rest of their chunks stay bit-identical
        phi, hf, _, _ = svi_inputs()
        p = ok.SviProblem(
            phi=phi, hf=hf, f=ok.zero_drift(1),
            g=ok.constant_diffusion([[1.0]]), x0=np.array([1.0]),
            dt=1.0 / 64.0, horizon=1.0, n=8,
            cfg=ok.PenalizedConfig(eps=1.0 / 8.0, guard_radius=1.8))
        solo = _solo(p, range(500, 540))
        _with_rows(monkeypatch, p, rows)
        out = ok.monte_carlo(p, 40, 500, collect_paths=True)
        failed = [{"seed": s, "error": "StabilityBreach", "message": str(e)}
                  for s, e in solo.items() if isinstance(e, Exception)]
        assert len(failed) >= 5
        assert out["failures"] == failed
        assert len({f["message"].split("t=")[1] for f in failed}) > 1
        for seed, sol in zip(out["seeds_ok"], out["paths"]):
            _assert_solo(sol, solo[seed])
        assert len(out["seeds_ok"]) + len(failed) == 40

    def test_a_breach_inside_a_fill_block(self, monkeypatch):
        # seed 503 leaves the guard ball at t = 0.328125: substep 41 of
        # h = 1/128, in cell 20, inside the fill block of cells 18..26
        # (window 8 cells, blocks of 9).  Its later states stay at its last
        # stored one, which the fill, called with the cell alone, goes on
        # reading for every row; its stored gradient stays zero from there
        # on.  So nothing reads uninitialized memory or warns, and the
        # other rows are their solo runs.
        swept, states, calls = [], [], []

        def spy(xq, *args):
            *head, fill = args

            def spied(*a):
                calls.append(a)
                return fill(*a)
            states.append(xq)
            swept.append(real_sweep(xq, *head, spied))
            return swept[-1]

        real_sweep = sde._sweep
        monkeypatch.setattr(sde, "_sweep", spy)
        phi, hf, _, _ = svi_inputs()
        p = ok.SviProblem(
            phi=phi, hf=hf, f=ok.zero_drift(1),
            g=ok.constant_diffusion([[1.0]]), x0=np.array([1.0]),
            dt=1.0 / 64.0, horizon=1.0, n=8,
            cfg=ok.PenalizedConfig(eps=1.0 / 8.0, guard_radius=1.8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solo = _solo(p, range(500, 508))
            _with_rows(monkeypatch, p, 8)
            out = ok.monte_carlo(p, 8, 500, collect_paths=True)
        assert [s for s, e in solo.items() if isinstance(e, Exception)] \
            == [503]
        assert "t=0.328125" in str(solo[503])
        assert out["failures"] == [{"seed": 503, "error": "StabilityBreach",
                                    "message": str(solo[503])}]
        assert out["seeds_ok"] == [500, 501, 502, 504, 505, 506, 507]
        kq, norms, breaches = swept[-1]
        assert list(breaches) == [3] and norms[3] == 0.0
        assert (kq[43:, 3] == kq[42, 3]).all()
        assert (states[-1][42:, 3] == states[-1][41, 3]).all()
        assert calls and {len(a) for a in calls} == {1}
        for seed, sol in zip(out["seeds_ok"], out["paths"]):
            ref = solo[seed]
            np.testing.assert_array_equal(sol.x_quad, ref.x_quad)
            np.testing.assert_array_equal(sol.k_quad, ref.k_quad)
            assert sol.diagnostics["max_gradient_norm"] \
                == ref.diagnostics["max_gradient_norm"]

    def test_system_id_is_hashed_once_per_chunk(self, monkeypatch):
        p, solo = _solo_runs("halfline-svi")
        real, calls = sde.system_id, []

        def counted(phi, hf):
            calls.append(1)
            return real(phi, hf)

        monkeypatch.setattr(sde, "system_id", counted)
        _with_rows(monkeypatch, p, 32)
        out = ok.monte_carlo(p, len(solo), min(solo), collect_paths=True)
        assert len(calls) == 3  # 70 paths in chunks of 24, 24 and 22
        assert {sol.system_id for sol in out["paths"]} \
            == {real(p.phi, p.hf)}

    def test_a_failing_chunk_reruns_its_paths_alone(self, monkeypatch):
        # a chunk whose sweep of stacked states raises falls back to one
        # run per seed
        real = sde._sweep

        def paths_alone(xq, *args):
            if xq.ndim > 2:
                raise RuntimeError("no stacked states")
            return real(xq, *args)

        p, solo = _solo_runs("halfline-svi")
        monkeypatch.setattr(sde, "_sweep", paths_alone)
        _with_rows(monkeypatch, p, 64)
        out = ok.monte_carlo(p, 10, 42, collect_paths=True)
        assert out["failures"] == []
        for seed, sol in zip(out["seeds_ok"], out["paths"]):
            _assert_solo(sol, solo[seed])

        # seed 45 also fails on its own, with an error that is no guard
        # breach: the reruns are lazy, each inside its own path's error
        # handling, so only seed 45 fails and the others are their solo runs
        real_key, noise_calls = noise._philox_key, []

        def noise_fails_on_rerun(seed):
            noise_calls.append(seed)
            if seed == 45 and noise_calls.count(45) == 2:
                raise LookupError("no noise for seed 45")
            return real_key(seed)

        monkeypatch.setattr(noise, "_philox_key", noise_fails_on_rerun)
        out = ok.monte_carlo(p, 10, 42, collect_paths=True)
        assert noise_calls == list(range(42, 52)) * 2  # chunk, then reruns
        assert out["failures"] == [{"seed": 45, "error": "LookupError",
                                    "message": "no noise for seed 45"}]
        assert out["seeds_ok"] == [s for s in range(42, 52) if s != 45]
        for seed, sol in zip(out["seeds_ok"], out["paths"]):
            _assert_solo(sol, solo[seed])

    @pytest.mark.parametrize("name", ["halfline-svi", "triangle-affine"])
    def test_a_lone_path_takes_stretches_with_its_chunk_row_bits(
            self, monkeypatch, name):
        # a one-seed sweep takes interior stretches with stacked prox calls
        # (convex.make_resolvent, the stacks' resolvent) and its point
        # operations elsewhere; each path is its row of a chunk, bit for bit
        make, _, base = CHUNK_CASES[name]
        p = make()
        seeds = list(range(base, base + 4))
        xq, kq, _, breaches, _ = sde._solve_paths(p, seeds)
        assert breaches == {}
        real, stacks = convex.make_resolvent, []

        def counted(phi, eps):
            prox = real(phi, eps)

            def rows(x):
                if x.ndim > 1:
                    stacks.append(x.shape[0])
                return prox(x)
            return rows

        monkeypatch.setattr(convex, "make_resolvent", counted)
        for i, seed in enumerate(seeds):
            stacks.clear()
            xs, ks, _, _, _ = sde._solve_paths(p, [seed])
            assert stacks
            for lone, row in ((xs, xq), (ks, kq)):
                assert lone[:, 0].tobytes() == row[:, i].tobytes()

    def test_a_failing_chunk_of_one_is_not_rerun(self, monkeypatch):
        # a chunk of one seed is that seed's own run: its error is the
        # path's failure, and the failing sweep does not run twice
        p, solo = _solo_runs("halfline-svi")
        real_key, noise_calls = noise._philox_key, []

        def noise_fails(seed):
            noise_calls.append(seed)
            if seed == 45:
                raise LookupError("no noise for seed 45")
            return real_key(seed)

        monkeypatch.setattr(noise, "_philox_key", noise_fails)
        _with_rows(monkeypatch, p, 1)
        out = ok.monte_carlo(p, 4, 44, collect_paths=True)
        assert noise_calls == [44, 45, 46, 47]
        assert out["failures"] == [{"seed": 45, "error": "LookupError",
                                    "message": "no noise for seed 45"}]
        assert out["seeds_ok"] == [44, 46, 47]
        for seed, sol in zip(out["seeds_ok"], out["paths"]):
            _assert_solo(sol, solo[seed])


def test_a_failing_chunk_builds_no_solutions(monkeypatch):
    # with test points and u0: the seeds of a chunk whose sweep of stacked
    # states raises rerun as chunks of one, which give the certificates of
    # the unforced run and build no solution that was not asked for
    p = _scenario_problem()
    assert p.test_points and p.u0 is not None
    unforced = ok.monte_carlo(p, 40, 42)
    real_sweep, real_solution = sde._sweep, sde._solution
    raised, built = [], []

    def stacks_raise(xq, *args):
        if xq.ndim > 2:
            raised.append(xq.shape)
            raise RuntimeError("no stacked states")
        return real_sweep(xq, *args)

    def counted(*args):
        built.append(args)
        return real_solution(*args)

    monkeypatch.setattr(sde, "_sweep", stacks_raise)
    monkeypatch.setattr(sde, "_solution", counted)
    out = ok.monte_carlo(p, 40, 42)
    assert raised and built == []
    np.testing.assert_equal(out, unforced)


def _chunk_certificates(monkeypatch, p, n_paths, base, collect=False):
    """monte_carlo's summary, and seed -> what its chunks computed for the
    path: its StabilityBreach or (grid states, tv_k, defect, VI residual,
    solution)."""
    real, seen = sde._chunk_outcomes, {}

    def spy(problem, plan, seeds, collect_paths):
        out = real(problem, plan, seeds, collect_paths)
        seen.update(zip(seeds, out))
        return out

    monkeypatch.setattr(sde, "_chunk_outcomes", spy)
    out = ok.monte_carlo(p, n_paths, base, collect_paths=collect)
    monkeypatch.setattr(sde, "_chunk_outcomes", real)
    return out, seen


def _halfline_breach_problem(**kw):
    # the set-up of test_a_breach_inside_a_fill_block: seed 503 leaves the
    # guard ball inside a fill block
    phi, hf, _, _ = svi_inputs()
    return ok.SviProblem(
        phi=phi, hf=hf, f=ok.zero_drift(1), g=ok.constant_diffusion([[1.0]]),
        x0=np.array([1.0]), dt=1.0 / 64.0, horizon=1.0, n=8,
        cfg=ok.PenalizedConfig(eps=1.0 / 8.0, guard_radius=1.8), **kw)


class TestChunkCertificates:
    """Each path's tv_k, feasibility defect and VI residual, computed once
    per chunk from its arrays, equal its solo solution's bit for bit."""

    @pytest.mark.parametrize("name", ["halfline-svi-256", "triangle-affine",
                                      "halfline-breach"])
    def test_every_path_equals_its_solo_certificates(self, monkeypatch, name):
        if name == "halfline-svi-256":
            p, n_paths, base = _scenario_problem(), 256, 42
        elif name == "triangle-affine":
            p, n_paths, base = dataclasses.replace(
                _triangle_problem(), u0=np.array([0.4, 0.4]),
                test_points=(np.array([0.2, 0.3]), np.array([1.0, 0.5]),
                             np.array([0.0, 0.0]))), 20, 7
        else:
            p, n_paths, base = _halfline_breach_problem(
                u0=np.array([1.0]), test_points=(np.array([0.5]),)), 8, 500
            _with_rows(monkeypatch, p, 8)
        solo = _solo(p, range(base, base + n_paths))
        out, seen = _chunk_certificates(monkeypatch, p, n_paths, base)
        assert sorted(seen) == sorted(solo)
        vis = []
        for seed, ref in solo.items():
            got = seen[seed]
            if isinstance(ref, Exception):
                assert type(got) is type(ref) and str(got) == str(ref)
                continue
            xg, tv, defect, vi, sol = got
            assert sol is None
            np.testing.assert_array_equal(xg, ref.x.values)
            assert tv == ref.tv_k
            assert defect == ref.diagnostics["max_feasibility_defect"]
            assert vi == ok.vi_residual(
                ref, p.phi, test_points=list(p.test_points),
                u0=p.u0)["residual"]
            vis.append(vi)
        if name == "halfline-breach":
            assert [f["seed"] for f in out["failures"]] == [503]
        assert out["max_vi_residual"] == max(vis)

        # the solutions of collect_paths change no number of the summary
        collected, _ = _chunk_certificates(monkeypatch, p, n_paths, base,
                                           collect=True)
        assert len(collected.pop("paths")) == out["n_ok"]
        np.testing.assert_equal(collected, out)

    def test_solutions_only_for_collect_paths(self, monkeypatch):
        real, built = sde._solution, []

        def counted(*args):
            built.append(1)
            return real(*args)

        monkeypatch.setattr(sde, "_solution", counted)
        p = _scenario_problem()
        ok.monte_carlo(p, 40, 42)
        assert built == []
        ok.monte_carlo(p, 40, 42, collect_paths=True)
        assert len(built) == 40


def _assert_same_summary(out, ref):
    # the summaries hold the same keys, the arrays the same bytes
    assert out.keys() == ref.keys()
    for key, val in ref.items():
        if isinstance(val, np.ndarray):
            assert out[key].tobytes() == val.tobytes(), key
        else:
            assert out[key] == val, key


class TestStreamedChunks:
    """Without collect_paths a chunk streams through time: its arrays span
    a fixed number of cells, and its noise is drawn as the blocks need it;
    every number stays the one of the whole sweep."""

    def test_block_draws_match_one_draw(self):
        # 200 seeds, drawn in cuts of random cell counts, odd normal counts
        # included: each seed's increments have the bits of
        # np.diff(brownian_path(drv).values) and its normals those of
        # standard_normals.  This rests on numpy's log, cos and sin giving
        # the same bits at any array length.
        rng = np.random.default_rng(25)
        dt, cells = 1.0 / 256.0, 300
        for k in (1, 2):
            seeds = [int(s) for s in rng.integers(0, 2 ** 64, size=200,
                                                  dtype=np.uint64)]
            draw, parts, lo = noise._increments(seeds, k, dt), [], 0
            while lo < cells:
                hi = min(cells, lo + int(rng.integers(1, 40)))
                parts.append(draw(lo, hi))
                lo = hi
            got = np.concatenate(parts)
            take = noise._normal_source(seeds)
            # 333 normals at once outgrow a piece of uniforms
            counts = [int(c) for c in rng.integers(0, 9, size=30)] + [333, 3]
            z = np.concatenate([take(c) for c in counts], axis=1)
            for i, seed in enumerate(seeds):
                drv = ok.BrownianDriver(seed=seed, dt=dt, dims=k,
                                        horizon=cells * dt)
                assert got[:, i].tobytes() == np.diff(
                    ok.brownian_path(drv).values, axis=0).tobytes()
                assert z[i].tobytes() == ok.standard_normals(
                    seed, sum(counts)).tobytes()

    def test_halfline_svi_runs_as_one_chunk_in_the_parent_memory(
            self, monkeypatch):
        # 256 paths at the unchanged _CHUNK_BYTES sweep as one chunk; the
        # traced peak stays at or below the 2,300 KiB of the whole-horizon
        # chunks of 38 paths the streaming replaced
        p = _scenario_problem()
        real, chunks = sde._chunk_outcomes, []

        def counted(problem, plan, seeds, collect):
            chunks.append(len(seeds))
            return real(problem, plan, seeds, collect)

        monkeypatch.setattr(sde, "_chunk_outcomes", counted)
        ok.monte_carlo(p, 256, 42)
        tracemalloc.start()
        try:
            ok.monte_carlo(p, 256, 42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chunks == [256, 256]
        assert peak <= 2300 * 1024

    def test_summaries_do_not_depend_on_chunks_or_collect(self, monkeypatch):
        p = _scenario_problem()
        ref = ok.monte_carlo(p, 256, 42)
        # chunks of 1, 7, 64 and 256 paths, streamed and collected
        for rows in (1, 7, 64, 256):
            for collect in (False, True):
                _with_rows(monkeypatch, p, rows, streamed=not collect)
                out = ok.monte_carlo(p, 256, 42, collect_paths=collect)
                assert len(out.pop("paths", range(256))) == 256
                _assert_same_summary(out, ref)

    def test_breaches_in_later_blocks(self, monkeypatch):
        # four blocks of 64 cells (n_sub = 2, window 8 cells): paths leave
        # the guard ball in each of them; the streamed chunk gives every
        # path its solo failure or certificates, and collect_paths's
        # summary
        p = dataclasses.replace(
            _halfline_breach_problem(u0=np.array([1.0]),
                                     test_points=(np.array([0.5]),)),
            horizon=4.0)
        solo = _solo(p, range(500, 540))
        times = {float(str(e).split("t=")[1].split()[0]) // 1.0
                 for e in solo.values() if isinstance(e, Exception)}
        assert times == {0.0, 1.0, 2.0, 3.0}
        out, seen = _chunk_certificates(monkeypatch, p, 40, 500)
        for seed, ref in solo.items():
            got = seen[seed]
            if isinstance(ref, Exception):
                assert type(got) is type(ref) and str(got) == str(ref)
                continue
            xg, tv, defect, vi, _ = got
            np.testing.assert_array_equal(xg, ref.x.values)
            assert tv == ref.tv_k
            assert defect == ref.diagnostics["max_feasibility_defect"]
            assert vi == ok.vi_residual(ref, p.phi, test_points=[[0.5]],
                                        u0=p.u0)["residual"]
        collected, _ = _chunk_certificates(monkeypatch, p, 40, 500,
                                           collect=True)
        assert len(collected.pop("paths")) == out["n_ok"] == 20
        _assert_same_summary(collected, out)

    @pytest.mark.parametrize("horizon", [1.0, 2.0])
    def test_one_projector_per_chunk(self, monkeypatch, horizon):
        # a triangle chunk's window input and certificates share one
        # projector of the domain, however many blocks the horizon takes;
        # nothing builds one per call through project_set or set_distance
        p = dataclasses.replace(_triangle_problem(), horizon=horizon,
                                u0=np.array([0.4, 0.4]))
        calls = []
        for name in ("_projector", "project_set", "set_distance"):
            real = getattr(convex, name)
            monkeypatch.setattr(convex, name, lambda *a, real=real,
                                name=name: calls.append(name) or real(*a))
        out = ok.monte_carlo(p, 8, 7)
        assert out["n_ok"] == 8
        # the chunk's own, and the one in the kernel's stacked resolvent
        assert calls == ["_projector"] * 2


@pytest.mark.parametrize("build, message", [
    (lambda: ok.constant_drift([np.nan]), "b0 must be finite"),
    (lambda: ok.affine_drift([[np.inf]], [0.0], fsharp=1.0),
     "A must be finite"),
    (lambda: ok.affine_drift([[1.0]], [0.0], domain_radius=np.inf),
     "fsharp must be finite"),
    (lambda: ok.affine_drift([[1.0]], [0.0], fsharp=-1.0),
     "fsharp must be finite and >= 0"),
    (lambda: ok.TimeProfile(kind="sinusoid", phase=np.nan),
     "phase must be finite"),
    (lambda: ok.constant_diffusion([[np.inf]]), "matrix must be finite"),
    (lambda: ok.affine_diffusion([[0.1]], [[[np.nan]]], gsharp=1.0),
     "gains must be finite"),
    (lambda: ok.affine_diffusion([[0.1]], [[[0.2]]], gsharp=np.inf),
     "gsharp must be finite"),
])
def test_coefficient_constructors_reject_bad_constants(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_affine_drifts_share_one_builder():
    # the time-modulated bound is the profile's bound times the affine one,
    # bit for bit; neither kind carries a Lipschitz modulus
    A, b0 = [[0.5, -0.2], [0.1, 0.3]], [0.4, -0.7]
    profile = ok.TimeProfile(kind="sinusoid", amplitude=1.3, period=0.3)
    affine = ok.affine_drift(A, b0, domain_radius=1.7)
    modulated = ok.time_modulated_drift(A, b0, profile, 1.0,
                                        domain_radius=1.7)
    assert modulated.fsharp == 1.3 * affine.fsharp
    assert modulated.profile is profile and affine.profile is None
    for kind, build in (
            ("affine", lambda: ok.affine_drift(A, b0)),
            ("time_modulated",
             lambda: ok.time_modulated_drift(A, b0, profile, 1.0))):
        with pytest.raises(ValueError, match=f"{kind} drift needs a domain "
                                             "radius or explicit fsharp"):
            build()
    names = {f.name for spec in (ok.DriftSpec, ok.DiffusionSpec)
             for f in dataclasses.fields(spec)}
    assert not {"mu", "ell"} & names
