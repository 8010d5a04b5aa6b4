"""Stochastic layer: seeded Brownian drivers and the delayed-window scheme.

The n-th approximation replaces the semimartingale input by

    M(t) = integral_0^t f(s, P(X(s - 1/n))) ds
         + n * integral_{t-1/n}^t [ integral_0^s g(r, P(X(r - 1/n))) dB_r ] ds

with P the domain projection and X frozen at x0 before time 0.  Because M
at time t only reads X before t - 1/n, one causally ordered forward sweep
computes the path block by block; no fixed-point iteration is needed.  The
inner stochastic integral uses left endpoints (Ito), and the window average
uses the rectangle rule on the same grid.

A sample path is solved pathwise: `solve_svi_path` runs the substep kernel
of `solver` (the one behind `solve_penalized`) with M as its input, and M
comes from the single block-causal builder `_window_input`: once the state
is final through node j, one stacked step (one projection of the delayed
states, one evaluation of f and g) gives M through node j + w + 1, w being
the window 1/n in grid cells.  The public `build_Mn` runs the same blocks
over a given state history.

Gaussians come from a Box-Muller transform on the Philox counter-based
generator keyed by the driver seed; the generator identity string is part
of every output so reproducibility claims are auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import convex
from .coeffs import DiffusionSpec, DriftSpec
from .convex import ConvexFunction, make_resolvent
from .diagnostics import vi_residual
from .field import ObliqueField, make_field_eval
from .paths import SampledPath
from .solver import (GridMismatch, PenalizedConfig, SkorohodSolution,
                     _solution, _substep_mesh, _sweep)

GENERATOR_ID = "philox4x64-boxmuller-v1"


@dataclass(frozen=True)
class BrownianDriver:
    """Seeded Brownian path source on a uniform grid.

    The same (seed, dt, dims, horizon) always reproduces the same path,
    bit for bit, on any platform.
    """

    seed: int
    dt: float
    dims: int
    horizon: float

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must fit in 64 bits")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.dims < 1:
            raise ValueError("dims must be >= 1")
        n = self.horizon / self.dt
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise GridMismatch("horizon must be a grid multiple of dt")

    @property
    def n_cells(self) -> int:
        return int(round(self.horizon / self.dt))


def standard_normals(seed: int, count: int) -> np.ndarray:
    """count i.i.d. standard Gaussians: Box-Muller over Philox uniforms."""
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    pairs = (count + 1) // 2
    u = gen.random((pairs, 2))
    radius = np.sqrt(-2.0 * np.log(1.0 - u[:, 0]))
    angle = 2.0 * math.pi * u[:, 1]
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


def brownian_path(drv: BrownianDriver) -> SampledPath:
    """Brownian path sampled on the driver grid; B(0) = 0."""
    n = drv.n_cells
    z = standard_normals(drv.seed, n * drv.dims).reshape(n, drv.dims)
    inc = z * math.sqrt(drv.dt)
    vals = np.vstack([np.zeros((1, drv.dims)), np.cumsum(inc, axis=0)])
    return SampledPath(t0=0.0, dt=drv.dt, values=vals, extension="zero")


def _window_cells(n: int, dt: float) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    width = 1.0 / n
    cells = int(round(width / dt))
    if cells < 1 or abs(cells * dt - width) > 1e-9 * max(width, dt):
        raise GridMismatch(f"window 1/n = {width} is not a grid multiple of dt={dt}")
    return cells


def _window_input(f: DriftSpec, g: DiffusionSpec, phi: ConvexFunction,
                  x_hist: np.ndarray, db: np.ndarray, dt: float, win: int):
    """Block-causal builder of the delayed-window input M on the grid of db.

    Returns (values, rates, fill).  Node i + 1 of M reads only the delayed
    state x_hist[i - win] (x_hist[0] before time 0), so once x_hist is final
    through node j, fill(j) computes M through node j + win + 1 (at most
    the last node) in one stacked step and returns that node.  Calls go
    j = 0, then each j the previous call returned.  rates[i] is the
    increment rate of M over cell i.  The running sums are np.add.accumulate
    seeded with the block's first node, which adds in the order of a
    cell-by-cell loop.
    """
    cells = db.shape[0]
    ito, drift, run, values = (np.zeros((cells + 1, x_hist.shape[1]))
                               for _ in range(4))
    rates = np.empty((cells, x_hist.shape[1]))

    def accumulate(sums, lo, hi, increments):
        np.add.accumulate(np.concatenate((sums[lo:lo + 1], increments)),
                          out=sums[lo:hi + 1])

    def fill(j: int) -> int:
        hi = min(j + win + 1, cells)
        i = np.arange(j, hi)
        px = convex.project_set(phi.domain, x_hist[np.maximum(i - win, 0)])
        t = i * dt
        accumulate(ito, j, hi, (g.eval(t, px) @ db[j:hi, :, None])[:, :, 0])
        if not f.is_zero():
            accumulate(drift, j, hi, dt * f.eval(t, px))
        accumulate(run, j, hi, ito[j:hi])
        lo = np.maximum(i + 1 - win, 0)
        values[j + 1:hi + 1] = (drift[j + 1:hi + 1]
                                + (run[j + 1:hi + 1] - run[lo]) / win)
        rates[j:hi] = (values[j + 1:hi + 1] - values[j:hi]) / dt
        return hi

    return values, rates, fill


def build_Mn(f: DriftSpec, g: DiffusionSpec, x_hist: SampledPath,
             bpath: SampledPath, n: int, phi: ConvexFunction) -> SampledPath:
    """The delayed-window input path M on the grid of bpath.

    x_hist supplies the delayed states X(t - 1/n) (frozen extension before
    its start); phi supplies the domain projection.  Raises GridMismatch
    when 1/n is not a grid multiple.
    """
    dt = bpath.dt
    cells = bpath.n_cells
    if x_hist.n_cells != cells or abs(x_hist.dt - dt) > 1e-15:
        raise GridMismatch("x_hist must share the Brownian grid")
    values, _, fill = _window_input(f, g, phi, x_hist.values,
                                    np.diff(bpath.values, axis=0), dt,
                                    _window_cells(n, dt))
    j = 0
    while j < cells:
        j = fill(j)
    return SampledPath(t0=0.0, dt=dt, values=values, extension="zero")


def solve_svi_path(phi: ConvexFunction, hf: ObliqueField, f: DriftSpec,
                   g: DiffusionSpec, x0, drv: BrownianDriver | SampledPath,
                   n: int, cfg: PenalizedConfig | None = None) -> SkorohodSolution:
    """One sample path of the constrained stochastic evolution.

    The deterministic substep kernel of `solver` driven by the
    delayed-window input M, which the sweep fills one block of w + 1 cells
    at a time (w the window 1/n in grid cells), ahead of the substeps that
    use it (each block only reads already-final states).
    The smoothing width defaults to the window 1/n when cfg is None.
    Bit-identical for identical (seed, n, cfg).

    drv is normally a BrownianDriver; a pre-sampled driving path may be
    passed instead for pathwise solves against a fixed noise realization.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    d = x0.size
    if phi.dim != d or hf.dim != d:
        raise ValueError("dimension mismatch between phi, H, x0")
    if g.dim != d or f.dim != d:
        raise ValueError("coefficient dimensions must match the state")
    if isinstance(drv, SampledPath):
        bpath = drv
        seed_label = None
    else:
        bpath = brownian_path(drv)
        seed_label = drv.seed
    dt = bpath.dt
    cells = bpath.n_cells
    win = _window_cells(n, dt)
    if cfg is None:
        cfg = PenalizedConfig(eps=win * dt)
    eps = cfg.eps
    _, n_sub = _substep_mesh(cfg, dt, hf.c)
    prox = make_resolvent(phi, eps)
    field_at = make_field_eval(hf)

    xq = np.empty((cells * n_sub + 1, d))
    xq[0] = x0
    mvals, rates, fill = _window_input(f, g, phi, xq[::n_sub],
                                       np.diff(bpath.values, axis=0), dt, win)
    kq, max_grad = _sweep(xq, n_sub, dt, cfg, prox, field_at, rates,
                          f"seed={seed_label}, n={n}", fill)
    diag = {
        "generator": GENERATOR_ID,
        "seed": None if seed_label is None else int(seed_label),
        "n_window": n,
        "window_cells": win,
        "eps": eps,
        "n_substeps_per_cell": n_sub,
    }
    return _solution(phi, hf, dt, n_sub, eps, xq, kq, max_grad, diag,
                     SampledPath(t0=0.0, dt=dt, values=mvals, extension="zero"))


@dataclass(frozen=True)
class SviProblem:
    """Everything a Monte Carlo batch needs besides seeds."""

    phi: ConvexFunction
    hf: ObliqueField
    f: DriftSpec
    g: DiffusionSpec
    x0: np.ndarray
    dt: float
    horizon: float
    noise_dims: int
    n: int
    cfg: PenalizedConfig | None = None
    u0: np.ndarray | None = None
    test_points: tuple = ()


def monte_carlo(problem: SviProblem, n_paths: int, base_seed: int,
                collect_paths: bool = False) -> dict:
    """Seeded batch of sample paths with deterministic aggregation.

    Path i uses seed base_seed + i; paths run one after another in seed
    order, each through solve_svi_path.  A path that raises is recorded in
    `failures` and left out of the statistics; the others still count.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    xs, tvs, defects, vis = [], [], [], []
    kept_seeds, kept_paths, failures = [], [], []
    for seed in range(int(base_seed), int(base_seed) + n_paths):
        try:
            drv = BrownianDriver(seed=seed, dt=problem.dt,
                                 dims=problem.noise_dims,
                                 horizon=problem.horizon)
            sol = solve_svi_path(problem.phi, problem.hf, problem.f,
                                 problem.g, problem.x0, drv, problem.n,
                                 problem.cfg)
            vi = None
            if problem.test_points or problem.u0 is not None:
                vi = vi_residual(sol, problem.phi,
                                 test_points=list(problem.test_points) or None,
                                 u0=problem.u0)["residual"]
        except Exception as exc:  # noqa: BLE001  (per-path isolation)
            failures.append({"seed": seed, "error": type(exc).__name__,
                             "message": str(exc)})
            continue
        xs.append(sol.x.values)
        tvs.append(sol.tv_k)
        defects.append(sol.diagnostics["max_feasibility_defect"])
        if vi is not None:
            vis.append(vi)
        kept_seeds.append(seed)
        if collect_paths:
            kept_paths.append(sol)
    if not xs:
        raise RuntimeError(f"every path failed; first failure: {failures[:1]}")
    stack = np.stack(xs)
    summary = {
        "generator": GENERATOR_ID,
        "n_paths": n_paths,
        "n_ok": len(xs),
        "base_seed": int(base_seed),
        "seeds_ok": kept_seeds,
        "mean_x": stack.mean(axis=0),
        "var_x": stack.var(axis=0, ddof=1) if len(xs) > 1 else np.zeros_like(stack[0]),
        "mean_tv_k": float(np.mean(tvs)),
        "max_feasibility_defect": float(np.max(defects)),
        "max_vi_residual": (float(np.max(vis)) if vis else None),
        "failures": failures,
    }
    if collect_paths:
        summary["paths"] = kept_paths
    return summary
