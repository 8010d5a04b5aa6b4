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

The paths of an ensemble share every operator and differ only in their
noise, so `monte_carlo` runs them in chunks: one sweep of the same kernel
and builder over a state of shape (B, d), time still the first axis, whose
every row comes out bit for bit as `solve_svi_path` gives that path alone.
A row that leaves the guard ball fails alone and leaves the chunk.

Gaussians come from a Box-Muller transform on the Philox counter-based
generator keyed by the driver seed; the generator identity string is part
of every output so reproducibility claims are auditable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import convex
from .coeffs import DiffusionSpec, DriftSpec
from .convex import ConvexFunction, make_resolvent
from .diagnostics import vi_residual
from .field import ObliqueField, make_field_eval
from .paths import GridMismatch, SampledPath, grid_cells
from .solver import (PenalizedConfig, SkorohodSolution, _solution,
                     _substep_mesh, _sweep, system_id)

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
        self.n_cells  # a horizon off the grid raises here

    @property
    def n_cells(self) -> int:
        return grid_cells(self.horizon, self.dt, f"horizon {self.horizon}")


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
    return grid_cells(1.0 / n, dt, f"window 1/n = {1.0 / n}")


def _window_input(f: DriftSpec, g: DiffusionSpec, phi: ConvexFunction,
                  x_hist: np.ndarray, db: np.ndarray, dt: float, win: int):
    """Block-causal builder of the delayed-window input M on the grid of db,
    for one path (x_hist (cells + 1, d), db (cells, k)) or a chunk of B
    paths (x_hist (cells + 1, B, d), db (cells, B, k)), time first.

    Returns (values, rates, fill).  Node i + 1 of M reads only the delayed
    state x_hist[i - win] (x_hist[0] before time 0), so once x_hist is final
    through node j, fill(j, rows) computes M of the given rows of a chunk
    (every row by default) through node j + win + 1 (at most the last node)
    in one stacked step and returns that node.  Calls go j = 0, then each j
    the previous call returned.  rates[i] is the increment rate of M over
    cell i.  A step is one projection and one evaluation of f and of g on
    the delayed states flattened to rows, each with its node's time, so
    every row comes out as on its own.  The running sums are
    np.add.accumulate along time seeded with the block's first node, which
    adds in the order of a cell-by-cell loop; only the nodes that later
    blocks read are kept.
    """
    cells = db.shape[0]
    shape = x_hist.shape[1:]
    values = np.zeros((cells + 1,) + shape)
    rates = np.empty((cells,) + shape)
    # what later blocks read of the running sums: ito and drift at node j,
    # run at nodes j - win .. j (zero before time 0)
    ito, drift = np.zeros((1,) + shape), np.zeros((1,) + shape)
    run = np.zeros((win + 1,) + shape)

    def fill(j: int, rows=slice(None)) -> int:
        hi = min(j + win + 1, cells)
        i = np.arange(j, hi)
        xd = x_hist[np.maximum(i - win, 0)][:, rows]
        flat = xd.reshape(-1, shape[-1])
        t = np.repeat(i * dt, flat.shape[0] // i.size)
        px = convex.project_set(phi.domain, flat)

        def running(sums, increments):
            # nodes j .. hi of a running sum from its node-j entry
            return np.add.accumulate(np.concatenate(
                (sums[-1:, rows], increments.reshape(xd.shape))))

        dw = db[j:hi][:, rows].reshape(flat.shape[0], -1, 1)
        ito_b = running(ito, (g.eval(t, px) @ dw)[:, :, 0])
        drift_b = running(drift, dt * f.eval(t, px))
        # run at nodes j - win .. hi
        run_b = np.concatenate((run[:, rows], running(run, ito_b[:-1])[1:]))
        lo = np.maximum(i + 1 - win, 0) - (j - win)
        new = drift_b[1:] + (run_b[win + 1:] - run_b[lo]) / win
        values[j + 1:hi + 1, rows] = new
        rates[j:hi, rows] = (new - values[j:hi][:, rows]) / dt
        ito[:, rows], drift[:, rows] = ito_b[-1:], drift_b[-1:]
        run[:, rows] = run_b[-win - 1:]
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


def _state0(phi: ConvexFunction, hf: ObliqueField, f: DriftSpec,
            g: DiffusionSpec, x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float).ravel()
    d = x0.size
    if phi.dim != d or hf.dim != d:
        raise ValueError("dimension mismatch between phi, H, x0")
    if g.dim != d or f.dim != d:
        raise ValueError("coefficient dimensions must match the state")
    return x0


def _svi_mesh(hf: ObliqueField, n: int, dt: float,
              cfg: PenalizedConfig | None):
    """(window in grid cells, the level's config, substeps per cell); the
    smoothing width defaults to the window 1/n."""
    win = _window_cells(n, dt)
    if cfg is None:
        cfg = PenalizedConfig(eps=win * dt)
    return win, cfg, _substep_mesh(cfg, dt, hf.c)[1]


def _path_solution(phi, sid, dt, n_sub, cfg, xq, kq, max_grad, seed, n, win,
                   mvals) -> SkorohodSolution:
    diag = {
        "generator": GENERATOR_ID,
        "seed": None if seed is None else int(seed),
        "n_window": n,
        "window_cells": win,
        "eps": cfg.eps,
        "n_substeps_per_cell": n_sub,
    }
    return _solution(phi, sid, dt, n_sub, cfg.eps, xq, kq, max_grad, diag,
                     SampledPath(t0=0.0, dt=dt, values=mvals, extension="zero"))


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
    x0 = _state0(phi, hf, f, g, x0)
    if isinstance(drv, SampledPath):
        bpath = drv
        seed_label = None
    else:
        bpath = brownian_path(drv)
        seed_label = drv.seed
    dt = bpath.dt
    win, cfg, n_sub = _svi_mesh(hf, n, dt, cfg)
    xq = np.empty((bpath.n_cells * n_sub + 1, x0.size))
    xq[0] = x0
    mvals, rates, fill = _window_input(f, g, phi, xq[::n_sub],
                                       np.diff(bpath.values, axis=0), dt, win)
    kq, max_grad, _ = _sweep(xq, n_sub, dt, cfg, make_resolvent(phi, cfg.eps),
                             make_field_eval(hf), rates,
                             f"seed={seed_label}, n={n}", fill)
    return _path_solution(phi, system_id(phi, hf), dt, n_sub, cfg, xq, kq,
                          max_grad, seed_label, n, win, mvals)


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


# Bytes of per-row arrays (see _row_bytes) one chunk of monte_carlo may
# hold.  Larger chunks sweep faster, smaller ones hold less: at 768 KiB a
# 256-path halfline-svi run (37 rows per chunk) peaks at the memory of one
# path at a time.
_CHUNK_BYTES = 768 * 1024


def _row_bytes(problem: SviProblem) -> int:
    """Bytes a path holds in a chunk: its Brownian increments, its state
    and reflection on the substep mesh, and the values and rates of M."""
    cells = int(round(problem.horizon / problem.dt))
    _, _, n_sub = _svi_mesh(problem.hf, problem.n, problem.dt, problem.cfg)
    d = problem.hf.dim
    return 8 * (cells * problem.noise_dims
                + (2 * (cells * n_sub + 1) + 2 * cells + 1) * d)


def _chunk_rows(problem: SviProblem) -> int:
    try:
        return max(1, _CHUNK_BYTES // _row_bytes(problem))
    except Exception:  # noqa: BLE001  (a bad grid: each path reports it)
        return 1


def _solve_chunk(problem: SviProblem, seeds, copy: bool) -> list:
    """What solve_svi_path gives for each seed, from one sweep of a state of
    shape (B, d): one callable per seed that returns its solution, bit for
    bit, or raises its StabilityBreach.  A solution holds views of the
    chunk's arrays unless copy is set.  Any other exception belongs to the
    chunk and propagates."""
    p = problem
    x0 = _state0(p.phi, p.hf, p.f, p.g, p.x0)
    win, cfg, n_sub = _svi_mesh(p.hf, p.n, p.dt, p.cfg)
    db = None
    for i, seed in enumerate(seeds):
        # filled in place: a list of the paths' increments would raise the
        # peak memory by one more chunk-sized array
        inc = np.diff(brownian_path(BrownianDriver(
            seed=seed, dt=p.dt, dims=p.noise_dims, horizon=p.horizon)).values,
            axis=0)
        if db is None:
            db = np.empty((inc.shape[0], len(seeds), inc.shape[1]))
        db[:, i] = inc
    xq = np.empty((db.shape[0] * n_sub + 1, len(seeds), x0.size))
    xq[0] = x0
    mvals, rates, fill = _window_input(p.f, p.g, p.phi, xq[::n_sub], db,
                                       p.dt, win)
    # convex.make_resolvent: the benchmark tracer's face check on the
    # resolvent (sde.make_resolvent) reads one point
    kq, max_grad, breaches = _sweep(
        xq, n_sub, p.dt, cfg, convex.make_resolvent(p.phi, cfg.eps),
        make_field_eval(p.hf), rates,
        [f"seed={seed}, n={p.n}" for seed in seeds], fill)
    take = np.copy if copy else (lambda a: a)
    sid = system_id(p.phi, p.hf)

    def solution(i, seed):
        if i in breaches:
            raise breaches[i]
        return _path_solution(p.phi, sid, p.dt, n_sub, cfg, take(xq[:, i]),
                              take(kq[:, i]), float(max_grad[i]), seed, p.n,
                              win, take(mvals[:, i]))
    return [functools.partial(solution, i, seed)
            for i, seed in enumerate(seeds)]


def _solve_one(problem: SviProblem, seed: int) -> SkorohodSolution:
    drv = BrownianDriver(seed=seed, dt=problem.dt, dims=problem.noise_dims,
                         horizon=problem.horizon)
    return solve_svi_path(problem.phi, problem.hf, problem.f, problem.g,
                          problem.x0, drv, problem.n, problem.cfg)


def monte_carlo(problem: SviProblem, n_paths: int, base_seed: int,
                collect_paths: bool = False) -> dict:
    """Seeded batch of sample paths with deterministic aggregation.

    Path i uses seed base_seed + i.  The paths run in seed order, in chunks
    whose size comes from a fixed byte budget on the arrays a path holds;
    a chunk is one sweep of a (B, d) state, and every path in it comes out
    bit for bit as solve_svi_path gives it alone, so nothing depends on the
    chunk size.  A path that raises, a guard breach in the sweep included,
    is recorded in `failures` and left out of the statistics; the others
    still count.  Any other exception of a chunk re-runs its seeds one at a
    time, so each path still gets its own outcome.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    # the kept paths' states, one row each in seed order
    stack = None
    tvs, defects, vis = [], [], []
    kept_seeds, kept_paths, failures = [], [], []
    seeds = range(int(base_seed), int(base_seed) + n_paths)
    # as few chunks as the budget allows, as even as can be
    chunks = -(-n_paths // _chunk_rows(problem))
    step = -(-n_paths // chunks)
    for lo in range(0, n_paths, step):
        chunk = seeds[lo:lo + step]
        try:
            solves = _solve_chunk(problem, chunk, collect_paths)
        except Exception:  # noqa: BLE001  (the solo runs tell paths apart)
            solves = [functools.partial(_solve_one, problem, seed)
                      for seed in chunk]
        for seed, solve in zip(chunk, solves):
            try:
                sol = solve()
                vi = None
                if problem.test_points or problem.u0 is not None:
                    vi = vi_residual(
                        sol, problem.phi,
                        test_points=list(problem.test_points) or None,
                        u0=problem.u0)["residual"]
            except Exception as exc:  # noqa: BLE001  (per-path isolation)
                failures.append({"seed": seed, "error": type(exc).__name__,
                                 "message": str(exc)})
                continue
            if stack is None:
                stack = np.empty((n_paths,) + sol.x.values.shape)
            stack[len(kept_seeds)] = sol.x.values
            tvs.append(sol.tv_k)
            defects.append(sol.diagnostics["max_feasibility_defect"])
            if vi is not None:
                vis.append(vi)
            kept_seeds.append(seed)
            if collect_paths:
                kept_paths.append(sol)
    if not kept_seeds:
        raise RuntimeError(f"every path failed; first failure: {failures[:1]}")
    n_ok = len(kept_seeds)
    stack = stack[:n_ok]
    summary = {
        "generator": GENERATOR_ID,
        "n_paths": n_paths,
        "n_ok": n_ok,
        "base_seed": int(base_seed),
        "seeds_ok": kept_seeds,
        "mean_x": stack.mean(axis=0),
        "var_x": stack.var(axis=0, ddof=1) if n_ok > 1 else np.zeros_like(stack[0]),
        "mean_tv_k": float(np.mean(tvs)),
        "max_feasibility_defect": float(np.max(defects)),
        "max_vi_residual": (float(np.max(vis)) if vis else None),
        "failures": failures,
    }
    if collect_paths:
        summary["paths"] = kept_paths
    return summary
