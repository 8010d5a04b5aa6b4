"""Stochastic layer: seeded Brownian drivers and the delayed-window scheme.

The n-th approximation replaces the semimartingale input by

    M(t) = integral_0^t f(s, P(X(s - 1/n))) ds
         + n * integral_{t-1/n}^t [ integral_0^s g(r, P(X(r - 1/n))) dB_r ] ds

with P the domain projection and X frozen at x0 before time 0.  Because M
at time t only reads X before t - 1/n, one causally ordered forward sweep
computes the path block by block; no fixed-point iteration is needed.  The
inner stochastic integral uses left endpoints (Ito), and the window average
uses the rectangle rule on the same grid.

Sample paths are solved pathwise by one driver, `_solve_paths`: it runs
the substep kernel of `solver` (the one behind `solve_penalized`) once
over the state of B paths, shape (B, d) with time first, driven by their
inputs M, and every path comes out bit for bit as it does alone.  M comes
from the single block-causal builder `_window_input`: once the state is
final through node j, one stacked step (one projection of the delayed
states, one evaluation of f and g) gives M through node j + w + 1, w being
the window 1/n in grid cells.  `solve_svi_path` is the driver on one path,
`monte_carlo` on chunks of seeds, and `build_Mn` runs the same blocks over
a given state history.  A path that leaves the guard ball fails alone.
`monte_carlo` takes each path's certificates (tv_k, the feasibility defect,
the VI residual) once per chunk from the chunk's arrays, with the helpers
that a solution and `vi_residual` use for one path, and builds per-path
solutions only when asked to collect them.  A chunk of several seeds that
fails reruns its seeds through the same chunk code, one seed per chunk.

Gaussians come from a Box-Muller transform on the Philox counter-based
generator keyed by the driver seed; the generator identity string is part
of every output so reproducibility claims are auditable.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from . import convex
from .coeffs import DiffusionSpec, DriftSpec
from .convex import ConvexFunction, make_resolvent
from .diagnostics import _feasible_points, _vi_plan, _vi_worst
from .field import ObliqueField, make_field_eval
from .paths import GridMismatch, SampledPath, _count, grid_cells
from .solver import (_SLICE_ROWS, PenalizedConfig, SkorohodSolution,
                     StabilityBreach, _flat_state, _grid_checks, _solution,
                     _substep_mesh, _substep_times, _sweep, system_id)

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
        seed = _count("seed", self.seed)
        if not 0 <= seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        dims = _count("dims", self.dims)
        if dims < 1:
            raise ValueError("dims must be >= 1")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "dims", dims)
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
    if _count("n", n) < 1:
        raise ValueError("n must be >= 1")
    return grid_cells(1.0 / n, dt, f"window 1/n = {1.0 / n}")


def _window_input(f: DriftSpec, g: DiffusionSpec, phi: ConvexFunction,
                  x_hist: np.ndarray, db: np.ndarray, dt: float, win: int):
    """Block-causal builder of the delayed-window input M on the grid of db,
    time first: for a state history (x_hist (cells + 1, d), db (cells, k))
    in build_Mn, and for the B paths of _solve_paths (x_hist
    (cells + 1, B, d), db (cells, B, k)), a lone path included.

    Returns (values, rates, fill).  Node i + 1 of M reads only the delayed
    state x_hist[i - win] (x_hist[0] before time 0), so once x_hist is final
    through node j, fill(j) computes M of every path through node
    j + win + 1 (at most the last node) in one stacked step and returns
    that node.  Calls go j = 0, then each j the previous call returned.  A
    path the sweep has dropped is filled like the others, from the last
    state the kernel left in its x_hist rows.  rates[i] is the increment
    rate of M over cell i.  A step is one projection and one evaluation of
    f and of g on the delayed states flattened to rows, each with its
    node's time, so every row comes out as on its own.  The running sums are
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

    def fill(j: int) -> int:
        hi = min(j + win + 1, cells)
        i = np.arange(j, hi)
        xd = x_hist[np.maximum(i - win, 0)]
        flat = xd.reshape(-1, shape[-1])
        t = np.repeat(i * dt, flat.shape[0] // i.size)
        px = convex.project_set(phi.domain, flat)

        def running(sums, increments):
            # nodes j .. hi of a running sum from its node-j entry
            return np.add.accumulate(np.concatenate(
                (sums[-1:], increments.reshape(xd.shape))))

        dw = db[j:hi].reshape(flat.shape[0], -1, 1)
        ito_b = running(ito, (g.eval(t, px) @ dw)[:, :, 0])
        drift_b = running(drift, dt * f.eval(t, px))
        # run at nodes j - win .. hi
        run_b = np.concatenate((run, running(run, ito_b[:-1])[1:]))
        lo = np.maximum(i + 1 - win, 0) - (j - win)
        new = drift_b[1:] + (run_b[win + 1:] - run_b[lo]) / win
        values[j + 1:hi + 1] = new
        rates[j:hi] = (new - values[j:hi]) / dt
        ito[:], drift[:], run[:] = ito_b[-1:], drift_b[-1:], run_b[-win - 1:]
        return hi

    return values, rates, fill


def build_Mn(f: DriftSpec, g: DiffusionSpec, x_hist: SampledPath,
             bpath: SampledPath, n: int, phi: ConvexFunction) -> SampledPath:
    """The delayed-window input path M on the grid of bpath.

    x_hist supplies the delayed states X(t - 1/n) (frozen extension before
    its start); phi supplies the domain projection.  Raises ValueError
    unless phi, f, g and x_hist share one dim (the drivers' check), and
    GridMismatch when 1/n is not a grid multiple.
    """
    _flat_state(x_hist.values[0], phi=phi, f=f, g=g)
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


@dataclass(frozen=True)
class SviProblem:
    """Everything a set of sample paths needs besides their noise."""

    phi: ConvexFunction
    hf: ObliqueField
    f: DriftSpec
    g: DiffusionSpec
    x0: np.ndarray
    dt: float
    horizon: float
    n: int
    cfg: PenalizedConfig | None = None
    u0: np.ndarray | None = None
    test_points: tuple = ()
    noise_dims: InitVar[int | None] = None  # if stated, must be g's; not kept

    def __post_init__(self, noise_dims):
        if noise_dims is not None and noise_dims != self.g.noise_dim:
            raise ValueError(f"noise dimension {noise_dims} does not match "
                             f"the {self.g.noise_dim} noise columns of g")


def _setup(p: SviProblem):
    """(x0 as a flat array, horizon cells, window cells, the paths' config,
    substeps per cell) of a problem, the smoothing width defaulting to the
    window 1/n.  Raises ValueError on what fails every path of it alike: a
    dimension mismatch, a test point or u0 of another width or outside the
    domain, a horizon or width off the grid (GridMismatch)."""
    x0 = _flat_state(p.x0, phi=p.phi, H=p.hf, f=p.f, g=p.g)
    _feasible_points(p.phi, p.test_points)
    _feasible_points(p.phi, () if p.u0 is None else [p.u0], "u0")
    cells = grid_cells(p.horizon, p.dt, f"horizon {p.horizon}")
    win = _window_cells(p.n, p.dt)
    cfg = PenalizedConfig(eps=win * p.dt) if p.cfg is None else p.cfg
    return x0, cells, win, cfg, _substep_mesh(cfg, p.dt, p.hf.c)[1]


def _solve_paths(problem: SviProblem, seeds,
                 bpath: SampledPath | None = None):
    """The sample paths of the given seeds from one sweep of the substep
    kernel: (xq, kq, n_sub, breaches, solution).  xq and kq hold the
    states and reflections of every path on the substep mesh, time first
    (Q + 1, B, d); breaches maps the row of a path that left the guard
    ball to its StabilityBreach (among several paths a breached row's xq
    keeps its last state and its kq its last reflection; a lone path that
    breaches gets kq None); solution(i) builds row i's solution or raises
    its breach.  Any other exception, a bad problem or a failing sweep,
    propagates.

    A path is driven by its seed's Brownian path, or by bpath when given
    (for one seed, which then only labels the path).  The paths sweep as
    one state of shape (B, d), every row bit for bit as the path alone.  A
    solution copies its rows out of the shared arrays when the sweep held
    more than one path; a lone path's arrays are its own, and it keeps them.
    """
    p = problem
    x0, cells, win, cfg, n_sub = _setup(p)
    # filled in place: a list of the paths' increments would raise the
    # peak memory by one more chunk-sized array
    db = np.empty((cells, len(seeds), p.g.noise_dim))
    for i, seed in enumerate(seeds):
        db[:, i] = np.diff((bpath or brownian_path(BrownianDriver(
            seed=seed, dt=p.dt, dims=p.g.noise_dim, horizon=p.horizon))).values,
            axis=0)
    xq = np.empty((cells * n_sub + 1, len(seeds), x0.size))
    xq[0] = x0
    mvals, rates, fill = _window_input(p.f, p.g, p.phi, xq[::n_sub], db,
                                       p.dt, win)
    where = [f"seed={seed}, n={p.n}" for seed in seeds]
    # stacks through convex.make_resolvent: the benchmark tracer's face
    # check on sde.make_resolvent reads one point
    prox_rows = convex.make_resolvent(p.phi, cfg.eps)
    if len(seeds) == 1:
        # the row views take the point operations of solve_penalized, which
        # run about twice as fast as a one-row stack
        try:
            kq, max_grad, breaches = _sweep(
                xq[:, 0], n_sub, p.dt, cfg, make_resolvent(p.phi, cfg.eps),
                prox_rows, make_field_eval(p.hf), rates[:, 0], where[0],
                fill)
            kq, max_grad = kq[:, None], [max_grad]
        except StabilityBreach as exc:
            kq, max_grad, breaches = None, None, {0: exc}
    else:
        kq, max_grad, breaches = _sweep(
            xq, n_sub, p.dt, cfg, prox_rows, prox_rows,
            make_field_eval(p.hf), rates, where, fill)
    take = np.copy if len(seeds) > 1 else (lambda a: a)
    sid = system_id(p.phi, p.hf)

    def solution(i):
        if i in breaches:
            raise breaches[i]
        seed = seeds[i]
        diag = {"generator": GENERATOR_ID,
                "seed": None if seed is None else int(seed), "n_window": p.n,
                "window_cells": win, "eps": cfg.eps,
                "n_substeps_per_cell": n_sub}
        return _solution(
            p.phi, sid, p.dt, n_sub, cfg.eps, take(xq[:, i]), take(kq[:, i]),
            float(max_grad[i]), diag, SampledPath(
                t0=0.0, dt=p.dt, values=take(mvals[:, i]), extension="zero"))
    return xq, kq, n_sub, breaches, solution


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
    Either must be as wide as g has noise columns (ValueError otherwise).
    """
    given = isinstance(drv, SampledPath)
    bpath = drv if given else brownian_path(drv)
    p = SviProblem(phi=phi, hf=hf, f=f, g=g, x0=x0, dt=bpath.dt,
                   horizon=bpath.horizon, noise_dims=bpath.dim, n=n, cfg=cfg)
    return _solve_paths(p, [None if given else drv.seed], bpath)[-1](0)


# Bytes of per-row arrays (see _row_bytes) one chunk of monte_carlo may
# hold.  Larger chunks sweep faster, smaller ones hold less: at 768 KiB a
# 256-path halfline-svi run (37 rows per chunk) peaks at the memory of one
# path at a time.
_CHUNK_BYTES = 768 * 1024


def _row_bytes(problem: SviProblem) -> int:
    """Bytes a path holds in a chunk: its Brownian increments, its state
    and reflection on the substep mesh, and the values and rates of M."""
    _, cells, _, _, n_sub = _setup(problem)
    return 8 * (cells * problem.g.noise_dim + problem.hf.dim
                * (2 * (cells * n_sub + 1) + 2 * cells + 1))


def _chunk_rows(problem: SviProblem) -> int:
    return max(1, _CHUNK_BYTES // _row_bytes(problem))


def _chunk_outcomes(problem: SviProblem, plan, seeds, collect: bool) -> list:
    """What one sweep of the given seeds gives each path, in seed order:
    its StabilityBreach, or (grid states, tv_k, largest feasibility defect,
    VI residual on the plan or None, its solution when collect is set).

    The certificates come from the chunk's arrays, in path-major slices of
    a few paths: the operator calls run once per slice, the sums along a
    path on its own rows, so every number is the one its solution and
    vi_residual give, bit for bit, and the temporaries stay small."""
    p = problem
    xq, kq, n_sub, breaches, solution = _solve_paths(p, seeds)
    out = dict(breaches)
    live = [i for i in range(len(seeds)) if i not in breaches]
    step = max(1, _SLICE_ROWS // xq.shape[0])
    for lo in range(0, len(live), step):
        rows = live[lo:lo + step]
        xs = xq.transpose(1, 0, 2)[rows]
        ks = kq.transpose(1, 0, 2)[rows]
        xg = xs[:, ::n_sub]
        tvs, defects = _grid_checks(p.phi.domain, p.dt, xg, ks[:, ::n_sub])
        vis = [None] * len(rows) if plan is None else [
            worst[0] for worst in _vi_worst(p.phi, plan, xs, ks)]
        for j, i in enumerate(rows):
            out[i] = (xg[j], tvs[j], float(defects[j]), vis[j],
                      solution(i) if collect else None)
    return [out[i] for i in range(len(seeds))]


def monte_carlo(problem: SviProblem, n_paths: int, base_seed: int,
                collect_paths: bool = False) -> dict:
    """Seeded batch of sample paths with deterministic aggregation.

    Path i uses seed base_seed + i.  The paths run in seed order, in chunks
    whose size comes from a fixed byte budget on the arrays a path holds;
    a chunk is one sweep of a (B, d) state, and every path in it comes out
    bit for bit as solve_svi_path gives it alone, so nothing depends on the
    chunk size.  Each path's tv_k, feasibility defect and VI residual are
    computed from the chunk's arrays, equal to those of its solution; the
    solutions themselves are built only for collect_paths.  A bad problem
    (see _setup), or a seed outside 64 bits, raises its ValueError before
    any sweep.  A path that raises, a guard breach in the sweep included,
    is recorded in `failures` and left out of the statistics; the others
    still count.  Any other exception of a chunk of several seeds reruns
    each of them as a chunk of one, lazily, so each path still gets its
    own outcome; a chunk of one is its seed's own run, and its exception
    is that path's failure.
    """
    n_paths = _count("n_paths", n_paths)
    base_seed = _count("base_seed", base_seed)
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if not 0 <= base_seed <= 2 ** 64 - n_paths:
        raise ValueError(f"seeds {base_seed} .. {base_seed + n_paths - 1} "
                         "must fit in 64 bits")
    p = problem
    _, cells, _, _, n_sub = _setup(p)
    plan = None
    if p.test_points or p.u0 is not None:
        # every path shares the mesh: the constant test points are
        # evaluated once
        plan = _vi_plan(p.phi, _substep_times(p.dt, n_sub,
                                              cells * n_sub + 1),
                        test_points=list(p.test_points) or None, u0=p.u0)
    # the kept paths' states, one row each in seed order
    stack = None
    tvs, defects, vis = [], [], []
    kept_seeds, kept_paths, failures = [], [], []
    seeds = range(base_seed, base_seed + n_paths)
    # as few chunks as the budget allows, as even as can be
    chunks = -(-n_paths // _chunk_rows(p))
    step = -(-n_paths // chunks)
    for lo in range(0, n_paths, step):
        chunk = seeds[lo:lo + step]
        try:
            outcomes = _chunk_outcomes(p, plan, chunk, collect_paths)
        except Exception as exc:  # noqa: BLE001  (reruns tell paths apart)
            # a chunk of one is its seed's run: its exception is the outcome
            outcomes = [exc] if len(chunk) == 1 else [None] * len(chunk)
        for seed, out in zip(chunk, outcomes):
            try:
                if out is None:
                    # after a failed chunk the seed reruns as a chunk of one
                    out, = _chunk_outcomes(p, plan, [seed], collect_paths)
                if isinstance(out, Exception):
                    raise out
            except Exception as exc:  # noqa: BLE001  (per-path isolation)
                failures.append({"seed": seed, "error": type(exc).__name__,
                                 "message": str(exc)})
                continue
            xg, tv, defect, vi, sol = out
            if stack is None:
                stack = np.empty((n_paths,) + xg.shape)
            stack[len(kept_seeds)] = xg
            tvs.append(tv)
            defects.append(defect)
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
        "base_seed": base_seed,
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
