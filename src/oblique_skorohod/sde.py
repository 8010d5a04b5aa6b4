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
the substep kernel of `solver` (the one behind `solve_penalized`) over the
state of B paths, shape (B, d) with time first, driven by their inputs M,
and every path comes out bit for bit as it does alone.  M comes from the
single block-causal builder `_window_input`: once the state is final
through node j, one stacked step (one projection of the delayed states,
one evaluation of f and g) gives M up to node j + w + 1, w being the
window 1/n in grid cells; the driver asks for each input just before the
kernel reads it.  `solve_svi_path` is the driver on one path,
`monte_carlo` on chunks of seeds, and `build_Mn` runs the same builder
over a given state history.  A path that leaves the guard ball fails
alone.  Without collected solutions a chunk streams through time: the
kernel sweeps _SPAN cells at a time, and a path keeps only that block's
arrays, the running sums of M and its unused noise, besides its states on
the grid, which `monte_carlo` keeps for the mean and variance.  Each
path's certificates (tv_k, the feasibility defect, the VI residual) are
summed block by block as the blocks pass, with the helpers that a
solution and `vi_residual` use for one path, so they are the same
numbers; per-path solutions are built only when asked for, over one
block spanning the horizon.  A chunk of several seeds that fails reruns
its seeds through the same chunk code, one seed per chunk.

The seeded Brownian drivers and their Gaussians live in `noise`.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from . import convex
from .coeffs import DiffusionSpec, DriftSpec
from .convex import ConvexFunction, make_resolvent
from .diagnostics import _feasible_points, _vi_plan, _ViSums
from .field import ObliqueField, make_field_eval
from .noise import (_PIECE, GENERATOR_ID, BrownianDriver,  # noqa: F401
                    _increments, brownian_path, standard_normals)
from .paths import _SUM_BLOCK, GridMismatch, SampledPath, _count, grid_cells
from .solver import (_SLICE_ROWS, PenalizedConfig, SkorohodSolution,
                     StabilityBreach, _flat_state, _grid_checks, _solution,
                     _substep_mesh, _substep_times, _sweep, system_id)

def _window_cells(n: int, dt: float) -> int:
    if _count("n", n) < 1:
        raise ValueError("n must be >= 1")
    return grid_cells(1.0 / n, dt, f"window 1/n = {1.0 / n}")


def _window_input(f: DriftSpec, g: DiffusionSpec, proj, x_hist: np.ndarray,
                  noise, dt: float, win: int, values=None):
    """Block-causal builder of the delayed-window input M, time first: for
    a state history (x_hist (cells + 1, d)) in build_Mn, and for the B
    paths of _solve_paths (x_hist (cells + 1, B, d)), a lone path included.
    proj is the domain's projector and noise(j, hi) the Brownian increments
    over cells j .. hi - 1 (calls in order).

    Returns fill(j, hi, rates): M of every path over cells j .. hi - 1,
    its increment rates written into rates (hi - j, ...) and, when values
    (cells + 1, ...) is given, its nodes j + 1 .. hi into values (node 0
    stays as given, zero).  Calls go j = 0, then each hi the call before
    was given.  Node i + 1 of M reads only the delayed state
    x_hist[i - win] (x_hist[0] before time 0), so the caller must have
    x_hist final through node hi - 1 - win.  A path the sweep has dropped
    is filled like the others, from the last state the kernel left in its
    x_hist rows.  A call is one projection and one evaluation of f and of
    g on the delayed states flattened to rows, each with its node's time,
    so every row comes out as on its own.  The running sums are
    np.add.accumulate along time seeded with the node before, which adds
    in the order of a cell-by-cell loop, so M does not depend on where
    the calls cut it; only the nodes that later calls read are kept.
    """
    shape = x_hist.shape[1:]
    # what later calls read of the running sums and of M: ito, drift and
    # M at node j; run at nodes j - win .. j, node m in row m % (win + 1)
    # (zero before time 0)
    ito, drift, last = (np.zeros((1,) + shape) for _ in range(3))
    run = np.zeros((win + 1,) + shape)

    per_node = math.prod(shape[:-1])  # paths: B, or 1 for a history

    def increments(i):
        # the Ito and drift increments over cells i, time first
        dw = noise(i[0], i[-1] + 1).reshape(i.size * per_node, -1, 1)
        xd = proj(x_hist[np.maximum(i - win, 0)].reshape(dw.shape[0], -1))
        t = np.repeat(i * dt, per_node)
        return ((g.eval(t, xd) @ dw).reshape((i.size,) + shape),
                (dt * f.eval(t, xd)).reshape((i.size,) + shape))

    def fill(j: int, hi: int, rates: np.ndarray):
        i = np.arange(j, hi)
        ito_i, drift_i = increments(i)

        def running(sums, increments):
            # nodes j .. hi of a running sum from its node-j entry
            return np.add.accumulate(np.concatenate((sums, increments)))

        ito_b = running(ito, ito_i)
        drift_b = running(drift, drift_i)
        # run at nodes j .. hi, and at the window's first node of each
        # node i + 1: node max(i + 1 - win, 0), in run up to node j
        run_b = running(run[[j % (win + 1)]], ito_b[:-1])
        cut = min(hi, j + win) - j
        first = np.concatenate((run[np.maximum(i[:cut] + 1 - win, 0)
                                    % (win + 1)], run_b[1:hi - j - cut + 1]))
        new = drift_b[1:] + (run_b[1:] - first) / win
        rates[0] = new[0] - last[0]
        np.subtract(new[1:], new[:-1], out=rates[1:])
        rates /= dt
        if values is not None:
            values[j + 1:hi + 1] = new
        ito[:], drift[:], last[:] = ito_b[-1:], drift_b[-1:], new[-1:]
        keep = np.arange(max(j + 1, hi - win), hi + 1)
        run[keep % (win + 1)] = run_b[keep - j]

    return fill


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
    db = np.diff(bpath.values, axis=0)
    values = np.zeros(x_hist.values.shape)
    # the whole history is given: one call takes every cell
    _window_input(f, g, convex._projector(phi.domain), x_hist.values,
                  lambda j, hi: db[j:hi], dt, _window_cells(n, dt),
                  values)(0, cells, np.empty((cells, x_hist.dim)))
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
    its delay in cells, substeps per cell) of a problem, the smoothing
    width defaulting to the window 1/n.  Raises ValueError on what fails
    every path of it alike: a dimension mismatch, a test point or u0 of
    another width or outside the domain, a horizon or width off the grid
    (GridMismatch)."""
    x0 = _flat_state(p.x0, phi=p.phi, H=p.hf, f=p.f, g=p.g)
    _feasible_points(p.phi, p.test_points)
    _feasible_points(p.phi, () if p.u0 is None else [p.u0], "u0")
    cells = grid_cells(p.horizon, p.dt, f"horizon {p.horizon}")
    win = _window_cells(p.n, p.dt)
    cfg = PenalizedConfig(eps=win * p.dt) if p.cfg is None else p.cfg
    return (x0, cells, win, cfg) + _substep_mesh(cfg, p.dt, p.hf.c)


# Grid cells a streamed sweep takes at a time: one block of the
# certificates' sums, so that a chunk's certificates are its solutions'
_SPAN = _SUM_BLOCK


def _solve_paths(problem: SviProblem, seeds,
                 bpath: SampledPath | None = None, proj=None,
                 on_block=None, whole: bool = True):
    """The sample paths of the given seeds from one sweep of the substep
    kernel, block after block: (xq, kq, xg, breaches, solution).

    whole: one block spans the horizon, and xq and kq hold the states and
    reflections of every path on the whole substep mesh, time first
    (Q + 1, B, d); solution(i) builds row i's solution or raises its
    breach.  Otherwise the sweep streams: it takes _SPAN cells at a time,
    and keeps the block's states and reflections (a view of xg for
    n_sub = 1), the block's input rates, the running sums of M and each
    seed's unused uniforms, so a path's memory does not grow with the
    horizon; xq, kq and solution are then None.  xg holds the states of
    every path on the grid, (cells + 1, B, d), a view of xq when whole.
    After each block, on_block(start, xq, kq) gets its arrays, from grid
    cell start on.  breaches maps the row of a path that left the guard
    ball to its StabilityBreach; a breached row keeps its last state from
    there on.  Any other exception, a bad problem or a failing sweep,
    propagates.

    A path is driven by its seed's Brownian path, drawn as the blocks need
    it (_increments), or by bpath when given (for one seed, which then
    only labels the path).  The paths sweep as one state of shape (B, d),
    every row bit for bit as the path alone, in any blocks.  proj is the
    domain's projector, built here unless given, and serves every block's
    window input.  A solution copies its rows out of the shared arrays
    when the sweep held more than one path; a lone path's arrays are its
    own, and it keeps them.
    """
    p = problem
    x0, cells, win, cfg, lag, n_sub = _setup(p)
    n_rows, span = len(seeds), cells if whole else min(_SPAN, cells)
    if proj is None:
        proj = convex._projector(p.phi.domain)
    if bpath is None:
        noise = _increments(seeds, p.g.noise_dim, p.dt)
    else:
        db = np.diff(bpath.values, axis=0)[:, None]
        noise = lambda j, hi: db[j:hi]  # noqa: E731
    shape = (n_rows, x0.size)
    if whole:
        xq = np.empty((cells * n_sub + 1,) + shape)
        xg, mvals = xq[::n_sub], np.zeros((cells + 1,) + shape)
    else:
        xg, mvals = np.empty((cells + 1,) + shape), None
        # the kernel writes a block of n_sub = 1 straight into xg
        xq = np.empty((span * n_sub + 1,) + shape) if n_sub > 1 else None
    # whether the kernel's states land in xg as it writes them
    direct = whole or n_sub == 1
    xg[0] = x0
    kq = np.zeros((span * n_sub + 1,) + shape)
    # rates[i] is input cell base + i; base = max(start - lag, 0) is the
    # first input cell the block reads
    rates = np.empty((span,) + shape)
    window = _window_input(p.f, p.g, proj, xg, noise, p.dt, win, mvals)
    # input cells per window call: its temporaries stay below _SLICE_ROWS
    # state rows
    per_call = max(1, _SLICE_ROWS // n_rows)
    filled = 0  # the input cells filled so far
    where = [f"seed={seed}, n={p.n}" for seed in seeds]
    # stacks through convex.make_resolvent: the benchmark tracer's face
    # check on sde.make_resolvent reads one point
    prox_rows = convex.make_resolvent(p.phi, cfg.eps)
    field_at = make_field_eval(p.hf)
    # a lone path takes the point operations of solve_penalized, which run
    # about twice as fast as a one-row stack
    prox = make_resolvent(p.phi, cfg.eps) if n_rows == 1 else prox_rows
    breaches, max_grad = {}, None
    start = 0
    while start < cells and len(breaches) < n_rows:
        end = min(start + span, cells)
        n = (end - start) * n_sub
        if direct:
            xb = xg[start:end + 1] if xq is None else xq
        else:
            xb = xq[:n + 1]
            xb[0] = xg[start]
        kb = kq[:n + 1]
        base = max(start - lag, 0)

        def fill(j):
            # grid cell j reads input cell j - lag, which reads the state at
            # node j - lag - win: the states through node j give the input
            # of cells j .. j + lag + win (none before the delay)
            nonlocal filled
            if j < lag:
                return min(lag, end)
            hi = min(end, j + per_call, j + lag + win + 1)
            if not direct:
                # the window reads the block's states on the grid
                xg[start:j + 1] = xb[:(j - start) * n_sub + 1:n_sub]
            window(filled, hi - lag, rates[filled - base:hi - lag - base])
            filled = hi - lag
            return hi

        if n_rows == 1:
            try:
                _, top, _ = _sweep(xb[:, 0], kb[:, 0], start, n_sub, p.dt,
                                   cfg, prox, prox_rows, field_at,
                                   rates[:, 0], where[0], {}, fill)
            except StabilityBreach as exc:
                breaches[0] = exc
                break
            top = [top]
        else:
            _, top, breaches = _sweep(xb, kb, start, n_sub, p.dt, cfg, prox,
                                      prox_rows, field_at, rates, where,
                                      breaches, fill)
        if not direct:
            xg[start:end + 1] = xb[::n_sub]
        max_grad = top  # each path's, the sweep being whole
        if on_block is not None:
            on_block(start, xb, kb)
        if not whole:
            kq[0] = kb[-1]  # k at the next block's start
        start = end
    if not whole:
        return None, None, xg, breaches, None
    while filled < cells and len(breaches) < n_rows:
        # the inputs past the last cell's delay, for M
        hi = min(cells, filled + per_call)
        window(filled, hi, rates[filled:hi])
        filled = hi
    take = np.copy if n_rows > 1 else (lambda a: a)
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
                t0=0.0, dt=p.dt, values=take(mvals[:, i]), extension="zero"),
            proj)
    return xq, kq, xg, breaches, solution


def solve_svi_path(phi: ConvexFunction, hf: ObliqueField, f: DriftSpec,
                   g: DiffusionSpec, x0, drv: BrownianDriver | SampledPath,
                   n: int, cfg: PenalizedConfig | None = None) -> SkorohodSolution:
    """One sample path of the constrained stochastic evolution.

    The deterministic substep kernel of `solver` driven by the
    delayed-window input M, which the sweep fills a few cells at a time
    just before the substeps that use it (each block only reads
    already-final states).
    The smoothing width defaults to the window 1/n when cfg is None.
    Bit-identical for identical (seed, n, cfg).

    drv is normally a BrownianDriver; a pre-sampled driving path may be
    passed instead for pathwise solves against a fixed noise realization.
    Either must be as wide as g has noise columns (ValueError otherwise).
    """
    given = isinstance(drv, SampledPath)
    p = SviProblem(phi=phi, hf=hf, f=f, g=g, x0=x0, dt=drv.dt,
                   horizon=drv.horizon, noise_dims=drv.dim if given
                   else drv.dims, n=n, cfg=cfg)
    return _solve_paths(p, [None if given else drv.seed],
                        drv if given else None)[-1](0)


# Bytes of per-row arrays (see _row_bytes) one chunk of monte_carlo may
# hold.  Larger chunks sweep faster, smaller ones hold less: at 768 KiB a
# 256-path halfline-svi run is one streamed chunk (300 rows fit), and 43
# rows fit when the paths are collected.
_CHUNK_BYTES = 768 * 1024


def _row_bytes(problem: SviProblem, streamed: bool = False) -> int:
    """Bytes a path holds in a chunk (_solve_paths).  Streamed: its state
    (if n_sub > 1) and reflection over a block's substeps and its input
    rates over the block; its states on the grid, which it keeps to the
    end, are the chunk's share of monte_carlo's stack of grid states and
    are not counted.  Whole, for collected solutions: its state and
    reflection on the whole substep mesh, and the values and rates of M.
    Both: the running sums of M, and its unused uniforms and Brownian
    level."""
    _, cells, win, _, _, n_sub = _setup(problem)
    if streamed:
        span = min(_SPAN, cells)
        held = (span * n_sub + 1) * (1 + (n_sub > 1)) + span
    else:
        held = 2 * (cells * n_sub + 1) + 2 * cells + 1
    return 8 * (problem.hf.dim * (held + win + 4) + _PIECE + 1
                + problem.g.noise_dim)


def _chunk_rows(problem: SviProblem, streamed: bool = False) -> int:
    return max(1, _CHUNK_BYTES // _row_bytes(problem, streamed))


def _chunk_outcomes(problem: SviProblem, plan, seeds, collect: bool) -> list:
    """What one sweep of the given seeds gives each path, in seed order:
    its StabilityBreach, or (grid states, tv_k, largest feasibility defect,
    VI residual on the plan or None, its solution when collect is set).

    The sweep streams unless collect is set.  The certificates come from
    the chunk's arrays block after block (the one block of the whole mesh
    for collect), in path-major slices of a few paths: the operator calls
    run once per slice, the sums along a path block by block on its own
    rows, so every number is the one its solution and vi_residual give,
    bit for bit, and the temporaries stay small.  One projector of the
    domain serves the chunk's window input and certificates."""
    p = problem
    n_sub = _setup(p)[-1]
    proj = convex._projector(p.phi.domain)
    n_rows = len(seeds)
    tv, defect = np.zeros(n_rows), np.full(n_rows, -math.inf)
    vi = None if plan is None else _ViSums(p.phi, plan, n_rows, proj)

    def certify(start, xq, kq):
        # every row, a breached one's certificates going unused (its
        # states stay finite)
        step = max(1, _SLICE_ROWS // xq.shape[0])
        for lo in range(0, n_rows, step):
            rows = slice(lo, lo + step)
            xs = xq[:, rows].transpose(1, 0, 2).copy()
            ks = kq[:, rows].transpose(1, 0, 2).copy()
            tv[rows], defect[rows] = _grid_checks(
                proj, xs[:, ::n_sub], ks[:, ::n_sub], start, tv[rows],
                defect[rows])
            if vi is not None:
                vi.add(xs, ks, start * n_sub, rows)

    _, _, xg, breaches, solution = _solve_paths(
        p, seeds, proj=proj, on_block=certify, whole=collect)
    worst = None if vi is None else vi.worst()
    out = dict(breaches)
    for i in range(n_rows):
        if i not in breaches:
            sol = solution(i) if collect else None
            # a solution's own grid states, so the chunk's arrays can go
            out[i] = (xg[:, i] if sol is None else sol.x.values,
                      float(tv[i]), float(defect[i]),
                      None if worst is None else worst[i][0], sol)
    return [out[i] for i in range(n_rows)]


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
    _, cells, _, _, _, n_sub = _setup(p)
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
    chunks = -(-n_paths // _chunk_rows(p, not collect_paths))
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
    # the last chunk's arrays go before the variance takes a stack's room
    outcomes = out = xg = None
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
