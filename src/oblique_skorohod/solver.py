"""Constrained-evolution solver with oblique reflection directions.

The continuous problem: find x staying in the domain of phi and a
bounded-variation reflection term k with

    x(t) + integral_0^t H(x(s)) dk(s) = x0 + integral_0^t f(s, x(s)) ds + m(t)

where dk is a measure subgradient of phi along x.  The scheme regularizes
phi at level eps, delays the inputs by eps, and integrates the resulting
Lipschitz equation explicitly:

    x'(s) = -H(x(s)) grad_eps(x(s)) + f(s - eps, P(x(s - eps))) + m'(s - eps)

with grad_eps the regularized gradient, P the domain projection, state
history frozen at x0 before time 0, and f, m' extended by zero before
time 0.  k accumulates grad_eps with the same rectangle rule as the state
update, so the discrete integral identity holds to rounding.  Refinement
halves eps (snapped up to grid multiples) until consecutive solutions agree
uniformly within tol; the mollified input for each level is the trailing
eps-average of m.

One kernel, `_sweep`, performs the substeps for both this module and the
stochastic solver in `sde`; the callers differ only in the input rate they
supply (m' plus the delayed drift here, the window input M there).  Both
delayed inputs read the state one delay width back, so the kernel has them
computed one block at a time, each block with one stacked projection.
Only state-dependent work runs per substep (the prox, g, H(x) g, the
update, the guard test, storing x and g); the delayed cell of each
substep is computed once per level, the drift gets its rates once per
filled block, and k and the largest gradient norm come from the stored g
after the sweep, with the same sequential sums as a per-substep k += h g.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import convex
from .coeffs import DriftSpec
from .convex import ConvexFunction, make_resolvent, set_distance
from .field import ObliqueField, make_field_eval
from .paths import (GridMismatch, SampledPath, grid_cells, mollify,
                    snapped_width, total_variation)


class StabilityBreach(RuntimeError):
    """The explicit integrator left the guard ball; inputs or eps are bad."""


class NoConvergence(RuntimeError):
    """The refinement ladder exhausted its halvings above tolerance."""

    def __init__(self, message: str, history):
        super().__init__(message)
        self.history = list(history)


@dataclass(frozen=True)
class PenalizedConfig:
    """Single-level scheme parameters.

    eps is the smoothing / delay width (a grid multiple of the input dt).
    substep_ratio >= 2 fixes the explicit-Euler stability margin: the inner
    step h satisfies h * (c / eps) <= 1 / substep_ratio < 1.  guard_radius
    aborts runaway trajectories.
    """

    eps: float
    substep_ratio: int = 10
    guard_radius: float = 1e6

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if int(self.substep_ratio) < 2:
            raise ValueError("substep_ratio must be an integer >= 2")
        if not self.guard_radius > 0.0:
            raise ValueError("guard_radius must be positive")


@dataclass
class SkorohodSolution:
    """Solver output: state and reflection paths on the scenario grid.

    x and k share the grid; k(0) = 0 and tv_k is the total variation of k
    over the full window.  refinement_history lists (eps, gap) pairs, gap
    being the uniform node distance to the previous level (None at the
    first level).  The *_quad arrays keep the solver's own substep mesh so
    diagnostics can reuse the exact quadrature that produced the solution.
    """

    x: SampledPath
    k: SampledPath
    tv_k: float
    eps: float
    system_id: str
    refinement_history: list = dc_field(default_factory=list)
    diagnostics: dict = dc_field(default_factory=dict)
    t_quad: np.ndarray | None = None
    x_quad: np.ndarray | None = None
    k_quad: np.ndarray | None = None
    input_m: SampledPath | None = None

    @property
    def grid_dt(self) -> float:
        return self.x.dt

    @property
    def horizon(self) -> float:
        return self.x.horizon


def _hash_array(h, arr):
    if arr is None:
        h.update(b"~")
    else:
        a = np.ascontiguousarray(arr, dtype=float)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())


def system_id(phi: ConvexFunction, hf: ObliqueField) -> str:
    """Stable identifier of the (phi, H) pair for same-system checks."""
    h = hashlib.sha1()
    h.update(phi.kind.encode())
    h.update(phi.domain.kind.encode())
    for arr in (phi.domain.lo, phi.domain.hi, phi.domain.center,
                phi.domain.normals, phi.domain.offsets,
                phi.A, phi.q, phi.a):
        _hash_array(h, arr)
    h.update(repr((phi.beta, phi.domain.radius)).encode())
    h.update(hf.kind.encode())
    for arr in (hf.matrix, hf.base, hf.slopes, hf.offsets, hf.span,
                hf.m0, hf.m1, hf.w_direction):
        _hash_array(h, arr)
    h.update(repr((hf.c, hf.b, hf.w_offset)).encode())
    return h.hexdigest()[:16]


def _require_time_zero(m: SampledPath):
    if abs(m.t0) > 1e-12:
        raise GridMismatch("solver inputs must start at t = 0")


def _substep_mesh(cfg: PenalizedConfig, dt: float, c: float):
    """(delay in grid cells, substeps per cell) of one level at cfg.eps."""
    lag = grid_cells(cfg.eps, dt, f"eps = {cfg.eps}")
    return lag, max(1, int(math.ceil(dt * c * int(cfg.substep_ratio) / cfg.eps
                                     - 1e-12)))


# State rows (substeps times paths) per slice of the pass that follows a
# sweep: its temporaries stay at a few thousand floats, well below xq.
_SLICE_ROWS = 4096


def _delayed_cells(n_steps, h, dt, eps, n_cells):
    """(first, cells): substeps q < first come before the delay ends, and
    substep q >= first reads grid cell cells[q - first], from the float
    expressions tau = q h - eps, cell = int(tau / dt + 1e-9) of each
    substep, vectorized."""
    tau = np.arange(n_steps) * h - eps
    first = int(np.count_nonzero(tau < -1e-12))
    return first, np.minimum((tau[first:] / dt + 1e-9).astype(np.intp),
                             n_cells - 1)


def _sweep(xq, n_sub, dt, cfg, prox, field_at, rates, where, fill=None,
           drift=None):
    """The explicit substep kernel shared by the deterministic and the
    stochastic solvers, for one path or a chunk of paths; returns (kq,
    largest regularized-gradient norm, breaches).

    Time is the first axis: xq is (Q + 1, d) for one path and (Q + 1, B, d)
    for a chunk of B paths, and rates (cells, d) or (cells, B, d) likewise.
    xq[0] holds x0; xq receives the state and kq the reflection at every
    substep h = dt / n_sub.  At substep q the delayed input rate is
    rates[cell] plus drift[q] when given, cell being the grid cell of
    tau = q h - eps; before time eps only the field term acts.  The delayed
    inputs are filled causally, one block at a time: before cell j, when
    the blocks filled so far end at cell j, fill(j, rows) computes the next
    block of the given rows from the states through substep j n_sub and
    returns the cell where it ends.

    The work is split by what it depends on.  Once per call, before the
    loop: the delayed cell of every substep, vectorized.  Once per filled
    block: fill, and with a drift the block's rates[cell] added into
    drift[q] in place.  Per substep, only what reads the state: the prox,
    g, H(x) g, the state update, the guard test and storing x and g.  After
    the sweep, in slices of time: the largest g.g (np.fmax, so a NaN norm
    is skipped), then kq scaled by h and summed along time with
    np.add.accumulate, the same sequential sums as k = k + h g.

    The state leaving the guard ball (a NaN state included) is a
    StabilityBreach naming `where`.  One path raises it and gets a float
    norm.  In a chunk, `where` holds one label per row; a breaching row is
    recorded in breaches (row -> the StabilityBreach its own run raises)
    and leaves the chunk, so neither the kernel nor fill reads it again;
    its stored g stays zero from there on (its k constant) and its norm
    is 0.  Each row comes out bit for bit as on its own: the row operations
    below are the point products, stacked.
    """
    eps = cfg.eps
    h = dt / n_sub
    guard2 = cfg.guard_radius * cfg.guard_radius
    n_steps = xq.shape[0] - 1
    n_cells = n_steps // n_sub
    first, cells = _delayed_cells(n_steps, h, dt, eps, n_cells)
    # substep q >= first reads inputs[at[q - first]]
    if drift is None:
        inputs, at = rates, cells
    else:
        inputs, at = drift[first:], range(n_steps - first)
    x = xq[0].copy()
    kq = np.zeros(xq.shape)
    breaches = {}
    # rows: the rows still in the sweep, every row until one breaches
    rows = slice(None)

    def message(x_row, q, label):
        return (f"state norm {float(np.linalg.norm(x_row)):.3e} left the "
                f"guard ball at t={(q + 1) * h:.6g} ({label})")

    def sq(v):
        # v.v of each row, as the point's float(v @ v) computes it
        return (v[..., None, :] @ v[..., :, None])[..., 0, 0]

    if xq.ndim == 2:
        apply = operator.matmul

        def inside(v):
            return float(v @ v) <= guard2

        def leave(q):
            raise StabilityBreach(message(x, q, where))
    else:
        def apply(m, v):
            return (m @ v[:, :, None])[:, :, 0]

        def inside(v):
            return bool((sq(v) <= guard2).all())

        def leave(q):
            nonlocal x, live, rows
            keep = sq(x) <= guard2
            for i in np.flatnonzero(~keep):
                breaches[int(live[i])] = StabilityBreach(
                    message(x[i], q, where[live[i]]))
            x, live = x[keep], live[keep]
            rows = live
        live = np.arange(x.shape[0])
    ready = 0
    for j in range(n_cells):
        if j == ready and fill is not None:
            ready = fill(j, rows)
            if drift is not None:
                lo, hi = max(j * n_sub, first), ready * n_sub
                drift[lo:hi] += rates[cells[lo - first:hi - first]]
        for q in range(j * n_sub, (j + 1) * n_sub):
            g = (x - prox(x)) / eps
            hg = apply(field_at(x), g)
            if q < first:
                x = x - h * hg
            else:
                x = x + h * (inputs[at[q - first], rows] - hg)
            kq[q + 1, rows] = g
            if not inside(x):
                leave(q)
                if not x.shape[0]:
                    return kq, np.zeros(xq.shape[1]), breaches
            xq[q + 1, rows] = x
    top = np.zeros(xq.shape[1:-1])
    step = max(1, _SLICE_ROWS // top.size)
    for lo in range(1, n_steps + 1, step):
        block = kq[lo:lo + step]
        top = np.fmax(top, np.fmax.reduce(sq(block), axis=0))
        block *= h
        np.add.accumulate(kq[lo - 1:lo + step], axis=0,
                          out=kq[lo - 1:lo + step])
    if xq.ndim == 2:
        return kq, math.sqrt(top), breaches
    norms = np.sqrt(top)
    norms[list(breaches)] = 0.0
    return kq, norms, breaches


def _solution(phi, sid, dt, n_sub, eps, xq, kq, max_grad, diag,
              input_m) -> SkorohodSolution:
    """One level's solution on the grid (every n_sub-th substep).  sid is
    system_id(phi, H), hashed once by the caller; diag gets the gradient and
    feasibility entries."""
    xg = xq[::n_sub].copy()
    k_path = SampledPath(t0=0.0, dt=dt, values=kq[::n_sub].copy(),
                         extension="zero")
    diag["max_gradient_norm"] = max_grad
    diag["max_feasibility_defect"] = float(set_distance(phi.domain, xg).max())
    diag["feasibility_bound"] = eps * max_grad
    return SkorohodSolution(
        x=SampledPath(t0=0.0, dt=dt, values=xg, extension="frozen"),
        k=k_path, tv_k=total_variation(k_path), eps=eps,
        system_id=sid,
        refinement_history=[(eps, None)], diagnostics=diag,
        t_quad=dt / n_sub * np.arange(xq.shape[0]), x_quad=xq, k_quad=kq,
        input_m=input_m)


def solve_penalized(phi: ConvexFunction, hf: ObliqueField, f: DriftSpec,
                    m: SampledPath, x0, cfg: PenalizedConfig) -> SkorohodSolution:
    """One level of the regularized delayed scheme at smoothing width cfg.eps.

    m is treated as continuously differentiable: its derivative enters the
    update as per-cell increments, so summing the updates reproduces the
    increments of m exactly.  The drift adds f(tau, P(x(tau))) at the
    delayed time tau.  Raises GridMismatch if cfg.eps is not a grid
    multiple of m.dt and StabilityBreach if the state leaves the guard ball.
    """
    _require_time_zero(m)
    x0 = np.asarray(x0, dtype=float).ravel()
    d = m.dim
    if x0.size != d or phi.dim != d or hf.dim != d:
        raise ValueError("dimension mismatch between phi, H, m, x0")
    dt = m.dt
    eps = cfg.eps
    lag, n_sub = _substep_mesh(cfg, dt, hf.c)
    lag_sub = lag * n_sub
    h = dt / n_sub
    xq = np.empty((m.n_cells * n_sub + 1, d))
    xq[0] = x0
    drift = None if f.is_zero() else np.empty((m.n_cells * n_sub, d))

    def fill(j, _rows):
        # substep q reads the state at q - lag_sub (x0 before time 0), so
        # the states through substep j n_sub give the next lag cells
        hi = min(j + lag, m.n_cells)
        q = np.arange(j * n_sub, hi * n_sub)
        xd = convex.project_set(phi.domain, xq[np.maximum(q - lag_sub, 0)])
        drift[j * n_sub:hi * n_sub] = f.eval(q * h - eps, xd)
        return hi

    kq, max_grad, _ = _sweep(
        xq, n_sub, dt, cfg, make_resolvent(phi, eps), make_field_eval(hf),
        np.diff(m.values, axis=0) / dt, f"eps={eps}",
        None if drift is None else fill, drift)
    diag = {"eps": eps, "n_substeps_per_cell": n_sub, "substep": h}
    return _solution(phi, system_id(phi, hf), dt, n_sub, eps, xq, kq,
                     max_grad, diag, m)


def _tv_ratio(tv_levels) -> float:
    """Last level's tv_k over the one before; 1 if both are ~0, inf if one."""
    prev, last = tv_levels[-2], tv_levels[-1]
    if prev > 1e-12:
        return last / prev
    return 1.0 if last <= 1e-12 else math.inf


def _node_gap(a: SampledPath, b: SampledPath) -> float:
    return float(np.linalg.norm(a.values - b.values, axis=1).max())


def solve_skorohod(phi: ConvexFunction, hf: ObliqueField, f: DriftSpec,
                   m: SampledPath, x0, tol: float = 1e-3,
                   eps0: float | None = None, max_halvings: int = 10,
                   substep_ratio: int = 10,
                   guard_radius: float = 1e6) -> SkorohodSolution:
    """Refined solution: mollify m at width eps, solve, halve eps, repeat.

    Terminates when consecutive levels agree uniformly within tol at the
    grid nodes.  tol = 0 runs the full ladder (max_halvings halvings, or
    until eps reaches the grid floor) with no convergence requirement; with
    tol > 0 an exhausted ladder raises NoConvergence carrying the history.
    Widths are snapped up to grid multiples and recorded as snapped.
    """
    _require_time_zero(m)
    if not tol >= 0.0:
        raise ValueError("tol must be >= 0")
    if max_halvings < 0:
        raise ValueError("max_halvings must be >= 0")
    horizon = m.horizon
    if eps0 is None:
        eps0 = 0.1 * horizon
    eps = snapped_width(min(eps0, horizon), m.dt)
    history: list[tuple[float, float | None]] = []
    tv_levels: list[float] = []
    prev: SkorohodSolution | None = None
    sol: SkorohodSolution | None = None
    converged = False
    for level in range(max_halvings + 1):
        cfg = PenalizedConfig(eps=eps, substep_ratio=substep_ratio,
                              guard_radius=guard_radius)
        sol = solve_penalized(phi, hf, f, mollify(m, eps), x0, cfg)
        gap = None if prev is None else _node_gap(sol.x, prev.x)
        history.append((eps, gap))
        tv_levels.append(sol.tv_k)
        if tol > 0.0 and gap is not None and gap <= tol:
            converged = True
            break
        nxt = snapped_width(eps / 2.0, m.dt)
        if nxt >= eps:
            break
        prev = sol
        eps = nxt
    if tol > 0.0 and not converged:
        raise NoConvergence(
            f"gap {history[-1][1]} above tol {tol} after {len(history)} levels",
            history)
    sol.refinement_history = history
    sol.diagnostics["tv_k_levels"] = tv_levels
    if len(tv_levels) >= 2:
        sol.diagnostics["tv_k_ratio_last_two"] = _tv_ratio(tv_levels)
    return sol


def oracle_halfline(h: float, x0: float, m: SampledPath) -> SkorohodSolution:
    """Closed-form reflected solution on [0, inf) with constant direction h.

    x = psi + h * ell with psi = x0 + m and
    ell(t) = max(0, -inf_{s<=t} psi(s)) / h; k = -ell.  ell increases only
    where x touches 0.
    """
    _require_time_zero(m)
    if m.dim != 1:
        raise ValueError("the half-line oracle is one-dimensional")
    if not h > 0.0:
        raise ValueError("h must be positive")
    if x0 < 0.0:
        raise ValueError("x0 must lie in [0, inf)")
    psi = float(x0) + m.values[:, 0]
    run_min = np.minimum.accumulate(psi)
    ell = np.maximum(0.0, -run_min) / h
    xv = psi + h * ell
    kv = -ell
    x_path = SampledPath(t0=0.0, dt=m.dt, values=xv[:, None], extension="frozen")
    k_path = SampledPath(t0=0.0, dt=m.dt, values=kv[:, None], extension="zero")
    d_ell = np.diff(ell)
    comp = float((d_ell * np.minimum(xv[:-1], xv[1:])).max(initial=0.0))
    diag = {
        "complementarity_max": comp,
        "max_feasibility_defect": float(max(0.0, -xv.min())),
    }
    return SkorohodSolution(
        x=x_path, k=k_path, tv_k=float(np.abs(np.diff(kv)).sum()),
        eps=0.0, system_id=f"oracle-halfline:h={h!r}",
        refinement_history=[(0.0, None)], diagnostics=diag,
        t_quad=m.dt * np.arange(xv.size), x_quad=xv[:, None].copy(),
        k_quad=kv[:, None].copy())


def stability_gap(sol1: SkorohodSolution, sol2: SkorohodSolution,
                  m1: SampledPath, m2: SampledPath,
                  mu_integral: float = 0.0) -> dict:
    """Continuity-estimate report for two solutions of the same system.

    sup_gap is the uniform node distance of the states, tv_gap_m the total
    variation of m1 - m2, and V the variation budget tv(x1) + tv(x2) +
    tv(k1) + tv(k2) + mu_integral entering the exponential stability factor.
    """
    if abs(sol1.grid_dt - sol2.grid_dt) > 1e-15 or \
            sol1.x.values.shape != sol2.x.values.shape:
        raise GridMismatch("solutions must share the grid")
    if m1.values.shape != m2.values.shape:
        raise GridMismatch("inputs must share the grid")
    sup_gap = _node_gap(sol1.x, sol2.x)
    diff = SampledPath(t0=m1.t0, dt=m1.dt, values=m1.values - m2.values,
                       extension=m1.extension)
    v = (total_variation(sol1.x) + total_variation(sol2.x)
         + total_variation(sol1.k) + total_variation(sol2.k) + mu_integral)
    return {"sup_gap": sup_gap, "tv_gap_m": total_variation(diff), "V": v}
