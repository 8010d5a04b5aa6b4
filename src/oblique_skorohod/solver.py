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
stochastic solver in `sde`; the callers differ only in the input rate
they supply (m' plus the delayed drift here, the window input M there).
A constant drift reads no state and is part of the rate, b0 + m'.  A
drift that reads the state and the window input read it one delay width
back, so the kernel has them added into the rates one block at a time
(fill(j), every row of a chunk alike), each block with one stacked
projection; such a drift changes every substep, so its level runs on the
substep grid.  Per substep runs only the work whose result depends on
the state (the prox, g, H(x) g, the update, the guard test, storing x
and g), and not even that inside the domain: where g is exactly 0 at the
start of a cell, the state only integrates its input until it leaves the
interior, so the kernel takes that stretch as one running sum with one
stacked prox.  The delay eps is lag whole grid cells (paths.grid_cells),
so substep q of n_sub per cell reads input cell q // n_sub - lag, and
the rate -0.0 before the delay (the zero extension, with the bits of the
field term alone): the cell's input row is taken once per cell, and k
and the largest gradient norm come from the stored g after the sweep,
with the same sequential sums as a per-substep k += h g.  A chunk row
that leaves the guard ball keeps its last state in xq from there on.  A
point runs the loop on Python floats, with the same bits, where its
resolvent and its field have float forms: in dimension 1, and in
dimension 2 where every product has one nonzero term (a box under a
diagonal rotation blend with one weight).  The kernel sweeps
a block of cells at a given place on the grid, so a caller may sweep a
long grid block by block, each block from the last states and k of the
one before, with the same bits as one sweep.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import convex
from .coeffs import DriftSpec
from .convex import ConvexFunction, _row_norms, make_resolvent
from .field import ObliqueField, make_field_eval
from .paths import (GridMismatch, SampledPath, _add_blocks, _count,
                    grid_cells, mollify, snapped_width, total_variation)


# The scheme's defaults, read by every caller that offers them
SUBSTEP_RATIO = 10
GUARD_RADIUS = 1e6
LADDER_TOL = 1e-3
MAX_HALVINGS = 10


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
    substep_ratio: int = SUBSTEP_RATIO
    guard_radius: float = GUARD_RADIUS

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        ratio = _count("substep_ratio", self.substep_ratio)
        if ratio < 2:
            raise ValueError("substep_ratio must be an integer >= 2")
        object.__setattr__(self, "substep_ratio", ratio)
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


def _flat_state(x0, **parts) -> np.ndarray:
    """x0 flat; ValueError unless it and the named parts (phi, H, f, m or
    g) share one dim."""
    x0 = np.asarray(x0, dtype=float).ravel()
    if {p.dim for p in parts.values()} != {x0.size}:
        raise ValueError(
            f"dimension mismatch between {', '.join(parts)}, x0")
    return x0


def _first_eps(eps0: float | None, horizon: float, dt: float) -> float:
    """The ladder's first width: eps0 (0.1 horizon if None) capped at the
    horizon, snapped up to a grid multiple of dt."""
    eps0 = 0.1 * horizon if eps0 is None else eps0
    return snapped_width(min(eps0, horizon), dt)


def _require_time_zero(m: SampledPath):
    if abs(m.t0) > 1e-12:
        raise GridMismatch("solver inputs must start at t = 0")


def _substep_mesh(cfg: PenalizedConfig, dt: float, c: float):
    """(delay in grid cells, substeps per cell) of one level at cfg.eps."""
    lag = grid_cells(cfg.eps, dt, f"eps = {cfg.eps}")
    return lag, max(1, int(math.ceil(dt * c * cfg.substep_ratio / cfg.eps
                                     - 1e-12)))


# State rows (substeps times paths) per slice of the passes around a sweep
# (its stretches and k sums, a window-input call, a chunk's certificates):
# their temporaries stay at a few thousand floats each.
_SLICE_ROWS = 4096


def _sweep(xq, kq, start, n_sub, dt, cfg, prox, prox_rows, field_at, rates,
           where, breaches, fill=None):
    """The explicit substep kernel shared by the deterministic and the
    stochastic solvers, for one path or a chunk of paths, over the cells
    start .. start + Q / n_sub - 1 of the grid; returns (kq, largest
    regularized-gradient norm, breaches).

    Time is the first axis: xq is (Q + 1, d) for one path and (Q + 1, B, d)
    for a chunk of B paths, kq likewise, and rates (cells, d) or (cells, B,
    d).  xq[0] holds the state at cell start (x0 at 0) and kq[0] the
    reflection there; xq[1:] receives the state and kq[1:] the reflection
    at every substep h = dt / n_sub.  A caller that sweeps the grid block
    by block passes each block's arrays with the last states of the one
    before; the blocks come out bit for bit as one sweep.  The delay eps is
    lag = eps / dt whole grid cells (paths.grid_cells; GridMismatch
    otherwise).  At substep q of the grid the delayed input rate is that of
    input cell q // n_sub - lag, which is rates[q // n_sub - lag - base]
    with base = max(start - lag, 0), the first input cell the block reads;
    and -0.0 before substep lag n_sub (time eps), the inputs' zero
    extension: x + h (-0.0 - H(x) g) has the bits of x - h H(x) g, so only
    the field term acts.  An input that reads the state is filled causally
    into rates, one block at a time: before grid cell j, when the blocks
    filled so far end at cell j, fill(j) computes the next block of every
    row from the states through cell j and returns the cell where it ends
    (at most the block's end).  The inputs count as filled before cell
    start, and without fill through the block's last cell.

    The work is split by what it depends on.  Once per filled block: fill,
    which runs only for an input that reads the state (a state-reading
    drift or the window input; a constant drift comes as part of rates).
    Once per cell: its input row rates[j - lag] (taken again after a row
    leaves a chunk).  Per substep, only what reads the state: the prox, g,
    H(x) g (ndarray.dot for a point with d > 1, the bits of @ at a lower
    call cost), the state update, the guard test and storing x and g.
    A point whose prox and field_at both carry a float_form holds x, g,
    its cell rate and H(x) as Python floats, with the bits of the arrays,
    converting at entry and around stretches: a float for d = 1, a 2-tuple
    for d = 2, where the forms exist only if H(x) is diagonal, so that
    each entry of H(x) g has one nonzero product (convex._projector,
    field.make_field_eval); a closure without one (a wrapped closure)
    keeps the point on arrays.
    After the sweep, in slices of time: the largest g.g (np.fmax, so a NaN
    norm is skipped), then kq scaled by h and summed along time with
    np.add.accumulate, the same sequential sums as k = k + h g.

    Interior stretches skip the per-substep work where it cannot change
    anything.  At the start of each cell, when g is exactly 0 (every row's,
    in a chunk), H(x) g is +0.0 and each following substep only adds its
    input increment h u (-0.0 before time eps) while the state stays
    interior.  So the kernel takes the substeps up to the end of the
    filled inputs in passes of whole cells, a few thousand state rows
    each: one np.add.accumulate of the increments (the loop's own order of
    sums; a pass maps its substeps to their input cells itself), one
    stacked guard test and one call of prox_rows, the resolvent of stacks
    of states (a chunk's prox is one).
    The stretch ends after the first state that prox moves (prox(x) == x
    implies g == 0) or before the first state outside the guard ball,
    which the loop then takes, raising or recording its breach as ever.
    Its g rows stay at kq's +0.0.

    The state leaving the guard ball (a NaN state included) is a
    StabilityBreach naming `where`.  One path raises it and gets a float
    norm.  In a chunk, `where` holds one label per row; a breaching row is
    recorded in breaches (row -> the StabilityBreach its own run raises)
    and leaves the chunk, which only the kernel tracks: its remaining xq
    rows take its last stored state, once, so fill, which fills every row,
    reads finite states; its stored g stays zero from there on (its k
    constant) and its norm is 0.  The rows breaches holds on entry left in
    an earlier block and are treated so from the start.  Each row comes
    out bit for bit as on its own: the row operations below are the point
    products, stacked.
    """
    eps = cfg.eps
    h = dt / n_sub
    guard2 = cfg.guard_radius * cfg.guard_radius
    n_steps = xq.shape[0] - 1
    n_cells = n_steps // n_sub
    lag = grid_cells(eps, dt, f"eps = {eps}")
    # cell j of the block reads rates[j + off], before the delay none
    off = min(start - lag, 0)
    first = min(-off * n_sub, n_steps)  # the first substep after the delay
    kq[1:] = 0.0
    # rows: the rows still in the sweep, every row until one breaches; at:
    # the loop's index of them into xq and kq (0 for a float point)
    rows = at = slice(None)

    def message(x_row, q, label):
        return (f"state norm {float(np.linalg.norm(x_row)):.3e} left the "
                f"guard ball at t={(start * n_sub + q + 1) * h:.6g} "
                f"({label})")

    def sq(v):
        # v.v of each row, as the point's float(v @ v) computes it
        return (v[..., None, :] @ v[..., :, None])[..., 0, 0]

    def leading(ok):
        # how many of the first entries of a boolean vector hold
        return ok.size if ok.all() else int(ok.argmin())

    def stretch(q, stop):
        # substeps q .. stop - 1 from an interior x (g == 0 exactly, so
        # H(x) g = +0.0 and a substep adds h u, or -0.0 before the delay
        # ends) while the states stay interior: returns how many it takes
        # and the state after them.  A state outside the guard ball is
        # left to the substep loop, which raises or records its breach.
        xs = np.atleast_1d(x)  # a float state as its one-entry row
        s = np.empty((stop - q + 1,) + xs.shape)
        s[0] = xs
        mid = min(max(first, q), stop)
        s[1:mid - q + 1] = -0.0
        # substeps mid .. stop - 1 fill whole cells: each cell's increment
        # goes to its n_sub substeps
        u = rates[mid // n_sub + off:stop // n_sub + off, None]
        s[mid - q + 1:].reshape((-1, n_sub) + xs.shape)[:] = h * u[:, :, rows]
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.accumulate(s, axis=0, out=s)
            n_ok = leading((sq(s[1:]) <= guard2).reshape(stop - q, -1)
                           .all(axis=1))
        if not n_ok:
            return 0, x
        flat = s[1:n_ok + 1].reshape(-1, xs.shape[-1])
        # prox(x) == x implies g == 0; the first state that moves ends it
        taken = min(n_ok, 1 + leading(
            (prox_rows(flat) == flat).reshape(n_ok, -1).all(axis=1)))
        xq[q + 1:q + taken + 1, rows] = s[1:taken + 1]
        return taken, load(s[taken])

    def cell_input(j):
        # the rate every substep of cell j reads, taken once per cell (and
        # again after a row leaves); -0.0 before the delay, where
        # x + h (-0.0 - hg) has the bits of x - h hg
        return before if j + off < 0 else load(rates[j + off, rows])

    load = np.ndarray.copy  # a state or rate row as the loop holds it
    nonzero = np.count_nonzero  # g.any() without its Python wrapper
    grad = lambda x: (x - prox(x)) / eps  # g at x, outside the loops
    before, steps = -0.0, None
    if xq.ndim == 2:
        forms = [getattr(fn, "float_form", None) for fn in (prox, field_at)]
        if None not in forms and xq.shape[1] == 1:
            # d = 1 on Python floats, with the bits of the arrays below:
            # 0 + m v is the 1 x 1 m @ v (a -0.0 product turns +0.0), and
            # bool(g), like count_nonzero, counts a NaN
            prox, field_at = forms
            load, at, nonzero = lambda v: float(v[0]), 0, bool
            apply = lambda m, v: 0.0 + m * v
            inside = lambda v: v * v <= guard2
        elif None not in forms:
            # d = 2 on 2-tuples of floats, H(x) by its diagonal; memoryviews
            # store x and g at a third of an array row's cost
            prox, field_at = forms
            load, nonzero = lambda v: tuple(v.tolist()), any
            before = -0.0, -0.0
            xv, kv = memoryview(xq), memoryview(kq)
            below, above = guard2 * (1.0 - 1e-12), guard2 * (1.0 + 1e-12)

            def grad(x):
                p0, p1 = prox(x)
                return (x[0] - p0) / eps, (x[1] - p1) / eps

            def steps(q, end, x, g, u):
                # substeps q .. end - 1, returning x and g: H(x) g has
                # ndarray.dot's bits for a diagonal H, 0.0 + h_ii g_i
                # (never -0.0) plus the exact zero 0.0 g_j.  x0 x0 + x1 x1
                # may miss x.dot(x) by an ulp, so the dot decides a sum
                # that near guard2
                (x0, x1), (g0, g1), (u0, u1) = x, g, u
                for q in range(q, end):
                    d0, d1 = field_at(x)
                    x0 = x0 + h * (u0 - ((0.0 + d0 * g0) + 0.0 * g1))
                    x1 = x1 + h * (u1 - ((0.0 + d1 * g1) + 0.0 * g0))
                    x = x0, x1
                    kv[q + 1, 0], kv[q + 1, 1] = g0, g1
                    s = x0 * x0 + x1 * x1
                    if not (s <= below or s <= above
                            and np.dot(x, x) <= guard2):
                        raise StabilityBreach(message(x, q, where))
                    xv[q + 1, 0], xv[q + 1, 1] = x
                    p0, p1 = prox(x)
                    g0, g1 = (x0 - p0) / eps, (x1 - p1) / eps
                return x, (g0, g1)
        else:
            # m.dot(v) takes the bits of m @ v at half the call cost for
            # d > 1.  For d = 1 it is m v where m @ v is 0 + m v: a -0.0
            # product (g = -0.0, as at x = -0.0 on a box from 0) would turn
            # x = -0.0 into +0.0 through x - h hg, so d = 1 stays on matmul
            apply = np.ndarray.dot if xq.shape[1] > 1 else np.matmul
            inside = lambda v: v.dot(v) <= guard2

        def leave(q):
            raise StabilityBreach(message(x, q, where))
    else:
        def apply(m, v):
            return (m @ v[:, :, None])[:, :, 0]

        def inside(v):
            return bool((sq(v) <= guard2).all())

        def leave(q):
            nonlocal x, live, rows, at
            keep = sq(x) <= guard2
            for i in np.flatnonzero(~keep):
                row = int(live[i])
                breaches[row] = StabilityBreach(message(x[i], q, where[row]))
                # fill still reads the row: it keeps its last stored state
                xq[q + 1:, row] = xq[q, row]
            x, live = x[keep], live[keep]
            rows = at = live
        live = np.arange(xq.shape[1])
        if breaches:
            # rows that left in an earlier block keep their last state
            out = list(breaches)
            xq[1:, out] = xq[0, out]
            live = np.delete(live, out)
            rows = at = live
    x = load(xq[0, rows] if xq.ndim > 2 else xq[0])
    # whole cells per stretch pass, its temporaries a few thousand rows
    span = n_sub * max(1, _SLICE_ROWS // (n_sub * math.prod(xq.shape[1:-1])))
    # the inputs are final through cell ready of the block: every cell
    # without a fill
    ready = 0 if fill else n_cells
    q = 0  # the next substep; g is the regularized gradient at x
    g = grad(x)
    for j in range(n_cells):
        end = (j + 1) * n_sub
        if q >= end:
            continue  # an interior stretch took this cell
        if j == ready:
            ready = fill(start + j) - start
        if q == j * n_sub and not nonzero(g):
            taken, x = stretch(q, min(q + span, ready * n_sub))
            if taken:
                q += taken
                g = grad(x)
                if q >= end:
                    continue
        u = cell_input(j)
        if steps:
            x, g = steps(q, end, x, g, u)
            q = end
            continue
        for q in range(q, end):
            hg = apply(field_at(x), g)
            x = x + h * (u - hg)
            kq[q + 1, at] = g
            if not inside(x):
                leave(q)
                if not x.shape[0]:
                    return kq, np.zeros(xq.shape[1]), breaches
                u = cell_input(j)
            xq[q + 1, at] = x
            g = (x - prox(x)) / eps
        q = end
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


def _grid_checks(proj, xg, kg, a, tv, defect):
    """(tv, defect) advanced over the grid nodes a .. a + n of a stack of
    paths: tv and defect hold each path's tv_k and largest feasibility
    defect so far (0 and -inf before node 0), xg and kg its states and
    reflections there, path-major (b, n + 1, d), and proj the projector
    of the domain.  tv_k adds |k(i + 1) - k(i)| over the cells block by
    block (paths._add_blocks), so the spans may come whole (_solution) or
    in pieces (a Monte Carlo chunk), and each path comes out bit for bit
    as on its own."""
    flat = xg.reshape(-1, xg.shape[-1])
    dist = _row_norms(flat - proj(flat)).reshape(xg.shape[:2])
    steps = np.linalg.norm(np.diff(kg, axis=1), axis=2)
    return (_add_blocks(tv, steps, a, a, a + steps.shape[1]),
            np.maximum(defect, dist.max(axis=1)))


def _substep_times(dt, n_sub, count):
    """The first count times of the substep mesh h = dt / n_sub."""
    return dt / n_sub * np.arange(count)


def _solution(phi, sid, dt, n_sub, eps, xq, kq, max_grad, diag, input_m,
              proj=None) -> SkorohodSolution:
    """One level's solution on the grid (every n_sub-th substep).  sid is
    system_id(phi, H), hashed once by the caller; diag gets the gradient and
    feasibility entries; proj is the domain's projector, if the caller has
    one."""
    xg = xq[::n_sub].copy()
    kg = kq[::n_sub].copy()
    tv_k, defect = _grid_checks(
        convex._projector(phi.domain) if proj is None else proj, xg[None],
        kg[None], 0, np.zeros(1), np.full(1, -math.inf))
    diag["max_gradient_norm"] = max_grad
    diag["max_feasibility_defect"] = float(defect[0])
    diag["feasibility_bound"] = eps * max_grad
    return SkorohodSolution(
        x=SampledPath(t0=0.0, dt=dt, values=xg, extension="frozen"),
        k=SampledPath(t0=0.0, dt=dt, values=kg, extension="zero"),
        tv_k=float(tv_k[0]), eps=eps, system_id=sid,
        refinement_history=[(eps, None)], diagnostics=diag,
        t_quad=_substep_times(dt, n_sub, xq.shape[0]), x_quad=xq, k_quad=kq,
        input_m=input_m)


def solve_penalized(phi: ConvexFunction, hf: ObliqueField, f: DriftSpec,
                    m: SampledPath, x0, cfg: PenalizedConfig) -> SkorohodSolution:
    """One level of the regularized delayed scheme at smoothing width cfg.eps.

    m is treated as continuously differentiable: its derivative enters the
    update as per-cell increments, so summing the updates reproduces the
    increments of m exactly.  The drift adds f(tau, P(x(tau))) at the
    delayed time tau into the rate of m: a constant b0 once, b0 + m', one
    that reads the state per substep, on the substep grid.  Raises
    ValueError on a dimension mismatch, GridMismatch if cfg.eps is not a grid multiple of m.dt and
    StabilityBreach if the state leaves the guard ball.
    """
    _require_time_zero(m)
    x0 = _flat_state(x0, phi=phi, H=hf, f=f, m=m)
    dt = m.dt
    eps = cfg.eps
    lag, n_sub = _substep_mesh(cfg, dt, hf.c)
    lag_sub = lag * n_sub
    h = dt / n_sub
    xq = np.empty((m.n_cells * n_sub + 1, x0.size))
    xq[0] = x0
    rates = np.diff(m.values, axis=0) / dt
    # the kernel's cell and its substeps per cell
    cell, per_cell, fill = dt, n_sub, None
    proj = convex._projector(phi.domain)
    if f.kind == "constant":  # it reads no state
        rates = f.b0 + rates
    elif f.kind != "zero":
        # a drift that reads the state changes every substep: the kernel
        # runs on the substep grid, where substep q reads rates[q - lag_sub]
        rates = np.repeat(rates, n_sub, axis=0)
        cell, per_cell = h, 1

        def fill(j):
            # substep q reads the state at q - lag_sub, so the states
            # through substep j give the next lag_sub substeps' drift (the
            # first block none)
            hi = min(j + lag_sub, rates.shape[0])
            q = np.arange(max(j, lag_sub), hi)
            if q.size:
                xd = proj(xq[q - lag_sub])
                rates[q - lag_sub] += f.eval(q * h - eps, xd)
            return hi

    kq, max_grad, _ = _sweep(
        xq, np.zeros(xq.shape), 0, per_cell, cell, cfg,
        make_resolvent(phi, eps),
        # the stretches' stacks: the benchmark tracer's face check on
        # solver.make_resolvent reads one point
        convex.make_resolvent(phi, eps), make_field_eval(hf), rates,
        f"eps={eps}", {}, fill)
    diag = {"eps": eps, "n_substeps_per_cell": n_sub, "substep": h}
    return _solution(phi, system_id(phi, hf), dt, n_sub, eps, xq, kq,
                     max_grad, diag, m, proj)


def _check_halvings(max_halvings: int) -> int:
    """max_halvings as an int; raises unless it is an integer >= 0."""
    max_halvings = _count("max_halvings", max_halvings)
    if max_halvings < 0:
        raise ValueError("max_halvings must be >= 0")
    return max_halvings


def _tv_ratio(tv_levels) -> float:
    """Last level's tv_k over the one before; 1 if both are ~0, inf if one."""
    prev, last = tv_levels[-2], tv_levels[-1]
    if prev > 1e-12:
        return last / prev
    return 1.0 if last <= 1e-12 else math.inf


def _node_gap(a: SampledPath, b: SampledPath) -> float:
    return float(np.linalg.norm(a.values - b.values, axis=1).max())


def solve_skorohod(phi: ConvexFunction, hf: ObliqueField, f: DriftSpec,
                   m: SampledPath, x0, tol: float = LADDER_TOL,
                   eps0: float | None = None,
                   max_halvings: int = MAX_HALVINGS,
                   substep_ratio: int = SUBSTEP_RATIO,
                   guard_radius: float = GUARD_RADIUS) -> SkorohodSolution:
    """Refined solution: mollify m at width eps, solve, halve eps, repeat.

    Terminates when consecutive levels agree uniformly within tol at the
    grid nodes.  tol = 0 runs the full ladder (max_halvings halvings, or
    until eps reaches the grid floor) with no convergence requirement; with
    tol > 0 an exhausted ladder raises NoConvergence carrying the history.
    Widths are snapped up to grid multiples, the first (_first_eps) being
    eps0, 0.1 horizon by default, capped at the horizon.
    """
    _require_time_zero(m)
    if not tol >= 0.0:
        raise ValueError("tol must be >= 0")
    max_halvings = _check_halvings(max_halvings)
    eps = _first_eps(eps0, m.horizon, m.dt)
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
