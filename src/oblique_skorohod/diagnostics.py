"""Certificates evaluated on solver outputs.

Every checker reuses the mesh and quadrature that produced the solution
(the substep arrays carried by SkorohodSolution): rectangle rule on dk
increments paired with left-endpoint states, trapezoid on dt integrals.
Mixing a finer or coarser mesh into these inequalities would destroy the
contracts, so the grid paths are only used when no substep mesh is stored.
The sums along the mesh go block by block (paths._add_blocks), so the VI
residual of a path is the same whether its arrays come whole or a block
at a time (_ViSums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import convex
from .convex import ConvexFunction, contains, eval_fn
from .paths import _SUM_BLOCK, _add_blocks
from .solver import (_SLICE_ROWS, GridMismatch, SkorohodSolution,
                     _tv_ratio)


def _quad_mesh(sol: SkorohodSolution):
    if sol.x_quad is not None:
        return sol.t_quad, sol.x_quad, sol.k_quad
    return sol.x.times(), sol.x.values, sol.k.values


def _trapz(vals: np.ndarray, dt: float, a: int = 0) -> float:
    # the trapezoid rule over the mesh nodes a .. a + vals.size - 1, its
    # sum block by block as _ViSums takes it
    total = _add_blocks(0.0, vals[None], a, a, a + vals.size)[0]
    return float(dt * (total - 0.5 * (vals[0] + vals[-1])))


def _feasible_points(phi: ConvexFunction, points,
                     what: str = "test point") -> list:
    """The points as flat arrays; raises ValueError unless each is as
    wide as the domain, finite and in it within contains' 1e-9: the one
    membership rule for declared points (x0, u0, test points)."""
    pts = []
    for p in points:
        p = np.asarray(p, dtype=float).ravel()
        if p.size != phi.dim:
            raise ValueError(f"{what} {p} has dimension {p.size}, the "
                             f"domain {phi.dim}")
        if not np.isfinite(p).all():
            raise ValueError(f"{what} {p} is not finite")
        if not contains(phi.domain, p):
            raise ValueError(f"{what} {p} is outside the domain")
        pts.append(p)
    return pts


@dataclass(frozen=True)
class _ViPlan:
    """What the VI residual of every path on one mesh shares: its last
    node; per window (window, i0, i1, constant tests), the constant tests
    being (label, point, integral of phi at the point over the window);
    the blends (label, theta) toward u0."""

    dtq: float
    last: int
    spans: list
    blends: list
    u0: np.ndarray | None


def _vi_plan(phi: ConvexFunction, tq: np.ndarray, windows=None,
             test_points=None, u0=None) -> _ViPlan:
    """The shared part of vi_residual on the mesh tq, set up once for any
    number of paths.  Each window endpoint goes to its nearest mesh node,
    and the window is labelled by the node times it is summed over.
    Raises on a test point outside the domain, on no test paths, and on a
    window that, so rounded, leaves the mesh or is empty."""
    horizon = float(tq[-1])
    dtq = float(tq[1] - tq[0])
    if windows is None:
        windows = [(0.0, horizon)]
    points = [(f"const[{idx}]", p, eval_fn(phi, np.tile(p, (tq.size, 1)),
                                            feas_tol=1e-7))
              for idx, p in enumerate(_feasible_points(
                  phi, () if test_points is None else test_points))]
    blends = []
    if u0 is not None:
        u0 = np.asarray(u0, dtype=float).ravel()
        blends = [(f"blend[{theta}]", theta) for theta in (0.25, 0.5)]
    if not points and not blends:
        raise ValueError("no test paths: pass test_points and/or u0")
    spans = []
    for (a, b) in windows:
        i0 = int(round((a - tq[0]) / dtq))
        i1 = int(round((b - tq[0]) / dtq))
        if not (0 <= i0 < i1 <= tq.size - 1):
            raise ValueError(f"window ({a}, {b}) not on the solution mesh")
        spans.append(((float(tq[i0]), float(tq[i1])), i0, i1, [
            (label, p, _trapz(phi_y[i0:i1 + 1], dtq, i0))
            for label, p, phi_y in points]))
    return _ViPlan(dtq, tq.size - 1, spans, blends, u0)


class _ViSums:
    """The running sums of the VI residual of b paths on a plan's mesh.

    add() takes the paths' states and reflections over a stretch of mesh
    nodes, path-major, stretch after stretch in mesh order; worst() then
    gives each path's worst pair.  Per window it keeps each test's pairing
    sum, the node sums of phi along x and along each blend, and the phi
    values at the window's ends.  Every sum goes block by block
    (paths._add_blocks), and every operation reads a path's own rows, so
    a path's residual comes out bit for bit the same whether its arrays
    come whole or cut at block edges, alone or in a stack.  proj is the
    domain's projector; a Monte Carlo chunk passes the one it shares."""

    def __init__(self, phi: ConvexFunction, plan: _ViPlan, b: int,
                 proj=None):
        self.phi, self.plan = phi, plan
        self.proj = convex._projector(phi.domain) if proj is None else proj
        n_win, n_blend = len(plan.spans), len(plan.blends)
        # pairings (window, test, path); node sums (window, x or blend,
        # path); phi at the window's first and last node (window, x or
        # blend, first or last, path)
        self.pair = [np.zeros((len(consts) + n_blend, b))
                     for _, _, _, consts in plan.spans]
        self.node = np.zeros((n_win, 1 + n_blend, b))
        self.ends = np.zeros((n_win, 1 + n_blend, 2, b))

    def add(self, xq: np.ndarray, kq: np.ndarray, a: int,
            rows=slice(None)):
        """The stretch of mesh nodes a .. a + n of the paths `rows`, its
        states xq and reflections kq path-major (len(rows), n + 1, d).  The
        stretch takes its cells, and its nodes but the last, which is the
        next stretch's first, unless it is the mesh's last node."""
        plan = self.plan
        b, n1, d = xq.shape
        last = a + n1 - 1
        nodes = last + 1 if last == plan.last else last
        xp = self.proj(xq.reshape(-1, d))
        dk = np.diff(kq, axis=1)
        for v in range(1 + len(plan.blends)):
            # phi along x (v = 0) or along blend v, whose states it keeps
            y = None
            if v:
                theta = plan.blends[v - 1][1]
                y = self.proj((1.0 - theta) * xp + theta * plan.u0)
            vals = eval_fn(self.phi, xp if y is None else y).reshape(b, n1)
            for w, (_, i0, i1, consts) in enumerate(plan.spans):
                self.node[w, v, rows] = _add_blocks(
                    self.node[w, v, rows], vals, a, max(i0, a),
                    min(i1 + 1, nodes))
                for e, i in enumerate((i0, i1)):
                    if a <= i <= last:
                        self.ends[w, v, e, rows] = vals[:, i - a]
                # the pairings over cells lo .. hi - 1: x's with each
                # constant test point, a blend's with its own states
                lo, hi = max(i0, a), min(i1, last)
                if lo >= hi:
                    continue
                tests = enumerate(p for _, p, _ in consts) if y is None \
                    else [(len(consts) + v - 1,
                           y.reshape(b, n1, d)[:, lo - a:hi - a])]
                for t, z in tests:
                    dots = np.einsum("bij,bij->bi", z - xq[:, lo - a:hi - a],
                                     dk[:, lo - a:hi - a])
                    self.pair[w][t, rows] = _add_blocks(
                        self.pair[w][t, rows], dots, lo, lo, hi)

    def worst(self) -> list:
        """(residual, window, test path label) of each path's worst pair."""
        plan = self.plan
        # each integral of phi over a window by the trapezoid rule
        ints = plan.dtq * (self.node - 0.5 * self.ends.sum(axis=2))
        b = ints.shape[-1]
        # tests: (window, label) of each pair in loop order; which: the
        # index there of each path's worst pair so far (-1 for none)
        tests, worst, which = [], np.full(b, -math.inf), np.full(b, -1)
        for w, (window, _, _, consts) in enumerate(plan.spans):
            for t, (label, int_phi_y) in enumerate(
                    [(label, c) for label, _, c in consts]
                    + [(label, ints[w, 1 + v])
                       for v, (label, _) in enumerate(plan.blends)]):
                res = self.pair[w][t] + ints[w, 0] - int_phi_y
                better = res > worst
                worst[better], which[better] = res[better], len(tests)
                tests.append((window, label))
        return [(float(w),) + tests[k] if k >= 0
                else (-math.inf, None, None) for w, k in zip(worst, which)]


def _vi_worst(phi: ConvexFunction, plan: _ViPlan, xq: np.ndarray,
              kq: np.ndarray) -> list:
    """(residual, window, test path label) of the worst pair for each path
    of a stack of whole paths, states xq and reflections kq on the plan's
    mesh, path-major (b, T, d): _ViSums over stretches of whole blocks, so
    that its temporaries stay below _SLICE_ROWS state rows as a Monte
    Carlo chunk's do (a det level's mesh reaches tens of thousands)."""
    sums = _ViSums(phi, plan, xq.shape[0])
    step = max(1, _SLICE_ROWS // (xq.shape[0] * _SUM_BLOCK)) * _SUM_BLOCK
    for a in range(0, xq.shape[1] - 1, step):
        sums.add(xq[:, a:a + step + 1], kq[:, a:a + step + 1], a)
    return sums.worst()


def vi_residual(sol: SkorohodSolution, phi: ConvexFunction,
                windows=None, test_points=None, u0=None) -> dict:
    """Worst variational-inequality residual over windows and test paths.

    For each window [s, t] and test path y the residual is
        sum <y - x, dk> + integral phi(x) - integral phi(y)
    which is <= 0 for an exact solution.  Test paths are the constant
    points supplied (each must lie in the domain) plus, when u0 is given,
    blends (1 - theta) x + theta u0 for theta = 0.25 and 0.5.  Solution-side
    phi values are taken at domain-projected states; the feasibility defect
    is reported separately by the solver.  Windows are summed between the
    mesh nodes nearest their endpoints (see _vi_plan).  Returns the
    residual, the worst window as the node times it was summed over, the
    worst test path label, and the tolerance scale 1e-4 * (1 + tv_k).
    """
    tq, xq, kq = _quad_mesh(sol)
    plan = _vi_plan(phi, tq, windows, test_points, u0)
    worst, window, label = _vi_worst(phi, plan, xq[None], kq[None])[0]
    return {"residual": worst, "worst_window": window,
            "worst_test_fn": label, "tol_vi": 1e-4 * (1.0 + sol.tv_k)}


def monotonicity_gap(sol1: SkorohodSolution, sol2: SkorohodSolution) -> float:
    """sum <x1 - x2, dk1 - dk2> over the common mesh; >= 0 up to rounding
    for two solutions of the same (phi, H) system on the same grid."""
    if sol1.system_id != sol2.system_id:
        raise ValueError("solutions come from different (phi, H) systems")
    t1, x1, k1 = _quad_mesh(sol1)
    t2, x2, k2 = _quad_mesh(sol2)
    if x1.shape != x2.shape or abs(float(t1[-1] - t2[-1])) > 1e-12:
        # different substep meshes: fall back to the shared scenario grid
        if sol1.x.values.shape != sol2.x.values.shape or \
                abs(sol1.grid_dt - sol2.grid_dt) > 1e-15:
            raise GridMismatch("solutions share neither mesh nor grid")
        x1, k1 = sol1.x.values, sol1.k.values
        x2, k2 = sol2.x.values, sol2.k.values
    ddk = np.diff(k1, axis=0) - np.diff(k2, axis=0)
    return float(np.einsum("ij,ij->", x1[:-1] - x2[:-1], ddk))


def _probe_sphere(dim: int) -> np.ndarray:
    # the 2 dim axis directions and 200 seeded random ones
    dirs = [np.eye(dim)[i] * s for i in range(dim) for s in (+1.0, -1.0)]
    rng = np.random.default_rng(convex.PROBE_SEED)
    z = rng.standard_normal((200, dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return np.vstack([dirs, z])


def annexB_bound(sol: SkorohodSolution, phi: ConvexFunction, u0,
                 r0: float) -> dict:
    """Reflection-activity bound around an interior point u0.

    Checks r0 * tv(k) + integral phi(x) <= sum <x - u0, dk> + T * phi_sharp
    on the solution's own mesh, with phi_sharp the maximum of phi over the
    probe sphere u0 + r0 v, |v| = 1.  The whole sphere must lie in the
    domain or the bound is vacuous and a ValueError is raised.
    """
    if not r0 > 0.0:
        raise ValueError("r0 must be positive")
    u0 = np.asarray(u0, dtype=float).ravel()
    sphere = u0 + r0 * _probe_sphere(u0.size)
    outside = np.flatnonzero(~contains(phi.domain, sphere, tol=1e-7))
    if outside.size:
        raise ValueError(f"u0={u0} with r0={r0} is not interior: "
                         f"{sphere[outside[0]]} leaves the domain")
    phi_sharp = float(eval_fn(phi, sphere, feas_tol=1e-6).max())
    tq, xq, kq = _quad_mesh(sol)
    horizon = float(tq[-1])
    dtq = float(tq[1] - tq[0])
    dk = np.diff(kq, axis=0)
    tv_quad = float(np.linalg.norm(dk, axis=1).sum())
    phi_x = eval_fn(phi, convex.project_set(phi.domain, xq))
    lhs = r0 * tv_quad + _trapz(phi_x, dtq)
    rhs = float(np.einsum("ij,ij->", xq[:-1] - u0, dk)) + horizon * phi_sharp
    return {"lhs": lhs, "rhs": rhs, "margin": rhs - lhs,
            "phi_sharp": phi_sharp, "tv_quad": tv_quad}


def convergence_slope(history) -> float:
    """Least-squares slope of log(gap) against log(eps) for a refinement
    history [(eps, gap), ...].  Needs >= 3 measured gaps, all positive;
    perfect agreement (a zero gap) is rejected since the fit is undefined."""
    pts = [(e, g) for (e, g) in history if g is not None]
    if len(pts) < 3:
        raise ValueError("need at least 3 refinement levels with measured gaps")
    eps = np.array([p[0] for p in pts])
    gaps = np.array([p[1] for p in pts])
    if np.any(gaps <= 0.0):
        raise ValueError("non-positive gap in history: already converged")
    slope, _ = np.polyfit(np.log(eps), np.log(gaps), 1)
    return float(slope)


def apriori_monitor(history, norms: dict, scaled_family=None) -> dict:
    """Boundedness monitors for a refinement run.

    norms carries norm_m (the uniform norm of the input) and tv_k, the
    reflection variation per refinement level.  Reports the stabilization
    ratio of the last two levels; a single-level history is an error.
    When scaled_family rows {lam, norm_m, tv_k} are given (inputs scaled
    by lam), also reports whether tv_k is nondecreasing in lam.
    """
    tv_levels = [float(v) for v in norms["tv_k"]]
    if len(history) < 2 or len(tv_levels) < 2:
        raise ValueError("need at least two refinement levels to monitor")
    out = {"tv_ratio": _tv_ratio(tv_levels), "tv_k_levels": tv_levels,
           "norm_m": float(norms.get("norm_m", math.nan)),
           "eps_levels": [e for (e, _) in history]}
    if scaled_family is not None:
        rows = sorted(({"lam": float(r["lam"]),
                        "norm_m": float(r["norm_m"]),
                        "tv_k": float(r["tv_k"])} for r in scaled_family),
                      key=lambda r: r["lam"])
        tvs = [r["tv_k"] for r in rows]
        nondecr = all(tvs[i + 1] >= tvs[i] - 1e-9 * (1.0 + abs(tvs[i]))
                      for i in range(len(tvs) - 1))
        out["scaled_family"] = rows
        out["tv_nondecreasing_in_lam"] = nondecr
    return out
