"""Uniformly sampled vector paths and the path operators the solvers rely on.

Paths live on a uniform grid t0, t0+dt, ..., t0+N*dt and are interpreted as
piecewise linear between nodes.  Queries left of t0 are answered by the path's
extension rule: "zero" (the path vanishes before its start) or "frozen" (the
first node value is held).  Queries right of the last node are a bug and
raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

EXTENSION_RULES = ("zero", "frozen")


@dataclass(frozen=True)
class SampledPath:
    """Piecewise-linear path on a uniform grid.

    values has shape (N+1, d) with N >= 1.  dt > 0.  extension controls
    evaluation left of t0.
    """

    t0: float
    dt: float
    values: np.ndarray
    extension: str = "zero"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] < 2:
            raise ValueError("values must be (N+1, d) with N >= 1")
        if not np.all(np.isfinite(v)):
            raise ValueError("path values must be finite")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if self.extension not in EXTENSION_RULES:
            raise ValueError(f"unknown extension rule {self.extension!r}")
        object.__setattr__(self, "values", v)

    @property
    def n_cells(self) -> int:
        return self.values.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def horizon(self) -> float:
        return self.n_cells * self.dt

    @property
    def t_end(self) -> float:
        return self.t0 + self.horizon

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.values.shape[0])

    def eval(self, t: float) -> np.ndarray:
        """Value at time t; linear between nodes, extension rule before t0."""
        if t < self.t0:
            if self.extension == "zero":
                return np.zeros(self.dim)
            return self.values[0].copy()
        s = (t - self.t0) / self.dt
        if s > self.n_cells + 1e-9:
            raise ValueError(f"query time {t} beyond path end {self.t_end}")
        i = min(int(s), self.n_cells - 1)
        w = min(max(s - i, 0.0), 1.0)
        return (1.0 - w) * self.values[i] + w * self.values[i + 1]


def total_variation(p: SampledPath, t_from: float | None = None,
                    t_to: float | None = None) -> float:
    """Euclidean total variation of p over [t_from, t_to].

    Defaults to the full range.  Non-node endpoints are linearly
    interpolated.  Reversed or out-of-range intervals raise.
    """
    v, n_cells = p.values, p.n_cells
    a = p.t0 if t_from is None else float(t_from)
    b = p.t_end if t_to is None else float(t_to)
    tol = 1e-9 * max(1.0, p.dt)
    if b < a - tol:
        raise ValueError("reversed interval")
    if a < p.t0 - tol or b > p.t_end + tol:
        raise ValueError("interval outside path range")
    sa = min(max((a - p.t0) / p.dt, 0.0), float(n_cells))
    sb = min(max((b - p.t0) / p.dt, 0.0), float(n_cells))
    if sb <= sa:
        return 0.0

    def at(s):
        # the value at node fraction s
        i = min(int(s), n_cells - 1)
        w = min(max(s - i, 0.0), 1.0)
        return (1.0 - w) * v[i:i + 1] + w * v[i + 1:i + 2]

    i0 = int(math.ceil(sa - 1e-12))
    i1 = int(math.floor(sb + 1e-12))
    pts = np.concatenate((at(sa), v[i0:i1 + 1], at(sb)))
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))


# Mesh indices per block of a certificate's sums along a path (tv_k, the VI
# pairings and trapezoid sums): see _add_blocks
_SUM_BLOCK = 64


def _add_blocks(acc, vals: np.ndarray, a: int, lo: int, hi: int):
    """acc plus, for each path of a stack vals (b, n), the sum of its
    entries at the mesh indices lo .. hi - 1, vals[:, 0] being index a.
    The indices go in blocks of _SUM_BLOCK from index 0; each block is one
    np.sum along the path's own row, and the block sums are added to acc
    in order.  So a sum comes out bit for bit the same whether a path's
    arrays are whole or arrive in pieces cut at block edges, alone or in a
    stack."""
    while lo < hi:
        end = min(hi, (lo // _SUM_BLOCK + 1) * _SUM_BLOCK)
        acc = acc + vals[:, lo - a:end - a].sum(axis=-1)
        lo = end
    return acc


class GridMismatch(ValueError):
    """A width is off the grid, or paths do not share one."""


def _count(name: str, value) -> int:
    """value as an int; raises ValueError naming it unless it is an
    integral number (a bool, a string and a fractional or non-finite float
    are not), so that no declared count is truncated."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer")


def grid_cells(width: float, dt: float, what: str) -> int:
    """Number of dt cells in width, which must be a whole number >= 1 to
    a relative 1e-9; raises GridMismatch naming `what` otherwise."""
    n = width / dt
    cells = int(round(n)) if math.isfinite(n) else 0
    if cells < 1 or abs(cells * dt - width) > 1e-9 * max(width, dt):
        raise GridMismatch(f"{what} is not a grid multiple of dt = {dt}")
    return cells


def snapped_width(eps: float, dt: float) -> float:
    """Smallest grid multiple of dt that is >= eps (and >= dt)."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    k = max(1, int(math.ceil(eps / dt - 1e-9)))
    return k * dt


def mollify(m: SampledPath, eps: float) -> SampledPath:
    """Trailing-window average (1/eps) * integral of m over [t - eps, t].

    The window uses the path's extension rule below t0 (zero for inputs
    with m(t0) = 0).  eps is snapped up to the next grid multiple of dt;
    the effective width is snapped_width(eps, m.dt).  Widths below one
    cell are rejected rather than silently widened.  Trapezoidal
    quadrature, exact on the piecewise-linear interpolant.
    """
    if eps < m.dt * (1.0 - 1e-9):
        raise ValueError(f"mollifier width {eps} is below one grid cell {m.dt}")
    k = grid_cells(snapped_width(eps, m.dt), m.dt, f"mollifier width {eps}")
    v = m.values
    npts, d = v.shape
    if m.extension == "zero":
        head = np.zeros((k, d))
    else:
        head = np.tile(v[0], (k, 1))
    ext = np.vstack([head, v])
    # trapezoid over k cells ending at each node: cumulative sums of cell averages
    cell_avg = 0.5 * (ext[1:] + ext[:-1])
    csum = np.vstack([np.zeros((1, d)), np.cumsum(cell_avg, axis=0)])
    out = (csum[k:] - csum[:-k]) / float(k)
    return SampledPath(t0=m.t0, dt=m.dt, values=out, extension=m.extension)
