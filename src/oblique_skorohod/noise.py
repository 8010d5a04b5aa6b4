"""Seeded Gaussian noise: Brownian drivers and their Box-Muller normals.

Gaussians come from a Box-Muller transform on the Philox counter-based
generator keyed by the driver seed; the generator identity string is part
of every stochastic output so reproducibility claims are auditable.  A
Monte Carlo chunk draws each seed's uniforms in a few pieces and
transforms them as its blocks need them, with the bits of one draw
(_increments); standard_normals and brownian_path take the same source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .paths import SampledPath, _count, grid_cells

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


def _philox_key(seed) -> int:
    """The key of a driver seed's Philox generator: each draw of a seed's
    noise starts here, once per seed."""
    if not 0 <= int(seed) < 2 ** 128:
        raise ValueError("key must be positive and less than 2**128.")
    return int(seed)


# Uniforms a seed draws at a time, beyond what a draw needs: a draw from a
# seed's generator costs about as much as a few hundred uniforms, so the
# paths of a chunk draw theirs in a few large pieces.  A multiple of 4, the
# outputs of one Philox counter step
_PIECE = 128


def _normal_source(seeds):
    """take(n) -> the next n standard normals of each seed, (B, n), the
    calls in order.  Box-Muller over the uniforms of each seed's Philox
    generator, all seeds' pairs in one transform; a pair cut by n keeps its
    second normal for the next call.  The uniforms come _PIECE or so at a
    time from one Philox bit generator set to each seed's key and counter
    in turn: a piece is whole counter steps, so the seed's stream goes on
    where it stopped.  Each seed's normals have the bits of one
    standard_normals call for their total count, at any cut: the transform
    is elementwise, and numpy's log, cos and sin give the same bits at any
    array length."""
    keys = [_philox_key(seed) for seed in seeds]
    bits = np.random.Philox()
    gen = np.random.Generator(bits)
    state = bits.state
    u = np.empty((len(keys), _PIECE))
    lo = hi = 0  # the unused uniforms of u, always whole pairs
    drawn = 0  # uniforms drawn per seed so far, whole counter steps
    spare = np.empty((len(keys), 0))

    def take(n):
        nonlocal u, lo, hi, drawn, spare
        pairs = max(0, n - spare.shape[1] + 1) // 2
        if hi - lo < 2 * pairs:
            # whole counter steps: what fills the piece, or what n needs
            left = hi - lo
            fresh = max(u.shape[1] - left, 2 * pairs - left + 3) // 4 * 4
            grown = u if left + fresh <= u.shape[1] else np.empty(
                (len(keys), left + fresh))
            grown[:, :left] = u[:, lo:hi]
            u = grown
            for key, row in zip(keys, u):
                state["state"]["key"][:] = key & (2 ** 64 - 1), key >> 64
                state["state"]["counter"][0] = drawn // 4
                bits.state = state
                gen.random(out=row[left:left + fresh])
            lo, hi, drawn = 0, left + fresh, drawn + fresh
        pair = u[:, lo:lo + 2 * pairs].reshape(len(keys), pairs, 2)
        lo += 2 * pairs
        radius = np.sqrt(-2.0 * np.log(1.0 - pair[..., 0]))
        angle = 2.0 * math.pi * pair[..., 1]
        z = np.empty((len(keys), pairs, 2))
        z[..., 0] = radius * np.cos(angle)
        z[..., 1] = radius * np.sin(angle)
        z = np.concatenate((spare, z.reshape(len(keys), -1)), axis=1)
        spare = z[:, n:].copy()
        return z[:, :n]

    return take


def standard_normals(seed: int, count: int) -> np.ndarray:
    """count i.i.d. standard Gaussians: Box-Muller over Philox uniforms."""
    return _normal_source([seed])(count)[0]


def _levels(start: np.ndarray, z: np.ndarray, dt: float) -> np.ndarray:
    # the Brownian path at start and after each row of normals z (time
    # first), the running sum going on from start
    return np.add.accumulate(np.concatenate((start, z * math.sqrt(dt))))


def brownian_path(drv: BrownianDriver) -> SampledPath:
    """Brownian path sampled on the driver grid; B(0) = 0."""
    n = drv.n_cells
    z = standard_normals(drv.seed, n * drv.dims).reshape(n, drv.dims)
    vals = _levels(np.zeros((1, drv.dims)), z, drv.dt)
    return SampledPath(t0=0.0, dt=drv.dt, values=vals, extension="zero")


def _increments(seeds, dims: int, dt: float):
    """draw(lo, hi) -> the Brownian increments over cells lo .. hi - 1 of
    every seed's path, time first (hi - lo, B, dims), the calls in order:
    the bits of np.diff(brownian_path(...).values) of each seed, with only
    its current level and its unused uniforms kept between calls."""
    take = _normal_source(seeds)
    level = np.zeros((1, len(seeds), dims))

    def draw(lo, hi):
        z = take((hi - lo) * dims).reshape(len(seeds), hi - lo, dims)
        b = _levels(level, z.transpose(1, 0, 2), dt)
        level[:] = b[-1:]
        return np.diff(b, axis=0)

    return draw
