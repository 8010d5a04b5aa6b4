"""Drift and diffusion coefficient catalogs with certified bounds.

Drifts f(t, x) act on domain-projected states and carry a certified bound
profile fsharp(t) >= |f(t, x)| on the domain plus a Lipschitz modulus mu.
Diffusions g(t, x) are (d, k) matrices against a k-dimensional noise and
carry a Frobenius bound gsharp and a Lipschitz modulus ell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convex import _check_finite, _row_norms


@dataclass(frozen=True)
class TimeProfile:
    """Scalar time profile: constant value, ramp slope*t, or a sinusoid
    amplitude*sin(2 pi t / period + phase)."""

    kind: str = "constant"
    value: float = 1.0
    slope: float = 0.0
    amplitude: float = 1.0
    period: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "ramp", "sinusoid"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        _check_finite(value=self.value, slope=self.slope,
                      amplitude=self.amplitude, period=self.period,
                      phase=self.phase)
        if self.kind == "sinusoid" and not self.period > 0.0:
            raise ValueError("sinusoid period must be positive")

    def eval(self, t):
        """The profile at time t, or at each time of an array t."""
        if self.kind == "constant":
            return self.value
        if self.kind == "ramp":
            return self.slope * t
        arg = 2.0 * math.pi * t / self.period + self.phase
        if np.ndim(arg):
            # math.sin per time value: np.sin may round differently
            return self.amplitude * np.array([math.sin(a) for a in arg.tolist()])
        return self.amplitude * math.sin(arg)

    def bound(self, horizon: float) -> float:
        if self.kind == "constant":
            return abs(self.value)
        if self.kind == "ramp":
            return abs(self.slope) * horizon
        return abs(self.amplitude)


@dataclass(frozen=True)
class DriftSpec:
    """Drift from the catalog.

    kind "zero"; "constant" with vector b0; "affine" with f = A x + b0;
    "time_modulated" with f = profile(t) * (A x + b0).  fsharp bounds
    |f(t, x)| over the domain and the horizon; mu is the spatial Lipschitz
    modulus (constant in time for this catalog).
    """

    kind: str
    dim: int
    A: np.ndarray | None = None
    b0: np.ndarray | None = None
    profile: TimeProfile | None = None
    fsharp: float = 0.0
    mu: float = 0.0

    def is_zero(self) -> bool:
        return self.kind == "zero"

    def eval(self, t, x: np.ndarray) -> np.ndarray:
        """f(t, x) row by row on a stack (B, d), with one time per row or
        one for all; a point (d,) is a one-row stack."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self.eval(t, x[None])[0]
        if self.kind == "zero":
            return np.zeros(x.shape)
        if self.kind == "constant":
            return np.broadcast_to(self.b0, x.shape)
        # the stacked matmul repeats the point product (x @ A.T does not)
        val = (self.A @ x[:, :, None])[:, :, 0] + self.b0
        if self.kind == "affine":
            return val
        return np.asarray(self.profile.eval(t))[..., None] * val


def zero_drift(dim: int) -> DriftSpec:
    return DriftSpec(kind="zero", dim=dim)


def constant_drift(b0) -> DriftSpec:
    b0 = np.asarray(b0, dtype=float).ravel()
    _check_finite(b0=b0)
    return DriftSpec(kind="constant", dim=b0.size, b0=b0,
                     fsharp=float(np.linalg.norm(b0)), mu=0.0)


def _affine_bound(A: np.ndarray, b0: np.ndarray,
                  domain_radius: float | None) -> float | None:
    if domain_radius is None:
        return None
    op = float(np.linalg.norm(A, 2))
    return op * domain_radius + float(np.linalg.norm(b0))


def affine_drift(A, b0, domain_radius: float | None = None,
                 fsharp: float | None = None) -> DriftSpec:
    A = np.asarray(A, dtype=float)
    b0 = np.asarray(b0, dtype=float).ravel()
    if A.shape != (b0.size, b0.size):
        raise ValueError("A must be (d, d) matching b0")
    _check_finite(A=A, b0=b0)
    if fsharp is None:
        fsharp = _affine_bound(A, b0, domain_radius)
        if fsharp is None:
            raise ValueError("affine drift needs a domain radius or explicit fsharp")
    _check_finite(fsharp=fsharp, low=0.0)
    return DriftSpec(kind="affine", dim=b0.size, A=A, b0=b0,
                     fsharp=float(fsharp), mu=float(np.linalg.norm(A, 2)))


def time_modulated_drift(A, b0, profile: TimeProfile, horizon: float,
                         domain_radius: float | None = None,
                         fsharp: float | None = None) -> DriftSpec:
    A = np.asarray(A, dtype=float)
    b0 = np.asarray(b0, dtype=float).ravel()
    if A.shape != (b0.size, b0.size):
        raise ValueError("A must be (d, d) matching b0")
    _check_finite(A=A, b0=b0)
    pb = profile.bound(horizon)
    if fsharp is None:
        base = _affine_bound(A, b0, domain_radius)
        if base is None:
            raise ValueError("time_modulated drift needs a domain radius or explicit fsharp")
        fsharp = pb * base
    _check_finite(fsharp=fsharp, low=0.0)
    return DriftSpec(kind="time_modulated", dim=b0.size, A=A, b0=b0,
                     profile=profile, fsharp=float(fsharp),
                     mu=pb * float(np.linalg.norm(A, 2)))


@dataclass(frozen=True)
class DiffusionSpec:
    """Diffusion from the catalog: zero, a constant (d, k) matrix, or an
    affine-in-x family clamped to Frobenius norm gsharp on the domain."""

    kind: str
    dim: int
    noise_dim: int
    matrix: np.ndarray | None = None
    base: np.ndarray | None = None
    gains: np.ndarray | None = None
    gsharp: float = 0.0
    ell: float = 0.0

    def is_zero(self) -> bool:
        return self.kind == "zero"

    def eval(self, t, x: np.ndarray) -> np.ndarray:
        """g(t, x) as a (B, d, k) stack of matrices for a stack of points
        (B, d); a point (d,) is a one-row stack and gets one (d, k)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self.eval(t, x[None])[0]
        shape = (x.shape[0], self.dim, self.noise_dim)
        if self.kind == "zero":
            return np.zeros(shape)
        if self.kind == "constant":
            return np.broadcast_to(self.matrix, shape)
        # the same products as np.tensordot; Frobenius norms as
        # np.linalg.norm takes them, from the flattened rows
        g = self.base + (x[:, None, :] @ self.gains.reshape(self.dim, -1)
                         ).reshape(shape)
        nrm = _row_norms(g.reshape(shape[0], shape[1] * shape[2]))
        far = nrm > self.gsharp
        g[far] = g[far] * (self.gsharp / nrm[far])[:, None, None]
        return g


def zero_diffusion(dim: int, noise_dim: int) -> DiffusionSpec:
    return DiffusionSpec(kind="zero", dim=dim, noise_dim=noise_dim)


def constant_diffusion(matrix) -> DiffusionSpec:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("diffusion matrix must be (d, k)")
    _check_finite(matrix=matrix)
    return DiffusionSpec(kind="constant", dim=matrix.shape[0],
                         noise_dim=matrix.shape[1], matrix=matrix,
                         gsharp=float(np.linalg.norm(matrix, "fro")), ell=0.0)


def affine_diffusion(base, gains, gsharp: float) -> DiffusionSpec:
    base = np.asarray(base, dtype=float)
    gains = np.asarray(gains, dtype=float)
    if base.ndim != 2:
        raise ValueError("base must be (d, k)")
    d, k = base.shape
    if gains.shape != (d, d, k):
        raise ValueError("gains must be (d, d, k): per-state sensitivities")
    _check_finite(base=base, gains=gains)
    _check_finite(gsharp=gsharp, low=0.0)
    if gsharp == 0.0:
        raise ValueError("gsharp must be positive")
    ell = float(np.sqrt(np.sum(gains * gains)))
    return DiffusionSpec(kind="affine_in_x", dim=d, noise_dim=k, base=base,
                         gains=gains, gsharp=float(gsharp), ell=ell)
