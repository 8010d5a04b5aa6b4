"""Oblique direction fields: symmetric matrix fields with bounded spectrum.

A field H assigns to each state x a symmetric positive-definite matrix whose
spectrum lies in [1/c, c] for a declared c >= 1, with a declared joint
Lipschitz bound b for H and its inverse (Frobenius norm).  The catalog:

    constant        H(x) = M
    diagonal_affine H(x) = diag(base_i + clamp(<slope_i, x> + off_i, +-span_i))
    rotation_blend  H(x) = (1 - w(x)) M0 + w(x) M1, w a clamped smooth weight

Clamping keeps diagonal_affine entries inside [1/c, c] by construction;
rotation_blend stays inside [1/c, c] because Rayleigh quotients of a convex
combination are convex combinations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .convex import _check_finite, _check_symmetric, _clip, _row_norms


@dataclass(frozen=True)
class ObliqueField:
    """Symmetric matrix field with spectrum in [1/c, c] and Lipschitz bound b.

    b bounds the sum of the Frobenius Lipschitz constants of H and of its
    inverse.  Parameters depend on the kind; see the constructors.
    """

    kind: str
    dim: int
    c: float
    b: float
    matrix: np.ndarray | None = None
    base: np.ndarray | None = None
    slopes: np.ndarray | None = None
    offsets: np.ndarray | None = None
    span: np.ndarray | None = None
    m0: np.ndarray | None = None
    m1: np.ndarray | None = None
    w_direction: np.ndarray | None = None
    w_offset: float = 0.0


def _check_spectrum(mat: np.ndarray, c: float, name: str):
    _check_symmetric(mat, name)
    ev = np.linalg.eigvalsh(mat)
    if ev[0] < 1.0 / c - 1e-12 or ev[-1] > c + 1e-12:
        raise ValueError(
            f"{name} spectrum [{ev[0]:.6g}, {ev[-1]:.6g}] outside [1/c, c] for c={c}")


def _check_constants(c: float, b: float, **arrays):
    _check_finite(c=c, low=1.0)
    _check_finite(b=b, low=0.0)
    _check_finite(**arrays)


def constant_field(matrix, c: float, b: float = 0.0) -> ObliqueField:
    mat = np.asarray(matrix, dtype=float)
    _check_constants(c, b, matrix=mat)
    _check_spectrum(mat, c, "matrix")
    return ObliqueField(kind="constant", dim=mat.shape[0], c=float(c),
                        b=float(b), matrix=mat)


def diagonal_affine_field(base, slopes, c: float, b: float,
                          offsets=None, span=None) -> ObliqueField:
    base = np.asarray(base, dtype=float).ravel()
    slopes = np.asarray(slopes, dtype=float)
    d = base.size
    if slopes.shape != (d, d):
        raise ValueError("slopes must be (d, d)")
    offsets = np.zeros(d) if offsets is None else np.asarray(offsets, dtype=float).ravel()
    _check_constants(c, b, base=base, slopes=slopes, offsets=offsets)
    if span is None:
        span = np.minimum(base - 1.0 / c, c - base)
    span = np.asarray(span, dtype=float).ravel()
    if not np.all(span >= 0.0):
        raise ValueError("span must be >= 0")
    if np.any(base - span < 1.0 / c - 1e-12) or np.any(base + span > c + 1e-12):
        raise ValueError("base +- span must stay inside [1/c, c]")
    return ObliqueField(kind="diagonal_affine", dim=d, c=float(c), b=float(b),
                        base=base, slopes=slopes, offsets=offsets, span=span)


def rotation_blend_field(m0, m1, w_direction, w_offset: float,
                         c: float, b: float) -> ObliqueField:
    m0 = np.asarray(m0, dtype=float)
    m1 = np.asarray(m1, dtype=float)
    wd = np.asarray(w_direction, dtype=float).ravel()
    _check_constants(c, b, m0=m0, m1=m1, w_direction=wd, w_offset=w_offset)
    _check_spectrum(m0, c, "m0")
    _check_spectrum(m1, c, "m1")
    if m0.shape != m1.shape or wd.size != m0.shape[0]:
        raise ValueError("m0, m1, w_direction dimensions must agree")
    return ObliqueField(kind="rotation_blend", dim=m0.shape[0], c=float(c),
                        b=float(b), m0=m0, m1=m1, w_direction=wd,
                        w_offset=float(w_offset))


def make_field_eval(hf: ObliqueField):
    """Closure x -> H(x): (d, d) for one point (d,), (n, d, d) for a stack
    (n, d), each row bit for bit as on its own.  The one place the field
    dispatches on kind; the point paths serve the solvers' substeps.  The
    constant kind of d = 1 carries float_form, H of a Python float point
    as a float, and so do, for d = 2, diagonal_affine with diagonal slopes
    and the blend with diagonal m0, m1 and at most one nonzero w_direction
    entry: the diagonal of H of a 2-tuple point, with the point's bits
    (the other entries are zeros); and the constant kind of d = 3: the rows
    of H, each a 3-tuple, for a 3-tuple point."""
    if hf.kind == "constant":
        mat = hf.matrix
        at = lambda x: mat if x.ndim == 1 else \
            np.repeat(mat[None], x.shape[0], axis=0)
        if hf.dim == 1:
            at.float_form = lambda x, m=float(mat[0, 0]): m
        elif hf.dim == 3:
            at.float_form = lambda x, m=tuple(map(tuple, mat.tolist())): m
        return at
    if hf.kind == "diagonal_affine":
        base, slopes, offsets, span = hf.base, hf.slopes, hf.offsets, hf.span
        lo, d = -span, hf.dim
        i = np.arange(d)

        def _diag(x):
            # the clip ufunc and a strided write: np.clip and np.diag's
            # values without their Python wrappers
            if x.ndim > 1:
                raw = (slopes @ x[:, :, None])[:, :, 0] + offsets
                out = np.zeros((x.shape[0], d, d))
                out[:, i, i] = base + _clip(raw, lo, span)
                return out
            out = np.zeros((d, d))
            out.ravel()[::d + 1] = base + _clip(slopes.dot(x) + offsets, lo,
                                                span)
            return out
        if d == 2 and np.array_equal(slopes, np.diag(np.diag(slopes))):
            # each row of slopes.dot(x) has one nonzero product, which is
            # (0.0 + s_ii x_i) + 0.0 x_j; then the clip ufunc's rule, under
            # which a NaN stays
            (s0, s1), (o0, o1) = np.diag(slopes).tolist(), offsets.tolist()
            (b0, b1), (p0, p1) = base.tolist(), span.tolist()

            def _diag_pair(x):
                x0, x1 = x
                r0 = ((0.0 + s0 * x0) + 0.0 * x1) + o0
                r1 = ((0.0 + s1 * x1) + 0.0 * x0) + o1
                r0 = r0 if r0 != r0 or r0 > -p0 else -p0
                r1 = r1 if r1 != r1 or r1 > -p1 else -p1
                return (b0 + (r0 if r0 != r0 or r0 < p0 else p0),
                        b1 + (r1 if r1 != r1 or r1 < p1 else p1))
            _diag.float_form = _diag_pair
        return _diag
    m0, m1, wd, wo = hf.m0, hf.m1, hf.w_direction, hf.w_offset
    blend = lambda w: (1.0 - w) * m0 + w * m1
    clamped = blend(0.0), blend(1.0)

    def _blend(x):
        # the smoothstep of the weight argument clipped to [0, 1]; a point
        # takes the clamps as branches, which cost less than min and max,
        # and their values from clamped
        if x.ndim > 1:
            t = np.clip((wd @ x[:, :, None])[:, :, None] + wo, 0.0, 1.0)
            return blend(t * t * (3.0 - 2.0 * t))
        s = float(wd.dot(x)) + wo
        if s <= 0.0 or s >= 1.0:
            return clamped[s >= 1.0]
        return blend(s * s * (3.0 - 2.0 * s))
    if hf.dim == 2 and np.count_nonzero(wd) <= 1 and all(
            np.array_equal(m, np.diag(np.diag(m))) for m in (m0, m1)):
        # with one nonzero term, wd.dot(x) is (0.0 + w0 x0) + w1 x1
        (w0, w1), (a0, a1), (b0, b1) = wd.tolist(), np.diag(m0).tolist(), \
            np.diag(m1).tolist()
        ends = [tuple(np.diag(m).tolist()) for m in clamped]

        def _blend_pair(x):
            s = ((0.0 + w0 * x[0]) + w1 * x[1]) + wo
            if s <= 0.0 or s >= 1.0:
                return ends[s >= 1.0]
            w = s * s * (3.0 - 2.0 * s)
            return (1.0 - w) * a0 + w * b0, (1.0 - w) * a1 + w * b1
        _blend.float_form = _blend_pair
    return _blend


def eval_field(hf: ObliqueField, x) -> np.ndarray:
    """H(x) of one point or of each row of a stack; see make_field_eval."""
    return make_field_eval(hf)(np.array(x, dtype=float, ndmin=1))


def eval_inverse(hf: ObliqueField, x) -> np.ndarray:
    """H(x)^-1, symmetrized, of one point or of each row of a stack;
    satisfies H(x) @ eval_inverse(x) = I to 1e-12."""
    inv = np.linalg.inv(eval_field(hf, x))
    return 0.5 * (inv + np.swapaxes(inv, -1, -2))


def direction_matrix(nu, n) -> np.ndarray:
    """Symmetric matrix M with M n = nu; n unit, nu any vector with
    <nu, n> > 0 (an exterior direction pairing).

    M = <nu, n> I - nu n' - n nu' + (2 / <nu, n>) nu nu'.
    """
    nu = np.asarray(nu, dtype=float).ravel()
    n = np.asarray(n, dtype=float).ravel()
    if nu.shape != n.shape:
        raise ValueError("nu and n must have the same dimension")
    if abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise ValueError("n must be a unit vector")
    _check_finite(nu=nu)
    if float(nu @ nu) == 0.0:
        raise ValueError("nu must be nonzero")
    dot = float(nu @ n)
    if dot <= 0.0:
        raise ValueError("<nu, n> must be positive")
    d = nu.size
    m = dot * np.eye(d) - np.outer(nu, n) - np.outer(n, nu) \
        + (2.0 / dot) * np.outer(nu, nu)
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class FieldValidationReport:
    passed: bool
    symmetry_defect: float
    eig_min: float
    eig_max: float
    lipschitz_H: float
    lipschitz_inverse: float
    failures: tuple = dc_field(default_factory=tuple)


def validate_field(hf: ObliqueField, probes) -> FieldValidationReport:
    """Check symmetry, spectrum, and Lipschitz quotients on probe points.

    Spectrum via numpy.linalg.eigvalsh at every probe; empirical
    Lipschitz quotients of H and H^-1 over all probe pairs, compared
    against the declared c and b.  Needs at least 2 probes.
    """
    probes = np.asarray(probes, dtype=float)
    if probes.ndim == 1:
        probes = probes[:, None]
    if probes.shape[0] < 2:
        raise ValueError("need at least 2 probe points")
    mats = eval_field(hf, probes)
    invs = eval_inverse(hf, probes)
    sym_defect = float(np.abs(mats - np.swapaxes(mats, 1, 2)).max())
    resid = np.abs(mats @ invs - np.eye(hf.dim)).max(axis=(1, 2))
    bad = np.flatnonzero(~(resid <= 1e-12))
    failures = []
    if bad.size:
        failures.append(f"inverse residual {resid[bad[0]]:.3e} at probe "
                        f"{probes[bad[0]]}, first of {bad.size} probes")
    ev = np.linalg.eigvalsh(mats)
    eig_min, eig_max = float(ev[:, 0].min()), float(ev[:, -1].max())
    if not sym_defect <= 0.0:
        failures.append(f"symmetry defect {sym_defect:.3e}")
    if not (eig_min >= 1.0 / hf.c - 1e-9 and eig_max <= hf.c + 1e-9):
        failures.append(
            f"spectrum [{eig_min:.6g}, {eig_max:.6g}] outside [1/c, c], c={hf.c}")
    n = probes.shape[0]
    mats, invs = np.reshape(mats, (n, -1)), np.reshape(invs, (n, -1))
    # per probe the largest quotient against the later probes; max and
    # argmax carry a NaN quotient through, so it fails the check below
    top_h, top_inv = np.empty(n - 1), np.empty(n - 1)
    partner = np.empty(n - 1, dtype=int)
    for i in range(n - 1):
        # a coincident pair gets an infinite distance and so a zero quotient
        dist = _row_norms(probes[i] - probes[i + 1:])
        dist[dist < 1e-12] = math.inf
        qi = _row_norms(invs[i] - invs[i + 1:]) / dist
        top_h[i] = (_row_norms(mats[i] - mats[i + 1:]) / dist).max()
        j = int(qi.argmax())
        top_inv[i], partner[i] = qi[j], i + 1 + j
    lip_h = float(top_h.max())
    i = int(top_inv.argmax())
    lip_inv = float(top_inv[i])
    worst_pair = None if lip_inv <= 0.0 else (i, int(partner[i]))
    if not (lip_h <= hf.b + 1e-9 and lip_inv <= hf.b + 1e-9):
        failures.append(
            f"Lipschitz quotient {np.maximum(lip_h, lip_inv):.6g} not within "
            f"declared b={hf.b} (worst inverse pair {worst_pair})")
    return FieldValidationReport(passed=not failures,
                                 symmetry_defect=sym_defect,
                                 eig_min=eig_min, eig_max=eig_max,
                                 lipschitz_H=lip_h, lipschitz_inverse=lip_inv,
                                 failures=tuple(failures))
