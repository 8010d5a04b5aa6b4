"""Convex constraint catalog: sets, projections, and regularized operators.

Sets are boxes, balls, or finite intersections of halfspaces (an empty
intersection is the whole space).  Convex functions are an indicator of a
set, a positive-semidefinite quadratic plus an indicator, or an affine
function plus an indicator.  On top of those the module provides the
resolvent (proximal point), the regularized gradient, and the regularized
envelope at smoothing level eps, together with the interior-geometry record
used by the solvers.

Identities the operators satisfy (checked in the test suite on random
clouds):
    envelope(eps, x) = |x - J|^2 / (2 eps) + eval(J),   J = resolvent(eps, x)
    yosida_gradient(eps, x) = (x - J) / eps, a monotone, (1/eps)-Lipschitz map
    eval(J) <= envelope(eps, x) <= eval(x)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

try:  # the ufunc behind np.clip, without np.clip's Python wrapper
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

PROJ_TOL = 1e-12
PROJ_MAX_ITERS = 10_000
PROBE_SEED = 20260817  # the seed of every probe cloud (h0, field, annexB)


class ProjectionError(RuntimeError):
    """A projection failed: an empty polytope, or an iteration cap hit."""


# the constant checks of the catalogs here and in `coeffs` and `field`
def _check_finite(low: float | None = None, **constants):
    # each constant must be finite and, given low, >= low (a NaN is neither)
    for name, a in constants.items():
        if not (np.isfinite(a).all() and (low is None or np.all(a >= low))):
            raise ValueError(f"{name} must be finite"
                             + ("" if low is None else f" and >= {low:g}"))


def _check_symmetric(mat: np.ndarray, name: str):
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square")
    if not np.array_equal(mat, mat.T):
        raise ValueError(f"{name} must be exactly symmetric")


# ---------------------------------------------------------------------------
# sets


@dataclass(frozen=True)
class Set:
    """Closed convex set.

    kind "box": bounds lo, hi (componentwise, lo < hi).
    kind "ball": center and radius > 0.
    kind "halfspace_intersection": rows of normals with offsets, the set
    {x : <normals[i], x> <= offsets[i]}; zero rows mean the whole space.
    """

    kind: str
    dim: int
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    center: np.ndarray | None = None
    radius: float | None = None
    normals: np.ndarray | None = None
    offsets: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("box", "ball", "halfspace_intersection"):
            raise ValueError(f"unknown set kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


def box(lo, hi) -> Set:
    lo = np.asarray(lo, dtype=float).ravel()
    hi = np.asarray(hi, dtype=float).ravel()
    if lo.shape != hi.shape or not np.all(lo < hi):
        raise ValueError("box needs lo < hi componentwise")
    return Set(kind="box", dim=lo.size, lo=lo, hi=hi)


def ball(center, radius: float) -> Set:
    center = np.asarray(center, dtype=float).ravel()
    if not radius > 0.0:
        raise ValueError("ball needs radius > 0")
    return Set(kind="ball", dim=center.size, center=center, radius=float(radius))


def halfspace_intersection(normals, offsets, dim: int | None = None) -> Set:
    normals = np.asarray(normals, dtype=float)
    offsets = np.asarray(offsets, dtype=float).ravel()
    if normals.size == 0:
        if dim is None:
            raise ValueError("empty intersection needs an explicit dim")
        return Set(kind="halfspace_intersection", dim=dim,
                   normals=np.zeros((0, dim)), offsets=np.zeros(0))
    if normals.ndim != 2 or normals.shape[0] != offsets.size:
        raise ValueError("normals must be (m, d) matching offsets")
    norms = np.linalg.norm(normals, axis=1)
    if np.any(norms <= 0.0):
        raise ValueError("zero normal row")
    # normalize rows so interior offsets are in distance units
    normals = normals / norms[:, None]
    offsets = offsets / norms
    return Set(kind="halfspace_intersection", dim=normals.shape[1],
               normals=normals, offsets=offsets)


def whole_space(dim: int) -> Set:
    return halfspace_intersection(np.zeros((0, dim)), np.zeros(0), dim=dim)


# Active-set histories whose geometry one polytope projector keeps, at most
_GEOMETRY_CAP = 1024


def _face_geometry(geo, key, prev, active_normals, n):
    # geo[key], a new entry built from prev, the entry before the last
    # event of key: (r as a list, step, ss, the active faces' pinv, the
    # pinv once n's face is added; only a pass with ss > PROJ_TOL^2 adds it)
    if prev is None:
        pinv = np.zeros((0, n.size))
    elif key[-1] >= 0:
        pinv = prev[4]
    else:
        # slot ~key[-1] left the active set
        row = prev[3][~key[-1]]
        pinv = np.delete(prev[3], ~key[-1], axis=0)
        pinv -= (pinv @ row)[:, None] * (row / float(row @ row))
    # with no active face the products are empty: step is n - 0.0 = n
    r = pinv @ n
    step = n - active_normals.T @ r
    ss = float(step @ step)
    added = None
    if ss > PROJ_TOL * PROJ_TOL:
        added = step / ss
        added = np.concatenate((pinv - r[:, None] * added, added[None]))
    if len(geo) >= _GEOMETRY_CAP:
        geo.clear()
    geo[key] = face = (r.tolist(), step, ss, pinv, added)
    return face


def _project_polytope(x, normals, offsets, resid, geo):
    # Goldfarb-Idnani dual active-set method for min |z - x|^2 / 2 subject
    # to normals @ z <= offsets (Goldfarb & Idnani 1983), from resid =
    # normals @ x - offsets.  z stays the projection of x onto the active
    # faces, u >= 0 are their multipliers and pinv the pseudo-inverse of
    # their normals (one row per face).  Each pass adds the most violated
    # face; an active face whose multiplier would reach zero first leaves.
    # What does not read z -- r, step, ss and pinv after an add or a drop --
    # follows from the history of entering faces (p) and drops (~k) alone,
    # so geo keeps it per history (_face_geometry) and a call computes only
    # n.z, t, the ratio test, z and resid.  Cached arrays are never written.
    # _project_rows takes these steps on a stack, a group of rows per key.
    z = x.copy()
    active, u = [], []
    key, face = (), None
    for _ in range(PROJ_MAX_ITERS):
        if active:
            resid[active] = -math.inf
        p = int(resid.argmax())
        if resid[p] <= PROJ_TOL:
            return z
        n, up = normals[p], 0.0
        key += (p,)
        while True:
            # z moves along the part of n orthogonal to the active normals
            # while the active multipliers fall at the rates r
            face = geo.get(key) or _face_geometry(geo, key, face,
                                                  normals[active], n)
            r, step, ss = face[:3]
            t = (float(n.dot(z)) - offsets[p]) / ss \
                if ss > PROJ_TOL * PROJ_TOL else math.inf
            k = None
            for j, (uj, rj) in enumerate(zip(u, r)):
                if rj > 0.0 and uj / rj < t:
                    t, k = uj / rj, j
            if t == math.inf:
                raise ProjectionError("halfspace intersection is empty")
            z = z - t * step
            u = [uj - t * rj for uj, rj in zip(u, r)]
            up += t
            if k is None:
                break
            del active[k], u[k]
            key += (~k,)
        active.append(p)
        u.append(up)
        resid = normals.dot(z) - offsets
    raise ProjectionError(
        f"active-set projection exceeded {PROJ_MAX_ITERS} passes")


def _split(vals):
    # (value, its positions) for each distinct value >= -1 of vals; one
    # comparison when all agree.  No np.unique: it imports numpy.ma (0.5 MiB).
    v = vals[0]
    if (vals == v).all():
        return [(int(v), slice(None))]
    return [(int(v) - 1, vals == v - 1)
            for v in np.flatnonzero(np.bincount(vals + 1))]


def _project_rows(x, normals, offsets, resid, geo):
    # _project_polytope on every row of x (n, d) at once, from resid =
    # normals @ x - offsets (n, m) and with the same cache geo; each row
    # comes out bit for bit as its point call.  Rows with the same key have
    # the same active faces and (r, step, ss) at each pass, so they take it
    # as one group that keeps their z, u (an array per active face) and up
    # stacked: the point's float operations, products as stacked matmuls.
    out = np.empty_like(x)
    # a group: (key, face, active, passes, its rows of out, z, u, up, p),
    # where face is the geometry its next lookup builds on and p is None
    # while the rows wait for a face
    todo = [((), None, [], 0, np.arange(len(x)), x, [], 0.0, None)]
    while todo:
        key, face, active, passes, at, z, u, up, p = todo.pop()
        if p is None:
            if passes >= PROJ_MAX_ITERS:
                raise ProjectionError(
                    f"active-set projection exceeded {PROJ_MAX_ITERS} passes")
            if key:  # the caller's resid serves the first pass
                resid = (normals @ z[:, :, None])[:, :, 0] - offsets
                resid[:, active] = -math.inf
            # -1: the row finishes with its z; p >= 0: face p enters
            for q, sel in _split(np.where(resid.max(axis=1) <= PROJ_TOL, -1,
                                          resid.argmax(axis=1))):
                if q < 0:
                    out[at[sel]] = z[sel]
                else:
                    todo.append((key + (q,), face, active, passes + 1,
                                 at[sel], z[sel], [uj[sel] for uj in u], 0.0,
                                 q))
            continue
        n = normals[p]
        face = geo.get(key) or _face_geometry(geo, key, face,
                                              normals[active], n)
        r, step, ss = face[:3]
        if ss > PROJ_TOL * PROJ_TOL:
            t = ((n @ z[:, :, None]).ravel() - offsets[p]) / ss
        else:
            t = np.full(at.size, math.inf)
        k = None  # per row, the slot that leaves (-1: none)
        for j, (uj, rj) in enumerate(zip(u, r)):
            if rj > 0.0:
                less = uj / rj < t
                if less.any():
                    t = np.where(less, uj / rj, t)
                    k = np.where(less, j, -1 if k is None else k)
        if (t == math.inf).any():
            raise ProjectionError("halfspace intersection is empty")
        z = z - t[:, None] * step
        u = [uj - t * rj for uj, rj in zip(u, r)]
        up = up + t
        for j, sel in [(-1, slice(None))] if k is None else _split(k):
            us = [uj[sel] for uj in u]
            if j < 0:
                todo.append((key, face, active + [p], passes, at[sel], z[sel],
                             us + [up[sel]], 0.0, None))
            else:
                del us[j]
                todo.append((key + (~j,), face, active[:j] + active[j + 1:],
                             passes, at[sel], z[sel], us, up[sel], p))
    return out


def _row_norms(r: np.ndarray) -> np.ndarray:
    # the stacked matmul takes the same dot product as np.linalg.norm of a
    # single row, so the two agree bit for bit (norm(axis=1) does not)
    return np.sqrt((r[:, None, :] @ r[:, :, None]).ravel())


def _projector(s: Set):
    """Closure x -> the Euclidean projection onto s of one point (d,) or of
    each row of a stack (n, d), each row bit for bit as on its own but for
    one exception: a 1-D box clips the point -0.0 to +0.0 and keeps -0.0
    in a stack row.  The result is x itself or a new array.  A polytope's
    closure keeps its active-set geometry across calls; project_set builds
    one per call.  The one place a projection dispatches on the kind of s.
    A point's products are ndarray.dot, the bits of @ but for a zero's sign
    at d = 1, which only comparisons read (t's numerator is a residual >
    PROJ_TOL).  The one-face closure of d = 1 and the box of d = 2 carry
    float_form, the map of a Python float (d = 1) or a 2-tuple of them
    (d = 2) with the point's bits."""
    if s.kind == "box":
        lo, hi = s.lo, s.hi
        clip = lambda x: _clip(x, lo, hi)
        if s.dim == 2:
            # the clip ufunc's bits: a NaN stays, a -0.0 at lo = 0 is lo
            (l0, l1), (h0, h1) = lo.tolist(), hi.tolist()
            clip.float_form = lambda x: (
                l0 if x[0] <= l0 else h0 if x[0] >= h0 else x[0],
                l1 if x[1] <= l1 else h1 if x[1] >= h1 else x[1])
        return clip
    if s.kind == "ball":
        center, radius = s.center, s.radius

        def _ball(x):
            r = x - center
            if x.ndim > 1:
                nr = _row_norms(r)
                # a NaN norm moves its row, as the point's test does
                far = ~(nr <= radius)
                out = x.copy()
                out[far] = center + (radius / nr[far])[:, None] * r[far]
                return out
            nr = math.sqrt(float(r.dot(r)))
            return x if nr <= radius else center + (radius / nr) * r
        return _ball
    normals, offsets = s.normals, s.offsets
    if normals.shape[0] == 0:
        return lambda x: x
    if normals.shape[0] == 1:
        # the closed form: a row moves along the normal once it is outside
        n1, b1 = normals[0], float(offsets[0])
        # zeros whose products with n1 are +0.0, and x - +0.0 is x bit for
        # bit: a row inside takes this shift, and an infinite coordinate
        # there makes no NaN
        still = np.copysign(0.0, n1)

        def _face(x):
            if x.ndim > 1:
                # for d = 1, 0 + x n1 has the bits of the 1 x 1 matmul
                v = (0.0 + x * n1 if n1.size == 1
                     else n1 @ x[:, :, None]) - b1
                return x - np.where(v <= 0.0, still, v) * n1
            v = float(n1.dot(x)) - b1
            return x if v <= 0.0 else x - v * n1
        if n1.size == 1:
            c1 = float(n1[0])
            _face.float_form = lambda x: \
                x if (v := c1 * x - b1) <= 0.0 else x - v * c1
        return _face

    geo = {}  # _project_polytope's geometry per active-set history

    def _polytope(x):
        # rows outside some face by more than PROJ_TOL take the active set;
        # such a row with a NaN or infinite coordinate has no projection
        # and comes back as NaN
        if x.ndim > 1:
            resid = (normals @ x[:, :, None])[:, :, 0] - offsets
            rows = np.flatnonzero(~(resid.max(axis=1) <= PROJ_TOL))
            if not rows.size:
                return x
            out = x.copy()
            finite = np.isfinite(x[rows]).all(axis=1)
            out[rows[~finite]] = math.nan
            rows = rows[finite]
            if rows.size:
                out[rows] = _project_rows(x[rows], normals, offsets,
                                          resid[rows], geo)
            return out
        resid = normals.dot(x) - offsets
        if np.maximum.reduce(resid) <= PROJ_TOL:
            return x
        if not np.isfinite(x).all():
            return np.full_like(x, math.nan)
        return _project_polytope(x, normals, offsets, resid, geo)
    return _polytope


def project_set(s: Set, x) -> np.ndarray:
    """Euclidean projection onto s of one point (d,) or of each row of a
    stack (n, d), as a fresh array; every row comes out as it would on its
    own."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    p = _projector(s)(x)
    return p.copy() if p is x else p


def contains(s: Set, x, tol: float = 1e-9):
    """Whether x lies in s within tol: a bool for one point (d,), a boolean
    array for each row of a stack (n, d)."""
    x = np.asarray(x, dtype=float)
    rows = x if x.ndim > 1 else x.reshape(1, -1)
    if s.kind == "box":
        inside = np.all((rows >= s.lo - tol) & (rows <= s.hi + tol), axis=1)
    elif s.kind == "ball":
        inside = _row_norms(rows - s.center) <= s.radius + tol
    else:
        resid = (s.normals @ rows[:, :, None])[:, :, 0] - s.offsets
        inside = resid.max(axis=1, initial=-math.inf) <= tol
    return inside if x.ndim > 1 else bool(inside[0])


def set_distance(s: Set, x):
    """Distance to s of one point (a float) or of each row of a stack."""
    x = np.asarray(x, dtype=float)
    r = x - project_set(s, x)
    return _row_norms(r) if x.ndim > 1 else float(np.linalg.norm(r))


def shrink(s: Set, margin: float) -> Set:
    """The margin-interior of s: points at distance >= margin from the complement.

    Stays inside the same catalog (box -> box, ball -> ball, halfspaces ->
    halfspaces).  Raises if the interior is empty for boxes and balls.
    """
    if margin < 0.0:
        raise ValueError("margin must be >= 0")
    if s.kind == "box":
        lo, hi = s.lo + margin, s.hi - margin
        if not np.all(lo < hi):
            raise ValueError("margin-interior of box is empty")
        return box(lo, hi)
    if s.kind == "ball":
        r = s.radius - margin
        if not r > 0.0:
            raise ValueError("margin-interior of ball is empty")
        return ball(s.center, r)
    if s.normals.shape[0] == 0:
        return s
    return Set(kind="halfspace_intersection", dim=s.dim,
               normals=s.normals, offsets=s.offsets - margin)


def bounding_radius(s: Set) -> float | None:
    """Radius of a ball around the origin containing s; None if unbounded."""
    if s.kind == "box":
        return float(np.linalg.norm(np.maximum(np.abs(s.lo), np.abs(s.hi))))
    if s.kind == "ball":
        return float(np.linalg.norm(s.center)) + s.radius
    return None


def interior_witness(s: Set, margin: float) -> np.ndarray:
    """A point of the margin-interior, or raise if none is found."""
    inner = shrink(s, margin)
    if s.kind == "box":
        anchor = 0.5 * (s.lo + s.hi)
    elif s.kind == "ball":
        anchor = s.center.copy()
    else:
        anchor = np.zeros(s.dim)
    w = project_set(inner, anchor)
    if not contains(inner, w, tol=1e-7):
        raise ValueError("margin-interior appears empty")
    return w


def sample_points(s: Set, n: int, rng: np.random.Generator,
                  scale: float = 1.0) -> np.ndarray:
    """n points of s, seeded.  Uniform for boxes and balls; for halfspace
    intersections a Gaussian cloud around an interior anchor, projected in."""
    if s.kind == "box":
        u = rng.random((n, s.dim))
        return s.lo + u * (s.hi - s.lo)
    if s.kind == "ball":
        z = rng.standard_normal((n, s.dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        r = s.radius * rng.random(n) ** (1.0 / s.dim)
        return s.center + z * r[:, None]
    if s.normals.shape[0] == 0:
        return scale * rng.standard_normal((n, s.dim))
    anchor = interior_witness(s, 0.0)
    cloud = anchor + scale * rng.standard_normal((n, s.dim))
    return project_set(s, cloud)


# ---------------------------------------------------------------------------
# convex functions


@dataclass(frozen=True)
class ConvexFunction:
    """Proper convex l.s.c. function from the catalog; domain is `domain`.

    kind "indicator": 0 on the domain, +inf outside.
    kind "quadratic_plus_indicator": 0.5 x'Ax + q'x on the domain (A psd).
    kind "lipschitz_affine_plus_indicator": a'x + beta on the domain.

    r0 > 0 is the declared interior radius (the r0-interior of the domain is
    nonempty); h0 bounds the distance from any domain point to that interior
    and is computed exactly for boxes, balls, and the whole space, declared
    otherwise.
    """

    kind: str
    domain: Set
    A: np.ndarray | None = None
    q: np.ndarray | None = None
    a: np.ndarray | None = None
    beta: float = 0.0
    r0: float = 0.0
    h0: float = 0.0

    @property
    def dim(self) -> int:
        return self.domain.dim


def _check_geometry(s: Set, r0: float, h0: float | None) -> float:
    # the h0 of a declaration with interior radius r0 on s: the declared
    # one, else the exact one of a box, a ball or the whole space
    if not r0 > 0.0:
        raise ValueError("r0 must be positive")
    interior_witness(s, r0)
    if h0 is not None:
        _check_finite(h0=h0, low=0.0)
        return float(h0)
    if s.kind == "box":
        return r0 * math.sqrt(s.dim)
    if s.kind == "ball":
        return r0
    if s.normals.shape[0] == 0:
        return 0.0
    raise ValueError("h0 must be declared for halfspace intersections")


def indicator(domain: Set, r0: float, h0: float | None = None) -> ConvexFunction:
    h0v = _check_geometry(domain, r0, h0)
    return ConvexFunction(kind="indicator", domain=domain, r0=float(r0),
                          h0=h0v)


def quadratic_plus_indicator(A, q, domain: Set, r0: float,
                             h0: float | None = None) -> ConvexFunction:
    A = np.asarray(A, dtype=float)
    q = np.asarray(q, dtype=float).ravel()
    _check_finite(A=A, q=q)
    _check_symmetric(A, "A")
    if np.linalg.eigvalsh(A).min() < -1e-12:
        raise ValueError("A must be positive semidefinite")
    if q.size != domain.dim or A.shape[0] != domain.dim:
        raise ValueError("A, q dimensions must match the domain")
    h0v = _check_geometry(domain, r0, h0)
    return ConvexFunction(kind="quadratic_plus_indicator", domain=domain,
                          A=A, q=q, r0=float(r0), h0=h0v)


def lipschitz_affine_plus_indicator(a, beta: float, domain: Set, r0: float,
                                    h0: float | None = None) -> ConvexFunction:
    a = np.asarray(a, dtype=float).ravel()
    _check_finite(a=a, beta=beta)
    if a.size != domain.dim:
        raise ValueError("a dimension must match the domain")
    h0v = _check_geometry(domain, r0, h0)
    return ConvexFunction(kind="lipschitz_affine_plus_indicator", domain=domain,
                          a=a, beta=float(beta), r0=float(r0), h0=h0v)


def eval_fn(phi: ConvexFunction, x, feas_tol: float = 1e-9):
    """phi(x) of one point (a float) or of each row of a stack (an array);
    +inf outside the domain (within feas_tol)."""
    x = np.asarray(x, dtype=float)
    rows = x if x.ndim > 1 else x.reshape(1, -1)
    # one small product per row: a row's value does not depend on the stack
    r = rows[:, None, :]
    if phi.kind == "indicator":
        vals = np.zeros(rows.shape[0])
    elif phi.kind == "quadratic_plus_indicator":
        vals = ((0.5 * r) @ (phi.A @ rows[:, :, None])
                + r @ phi.q[:, None]).ravel()
    else:
        vals = (r @ phi.a[:, None]).ravel() + phi.beta
    vals[~contains(phi.domain, rows, tol=feas_tol)] = math.inf
    return vals if x.ndim > 1 else float(vals[0])


def _prox_quadratic(phi: ConvexFunction, eps: float):
    # J_eps(x) minimizes z'Kz/2 - y'z over the domain, K = I/eps + A and
    # y = x/eps - q; mul(M, v) = (M @ v[..., None])[..., 0] serves a stack
    s, d, q = phi.domain, phi.dim, phi.q
    k = np.eye(d) / eps + phi.A
    mul = lambda m, v: (m @ v[..., None])[..., 0]
    if s.kind == "ball":
        # K = V Lam V' and z = c + V u with (Lam + mu) u = -V'(K c - y), where
        # mu = 0 if |u(0)| <= R and otherwise solves the secular equation
        # 1/|u(mu)| = 1/R (More & Sorensen 1983).  K is positive definite, so
        # there is no hard case, and Newton from mu = 0 climbs monotonically
        # to the root; each row stops on its own once mu no longer grows.
        lam, vecs = np.linalg.eigh(k)
        kc, radius = k @ s.center, s.radius

        def _ball(x):
            g = mul(vecs.T, kc - (x / eps - q)).reshape(-1, d)
            mu, u = np.zeros(g.shape[0]), -g / lam
            nu = _row_norms(u)
            live = np.flatnonzero(nu > radius)
            while live.size:
                ui, ni = u[live], nu[live]
                w2 = (ui[:, None, :]
                      @ (ui / (lam + mu[live, None]))[:, :, None]).ravel()
                new = mu[live] + (ni - radius) / radius * ni * ni / w2
                grew = new > mu[live]
                live, new = live[grew], new[grew]
                mu[live] = new
                u[live] = -g[live] / (lam + new[:, None])
                nu[live] = _row_norms(u[live])
                live = live[nu[live] > radius]
            return s.center + mul(vecs, u).reshape(x.shape)
        return _ball
    # polytope or box: with K = L L' and w = L'z, the Euclidean projection of
    # L^-1 y onto {w : N L^-T w <= o}; a box is [I; -I] z <= [hi; -lo]
    linv = np.linalg.inv(np.linalg.cholesky(k))
    lt = linv.T  # one view: a contiguous copy may take another BLAS kernel
    if s.kind == "box":
        normals = np.vstack((np.eye(d), -np.eye(d)))
        offsets = np.concatenate((s.hi, -s.lo))
    else:
        normals, offsets = s.normals, s.offsets
    proj = _projector(halfspace_intersection(normals @ lt, offsets, dim=d))
    if d == 1:  # .dot keeps a -0.0 product that @ (0 + a b) makes +0.0
        return lambda x: mul(lt, proj(mul(linv, x / eps - q)))
    return lambda x: lt.dot(proj(linv.dot(x / eps - q))) if x.ndim == 1 \
        else mul(lt, proj(mul(linv, x / eps - q)))


def make_resolvent(phi: ConvexFunction, eps: float):
    """Closure x -> J_eps(x), the minimizer of |z - x|^2 / (2 eps) + phi(z),
    of one point (d,) or a stack (n, d), each row bit for bit as on its own;
    the result may share memory with x.  The one place the resolvent
    dispatches on kind: the projector of the domain for the indicator, the
    same projector of x - eps a for the affine kind, and for the quadratic
    kind an exact projection in the metric K = I/eps + A onto a polytope or
    box, a trust-region solve on a ball.  The first two carry the
    projector's float_form, where it has one (the one face of d = 1, the
    box of d = 2)."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if phi.kind == "quadratic_plus_indicator":
        return _prox_quadratic(phi, eps)
    proj = _projector(phi.domain)
    if phi.kind == "indicator":
        return proj
    shift = eps * phi.a
    prox = lambda x: proj(x - shift)
    form = getattr(proj, "float_form", None)
    if form and phi.dim == 1:
        prox.float_form = lambda x, s1=float(shift[0]): form(x - s1)
    elif form:
        s0, s1 = shift.tolist()
        prox.float_form = lambda x: form((x[0] - s0, x[1] - s1))
    return prox


def resolvent(phi: ConvexFunction, eps: float, x) -> np.ndarray:
    """J_eps(x) of one point or of each row of a stack; see make_resolvent."""
    return make_resolvent(phi, eps)(np.array(x, dtype=float, ndmin=1))


def yosida_gradient(phi: ConvexFunction, eps: float, x) -> np.ndarray:
    """(x - J_eps(x)) / eps; a subgradient of phi at J_eps(x)."""
    x = np.array(x, dtype=float, ndmin=1)
    return (x - make_resolvent(phi, eps)(x)) / eps


def moreau_envelope(phi: ConvexFunction, eps: float, x):
    """inf_z { |z - x|^2 / (2 eps) + phi(z) }, evaluated at the resolvent;
    a float for one point, an array for a stack."""
    x = np.array(x, dtype=float, ndmin=1)
    j = make_resolvent(phi, eps)(x)
    env = np.sum((x - j) ** 2, axis=-1) / (2.0 * eps) \
        + eval_fn(phi, j, feas_tol=1e-7)
    return env if x.ndim > 1 else float(env)


# ---------------------------------------------------------------------------
# interior geometry


@dataclass(frozen=True)
class DomainGeometry:
    """Interior-geometry constants for a (domain, oblique field) pair.

    rho0 = r0 / (2 (1 + r0 + h0)); delta0 = min(rho0 / (2 b c), rho0) with
    the convention b -> 0 giving delta0 = rho0.
    """

    r0: float
    h0: float
    rho0: float
    delta0: float

    def __post_init__(self):
        if not (self.rho0 > 0.0 and self.delta0 > 0.0):
            raise ValueError("rho0 and delta0 must be positive")
        if self.delta0 > self.rho0 + 1e-15:
            raise ValueError("delta0 must not exceed rho0")


def domain_geometry(r0: float, h0: float, b: float, c: float) -> DomainGeometry:
    if not r0 > 0.0:
        raise ValueError("r0 must be positive")
    _check_finite(h0=h0, b=b, low=0.0)
    _check_finite(c=c, low=1.0)
    rho0 = r0 / (2.0 * (1.0 + r0 + h0))
    if b * c > 0.0:
        delta0 = min(rho0 / (2.0 * b * c), rho0)
    else:
        delta0 = rho0
    return DomainGeometry(r0=float(r0), h0=float(h0), rho0=rho0, delta0=delta0)


def probe_h0(phi: ConvexFunction) -> dict:
    """Spot-check the declared h0 on a seeded probe cloud.

    Samples 1,000 points of the domain, measures their distance to the
    r0-interior, and compares the worst case against the declared h0.
    """
    rng = np.random.default_rng(PROBE_SEED)
    inner = shrink(phi.domain, phi.r0)
    rad = bounding_radius(phi.domain)
    scale = rad if rad is not None else max(4.0 * phi.r0, 1.0)
    pts = sample_points(phi.domain, 1_000, rng, scale=scale)
    with np.errstate(over="ignore"):  # a distance past 1e154 reads inf
        worst = float(set_distance(inner, pts).max(initial=0.0))
    return {"declared_h0": phi.h0, "observed_max": worst,
            "passed": worst <= phi.h0 + 1e-9}
