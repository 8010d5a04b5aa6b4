"""The projection onto a polytope of two or more faces: the dual active
set (Goldfarb & Idnani 1983) on a point, on the rows of a stack, and for
d = 3 on a 3-tuple of floats.

projector builds `convex._projector`'s closure of such a polytope.  What a
pass computes apart from the point follows from the history of faces
added and dropped, so each closure caches it per history
(_face_geometry) and a call computes only what reads the point.  A point
of d = 3 takes the passes on Python floats (polytope3_form), for the
substep kernel's float mode; Python 3.11 has no math.fma, so there every
product of a normal with a state is summed in code order, ((0.0 + n0 z0)
+ n1 z1) + n2 z2, and the stack rows sum it so too (products3): a point
and its stack row have the same bits.  Other d keep @ and ndarray.dot.
`convex` imports it when it builds such a projector, so a run that
projects onto none does not compile it: each module's compile-time memory
adds to the interpreter's memory peak.
"""

from __future__ import annotations

import math

import numpy as np

from . import convex
from .convex import PROJ_TOL, ProjectionError


# Active-set histories whose geometry one polytope projector keeps, at most
_GEOMETRY_CAP = 1024


def _face_geometry(geo, key, prev, active_normals, n):
    # geo[key], a new entry built from prev, the entry before the last
    # event of key: (r as a list, step, ss, the active faces' pinv, the
    # pinv once n's face is added (only if ss > PROJ_TOL^2), step as a tuple)
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
    geo[key] = face = (r.tolist(), step, ss, pinv, added,
                       tuple(step.tolist()))
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
    # _project_rows takes these steps on a stack, a group of rows per key,
    # and polytope3_form on a point of d = 3 (products in code order).
    z = x.copy()
    active, u = [], []
    key, face = (), None
    for _ in range(convex.PROJ_MAX_ITERS):
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
        f"active-set projection exceeded {convex.PROJ_MAX_ITERS} passes")


def _split(vals):
    # (value, its positions) for each distinct value >= -1 of vals; one
    # comparison when all agree.  No np.unique: it imports numpy.ma (0.5 MiB).
    v = vals[0]
    if (vals == v).all():
        return [(int(v), slice(None))]
    return [(int(v) - 1, vals == v - 1)
            for v in np.flatnonzero(np.bincount(vals + 1))]


def _project_rows(x, normals, offsets, resid, geo, dot):
    # _project_polytope on every row of x (n, d) at once, from resid =
    # normals @ x - offsets (n, m) and with the same cache geo; each row
    # comes out bit for bit as its point call.  Rows with the same key have
    # the same active faces and (r, step, ss) at each pass, so they take it
    # as one group that keeps their z, u (an array per active face) and up
    # stacked: the point's float operations, products by dot(normals, z).
    out = np.empty_like(x)
    # a group: (key, face, active, passes, its rows of out, z, u, up, p),
    # where face is the geometry its next lookup builds on and p is None
    # while the rows wait for a face
    todo = [((), None, [], 0, np.arange(len(x)), x, [], 0.0, None)]
    while todo:
        key, face, active, passes, at, z, u, up, p = todo.pop()
        if p is None:
            if passes >= convex.PROJ_MAX_ITERS:
                raise ProjectionError("active-set projection exceeded "
                                      f"{convex.PROJ_MAX_ITERS} passes")
            if key:  # the caller's resid serves the first pass
                resid = dot(normals, z) - offsets
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
            t = (dot(n, z) - offsets[p]) / ss
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


def _argmax(v):
    # numpy's argmax of a list: the first NaN, else the first largest entry
    for i, vi in enumerate(v):
        if vi != vi:
            return i
    return v.index(max(v))


def products3(normals, z):
    """normals @ z of each row of a stack z (k, 3), each sum in code order:
    (k, m) for normals (m, 3), (k,) for one normal (3,)."""
    n = normals.T
    out = ((0.0 + z[:, :1] * n[0]) + z[:, 1:2] * n[1]) + z[:, 2:] * n[2]
    return out if normals.ndim > 1 else out[:, 0]


def polytope3_form(normals, offsets, geo):
    """x -> the projection of a 3-tuple x onto {z : normals z <= offsets},
    with the bits of convex._projector's stack row of x: x itself inside,
    NaN for a non-finite x outside a face, the active set otherwise (with
    the cache geo of the projector, and its ProjectionError on an empty
    intersection or convex.PROJ_MAX_ITERS passes)."""
    faces = [(a, b, c, o) for (a, b, c), o in zip(normals.tolist(),
                                                   offsets.tolist())]
    tol = PROJ_TOL
    tiny, inf, nan = tol * tol, math.inf, math.nan

    def project(x):
        z0, z1, z2 = x
        resid = [((0.0 + a * z0) + b * z1) + c * z2 - o
                 for a, b, c, o in faces]
        if not (-inf < z0 < inf and -inf < z1 < inf and -inf < z2 < inf):
            # a NaN residual counts as outside, as in the stack's max
            return x if all(v <= tol for v in resid) else (nan, nan, nan)
        if max(resid) <= tol:
            return x
        # _project_polytope's passes; a finite z has no NaN residual, so
        # max picks numpy's argmax until z overflows
        active, u = [], []
        key, face = (), None
        for _ in range(convex.PROJ_MAX_ITERS):
            for i in active:
                resid[i] = -inf
            p = resid.index(max(resid)) if -inf < z0 + z1 + z2 < inf \
                else _argmax(resid)
            if resid[p] <= tol:
                return z0, z1, z2
            a, b, c, o = faces[p]
            up = 0.0
            key += (p,)
            while True:
                face = geo.get(key) or _face_geometry(
                    geo, key, face, normals[active], normals[p])
                r, ss, (s0, s1, s2) = face[0], face[2], face[5]
                t = ((((0.0 + a * z0) + b * z1) + c * z2) - o) / ss \
                    if ss > tiny else inf
                k = None
                if u:
                    for j, (uj, rj) in enumerate(zip(u, r)):
                        if rj > 0.0 and uj / rj < t:
                            t, k = uj / rj, j
                if t == inf:
                    raise ProjectionError(
                        "halfspace intersection is empty")
                z0, z1, z2 = z0 - t * s0, z1 - t * s1, z2 - t * s2
                if u:
                    u = [uj - t * rj for uj, rj in zip(u, r)]
                up += t
                if k is None:
                    break
                del active[k], u[k]
                key += (~k,)
            active.append(p)
            u.append(up)
            resid = [((0.0 + a * z0) + b * z1) + c * z2 - o
                     for a, b, c, o in faces]
        raise ProjectionError(
            f"active-set projection exceeded {convex.PROJ_MAX_ITERS} passes")
    return project


def projector(normals, offsets):
    """Closure x -> the projection of a point (d,) or of each row of a
    stack (n, d) onto {z : normals z <= offsets}, two or more faces, each
    row bit for bit as its point.  A row outside some face by more than
    PROJ_TOL takes the active set; such a row with a NaN or infinite
    coordinate has no projection and comes back as NaN.  For d = 3 a
    point takes polytope3_form, which the closure carries as its
    float_form."""
    geo = {}  # the geometry per active-set history
    # a stack's products with the normals: matmuls, the bits of a point's
    # ndarray.dot, or in d = 3 the sums in code order
    dot = lambda n, z: (n @ z[:, :, None])[..., 0]
    form = None
    if normals.shape[1] == 3:
        dot, form = products3, polytope3_form(normals, offsets, geo)

    def project(x):
        if x.ndim > 1:
            resid = dot(normals, x) - offsets
            rows = np.flatnonzero(~(resid.max(axis=1) <= PROJ_TOL))
            if not rows.size:
                return x
            out = x.copy()
            finite = np.isfinite(x[rows]).all(axis=1)
            out[rows[~finite]] = math.nan
            rows = rows[finite]
            if rows.size:
                out[rows] = _project_rows(x[rows], normals, offsets,
                                          resid[rows], geo, dot)
            return out
        if form:
            p = tuple(x.tolist())
            z = form(p)
            return x if z is p else np.array(z)
        resid = normals.dot(x) - offsets
        if np.maximum.reduce(resid) <= PROJ_TOL:
            return x
        if not np.isfinite(x).all():
            return np.full_like(x, math.nan)
        return _project_polytope(x, normals, offsets, resid, geo)
    if form:
        project.float_form = form
    return project
