"""The resolvent of a quadratic on a 2-D box, in closed form.

J_eps(x) minimizes z'Kz/2 - y'z over the box, K = I/eps + A and y = x/eps
- q.  The point form runs on Python floats, so the substep kernel can hold
a 2-D point's state as floats; a stack takes the same operations
elementwise, so each row has the bits of its point call.  It lives apart
from `convex`, whose compile-time memory sets the benchmark interpreters'
import peak.
"""

from __future__ import annotations

import math

import numpy as np


def box2_prox(k, lo, hi, eps, q):
    """Closure x -> J_eps(x) on the box [lo, hi] with K = I/eps + A given
    as k, of one point (2,) or a stack (..., 2), each row bit for bit as on
    its own; its float_form maps a 2-tuple of floats with the point's bits.

    The active set in the original coordinates: u = K^-1 y where it lies
    in the box.  Otherwise the minimizer holds a coordinate that u violates
    at the bound u crosses (from a box point that holds none, a short step
    towards u stays in the box and goes down), and the other coordinate at
    its 1-D minimizer, clipped.  Where u violates both, coordinate 0's
    candidate is taken if its multiplier (Kz - y)_0 has the KKT sign (>= 0
    at lo, <= 0 at hi), else coordinate 1's: an error in that sign moves
    the point by as much, where a near tie of objective values can hide a
    move of order sqrt(ulp).  A non-finite y gives NaN, as the polytope
    projection does.  A stack takes the point's operations elementwise,
    np.where for its branches.
    """
    (k00, k01), (_, k11) = k.tolist()
    det = k00 * k11 - k01 * k01
    i00, i01, i11 = k11 / det, -k01 / det, k00 / det
    (l0, l1), (h0, h1), (q0, q1) = lo.tolist(), hi.tolist(), q.tolist()
    nan, inf = math.nan, math.inf

    def pair(x):
        y0, y1 = x[0] / eps - q0, x[1] / eps - q1
        if not (-inf < y0 < inf and -inf < y1 < inf):
            return nan, nan
        u0, u1 = i00 * y0 + i01 * y1, i01 * y0 + i11 * y1
        out0, out1 = u0 < l0 or u0 > h0, u1 < l1 or u1 > h1
        if out0:
            b0 = l0 if u0 < l0 else h0
            z1 = (y1 - k01 * b0) / k11
            z1 = l1 if z1 <= l1 else h1 if z1 >= h1 else z1
            m0 = (k00 * b0 + k01 * z1) - y0
            if not out1 or (m0 >= 0.0 if u0 < l0 else m0 <= 0.0):
                return b0, z1
        elif not out1:
            return u0, u1
        b1 = l1 if u1 < l1 else h1
        z0 = (y0 - k01 * b1) / k00
        return (l0 if z0 <= l0 else h0 if z0 >= h0 else z0), b1

    def rows(x):
        where = np.where
        with np.errstate(over="ignore", invalid="ignore"):
            y0, y1 = x[..., 0] / eps - q0, x[..., 1] / eps - q1
            u0, u1 = i00 * y0 + i01 * y1, i01 * y0 + i11 * y1
            low0, low1 = u0 < l0, u1 < l1
            out0, out1 = low0 | (u0 > h0), low1 | (u1 > h1)
            b0, b1 = where(low0, l0, h0), where(low1, l1, h1)
            z1 = (y1 - k01 * b0) / k11
            z1 = where(z1 <= l1, l1, where(z1 >= h1, h1, z1))
            m0 = (k00 * b0 + k01 * z1) - y0
            z0 = (y0 - k01 * b1) / k00
            z0 = where(z0 <= l0, l0, where(z0 >= h0, h0, z0))
            first = out0 & (~out1 | where(low0, m0 >= 0.0, m0 <= 0.0))
            z = np.stack((where(first, b0, where(out1, z0, u0)),
                          where(first, z1, where(out1, b1, u1))), axis=-1)
            z[~(np.isfinite(y0) & np.isfinite(y1))] = nan
        return z

    prox = lambda x: np.array(pair(x.tolist())) if x.ndim == 1 else rows(x)
    prox.float_form = pair
    return prox
