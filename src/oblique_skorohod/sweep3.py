"""The substep kernel's loop for a point of d = 3 on 3-tuples of floats,
and H(x) g of d = 3 with its sums in code order.

solver._sweep takes this loop for a point whose prox and field_at carry
float forms of d = 3: a polytope of two or more faces (polytope) under a
constant field, H(x) given by its rows.  Python 3.11 has no math.fma, so
a sum of three products on floats cannot have ndarray.dot's bits.  Every
entry of H(x) g of d = 3 is therefore summed in code order, ((0.0 + h_i0
g_0) + h_i1 g_1) + h_i2 g_2: here on floats, and by products3 on an array
point and on a chunk's rows, so a lone path, its array loop and its chunk
row have the same bits.  `solver` imports it for a point or chunk of d =
3 alone, so other runs do not compile it: each module's compile-time
memory adds to the interpreter's memory peak.
"""

from __future__ import annotations

import numpy as np


def products3(m, v):
    """H(x) g for a point (m (3, 3), v (3,)) or a chunk (m (B, 3, 3), v
    (B, 3)), each entry summed in code order."""
    if v.ndim == 1:  # the same sums on Python floats, at half the cost
        g0, g1, g2 = v.tolist()
        return np.array([((0.0 + a * g0) + b * g1) + c * g2
                         for a, b, c in m.tolist()])
    v = v[..., None, :]
    return ((0.0 + m[..., 0] * v[..., 0]) + m[..., 1] * v[..., 1]) \
        + m[..., 2] * v[..., 2]


def float_loop(prox, field_at, eps, h, xq, kq, guard2, breach):
    """(grad, steps) of _sweep's float mode of d = 3, from the float forms
    prox and field_at: grad(x) is g at a 3-tuple x, and steps(q, end, x,
    g, u) takes substeps q .. end - 1 at the cell rate u, storing x and g
    into xq and kq, and returns x and g.  A state that leaves the guard
    ball at substep q raises breach(x, q).  x0 x0 + x1 x1 + x2 x2 may miss
    x.dot(x) by an ulp, so the dot decides a sum that near guard2."""
    xv, kv = memoryview(xq), memoryview(kq)  # a third of a row's cost
    below, above = guard2 * (1.0 - 1e-12), guard2 * (1.0 + 1e-12)

    def grad(x):
        p0, p1, p2 = prox(x)
        return (x[0] - p0) / eps, (x[1] - p1) / eps, (x[2] - p2) / eps

    def steps(q, end, x, g, u):
        (x0, x1, x2), (g0, g1, g2), (u0, u1, u2) = x, g, u
        for q in range(q, end):
            (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = field_at(x)
            x0 = x0 + h * (u0 - (((0.0 + a0 * g0) + a1 * g1) + a2 * g2))
            x1 = x1 + h * (u1 - (((0.0 + b0 * g0) + b1 * g1) + b2 * g2))
            x2 = x2 + h * (u2 - (((0.0 + c0 * g0) + c1 * g1) + c2 * g2))
            x = x0, x1, x2
            kv[q + 1, 0], kv[q + 1, 1], kv[q + 1, 2] = g0, g1, g2
            s = x0 * x0 + x1 * x1 + x2 * x2
            if not (s <= below or s <= above and np.dot(x, x) <= guard2):
                raise breach(x, q)
            xv[q + 1, 0], xv[q + 1, 1], xv[q + 1, 2] = x
            p0, p1, p2 = prox(x)
            g0, g1, g2 = (x0 - p0) / eps, (x1 - p1) / eps, (x2 - p2) / eps
        return x, (g0, g1, g2)
    return grad, steps
