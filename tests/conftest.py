"""Shared test catalog: constraint functions, direction fields, and full
scenario bundles reused across the suite.

Refined solutions are expensive enough to share, so `refined_catalog` is
session-scoped and solves each bundle once.  Tolerances per scenario are
frozen at roughly twice the observed refinement-floor gap (dt = 1e-3,
eps0 = 0.1) so every bundle converges inside the default ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import pytest

import oblique_skorohod as ok

DT = 1e-3
HORIZON = 1.0
GRID_N = 1000

SQ2 = 0.70710678118654752
A2 = [[2.0, 0.7], [0.7, 1.0]]


def grid_times(n: int = GRID_N, dt: float = DT) -> np.ndarray:
    return dt * np.arange(n + 1)


def default_windows(horizon: float) -> list[tuple[float, float]]:
    """The whole horizon and its two halves, as VI residual windows."""
    return [(0.0, horizon), (0.0, 0.5 * horizon), (0.5 * horizon, horizon)]


def ramp_path(*slopes: float, dt: float = DT, n: int = GRID_N) -> ok.SampledPath:
    t = dt * np.arange(n + 1)
    vals = t[:, None] * np.asarray(slopes, dtype=float)
    return ok.SampledPath(t0=0.0, dt=dt, values=vals, extension="zero")


def sinusoid_path(amps, period: float, dt: float = DT,
                  n: int = GRID_N) -> ok.SampledPath:
    t = dt * np.arange(n + 1)
    vals = np.sin(2.0 * np.pi * t / period)[:, None] * np.asarray(amps, dtype=float)
    return ok.SampledPath(t0=0.0, dt=dt, values=vals, extension="zero")


def halfline_set() -> ok.Set:
    return ok.halfspace_intersection([[-1.0]], [0.0])


def nan_drift(d: int) -> ok.DriftSpec:
    """A constant NaN drift, built around constant_drift (which rejects
    it), to drive a state to NaN."""
    return replace(ok.constant_drift(np.zeros(d)), b0=np.full(d, np.nan))


def make_phis() -> dict[str, ok.ConvexFunction]:
    """Constraint-function catalog used by the property suites."""
    return {
        "halfline": ok.indicator(halfline_set(), r0=0.5, h0=0.5),
        "box2": ok.indicator(ok.box([0.0, 0.0], [1.0, 1.0]), r0=0.1),
        "ball2": ok.indicator(ok.ball([0.0, 0.0], 1.0), r0=0.3),
        "quad-halfline": ok.quadratic_plus_indicator(
            [[1.0]], [0.0], halfline_set(), r0=0.5, h0=0.5),
        "affine-box": ok.lipschitz_affine_plus_indicator(
            [0.5, 0.25], 0.0, ok.box([0.0, 0.0], [1.0, 1.0]), r0=0.1),
        "wedge": ok.indicator(
            ok.halfspace_intersection([[-1.0, 0.0], [-SQ2, -SQ2]], [0.0, 0.0]),
            r0=0.5, h0=0.545),
        # x <= -2|y|, apex angle 53 degrees; the apex is farthest from the
        # r0-interior, at r0 * sqrt(5) = 0.4472
        "acute-wedge": ok.indicator(
            ok.halfspace_intersection([[1.0, 2.0], [1.0, -2.0]], [0.0, 0.0]),
            r0=0.2, h0=0.45),
        # x >= 0, sum(x) <= 1; the vertices e_i are farthest from the
        # r0-interior, at 3.991 r0 = 0.1996
        "simplex3": ok.indicator(
            ok.halfspace_intersection(np.vstack([-np.eye(3), np.ones((1, 3))]),
                                      [0.0, 0.0, 0.0, 1.0]),
            r0=0.05, h0=0.2),
        # quadratic kinds with a non-diagonal A, each >= phi(0) = 0 on its
        # domain: on a box, on a ball through 0 (q along the center), and on
        # the triangle x, y >= 0, x + y <= 1.5, whose acute corners are
        # farthest from the r0-interior, at 2.613 r0 = 0.2613
        "quad-box2": ok.quadratic_plus_indicator(
            A2, [0.4, 0.3], ok.box([0.0, 0.0], [1.0, 1.0]), r0=0.1),
        "quad-ball": ok.quadratic_plus_indicator(
            A2, [0.4, 0.3], ok.ball([0.8, 0.6], 1.0), r0=0.3),
        "quad-triangle": ok.quadratic_plus_indicator(
            A2, [0.2, 0.1],
            ok.halfspace_intersection([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                                      [0.0, 0.0, 1.5]),
            r0=0.1, h0=0.3),
    }


@dataclass
class Bundle:
    name: str
    phi: ok.ConvexFunction
    hf: ok.ObliqueField
    f: ok.DriftSpec
    m: ok.SampledPath
    x0: np.ndarray
    tol: float
    u0: np.ndarray
    test_points: list = field(default_factory=list)


def make_bundles() -> list[Bundle]:
    phis = make_phis()
    mk = lambda *a: np.asarray(a, dtype=float)
    return [
        Bundle("halfline", phis["halfline"],
               ok.constant_field([[2.0]], c=2.0),
               ok.zero_drift(1), ramp_path(-1.0), mk(0.0), 5e-3, mk(1.0),
               [mk(0.0), mk(0.5), mk(2.0)]),
        Bundle("box-diag", phis["box2"],
               ok.constant_field([[2.0, 0.0], [0.0, 0.5]], c=2.0),
               ok.zero_drift(2), ramp_path(-1.0, -0.6), mk(0.5, 0.5), 5e-3,
               mk(0.5, 0.5), [mk(0.0, 0.0), mk(1.0, 1.0), mk(0.0, 1.0)]),
        Bundle("ball-blend", phis["ball2"],
               ok.rotation_blend_field([[1.0, 0.0], [0.0, 1.0]],
                                       [[2.0, 0.0], [0.0, 0.5]],
                                       [1.0, 0.0], 0.0, c=2.0, b=5.1),
               ok.zero_drift(2), sinusoid_path([-0.9, 0.7], 1.1),
               mk(0.0, 0.0), 2e-2, mk(0.0, 0.0),
               [mk(0.9, 0.0), mk(0.0, -0.9)]),
        Bundle("quad-halfline", phis["quad-halfline"],
               ok.constant_field([[1.5]], c=2.0),
               ok.zero_drift(1), ramp_path(-1.0), mk(0.5), 5e-3, mk(1.0),
               [mk(0.0), mk(2.0)]),
        Bundle("affine-box", phis["affine-box"],
               ok.constant_field([[1.2, 0.3], [0.3, 0.8]], c=2.0),
               ok.zero_drift(2), sinusoid_path([-1.1, 0.4], 0.9),
               mk(0.2, 0.8), 3e-2, mk(0.5, 0.5),
               [mk(0.0, 0.0), mk(1.0, 0.0)]),
        Bundle("wedge", phis["wedge"],
               ok.constant_field([[1.5, 0.4], [0.4, 1.0]], c=2.0),
               ok.zero_drift(2), ramp_path(-1.0, -0.8), mk(0.5, 0.5), 5e-3,
               mk(2.0, 1.0), [mk(0.0, 0.0), mk(1.0, -1.0), mk(3.0, 0.0)]),
        Bundle("ball-affine", phis["ball2"],
               ok.diagonal_affine_field([1.0, 1.0], [[0.3, 0.0], [0.0, 0.3]],
                                        c=2.0, b=0.3, span=[0.4, 0.4]),
               ok.affine_drift([[0.0, 0.2], [-0.2, 0.0]], [0.0, -0.3],
                               domain_radius=1.0),
               sinusoid_path([0.8, -1.3], 0.7), mk(0.3, -0.3), 5e-2,
               mk(0.0, 0.0), [mk(0.5, 0.5), mk(-0.7, 0.0)]),
        Bundle("quad-box", phis["quad-box2"],
               ok.constant_field([[1.5, 0.4], [0.4, 1.0]], c=2.0),
               ok.zero_drift(2), sinusoid_path([-0.8, 1.1], 0.9),
               mk(0.5, 0.5), 3e-2, mk(0.5, 0.5),
               [mk(0.0, 0.0), mk(1.0, 1.0), mk(1.0, 0.0)]),
    ]


def solve_bundle(b: Bundle, tol: float | None = None,
                 max_halvings: int = 10) -> ok.SkorohodSolution:
    return ok.solve_skorohod(b.phi, b.hf, b.f, b.m, b.x0,
                             tol=b.tol if tol is None else tol,
                             max_halvings=max_halvings)


@pytest.fixture(scope="session")
def bundles() -> list[Bundle]:
    return make_bundles()


@pytest.fixture(scope="session")
def refined_catalog(bundles) -> dict[str, tuple[Bundle, ok.SkorohodSolution]]:
    return {b.name: (b, solve_bundle(b)) for b in bundles}


@pytest.fixture(scope="session")
def phi_catalog() -> dict[str, ok.ConvexFunction]:
    return make_phis()


def sample_states(phi: ok.ConvexFunction, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Ambient sample cloud around the domain: mixes interior points and
    points up to a few radii outside so resolvent branches all fire."""
    d = phi.dim
    pts = rng.normal(0.0, 2.0, size=(n, d))
    inside = ok.project_set(phi.domain, pts[0])
    pts[:: 7] = inside + rng.normal(0.0, 0.05, size=(len(pts[::7]), d))
    return pts
