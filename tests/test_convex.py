import itertools
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import oblique_skorohod as ok
from oblique_skorohod import convex
from oblique_skorohod.convex import (
    PROJ_TOL,
    ProjectionError,
    bounding_radius,
    make_resolvent,
    probe_h0,
    sample_points,
    shrink,
)

from convex_suites import SUITES, run_suite
from conftest import A2, halfline_set


class TestProjection:
    def test_ball_radial_scaling(self):
        p = ok.project_set(ok.ball([0.0, 0.0], 1.0), [3.0, 4.0])
        assert np.allclose(p, [0.6, 0.8], atol=1e-15)

    def test_idempotent_inside(self):
        s = ok.box([0.0, 0.0], [1.0, 1.0])
        x = np.array([0.3, 0.9])
        assert np.array_equal(ok.project_set(s, x), x)

    def test_box_clips_coordinatewise(self):
        s = ok.box([0.0, -1.0], [1.0, 1.0])
        assert np.allclose(ok.project_set(s, [2.0, -3.0]), [1.0, -1.0])

    def test_single_halfspace_closed_form(self):
        s = ok.halfspace_intersection([[-1.0]], [0.0])
        assert ok.project_set(s, [-2.0])[0] == pytest.approx(0.0, abs=1e-15)
        assert ok.project_set(s, [2.0])[0] == 2.0

    def test_two_halfspace_corner(self):
        # wedge x >= 0, x + y >= 0; a point inside the vertex normal cone
        # (spanned by both outward normals) projects to the origin
        sq2 = np.sqrt(0.5)
        s = ok.halfspace_intersection([[-1.0, 0.0], [-sq2, -sq2]], [0.0, 0.0])
        x = np.array([-1.0, 0.0]) + np.array([-sq2, -sq2])
        p = ok.project_set(s, x)
        assert np.allclose(p, [0.0, 0.0], atol=1e-12)

    def test_two_halfspace_face(self):
        # (-1, -2) violates both constraints but projects onto one face
        sq2 = np.sqrt(0.5)
        s = ok.halfspace_intersection([[-1.0, 0.0], [-sq2, -sq2]], [0.0, 0.0])
        p = ok.project_set(s, [-1.0, -2.0])
        assert np.allclose(p, [0.5, -0.5], atol=1e-12)

    def test_two_halfspace_single_active(self):
        sq2 = np.sqrt(0.5)
        s = ok.halfspace_intersection([[-1.0, 0.0], [-sq2, -sq2]], [0.0, 0.0])
        p = ok.project_set(s, [-1.0, 5.0])
        assert np.allclose(p, [0.0, 5.0], atol=1e-12)

    def test_acute_corner_single_violation(self):
        # a narrow wedge opening towards -x: (3, 0.7) violates only the
        # upper face, but its projection onto that face leaves the lower
        # one, so the true projection is the apex
        a = 0.05
        s = ok.halfspace_intersection(
            [[np.sin(a), np.cos(a)], [np.sin(a), -np.cos(a)]], [0.0, 0.0])
        x = np.array([3.0, 0.7])
        assert int((s.normals @ x > 0.0).sum()) == 1
        p = ok.project_set(s, x)
        assert float((s.normals @ p - s.offsets).max()) <= 1e-9
        assert ok.set_distance(s, x) == pytest.approx(3.0806, abs=5e-5)
        assert ok.set_distance(s, x) == pytest.approx(np.hypot(3.0, 0.7),
                                                      rel=1e-12)

    def test_projection_optimality_sampled(self):
        # <x - p, y - p> <= 0 for all feasible y characterizes the projection
        rng = np.random.default_rng(17)
        sq2 = np.sqrt(0.5)
        s = ok.halfspace_intersection(
            [[-1.0, 0.0], [-sq2, -sq2], [0.0, 1.0]], [0.0, 0.0, 2.0])
        ys = sample_points(s, 50, rng)
        for _ in range(50):
            x = rng.normal(0.0, 3.0, size=2)
            p = ok.project_set(s, x)
            assert ok.contains(s, p, tol=1e-9)
            for y in ys:
                assert float((x - p) @ (y - p)) <= 1e-9

    def test_stack_matches_point_by_point(self, phi_catalog):
        rng = np.random.default_rng(29)
        for s in (phi.domain for phi in phi_catalog.values()):
            xs = rng.normal(0.0, 2.0, size=(300, s.dim))
            ps = ok.project_set(s, xs)
            np.testing.assert_array_equal(
                ps, [ok.project_set(s, x) for x in xs])
            np.testing.assert_array_equal(
                ok.set_distance(s, xs), [ok.set_distance(s, x) for x in xs])
            assert all(ok.contains(s, p, tol=PROJ_TOL) for p in ps)

    def test_indicator_resolvent_is_project_set(self, phi_catalog):
        # one projector serves both, so they agree bit for bit on points and
        # stacks, band rows included: each face crossed by +-5e-13 along its
        # normal, where a threshold of its own would leave a row unmoved
        rng = np.random.default_rng(59)
        sets = [phi.domain for phi in phi_catalog.values()]
        sets += list(_reference_polytopes().values()) + [ok.whole_space(2)]
        for s in sets:
            xs = rng.normal(0.0, 2.0, size=(300, s.dim))
            band = _band_rows(s, rng)
            xs[:len(band)] = band
            res = make_resolvent(ok.ConvexFunction(kind="indicator", domain=s),
                                 0.05)
            ps = ok.project_set(s, xs)
            assert_array_equal(res(xs), ps)
            assert_array_equal(ps, [ok.project_set(s, x) for x in xs])
            assert_array_equal(ps, [res(x) for x in xs])

    def test_distance_just_outside_one_face(self):
        s = ok.halfspace_intersection([[-1.0]], [0.0])
        assert_array_equal(ok.project_set(s, [-5e-13]), [0.0])
        assert ok.set_distance(s, [-5e-13]) == 5e-13

    def test_whole_space_identity(self):
        x = np.array([5.0, -7.0, 1.0])
        assert np.array_equal(ok.project_set(ok.whole_space(3), x), x)

    def test_distance_and_contains(self):
        s = ok.ball([0.0], 1.0)
        assert ok.set_distance(s, [3.0]) == pytest.approx(2.0)
        assert ok.contains(s, [0.5]) and not ok.contains(s, [1.5])


def _band_rows(s: ok.Set, rng: np.random.Generator) -> np.ndarray:
    """Points 5e-13 inside and outside each face of s (the sphere of a
    ball), two of each on every face."""
    if s.kind == "ball":
        u = rng.standard_normal((4, s.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        radii = s.radius + np.array([5e-13, -5e-13, 5e-13, -5e-13])
        return s.center + radii[:, None] * u
    if s.kind == "box":
        normals = np.vstack([np.eye(s.dim), -np.eye(s.dim)])
        offsets = np.concatenate([s.hi, -s.lo])
    else:
        normals, offsets = s.normals, s.offsets
    rows = []
    for n, b in zip(normals, offsets):
        for shift in (5e-13, -5e-13, 5e-13, -5e-13):
            x = rng.normal(0.0, 1.0, size=s.dim)
            rows.append(x - (float(n @ x) - b - shift) * n)
    return np.array(rows).reshape(-1, s.dim)


def _reference_polytopes() -> dict[str, ok.Set]:
    a = 0.05
    sets = {
        "acute-wedge": ok.halfspace_intersection(
            [[np.sin(a), np.cos(a)], [np.sin(a), -np.cos(a)]], [0.0, 0.0]),
        "simplex3": ok.halfspace_intersection(
            np.vstack([-np.eye(3), np.ones((1, 3))]), [0.0, 0.0, 0.0, 1.0]),
        # four faces through the apex of z <= -max(|x|, |y|)
        "pyramid-apex": ok.halfspace_intersection(
            [[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [0.0, 1.0, 1.0],
             [0.0, -1.0, 1.0]], [0.0, 0.0, 0.0, 0.0]),
        "duplicate-faces": ok.halfspace_intersection(
            [[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 1.0]],
            [1.0, 2.0, 1.0, 1.0, 1.0]),
        "slab": ok.halfspace_intersection(
            [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [1.0, 1.0]),
    }
    rng = np.random.default_rng(41)
    for d in (2, 3, 4):
        for k in range(3):
            m = int(rng.integers(2, 7))
            normals = rng.standard_normal((m, d))
            # offsets above the faces' values at a random point: never empty
            offsets = normals @ rng.standard_normal(d) + rng.random(m)
            sets[f"random-d{d}-{k}"] = ok.halfspace_intersection(normals,
                                                                 offsets)
    return sets


def _brute_distance(s: ok.Set, xs: np.ndarray) -> np.ndarray:
    """Distance of each row of xs to the polytope s by enumeration.

    The projection of x is its projection onto the affine hull of at most
    d linearly independent faces, so the nearest feasible point among those
    projections (and x itself) is exact.
    """
    m, d = s.normals.shape
    feasible = lambda z: (z @ s.normals.T - s.offsets).max(axis=1) <= 1e-9
    best = np.where(feasible(xs), 0.0, np.inf)
    for k in range(1, min(m, d) + 1):
        for faces in itertools.combinations(range(m), k):
            a, b = s.normals[list(faces)], s.offsets[list(faces)]
            w = np.linalg.lstsq(a @ a.T, a @ xs.T - b[:, None], rcond=None)[0]
            z = xs - (a.T @ w).T
            dist = np.linalg.norm(xs - z, axis=1)
            best = np.where(feasible(z), np.minimum(best, dist), best)
    return best


class TestPolytopeProjectionReference:
    @pytest.mark.parametrize("name", sorted(_reference_polytopes()))
    def test_feasible_and_nearest(self, name):
        s = _reference_polytopes()[name]
        xs = np.random.default_rng(43).normal(0.0, 3.0, size=(400, s.dim))
        ps = ok.project_set(s, xs)
        assert (ps @ s.normals.T - s.offsets).max() <= PROJ_TOL
        np.testing.assert_allclose(ok.set_distance(s, xs),
                                   _brute_distance(s, xs), rtol=0.0, atol=1e-9)

    def test_empty_intersection_raises(self):
        s = ok.halfspace_intersection([[1.0], [-1.0]], [-1.0, -1.0])
        with pytest.raises(ProjectionError):
            ok.project_set(s, [0.0])


def _generated_polytopes() -> dict[str, ok.Set]:
    """Polytopes in d = 2..5 that stress the active set: an acute cone
    (its apex takes d faces, and the most violated face often leaves on the
    way), a simplex with redundant shifted copies and an exact duplicate of
    a face, and a random polytope with a copy of every face tilted by 1e-7."""
    rng = np.random.default_rng(20260)
    sets = {}
    for d in range(2, 6):
        u = rng.standard_normal((d + 1, d - 1))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        a = 0.15
        sets[f"acute-d{d}"] = ok.halfspace_intersection(
            np.hstack((np.sin(a) * u, np.full((d + 1, 1), np.cos(a)))),
            np.zeros(d + 1))
        simplex = np.vstack((-np.eye(d), np.ones((1, d))))
        sets[f"redundant-d{d}"] = ok.halfspace_intersection(
            np.vstack((simplex, simplex[:2], simplex[-1:])),
            np.r_[np.zeros(d), 1.0, 0.5, 0.5, 1.0])
        normals = rng.standard_normal((d + 2, d))
        offsets = normals @ rng.standard_normal(d) + rng.random(d + 2)
        tilted = normals + 1e-7 * rng.standard_normal(normals.shape)
        sets[f"near-parallel-d{d}"] = ok.halfspace_intersection(
            np.vstack((normals, tilted)), np.r_[offsets, offsets])
    return sets


def _generated_rows(s: ok.Set, rng: np.random.Generator) -> np.ndarray:
    """About 500 rows: a wide cloud, and rows beyond the apex of the cone
    (or the far corner), whose projections drop faces."""
    d = s.dim
    cloud = rng.normal(0.0, 3.0, size=(400, d))
    axis = -s.normals.sum(axis=0)
    axis /= np.linalg.norm(axis)
    beyond = (-rng.uniform(0.5, 5.0, size=(100, 1)) * axis
              + rng.normal(0.0, 0.5, size=(100, d)))
    return np.vstack((cloud, beyond))


def _assert_kkt(s: ok.Set, xs: np.ndarray, zs: np.ndarray):
    """KKT of each projection z of x, without the active-set code: z is
    feasible, and x - z = N_S' lam with lam >= 0 on some set S of faces
    active at z (complementarity: lam_i (n_i z - o_i) = 0)."""
    normals, offsets = s.normals, s.offsets
    resid = zs @ normals.T - offsets
    assert resid.max() <= 1e-9
    g = xs - zs
    scale = 1.0 + np.linalg.norm(g, axis=1)
    near = resid >= -1e-8
    best = np.where(np.linalg.norm(g, axis=1) <= 1e-12, 0.0, np.inf)
    best_comp = np.zeros(g.shape[0])
    m, d = normals.shape
    for k in range(1, min(m, d) + 1):
        for faces in itertools.combinations(range(m), k):
            faces = list(faces)
            rows = np.flatnonzero(near[:, faces].all(axis=1))
            if not rows.size:
                continue
            a = normals[faces]
            lam = np.linalg.lstsq(a.T, g[rows].T, rcond=None)[0].T
            res = np.linalg.norm(lam @ a - g[rows], axis=1)
            comp = np.abs(lam * resid[rows][:, faces]).max(axis=1)
            better = (lam >= -1e-9 * scale[rows, None]).all(axis=1) \
                & (res < best[rows])
            best[rows[better]] = res[better]
            best_comp[rows[better]] = comp[better]
    assert (best <= 1e-7 * scale).all()
    assert (best_comp <= 1e-7 * scale).all()


class TestBatchedActiveSet:
    """A stack takes the active set on all its violating rows at once; each
    row must come out as its point call gives it."""

    @pytest.mark.parametrize("name", sorted(_generated_polytopes()))
    def test_rows_match_point_calls_and_kkt(self, name):
        s = _generated_polytopes()[name]
        xs = _generated_rows(s, np.random.default_rng(7))
        zs = ok.project_set(s, xs)
        assert_array_equal(zs, np.array([ok.project_set(s, x) for x in xs]))
        _assert_kkt(s, xs, zs)

    def test_stack_of_the_quadratic_prox_matches_point_calls(self):
        # the quad-box prox: a K-metric box, i.e. four skewed faces
        phi = ok.quadratic_plus_indicator(A2, [-0.5, 0.3],
                                          ok.box([0.0, 0.0], [1.0, 1.0]),
                                          r0=0.1)
        xs = np.random.default_rng(8).normal(0.5, 1.5, size=(500, 2))
        for eps in (1.0, 0.01):
            prox = make_resolvent(phi, eps)
            assert_array_equal(prox(xs), np.array([prox(x) for x in xs]))

    def test_empty_polytope_raises_for_a_point_and_a_stack(self):
        s = ok.halfspace_intersection([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
                                      [-1.0, -1.0, 0.0])
        xs = np.array([[0.0, -1.0], [3.0, 2.0], [0.5, 0.5]])
        for x in (xs[1], xs):
            with pytest.raises(ProjectionError,
                               match="halfspace intersection is empty"):
                ok.project_set(s, x)


def _uncached_projection(x, normals, offsets):
    """The active-set projection of a point with every product taken
    afresh, as it ran before its geometry was cached: the reference."""
    resid = normals @ x - offsets
    z = x.copy()
    active, u = [], []
    pinv = np.zeros((0, x.size))
    while True:
        if active:
            resid[active] = -np.inf
        p = int(resid.argmax())
        if resid[p] <= PROJ_TOL:
            return z
        n, up = normals[p], 0.0
        while True:
            if active:
                r = pinv @ n
                step = n - normals[active].T @ r
            else:
                r, step = pinv[:, 0], n.copy()
            ss = float(step @ step)
            t = (float(n @ z) - offsets[p]) / ss \
                if ss > PROJ_TOL * PROJ_TOL else np.inf
            k = None
            for j, (uj, rj) in enumerate(zip(u, r.tolist())):
                if rj > 0.0 and uj / rj < t:
                    t, k = uj / rj, j
            z = z - t * step
            u = [uj - t * rj for uj, rj in zip(u, r.tolist())]
            up += t
            if k is None:
                break
            del active[k], u[k]
            row = pinv[k]
            pinv = np.delete(pinv, k, axis=0)
            pinv -= (pinv @ row)[:, None] * (row / float(row @ row))
        step /= ss
        pinv = np.concatenate((pinv - r[:, None] * step, step[None])) \
            if active else step[None]
        active.append(p)
        u.append(up)
        resid = normals @ z - offsets


def _all_polytopes() -> dict[str, ok.Set]:
    return {**_reference_polytopes(), **_generated_polytopes()}


def _outside_rows(s: ok.Set) -> np.ndarray:
    """The rows of a wide cloud, and of rows beyond the far side of the
    faces where their normals do not cancel, outside s."""
    rng = np.random.default_rng(9)
    xs = rng.normal(0.0, 3.0, size=(200, s.dim))
    axis = -s.normals.sum(axis=0)
    if np.linalg.norm(axis) > 1e-9:
        axis /= np.linalg.norm(axis)
        xs = np.vstack((xs, -rng.uniform(0.5, 5.0, size=(100, 1)) * axis
                        + rng.normal(0.0, 0.5, size=(100, s.dim))))
    return xs[(xs @ s.normals.T - s.offsets).max(axis=1) > PROJ_TOL]


class TestGeometryCache:
    """The point projection caches its state-free geometry per active-set
    history; a cold cache, a warm one and none must agree bit for bit."""

    @pytest.mark.parametrize("name", sorted(_all_polytopes()))
    def test_cold_warm_and_uncached_agree(self, name):
        s = _all_polytopes()[name]
        n, o = s.normals, s.offsets
        xs = _outside_rows(s)
        refs = [_uncached_projection(x, n, o) for x in xs]
        warm = {}
        for x, ref in zip(xs, refs):
            assert_array_equal(convex._project_polytope(
                x, n, o, n @ x - o, {}), ref)
            assert_array_equal(convex._project_polytope(
                x, n, o, n @ x - o, warm), ref)
        # again, every history now in the cache
        for x, ref in zip(xs, refs):
            assert_array_equal(convex._project_polytope(
                x, n, o, n @ x - o, warm), ref)
        if name[:-1] in ("acute-d", "near-parallel-d") and name != "acute-d2":
            # histories with a face leaving the active set (~k < 0)
            assert any(e < 0 for key in warm for e in key)

    @pytest.mark.parametrize("name", sorted(_generated_polytopes()))
    def test_stack_matches_a_warm_point_projector(self, name):
        s = _generated_polytopes()[name]
        proj = convex._projector(s)
        xs = _generated_rows(s, np.random.default_rng(10))
        points = np.array([proj(x) for x in xs])
        assert_array_equal(proj(xs), points)
        assert_array_equal(np.array([proj(x) for x in xs]), points)

    def test_cache_stays_within_its_cap(self, monkeypatch):
        monkeypatch.setattr(convex, "_GEOMETRY_CAP", 5)
        s = _generated_polytopes()["acute-d5"]
        n, o = s.normals, s.offsets
        geo, sizes = {}, []
        for x in _outside_rows(s):
            z = convex._project_polytope(x, n, o, n @ x - o, geo)
            sizes.append(len(geo))
            assert_array_equal(z, _uncached_projection(x, n, o))
        assert max(sizes) == 5
        assert isinstance(convex._GEOMETRY_CAP, int)



class TestPassCap:
    """PROJ_MAX_ITERS caps the faces that enter one projection; a point and
    a stack raise at the same pass, and rows within the cap are unchanged."""

    @pytest.mark.parametrize("cap", [2, 3])
    def test_point_and_stack_share_the_cap(self, monkeypatch, cap):
        s = _generated_polytopes()["acute-d4"]
        xs = _outside_rows(s)
        refs = ok.project_set(s, xs)
        monkeypatch.setattr(convex, "PROJ_MAX_ITERS", cap)
        message = f"active-set projection exceeded {cap} passes"
        within = []
        for i, x in enumerate(xs):
            try:
                z = ok.project_set(s, x)
            except ProjectionError as exc:
                assert str(exc) == message
                with pytest.raises(ProjectionError, match=message):
                    ok.project_set(s, x[None])
            else:
                assert_array_equal(z, refs[i])
                within.append(i)
        assert 0 < len(within) < len(xs)
        assert_array_equal(ok.project_set(s, xs[within]), refs[within])
        with pytest.raises(ProjectionError, match=message):
            ok.project_set(s, xs)

def _brute_quadratic_prox(phi: ok.ConvexFunction, eps: float,
                          xs: np.ndarray) -> np.ndarray:
    """J_eps of each row of xs for a quadratic on a polytope or box, by
    enumeration in the metric K = I/eps + A.

    The prox minimizes z'Kz/2 - y'z (y = x/eps - q) over the domain, so it
    is the minimizer on the affine hull of its active faces: the feasible
    one of lowest value among those of every set of at most d linearly
    independent faces (and of no face) is exact.
    """
    s, d = phi.domain, phi.dim
    if s.kind == "box":
        normals = np.vstack([np.eye(d), -np.eye(d)])
        offsets = np.concatenate([s.hi, -s.lo])
    else:
        normals, offsets = s.normals, s.offsets
    k = np.eye(d) / eps + phi.A
    ys = xs / eps - phi.q
    value = lambda z: 0.5 * np.einsum("ij,jk,ik->i", z, k, z) \
        - np.einsum("ij,ij->i", ys, z)
    feasible = lambda z: (z @ normals.T - offsets).max(axis=1) <= 1e-9
    best_z = np.linalg.solve(k, ys.T).T
    best = np.where(feasible(best_z), value(best_z), np.inf)
    for m in range(1, d + 1):
        for faces in itertools.combinations(range(len(offsets)), m):
            a, b = normals[list(faces)], offsets[list(faces)]
            if np.linalg.matrix_rank(a) < m:
                continue
            kkt = np.block([[k, a.T], [a, np.zeros((m, m))]])
            rhs = np.hstack([ys, np.broadcast_to(b, (len(ys), m))])
            z = np.linalg.solve(kkt, rhs.T).T[:, :d]
            val = np.where(feasible(z), value(z), np.inf)
            better = val < best
            best_z[better], best[better] = z[better], val[better]
    return best_z


def _box_qp_cases(rng, n=6):
    """n (quadratic on a random 2-D box, eps) pairs: A of rank 0, 1 or 2
    with a random correlation, q and eps over three decades."""
    cases = []
    for i in range(n):
        a = rng.normal(0.0, 1.5, (2, i % 3))
        lo = rng.normal(0.0, 2.0, 2)
        s = ok.box(lo, lo + rng.exponential(2.0, 2) + 0.05)
        phi = ok.quadratic_plus_indicator(
            a @ a.T + (a @ a.T).T, rng.normal(0.0, 2.0, 2), s,
            r0=0.25 * float((s.hi - s.lo).min()))
        cases.append((phi, float(10.0 ** rng.uniform(-3.0, 0.0))))
    return cases


class TestQuadraticProxReference:
    SIMPLEX3 = ok.quadratic_plus_indicator(
        [[2.0, 0.5, -0.3], [0.5, 1.0, 0.2], [-0.3, 0.2, 0.5]],
        [0.3, -0.4, 0.1],
        ok.halfspace_intersection(np.vstack([-np.eye(3), np.ones((1, 3))]),
                                  [0.0, 0.0, 0.0, 1.0]),
        r0=0.05, h0=0.2)

    @pytest.mark.parametrize("eps", [1.0, 0.05])
    @pytest.mark.parametrize("name", ["quad-box2", "quad-triangle",
                                      "quad-simplex3"])
    def test_polytope_and_box_against_enumeration(self, name, eps,
                                                  phi_catalog):
        phi = self.SIMPLEX3 if name == "quad-simplex3" else phi_catalog[name]
        xs = np.random.default_rng(47).normal(0.0, 3.0, size=(400, phi.dim))
        np.testing.assert_allclose(ok.resolvent(phi, eps, xs),
                                   _brute_quadratic_prox(phi, eps, xs),
                                   rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_2d_boxes_against_enumeration(self, seed):
        # the closed-form active set of a 2-D box against the enumeration,
        # on random A (rank 0 to 2), q, boxes and eps, from rows in every
        # region of the box
        for phi, eps in _box_qp_cases(np.random.default_rng(300 + seed)):
            lo, hi = phi.domain.lo, phi.domain.hi
            xs = np.random.default_rng(seed).normal(
                0.5 * (lo + hi), 2.0 * (hi - lo) + 1.0, size=(300, 2))
            ref = _brute_quadratic_prox(phi, eps, xs)
            scale = 1.0 + np.abs(ref).max()
            np.testing.assert_allclose(ok.resolvent(phi, eps, xs), ref,
                                       rtol=0.0, atol=1e-10 * scale)

    @pytest.mark.parametrize("seed", range(4))
    def test_2d_box_kkt(self, seed):
        # z in the box exactly, and Kz - y = mu with mu_i = 0 where lo_i <
        # z_i < hi_i, mu_i >= 0 at lo_i and mu_i <= 0 at hi_i (to rounding)
        for phi, eps in _box_qp_cases(np.random.default_rng(400 + seed)):
            lo, hi = phi.domain.lo, phi.domain.hi
            xs = np.random.default_rng(seed).normal(
                0.5 * (lo + hi), 2.0 * (hi - lo) + 1.0, size=(300, 2))
            z = ok.resolvent(phi, eps, xs)
            assert ((z >= lo) & (z <= hi)).all()
            ys = xs / eps - phi.q
            k = np.eye(2) / eps + phi.A
            mu = z @ k - ys
            tol = 1e-12 * (1.0 + np.abs(ys) + np.abs(z) @ np.abs(k))
            assert (np.where(z == lo, mu >= -tol, True)).all()
            assert (np.where(z == hi, mu <= tol, True)).all()
            free = (z > lo) & (z < hi)
            assert (np.abs(mu[free]) <= tol[free]).all()

    @pytest.mark.parametrize("eps", [1.0, 0.05])
    def test_ball_kkt(self, eps, phi_catalog):
        # K z - y + mu (z - c) = 0 with mu >= 0, |z - c| <= R, and mu = 0
        # unless |z - c| = R
        rng = np.random.default_rng(53)
        a3 = rng.standard_normal((3, 2))
        ball3 = ok.quadratic_plus_indicator(
            a3 @ a3.T, [0.5, -0.2, 0.3], ok.ball([0.2, -0.1, 0.4], 0.7),
            r0=0.2)
        for phi in (phi_catalog["quad-ball"], ball3):
            c, radius = phi.domain.center, phi.domain.radius
            xs = rng.normal(0.0, 3.0, size=(300, phi.dim))
            z = ok.resolvent(phi, eps, xs)
            ys = xs / eps - phi.q
            grad = z @ (np.eye(phi.dim) / eps + phi.A) - ys
            r = z - c
            nr = np.linalg.norm(r, axis=1)
            mu = np.maximum(-np.einsum("ij,ij->i", grad, r) / nr ** 2, 0.0)
            scale = 1.0 + np.linalg.norm(ys, axis=1)
            assert (np.linalg.norm(grad + mu[:, None] * r, axis=1)
                    <= 1e-13 * scale).all()
            assert (nr <= radius * (1.0 + 1e-15)).all()
            assert (mu * (radius - nr) <= 1e-13 * scale).all()

    @pytest.mark.parametrize("lam", [1000.0, 300.0])
    def test_separable_box_closed_form(self, lam):
        # a diagonal A on a box is separable: J = clip((x/eps - q) / (1/eps
        # + diag A), lo, hi) coordinatewise.  K = diag(1 + lam, 1) is badly
        # conditioned, where a gradient iteration stopped on its step
        # length is inexact (300) or runs out of steps (1000).
        phi = ok.quadratic_plus_indicator(
            np.diag([lam, 0.0]), [0.0, -1.0],
            ok.box([-10.0, -10.0], [10.0, 10.0]), r0=0.1)
        x, eps = np.array([3.0, 0.0]), 1.0
        closed = np.clip((x / eps - phi.q) / (1.0 / eps + np.diag(phi.A)),
                         -10.0, 10.0)
        np.testing.assert_allclose(ok.resolvent(phi, eps, x), closed,
                                   rtol=0.0, atol=1e-14)


class TestSetGeometry:
    def test_shrink_box(self):
        s = shrink(ok.box([0.0, 0.0], [1.0, 1.0]), 0.1)
        assert ok.contains(s, [0.5, 0.5]) and not ok.contains(s, [0.05, 0.5])

    def test_bounding_radius(self):
        assert bounding_radius(ok.ball([1.0, 0.0], 2.0)) == pytest.approx(3.0)
        assert bounding_radius(halfline_set()) is None

    def test_interior_witness_is_deep(self):
        s = ok.box([0.0, 0.0], [1.0, 1.0])
        w = ok.interior_witness(s, 0.1)
        assert ok.set_distance(shrink(s, 0.1), w) <= 1e-12

    def test_interior_witness_rejects_thin_sets(self):
        with pytest.raises(ValueError):
            ok.interior_witness(ok.box([0.0], [0.1]), 0.2)


class TestResolvent:
    def test_indicator_prox_is_projection(self):
        phi = ok.indicator(ok.ball([0.0, 0.0], 1.0), r0=0.3)
        x = np.array([3.0, 4.0])
        for eps in (1.0, 0.01):
            assert np.allclose(ok.resolvent(phi, eps, x), [0.6, 0.8], atol=1e-14)

    def test_quadratic_whole_space_closed_form(self):
        phi = ok.quadratic_plus_indicator([[1.0]], [0.0], ok.whole_space(1),
                                          r0=1.0, h0=0.0)
        assert ok.resolvent(phi, 1.0, [2.0])[0] == pytest.approx(1.0, abs=1e-14)

    def test_fixed_point_at_minimizer(self):
        phi = ok.quadratic_plus_indicator([[1.0]], [0.0], ok.whole_space(1),
                                          r0=1.0, h0=0.0)
        assert ok.resolvent(phi, 0.5, [0.0])[0] == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_halfspace_kkt(self):
        # phi = x^2/2 on [0, inf): prox is max(0, x/(1+eps))
        phi = ok.quadratic_plus_indicator([[1.0]], [0.0], halfline_set(),
                                          r0=0.5, h0=0.5)
        assert ok.resolvent(phi, 1.0, [2.0])[0] == pytest.approx(1.0, abs=1e-12)
        assert ok.resolvent(phi, 1.0, [-3.0])[0] == pytest.approx(0.0, abs=1e-12)

    def test_affine_plus_box_shifted_clip(self):
        # prox of <a, x> + I_box is clip(x - eps a)
        phi = ok.lipschitz_affine_plus_indicator([0.5, 0.25], 0.0,
                                                 ok.box([0.0, 0.0], [1.0, 1.0]),
                                                 r0=0.1)
        j = ok.resolvent(phi, 2.0, [0.7, 0.2])
        assert np.allclose(j, [0.0, 0.0], atol=1e-14)

    def test_prox_optimality_against_perturbations(self, phi_catalog):
        # J minimizes |z-x|^2/(2 eps) + phi(z): no feasible perturbation wins
        rng = np.random.default_rng(29)
        for phi in phi_catalog.values():
            for _ in range(20):
                x = rng.normal(0.0, 2.0, size=phi.dim)
                eps = 0.3
                j = ok.resolvent(phi, eps, x)
                best = float((j - x) @ (j - x)) / (2 * eps) + ok.eval_fn(phi, j)
                for _ in range(20):
                    z = ok.project_set(phi.domain,
                                       j + rng.normal(0.0, 0.2, size=phi.dim))
                    cand = float((z - x) @ (z - x)) / (2 * eps) \
                        + ok.eval_fn(phi, z)
                    assert cand >= best - 1e-9


class TestYosidaGradient:
    def test_halfline_example(self):
        phi = ok.indicator(ok.box([0.0], [np.inf]), r0=0.5, h0=0.5)
        g = ok.yosida_gradient(phi, 0.5, [-1.0])
        assert g[0] == pytest.approx(-2.0, abs=1e-14)

    def test_zero_at_minimizer(self):
        phi = ok.quadratic_plus_indicator([[1.0]], [0.0], ok.whole_space(1),
                                          r0=1.0, h0=0.0)
        assert ok.yosida_gradient(phi, 1.0, [0.0])[0] == 0.0

    def test_quadratic_value(self):
        phi = ok.quadratic_plus_indicator([[1.0]], [0.0], ok.whole_space(1),
                                          r0=1.0, h0=0.0)
        assert ok.yosida_gradient(phi, 1.0, [2.0])[0] == pytest.approx(1.0, abs=1e-14)

    def test_gradient_in_subdifferential_at_resolvent(self, phi_catalog):
        # <g, y - Jx> + phi(Jx) <= phi(y) for feasible y (subgradient law)
        rng = np.random.default_rng(31)
        for phi in phi_catalog.values():
            ys = sample_points(phi.domain, 40, rng)
            for _ in range(40):
                x = rng.normal(0.0, 2.0, size=phi.dim)
                eps = 0.2
                j = ok.resolvent(phi, eps, x)
                g = ok.yosida_gradient(phi, eps, x)
                pj = ok.eval_fn(phi, j)
                for y in ys:
                    lhs = float(g @ (y - j)) + pj
                    assert lhs <= ok.eval_fn(phi, y) + 1e-10


class TestMoreauEnvelope:
    def test_ball_distance_squared(self):
        phi = ok.indicator(ok.ball([0.0, 0.0], 1.0), r0=0.3)
        assert ok.moreau_envelope(phi, 1.0, [2.0, 0.0]) == pytest.approx(0.5, abs=1e-14)

    def test_vanishes_on_domain(self):
        phi = ok.indicator(ok.box([0.0, 0.0], [1.0, 1.0]), r0=0.1)
        assert ok.moreau_envelope(phi, 0.7, [0.4, 0.9]) == 0.0

    def test_quadratic_value_against_grid_search(self):
        # envelope of x^2/2 at x=2, eps=1: brute-force the defining infimum
        phi = ok.quadratic_plus_indicator([[1.0]], [0.0], ok.whole_space(1),
                                          r0=1.0, h0=0.0)
        z = np.linspace(-1.0, 3.0, 2_000_001)
        brute = np.min((z - 2.0) ** 2 / 2.0 + z ** 2 / 2.0)
        env = ok.moreau_envelope(phi, 1.0, [2.0])
        assert env == pytest.approx(1.0, abs=1e-9)
        assert env == pytest.approx(float(brute), abs=1e-9)


class TestPropertySuites:
    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_suite_on_catalog(self, suite, phi_catalog):
        for name, phi in phi_catalog.items():
            val, passed = run_suite(suite, phi, 200, seed=97)
            assert passed, f"{suite} failed on {name}: {val}"


class TestGeometryConstants:
    def test_auto_h0_box(self):
        phi = ok.indicator(ok.box([0.0, 0.0], [1.0, 1.0]), r0=0.1)
        assert phi.h0 == pytest.approx(0.1 * np.sqrt(2.0))

    def test_auto_h0_ball(self):
        phi = ok.indicator(ok.ball([0.0, 0.0], 1.0), r0=0.3)
        assert phi.h0 == pytest.approx(0.3)

    def test_declared_h0_required_for_halfspaces(self):
        with pytest.raises(ValueError):
            ok.indicator(halfline_set(), r0=0.5)  # no h0 declared

    def test_probe_h0_passes_catalog(self, phi_catalog):
        for name, phi in phi_catalog.items():
            rep = probe_h0(phi)
            assert rep["passed"], f"h0 probe failed on {name}: {rep}"

    def test_probe_h0_flags_understated_bound(self):
        # wedge with a dishonest h0 below the true supremum ~1.0824 r0
        import dataclasses

        base = ok.indicator(
            ok.halfspace_intersection(
                [[-1.0, 0.0], [-np.sqrt(0.5), -np.sqrt(0.5)]], [0.0, 0.0]),
            r0=0.5, h0=0.545)
        phi = dataclasses.replace(base, h0=0.5)
        rep = probe_h0(phi)
        assert not rep["passed"]

    def test_domain_geometry_values(self):
        g = ok.domain_geometry(r0=0.5, h0=0.5, b=0.0, c=2.0)
        assert g.rho0 == pytest.approx(0.5 / (2.0 * 2.0))
        assert g.delta0 == pytest.approx(g.rho0)

    def test_domain_geometry_with_field_variation(self):
        g = ok.domain_geometry(r0=0.1, h0=0.2, b=5.0, c=2.0)
        assert g.delta0 == pytest.approx(min(g.rho0 / (2 * 5.0 * 2.0), g.rho0))
        assert 0.0 < g.delta0 <= g.rho0

    def test_domain_geometry_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ok.domain_geometry(r0=0.0, h0=0.5, b=0.0, c=2.0)
        with pytest.raises(ValueError):
            ok.domain_geometry(r0=0.5, h0=-1.0, b=0.0, c=2.0)


class TestConstructorsValidate:
    def test_box_needs_lo_below_hi(self):
        with pytest.raises(ValueError):
            ok.box([1.0], [0.0])

    def test_ball_needs_positive_radius(self):
        with pytest.raises(ValueError):
            ok.ball([0.0], 0.0)

    def test_quadratic_needs_psd(self):
        with pytest.raises(ValueError):
            ok.quadratic_plus_indicator([[-1.0]], [0.0], ok.whole_space(1),
                                        r0=1.0, h0=0.0)

    @pytest.mark.parametrize("A, q", [([[np.inf]], [0.0]),
                                      ([[1.0]], [np.nan])])
    def test_quadratic_needs_finite_coefficients(self, A, q):
        with pytest.raises(ValueError, match="finite"):
            ok.quadratic_plus_indicator(A, q, ok.box([0.0], [1.0]), r0=0.1)

    @pytest.mark.parametrize("a, beta", [([np.nan], 0.0), ([1.0], np.inf)])
    def test_affine_needs_finite_coefficients(self, a, beta):
        with pytest.raises(ValueError, match="finite"):
            ok.lipschitz_affine_plus_indicator(a, beta, ok.box([0.0], [1.0]),
                                               r0=0.1)

    def test_halfspace_rows_are_normalized(self):
        s = ok.halfspace_intersection([[-2.0, 0.0]], [1.0])
        assert ok.contains(s, [-0.5, 0.0])
        assert not ok.contains(s, [-0.6, 0.0])


class TestRowContract:
    """Each operator takes one point (d,) or a stack (n, d), and every row
    of a stack comes out bit for bit as that row does on its own."""

    def closure_kinds(self, phi_catalog):
        # the catalog plus the closure kinds it lacks: quadratic on one face
        # and on the whole space in 2-D, and affine on a ball, on one face
        # and on two faces
        half = ok.halfspace_intersection([[-1.0, -1.0]], [0.0])
        ball = ok.ball([0.0, 0.0], 1.0)
        return dict(phi_catalog, **{
            "quad-half2": ok.quadratic_plus_indicator(
                A2, [0.4, -0.3], half, r0=0.2, h0=0.2),
            "quad-whole2": ok.quadratic_plus_indicator(
                A2, [0.4, -0.3], ok.whole_space(2), r0=1.0),
            "affine-ball": ok.lipschitz_affine_plus_indicator(
                [0.5, -0.25], 0.1, ball, r0=0.3),
            "affine-half2": ok.lipschitz_affine_plus_indicator(
                [0.5, -0.25], 0.1, half, r0=0.2, h0=0.2),
            "affine-wedge": ok.lipschitz_affine_plus_indicator(
                [0.5, -0.25], 0.1, phi_catalog["wedge"].domain, r0=0.5,
                h0=0.545),
        })

    @pytest.mark.parametrize("s", [
        ok.box([0.0, 0.0], [1.0, 1.0]),
        ok.ball([0.0, 0.0], 1.0),
        ok.halfspace_intersection([[-1.0, -1.0]], [0.0]),
        ok.halfspace_intersection([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                                  [0.0, 0.0, 1.0]),
        ok.whole_space(2),
    ], ids=["box", "ball", "one-face", "triangle", "whole-space"])
    def test_nonfinite_rows_match_point_calls(self, s):
        nan, inf = np.nan, np.inf
        xs = np.array([[nan, 0.2], [0.2, nan], [nan, nan], [inf, 0.2],
                       [-inf, 0.2], [0.2, -inf], [inf, -inf], [0.3, 0.4],
                       [2.0, -1.0], [-0.5, 0.1]])
        with np.errstate(invalid="ignore"):
            stack = ok.project_set(s, xs)
            points = np.array([ok.project_set(s, x) for x in xs])
            dists = ok.set_distance(s, xs)
            point_dists = np.array([ok.set_distance(s, x) for x in xs])
        assert_array_equal(stack, points)
        assert_array_equal(dists, point_dists)
        if s.kind == "halfspace_intersection" and s.normals.shape[0] > 1:
            # outside a face with a non-finite coordinate: no projection
            assert np.isnan(stack[:7]).all()

    def test_one_face_stack_warns_only_where_points_do(self):
        # a row inside the face takes no shift, so an infinite coordinate
        # there makes no invalid value; every row, signed zeros and NaN
        # rows included, comes out as for the point
        s = ok.halfspace_intersection([[-1.0, -1.0]], [0.0])
        xs = np.array([[np.inf, 0.2], [0.3, 0.4], [-0.0, 0.0], [0.0, -0.0],
                       [np.nan, 1.0], [-1.0, -2.0], [1e300, -1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = ok.project_set(s, xs)
            points = np.array([ok.project_set(s, x) for x in xs])
        assert stack.tobytes() == points.tobytes()

    def test_stack_rows_match_point_calls(self, phi_catalog):
        rng = np.random.default_rng(43)
        for name, phi in self.closure_kinds(phi_catalog).items():
            xs = rng.normal(0.0, 2.0, size=(300, phi.dim))
            ops = [lambda x: ok.eval_fn(phi, x),
                   lambda x: ok.contains(phi.domain, x)]
            for eps in (1.0, 0.05):
                ops += [make_resolvent(phi, eps),
                        lambda x, e=eps: ok.yosida_gradient(phi, e, x),
                        lambda x, e=eps: ok.moreau_envelope(phi, e, x)]
            for op in ops:
                assert_array_equal(op(xs), np.array([op(x) for x in xs]),
                                   err_msg=name)
        fields = [
            ok.constant_field([[1.5, 0.2], [0.2, 1.0]], c=2.0),
            ok.diagonal_affine_field([1.0, 1.0], [[0.3, 0.1], [0.1, 0.3]],
                                     c=2.0, b=0.5, span=[0.4, 0.4]),
            ok.rotation_blend_field(np.eye(2), [[2.0, 0.0], [0.0, 0.5]],
                                    [1.0, 0.0], 0.0, c=2.0, b=5.1),
        ]
        for hf in fields:
            xs = rng.normal(0.0, 2.0, size=(300, 2))
            for op in (ok.eval_field, ok.eval_inverse):
                assert_array_equal(op(hf, xs),
                                   np.array([op(hf, x) for x in xs]),
                                   err_msg=hf.kind)


def _bitwise_kinds(d: int) -> tuple[dict, list]:
    """(resolvent catalog, fields) of width d for the point-product test:
    every set kind (a two-face interval for d = 1), each function kind on
    it, and each field kind, the blend's weight direction along x[0]."""
    ones = np.ones(d)
    faces = np.vstack((-np.eye(d), ones)) if d > 1 else [[-1.0], [1.0]]
    sets = {"box": ok.box(np.zeros(d), ones),
            "ball": ok.ball(np.zeros(d), 1.0),
            "one-face": ok.halfspace_intersection([-ones], [0.0]),
            "polytope": ok.halfspace_intersection(faces, np.eye(d + 1)[-1]
                                                  if d > 1 else [0.0, 1.0]),
            "whole": ok.whole_space(d)}
    a = np.linspace(0.5, -0.25, d)
    quad = np.eye(d) + 0.3 * (np.ones((d, d)) - np.eye(d)) / d
    phis = {}
    for name, s in sets.items():
        h0 = None if s.kind != "halfspace_intersection" or name == "whole" \
            else 1.0
        r0 = 0.05
        phis[f"indicator-{name}"] = ok.indicator(s, r0=r0, h0=h0)
        # q[0] = 0: at x[0] = -0.0 the prox's products meet a -0.0
        phis[f"quadratic-{name}"] = ok.quadratic_plus_indicator(
            quad, np.r_[0.0, a[1:]], s, r0=r0, h0=h0)
        phis[f"affine-{name}"] = ok.lipschitz_affine_plus_indicator(
            a, 0.1, s, r0=r0, h0=h0)
    base = np.full(d, 1.0)
    fields = [ok.constant_field(quad, c=2.0),
              ok.diagonal_affine_field(base, 0.3 * quad, c=2.0, b=0.5,
                                       offsets=np.full(d, -0.0),
                                       span=np.full(d, 0.4)),
              ok.rotation_blend_field(np.eye(d), np.diag(np.linspace(
                  2.0, 0.5, d)), np.eye(d)[0], 0.0, c=2.0, b=5.1)]
    return phis, fields


@pytest.mark.parametrize("d", [1, 2, 3])
def test_point_products_match_the_stack_bit_for_bit(d):
    # a point's products are ndarray.dot, a stack's stay on @: every point
    # closure must give the bits of its stack row, signed zeros included,
    # on random states and on states exactly on a face, at a box corner,
    # at the origin (+0.0 and -0.0) and at both clamps of the blend weight
    rng = np.random.default_rng(20 + d)
    zeros = np.zeros(d)
    on = [zeros, -zeros, np.ones(d), np.eye(d)[0], -np.eye(d)[0],
          np.r_[-0.0, np.ones(d - 1) / max(d - 1, 1)][:d],
          np.r_[1.0, -np.zeros(d - 1)], np.full(d, 1.0 / d),
          np.r_[0.5, -0.5 * np.ones(d - 1) / max(d - 1, 1)][:d]]
    xs = np.vstack(on + list(rng.normal(0.0, 1.5, size=(40, d))))
    phis, fields = _bitwise_kinds(d)
    closures = [(f"{name} eps={eps}", make_resolvent(phi, eps))
                for name, phi in phis.items() for eps in (1.0, 0.05)]
    closures += [(hf.kind, ok.make_field_eval(hf)) for hf in fields]
    # the clip ufunc's own rule is no product's: on a 1-column stack its
    # broadcast loop keeps x = -0.0 at lo = +0.0, where a point gets +0.0
    clip_rule = (d == 1) & np.signbit(xs[:, 0]) & (xs[:, 0] == 0.0)
    bad = []
    for name, op in closures:
        stack = op(xs)
        for i, x in enumerate(xs):
            if name.startswith("indicator-box") and clip_rule[i]:
                # the one exception to the row contract, pinned: the point
                # clips to +0.0, its stack row keeps -0.0
                assert not np.signbit(op(x.copy())[0])
                assert np.signbit(stack[i, 0])
                continue
            if op(x.copy()).tobytes() != stack[i].tobytes():
                bad.append((name, x))
    assert bad == []


def _float_inputs(s: ok.Set) -> list[float]:
    # the face point b / n, its neighbours and points well inside and
    # outside it, signed zeros, tiny and huge values, infinities and NaN
    face = float(s.offsets[0] / s.normals[0, 0])
    near = [float(np.nextafter(face, t)) for t in (-np.inf, np.inf)]
    return ([0.0, -0.0, face, face - 1.0, face + 1.0, 1e-300, -1e-300,
             1e300, -1e300, np.inf, -np.inf, np.nan] + near
            + np.random.default_rng(7).normal(face, 2.0, 30).tolist())


@pytest.mark.parametrize("normal, offset", [([[-2.0]], [0.0]),
                                            ([[3.0]], [1.5])])
def test_float_forms_match_the_array_point(normal, offset):
    # the substep kernel runs a 1-D point on these float forms: each gives
    # a Python float with the bits of its array point closure
    s = ok.halfspace_intersection(normal, offset)
    ops = [("projector", convex._projector(s))]
    for eps in (1.0, 0.05):
        ops += [(f"indicator eps={eps}",
                 make_resolvent(ok.indicator(s, r0=0.1, h0=0.1), eps)),
                (f"affine eps={eps}", make_resolvent(
                    ok.lipschitz_affine_plus_indicator([0.7], 0.2, s,
                                                       r0=0.1, h0=0.1),
                    eps))]
    bad = []
    for name, op in ops:
        for x in _float_inputs(s):
            with np.errstate(invalid="ignore", over="ignore"):
                want = op(np.array([x]))
            got = op.float_form(x)
            if type(got) is not float or \
                    np.array([got]).tobytes() != want.tobytes():
                bad.append((name, x, got, want))
    assert bad == []


def test_only_the_one_face_resolvents_of_d1_have_float_forms():
    # every other kind keeps the kernel's array point path
    one = ok.halfspace_intersection([[-1.0]], [0.0])
    assert hasattr(convex._projector(one), "float_form")
    for s in (ok.box([0.0], [1.0]), ok.ball([0.0], 1.0), ok.whole_space(1),
              ok.halfspace_intersection([[-1.0], [1.0]], [0.0, 1.0]),
              ok.halfspace_intersection([[-1.0, 0.0]], [0.0])):
        assert not hasattr(convex._projector(s), "float_form")
    quad = ok.quadratic_plus_indicator([[1.0]], [0.2], one, r0=0.1, h0=0.1)
    assert not hasattr(make_resolvent(quad, 0.1), "float_form")


def _pair_inputs(rng, lo, hi, n):
    # 2-D points whose coordinates are drawn from each box edge and its
    # neighbours, signed zeros, subnormals, huge values, infinities, NaN
    # and normal draws, so that points fall inside, on faces, on corners
    # and past them
    pool = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300,
            np.inf, -np.inf, np.nan]
    for e in (*lo, *hi):
        pool += [e, float(np.nextafter(e, -np.inf)),
                 float(np.nextafter(e, np.inf))]
    pool = np.array(pool)
    pts = rng.normal(0.5 * (lo + hi), hi - lo + 1.0, (n, 2))
    pick = rng.random((n, 2)) < 0.5
    pts[pick] = rng.choice(pool, pick.sum())
    return [tuple(p) for p in pts.tolist()]


def test_the_2d_box_float_forms_match_the_array_point():
    # the substep kernel runs a 2-D point on a box on these float forms:
    # each gives a 2-tuple of Python floats with the bits of its array
    # point closure, on random boxes and generated points
    rng = np.random.default_rng(2026)
    boxes = [([0.0, 0.0], [1.0, 1.0]), ([-0.0, -2.0], [3.0, 0.0]),
             ([-1e-310, 5.0], [1e-310, 7.0])]
    for _ in range(6):
        lo = rng.normal(0.0, 2.0, 2)
        boxes.append((lo, lo + rng.exponential(2.0, 2) + 1e-3))
    bad, checked = [], 0
    for lo, hi in boxes:
        s = ok.box(lo, hi)
        r0 = 0.25 * float((s.hi - s.lo).min())
        ops = [("projector", convex._projector(s))]
        for eps in (1.0, 0.05):
            a = rng.normal(0.0, 1.0, 2)
            ops += [(f"indicator eps={eps}",
                     make_resolvent(ok.indicator(s, r0=r0), eps)),
                    (f"affine eps={eps}", make_resolvent(
                        ok.lipschitz_affine_plus_indicator(a, 0.2, s,
                                                           r0=r0), eps))]
        for x in _pair_inputs(rng, s.lo, s.hi, 400):
            for name, op in ops:
                with np.errstate(invalid="ignore", over="ignore"):
                    want = op(np.array(x))
                got = op.float_form(x)
                checked += 1
                if type(got) is not tuple or \
                        not all(type(v) is float for v in got) or \
                        np.array(got).tobytes() != want.tobytes():
                    bad.append((name, s.lo, s.hi, x, got, want))
    assert bad == [] and checked == 9 * 5 * 400


def test_only_the_2d_box_and_d1_face_keep_float_forms():
    # boxes of other dimensions, balls and polytopes of d = 2 keep the
    # kernel's array point path, and so does the quadratic prox on each of
    # them; the quadratic prox on a 2-D box has a float form
    for s in (ok.box([0.0] * 3, [1.0] * 3), ok.ball([0.0, 0.0], 1.0),
              ok.whole_space(2), ok.halfspace_intersection(
                  [[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])):
        assert not hasattr(convex._projector(s), "float_form")
        phi = ok.lipschitz_affine_plus_indicator(np.ones(s.dim), 0.0, s,
                                                 r0=0.1, h0=1.0)
        assert not hasattr(make_resolvent(phi, 0.1), "float_form")
        quad = ok.quadratic_plus_indicator(np.eye(s.dim), np.ones(s.dim), s,
                                           r0=0.1, h0=1.0)
        assert not hasattr(make_resolvent(quad, 0.1), "float_form")
    quad = ok.quadratic_plus_indicator(np.eye(2), [0.2, 0.0],
                                       ok.box([0.0, 0.0], [1.0, 1.0]), r0=0.1)
    assert hasattr(make_resolvent(quad, 0.1), "float_form")


def _box_qp_region_points(phi, eps, rng):
    """(xs, zs): points x whose prox is a known z in each region of the
    box (inside, on each of its 4 edges and at each of its 4 corners), with
    each active bound's multiplier positive or exactly 0 (on the boundary
    with the region inside) and, on an edge, the free coordinate inside or
    at a bound (on the boundary with a corner), each x with its ulp
    neighbours, which share its z."""
    lo, hi = phi.domain.lo, phi.domain.hi
    k = np.eye(2) / eps + phi.A
    xs, zs = [], []
    for states in itertools.product(("lo", "free", "hi"), repeat=2):
        for free_at, m in itertools.product((None, "lo", "hi"),
                                            (0.0, rng.exponential(3.0))):
            z, mu = rng.uniform(lo, hi), np.zeros(2)
            for i, st in enumerate(states):
                if st == "free":
                    z[i] = {None: z[i], "lo": lo[i], "hi": hi[i]}[free_at]
                else:
                    z[i] = lo[i] if st == "lo" else hi[i]
                    mu[i] = m if st == "lo" else -m
            x = eps * (k @ z - mu + phi.q)
            for i, t in itertools.product(range(2), (-np.inf, np.inf)):
                xn = x.copy()
                xn[i] = np.nextafter(x[i], t)
                xs.append(xn)
                zs.append(z)
            xs.append(x)
            zs.append(z)
    return np.array(xs), np.array(zs)


def test_the_2d_box_quadratic_float_form_matches_the_point_and_stack():
    # the substep kernel runs a 2-D point on a box through this float form:
    # a 2-tuple of Python floats, the array point's bits, and every stack
    # row the bits of its point call; on points in every region of the box
    # and on region boundaries, whose prox is known, and on generated
    # points with signed zeros, subnormals, huge values, infinities and
    # NaN, where a non-finite x gives a row of NaN
    rng = np.random.default_rng(2028)
    bad, checked = [], 0
    for phi, eps in _box_qp_cases(rng, 9):
        prox = make_resolvent(phi, eps)
        xs, zs = _box_qp_region_points(phi, eps, rng)
        scale = 1.0 + np.abs(xs).max() / eps
        np.testing.assert_allclose(prox(xs), zs, rtol=0.0,
                                   atol=1e-12 * scale)
        xs = np.vstack((xs, _pair_inputs(rng, phi.domain.lo, phi.domain.hi,
                                         300)))
        stack = prox(xs)
        with np.errstate(over="ignore", invalid="ignore"):
            nonfinite = ~np.isfinite(xs / eps - phi.q).all(axis=1)
        for x, row, out in zip(xs, stack, nonfinite):
            want = prox(x.copy())
            got = prox.float_form(tuple(x.tolist()))
            checked += 1
            if type(got) is not tuple or \
                    not all(type(v) is float for v in got) or \
                    np.array(got).tobytes() != want.tobytes() or \
                    row.tobytes() != want.tobytes() or \
                    np.isnan(want).all() != out or \
                    np.isnan(want).any() != out:
                bad.append((phi.A, phi.q, eps, x, got, want, row))
    assert bad == [] and checked > 9 * 300
    # a non-finite coordinate, and a signed zero beside it
    prox = make_resolvent(_box_qp_cases(rng, 1)[0][0], 0.1)
    xs = np.array([[np.nan, 0.2], [0.2, np.nan], [np.inf, -0.0],
                   [-0.0, -np.inf], [np.inf, -np.inf], [1e308, 0.5],
                   [0.0, -0.0], [-0.0, 0.0]])
    stack = prox(xs)
    assert np.isnan(stack[:6]).all() and np.isfinite(stack[6:]).all()
    for x, row in zip(xs, stack):
        assert prox(x.copy()).tobytes() == row.tobytes() == \
            np.array(prox.float_form(tuple(x.tolist()))).tobytes()
    # bounds of +0.0 and -0.0 met by a 1-D minimizer of -0.0 or +0.0 (a
    # diagonal A, q_j = 0 and x_j = -0.0 or 0.0, with x_i past a bound)
    for (lo, hi), i in itertools.product(
            (([0.0, 0.0], [1.0, 1.0]), ([-1.0, -1.0], [-0.0, -0.0])), (0, 1)):
        prox = make_resolvent(ok.quadratic_plus_indicator(
            np.diag([0.5, 0.0][::1 - 2 * i]), [0.3, 0.0][::1 - 2 * i],
            ok.box(lo, hi), r0=0.1), 0.1)
        xs = np.array([[a, b][::1 - 2 * i] for a in (-5.0, 5.0)
                       for b in (0.0, -0.0)])
        stack = prox(xs)
        for x, row in zip(xs, stack):
            assert prox(x.copy()).tobytes() == row.tobytes() == \
                np.array(prox.float_form(tuple(x.tolist()))).tobytes()
