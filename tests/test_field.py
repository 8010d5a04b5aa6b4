import dataclasses

import numpy as np
import pytest

import oblique_skorohod as ok


def identity_field(d=2, c=1.0):
    return ok.constant_field(np.eye(d), c=c)


class TestFieldCatalog:
    def test_constant_identity(self):
        hf = identity_field()
        assert np.array_equal(ok.eval_field(hf, [5.0, -1.0]), np.eye(2))

    def test_constant_scalar(self):
        hf = ok.constant_field([[2.0]], c=2.0)
        assert ok.eval_field(hf, [123.0])[0, 0] == 2.0
        assert ok.eval_inverse(hf, [123.0])[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_constant_rejects_bad_spectrum(self):
        with pytest.raises(ValueError):
            ok.constant_field([[3.0]], c=2.0)  # eigenvalue 3 > c

    def test_constant_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            ok.constant_field([[1.0, 0.1], [0.2, 1.0]], c=2.0)

    def test_diagonal_affine_constant_entry(self):
        hf = ok.diagonal_affine_field([2.0], [[0.0]], c=2.0, b=0.0)
        assert ok.eval_field(hf, [77.0])[0, 0] == 2.0

    def test_diagonal_affine_clamps_to_span(self):
        hf = ok.diagonal_affine_field([1.0], [[1.0]], c=2.0, b=1.0, span=[0.4])
        assert ok.eval_field(hf, [10.0])[0, 0] == pytest.approx(1.4)
        assert ok.eval_field(hf, [-10.0])[0, 0] == pytest.approx(0.6)

    def test_diagonal_affine_rejects_span_leaving_band(self):
        with pytest.raises(ValueError):
            ok.diagonal_affine_field([1.9], [[1.0]], c=2.0, b=1.0, span=[0.5])

    def test_rotation_blend_endpoint(self):
        m0 = np.eye(2)
        m1 = np.diag([2.0, 0.5])
        hf = ok.rotation_blend_field(m0, m1, [1.0, 0.0], 0.0, c=2.0, b=5.1)
        # w <= 0 half-plane returns the first endpoint exactly
        assert np.array_equal(ok.eval_field(hf, [-3.0, 0.0]), m0)
        # deep in the w >= 1 region the second endpoint is reached
        assert np.allclose(ok.eval_field(hf, [5.0, 0.0]), m1, atol=1e-15)

    def test_blend_weight_smoothstep(self):
        # H[0, 0] = 1 + w: the weight is 0 for s <= 0, 1 for s >= 1 and
        # s^2 (3 - 2 s) between, at a point and in a stack
        hf = ok.rotation_blend_field(np.eye(2), np.diag([2.0, 0.5]),
                                     [1.0, 0.0], 0.0, c=2.0, b=5.1)
        xs = np.array([[0.5, 0.0], [-1.0, 0.0], [2.0, 0.0], [0.25, 0.0]])
        expected = [1.5, 1.0, 2.0, 1.15625]
        assert [ok.eval_field(hf, x)[0, 0] for x in xs] == expected
        assert ok.eval_field(hf, xs)[:, 0, 0].tolist() == expected

    def test_symmetry_is_exact(self):
        hf = ok.rotation_blend_field(np.eye(2), np.diag([2.0, 0.5]),
                                     [0.6, 0.8], 0.1, c=2.0, b=5.1)
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = ok.eval_field(hf, rng.normal(size=2))
            assert np.array_equal(m, m.T)

    def test_inverse_product_identity(self):
        fields = [
            ok.constant_field([[1.2, 0.3], [0.3, 0.8]], c=2.0),
            ok.diagonal_affine_field([1.0, 1.0], [[0.3, 0.0], [0.0, 0.3]],
                                     c=2.0, b=0.3, span=[0.4, 0.4]),
            ok.rotation_blend_field(np.eye(2), np.diag([2.0, 0.5]),
                                    [1.0, 0.0], 0.0, c=2.0, b=5.1),
        ]
        rng = np.random.default_rng(13)
        for hf in fields:
            for _ in range(50):
                x = rng.normal(size=2)
                prod = ok.eval_field(hf, x) @ ok.eval_inverse(hf, x)
                assert np.max(np.abs(prod - np.eye(2))) <= 1e-12

    def test_ellipticity_sampled(self):
        hf = ok.rotation_blend_field(np.eye(2), np.diag([2.0, 0.5]),
                                     [1.0, 0.0], 0.0, c=2.0, b=5.1)
        rng = np.random.default_rng(19)
        for _ in range(1_000):
            x = rng.normal(0.0, 3.0, size=2)
            u = rng.normal(size=2)
            q = float(u @ ok.eval_field(hf, x) @ u)
            n2 = float(u @ u)
            assert q >= n2 / hf.c - 1e-10
            assert q <= n2 * hf.c + 1e-10


class TestValidateField:
    def test_identity_field_passes_tight_c(self):
        rep = ok.validate_field(identity_field(c=1.0),
                                [np.zeros(2), np.ones(2)])
        assert rep.passed
        assert rep.eig_min == pytest.approx(1.0, abs=1e-12)
        assert rep.eig_max == pytest.approx(1.0, abs=1e-12)

    def test_flags_eigenvalue_above_declared_c(self):
        import dataclasses

        hf = ok.constant_field([[3.0]], c=4.0)
        lying = dataclasses.replace(hf, c=2.0)
        rep = ok.validate_field(lying, [np.zeros(1), np.ones(1)])
        assert not rep.passed
        assert any("spectrum" in msg for msg in rep.failures)

    def test_flags_lipschitz_violation(self):
        import dataclasses

        hf = ok.diagonal_affine_field([1.0], [[0.5]], c=2.0, b=1.1, span=[0.4])
        lying = dataclasses.replace(hf, b=0.01)
        probes = [np.array([v]) for v in np.linspace(-0.5, 0.5, 9)]
        rep = ok.validate_field(lying, probes)
        assert not rep.passed

    def test_rotation_blend_spectrum_window(self):
        hf = ok.rotation_blend_field(np.eye(2), np.diag([2.0, 0.5]),
                                     [1.0, 0.0], 0.0, c=2.0, b=5.1)
        rng = np.random.default_rng(23)
        probes = [rng.normal(0.0, 2.0, size=2) for _ in range(200)]
        rep = ok.validate_field(hf, probes)
        assert rep.passed
        assert rep.eig_min >= 0.5 - 1e-12 and rep.eig_max <= 2.0 + 1e-12

    def test_needs_two_probes(self):
        with pytest.raises(ValueError):
            ok.validate_field(identity_field(), [np.zeros(2)])


class TestDirectionMatrix:
    def test_aligned_collapses_to_identity(self):
        m = ok.direction_matrix([1.0, 0.0], [1.0, 0.0])
        assert np.allclose(m, np.eye(2), atol=1e-14)
        assert np.allclose(m @ [1.0, 0.0], [1.0, 0.0], atol=1e-14)

    def test_scaled_normal(self):
        n = np.array([0.0, 1.0])
        m = ok.direction_matrix(2.0 * n, n)
        assert np.allclose(m @ n, 2.0 * n, atol=1e-12)

    def test_oblique_pair_maps_normal_to_direction(self):
        nu = np.array([1.0, 1.0]) / np.sqrt(2.0)
        n = np.array([1.0, 0.0])
        m = ok.direction_matrix(nu, n)
        assert np.allclose(m @ n, nu, atol=1e-12)
        assert np.array_equal(m, m.T)

    def test_random_valid_pairs(self):
        rng = np.random.default_rng(41)
        done = 0
        while done < 100:
            nu = rng.normal(size=3)
            nu /= np.linalg.norm(nu)
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            if float(nu @ n) <= 0.1:
                continue
            m = ok.direction_matrix(nu, n)
            assert np.array_equal(m, m.T)
            assert np.allclose(m @ n, nu, atol=1e-12)
            done += 1

    def test_rejects_nonacute_pairing(self):
        with pytest.raises(ValueError):
            ok.direction_matrix([-1.0, 0.0], [1.0, 0.0])

    def test_rejects_non_unit_normal(self):
        with pytest.raises(ValueError):
            ok.direction_matrix([1.0, 0.0], [2.0, 0.0])


def test_nan_field_fails_with_nan_quotients():
    # a NaN slope gets around the constructor only by replace; every
    # quotient is NaN, and the residual failures fold into one entry
    hf = dataclasses.replace(
        ok.diagonal_affine_field([1.0], [[0.5]], c=2.0, b=0.5, span=[0.4]),
        slopes=np.array([[np.nan]]))
    probes = np.linspace(0.0, 2.0, 50)
    rep = ok.validate_field(hf, probes)
    assert not rep.passed
    assert np.isnan(rep.lipschitz_H) and np.isnan(rep.lipschitz_inverse)
    resid = [f for f in rep.failures if f.startswith("inverse residual")]
    assert resid == ["inverse residual nan at probe [0.], first of 50 probes"]
    assert any(f.startswith("Lipschitz quotient nan") for f in rep.failures)


@pytest.mark.parametrize("build, message", [
    (lambda: ok.constant_field([[1.0]], c=1.0, b=np.nan), "b must be"),
    (lambda: ok.constant_field([[1.0]], c=1.0, b=-1.0), "b must be"),
    (lambda: ok.constant_field([[1.0]], c=np.inf), "c must be"),
    (lambda: ok.constant_field([[np.nan]], c=1.0), "matrix must be"),
    (lambda: ok.diagonal_affine_field([1.0], [[np.nan]], c=2.0, b=0.5),
     "slopes must be"),
    (lambda: ok.diagonal_affine_field([1.0], [[0.5]], c=2.0, b=0.5,
                                      span=[np.nan]), "span must be"),
    (lambda: ok.rotation_blend_field(np.eye(2), np.eye(2), [1.0, 0.0],
                                     np.inf, c=2.0, b=1.0), "w_offset must"),
])
def test_constructors_reject_bad_constants(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_constant_float_form_matches_the_array_point():
    # the substep kernel reads H of a 1-D point through this float form:
    # a Python float with the bits of the array point's one entry
    for m in (2.0, 0.5, 1.0):
        at = ok.make_field_eval(ok.constant_field([[m]], c=2.0))
        for x in (0.0, -0.0, 0.3, -1e-300, 1e300, np.inf, -np.inf, np.nan):
            got = at.float_form(x)
            assert type(got) is float
            assert np.float64(got).tobytes() == at(np.array([x]))[0, 0]\
                .tobytes()
    # every other field keeps the kernel's array point path
    for hf in (ok.constant_field(np.eye(2), c=1.0),
               ok.diagonal_affine_field([1.0], [[0.3]], c=2.0, b=0.5,
                                        span=[0.4]),
               ok.rotation_blend_field([[1.0]], [[2.0]], [1.0], 0.0, c=2.0,
                                       b=1.1)):
        assert not hasattr(ok.make_field_eval(hf), "float_form")


def same_bits(a, b) -> bool:
    # equal float bits, a NaN matching any NaN (payloads are not compared)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return a.shape == b.shape and np.array_equal(nan, np.isnan(b)) and \
        a[~nan].tobytes() == b[~nan].tobytes()


def test_diagonal_blend_float_form_matches_the_array_point():
    # the substep kernel reads H of a 2-D point through this float form
    # when m0 and m1 are diagonal and w_direction has one nonzero entry:
    # the diagonal of the array point's H as a 2-tuple of Python floats,
    # whose off-diagonal entries are zeros (NaN with a NaN weight)
    rng = np.random.default_rng(2027)
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300,
                     np.inf, -np.inf, np.nan, 0.5, 1.0])
    bad, checked = [], 0
    for case in range(24):
        m0, m1 = (np.diag(rng.uniform(0.5, 2.0, 2)) for _ in range(2))
        wd = np.zeros(2)
        if case % 6:  # one weight of random sign and scale, or none
            wd[case % 2] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)
        if case % 4 == 3:
            wd[1 - case % 2] = -0.0
        wo = float(rng.choice([0.0, rng.normal(0.0, 1.0)]))
        at = ok.make_field_eval(ok.rotation_blend_field(
            m0, m1, wd, wo, c=2.0, b=1.0))
        pts = rng.normal(0.0, 1.0, (300, 2)) / np.where(wd != 0.0, wd, 1.0)
        pick = rng.random(pts.shape) < 0.3
        pts[pick] = rng.choice(pool, pick.sum())
        for x in map(tuple, pts.tolist()):
            with np.errstate(invalid="ignore", over="ignore"):
                want = at(np.array(x))
            got = at.float_form(x)
            checked += 1
            zero = want[[0, 1], [1, 0]]
            if type(got) is not tuple or \
                    not all(type(v) is float for v in got) or \
                    not same_bits(got, np.diag(want)) or \
                    not (np.all(zero == 0.0) or np.isnan(got).all()):
                bad.append((case, x, got, want))
    assert bad == [] and checked == 24 * 300


def test_only_diagonal_one_weight_blends_of_d2_get_float_forms():
    diag = np.diag([2.0, 0.5])
    assert hasattr(ok.make_field_eval(ok.rotation_blend_field(
        np.eye(2), diag, [0.0, -3.0], 0.2, c=2.0, b=1.0)), "float_form")
    for hf in (ok.rotation_blend_field(np.eye(2), [[1.5, 0.2], [0.2, 1.0]],
                                       [1.0, 0.0], 0.0, c=2.0, b=1.0),
               ok.rotation_blend_field(np.eye(2), diag, [0.6, 0.8], 0.1,
                                       c=2.0, b=5.1),
               ok.rotation_blend_field(np.eye(3), np.diag([2.0, 0.5, 1.0]),
                                       [1.0, 0.0, 0.0], 0.0, c=2.0, b=5.1),
               ok.diagonal_affine_field([1.0, 1.0], np.zeros((2, 2)),
                                        c=2.0, b=0.5),
               ok.constant_field(np.diag([2.0, 0.5]), c=2.0)):
        assert not hasattr(ok.make_field_eval(hf), "float_form")
