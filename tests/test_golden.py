"""Golden hashes of the substep mesh: any bit change in the sweep fails here.

The SHA-256 digests of x_quad and k_quad were recorded from the two
separate substep loops that the shared kernel replaced; the kernel must
reproduce them bit for bit.  The digests of the window input M and of the
two polytope entries were recorded from the per-cell builder of M and the
per-substep delayed drift that the block-causal step replaced.  The two
other closure-kind entries (affine on a box, a ball with a diagonal_affine
field) were recorded from the two per-kind resolvent and field
implementations that the single point-or-stack closures replaced.  The
three quadratic entries (on a box, on one face and on the whole space) were
re-recorded from the exact prox, a projection in the metric I/eps + A, once
it matched the enumeration reference in test_convex; they moved by at most
3.4e-14 in x_quad and 3.7e-14 in k_quad.  The quadratic on a box was
re-recorded once more when its prox became a closed-form active set in
the original coordinates (boxqp) in place of the projection in the metric
K = I/eps + A: it moved by at most 4.1e-15 in x_quad and 3.7e-15 in
k_quad.  The ensemble digests were recorded from the Monte Carlo loop that
ran one path at a time.  The simplex3 entry was recorded once its points
swept on 3-tuples of floats, every product of a normal with a state and of
H(x) with g summed in code order, where they were ndarray.dot: that moved
the level by at most 4.4e-16 in x_quad and 7.2e-16 in k_quad.
"""

import hashlib
import os

import numpy as np
import pytest

import oblique_skorohod as ok

SCEN = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def _digest(a) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


def _box_rotation_level():
    # fifth ladder level of box-rotation: drift, rotation-blend field,
    # three substeps per cell
    sc = ok.load_scenario(os.path.join(SCEN, "box-rotation.json"))
    eps = 0.007
    cfg = ok.PenalizedConfig(eps=eps, substep_ratio=sc.substep_ratio,
                             guard_radius=sc.guard_radius)
    return ok.solve_penalized(sc.phi, sc.hf, sc.f, ok.mollify(sc.m, eps),
                              sc.x0, cfg)


def _simplex3_level():
    # fourth ladder level of the benchmark's simplex3: a constant drift and
    # field on an acute 3-D simplex, two substeps per cell
    sc = ok.load_scenario(os.path.join(SCEN, os.pardir, "bench", "scenarios",
                                       "simplex3.json"))
    eps = 0.013
    cfg = ok.PenalizedConfig(eps=eps, substep_ratio=sc.substep_ratio,
                             guard_radius=sc.guard_radius)
    return ok.solve_penalized(sc.phi, sc.hf, sc.f, ok.mollify(sc.m, eps),
                              sc.x0, cfg)


def _halfline_svi(cfg_cells=None):
    # seed 42: drift and noise; cfg_cells sets eps in grid cells, which
    # gives several substeps per cell
    sc = ok.load_scenario(os.path.join(SCEN, "halfline-svi.json"))
    drv = ok.BrownianDriver(seed=42, dt=sc.dt, dims=sc.noise_dims,
                            horizon=sc.horizon)
    cfg = None if cfg_cells is None else ok.PenalizedConfig(
        eps=cfg_cells * sc.dt)
    return ok.solve_svi_path(sc.phi, sc.hf, sc.f, sc.g, sc.x0, drv,
                             sc.n_window, cfg)


def _triangle_phi():
    tri = ok.halfspace_intersection([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                                    [0.0, 0.0, 1.5])
    return ok.indicator(tri, r0=0.1, h0=0.3)


def _polytope_affine_svi():
    # 2-D path on a triangle: affine drift, affine-in-x diffusion against
    # 2-D noise whose Frobenius clamp acts at about half the grid nodes
    hf = ok.constant_field([[1.5, 0.2], [0.2, 1.0]], c=2.0)
    f = ok.affine_drift([[-0.6, 0.3], [0.1, -0.4]], [-0.5, -0.8], fsharp=2.0)
    gains = np.array([[[0.6, -0.2], [0.3, 0.5]], [[-0.4, 0.7], [0.2, -0.3]]])
    g = ok.affine_diffusion([[0.4, 0.1], [-0.2, 0.5]], gains, gsharp=0.8)
    drv = ok.BrownianDriver(seed=7, dt=1.0 / 256.0, dims=2, horizon=1.0)
    return ok.solve_svi_path(_triangle_phi(), hf, f, g, [0.3, 0.4], drv, 16)


def _penalized_time_modulated():
    # one level on the triangle with a sinusoid-modulated affine drift,
    # four substeps per cell
    hf = ok.constant_field([[1.5, 0.2], [0.2, 1.0]], c=2.0)
    prof = ok.TimeProfile(kind="sinusoid", amplitude=1.3, period=0.7,
                          phase=0.4)
    f = ok.time_modulated_drift([[-0.6, 0.3], [0.1, -0.4]], [-0.5, -0.8],
                                prof, horizon=1.0, fsharp=3.0)
    dt = 0.002
    t = dt * np.arange(501)
    m = ok.SampledPath(t0=0.0, dt=dt, values=np.stack(
        [0.6 * np.sin(5.0 * t), -0.9 * t], axis=1), extension="zero")
    eps = 0.01
    return ok.solve_penalized(_triangle_phi(), hf, f, ok.mollify(m, eps),
                              [0.3, 0.4], ok.PenalizedConfig(eps=eps))


def _closure_level(phi, hf=None, x0=(0.5, 0.5)):
    # one level, eps = 0.01, two substeps per cell, on a 2-D sinusoid-plus-
    # ramp input that drives the state across the constraint
    dt = 0.001
    t = dt * np.arange(1001)
    m = ok.SampledPath(t0=0.0, dt=dt, values=np.stack(
        [1.4 * np.sin(6.0 * t) - 0.8 * t, 1.2 * np.cos(4.0 * t) - 1.1 * t],
        axis=1), extension="zero")
    if hf is None:
        hf = ok.constant_field([[1.5, 0.2], [0.2, 1.0]], c=2.0)
    eps = 0.01
    return ok.solve_penalized(phi, hf, ok.zero_drift(2), ok.mollify(m, eps),
                              x0, ok.PenalizedConfig(eps=eps))


A2 = [[2.0, 0.7], [0.7, 1.0]]
UNIT_BOX = ok.box([0.0, 0.0], [1.0, 1.0])
HALF = ok.halfspace_intersection([[-1.0, -1.0]], [0.0])

CLOSURE_KINDS = {
    # the closed-form active set on the box, the projection in the metric
    # I/eps + A on one face
    "quad-box-nondiagonal": lambda: _closure_level(
        ok.quadratic_plus_indicator(A2, [0.4, -0.3], UNIT_BOX, r0=0.1)),
    "quad-one-face": lambda: _closure_level(
        ok.quadratic_plus_indicator(A2, [0.4, -0.3], HALF, r0=0.2, h0=0.2)),
    "quad-whole-space": lambda: _closure_level(
        ok.quadratic_plus_indicator(A2, [0.4, -0.3], ok.whole_space(2),
                                    r0=1.0)),
    "affine-box": lambda: _closure_level(
        ok.lipschitz_affine_plus_indicator([0.5, -0.25], 0.1, UNIT_BOX,
                                           r0=0.1)),
    "ball-diagonal-affine": lambda: _closure_level(
        ok.indicator(ok.ball([0.0, 0.0], 1.0), r0=0.3),
        ok.diagonal_affine_field([1.0, 1.0], [[0.3, 0.1], [0.1, 0.3]],
                                 c=2.0, b=0.5, span=[0.4, 0.4]),
        x0=(0.3, -0.3)),
}


# name -> (solve, substeps per cell, x_quad, k_quad, input_m.values or None)
GOLDEN = {
    "box-rotation-eps0.007": (
        _box_rotation_level, 3,
        "789e32b5d6076fd1c12849d13949f8b0ef29ca820475869951f6daa1a88f2bae",
        "300bace1627ee03f514ef873433a2546ef3051f0ab30c1d7b08870b7a444a648",
        None),
    "halfline-svi-seed42": (
        _halfline_svi, 1,
        "b7b5dad284fe303a027d5a1ff51e22476b352f491ae7e5e2c2619648fc534595",
        "3b453cefd13f1adec0ab7424f16b44329a0890789681c060728cca25f732baf5",
        "4727ea6ca33242093cddba270308bc14df52c2822ced8b95535689ef6b9cdc05"),
    "halfline-svi-seed42-eps4dt": (
        lambda: _halfline_svi(cfg_cells=4), 5,
        "c90eb17f4f8e91260e6f2dfc68f4151ec8a09e8b3102c381df263be4c0f27d81",
        "c2df24a8f10df239b63c20708b7961a56ff5c4a13b7f9dc6ca7de487f794b68c",
        None),
    "polytope-affine-svi-seed7": (
        _polytope_affine_svi, 2,
        "7e76c924232c0dd561deeccd6f7f6f24a7f565bd6be1c4671bf66e550ec01793",
        "0163629db394d3d031010e54bcacc046c402d112dabbb499cfddfb363f626219",
        "493d068a5e4b6f2e3e4fd64594f8476121ee5e2be8c6e417c3794edbefe7926c"),
    "polytope-time-modulated-eps0.01": (
        _penalized_time_modulated, 4,
        "f7a085bad5119a72ae7daecabbf02ab34aa5ab43078ebc9ec9410f9990fa2d6d",
        "d5f741b59923e9fecb148c6c89d4acde6e6d29455ef7b5a7bccf3a45f569a422",
        None),
    "quad-box-nondiagonal-eps0.01": (
        CLOSURE_KINDS["quad-box-nondiagonal"], 2,
        "273ccee14af1820a48b595725f183dff25dd36b011bc31ff6af4ed553f29a645",
        "daa1953bd83fa250681bd197fa429a711057a815b2d4973ed4d21998db7b2ce3",
        None),
    "quad-one-face-eps0.01": (
        CLOSURE_KINDS["quad-one-face"], 2,
        "7989ddaf28b901b40ad3d51685333c7efaa2b259ed611d54c015f589cd5a0963",
        "09e54d1270b9dabba3ffe5298cdc4901774d87b8fcb66c3607a547d3295d6afb",
        None),
    "quad-whole-space-eps0.01": (
        CLOSURE_KINDS["quad-whole-space"], 2,
        "c47cc36aa628d66cc637d5ac9c6415252f13c37369b55cf0b2e9bf09fba95995",
        "71cca2abb9f1e05b248105b56e4e66cf199c9f4589fd4e33801a3ffb2525e683",
        None),
    "affine-box-eps0.01": (
        CLOSURE_KINDS["affine-box"], 2,
        "42ed0d62f1d58031663ba4565fed59851e45632790d1646d215bf317ef047869",
        "12926ce8b674b10d0e8ca2d250e1e02ba9a5245a9daea4eaeaa1d448aad4346e",
        None),
    "simplex3-eps0.013": (
        _simplex3_level, 2,
        "1ba6f098657237993750b15de0593f4ea92f0374d9041bb7f077435ee5cf586d",
        "93e15cf45edbef75607821bd1f6314faab251fc7abea40db4e402d1e51f33702",
        None),
    "ball-diagonal-affine-eps0.01": (
        CLOSURE_KINDS["ball-diagonal-affine"], 2,
        "8558489e0916a2c437f365f043e6de6a7bc3e7716b729f2d1ee841a274b9db22",
        "31a1b2f849968f20bace052c6bb783508e409c872a0156dd87f3985a8e8d85f9",
        None),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_substep_mesh_is_bit_identical(name):
    solve, n_sub, x_hash, k_hash, m_hash = GOLDEN[name]
    sol = solve()
    assert sol.diagnostics["n_substeps_per_cell"] == n_sub
    assert _digest(sol.x_quad) == x_hash
    assert _digest(sol.k_quad) == k_hash
    if m_hash is not None:
        assert _digest(sol.input_m.values) == m_hash


# digests of mean_x and var_x of monte_carlo on halfline-svi, 256 paths
# from base seed 42, recorded from the one-path-at-a-time loop that the
# chunked sweep replaced
ENSEMBLE_GOLDEN = (
    "4589941aae5c2deeea78d75eff81d609b4ab57edf3ecb9a3f2b0f03bf7017c96",
    "1c9f3aafd0e40233ed4672a3425de1e4b8fad7ebf887747a364162d981391da3")


def test_ensemble_moments_are_bit_identical():
    sc = ok.load_scenario(os.path.join(SCEN, "halfline-svi.json"))
    problem = ok.SviProblem(phi=sc.phi, hf=sc.hf, f=sc.f, g=sc.g, x0=sc.x0,
                            dt=sc.dt, horizon=sc.horizon, n=sc.n_window,
                            u0=sc.u0, test_points=tuple(sc.test_points))
    out = ok.monte_carlo(problem, 256, 42)
    assert out["n_ok"] == 256
    assert (_digest(out["mean_x"]), _digest(out["var_x"])) == ENSEMBLE_GOLDEN
