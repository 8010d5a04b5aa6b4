"""Golden hashes of the substep mesh: any bit change in the sweep fails here.

The SHA-256 digests of x_quad and k_quad were recorded from the two
separate substep loops that the shared kernel replaced; the kernel must
reproduce them bit for bit.
"""

import hashlib
import os

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


GOLDEN = {
    "box-rotation-eps0.007": (
        _box_rotation_level, 3,
        "789e32b5d6076fd1c12849d13949f8b0ef29ca820475869951f6daa1a88f2bae",
        "300bace1627ee03f514ef873433a2546ef3051f0ab30c1d7b08870b7a444a648"),
    "halfline-svi-seed42": (
        _halfline_svi, 1,
        "b7b5dad284fe303a027d5a1ff51e22476b352f491ae7e5e2c2619648fc534595",
        "3b453cefd13f1adec0ab7424f16b44329a0890789681c060728cca25f732baf5"),
    "halfline-svi-seed42-eps4dt": (
        lambda: _halfline_svi(cfg_cells=4), 5,
        "c90eb17f4f8e91260e6f2dfc68f4151ec8a09e8b3102c381df263be4c0f27d81",
        "c2df24a8f10df239b63c20708b7961a56ff5c4a13b7f9dc6ca7de487f794b68c"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_substep_mesh_is_bit_identical(name):
    solve, n_sub, x_hash, k_hash = GOLDEN[name]
    sol = solve()
    assert sol.diagnostics["n_substeps_per_cell"] == n_sub
    assert _digest(sol.x_quad) == x_hash
    assert _digest(sol.k_quad) == k_hash
