"""Scenario loader tests: input kinds, set and diffusion declarations, the
tolerances a stochastic scenario may set, and the validation report."""

import dataclasses
import glob
import json
import os
import re

import numpy as np
import pytest

import oblique_skorohod as ok
from oblique_skorohod import cli
from oblique_skorohod.scenario import (ScenarioError, build_scenario,
                                       load_scenario, validation_report)

SCEN = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
HALFLINE = os.path.join(SCEN, "halfline-ramp.json")
BOX = os.path.join(SCEN, "box-rotation.json")
SVI = os.path.join(SCEN, "halfline-svi.json")

# halfline-ramp's grid: dt = 1e-3 over [0, 1]
N_CELLS, DT = 1000, 0.001


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def ramp_rows(n=N_CELLS, dt=DT):
    """The halfline-ramp input m(t) = -t as (time, value) rows."""
    t = dt * np.arange(n + 1)
    return np.column_stack([t, -t])


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(repr(float(v)) for v in r)
                                  for r in rows]
    path.write_text("\n".join(lines) + "\n")


class TestInputKinds:
    def test_samples_match_the_ramp(self):
        ramp = load_scenario(HALFLINE)
        raw = read_json(HALFLINE)
        raw["m"] = {"kind": "samples", "dt": DT,
                    "values": ramp_rows()[:, 1].tolist()}
        sc = build_scenario(raw)
        np.testing.assert_array_equal(sc.m.values, ramp.m.values)

    @pytest.mark.parametrize("m, message", [
        ({"kind": "samples", "dt": 0.002, "values": [0.0, 1.0]},
         "samples dt"),
        ({"kind": "samples", "dt": DT, "values": [0.0, 1.0]},
         "samples must be 1001 x 1"),
        ({"kind": "samples", "dt": DT,
          "values": (1.0 + ramp_rows()[:, 1]).tolist()}, "m(0) must be 0")])
    def test_bad_samples(self, m, message):
        raw = read_json(HALFLINE)
        raw["m"] = m
        with pytest.raises(ScenarioError, match=re.escape(message)):
            build_scenario(raw)

    def test_csv_path_is_relative_to_the_scenario(self, tmp_path):
        ramp = load_scenario(HALFLINE)
        (tmp_path / "inputs").mkdir()
        write_csv(tmp_path / "inputs" / "ramp.csv", ["t", "m_1"], ramp_rows())
        raw = read_json(HALFLINE)
        raw["m"] = {"kind": "csv", "path": os.path.join("inputs", "ramp.csv")}
        path = write_json(tmp_path / "csv-ramp.json", raw)
        # read from the scenario's folder, not the working directory
        sc = load_scenario(path)
        np.testing.assert_array_equal(sc.m.values, ramp.m.values)

    @pytest.mark.parametrize("header, rows, message", [
        (["time", "m_1"], ramp_rows(), "header starting with 't'"),
        (["t", "m_1"], ramp_rows()[:-1], "expected 1001 rows x 2 cols"),
        (["t", "m_1", "m_2"], np.column_stack([ramp_rows(), ramp_rows()[:, 1]]),
         "expected 1001 rows x 2 cols"),
        (["t", "m_1"], ramp_rows(dt=0.0011)[:N_CELLS + 1],
         "time column must be 0, dt, 2dt"),
        (["t", "m_1"], ramp_rows() + [DT, 0.0],
         "time column must be 0, dt, 2dt")])
    def test_bad_csv(self, tmp_path, capsys, header, rows, message):
        write_csv(tmp_path / "m.csv", header, rows)
        raw = read_json(HALFLINE)
        raw["m"] = {"kind": "csv", "path": "m.csv"}
        path = write_json(tmp_path / "bad-csv.json", raw)
        with pytest.raises(ScenarioError, match=message):
            load_scenario(path)
        out = tmp_path / "out"
        assert cli.main(["solve-det", path, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ScenarioError"
        assert not out.exists()


class TestDeclarations:
    def test_ball_set(self, tmp_path):
        raw = read_json(BOX)
        raw["name"] = "disc"
        raw["phi"] = {"kind": "indicator", "r0": 0.2,
                      "set": {"kind": "ball", "center": [0.5, 0.5],
                              "radius": 0.5}}
        sc = build_scenario(raw)
        assert sc.phi.domain.kind == "ball" and sc.phi.domain.radius == 0.5
        # h0 of a ball is r0 itself, found without a declaration
        assert sc.phi.h0 == 0.2
        path = write_json(tmp_path / "disc.json", raw)
        assert cli.main(["validate", path, "--out", str(tmp_path),
                         "--quiet"]) == 0

    def test_whole_space(self):
        raw = read_json(HALFLINE)
        raw["phi"]["set"] = {"kind": "halfspace_intersection", "normals": []}
        raw["phi"].pop("h0")
        sc = build_scenario(raw)
        assert sc.phi.domain.normals.shape == (0, 1)
        assert sc.phi.h0 == 0.0
        assert validation_report(sc)["status"] == "pass"

    @pytest.mark.parametrize("radius", [0.0, "wide"])
    def test_bad_ball(self, radius):
        raw = read_json(BOX)
        raw["phi"]["set"] = {"kind": "ball", "center": [0.5, 0.5],
                             "radius": radius}
        with pytest.raises(ScenarioError, match="bad set declaration"):
            build_scenario(raw)

    def test_zero_diffusion(self):
        raw = read_json(SVI)
        raw["g"] = {"kind": "zero", "noise_dims": 1}
        sc = build_scenario(raw)
        assert sc.g.is_zero() and sc.g.noise_dim == 1
        names = [c["name"] for c in validation_report(sc)["checks"]]
        assert "diffusion_bound" not in names and "drift_bound" in names

    def test_affine_in_x_diffusion(self, tmp_path):
        raw = read_json(SVI)
        raw["g"] = {"kind": "affine_in_x", "base": [[0.2]],
                    "gains": [[[0.1]]], "gsharp": 0.4}
        sc = build_scenario(raw)
        assert sc.g.kind == "affine_in_x" and sc.g.gsharp == 0.4
        rep = validation_report(sc)
        assert rep["status"] == "pass"
        assert "diffusion_bound" in [c["name"] for c in rep["checks"]]
        path = write_json(tmp_path / "affine-g.json", raw)
        assert cli.main(["solve-svi", path, "--out", str(tmp_path),
                         "--paths", "4", "--quiet"]) == 0
        ens = read_json(tmp_path / "halfline-svi-ensemble.json")["ensemble"]
        assert ens["n_ok"] == 4

    @pytest.mark.parametrize("g, message", [
        ({"kind": "affine_in_x", "base": [[0.2]], "gains": [[[0.1]]],
          "gsharp": 0.0}, "gsharp must be positive"),
        ({"kind": "affine_in_x", "base": [[0.2]], "gains": [[0.1]],
          "gsharp": 0.4}, "gains must be"),
        ({"kind": "constant", "matrix": [[0.3, 0.1]]},
         "g noise columns must match")])
    def test_bad_diffusion(self, g, message):
        raw = read_json(SVI)
        raw["g"] = g
        with pytest.raises(ScenarioError, match=message):
            build_scenario(raw)


class TestValidateReport:
    @pytest.mark.parametrize("path", [BOX, SVI])
    def test_coefficient_bounds_pass(self, tmp_path, capsys, path):
        code = cli.main(["validate", path, "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[ok] drift_bound" in out
        assert ("[ok] diffusion_bound" in out) == (path == SVI)

    def test_understated_fsharp_fails(self, tmp_path, capsys):
        # |A x + b| exceeds 0.5 almost everywhere on the unit box
        raw = read_json(BOX)
        raw["f"] = {"kind": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]],
                    "vector": [0.0, 0.5], "fsharp": 0.5}
        path = write_json(tmp_path / "box-fsharp.json", raw)
        assert cli.main(["validate", path, "--out", str(tmp_path)]) == 1
        assert "[FAIL] drift_bound" in capsys.readouterr().out

    def test_understated_gsharp_fails(self, tmp_path, capsys):
        # a constant g's gsharp is its own norm; only a replaced one can lie
        sc = load_scenario(SVI)
        sc.g = dataclasses.replace(sc.g, gsharp=0.1)
        failed = [c["name"] for c in validation_report(sc)["checks"]
                  if not c["passed"]]
        assert failed == ["diffusion_bound"]


class TestStochasticTolerances:
    @pytest.mark.parametrize("key, value", [("tol", 0.01), ("eps0", 0.05),
                                            ("max_halvings", 3)])
    def test_ladder_keys_are_rejected(self, tmp_path, capsys, key, value):
        raw = read_json(SVI)
        raw["tolerances"] = {key: value}
        with pytest.raises(ScenarioError, match=f"tolerances.{key} "):
            build_scenario(raw)
        path = write_json(tmp_path / "svi-ladder.json", raw)
        out = tmp_path / "out"
        assert cli.main(["solve-svi", path, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ScenarioError"
        assert key in err["error"]["message"]
        assert not out.exists()


@pytest.mark.parametrize("path, entry, message", [
    (HALFLINE, {"horizon": 1.0005}, "horizon must be a positive grid "
                                    "multiple of dt"),
    (HALFLINE, {"horizon": 0.0}, "horizon must be a positive grid "
                                 "multiple of dt"),
    # an infinite horizon used to escape as an OverflowError
    (HALFLINE, {"horizon": float("inf")}, "horizon must be a positive grid "
                                          "multiple of dt"),
    (HALFLINE, {"horizon": float("nan")}, "horizon must be a positive grid "
                                          "multiple of dt"),
    (SVI, {"n_delay": 3}, "window 1/n = 0.3333333333333333 is not a grid "
                          "multiple of dt = 0.001953125")])
def test_widths_off_the_grid(path, entry, message):
    raw = read_json(path)
    raw.update(entry)
    with pytest.raises(ScenarioError, match=re.escape(message)):
        build_scenario(raw)


def _edit(path, **entries):
    """The raw scenario at path with the given top-level entries replaced
    (None removes one)."""
    raw = read_json(path)
    for key, value in entries.items():
        if value is None:
            raw.pop(key, None)
        else:
            raw[key] = value
    return raw


@pytest.mark.parametrize("raw, message", [
    ([], "scenario must be a JSON object"),
    (_edit(HALFLINE, dimension=9), "dimension must be in 1..8"),
    (_edit(HALFLINE, dt=-0.001), "dt must be positive"),
    (_edit(HALFLINE, x0=[0.0, 0.0]),
     "bad x0 declaration: x0 [0. 0.] has dimension 2, the domain 1"),
    (_edit(HALFLINE, H={"kind": "spiral", "c": 2.0}), "unknown field kind"),
    (_edit(HALFLINE, m={"kind": "noise"}), "unknown input kind"),
    (_edit(HALFLINE, m={"kind": "sinusoid", "amplitude": [1.0],
                        "period": 0.0}), "sinusoid period must be positive"),
    (_edit(HALFLINE, tolerances={"eps0": -1.0}), "bad eps0"),
    (_edit(HALFLINE, u0=[1.0, 2.0]),
     "bad u0 declaration: u0 [1. 2.] has dimension 2, the domain 1"),
    (_edit(HALFLINE, u0=[-1.0]),
     "bad u0 declaration: u0 [-1.] is outside the domain"),
    (_edit(HALFLINE, test_points=[[0.5], [-1.0]]),
     "bad test_points declaration: test point [-1.] is outside the "
     "domain"),
    (_edit(SVI, m={"kind": "zero"}), "declare exactly one of"),
    (_edit(SVI, brownian={"seed": 1, "dt": 0.001}),
     "brownian dt must match the scenario dt"),
    (_edit(SVI, n_delay=None), "stochastic scenarios need n_delay"),
    (_edit(SVI, n_delay=0), "n_delay must be >= 1"),
    (_edit(SVI, g=None), "stochastic scenarios need a diffusion g"),
    # top-level fields that used to escape as TypeError or OverflowError
    (_edit(HALFLINE, dimension=[1]), "bad dimension declaration"),
    (_edit(HALFLINE, dt="fine"), "bad dt declaration"),
    (_edit(HALFLINE, horizon=[1.0]), "bad horizon declaration"),
    (_edit(HALFLINE, tolerances={"max_halvings": 1e400}),
     "bad tolerances declaration"),
    (_edit(HALFLINE, tolerances={"tol": [0.01]}),
     "bad tolerances declaration"),
    (_edit(HALFLINE, tolerances=[0.01]), "bad tolerances declaration"),
    (_edit(HALFLINE, tolerances={"substep_ratio": 1}),
     "bad tolerances declaration: substep_ratio must be an integer >= 2"),
    (_edit(HALFLINE, tolerances={"guard_radius": -1.0}),
     "bad tolerances declaration: guard_radius must be positive"),
    (_edit(HALFLINE, tolerances={"guard_radius": float("nan")}),
     "bad tolerances declaration: guard_radius must be positive"),
    (_edit(SVI, brownian={"seed": [1]}), "bad brownian declaration"),
    (_edit(SVI, brownian={"seed": 1, "dims": 1e400}),
     "bad brownian declaration"),
    (_edit(SVI, brownian=7), "bad brownian declaration"),
    (_edit(SVI, n_delay="eight"), "bad brownian declaration"),
    # rules that only a solve applied, so validate passed them
    (_edit(HALFLINE, tolerances={"max_halvings": -1}),
     "bad tolerances declaration: max_halvings must be >= 0"),
    (_edit(SVI, brownian={"seed": -1}),
     "bad brownian declaration: seed must fit in 64 bits"),
    # counts that int() used to truncate or parse
    (_edit(HALFLINE, tolerances={"max_halvings": 2.5}),
     "bad tolerances declaration: max_halvings must be an integer"),
    (_edit(HALFLINE, tolerances={"substep_ratio": "12"}),
     "bad tolerances declaration: substep_ratio must be an integer"),
    (_edit(HALFLINE, tolerances={"substep_ratio": True}),
     "bad tolerances declaration: substep_ratio must be an integer"),
    (_edit(HALFLINE, dimension=1.5),
     "bad dimension declaration: dimension must be an integer"),
    (_edit(SVI, brownian={"seed": 42.5}),
     "bad brownian declaration: seed must be an integer"),
    (_edit(SVI, brownian={"seed": "42"}),
     "bad brownian declaration: seed must be an integer"),
    (_edit(SVI, brownian={"seed": 42, "dims": 1.5}),
     "bad brownian declaration: dims must be an integer"),
    (_edit(SVI, n_delay=8.5),
     "bad brownian declaration: n_delay must be an integer"),
    (_edit(SVI, n_delay=False),
     "bad brownian declaration: n_delay must be an integer"),
    (_edit(SVI, g={"kind": "zero", "noise_dims": 1.5}),
     "bad diffusion declaration: noise_dims must be an integer"),
    # coefficients of another width, which a solve used to broadcast
    (_edit(BOX, f={"kind": "constant", "vector": [0.3]}),
     "drift dimension 1 != scenario dimension 2"),
    (_edit(BOX, f={"kind": "affine", "matrix": [[0.5]], "vector": [0.1]}),
     "drift dimension 1 != scenario dimension 2"),
    (_edit(SVI, g={"kind": "constant", "matrix": [[0.3], [0.1]]}),
     "diffusion dimension 2 != scenario dimension 1"),
    # blocks that used to end in a TypeError traceback
    (_edit(HALFLINE, m=5), "bad m declaration"),
    (_edit(HALFLINE, test_points=5), "bad test_points declaration")])
def test_bad_scenarios(raw, message):
    with pytest.raises(ScenarioError, match=re.escape(message)):
        build_scenario(raw)


@pytest.mark.parametrize("u0, outside", [(-5e-8, True), (-5e-10, False)])
def test_a_declared_point_gets_one_verdict_at_load_and_in_the_ensemble(
        u0, outside):
    # the loader and monte_carlo's set-up apply one membership rule (within
    # contains' 1e-9): the set-up's 1e-7 used to accept u0 = -5e-8, which
    # the loader rejected
    sc = load_scenario(SVI)
    p = ok.SviProblem(phi=sc.phi, hf=sc.hf, f=sc.f, g=sc.g, x0=sc.x0,
                      dt=sc.dt, horizon=sc.horizon, n=sc.n_window,
                      u0=np.array([u0]))
    raw = _edit(SVI, u0=[u0])
    if outside:
        message = f"u0 {np.array([u0])} is outside the domain"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            build_scenario(raw)
        with pytest.raises(ValueError, match=re.escape(message)):
            ok.monte_carlo(p, 2, 42)
    else:
        assert build_scenario(raw).u0[0] == u0
        assert ok.monte_carlo(p, 2, 42)["n_ok"] == 2


@pytest.mark.parametrize("key", ["m", "test_points"])
def test_malformed_block_is_one_json_error(tmp_path, capsys, key):
    path = write_json(tmp_path / "bad-block.json", _edit(HALFLINE, **{key: 5}))
    out = tmp_path / "out"
    assert cli.main(["validate", path, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ScenarioError"
    assert err["error"]["message"].startswith(f"bad {key} declaration: ")
    assert not out.exists()


def test_snapped_eps0_is_the_first_level(tmp_path):
    # an eps0 above the horizon starts the ladder at the horizon, and the
    # echo says so
    raw = _edit(HALFLINE, tolerances={"eps0": 5.0, "tol": 0.0,
                                      "max_halvings": 0})
    path = write_json(tmp_path / "wide-eps0.json", raw)
    assert cli.main(["solve-det", path, "--out", str(tmp_path),
                     "--quiet"]) == 0
    summary = read_json(tmp_path / "halfline-ramp-summary.json")
    first = summary["solution"]["refinement_history"][0][0]
    assert summary["snapped"]["eps0"] == first == 1.0


@pytest.mark.parametrize("path", sorted(
    glob.glob(os.path.join(SCEN, "*.json"))
    + glob.glob(os.path.join(SCEN, os.pardir, "bench", "scenarios",
                             "*.json"))), ids=os.path.basename)
def test_every_shipped_and_benchmark_scenario_validates(tmp_path, path):
    assert cli.main(["validate", path, "--out", str(tmp_path),
                     "--quiet"]) == 0
    report, = [read_json(p) for p in tmp_path.iterdir()]
    assert report["status"] == "pass"
