"""Command-line interface tests, run in process against real scenario files."""

import dataclasses
import importlib.util
import json
import os

import numpy as np
import pytest

from oblique_skorohod import cli
from oblique_skorohod.scenario import (ScenarioError, load_scenario,
                                       validation_report)

SCEN = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
HALFLINE = os.path.join(SCEN, "halfline-ramp.json")
BOX = os.path.join(SCEN, "box-rotation.json")
SVI = os.path.join(SCEN, "halfline-svi.json")
SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def flat_pair(tmp_path):
    """Deterministic and zero-noise stochastic versions of one system."""
    base = {
        "dimension": 1, "horizon": 1.0, "dt": 0.001953125, "x0": [0.5],
        "phi": {"kind": "indicator",
                "set": {"kind": "halfspace_intersection",
                        "normals": [[-1.0]], "offsets": [0.0]},
                "r0": 0.5, "h0": 0.5},
        "H": {"kind": "constant", "matrix": [[1.0]], "c": 1.0, "b": 0.0},
        "f": {"kind": "constant", "vector": [-1.0]},
    }
    det = dict(base, name="flat-det", m={"kind": "zero"},
               tolerances={"tol": 0.0, "eps0": 0.125, "max_halvings": 0})
    svi = dict(base, name="flat-svi",
               g={"kind": "constant", "matrix": [[0.0]]},
               brownian={"seed": 42, "dims": 1}, n_delay=8)
    return (write_json(tmp_path / "flat-det.json", det),
            write_json(tmp_path / "flat-svi.json", svi))


class TestValidate:
    def test_pass(self, tmp_path, capsys):
        code = cli.main(["validate", HALFLINE, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[ok]" in out and "[FAIL]" not in out
        assert "validate: pass" in out
        rep = read_json(tmp_path / "halfline-ramp-validate.json")
        assert rep["status"] == "pass"
        assert all(c["passed"] for c in rep["checks"])

    def test_dishonest_h0_fails(self, tmp_path, capsys):
        bad = {
            "name": "wedge-bad", "dimension": 2, "horizon": 1.0, "dt": 1e-3,
            "x0": [1.0, 1.0],
            "phi": {"kind": "indicator",
                    "set": {"kind": "halfspace_intersection",
                            "normals": [[-1.0, 0.0], [0.0, -1.0]],
                            "offsets": [0.0, 0.0]},
                    "r0": 0.5, "h0": 0.6},
            "H": {"kind": "constant",
                  "matrix": [[1.0, 0.0], [0.0, 1.0]], "c": 1.0, "b": 0.0},
            "m": {"kind": "ramp", "slope": [-1.0, -1.0]},
        }
        path = write_json(tmp_path / "wedge-bad.json", bad)
        code = cli.main(["validate", path, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL] h0_bound" in out
        rep = read_json(tmp_path / "wedge-bad-validate.json")
        assert rep["status"] == "fail"

    @pytest.mark.parametrize("field, failed", [
        ({"b": float("nan")}, {"field_bounds", "geometry_constants"}),
        ({"kind": "diagonal_affine", "base": [1.0],
          "slopes": [[float("nan")]], "offsets": [0.0], "span": [0.4],
          "b": 0.5},
         {"field_bounds"}),
        ({"b": -1.0}, {"field_bounds", "geometry_constants"}),
        ({"b": float("inf")}, {"geometry_constants"})])
    def test_bad_field_constants_fail(self, tmp_path, capsys, field, failed):
        # the field constructors reject such constants, so the scenario
        # fails at load, with no report
        payload = read_json(HALFLINE)
        payload["H"].update(field)
        path = write_json(tmp_path / "bad-field.json", payload)
        code = cli.main(["validate", path, "--out", str(tmp_path)])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"]["type"] == "ScenarioError"
        assert "bad field declaration" in err["error"]["message"]
        assert not (tmp_path / "halfline-ramp-validate.json").exists()
        # a field that gets them around the constructors still fails the
        # report's checks; a NaN compares false both ways, so each check
        # must fail on it
        sc = load_scenario(HALFLINE)
        sc.hf = dataclasses.replace(sc.hf, **{
            k: np.asarray(v, dtype=float) if isinstance(v, list) else v
            for k, v in field.items()})
        rep = validation_report(sc)
        assert rep["status"] == "fail"
        assert {c["name"] for c in rep["checks"] if not c["passed"]} == failed


class TestSolveDet:
    def test_halfline_outputs(self, tmp_path, capsys):
        code = cli.main(["solve-det", HALFLINE, "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "solve-det:" in out
        summary = read_json(tmp_path / "halfline-ramp-summary.json")
        assert summary["mode"] == "solve-det"
        sol = summary["solution"]
        assert abs(sol["tv_k"] - 0.5) < 0.025
        checks = summary["checks"]
        assert checks["vi"]["residual"] <= checks["vi"]["tol_vi"]
        assert checks["activity_bound"]["margin"] > 0.0
        assert checks["apriori"]["tv_ratio"] == pytest.approx(1.0, abs=0.2)
        with open(tmp_path / "halfline-ramp-solution.csv") as fh:
            header = fh.readline().rstrip("\n")
            first = fh.readline().rstrip("\n")
        assert header == "t,x_1,k_1"
        assert first.split(",")[0] == "0.0"

    def test_reruns_are_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert cli.main(["solve-det", HALFLINE, "--out", str(out),
                             "--quiet"]) == 0
        for name in ("halfline-ramp-solution.csv",
                     "halfline-ramp-summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_quiet_silences_stdout(self, tmp_path, capsys):
        code = cli.main(["solve-det", HALFLINE, "--out", str(tmp_path),
                         "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_missing_file_exit_1(self, tmp_path, capsys):
        code = cli.main(["solve-det", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path)])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"]["type"] == "FileNotFoundError"

    def test_invalid_json_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = cli.main(["solve-det", str(bad), "--out", str(tmp_path)])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert "error" in err

    def test_scenario_error_exit_1(self, tmp_path, capsys):
        payload = read_json(HALFLINE)
        payload["x0"] = [-1.0]
        path = write_json(tmp_path / "bad-x0.json", payload)
        code = cli.main(["solve-det", path, "--out", str(tmp_path)])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"]["type"] == "ScenarioError"

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_tol_exit_1(self, tmp_path, capsys, tol):
        code = cli.main(["solve-det", HALFLINE, "--out", str(tmp_path),
                         "--tol", tol])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"]["type"] == "ScenarioError"
        assert "--tol" in err["error"]["message"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_bad_scenario_tol_exit_1(self, tmp_path, capsys, tol):
        payload = read_json(HALFLINE)
        payload["tolerances"]["tol"] = tol
        path = write_json(tmp_path / "bad-tol.json", payload)
        with pytest.raises(ScenarioError, match="tol must be >= 0"):
            load_scenario(path)
        out = tmp_path / "out"
        code = cli.main(["solve-det", path, "--out", str(out)])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"]["type"] == "ScenarioError"
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("phi", [
        {"kind": "quadratic_plus_indicator", "A": [[2.0, 0.5], [0.5, 1.0]],
         "q": [float("nan"), 0.3]},
        {"kind": "lipschitz_affine_plus_indicator", "a": [0.5, 0.25],
         "beta": float("inf")}])
    def test_non_finite_phi_exit_1(self, tmp_path, capsys, phi):
        payload = read_json(BOX)
        payload["phi"].update(phi)
        path = write_json(tmp_path / "bad-phi.json", payload)
        out = tmp_path / "out"
        code = cli.main(["solve-det", path, "--out", str(out)])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"]["type"] == "ScenarioError"
        assert "must be finite" in err["error"]["message"]
        assert not out.exists() or list(out.iterdir()) == []

    def test_declared_lipschitz_l_is_ignored(self, tmp_path):
        # a quadratic on the half-line needs no Lipschitz constant; one that
        # is still declared builds the same phi
        payload = read_json(HALFLINE)
        payload["phi"].update(kind="quadratic_plus_indicator", A=[[1.0]],
                              q=[0.0])
        plain = load_scenario(write_json(tmp_path / "plain.json", payload))
        payload["phi"]["lipschitz_L"] = 5.0
        declared = load_scenario(write_json(tmp_path / "lip.json", payload))
        np.testing.assert_equal(dataclasses.asdict(declared.phi),
                                dataclasses.asdict(plain.phi))

    def test_nan_drift_exit_1(self, tmp_path, capsys):
        # rejected at load, before a NaN state could reach the guard
        payload = read_json(HALFLINE)
        payload["f"] = {"kind": "constant", "vector": [float("nan")]}
        path = write_json(tmp_path / "nan-drift.json", payload)
        out = tmp_path / "out"
        code = cli.main(["solve-det", path, "--out", str(out)])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"]["type"] == "ScenarioError"
        assert "b0 must be finite" in err["error"]["message"]
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("block, entry, message", [
        ("H", {"b": float("nan")}, "b must be finite and >= 0"),
        ("H", {"c": float("inf")}, "c must be finite and >= 1"),
        ("f", {"kind": "affine", "matrix": [[float("inf")]], "vector": [0.0],
               "fsharp": 1.0}, "A must be finite"),
        ("f", {"kind": "affine", "matrix": [[0.0]], "vector": [0.0],
               "fsharp": float("nan")}, "fsharp must be finite and >= 0"),
        ("f", {"kind": "time_modulated", "matrix": [[0.0]], "vector": [1.0],
               "fsharp": 1.0, "profile": {"kind": "ramp",
                                          "slope": float("nan")}},
         "slope must be finite")])
    def test_bad_coefficient_constants_exit_1(self, tmp_path, capsys, block,
                                              entry, message):
        # each used to load: a NaN b ran solve-det to exit 0
        payload = read_json(HALFLINE)
        payload.setdefault(block, {}).update(entry)
        path = write_json(tmp_path / "bad-coeff.json", payload)
        out = tmp_path / "out"
        code = cli.main(["solve-det", path, "--out", str(out)])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"]["type"] == "ScenarioError"
        assert message in err["error"]["message"]
        assert not out.exists() or list(out.iterdir()) == []

    def test_no_convergence_exit_2_with_history(self, tmp_path, capsys):
        code = cli.main(["solve-det", HALFLINE, "--out", str(tmp_path),
                         "--tol", "1e-9"])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"]["type"] == "NoConvergence"
        hist = err["error"]["history"]
        assert len(hist) >= 2 and hist[0][1] is None

    def test_svi_scenario_rejected(self, tmp_path, capsys):
        code = cli.main(["solve-det", SVI, "--out", str(tmp_path)])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert "deterministic" in err["error"]["message"]


class TestConverge:
    def test_full_ladder_rate(self, tmp_path, capsys):
        code = cli.main(["converge", HALFLINE, "--out", str(tmp_path)])
        assert code == 0
        rep = read_json(tmp_path / "halfline-ramp-convergence.json")
        assert len(rep["refinement_history"]) == 8
        assert 0.4 <= rep["rate"]["slope"] <= 1.2
        assert len(rep["tv_k_levels"]) == 8

    def test_explicit_tol_stops_early(self, tmp_path):
        code = cli.main(["converge", HALFLINE, "--out", str(tmp_path),
                         "--tol", "0.005", "--quiet"])
        assert code == 0
        rep = read_json(tmp_path / "halfline-ramp-convergence.json")
        assert len(rep["refinement_history"]) == 5


class TestSolveSvi:
    def test_single_path_summary(self, tmp_path):
        code = cli.main(["solve-svi", SVI, "--out", str(tmp_path),
                         "--quiet"])
        assert code == 0
        summary = read_json(tmp_path / "halfline-svi-summary.json")
        assert summary["mode"] == "solve-svi"
        diag = summary["solution"]["diagnostics"]
        assert diag["generator"] == "philox4x64-boxmuller-v1"
        assert diag["seed"] == 42

    def test_seed_override_changes_the_path(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert cli.main(["solve-svi", SVI, "--out", str(a), "--quiet"]) == 0
        assert cli.main(["solve-svi", SVI, "--out", str(b), "--quiet",
                         "--seed", "43"]) == 0
        xa = read_json(a / "halfline-svi-summary.json")["solution"]["x_final"]
        xb = read_json(b / "halfline-svi-summary.json")["solution"]["x_final"]
        assert xa != xb

    def test_ensemble_outputs(self, tmp_path):
        code = cli.main(["solve-svi", SVI, "--out", str(tmp_path),
                         "--paths", "2", "--dump-paths", "--quiet"])
        assert code == 0
        ens = read_json(tmp_path / "halfline-svi-ensemble.json")
        assert ens["ensemble"]["seeds_ok"] == [42, 43]
        assert ens["ensemble"]["n_ok"] == 2
        assert ens["path_files"] == ["halfline-svi-path-42.csv",
                                     "halfline-svi-path-43.csv"]
        for name in ens["path_files"]:
            assert (tmp_path / name).exists()
        with open(tmp_path / "halfline-svi-mean.csv") as fh:
            assert fh.readline().rstrip("\n") == "t,mean_x_1"

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_bad_path_count_exit_1(self, tmp_path, capsys, count):
        code = cli.main(["solve-svi", SVI, "--out", str(tmp_path),
                         "--paths", count])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"]["type"] == "ScenarioError"
        assert "--paths" in err["error"]["message"]
        assert list(tmp_path.iterdir()) == []

    def test_scenario_guard_radius_reaches_the_paths(self, tmp_path,
                                                       capsys):
        # solve-svi used to drop the scenario's scheme keys: with them the
        # path of seed 56 leaves the ball of radius 0.52
        payload = read_json(SVI)
        payload["tolerances"] = {"guard_radius": 0.52}
        path = write_json(tmp_path / "svi-guard.json", payload)
        code = cli.main(["solve-svi", path, "--out", str(tmp_path),
                         "--paths", "16", "--seed", "42", "--quiet"])
        assert code == 0
        ens = read_json(tmp_path / "halfline-svi-ensemble.json")["ensemble"]
        assert ens["n_ok"] == 15
        assert [(f["seed"], f["error"]) for f in ens["failures"]] \
            == [(56, "StabilityBreach")]
        out = tmp_path / "one"
        code = cli.main(["solve-svi", path, "--out", str(out), "--paths", "1",
                         "--seed", "56"])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"]["type"] == "StabilityBreach"
        assert not out.exists()

    def test_scenario_substep_ratio_reaches_the_path(self, tmp_path):
        # one substep per cell at the default ratio 10, two at 40, for a
        # single path and for the paths of an ensemble
        payload = read_json(SVI)
        payload["tolerances"] = {"substep_ratio": 40}
        path = write_json(tmp_path / "svi-ratio.json", payload)
        for paths in ("1", "2"):
            assert cli.main(["solve-svi", path, "--out", str(tmp_path),
                             "--paths", paths, "--dump-paths",
                             "--quiet"]) == 0
        diag = read_json(tmp_path / "halfline-svi-summary.json")[
            "solution"]["diagnostics"]
        assert diag["n_substeps_per_cell"] == 2
        # the ensemble's path of seed 42 is the single path, bit for bit
        assert (tmp_path / "halfline-svi-path-42.csv").read_bytes() \
            == (tmp_path / "halfline-svi-solution.csv").read_bytes()

    @pytest.mark.parametrize("command", ["solve-svi", "validate"])
    def test_no_tol_option(self, tmp_path, command):
        # the ladder tolerance means nothing to these subcommands
        with pytest.raises(SystemExit) as exc:
            cli.main([command, SVI, "--out", str(tmp_path), "--tol", "0.1"])
        assert exc.value.code == 2

    def test_det_scenario_rejected(self, tmp_path, capsys):
        code = cli.main(["solve-svi", HALFLINE, "--out", str(tmp_path)])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert "stochastic" in err["error"]["message"]

    def test_zero_noise_matches_deterministic(self, tmp_path):
        # same system, zero diffusion: both routes produce the same numbers
        det, svi = flat_pair(tmp_path)
        assert cli.main(["solve-det", det, "--out", str(tmp_path),
                         "--quiet"]) == 0
        assert cli.main(["solve-svi", svi, "--out", str(tmp_path),
                         "--quiet"]) == 0
        det_csv = (tmp_path / "flat-det-solution.csv").read_text()
        svi_csv = (tmp_path / "flat-svi-solution.csv").read_text()
        assert det_csv == svi_csv


def test_traced_ensemble_has_no_failures(tmp_path):
    # the benchmark's traced run wraps library names and checks some of
    # their results; a chunk that reached a wrapper taking one point would
    # fail, and its paths would rerun one at a time (or fail) here
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        code = cli.main(["solve-svi", SVI, "--paths", "8", "--out",
                         str(tmp_path), "--quiet"])
    finally:
        tracer.restore()
    assert code == 0
    ens = read_json(tmp_path / "halfline-svi-ensemble.json")["ensemble"]
    assert ens["failures"] == []
    assert ens["n_ok"] == 8
    calls = spans.aggregate(tracer.spans(), tracer.names)
    assert calls["sde.solve_svi_path"][0] == 0
    assert calls["field.eval"][0] > 0
