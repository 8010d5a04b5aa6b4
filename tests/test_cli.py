"""Command-line interface tests, run in process against real scenario files."""

import dataclasses
import importlib.util
import json
import os
import warnings

import numpy as np
import pytest

from oblique_skorohod import cli, noise, output
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

    def test_out_below_a_file_exit_1(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = cli.main(["solve-det", HALFLINE, "--quiet",
                         "--out", str(blocker / "out")])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"]["type"] == "NotADirectoryError"

    def test_directory_as_scenario_exit_1(self, tmp_path, capsys):
        code = cli.main(["validate", str(tmp_path), "--out", str(tmp_path)])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"]["type"] == "IsADirectoryError"

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

    @pytest.mark.parametrize("command", ["validate", "solve-det"])
    @pytest.mark.parametrize("name, entry, message", [
        ("halfline-ramp", {"tolerances": {"substep_ratio": 1}},
         "bad tolerances declaration: substep_ratio must be an integer >= 2"),
        ("halfline-ramp", {"tolerances": {"guard_radius": -1.0}},
         "bad tolerances declaration: guard_radius must be positive"),
        ("halfline-ramp", {"tolerances": {"guard_radius": float("nan")}},
         "bad tolerances declaration: guard_radius must be positive"),
        # these escaped cli.main as TypeError and OverflowError tracebacks
        ("halfline-ramp", {"dimension": [1]}, "bad dimension declaration: "),
        ("halfline-ramp", {"tolerances": {"max_halvings": 1e400}},
         "bad tolerances declaration: "),
        ("halfline-svi", {"brownian": {"seed": [1]}},
         "bad brownian declaration: "),
        # validate passed these two; the solves rejected them
        ("halfline-ramp", {"tolerances": {"max_halvings": -1}},
         "bad tolerances declaration: max_halvings must be >= 0"),
        ("halfline-svi", {"brownian": {"seed": -1}},
         "bad brownian declaration: seed must fit in 64 bits"),
        # these ran with the count truncated or parsed by int()
        ("halfline-ramp", {"tolerances": {"max_halvings": 2.5}},
         "bad tolerances declaration: max_halvings must be an integer"),
        ("halfline-ramp", {"tolerances": {"substep_ratio": "12"}},
         "bad tolerances declaration: substep_ratio must be an integer"),
        ("halfline-svi", {"n_delay": 8.5},
         "bad brownian declaration: n_delay must be an integer"),
        ("halfline-svi", {"brownian": {"seed": True}},
         "bad brownian declaration: seed must be an integer"),
        # this loaded, and solve-det exited 2 with "state norm nan left
        # the guard ball"
        ("halfline-ramp", {"x0": [float("inf")]},
         "bad x0 declaration: x0 [inf] is not finite")])
    def test_bad_declaration_exit_1(self, tmp_path, capsys, command, name,
                                    entry, message):
        # validate rejects at load what every solve rejects, and says so
        # with the same JSON error
        payload = read_json(os.path.join(SCEN, f"{name}.json"))
        payload.update(entry)
        path = write_json(tmp_path / "bad.json", payload)
        out = tmp_path / "out"
        code = cli.main([command, path, "--out", str(out)])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"]["type"] == "ScenarioError"
        assert err["error"]["message"].startswith(message)
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

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64 - 2)])
    def test_seeds_outside_64_bits_exit_1(self, tmp_path, capsys, seed):
        # every seed of the ensemble must fit, not only the base seed
        code = cli.main(["solve-svi", SVI, "--out", str(tmp_path),
                         "--paths", "4", "--seed", seed])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err["error"]["type"] == "ValueError"
        assert "must fit in 64 bits" in err["error"]["message"]
        assert list(tmp_path.iterdir()) == []

    def test_every_path_failing_exit_2(self, tmp_path, capsys):
        # x0 inside the guard ball (one outside fails the load with exit
        # 1); every path then leaves it
        payload = read_json(SVI)
        payload["tolerances"] = {"guard_radius": 1e-3}
        payload["x0"] = [0.0]
        path = write_json(tmp_path / "svi-guard.json", payload)
        out = tmp_path / "out"
        code = cli.main(["solve-svi", path, "--out", str(out), "--paths", "4"])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"]["type"] == "RuntimeError"
        assert "every path failed" in err["error"]["message"]
        assert not out.exists()

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


def run_traced(argv):
    """(exit code, tracer, the span module) of cli.main(argv) under the
    benchmark's tracer."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        code = cli.main(argv)
    finally:
        tracer.restore()
    return code, tracer, spans


def test_traced_ensemble_has_no_failures(tmp_path, monkeypatch):
    # the benchmark's traced run wraps library names and checks some of
    # their results; a chunk that reached a wrapper taking one point would
    # fail, and its paths would rerun one at a time (or fail) here
    keyed = []
    real_key = noise._philox_key
    monkeypatch.setattr(noise, "_philox_key",
                        lambda seed: keyed.append(seed) or real_key(seed))
    code, tracer, spans = run_traced(["solve-svi", SVI, "--paths", "8",
                                      "--out", str(tmp_path), "--quiet"])
    assert code == 0
    ens = read_json(tmp_path / "halfline-svi-ensemble.json")["ensemble"]
    assert ens["failures"] == []
    assert ens["n_ok"] == 8
    calls = spans.aggregate(tracer.spans(), tracer.names)
    # a rerun would draw its seed's noise a second time
    assert len(keyed) == 8
    assert calls["field.eval"][0] > 0


def test_traced_det_has_no_failures(tmp_path):
    # the tracer's wrapped resolvent and field carry no float form, so a
    # traced 1-D level keeps the array loop (the face check reads a point
    # result as an array); it must write what the float loop writes
    code, tracer, spans = run_traced(["solve-det", HALFLINE, "--out",
                                      str(tmp_path / "traced"), "--quiet"])
    assert code == 0
    assert [k for k in tracer.counters if k.endswith(".errors")] == []
    calls = spans.aggregate(tracer.spans(), tracer.names)
    assert calls["field.eval"][0] > tracer.counters["solver.substeps"] / 10
    assert cli.main(["solve-det", HALFLINE, "--out", str(tmp_path / "plain"),
                     "--quiet"]) == 0
    for name in ("halfline-ramp-solution.csv", "halfline-ramp-summary.json"):
        assert (tmp_path / "traced" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes()


class TestHugeDeclarations:
    """Numbers near the float range end in a verdict or a JSON error,
    never in an overflow warning (run with every warning an error)."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("command", ["validate", "solve-det",
                                         "converge"])
    def test_x0_outside_the_guard_ball_exit_1(self, tmp_path, capsys,
                                              command):
        # this validated with exit 0, and solve-det overflowed x.x (two
        # RuntimeWarnings) before its guard breach, exit 2
        payload = read_json(HALFLINE)
        payload["x0"] = [1e300]
        path = write_json(tmp_path / "far.json", payload)
        code = cli.main([command, path, "--out", str(tmp_path / "out")])
        err = json.loads(capsys.readouterr().err)
        assert code == 1
        assert err == {"error": {
            "type": "ScenarioError",
            "message": "x0 norm 1.000e+300 lies outside the guard ball of "
                       "radius 1e+06"}}
        assert not (tmp_path / "out").exists()

    def test_x0_inside_the_guard_ball_loads(self, tmp_path):
        payload = read_json(HALFLINE)
        payload["x0"] = [1e5]
        sc = load_scenario(write_json(tmp_path / "far.json", payload))
        assert sc.x0.tolist() == [1e5]

    def test_huge_r0_fails_h0_bound_without_a_warning(self, tmp_path,
                                                      capsys):
        # the probe's distances overflow to inf, which fails the bound
        payload = read_json(HALFLINE)
        payload["phi"]["r0"] = 1e300
        path = write_json(tmp_path / "deep.json", payload)
        code = cli.main(["validate", path, "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        assert "[FAIL] h0_bound  (declared 0.5, observed inf)" in out


def test_csv_text_is_the_repr_of_every_value():
    # one finiteness check per array and repr of each float, over rows
    # that span several blocks: the bytes of a per-value formatter, the
    # time column from i * dt
    rng = np.random.default_rng(9)
    values = np.vstack([rng.normal(0.0, 1e3, (140, 3)),
                        [[-0.0, 5e-324, 1e300]]])
    text = output.path_csv_text(1e-3, ["a", "b", "c"], values)
    rows = ["t,a,b,c"] + [",".join(repr(float(v)) for v in (i * 1e-3, *row))
                          for i, row in enumerate(values)]
    assert text == "\n".join(rows) + "\n"
    for bad in (np.nan, -np.inf):
        values[70, 1], values[100, 0] = bad, np.inf
        with pytest.raises(ValueError, match=f"non-finite value {bad}$"):
            output.path_csv_text(1e-3, ["a", "b", "c"], values)
