"""Tests of the benchmark's output gate.

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import gate  # noqa: E402
import workloads  # noqa: E402

REF = os.path.join(BENCH, "reference", "det-shipped")
DET = workloads.SHIPPED_COMMANDS
STEMS = {"scenarios/halfline-ramp.json": "halfline-ramp",
         "scenarios/box-rotation.json": "box-rotation"}


@pytest.fixture
def outputs(tmp_path):
    """A copy of the files the seed wrote for the shipped scenarios."""
    out = tmp_path / "iter-0"
    shutil.copytree(REF, out)
    return str(out)


def _edit_csv(path, row, col, change):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(change(float(cells[col])))
    lines[row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_accepts_the_seeds_one_ulp_tie(outputs):
    with open(os.path.join(REF, "halfline-ramp-summary.json")) as fh:
        diag = json.load(fh)["solution"]["diagnostics"]
    defect, bound = diag["max_feasibility_defect"], diag["feasibility_bound"]
    assert defect > bound and np.nextafter(bound, 1.0) == defect
    rep = gate.check_run(DET, STEMS, [outputs], 42, workloads.SVI_PATHS,
                         pinned_dir=REF)
    assert rep.problems == []


def test_rejects_a_node_shifted_by_1e6(outputs):
    _edit_csv(os.path.join(outputs, "box-rotation-solution.csv"), 500, 1,
              lambda v: v + 1e-6)
    rep = gate.check_run(DET, STEMS, [outputs], 42, workloads.SVI_PATHS,
                         pinned_dir=REF)
    assert any("box-rotation-solution.csv: row 499" in p for p in rep.problems)


def test_rejects_an_infeasible_node(outputs):
    _edit_csv(os.path.join(outputs, "halfline-ramp-solution.csv"), 300, 1,
              lambda v: -0.01)
    rep = gate.check_run(DET, STEMS, [outputs], 42, workloads.SVI_PATHS)
    assert any("halfline-ramp solve-det: distance from the CSV" in p
               for p in rep.problems)


def test_rejects_files_that_differ_between_iterations(outputs, tmp_path):
    second = str(tmp_path / "iter-1")
    shutil.copytree(outputs, second)
    with open(os.path.join(second, "box-rotation-summary.json"), "a") as fh:
        fh.write(" ")
    rep = gate.check_run(DET, STEMS, [outputs, second], 42,
                         workloads.SVI_PATHS, pinned_dir=REF)
    assert rep.problems == ["box-rotation-summary.json: bytes differ between "
                            "iter-0 and iter-1"]


# ---------------------------------------------------------------------------
# a small synthetic ensemble: 4 paths on a 4-cell grid, base seed 1

SVI = [("solve-svi", "svi.json")]
HALFLINE = {"kind": "halfspace_intersection", "normals": [[-1.0]],
            "offsets": [0.0]}


def _table():
    rng = np.random.default_rng(0)
    n = 6
    return {"first_seed": 0, "nodes": [0, 2, 4],
            "x": np.abs(rng.standard_normal((n, 3, 1))).tolist(),
            "tv_k": rng.random(n).tolist(), "defect": [0.0] * n,
            "vi": (-rng.random(n)).tolist()}


def _write_ensemble(out, table, base, n_paths):
    ref = gate.ensemble_reference(table, base, n_paths)
    os.makedirs(out)
    ens = {"scenario": {"phi": {"set": HALFLINE}},
           "mean_final": ref["mean_final"].tolist(),
           "var_final": ref["var_final"].tolist(),
           "ensemble": {"n_paths": n_paths, "n_ok": n_paths,
                        "seeds_ok": ref["seeds_ok"], "failures": [],
                        "mean_tv_k": ref["mean_tv_k"],
                        "max_feasibility_defect": ref["max_feasibility_defect"],
                        "max_vi_residual": ref["max_vi_residual"]}}
    with open(os.path.join(out, "svi-ensemble.json"), "w") as fh:
        json.dump(ens, fh)
    rows = ["t,mean_x_1"]
    for i in range(5):
        v = ref["mean_x"][ref["nodes"].index(i)][0] if i in ref["nodes"] \
            else ref["mean_x"][0][0]
        rows.append(f"{0.25 * i!r},{float(v)!r}")
    with open(os.path.join(out, "svi-mean.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    return ens


def _gate_ensemble(out, table, base=1, n_paths=4):
    return gate.check_run(SVI, {"svi.json": "svi"}, [out], base, n_paths,
                          path_table=table)


def test_accepts_an_ensemble_matching_the_table(tmp_path):
    table = _table()
    out = str(tmp_path / "iter-0")
    _write_ensemble(out, table, 1, 4)
    rep = _gate_ensemble(out, table)
    assert rep.problems == [] and rep.notes == []


def test_rejects_a_failed_path(tmp_path):
    table = _table()
    out = str(tmp_path / "iter-0")
    ens = _write_ensemble(out, table, 1, 4)
    mc = ens["ensemble"]
    mc["n_ok"] = 3
    mc["seeds_ok"] = mc["seeds_ok"][:-1]
    mc["failures"] = [{"seed": 4, "error": "StabilityBreach", "message": ""}]
    with open(os.path.join(out, "svi-ensemble.json"), "w") as fh:
        json.dump(ens, fh)
    rep = _gate_ensemble(out, table)
    assert any("n_ok 3 of n_paths 4" in p for p in rep.problems)
    assert any("1 failed paths" in p for p in rep.problems)


def test_ensemble_outside_the_table_is_checked_by_invariants_only(tmp_path):
    table = _table()
    out = str(tmp_path / "iter-0")
    _write_ensemble(out, table, 2, 4)
    rep = _gate_ensemble(out, table, base=3)
    assert rep.problems == []
    assert rep.notes and "outside the recorded table" in rep.notes[0]
