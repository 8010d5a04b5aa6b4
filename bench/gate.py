"""Output gate: checks read back from the files each CLI command writes.

A run is correct only when every check passes:

- every command exits 0 and `validate` reports `pass`;
- the reported `max_feasibility_defect`, and a distance computed here from
  the CSV (clip distance for boxes, largest face violation for polytopes),
  are each within `feasibility_bound * (1 + 1e-9) + 1e-12`.  The slack
  admits the seed's one-ulp tie on halfline-ramp (the defect and the bound
  are the same quantity rounded along different paths) and nothing larger;
- `vi.residual <= vi.tol_vi` and `activity_bound.margin >= 0`;
- the last `solve-det` gap is at most the scenario `tol`, and every
  `converge` slope is finite;
- halfline-ramp agrees with the closed-form half-line solution within
  5e-2 in x and 0.05 in tv_k;
- the ensemble has `n_ok == n_paths`, no failures, and
  `max_vi_residual <= 1e-4`;
- the output files of every iteration of a run are byte-identical;
- the outputs of the shipped scenarios, and the ensemble for base seeds
  the reference table covers, match the values recorded from the seed within 1e-8.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

FEAS_REL = 1e-9
FEAS_ABS = 1e-12
PIN_ABS = 1e-8
ORACLE_X = 5e-2
ORACLE_TV = 0.05
ENSEMBLE_VI = 1e-4
UNPINNED_KEYS = ("versions",)  # library and interpreter versions


@dataclass
class Report:
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def fail(self, msg: str):
        self.problems.append(msg)


def within_bound(value: float, bound: float) -> bool:
    return value <= bound * (1.0 + FEAS_REL) + FEAS_ABS


def read_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, rows


def independent_distance(set_decl: dict, x: np.ndarray) -> float:
    """Largest distance of the rows of x from the declared set: the clip
    distance for boxes and balls, the largest face violation for
    halfspace intersections (a lower bound on the Euclidean distance)."""
    kind = set_decl["kind"]
    if kind == "box":
        lo, hi = np.asarray(set_decl["lo"]), np.asarray(set_decl["hi"])
        return float(np.linalg.norm(x - np.clip(x, lo, hi), axis=1).max())
    if kind == "ball":
        r = np.linalg.norm(x - np.asarray(set_decl["center"]), axis=1)
        return float(max(0.0, (r - set_decl["radius"]).max()))
    normals = np.asarray(set_decl.get("normals", []), dtype=float)
    if normals.size == 0:
        return 0.0
    norms = np.linalg.norm(normals, axis=1)
    offsets = np.asarray(set_decl["offsets"], dtype=float) / norms
    viol = x @ (normals / norms[:, None]).T - offsets
    return float(max(0.0, viol.max()))


def halfline_oracle(scenario: dict, t: np.ndarray) -> tuple[np.ndarray, float]:
    """Closed-form reflected path on [0, inf) with constant direction h for
    a ramp input: x = psi + max(0, -min psi), tv_k = max(0, -min psi) / h."""
    h = float(scenario["H"]["matrix"][0][0])
    psi = float(scenario["x0"][0]) + float(scenario["m"]["slope"][0]) * t
    lift = np.maximum(0.0, -np.minimum.accumulate(psi))
    return psi + lift, float(lift[-1]) / h


def _check_feasibility(rep: Report, where: str, diag: dict, set_decl: dict,
                       x: np.ndarray | None):
    defect = diag["max_feasibility_defect"]
    bound = diag["feasibility_bound"]
    if not within_bound(defect, bound):
        rep.fail(f"{where}: max_feasibility_defect {defect!r} above "
                 f"feasibility_bound {bound!r}")
    if x is not None:
        dist = independent_distance(set_decl, x)
        if not within_bound(dist, bound):
            rep.fail(f"{where}: distance from the CSV {dist!r} above "
                     f"feasibility_bound {bound!r}")


def check_solution(rep: Report, name: str, summary: dict, csv_text: str):
    """Invariants of one `solve-det` result (summary JSON plus CSV)."""
    sc = summary["scenario"]
    dim = int(sc["dimension"])
    header, rows = read_csv(csv_text)
    if header[:1 + dim] != ["t"] + [f"x_{i + 1}" for i in range(dim)]:
        rep.fail(f"{name}: unexpected CSV header {header}")
        return
    x = rows[:, 1:1 + dim]
    sol = summary["solution"]
    _check_feasibility(rep, f"{name} solve-det", sol["diagnostics"],
                       sc["phi"]["set"], x)
    checks = summary["checks"]
    vi = checks.get("vi", {})
    if "residual" not in vi or not vi["residual"] <= vi["tol_vi"]:
        rep.fail(f"{name}: vi residual check failed: {vi}")
    if sc.get("u0") is not None:
        act = checks.get("activity_bound", {})
        if "margin" not in act or not act["margin"] >= 0.0:
            rep.fail(f"{name}: activity bound check failed: {act}")
    tol = float(sc.get("tolerances", {}).get("tol", 1e-3))
    gap = sol["refinement_history"][-1][1]
    if gap is None or not gap <= tol:
        rep.fail(f"{name}: last refinement gap {gap} above tol {tol}")
    if name == "halfline-ramp":
        ox, otv = halfline_oracle(sc, rows[:, 0])
        err = float(np.abs(x[:, 0] - ox).max())
        if not err <= ORACLE_X:
            rep.fail(f"{name}: sup |x - oracle| = {err!r} above {ORACLE_X}")
        if not abs(sol["tv_k"] - otv) <= ORACLE_TV:
            rep.fail(f"{name}: tv_k {sol['tv_k']!r} differs from the oracle "
                     f"{otv!r} by more than {ORACLE_TV}")


def check_convergence(rep: Report, name: str, conv: dict):
    slope = conv["rate"].get("slope")
    if slope is None or not math.isfinite(slope):
        rep.fail(f"{name}: converge slope is not finite: {conv['rate']}")
    _check_feasibility(rep, f"{name} converge", conv["final"]["diagnostics"],
                       conv["scenario"]["phi"]["set"], None)


def check_validate(rep: Report, name: str, report: dict):
    if report.get("status") != "pass":
        failed = [c["name"] for c in report.get("checks", [])
                  if not c["passed"]]
        rep.fail(f"{name}: validate status {report.get('status')!r} "
                 f"(failed: {failed})")


def check_ensemble(rep: Report, ens: dict, mean_text: str, n_paths: int):
    mc = ens["ensemble"]
    if mc["n_paths"] != n_paths or mc["n_ok"] != mc["n_paths"]:
        rep.fail(f"ensemble: n_ok {mc['n_ok']} of n_paths {mc['n_paths']} "
                 f"(expected {n_paths} of {n_paths})")
    if mc["failures"]:
        rep.fail(f"ensemble: {len(mc['failures'])} failed paths, first "
                 f"{mc['failures'][0]}")
    vi = mc.get("max_vi_residual")
    if vi is None or not vi <= ENSEMBLE_VI:
        rep.fail(f"ensemble: max_vi_residual {vi!r} above {ENSEMBLE_VI}")
    # The distance to a convex set is convex, so the mean path is no further
    # from the set than the worst path.
    _, rows = read_csv(mean_text)
    dist = independent_distance(ens["scenario"]["phi"]["set"], rows[:, 1:])
    defect = mc["max_feasibility_defect"]
    if not within_bound(dist, defect):
        rep.fail(f"ensemble: mean path distance {dist!r} above the worst "
                 f"path defect {defect!r}")


# ---------------------------------------------------------------------------
# values pinned to the seed


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(float(a) - float(b)) <= PIN_ABS
    return a == b


def compare_json(rep: Report, where: str, ref, new, path: str = ""):
    """Every leaf of ref must be present in new and match within 1e-8."""
    if isinstance(ref, dict):
        if not isinstance(new, dict):
            rep.fail(f"{where}: {path or '/'} is not an object")
            return
        for key, val in ref.items():
            if not path and key in UNPINNED_KEYS:
                continue
            if key not in new:
                rep.fail(f"{where}: {path}/{key} missing")
            else:
                compare_json(rep, where, val, new[key], f"{path}/{key}")
    elif isinstance(ref, list):
        if not isinstance(new, list) or len(new) != len(ref):
            rep.fail(f"{where}: {path} length differs from the reference")
            return
        for i, (a, b) in enumerate(zip(ref, new)):
            compare_json(rep, where, a, b, f"{path}[{i}]")
    elif not _close(ref, new):
        rep.fail(f"{where}: {path} = {new!r}, reference {ref!r}")


def compare_csv(rep: Report, where: str, ref_text: str, new_text: str):
    ref_h, ref_rows = read_csv(ref_text)
    new_h, new_rows = read_csv(new_text)
    if ref_h != new_h or ref_rows.shape != new_rows.shape:
        rep.fail(f"{where}: header or shape differs from the reference")
        return
    diff = np.abs(ref_rows - new_rows)
    if diff.max() > PIN_ABS:
        i, j = np.unravel_index(int(diff.argmax()), diff.shape)
        rep.fail(f"{where}: row {i} column {ref_h[j]} = {new_rows[i, j]!r}, "
                 f"reference {ref_rows[i, j]!r}")


def compare_dir(rep: Report, ref_dir: str, out_dir: str):
    """Pin every file recorded in ref_dir to its counterpart in out_dir."""
    for fname in sorted(os.listdir(ref_dir)):
        new_path = os.path.join(out_dir, fname)
        if not os.path.exists(new_path):
            rep.fail(f"{fname}: missing (recorded in the reference)")
            continue
        ref_text = _read(os.path.join(ref_dir, fname))
        new_text = _read(new_path)
        if fname.endswith(".json"):
            compare_json(rep, fname, json.loads(ref_text), json.loads(new_text))
        else:
            compare_csv(rep, fname, ref_text, new_text)


def ensemble_reference(table: dict, base_seed: int, n_paths: int) -> dict | None:
    """Ensemble values the seed produces for base_seed, aggregated from the
    per-path table; None when the table does not cover those seeds."""
    first = table["first_seed"]
    lo = base_seed - first
    if lo < 0 or lo + n_paths > len(table["tv_k"]):
        return None
    x = np.asarray(table["x"][lo:lo + n_paths], dtype=float)
    return {
        "nodes": table["nodes"],
        "mean_x": x.mean(axis=0),
        "mean_final": x[:, -1].mean(axis=0),
        "var_final": x[:, -1].var(axis=0, ddof=1),
        "mean_tv_k": float(np.mean(table["tv_k"][lo:lo + n_paths])),
        "max_feasibility_defect": float(
            np.max(table["defect"][lo:lo + n_paths])),
        "max_vi_residual": float(np.max(table["vi"][lo:lo + n_paths])),
        "seeds_ok": list(range(base_seed, base_seed + n_paths)),
    }


def compare_ensemble(rep: Report, ens: dict, mean_text: str, ref: dict):
    mc = ens["ensemble"]
    if mc["seeds_ok"] != ref["seeds_ok"]:
        rep.fail("ensemble: seeds_ok differ from the reference")
    pairs = [("mean_final", ens["mean_final"], ref["mean_final"]),
             ("var_final", ens["var_final"], ref["var_final"])]
    pairs += [(k, mc[k], ref[k]) for k in
              ("mean_tv_k", "max_feasibility_defect", "max_vi_residual")]
    for key, new, old in pairs:
        diff = float(np.abs(np.asarray(new, dtype=float) - old).max())
        if not diff <= PIN_ABS:
            rep.fail(f"ensemble: {key} = {new!r}, reference {old!r}")
    _, rows = read_csv(mean_text)
    nodes = ref["nodes"]
    if rows.shape[0] <= nodes[-1]:
        rep.fail(f"ensemble mean CSV: {rows.shape[0]} rows, reference "
                 f"needs node {nodes[-1]}")
        return
    diff = np.abs(rows[nodes, 1:] - ref["mean_x"])
    if diff.max() > PIN_ABS:
        i = int(np.unravel_index(int(diff.argmax()), diff.shape)[0])
        rep.fail(f"ensemble mean CSV: node {nodes[i]} = {rows[nodes[i], 1:]}, "
                 f"reference {ref['mean_x'][i]}")


# ---------------------------------------------------------------------------
# whole runs


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path: str):
    return json.loads(_read(path))


def check_identical(rep: Report, dirs: list[str]):
    """Every iteration wrote the same files with the same bytes."""
    first = sorted(os.listdir(dirs[0]))
    for d in dirs[1:]:
        names = sorted(os.listdir(d))
        if names != first:
            rep.fail(f"{os.path.basename(d)}: files {names} differ from "
                     f"{os.path.basename(dirs[0])}: {first}")
            continue
        for fname in names:
            with open(os.path.join(dirs[0], fname), "rb") as a, \
                    open(os.path.join(d, fname), "rb") as b:
                if a.read() != b.read():
                    rep.fail(f"{fname}: bytes differ between "
                             f"{os.path.basename(dirs[0])} and "
                             f"{os.path.basename(d)}")


def check_run(commands: list[tuple[str, str]], stems: dict, dirs: list[str],
              base_seed: int, n_paths: int, pinned_dir: str | None = None,
              path_table: dict | None = None) -> Report:
    """Gate the output directories of one run (one per iteration).

    commands are the workload's (subcommand, scenario); stems maps a
    scenario to the file stem its outputs use.  pinned_dir holds reference
    files to compare against; path_table is the per-path ensemble table.
    """
    rep = Report()
    check_identical(rep, dirs)
    out = dirs[0]
    try:
        for kind, scenario in commands:
            stem = stems[scenario]
            base = os.path.join(out, stem)
            if kind == "validate":
                check_validate(rep, stem, _load(f"{base}-validate.json"))
            elif kind == "solve-det":
                check_solution(rep, stem, _load(f"{base}-summary.json"),
                               _read(f"{base}-solution.csv"))
            elif kind == "converge":
                check_convergence(rep, stem, _load(f"{base}-convergence.json"))
            elif kind == "solve-svi":
                ens = _load(f"{base}-ensemble.json")
                mean_text = _read(f"{base}-mean.csv")
                check_ensemble(rep, ens, mean_text, n_paths)
                ref = (None if path_table is None else
                       ensemble_reference(path_table, base_seed, n_paths))
                if ref is None:
                    rep.notes.append(
                        f"ensemble: base seed {base_seed} is outside the "
                        f"recorded table; checked by invariants only")
                else:
                    compare_ensemble(rep, ens, mean_text, ref)
        if pinned_dir is not None:
            compare_dir(rep, pinned_dir, out)
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        rep.fail(f"unreadable output: {type(exc).__name__}: {exc}")
    return rep
