"""Record the values the output gate pins, from the library as checked out.

    python3 bench/record_reference.py

Writes bench/reference/det-shipped/ (the files the commands of the det
workload write for the shipped scenarios) and bench/reference/svi-paths.json: for each path seed in
[0, 767), the path's states at every 64th grid node, its tv_k, feasibility
defect and VI residual, computed as `solve-svi` computes one path.  The
gate aggregates 256 consecutive rows of the table into the ensemble a base
seed in [0, 511] produces.  Run it only on a commit whose outputs are
known to be right; the recorded files are the seed commit's.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gate  # noqa: E402
import workloads  # noqa: E402
from oblique_skorohod import cli, scenario  # noqa: E402
from oblique_skorohod.sde import SviProblem, monte_carlo  # noqa: E402

REFERENCE = os.path.join(HERE, "reference")
FIRST_SEED = 0
LAST_BASE_SEED = 511
NODE_STRIDE = 64


def record_det_shipped() -> None:
    out = os.path.join(REFERENCE, "det-shipped")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    for kind, sc in workloads.SHIPPED_COMMANDS:
        rc = cli.main(workloads.argv(kind, os.path.join(ROOT, sc), out,
                                     workloads.DEFAULT_SEED))
        if rc != 0:
            raise SystemExit(f"{kind} {sc} exited {rc}")


def record_svi_paths() -> dict:
    sc = scenario.load_scenario(os.path.join(ROOT, workloads.SVI))
    problem = SviProblem(phi=sc.phi, hf=sc.hf, f=sc.f, g=sc.g, x0=sc.x0,
                         dt=sc.dt, horizon=sc.horizon,
                         noise_dims=sc.noise_dims, n=sc.n_window,
                         u0=sc.u0, test_points=tuple(sc.test_points))
    n_cells = sc.snapped["n_cells"]
    nodes = list(range(0, n_cells + 1, NODE_STRIDE))
    if nodes[-1] != n_cells:
        nodes.append(n_cells)
    table = {"scenario": workloads.SVI, "first_seed": FIRST_SEED,
             "nodes": nodes, "x": [], "tv_k": [], "defect": [], "vi": []}
    for seed in range(FIRST_SEED, LAST_BASE_SEED + workloads.SVI_PATHS):
        one = monte_carlo(problem, 1, seed)
        if one["failures"]:
            raise SystemExit(f"path {seed} failed: {one['failures']}")
        table["x"].append(one["mean_x"][nodes].tolist())
        table["tv_k"].append(one["mean_tv_k"])
        table["defect"].append(one["max_feasibility_defect"])
        table["vi"].append(one["max_vi_residual"])
    return table


def write_table(table: dict) -> str:
    path = os.path.join(REFERENCE, "svi-paths.json")
    head = {k: v for k, v in table.items()
            if k not in ("x", "tv_k", "defect", "vi")}
    parts = [json.dumps(head)[:-1]]
    for key in ("tv_k", "defect", "vi"):
        parts.append(f', "{key}": {json.dumps(table[key])}')
    rows = ",\n".join(json.dumps(r) for r in table["x"])
    parts.append(f',\n"x": [\n{rows}\n]}}\n')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(parts))
    return path


def verify_table(path: str) -> None:
    """The table must reproduce a real ensemble run of the CLI."""
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    out = os.path.join(HERE, "out", "record")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    seed = workloads.DEFAULT_SEED
    rc = cli.main(workloads.argv("solve-svi", os.path.join(ROOT, workloads.SVI),
                                 out, seed))
    if rc != 0:
        raise SystemExit(f"solve-svi exited {rc}")
    rep = gate.check_run([("solve-svi", workloads.SVI)],
                         {workloads.SVI: "halfline-svi"}, [out], seed,
                         workloads.SVI_PATHS, path_table=table)
    if rep.problems or rep.notes:
        raise SystemExit(f"table does not reproduce the CLI: {rep}")


def main() -> int:
    record_det_shipped()
    verify_table(write_table(record_svi_paths()))
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
