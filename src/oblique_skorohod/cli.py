"""Command line front end.

Subcommands:
  solve-det   reflect a deterministic input path and write x, k plus checks
  solve-svi   sample one or many stochastic paths (seeded, reproducible)
  converge    run the refinement ladder and report the observed rate
  validate    check a scenario's declarations without solving

Exit codes: 0 success, 1 scenario or validation error, 2 solver failure
(no convergence, stability breach, projection failure).  Errors are
written to stderr as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import diagnostics, output, scenario as scen
from .convex import ProjectionError
from .sde import GENERATOR_ID, BrownianDriver, SviProblem, monte_carlo, solve_svi_path
from .solver import NoConvergence, StabilityBreach, solve_skorohod


def _stem(name: str) -> str:
    s = re.sub(r"[^A-Za-z0-9._-]+", "-", name).strip("-")
    return s or "scenario"


def _emit_error(exc: Exception, extra: dict | None = None):
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if extra:
        payload["error"].update(extra)
    print(json.dumps(output.to_jsonable(payload), sort_keys=True),
          file=sys.stderr)


def _say(args, text: str):
    if not args.quiet:
        print(text)


def _apply_overrides(sc: scen.Scenario, args):
    if args.tol is not None:
        if not args.tol >= 0.0:
            raise scen.ScenarioError("--tol must be >= 0")
        sc.tol = args.tol
    if getattr(args, "seed", None) is not None:
        sc.seed = args.seed


def _run_checks(sc: scen.Scenario, sol) -> dict:
    checks: dict = {}
    pts = scen.default_test_points(sc)
    try:
        checks["vi"] = diagnostics.vi_residual(sol, sc.phi, test_points=pts,
                                               u0=sc.u0)
    except Exception as exc:  # noqa: BLE001  (diagnostics must not kill a run)
        checks["vi"] = {"error": f"{type(exc).__name__}: {exc}"}
    if sc.u0 is not None:
        try:
            checks["activity_bound"] = diagnostics.annexB_bound(
                sol, sc.phi, sc.u0, sc.phi.r0)
        except ValueError as exc:
            checks["activity_bound"] = {"skipped": str(exc)}
    if len(sol.refinement_history) >= 2:
        try:
            norm_m = 0.0 if sol.input_m is None else float(
                np.abs(sol.input_m.values).max())
            checks["apriori"] = diagnostics.apriori_monitor(
                sol.refinement_history,
                {"norm_m": norm_m,
                 "tv_k": sol.diagnostics.get("tv_k_levels", [sol.tv_k])})
        except ValueError as exc:
            checks["apriori"] = {"skipped": str(exc)}
    return checks


def _write_det_outputs(sc: scen.Scenario, sol, args, mode: str) -> tuple[str, str]:
    stem = _stem(sc.name)
    csv_path = os.path.join(args.out, f"{stem}-solution.csv")
    json_path = os.path.join(args.out, f"{stem}-summary.json")
    summary = {
        "mode": mode,
        "scenario": sc.raw,
        "snapped": sc.snapped,
        "versions": output.versions(),
        "solution": output.solution_summary(sol),
        "checks": _run_checks(sc, sol),
    }
    output.write_text(csv_path, output.solution_csv_text(sol))
    output.write_text(json_path, output.summary_json_text(summary))
    return csv_path, json_path


def _cmd_solve_det(args) -> int:
    sc = scen.load_scenario(args.scenario)
    _apply_overrides(sc, args)
    if sc.mode != "det":
        raise scen.ScenarioError("solve-det needs a deterministic scenario "
                                 "(an m block, not brownian + g)")
    sol = solve_skorohod(sc.phi, sc.hf, sc.f, sc.m, sc.x0, tol=sc.tol,
                         eps0=sc.eps0, max_halvings=sc.max_halvings,
                         substep_ratio=sc.substep_ratio,
                         guard_radius=sc.guard_radius)
    csv_path, json_path = _write_det_outputs(sc, sol, args, "solve-det")
    _say(args, f"solve-det: eps={sol.eps:.6g} tv_k={sol.tv_k:.6g} "
               f"levels={len(sol.refinement_history)}")
    _say(args, f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_converge(args) -> int:
    sc = scen.load_scenario(args.scenario)
    _apply_overrides(sc, args)
    if sc.mode != "det":
        raise scen.ScenarioError("converge needs a deterministic scenario")
    # tol 0 = run the whole ladder; the point here is the rate, not early exit.
    tol = sc.tol if args.tol is not None else 0.0
    sol = solve_skorohod(sc.phi, sc.hf, sc.f, sc.m, sc.x0, tol=tol,
                         eps0=sc.eps0, max_halvings=sc.max_halvings,
                         substep_ratio=sc.substep_ratio,
                         guard_radius=sc.guard_radius)
    try:
        slope = diagnostics.convergence_slope(sol.refinement_history)
        slope_info = {"slope": slope}
    except ValueError as exc:
        slope_info = {"slope": None, "skipped": str(exc)}
    stem = _stem(sc.name)
    json_path = os.path.join(args.out, f"{stem}-convergence.json")
    summary = {
        "mode": "converge",
        "scenario": sc.raw,
        "snapped": sc.snapped,
        "versions": output.versions(),
        "refinement_history": [[e, g] for e, g in sol.refinement_history],
        "tv_k_levels": sol.diagnostics.get("tv_k_levels"),
        "rate": slope_info,
        "final": output.solution_summary(sol),
    }
    output.write_text(json_path, output.summary_json_text(summary))
    shown = slope_info["slope"]
    _say(args, "converge: slope="
         + (f"{shown:.4f}" if shown is not None else "n/a")
         + f" levels={len(sol.refinement_history)}")
    _say(args, f"wrote {json_path}")
    return 0


def _cmd_solve_svi(args) -> int:
    if args.paths < 1:
        raise scen.ScenarioError("--paths must be >= 1")
    sc = scen.load_scenario(args.scenario)
    _apply_overrides(sc, args)
    if sc.mode != "svi":
        raise scen.ScenarioError("solve-svi needs a stochastic scenario "
                                 "(brownian + g blocks)")
    stem = _stem(sc.name)
    if args.paths == 1:
        drv = BrownianDriver(seed=sc.seed, dt=sc.dt, dims=sc.noise_dims,
                             horizon=sc.horizon)
        sol = solve_svi_path(sc.phi, sc.hf, sc.f, sc.g, sc.x0, drv,
                             sc.n_window)
        csv_path, json_path = _write_det_outputs(sc, sol, args, "solve-svi")
        _say(args, f"solve-svi: seed={sc.seed} n={sc.n_window} "
                   f"tv_k={sol.tv_k:.6g}")
        _say(args, f"wrote {csv_path} and {json_path}")
        return 0

    problem = SviProblem(phi=sc.phi, hf=sc.hf, f=sc.f, g=sc.g, x0=sc.x0,
                         dt=sc.dt, horizon=sc.horizon,
                         noise_dims=sc.noise_dims, n=sc.n_window,
                         u0=sc.u0, test_points=tuple(sc.test_points))
    mc = monte_carlo(problem, args.paths, sc.seed,
                     collect_paths=args.dump_paths)
    paths = mc.pop("paths", [])
    written = []
    if args.dump_paths:
        for seed, sol in zip(mc["seeds_ok"], paths):
            p = os.path.join(args.out, f"{stem}-path-{seed}.csv")
            output.write_text(p, output.solution_csv_text(sol))
            written.append(p)
    mean_path = mc.pop("mean_x")
    var_path = mc.pop("var_x")
    json_path = os.path.join(args.out, f"{stem}-ensemble.json")
    summary = {
        "mode": "solve-svi",
        "scenario": sc.raw,
        "snapped": sc.snapped,
        "versions": output.versions(),
        "ensemble": mc,
        "mean_final": mean_path[-1],
        "var_final": var_path[-1],
        "path_files": [os.path.basename(p) for p in written],
    }
    output.write_text(json_path, output.summary_json_text(summary))
    mean_csv = os.path.join(args.out, f"{stem}-mean.csv")
    header = ["t"] + [f"mean_x_{i + 1}" for i in range(sc.dim)]
    lines = [",".join(header)]
    for i in range(mean_path.shape[0]):
        lines.append(",".join([output.fmt_float(i * sc.dt)]
                              + [output.fmt_float(v) for v in mean_path[i]]))
    output.write_text(mean_csv, "\n".join(lines) + "\n")
    _say(args, f"solve-svi: {mc['n_ok']}/{mc['n_paths']} paths ok "
               f"(base seed {mc['base_seed']}, generator {GENERATOR_ID})")
    _say(args, f"wrote {json_path} and {mean_csv}")
    return 0


def _cmd_validate(args) -> int:
    sc = scen.load_scenario(args.scenario)
    report = scen.validation_report(sc)
    report["versions"] = output.versions()
    stem = _stem(sc.name)
    json_path = os.path.join(args.out, f"{stem}-validate.json")
    output.write_text(json_path, output.summary_json_text(report))
    for c in report["checks"]:
        mark = "ok" if c["passed"] else "FAIL"
        detail = f"  ({c['detail']})" if c["detail"] else ""
        _say(args, f"  [{mark}] {c['name']}{detail}")
    _say(args, f"validate: {report['status']}; wrote {json_path}")
    return 0 if report["status"] == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="oblique-skorohod",
        description="Reflected paths under oblique constraint directions: "
                    "deterministic and stochastic solvers with refinement "
                    "and validation tooling.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", help="scenario JSON file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--tol", type=float, default=None,
                       help="override the scenario tolerance (0 = full ladder)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress lines")

    p = sub.add_parser("solve-det", help="solve a deterministic scenario")
    common(p)
    p.set_defaults(fn=_cmd_solve_det)

    p = sub.add_parser("solve-svi", help="solve a stochastic scenario")
    common(p)
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario base seed")
    p.add_argument("--paths", type=int, default=1,
                   help="number of Monte Carlo paths (default 1)")
    p.add_argument("--dump-paths", action="store_true",
                   help="write one CSV per sample path")
    p.set_defaults(fn=_cmd_solve_svi)

    p = sub.add_parser("converge", help="run the refinement ladder")
    common(p)
    p.set_defaults(fn=_cmd_converge)

    p = sub.add_parser("validate", help="check scenario declarations")
    common(p)
    p.set_defaults(fn=_cmd_validate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (scen.ScenarioError, FileNotFoundError) as exc:
        _emit_error(exc)
        return 1
    except NoConvergence as exc:
        _emit_error(exc, {"history": [[e, g] for e, g in exc.history]})
        return 2
    except (StabilityBreach, ProjectionError) as exc:
        _emit_error(exc)
        return 2
    except ValueError as exc:
        _emit_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
