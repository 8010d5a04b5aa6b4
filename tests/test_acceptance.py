"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints one [PASS]/[FAIL] line
with the measured quantities next to their required bounds, bypassing
pytest capture so the lines always reach the terminal.
"""

import itertools
import json
import time

import numpy as np
import pytest

import oblique_skorohod as ok
from oblique_skorohod import cli

from conftest import (DT, GRID_N, default_windows, make_bundles, make_phis,
                      ramp_path, solve_bundle)
from convex_suites import SUITES, run_suite
from test_cli import flat_pair, read_json


def report(capsys, num: int, name: str, passed: bool, detail: str):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num:02d} {name}: {detail}"
    with capsys.disabled():
        print(line)
    assert passed, line


def bundle(name: str):
    return {b.name: b for b in make_bundles()}[name]


def test_criterion_01_halfline_oracle(capsys):
    b = bundle("halfline")
    t0 = time.perf_counter()
    sol = solve_bundle(b)
    elapsed = time.perf_counter() - t0
    ref = ok.oracle_halfline(2.0, 0.0, b.m)
    sup_err = float(np.abs(sol.x.values - ref.x.values).max())
    tv_err = abs(sol.tv_k - 0.5)
    passed = sup_err <= 5e-2 and tv_err <= 0.05 and elapsed <= 5.0
    report(capsys, 1, "half-line vs closed form", passed,
           f"sup_err={sup_err:.2e} (<=5e-02), |tv_k-0.5|={tv_err:.2e} "
           f"(<=0.05), runtime={elapsed:.2f}s (<=5s)")


def test_criterion_02_refinement_rate(capsys):
    t0 = time.perf_counter()
    slopes = {}
    for name in ("halfline", "box-diag", "ball-blend"):
        b = bundle(name)
        sol = ok.solve_skorohod(b.phi, b.hf, b.f, b.m, b.x0, tol=0.0,
                                max_halvings=5)
        assert len(sol.refinement_history) == 6  # 5 halvings
        slopes[name] = ok.convergence_slope(sol.refinement_history)
    elapsed = time.perf_counter() - t0
    passed = all(0.4 <= s <= 1.2 for s in slopes.values()) and elapsed <= 30.0
    shown = " ".join(f"{k}={v:.3f}" for k, v in slopes.items())
    report(capsys, 2, "refinement slopes in [0.4, 1.2]", passed,
           f"{shown}, runtime={elapsed:.2f}s (<=30s)")


def test_criterion_03_vi_residual(capsys, refined_catalog):
    rows = []
    passed = True
    for name, (b, sol) in refined_catalog.items():
        out = ok.vi_residual(sol, b.phi, windows=default_windows(1.0),
                             test_points=b.test_points, u0=b.u0)
        tol = 1e-4 * (1.0 + sol.tv_k)
        rows.append((name, out["residual"], tol))
        passed = passed and out["residual"] <= tol
    passed = passed and len(rows) >= 6
    worst = max(r[1] - r[2] for r in rows)
    report(capsys, 3, "variational residual on the catalog", passed,
           f"{len(rows)} scenarios, worst residual-tol={worst:.2e} (<=0), "
           f"tol=1e-4*(1+tv_k)")


def test_criterion_04_monotonicity(capsys):
    n_pairs = 0
    worst_slack = np.inf
    passed = True
    for name in ("halfline", "box-diag", "wedge", "affine-box"):
        b = bundle(name)
        sols = []
        for lam in (1.0, 1.4, 1.8):
            m = ok.SampledPath(t0=0.0, dt=b.m.dt, values=lam * b.m.values,
                               extension="zero")
            sols.append(ok.solve_skorohod(b.phi, b.hf, b.f, m, b.x0,
                                          tol=0.0, max_halvings=4))
        for s1, s2 in itertools.combinations(sols, 2):
            gap = ok.monotonicity_gap(s1, s2)
            bound = -1e-6 * (1.0 + s1.tv_k + s2.tv_k)
            worst_slack = min(worst_slack, gap - bound)
            passed = passed and gap >= bound
            n_pairs += 1
    passed = passed and n_pairs >= 10
    report(capsys, 4, "pairing monotonicity", passed,
           f"{n_pairs} same-system pairs (>=10), worst slack over the "
           f"-1e-6*(1+tv) floor={worst_slack:.2e} (>=0)")


def test_criterion_05_convex_suites(capsys):
    phis = make_phis()
    n_checks = 0
    failures = []
    margins = {}
    for sname, (fn, sense, bound) in SUITES.items():
        worst = None
        for pname, phi in phis.items():
            val, passed_one = run_suite(sname, phi, n_samples=1000, seed=7)
            n_checks += 1
            if not passed_one:
                failures.append((sname, pname, val))
            rel = val - bound if sense == "max" else bound - val
            worst = rel if worst is None else max(worst, rel)
        margins[sname] = worst
    passed = not failures and n_checks == 66
    shown = " ".join(f"{k}={v:.1e}" for k, v in margins.items())
    report(capsys, 5, "regularized-gradient property suites", passed,
           f"{n_checks} suite runs x 1000 samples, worst defect minus "
           f"bound per suite: {shown}" + (f"; failures={failures}" if failures
                                          else ""))


def test_criterion_06_activity_bound(capsys, refined_catalog):
    rows = []
    passed = True
    for name, (b, sol) in refined_catalog.items():
        out = ok.annexB_bound(sol, b.phi, b.u0, b.phi.r0)
        slack = out["rhs"] + 1e-6 * (1.0 + sol.tv_k) - out["lhs"]
        rows.append((name, slack))
        passed = passed and slack >= 0.0
    passed = passed and len(rows) == len(refined_catalog)
    worst = min(s for _, s in rows)
    report(capsys, 6, "reflection-activity bound", passed,
           f"{len(rows)} scenarios with interior u0, worst slack "
           f"rhs+1e-6*(1+tv_k)-lhs={worst:.2e} (>=0)")


def test_criterion_07_input_stability(capsys):
    phi = ok.indicator(ok.halfspace_intersection([[-1.0]], [0.0]),
                       r0=0.5, h0=0.5)
    hf = ok.constant_field([[2.0]], c=2.0)

    def sin_ramp(delta):
        t = DT * np.arange(GRID_N + 1)
        vals = (-np.sin(2.0 * np.pi * t / 0.9) + delta * t)[:, None]
        return ok.SampledPath(t0=0.0, dt=DT, values=vals, extension="zero")

    def solve(m):
        return ok.solve_skorohod(phi, hf, ok.zero_drift(1), m, [0.0],
                                 tol=0.0, max_halvings=6)

    base = solve(sin_ramp(0.0))
    twin = solve(sin_ramp(0.0))
    zero_gap = ok.stability_gap(base, twin, sin_ramp(0.0),
                                sin_ramp(0.0))["sup_gap"]
    gaps = {}
    for delta in (1e-3, 2e-3, 4e-3):
        gaps[delta] = ok.stability_gap(base, solve(sin_ramp(delta)),
                                       sin_ramp(0.0),
                                       sin_ramp(delta))["sup_gap"]
    r1 = gaps[2e-3] / gaps[1e-3]
    r2 = gaps[4e-3] / gaps[2e-3]
    passed = zero_gap == 0.0 and r1 <= 2.5 and r2 <= 2.5
    report(capsys, 7, "perturbation scaling", passed,
           f"identical-inputs gap={zero_gap} (==0), gap(2d)/gap(d)="
           f"{r1:.3f},{r2:.3f} (<=2.5)")


def test_criterion_08_reflection_variation(capsys, refined_catalog):
    ratios = {}
    passed = True
    for name, (b, sol) in refined_catalog.items():
        r = sol.diagnostics["tv_k_ratio_last_two"]
        ratios[name] = r
        passed = passed and 0.8 <= r <= 1.2
    b = bundle("halfline")
    fam = []
    for lam in (1.0, 2.0, 4.0):
        m = ok.SampledPath(t0=0.0, dt=b.m.dt, values=lam * b.m.values,
                           extension="zero")
        sol = ok.solve_skorohod(b.phi, b.hf, b.f, m, b.x0, tol=b.tol)
        fam.append({"lam": lam, "norm_m": float(np.abs(m.values).max()),
                    "tv_k": sol.tv_k})
        mon = ok.apriori_monitor(sol.refinement_history,
                                 {"norm_m": fam[-1]["norm_m"],
                                  "tv_k": sol.diagnostics["tv_k_levels"]},
                                 scaled_family=fam)
    passed = passed and mon["tv_nondecreasing_in_lam"]
    worst = max(abs(r - 1.0) for r in ratios.values())
    tvs = [row["tv_k"] for row in mon["scaled_family"]]
    report(capsys, 8, "variation stabilization", passed,
           f"{len(ratios)} catalog ratios in [0.8,1.2] (worst |r-1|="
           f"{worst:.3f}); tv_k over lam=1,2,4: "
           + ",".join(f"{v:.3f}" for v in tvs) + " nondecreasing")


def test_criterion_09_determinism(capsys, tmp_path):
    # same (seed, n) twice: byte-identical files
    import os
    svi = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                       "halfline-svi.json")
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["solve-svi", svi, "--out", str(out),
                         "--quiet"]) == 0
    same = all((a / n).read_bytes() == (b / n).read_bytes()
               for n in ("halfline-svi-solution.csv",
                         "halfline-svi-summary.json"))
    # zero diffusion: stochastic route lands on the deterministic answer
    det_p, svi_p = flat_pair(tmp_path)
    assert cli.main(["solve-det", det_p, "--out", str(tmp_path),
                     "--quiet"]) == 0
    assert cli.main(["solve-svi", svi_p, "--out", str(tmp_path),
                     "--quiet"]) == 0
    xs = np.array(read_json(tmp_path / "flat-det-summary.json")
                  ["solution"]["x_final"])
    xv = np.array(read_json(tmp_path / "flat-svi-summary.json")
                  ["solution"]["x_final"])
    gap = float(np.abs(xs - xv).max())
    tol = 5e-3
    passed = same and gap <= tol
    report(capsys, 9, "bitwise reproducibility", passed,
           f"rerun files byte-identical={same}, zero-noise final-state "
           f"gap={gap:.2e} (<= {tol})")


def test_criterion_10_stochastic_consistency(capsys):
    t0 = time.perf_counter()
    drv = ok.BrownianDriver(seed=2718, dt=1e-3, dims=10, horizon=1.0)
    inc = np.diff(ok.brownian_path(drv).values, axis=0).ravel()
    assert inc.size == 10_000
    var_err = abs(float(inc.var()) - 1e-3)
    var_tol = 3.0 * np.sqrt(2.0 / inc.size) * 1e-3
    dt = 1.0 / 512.0
    phi = ok.indicator(ok.halfspace_intersection([[-1.0]], [0.0]),
                       r0=0.5, h0=0.5)
    hf = ok.constant_field([[1.0]], c=1.0)
    g = ok.constant_diffusion([[0.5]])
    sols = {}
    for n in (8, 16, 32, 64, 128):
        d = ok.BrownianDriver(seed=2026, dt=dt, dims=1, horizon=1.0)
        sols[n] = ok.solve_svi_path(phi, hf, ok.zero_drift(1), g, [0.5], d, n)
    gaps = [float(np.abs(sols[n].x.values - sols[2 * n].x.values).max())
            for n in (8, 16, 32, 64)]
    inversions = sum(1 for i in range(len(gaps) - 1)
                     if gaps[i + 1] > gaps[i])
    elapsed = time.perf_counter() - t0
    passed = (var_err <= var_tol and inversions <= 1 and elapsed <= 60.0)
    report(capsys, 10, "stochastic scheme consistency", passed,
           f"|var-dt|={var_err:.2e} (<={var_tol:.2e}), window-halving gaps="
           + ",".join(f"{v:.3f}" for v in gaps)
           + f" inversions={inversions} (<=1), runtime={elapsed:.2f}s (<=60s)")
