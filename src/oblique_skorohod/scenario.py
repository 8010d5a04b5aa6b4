"""Scenario files: JSON declarations turned into validated solver inputs.

A scenario declares the constraint (phi), the direction field (H), the
drift, and exactly one input source: a deterministic path m, or a Brownian
block plus a diffusion g.  Grid-multiple constraints are snapped upward and
the snapped values echoed in `snapped`; nothing is modified silently.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import coeffs, convex, field as fieldmod
from .paths import (GridMismatch, SampledPath, _count, grid_cells,
                    snapped_width)
from .sde import BrownianDriver
from .solver import PenalizedConfig, _check_halvings


class ScenarioError(ValueError):
    """The scenario file is malformed or violates a stated hypothesis."""


@dataclass
class Scenario:
    raw: dict
    name: str
    mode: str  # "det" or "svi"
    dim: int
    dt: float
    horizon: float
    x0: np.ndarray
    phi: convex.ConvexFunction
    hf: fieldmod.ObliqueField
    f: coeffs.DriftSpec
    m: SampledPath | None = None
    g: coeffs.DiffusionSpec | None = None
    seed: int = 0
    noise_dims: int = 1
    n_window: int = 1
    u0: np.ndarray | None = None
    test_points: list = dc_field(default_factory=list)
    tol: float = 1e-3
    eps0: float | None = None
    max_halvings: int = 10
    substep_ratio: int = 10
    guard_radius: float = 1e6
    snapped: dict = dc_field(default_factory=dict)


def _need(raw: dict, key: str):
    if key not in raw:
        raise ScenarioError(f"missing required field {key!r}")
    return raw[key]


def _declared(what: str, build, *args):
    """build(*args) for the `what` block, any error but a ScenarioError
    reported as the ScenarioError "bad <what> declaration"."""
    try:
        return build(*args)
    except ScenarioError:
        raise
    except Exception as exc:
        raise ScenarioError(f"bad {what} declaration: {exc}") from exc


def _build_set(raw: dict, dim: int) -> convex.Set:
    kind = _need(raw, "kind")
    if kind == "box":
        return convex.box(_need(raw, "lo"), _need(raw, "hi"))
    if kind == "ball":
        return convex.ball(_need(raw, "center"), float(_need(raw, "radius")))
    if kind == "halfspace_intersection":
        normals = np.asarray(raw.get("normals", []), dtype=float)
        if normals.size == 0:
            return convex.whole_space(dim)
        return convex.halfspace_intersection(normals, _need(raw, "offsets"))
    raise ScenarioError(f"unknown set kind {kind!r}")


def _build_phi(raw: dict, dim: int) -> convex.ConvexFunction:
    kind = _need(raw, "kind")
    dom = _declared("set", _build_set, _need(raw, "set"), dim)
    if dom.dim != dim:
        raise ScenarioError(f"set dimension {dom.dim} != scenario dimension {dim}")
    r0 = float(_need(raw, "r0"))
    h0 = raw.get("h0")
    h0 = None if h0 is None else float(h0)
    if kind == "indicator":
        return convex.indicator(dom, r0, h0)
    if kind == "quadratic_plus_indicator":
        return convex.quadratic_plus_indicator(
            _need(raw, "A"), _need(raw, "q"), dom, r0, h0)
    if kind == "lipschitz_affine_plus_indicator":
        return convex.lipschitz_affine_plus_indicator(
            _need(raw, "a"), float(raw.get("beta", 0.0)), dom, r0, h0)
    raise ScenarioError(f"unknown phi kind {kind!r}")


def _build_field(raw: dict, dim: int) -> fieldmod.ObliqueField:
    kind = _need(raw, "kind")
    c = float(_need(raw, "c"))
    b = float(raw.get("b", 0.0))
    if kind == "constant":
        hf = fieldmod.constant_field(_need(raw, "matrix"), c, b)
    elif kind == "diagonal_affine":
        hf = fieldmod.diagonal_affine_field(
            _need(raw, "base"), _need(raw, "slopes"), c, b,
            offsets=raw.get("offsets"), span=raw.get("span"))
    elif kind == "rotation_blend":
        hf = fieldmod.rotation_blend_field(
            _need(raw, "m0"), _need(raw, "m1"),
            _need(raw, "w_direction"), float(raw.get("w_offset", 0.0)), c, b)
    else:
        raise ScenarioError(f"unknown field kind {kind!r}")
    if hf.dim != dim:
        raise ScenarioError(f"field dimension {hf.dim} != scenario dimension {dim}")
    return hf


def _build_profile(raw: dict) -> coeffs.TimeProfile:
    return coeffs.TimeProfile(
        kind=raw.get("kind", "constant"), value=float(raw.get("value", 1.0)),
        slope=float(raw.get("slope", 0.0)),
        amplitude=float(raw.get("amplitude", 1.0)),
        period=float(raw.get("period", 1.0)), phase=float(raw.get("phase", 0.0)))


def _build_drift(raw: dict | None, dim: int, domain: convex.Set,
                 horizon: float) -> coeffs.DriftSpec:
    kind = "zero" if raw is None else raw.get("kind", "zero")
    if kind == "zero":
        return coeffs.zero_drift(dim)
    if kind == "constant":
        return coeffs.constant_drift(_need(raw, "vector"))
    rad = convex.bounding_radius(domain)
    fsharp = raw.get("fsharp")
    if kind == "affine":
        return coeffs.affine_drift(_need(raw, "matrix"), _need(raw, "vector"),
                                   domain_radius=rad, fsharp=fsharp)
    if kind == "time_modulated":
        return coeffs.time_modulated_drift(
            _need(raw, "matrix"), _need(raw, "vector"),
            _build_profile(_need(raw, "profile")), horizon,
            domain_radius=rad, fsharp=fsharp)
    raise ScenarioError(f"unknown drift kind {kind!r}")


def _build_diffusion(raw: dict, dim: int) -> coeffs.DiffusionSpec:
    kind = _need(raw, "kind")
    if kind == "zero":
        return coeffs.zero_diffusion(
            dim, _count("noise_dims", raw.get("noise_dims", 1)))
    if kind == "constant":
        return coeffs.constant_diffusion(_need(raw, "matrix"))
    if kind == "affine_in_x":
        return coeffs.affine_diffusion(_need(raw, "base"), _need(raw, "gains"),
                                       float(_need(raw, "gsharp")))
    raise ScenarioError(f"unknown diffusion kind {kind!r}")


def _load_csv_path(path: str, dt: float, n_cells: int, dim: int) -> np.ndarray:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][0] != "t":
        raise ScenarioError(f"csv {path}: expected a header starting with 't'")
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    if data.shape != (n_cells + 1, dim + 1):
        raise ScenarioError(
            f"csv {path}: expected {n_cells + 1} rows x {dim + 1} cols, "
            f"got {data.shape}")
    times = data[:, 0]
    if np.any(np.abs(np.diff(times) - dt) > 1e-9 * dt) or abs(times[0]) > 1e-12:
        raise ScenarioError(f"csv {path}: time column must be 0, dt, 2dt, ...")
    return data[:, 1:]


def _build_m(raw: dict, dt: float, n_cells: int, dim: int,
             base_dir: str | None) -> SampledPath:
    kind = _need(raw, "kind")
    t = dt * np.arange(n_cells + 1)
    if kind == "zero":
        vals = np.zeros((n_cells + 1, dim))
    elif kind == "ramp":
        slope = np.asarray(_need(raw, "slope"), dtype=float).ravel()
        if slope.size != dim:
            raise ScenarioError("ramp slope dimension mismatch")
        vals = t[:, None] * slope
    elif kind == "sinusoid":
        amp = np.asarray(_need(raw, "amplitude"), dtype=float).ravel()
        if amp.size != dim:
            raise ScenarioError("sinusoid amplitude dimension mismatch")
        period = float(_need(raw, "period"))
        phase = float(raw.get("phase", 0.0))
        if not period > 0.0:
            raise ScenarioError("sinusoid period must be positive")
        vals = np.sin(2.0 * math.pi * t / period + phase)[:, None] * amp
    elif kind == "samples":
        sdt = float(_need(raw, "dt"))
        if abs(sdt - dt) > 1e-12 * max(dt, sdt):
            raise ScenarioError(f"samples dt {sdt} != scenario dt {dt}")
        vals = np.asarray(_need(raw, "values"), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape != (n_cells + 1, dim):
            raise ScenarioError(
                f"samples must be {n_cells + 1} x {dim}, got {vals.shape}")
    elif kind == "csv":
        path = _need(raw, "path")
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        vals = _load_csv_path(path, dt, n_cells, dim)
    else:
        raise ScenarioError(f"unknown input kind {kind!r}")
    if float(np.linalg.norm(vals[0])) > 1e-12:
        raise ScenarioError("m(0) must be 0 (stated input hypothesis)")
    return SampledPath(t0=0.0, dt=dt, values=vals, extension="zero")


def _tolerances(tols: dict, dt: float) -> tuple:
    """(tol, eps0, max_halvings, substep_ratio, guard_radius); the scheme
    keys pass PenalizedConfig's own checks and max_halvings the ladder's,
    as every solve applies them."""
    eps0 = tols.get("eps0")
    scheme = PenalizedConfig(
        eps=dt, substep_ratio=tols.get("substep_ratio", 10),
        guard_radius=float(tols.get("guard_radius", 1e6)))
    return (float(tols.get("tol", 1e-3)),
            None if eps0 is None else float(eps0),
            _check_halvings(tols.get("max_halvings", 10)),
            scheme.substep_ratio, scheme.guard_radius)


def _brownian(raw: dict, dt: float, horizon: float) -> tuple:
    """(seed, noise dims, window count n_delay) of a stochastic scenario;
    seed and dims pass the BrownianDriver's own checks, as every solve
    applies them."""
    br = raw["brownian"]
    if "dt" in br and abs(float(br["dt"]) - dt) > 1e-12 * dt:
        raise ScenarioError("brownian dt must match the scenario dt")
    drv = BrownianDriver(seed=_need(br, "seed"), dt=dt,
                         dims=br.get("dims", 1), horizon=horizon)
    n_delay = raw.get("n_delay", br.get("n"))
    if n_delay is None:
        raise ScenarioError("stochastic scenarios need n_delay")
    return drv.seed, drv.dims, _count("n_delay", n_delay)


def build_scenario(raw: dict, base_dir: str | None = None) -> Scenario:
    """Validate a scenario dict and build the solver objects.

    Raises ScenarioError with a readable message on any violation: missing
    fields, dimension mismatches, x0 outside the domain, m(0) != 0,
    non-grid-multiple horizon or window, or bad catalog parameters.
    """
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    dim = _declared("dimension", _count, "dimension",
                    _need(raw, "dimension"))
    if dim < 1 or dim > 8:
        raise ScenarioError("dimension must be in 1..8")
    dt = _declared("dt", float, _need(raw, "dt"))
    if not dt > 0.0:
        raise ScenarioError("dt must be positive")
    horizon = _declared("horizon", float, _need(raw, "horizon"))
    try:
        n_cells = grid_cells(horizon, dt, "horizon")
    except GridMismatch as exc:
        raise ScenarioError("horizon must be a positive grid multiple of dt") from exc
    snapped = {"horizon": n_cells * dt, "n_cells": n_cells}

    phi = _declared("phi", _build_phi, _need(raw, "phi"), dim)
    hf = _declared("field", _build_field, _need(raw, "H"), dim)
    f = _declared("drift", _build_drift, raw.get("f"), dim, phi.domain,
                  horizon)

    x0 = np.asarray(_need(raw, "x0"), dtype=float).ravel()
    if x0.size != dim:
        raise ScenarioError("x0 dimension mismatch")
    if convex.set_distance(phi.domain, x0) > 1e-9:
        raise ScenarioError("x0 must lie in the constraint domain")

    tols = raw.get("tolerances", {})
    tol, eps0, max_halvings, substep_ratio, guard_radius = _declared(
        "tolerances", _tolerances, tols, dt)
    if not tol >= 0.0:
        raise ScenarioError("tol must be >= 0")
    eff_eps0 = 0.1 * (n_cells * dt) if eps0 is None else eps0
    try:
        snapped["eps0"] = snapped_width(eff_eps0, dt)
    except ValueError as exc:
        raise ScenarioError(f"bad eps0: {exc}") from exc

    has_m = "m" in raw and raw["m"] is not None
    has_brownian = "brownian" in raw and raw["brownian"] is not None
    if has_m == has_brownian:
        raise ScenarioError("declare exactly one of: m (deterministic), "
                            "brownian + g (stochastic)")
    ladder = [k for k in ("tol", "eps0", "max_halvings") if k in tols]
    if has_brownian and ladder:
        raise ScenarioError(f"tolerances.{ladder[0]} sets the eps-halving "
                            "ladder, which only deterministic scenarios run")

    sc = Scenario(raw=raw, name=str(raw.get("name", "scenario")),
                  mode="det" if has_m else "svi", dim=dim, dt=dt,
                  horizon=n_cells * dt, x0=x0, phi=phi, hf=hf, f=f,
                  tol=tol, eps0=eps0, max_halvings=max_halvings,
                  substep_ratio=substep_ratio, guard_radius=guard_radius,
                  snapped=snapped)

    if has_m:
        sc.m = _build_m(raw["m"], dt, n_cells, dim, base_dir)
    else:
        sc.seed, sc.noise_dims, sc.n_window = _declared(
            "brownian", _brownian, raw, dt, sc.horizon)
        if sc.n_window < 1:
            raise ScenarioError("n_delay must be >= 1")
        width = 1.0 / sc.n_window
        try:
            snapped["window_cells"] = grid_cells(width, dt,
                                                 f"window 1/n = {width}")
        except GridMismatch as exc:
            raise ScenarioError(str(exc)) from exc
        if "g" not in raw or raw["g"] is None:
            raise ScenarioError("stochastic scenarios need a diffusion g")
        sc.g = _declared("diffusion", _build_diffusion, raw["g"], dim)
        if sc.g.noise_dim != sc.noise_dims:
            raise ScenarioError("g noise columns must match brownian dims")

    if raw.get("u0") is not None:
        u0 = np.asarray(raw["u0"], dtype=float).ravel()
        if u0.size != dim:
            raise ScenarioError("u0 dimension mismatch")
        if not convex.contains(phi.domain, u0, tol=1e-9):
            raise ScenarioError("u0 must lie in the constraint domain")
        sc.u0 = u0
    for idx, p in enumerate(raw.get("test_points", []) or []):
        pt = np.asarray(p, dtype=float).ravel()
        if pt.size != dim or not convex.contains(phi.domain, pt, tol=1e-9):
            raise ScenarioError(f"test point {idx} is outside the domain")
        sc.test_points.append(pt)
    return sc


def load_scenario(path: str) -> Scenario:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON in {path}: {exc}") from exc
    return build_scenario(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def default_test_points(sc: Scenario) -> list:
    """Feasible test points for the variational checks: declared points,
    else the domain projection of x0 plus an interior witness."""
    if sc.test_points:
        return list(sc.test_points)
    pts = [convex.project_set(sc.phi.domain, sc.x0)]
    try:
        pts.append(convex.interior_witness(sc.phi.domain, sc.phi.r0))
    except ValueError:
        pass
    if sc.u0 is not None:
        pts.append(sc.u0)
    return pts


def validation_report(sc: Scenario) -> dict:
    """Run every declarative check and return a pass/fail report."""
    checks = []

    def add(name: str, passed: bool, detail: str = ""):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    rng = np.random.default_rng(convex.PROBE_SEED)
    try:
        convex.interior_witness(sc.phi.domain, sc.phi.r0)
        add("interior_nonempty", True, f"r0={sc.phi.r0}")
    except ValueError as exc:
        add("interior_nonempty", False, str(exc))
    h0_probe = convex.probe_h0(sc.phi)
    add("h0_bound", h0_probe["passed"],
        f"declared {h0_probe['declared_h0']:.6g}, observed "
        f"{h0_probe['observed_max']:.6g}")
    add("x0_in_domain", convex.set_distance(sc.phi.domain, sc.x0) <= 1e-9)

    probes = convex.sample_points(sc.phi.domain, 200, rng)
    rep = fieldmod.validate_field(sc.hf, probes)
    add("field_bounds", rep.passed,
        f"eig range [{rep.eig_min:.6g}, {rep.eig_max:.6g}], "
        f"lip {rep.lipschitz_H:.6g}+{rep.lipschitz_inverse:.6g} "
        f"vs b={sc.hf.b}; " + "; ".join(rep.failures))

    try:
        geom = convex.domain_geometry(sc.phi.r0, sc.phi.h0, sc.hf.b, sc.hf.c)
    except ValueError as exc:
        add("geometry_constants", False, str(exc))
    else:
        add("geometry_constants", geom.delta0 > 0.0,
            f"rho0={geom.rho0:.6g}, delta0={geom.delta0:.6g}")

    head = probes[:100]
    if not sc.f.is_zero():
        worst = max(float(convex._row_norms(sc.f.eval(t, head)).max(
            initial=0.0)) for t in np.linspace(0.0, sc.horizon, 5))
        add("drift_bound", worst <= sc.f.fsharp + 1e-9,
            f"observed {worst:.6g} vs fsharp {sc.f.fsharp:.6g}")
    if sc.mode == "svi" and sc.g is not None and not sc.g.is_zero():
        worst = float(convex._row_norms(sc.g.eval(0.0, head).reshape(
            len(head), sc.g.dim * sc.g.noise_dim)).max(initial=0.0))
        add("diffusion_bound", worst <= sc.g.gsharp + 1e-9,
            f"observed {worst:.6g} vs gsharp {sc.g.gsharp:.6g}")
    if sc.mode == "det":
        add("input_starts_at_zero",
            float(np.linalg.norm(sc.m.values[0])) <= 1e-12)

    passed = all(c["passed"] for c in checks)
    return {"status": "pass" if passed else "fail", "checks": checks,
            "snapped": sc.snapped}
