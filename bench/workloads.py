"""The benchmark's workloads: which CLI commands run, in which order.

Paths are relative to the repository root.  The det workload ignores the
benchmark seed (its inputs are fixed scenario files); the ensemble
workload passes it to `solve-svi --seed`.
"""

from __future__ import annotations

SVI_PATHS = 256
DEFAULT_SEED = 42

SHIPPED = ("scenarios/halfline-ramp.json", "scenarios/box-rotation.json")
CONVEX = ("bench/scenarios/simplex3.json", "bench/scenarios/quad-box.json")
SVI = "scenarios/halfline-svi.json"

# Everyday CLI use: cheap projections, the Python substep loop and the
# rotation-blend field; no stochastic work.
SHIPPED_COMMANDS = [(kind, sc) for sc in SHIPPED
                    for kind in ("validate", "solve-det", "converge")]
# Cost sits in the convex layer: Dykstra on an acute 3-D simplex and the
# projected-gradient prox of a quadratic on a box.  No validate: simplex3
# fails the h0 probe at the seed (the projection defect feeds the probe
# infeasible points), and a failing command would end the run.
CONVEX_COMMANDS = [("solve-det", sc) for sc in CONVEX]

# (subcommand, scenario) in the order one iteration runs them.  The shipped
# and the convex commands share one workload, so that each of the two
# workloads gets a run long enough to be steady on a shared machine.
WORKLOADS: dict[str, list[tuple[str, str]]] = {
    "det": SHIPPED_COMMANDS + CONVEX_COMMANDS,
    # The Monte Carlo use: per-path sweeps and the window input M in `sde`.
    "svi-ensemble": [("solve-svi", SVI)],
}


# How far a workload's CPU time follows the calibration loop's when the
# machine slows: the slope of log iteration CPU time against log calibration
# time, fitted over about 50 iterations of each on the machine the bounds
# were set on (det 0.57 to 0.60, correlation 0.86 to 0.90; svi-ensemble
# 0.21, correlation 0.62, likely because its two pool threads spread over
# both CPUs and so dilute the slow stretches of one; set-up 0.52 to 0.64).
CAL_EXPONENT = {"det": 0.6, "svi-ensemble": 0.2}
SETUP_CAL_EXPONENT = 0.6


def scenarios(workload: str) -> list[str]:
    """The distinct scenario files of a workload, in first-use order."""
    seen: list[str] = []
    for _, sc in WORKLOADS[workload]:
        if sc not in seen:
            seen.append(sc)
    return seen


def argv(kind: str, scenario: str, out: str, seed: int) -> list[str]:
    """CLI arguments of one command writing into `out`."""
    args = [kind, scenario, "--out", out, "--quiet"]
    if kind == "solve-svi":
        args += ["--paths", str(SVI_PATHS), "--seed", str(seed)]
    return args


def operations(kind: str) -> int:
    """Operations one command attempts: the command plus its Monte Carlo paths."""
    return 1 + (SVI_PATHS if kind == "solve-svi" else 0)
