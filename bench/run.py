"""Benchmark runner: runs one workload and prints its metrics.

    python3 bench/run.py --workload det --seed 1 --seconds 58 --trace 0

Each iteration is a fresh interpreter (bench/child.py) that sets up and then
runs the workload's CLI commands; iterations run one after another until
--seconds have passed (at least three untraced ones, or one untraced and
one traced with --trace 1, which alternates the two).  A set-up-only
interpreter follows each iteration, so setup_s has several samples.

The gated timing figure, cpu_ref_s, is the CPU time (user plus system,
every thread; the kernel leaves out time stolen by the hypervisor) of one
iteration's commands, scaled to a reference machine speed, and reported as
the median over the run's untraced iterations.  After set-up and after
each command the child times a burst of a fixed calibration loop
(child.calibrate).  An iteration's CPU time is multiplied by
(CAL_REF_S / c) ** e, where c is the median of that iteration's
calibration samples and e the workload's exponent (workloads.CAL_EXPONENT,
the measured share of the calibration loop's slowdown that reaches the
workload).  setup_s is scaled the same way, each interpreter's set-up wall
time by the burst that follows it, with SETUP_CAL_EXPONENT.

Why: on the shared 2-core machine the bounds were set on, the same
iteration ran up to 1.8x slower, in CPU time too, for stretches from
seconds to minutes (load elsewhere on the host), and the unscaled median
of det moved by 15 to 36% (quartile distance over median) across ten runs.
Scaled, it moved by 4 to 10%.  The unscaled medians (cpu_s, wall_s, the
per-subcommand wall times, paths_per_s and setup_raw_s) are printed as
text lines.  peak_rss_mib is a median.

Every iteration's raw timings are kept in bench/out/WORKLOAD/iterations.json,
so the figures can be recomputed.  The output gate (gate.py) reads back the
files every iteration wrote.  The last stdout line is one JSON object:
correct, attempted, failed and metrics (the end-to-end metrics, or with
--trace 1 the per-layer metrics of the traced iterations).  The run exits 2 without a result when the checkout
lacks the library or the scenario files, and 1 when the gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")
PINNED = {"det": os.path.join(HERE, "reference", "det-shipped")}
PATH_TABLE = os.path.join(HERE, "reference", "svi-paths.json")
MIN_SETUP_SAMPLES = 8
# Calibration-loop CPU time of the reference speed: about the median time
# of the loop on the machine the bounds were set on.
CAL_REF_S = 0.007
MIN_UNTRACED = 3
DEADLINE_S = 165.0  # start no work after this, so the run ends inside 180 s


def workers() -> int:
    """Threads for the Monte Carlo pool: the CPUs this process may use."""
    return len(os.sched_getaffinity(0))


def spawn(argv: list[str], timeout: float) -> tuple[dict | None, str]:
    """Run child.py; returns its result line (None on failure) and stderr."""
    env = dict(os.environ, OBLIQUE_SKOROHOD_THREADS=str(workers()))
    try:
        proc = subprocess.run([sys.executable, CHILD] + argv, cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        return None, f"timed out after {exc.timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr[-2000:]
    return json.loads(lines[-1]), proc.stderr


def missing_inputs(workload: str) -> list[str]:
    need = [os.path.join("src", "oblique_skorohod", "cli.py")]
    need += workloads.scenarios(workload)
    return [p for p in need if not os.path.isfile(os.path.join(ROOT, p))]


def stems(workload: str) -> dict:
    """Scenario file -> output file stem (the scenario's name)."""
    out = {}
    for sc in workloads.scenarios(workload):
        with open(os.path.join(ROOT, sc), encoding="utf-8") as fh:
            out[sc] = json.load(fh)["name"]
    return out


@dataclass
class Run:
    iterations: list = field(default_factory=list)  # child results
    dirs: list = field(default_factory=list)
    setups: list = field(default_factory=list)  # (wall s, calibration burst)
    problems: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def untraced(self) -> list:
        return [it for it in self.iterations if not it["traced"]]

    def traced(self) -> list:
        return [it for it in self.iterations if it["traced"]]


def count_failures(run: Run, k: int, res: dict, out: str, names: dict):
    """Failed operations: nonzero exits and ensemble paths that failed."""
    for cmd in res["commands"]:
        if cmd["rc"] != 0:
            run.failed += workloads.operations(cmd["kind"])
            run.problems.append(f"iteration {k}: {cmd['kind']} "
                                f"{cmd['scenario']} exited {cmd['rc']}")
        elif cmd["kind"] == "solve-svi":
            path = os.path.join(out, f"{names[cmd['scenario']]}-ensemble.json")
            try:
                with open(path, encoding="utf-8") as fh:
                    ens = json.load(fh)["ensemble"]
            except (OSError, ValueError, KeyError) as exc:
                run.failed += workloads.operations(cmd["kind"])
                run.problems.append(f"iteration {k}: unreadable {path}: {exc}")
                continue
            cmd["n_ok"] = ens["n_ok"]
            run.failed += len(ens["failures"])


def iterate(args, names: dict, out_root: str, deadline: float) -> Run:
    commands = workloads.WORKLOADS[args.workload]
    ops = sum(workloads.operations(kind) for kind, _ in commands)
    run = Run()
    t_measure = time.perf_counter()
    last = {False: 0.0, True: 0.0}  # duration of the latest iteration
    while True:
        k = len(run.iterations)
        traced = bool(args.trace) and k % 2 == 1
        n_u, n_t = len(run.untraced()), len(run.traced())
        enough = (n_u >= 1 and n_t >= 1) if args.trace else n_u >= MIN_UNTRACED
        elapsed = time.perf_counter() - t_measure
        if enough and elapsed + last[traced] > args.seconds:
            break
        if k and time.perf_counter() + last[traced] > deadline:
            run.problems.append("out of time before the minimum iterations")
            break
        out = os.path.join(out_root, f"iter-{k}")
        os.makedirs(out)
        argv = ["--workload", args.workload, "--seed", str(args.seed),
                "--out", out]
        if traced:
            argv += ["--spans", os.path.join(out_root, f"spans-{k}.npz")]
        t0 = time.perf_counter()
        res, err = spawn(argv, deadline - t0)
        last[traced] = time.perf_counter() - t0
        run.attempted += ops
        if res is None:
            run.failed += ops
            run.problems.append(f"iteration {k} gave no result: {err.strip()}")
            break
        res["traced"] = traced
        run.iterations.append(res)
        run.dirs.append(out)
        count_failures(run, k, res, out, names)
        if not traced:
            run.setups.append((res["setup_s"], res["calibration_s"][0]))
        setup_probe(run, args.workload, deadline)
    while len(run.setups) < MIN_SETUP_SAMPLES and setup_probe(
            run, args.workload, deadline):
        pass
    return run


def setup_probe(run: Run, workload: str, deadline: float) -> bool:
    """One set-up-only interpreter; its setup_s joins the samples."""
    res, _err = spawn(["--workload", workload, "--setup-only"],
                      deadline - time.perf_counter())
    if res is not None:
        run.setups.append((res["setup_s"], res["calibration_s"][0]))
    return res is not None


def end_to_end(run: Run, exponent: float) -> dict[str, list[float]]:
    """Samples of each end-to-end figure the workload has: one per untraced
    iteration, and for setup_s one per interpreter.  exponent is the
    workload's calibration exponent (see the module docstring)."""
    def scaled(seconds: float, samples: list, e: float) -> float:
        return seconds * (CAL_REF_S / statistics.median(samples)) ** e

    its = run.untraced()
    series: dict[str, list[float]] = {
        "setup_s": [scaled(s, burst, workloads.SETUP_CAL_EXPONENT)
                    for s, burst in run.setups],
        "setup_raw_s": [s for s, _ in run.setups],
        "peak_rss_mib": [it["peak_rss_kib"] / 1024.0 for it in its]}
    if not its:
        return {k: v for k, v in series.items() if v}
    cpu = [sum(c["cpu_seconds"] for c in it["commands"]) for it in its]
    cal = [[x for burst in it["calibration_s"] for x in burst] for it in its]
    series["cpu_ref_s"] = [scaled(c, k, exponent) for c, k in zip(cpu, cal)]
    series["cpu_s"] = cpu
    series["wall_s"] = [sum(c["seconds"] for c in it["commands"])
                        for it in its]
    cmds = its[0]["commands"]
    for kind in ("validate", "solve-det", "converge"):
        if any(c["kind"] == kind for c in cmds):
            series[kind.replace("-", "_") + "_s"] = [
                sum(c["seconds"] for c in it["commands"] if c["kind"] == kind)
                for it in its]
    svi = [j for j, c in enumerate(cmds) if c["kind"] == "solve-svi"]
    if svi and all("n_ok" in it["commands"][j] for it in its for j in svi):
        series["paths_per_s"] = [
            sum(it["commands"][j]["n_ok"] for j in svi)
            / sum(it["commands"][j]["seconds"] for j in svi) for it in its]
    return {k: v for k, v in series.items() if v}


def per_layer(run: Run, wall_s: float | None) -> dict[str, float]:
    """Median over the traced iterations of each per-layer metric; wall_s
    is the untraced median the tracing overhead is measured against."""
    traced = run.traced()
    if not traced:
        return {}
    layers = {name: statistics.median(it["layers"][name] for it in traced)
              for name in traced[0]["layers"]}
    if wall_s:
        layers["trace.overhead_ratio"] = statistics.median(
            sum(c["seconds"] for c in it["commands"]) for it in traced) / wall_s
    return layers


def declared(section: str) -> list[tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json declares in section."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec[section]]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=58.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    missing = missing_inputs(args.workload)
    if missing:
        print(f"cannot run {args.workload}: missing {missing}", file=sys.stderr)
        return 2
    import numpy

    commands = workloads.WORKLOADS[args.workload]
    names = stems(args.workload)
    print(f"machine: nproc={os.cpu_count()} workers={workers()} "
          f"python={platform.python_version()} numpy={numpy.__version__}")
    print(f"workload {args.workload}: seed={args.seed} "
          f"commands={[' '.join(c) for c in commands]}")

    out_root = os.path.join(OUT, args.workload)
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    # Warm-up: the first import in a checkout compiles bytecode.
    spawn(["--workload", args.workload, "--setup-only"], DEADLINE_S)
    run = iterate(args, names, out_root, deadline)
    with open(os.path.join(out_root, "iterations.json"), "w") as fh:
        json.dump({"iterations": run.iterations, "setups": run.setups}, fh)

    if run.dirs:
        table = None
        if os.path.isfile(PATH_TABLE):
            with open(PATH_TABLE, encoding="utf-8") as fh:
                table = json.load(fh)
        rep = gate.check_run(commands, names, run.dirs, args.seed,
                             workloads.SVI_PATHS,
                             pinned_dir=PINNED.get(args.workload),
                             path_table=table)
        run.problems += rep.problems
        for note in rep.notes:
            print(f"gate note: {note}")
    for p in run.problems:
        print(f"gate FAIL: {p}")
    correct = not run.problems and run.attempted > 0
    print(f"gate: {'pass' if correct else 'FAIL'} "
          f"({len(run.iterations)} iterations, {len(run.problems)} problems)")

    series = end_to_end(run, workloads.CAL_EXPONENT[args.workload])
    values = {k: statistics.median(v) for k, v in series.items()}
    units = {"paths_per_s": "1/s", "peak_rss_mib": "MiB"}
    for name, samples in series.items():
        print(f"metric {name} = {values[name]:.6g} {units.get(name, 's')} "
              f"(median of {len(samples)}, min {min(samples):.6g}, "
              f"max {max(samples):.6g})")
    cal = [x for it in run.untraced() for b in it["calibration_s"] for x in b]
    if cal:
        print(f"calibration: median {statistics.median(cal):.6g} s, "
              f"{min(cal):.6g} to {max(cal):.6g} s over {len(cal)} samples")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"metric fail_ratio = {ratio:.6g} ratio "
          f"({run.failed} of {run.attempted} operations failed)")

    if args.trace:
        layers = per_layer(run, values.get("wall_s"))
        for it in run.traced()[:1]:
            print(f"trace: {len(run.traced())} traced iterations, peak rss "
                  f"{it['peak_rss_kib'] / 1024.0:.1f} MiB")
            if it["trace_missing"]:
                print(f"trace: not found: {it['trace_missing']}")
        for name, value in layers.items():
            print(f"layer {name} = {value:.6g}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in declared("per_layer") if name in layers}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in declared("end_to_end") if name in values}
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
