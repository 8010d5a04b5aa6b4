"""One benchmark iteration in a fresh interpreter.

Set-up (timed as setup_s) is `import oblique_skorohod.cli` plus
`load_scenario` of each of the workload's scenarios.  Then every command of
the workload runs through `cli.main`, each timed on its own, in wall time
and in CPU time of the whole process (all threads).  After set-up and after
each command the child times a burst of a fixed calibration loop, which
tells how fast the machine ran around that moment.  The result is one JSON
line on stdout.

    python3 bench/child.py --workload NAME --seed N --out DIR [--spans FILE]
    python3 bench/child.py --workload NAME --setup-only

With --spans the commands run under the span tracer; the line then also
carries the per-layer metrics, and the spans are written to FILE.
"""

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

CALIBRATION_SAMPLES = 10  # per burst; one sample takes about 7 ms


def calibration_loop() -> float:
    """Fixed work in the library's style: a Python loop over numpy
    operations on 3-vectors.  It is the benchmark's own code, so a change
    to the library leaves its time alone."""
    import numpy as np

    x = np.array([0.3, -0.2, 0.9])
    y = np.array([1.0, 0.5, -0.4])
    lo, hi = np.zeros(3), np.ones(3)
    acc = 0.0
    for i in range(1500):
        acc += float(np.clip(x + 0.001 * i * y, lo, hi) @ y)
    return acc


def calibrate() -> list[float]:
    """CPU times of CALIBRATION_SAMPLES runs of calibration_loop."""
    out = []
    for _ in range(CALIBRATION_SAMPLES):
        start = time.thread_time()
        calibration_loop()
        out.append(time.thread_time() - start)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--out")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, HERE)
    import workloads

    commands = workloads.WORKLOADS[args.workload]
    scenario_files = [os.path.join(ROOT, s)
                      for s in workloads.scenarios(args.workload)]
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    import oblique_skorohod.cli as cli
    from oblique_skorohod import scenario

    tracer = None
    if args.spans:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    for path in scenario_files:
        scenario.load_scenario(path)
    setup_s = time.perf_counter() - t0

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"imported {cli.__file__}, not the checkout's src/",
              file=sys.stderr)
        return 2

    import json
    import resource
    import traceback

    result = {"setup_s": setup_s, "calibration_s": [calibrate()],
              "commands": []}
    if not args.setup_only:
        run = cli.main if tracer is None else tracer.wrap(cli.main, "cli.main")
        for kind, sc in commands:
            argv = workloads.argv(kind, sc, args.out, args.seed)
            start, cpu = time.perf_counter(), time.process_time()
            try:
                rc = run(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # noqa: BLE001  (a crash is a failed command)
                traceback.print_exc()
                rc = -1
            result["commands"].append({"kind": kind, "scenario": sc, "rc": rc,
                                       "seconds": time.perf_counter() - start,
                                       "cpu_seconds": time.process_time() - cpu})
            result["calibration_s"].append(calibrate())
    if tracer is not None:
        tracer.restore()
        result["layers"] = spans.layer_metrics(tracer.spans(), tracer.names,
                                               tracer.counters)
        result["trace_missing"] = tracer.missing
        spans.save(args.spans, tracer)
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
