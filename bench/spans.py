"""Span tracer for the benchmark's traced run.

The tracer wraps library functions at the module attribute through which
their caller looks them up (for example `solver.project_set`, the name the
substep loop resolves at call time) and restores every attribute
afterwards.  A span is a row (id, name, start, end, parent), parent -1 for
a root.  Each thread keeps its own parent stack and appends its rows to its
own flat buffer, so rows of two threads never interleave.  A thread whose
stack is empty, such as a worker of the Monte Carlo pool, takes the
innermost span opened with `adopt=True` as its parent.  Spans stay in
memory until the caller writes them out.

A span's self time is its duration minus the part of its interval that
its child spans cover; children that overlap (pool threads) count once.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

FACE_TOL = 1e-9  # a polytope result violating a face by more is infeasible

# Per-value helpers that would put a span on every float written.
OUTPUT_SKIP = ("fmt_float", "to_jsonable")


class _ThreadState(threading.local):
    def __init__(self, buffers: list, lock):
        self.stack: list = []
        self.rows = array("d")  # id, name, start, end, parent per span
        with lock:
            buffers.append(self.rows)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._buffers: list = []
        self._local = _ThreadState(self._buffers, threading.Lock())
        self._adopt = -1
        self._patches: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def spans(self) -> np.ndarray:
        """Every span recorded so far, one row (id, name, start, end, parent)."""
        return np.concatenate([np.frombuffer(b, dtype=float)
                               for b in self._buffers]).reshape(-1, 5)

    def wrap(self, fn, name: str, after=None, adopt: bool = False):
        """fn recording one span per call.  after(args, result) runs outside
        the span and returns the value handed back to the caller."""
        nid = self.name_id(name)
        clock = time.perf_counter
        ids = self._ids
        tracer = self

        def traced(*args, **kwargs):
            local = tracer._local
            stack = local.stack
            parent = stack[-1] if stack else tracer._adopt
            sid = next(ids)
            stack.append(sid)
            if adopt:
                outer, tracer._adopt = tracer._adopt, sid
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counters[name + ".errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                if adopt:
                    tracer._adopt = outer
                local.rows.extend((sid, nid, start, end, parent))
            if after is not None:
                result = after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr: str, name: str, after=None,
              adopt: bool = False):
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._patches.append((module, attr, fn))
        setattr(module, attr, self.wrap(fn, name, after, adopt))

    def restore(self):
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def check_feasible(self, domain, result):
        """Count a result on a polytope and whether it violates a face.

        The check runs after its span has closed; its time is recorded as a
        `trace.check` span under the caller so no layer's self time holds it.
        """
        if not _is_polytope(domain):
            return
        start = time.perf_counter()
        viol = float((domain.normals @ np.asarray(result)
                      - domain.offsets).max())
        self.counters["convex.polytope_results"] += 1
        if viol > FACE_TOL:
            self.counters["convex.infeasible_results"] += 1
        local = self._local
        parent = local.stack[-1] if local.stack else self._adopt
        local.rows.extend((next(self._ids), self.name_id("trace.check"),
                           start, time.perf_counter(), parent))


def _is_polytope(domain) -> bool:
    return (domain.kind == "halfspace_intersection"
            and domain.normals.shape[0] > 0)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported oblique_skorohod package."""
    from importlib import import_module

    mod = {m: import_module(f"oblique_skorohod.{m}") for m in
           ("cli", "solver", "sde", "diagnostics", "scenario", "convex",
            "field", "output")}

    def counted(key):
        def after(args, sol):
            tracer.counters[key] += sol.x_quad.shape[0] - 1
            return sol
        return after

    def project_after(args, result):
        tracer.check_feasible(args[0], result)
        return result

    def resolvent_after(args, prox):
        domain = args[0].domain
        if not _is_polytope(domain):
            return tracer.wrap(prox, "convex.resolvent")

        def checked(prox_args, result):
            tracer.check_feasible(domain, result)
            return result
        return tracer.wrap(prox, "convex.resolvent", after=checked)

    def field_after(args, field_at):
        return tracer.wrap(field_at, "field.eval")

    def bytes_after(args, result):
        tracer.counters["output.bytes"] += len(args[1].encode("utf-8"))
        return result

    p = tracer.patch
    p(mod["cli"], "solve_skorohod", "solver.solve_skorohod")
    p(mod["cli"], "monte_carlo", "sde.monte_carlo", adopt=True)
    p(mod["solver"], "solve_penalized", "solver.solve_penalized",
      after=counted("solver.substeps"))
    p(mod["solver"], "mollify", "paths.mollify")
    for caller in (mod["solver"], mod["sde"]):
        p(caller, "make_resolvent", "convex.make_resolvent",
          after=resolvent_after)
        p(caller, "make_field_eval", "field.make_field_eval",
          after=field_after)
        p(caller, "project_set", "convex.project_set", after=project_after)
        p(caller, "set_distance", "convex.set_distance")
    p(mod["sde"], "solve_svi_path", "sde.solve_svi_path",
      after=counted("sde.substeps"))
    p(mod["sde"], "brownian_path", "sde.brownian_path")
    p(mod["sde"], "vi_residual", "diagnostics.vi_residual")
    for attr in _public_functions(mod["diagnostics"]):
        p(mod["diagnostics"], attr, f"diagnostics.{attr}")
    p(mod["diagnostics"], "project_set", "convex.project_set",
      after=project_after)
    p(mod["scenario"], "load_scenario", "scenario.load_scenario")
    p(mod["scenario"], "validation_report", "scenario.validation_report")
    p(mod["convex"], "probe_h0", "convex.probe_h0")
    p(mod["field"], "validate_field", "field.validate_field")
    for attr in _public_functions(mod["output"]):
        if attr not in OUTPUT_SKIP:
            p(mod["output"], attr, f"output.{attr}",
              after=bytes_after if attr == "write_text" else None)


def _public_functions(module) -> list[str]:
    return sorted(name for name, obj in vars(module).items()
                  if inspect.isfunction(obj) and not name.startswith("_")
                  and obj.__module__ == module.__name__)


def self_times(spans: np.ndarray) -> np.ndarray:
    """Self time of each row: its duration minus the union of its
    children's intervals, each child clipped to the parent's interval."""
    out = spans[:, 3] - spans[:, 2]
    if spans.shape[0] == 0:
        return out
    row_of = np.full(int(spans[:, 0].max()) + 1, -1, dtype=np.int64)
    row_of[spans[:, 0].astype(np.int64)] = np.arange(spans.shape[0])
    child = np.flatnonzero(spans[:, 4] >= 0)
    parents = spans[child, 4].astype(np.int64)
    order = np.lexsort((spans[child, 2], parents))
    child, parents = child[order], parents[order]
    for group in np.split(np.arange(child.size),
                          np.flatnonzero(np.diff(parents)) + 1):
        p = row_of[parents[group[0]]] if group.size else -1
        if p < 0:
            continue
        lo = np.maximum(spans[child[group], 2], spans[p, 2])
        hi = np.minimum(spans[child[group], 3], spans[p, 3])
        keep = hi > lo
        out[p] -= _union_length(lo[keep], hi[keep])
    return out


def _union_length(lo: np.ndarray, hi: np.ndarray) -> float:
    """Length covered by the intervals [lo, hi), sorted by lo."""
    if lo.size == 0:
        return 0.0
    reach = np.maximum.accumulate(hi)
    first = np.flatnonzero(np.r_[True, lo[1:] > reach[:-1]])
    ends = reach[np.r_[first[1:] - 1, lo.size - 1]]
    return float((ends - lo[first]).sum())


def aggregate(spans: np.ndarray, names: list[str]) -> dict:
    """Span name -> (calls, inclusive seconds, self seconds)."""
    nid = spans[:, 1].astype(np.int64)
    k = len(names)
    calls = np.bincount(nid, minlength=k)
    total = np.bincount(nid, weights=spans[:, 3] - spans[:, 2], minlength=k)
    own = np.bincount(nid, weights=self_times(spans), minlength=k)
    return {name: (int(calls[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(names)}


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans: np.ndarray, names: list[str], counters) -> dict:
    """Per-layer metrics of one traced iteration (see BENCHMARK.json).

    `*_calls` and other counts are whole numbers, `*_us` are self
    microseconds per call, `*_s` are inclusive seconds summed over calls.
    Spans of pool threads overlap, so on the ensemble the summed times and
    convex.self_share (convex self time over command time) count each
    thread's share, waits for the interpreter lock included.
    """
    agg = aggregate(spans, names)

    def calls(n):
        return agg.get(n, (0, 0.0, 0.0))[0]

    def total(n):
        return agg.get(n, (0, 0.0, 0.0))[1]

    def own(n):
        return agg.get(n, (0, 0.0, 0.0))[2]

    def us(n):
        return _per(own(n), calls(n), 1e6)

    commands = total("cli.main")
    convex_self = sum(row[2] for n, row in agg.items()
                      if n.startswith("convex."))
    solver_sub = counters.get("solver.substeps", 0.0)
    sde_sub = counters.get("sde.substeps", 0.0)
    return {
        "solver.levels": calls("solver.solve_penalized"),
        "solver.substeps": int(solver_sub),
        "solver.us_per_substep": _per(own("solver.solve_penalized"),
                                      solver_sub, 1e6),
        "field.eval_calls": calls("field.eval"),
        "field.eval_us": us("field.eval"),
        "convex.resolvent_calls": calls("convex.resolvent"),
        "convex.resolvent_us": us("convex.resolvent"),
        "convex.project_set_calls": calls("convex.project_set"),
        "convex.project_set_us": us("convex.project_set"),
        "convex.set_distance_calls": calls("convex.set_distance"),
        "convex.set_distance_us": us("convex.set_distance"),
        "convex.infeasible_projection_ratio": _per(
            counters.get("convex.infeasible_results", 0.0),
            counters.get("convex.polytope_results", 0.0)),
        "convex.self_share": _per(convex_self, commands),
        "sde.paths": calls("sde.solve_svi_path"),
        "sde.path_s": _per(total("sde.solve_svi_path"),
                           calls("sde.solve_svi_path")),
        "sde.brownian_us": us("sde.brownian_path"),
        "sde.substeps": int(sde_sub),
        "sde.us_per_substep": _per(own("sde.solve_svi_path"), sde_sub, 1e6),
        "sde.paths_failed": int(counters.get("sde.solve_svi_path.errors", 0)),
        "sde.path_overlap": _per(total("sde.solve_svi_path"),
                                 total("sde.monte_carlo")),
        "diagnostics.vi_residual_s": total("diagnostics.vi_residual"),
        "diagnostics.annexB_bound_s": total("diagnostics.annexB_bound"),
        "diagnostics.convergence_slope_s":
            total("diagnostics.convergence_slope"),
        "scenario.load_s": total("scenario.load_scenario"),
        "scenario.validation_report_s": total("scenario.validation_report"),
        "field.validate_field_s": total("field.validate_field"),
        "convex.probe_h0_s": total("convex.probe_h0"),
        "paths.mollify_s": total("paths.mollify"),
        "output.csv_s": total("output.solution_csv_text")
        + total("output.path_csv_text"),
        "output.json_s": total("output.summary_json_text"),
        "output.write_s": total("output.write_text"),
        "output.bytes": int(counters.get("output.bytes", 0)),
        "cli.self_s": own("cli.main"),
    }


def save(path: str, tracer: Tracer) -> None:
    """Write the span rows and the name table to an .npz file."""
    np.savez(path, spans=tracer.spans(), names=np.array(tracer.names))
