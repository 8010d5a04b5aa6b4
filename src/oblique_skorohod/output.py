"""Deterministic result serialization.

Floats are written with repr(), the shortest string that round-trips the
exact binary value, so identical inputs produce byte-identical files on any
platform.  JSON keys are sorted for the same reason.
"""

from __future__ import annotations

import json
import os
import platform

import numpy as np

from .solver import SkorohodSolution


def path_csv_text(dt: float, names, values) -> str:
    """Nodes of a path on a grid of step dt as CSV: t, then one column per
    name (values holds one row per node).  LF line endings.  Raises
    ValueError on a non-finite value, naming the first."""
    values = np.asarray(values, dtype=float)
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ValueError(
            f"refusing to serialize non-finite value {float(bad[0])}")
    # one string per block of 64 rows: few line strings are alive at once
    dt, text = float(dt), [",".join(["t", *names])]
    for lo in range(0, len(values), 64):
        text.append("\n".join(
            ",".join([repr(i * dt), *map(repr, row)])
            for i, row in enumerate(values[lo:lo + 64].tolist(), lo)))
    text.append("")  # the last LF, without a copy of the text
    return "\n".join(text)


def to_jsonable(obj):
    """Recursively convert numpy scalars/arrays and tuples for json.dumps."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if not np.isfinite(x):
            return None
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def summary_json_text(summary: dict) -> str:
    return json.dumps(to_jsonable(summary), sort_keys=True, indent=2) + "\n"


def versions() -> dict:
    from . import __version__

    return {"oblique_skorohod": __version__, "numpy": np.__version__,
            "python": platform.python_version()}


def solution_summary(sol: SkorohodSolution) -> dict:
    """The JSON-safe core of a solution: grid shape, eps, refinement
    history, total variation, and the solver diagnostics block."""
    return {
        "eps_final": sol.eps,
        "dt": sol.grid_dt,
        "horizon": sol.horizon,
        "dim": sol.x.dim,
        "tv_k": sol.tv_k,
        "system_id": sol.system_id,
        "refinement_history": [[e, g] for e, g in sol.refinement_history],
        "diagnostics": to_jsonable(sol.diagnostics),
        "x_final": sol.x.values[-1],
        "k_final": sol.k.values[-1],
    }


def write_text(path: str, text: str) -> str:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path
