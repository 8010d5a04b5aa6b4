"""Tests of how the runner turns iteration timings into metrics."""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _iteration(cpu, wall, bursts):
    return {"traced": False, "peak_rss_kib": 2048, "calibration_s": bursts,
            "commands": [{"kind": "solve-det", "scenario": "s", "rc": 0,
                          "seconds": wall, "cpu_seconds": cpu}]}


def test_times_scale_by_their_own_calibration():
    r = run.Run()
    # The second iteration ran on a machine half as fast: its command and
    # its calibration samples both took twice as long.
    r.iterations = [_iteration(2.0, 2.1, [[0.01, 0.01], [0.01, 0.03]]),
                    _iteration(4.0, 4.3, [[0.02, 0.02], [0.02, 0.06]])]
    r.setups = [(0.2, [0.01, 0.01, 0.5]), (0.2, [0.02, 0.02, 0.02])]
    got = run.end_to_end(r, 1.0)
    ref = run.CAL_REF_S / 0.01
    assert got["cpu_ref_s"] == pytest.approx([2.0 * ref, 2.0 * ref])
    e = workloads.SETUP_CAL_EXPONENT
    assert got["setup_s"] == pytest.approx([0.2 * ref ** e,
                                            0.2 * (ref / 2) ** e])
    assert got["cpu_s"] == [2.0, 4.0] and got["wall_s"] == [2.1, 4.3]
    assert got["setup_raw_s"] == [0.2, 0.2]
    assert got["solve_det_s"] == [2.1, 4.3]
    assert got["peak_rss_mib"] == [2.0, 2.0]


def test_the_exponent_sets_how_much_of_the_slowdown_is_taken_out():
    r = run.Run()
    r.iterations = [_iteration(2.0, 2.0, [[0.01]]),
                    _iteration(3.0, 3.0, [[0.04]])]
    got = run.end_to_end(r, 0.5)["cpu_ref_s"]
    ref = run.CAL_REF_S / 0.01
    assert got == pytest.approx([2.0 * ref ** 0.5, 3.0 * (ref / 4) ** 0.5])
    assert run.end_to_end(r, 0.0)["cpu_ref_s"] == [2.0, 3.0]


def test_traced_iterations_stay_out_of_the_end_to_end_figures():
    r = run.Run()
    traced = dict(_iteration(9.0, 9.0, [[0.01]]), traced=True)
    r.iterations = [_iteration(2.0, 2.0, [[0.01]]), traced]
    assert run.end_to_end(r, 1.0)["cpu_s"] == [2.0]


def test_calibration_burst():
    samples = child.calibrate()
    assert len(samples) == child.CALIBRATION_SAMPLES
    assert all(s > 0 for s in samples)
