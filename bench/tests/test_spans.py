"""Tests of the benchmark's span tracer."""

import os
import sys
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import spans  # noqa: E402


def test_self_time_on_a_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] that overlap (two
    # threads), and c [8, 12] that outlives it; a has a child a1 [2, 3].
    # Rows are stored in the order spans close.
    tree = np.array([(2, 2, 2.0, 3.0, 1), (1, 1, 1.0, 4.0, 0),
                     (3, 1, 3.0, 6.0, 0), (0, 0, 0.0, 10.0, -1),
                     (4, 1, 8.0, 12.0, 0)])
    got = spans.self_times(tree)
    assert got == pytest.approx([1.0, 2.0, 3.0, 10.0 - 5.0 - 2.0, 4.0])
    agg = spans.aggregate(tree, ["root", "child", "grandchild"])
    assert agg["child"] == pytest.approx((3, 10.0, 9.0))


def test_pool_threads_take_the_adopting_span_as_parent():
    tracer = spans.Tracer()
    leaf = tracer.wrap(lambda v: v + 1, "leaf")

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf, range(4)))

    root = tracer.wrap(fan_out, "root", adopt=True)
    assert root() == [1, 2, 3, 4]
    by_name = {}
    for sid, nid, _, _, parent in tracer.spans():
        by_name.setdefault(tracer.names[int(nid)], []).append((sid, parent))
    (root_id, root_parent), = by_name["root"]
    assert root_parent == -1
    assert [p for _, p in by_name["leaf"]] == [root_id] * 4


def test_patch_restores_the_module_attribute():
    mod = types.ModuleType("fake")
    mod.f = lambda: 7
    original = mod.f
    tracer = spans.Tracer()
    tracer.patch(mod, "f", "fake.f")
    tracer.patch(mod, "absent", "fake.absent")
    assert mod.f is not original and mod.f() == 7
    tracer.restore()
    assert mod.f is original
    assert tracer.missing == ["fake.absent"]
    assert tracer.spans().shape == (1, 5)
