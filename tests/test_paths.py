import math

import numpy as np
import pytest

from oblique_skorohod import SampledPath, mollify
from oblique_skorohod.paths import snapped_width, total_variation


def path_1d(values, dt=1.0, extension="zero"):
    return SampledPath(t0=0.0, dt=dt, values=np.asarray(values, dtype=float),
                       extension=extension)


class TestSampledPath:
    def test_shape_normalization(self):
        p = path_1d([0.0, 1.0, 0.5])
        assert p.values.shape == (3, 1)
        assert p.dim == 1 and p.n_cells == 2

    def test_linear_interpolation(self):
        p = path_1d([0.0, 2.0], dt=1.0)
        assert p.eval(0.5) == pytest.approx(1.0)

    def test_zero_extension_left_of_origin(self):
        p = path_1d([3.0, 1.0], extension="zero")
        assert p.eval(-0.5)[0] == 0.0

    def test_frozen_extension_left_of_origin(self):
        p = path_1d([3.0, 1.0], extension="frozen")
        assert p.eval(-0.5)[0] == 3.0

    def test_eval_beyond_end_rejected(self):
        p = path_1d([0.0, 1.0])
        with pytest.raises(ValueError):
            p.eval(1.5)

    def test_single_cell_minimum(self):
        with pytest.raises(ValueError):
            SampledPath(t0=0.0, dt=1.0, values=np.zeros((1, 1)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            path_1d([0.0, np.nan])


class TestTotalVariation:
    def test_up_down_nodes(self):
        assert total_variation(path_1d([0.0, 1.0, 0.5])) == pytest.approx(1.5)

    def test_constant_path(self):
        assert total_variation(path_1d([2.0, 2.0, 2.0])) == 0.0

    def test_monotone_telescopes(self):
        p = path_1d([0.0, 0.3, 1.1, 2.0])
        assert total_variation(p) == pytest.approx(2.0)

    def test_additive_over_adjacent_intervals(self):
        rng = np.random.default_rng(3)
        p = path_1d(rng.normal(size=11), dt=0.1)
        whole = total_variation(p, 0.0, 1.0)
        split = total_variation(p, 0.0, 0.4) + total_variation(p, 0.4, 1.0)
        assert abs(whole - split) <= 1e-12

    def test_interpolated_endpoints(self):
        p = path_1d([0.0, 2.0], dt=1.0)
        assert total_variation(p, 0.25, 0.75) == pytest.approx(1.0)

    def test_reversed_interval_rejected(self):
        p = path_1d([0.0, 1.0])
        with pytest.raises(ValueError):
            total_variation(p, 0.8, 0.2)

    def test_bit_identical_to_the_list_built_points(self):
        # the point array is one concatenate of the interpolated end rows
        # and the nodes; the list of rows it replaced is kept here as the
        # reference, and the two agree bit for bit
        def listed(p, a, b):
            def at(s):
                i = min(int(s), p.n_cells - 1)
                w = min(max(s - i, 0.0), 1.0)
                return (1.0 - w) * p.values[i] + w * p.values[i + 1]
            sa = min(max((a - p.t0) / p.dt, 0.0), float(p.n_cells))
            sb = min(max((b - p.t0) / p.dt, 0.0), float(p.n_cells))
            if sb <= sa:
                return 0.0
            i0 = int(math.ceil(sa - 1e-12))
            i1 = int(math.floor(sb + 1e-12))
            pts = [at(sa)]
            if i1 >= i0:
                pts.extend(p.values[i0:i1 + 1])
            pts.append(at(sb))
            arr = np.asarray(pts)
            return float(np.sum(np.linalg.norm(np.diff(arr, axis=0), axis=1)))

        rng = np.random.default_rng(11)
        for case in range(200):
            d = 1 + case % 4
            cells = int(rng.integers(1, 700))
            dt = float(rng.choice([1.0 / 512.0, 0.1, 0.37]))
            p = SampledPath(t0=float(rng.normal()), dt=dt,
                            values=rng.normal(size=(cells + 1, d)))
            spans = [(p.t0, p.t_end), (None, None)]
            # node endpoints, then endpoints inside cells
            i, j = sorted(rng.integers(0, cells + 1, size=2))
            spans.append((p.t0 + i * dt, p.t0 + j * dt))
            a, b = sorted(rng.uniform(p.t0, p.t_end, size=2))
            spans.append((a, b))
            for a, b in spans:
                got = total_variation(p, a, b)
                a = p.t0 if a is None else a
                b = p.t_end if b is None else b
                assert got == listed(p, a, b), (case, a, b)

    def test_out_of_range_rejected(self):
        p = path_1d([0.0, 1.0])
        with pytest.raises(ValueError):
            total_variation(p, 0.0, 2.0)


class TestSnappedWidth:
    def test_snaps_up_to_grid(self):
        assert snapped_width(0.0101, 0.001) == pytest.approx(0.011)

    def test_exact_multiple_kept(self):
        assert snapped_width(0.01, 0.001) == pytest.approx(0.01)

    def test_below_one_cell_becomes_one_cell(self):
        assert snapped_width(1e-5, 0.001) == pytest.approx(0.001)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            snapped_width(0.0, 0.001)


class TestMollify:
    def test_constant_after_window(self):
        p = path_1d([4.0] * 11, dt=0.1)
        q = mollify(p, 0.3)
        # beyond t = eps the zero-extension head has left the window
        assert np.allclose(q.values[3:], 4.0, atol=1e-12)

    def test_ramp_shifts_by_half_window(self):
        t = 0.01 * np.arange(201)
        p = path_1d(t, dt=0.01)
        q = mollify(p, 0.1)
        expect = t[10:] - 0.05
        assert np.max(np.abs(q.values[10:, 0] - expect)) <= 1e-12

    def test_one_cell_window_contracts_sup_norm(self):
        rng = np.random.default_rng(5)
        p = path_1d(rng.normal(size=51), dt=0.1)
        q = mollify(p, 0.1)
        assert np.abs(q.values).max() <= np.abs(p.values).max() + 1e-12

    def test_stays_within_modulus_of_input(self):
        rng = np.random.default_rng(8)
        vals = np.cumsum(rng.normal(scale=0.1, size=81))
        vals -= vals[0]
        p = path_1d(vals, dt=0.05)
        eps = 0.2
        q = mollify(p, eps)
        gap = np.abs(q.values - p.values).max()
        # modulus of continuity at eps: the largest change over <= 4 cells
        modulus = max(np.abs(vals[k:] - vals[:-k]).max() for k in range(1, 5))
        assert gap <= modulus + 1e-12

    def test_translation_invariance_on_interior_nodes(self):
        t = 0.1 * np.arange(21)
        vals = np.sin(t)
        a = mollify(path_1d(vals, dt=0.1), 0.3)
        b = mollify(SampledPath(t0=5.0, dt=0.1, values=vals[:, None]), 0.3)
        assert np.array_equal(a.values, b.values)

    def test_frozen_extension_used_for_state_paths(self):
        p = path_1d([2.0, 2.0, 2.0, 2.0], dt=1.0, extension="frozen")
        q = mollify(p, 2.0)
        assert np.allclose(q.values, 2.0, atol=1e-15)

    def test_rejects_subcell_width(self):
        p = path_1d([0.0, 1.0], dt=0.5)
        with pytest.raises(ValueError):
            mollify(p, 0.2)

    def test_mollified_ramp_slope_away_from_head(self):
        t = 0.01 * np.arange(201)
        q = mollify(path_1d(t, dt=0.01), 0.1)
        slope = np.diff(q.values, axis=0) / 0.01
        assert np.allclose(slope[11:], 1.0, atol=1e-10)

