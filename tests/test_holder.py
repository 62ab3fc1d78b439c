"""Exponent maps: brute-force equality, scale laws, and normalization."""

import math
import sys
import threading
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from mfcal import holder
from mfcal.attention import mono_backward
from mfcal.cascade import analytic_alpha, generate_binomial, generate_product_2d
from mfcal.grid import window_sum_adjoint
from mfcal.io import ContainerRows, write_field
from mfcal.holder import (
    NormState,
    ScaleSet,
    box_measures,
    holder_map,
    interior_view,
    log_slope_weights,
    mean_alpha,
    normalize,
    normalize_vjp,
    slope_from_measures,
    _normalize_with_cache,
    _unclipped_interior,
)
from mfcal.selftest import (
    _brute_frozen_norm,
    _brute_holder,
    _probe_gradient,
    _random_mono_params,
    _random_norm,
)

SCALES = ScaleSet((2, 3, 4))


class TestScaleSet:
    def test_needs_two_scales(self):
        with pytest.raises(ValueError, match="two scales"):
            ScaleSet((3,))

    def test_needs_strict_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ScaleSet((2, 2, 4))

    def test_sides_must_be_positive(self):
        with pytest.raises(ValueError):
            ScaleSet((0, 2))

    def test_slope_weights_reproduce_a_pure_power_law(self):
        weights = log_slope_weights(SCALES)
        ys = [3.0 * math.log(k) + 7.0 for k in SCALES]
        assert float(np.dot(weights, ys)) == pytest.approx(3.0, abs=1e-12)


class TestBoxMeasures:
    def test_constant_field_interior_masses(self):
        c, eps = 0.7, 1e-6
        measures = box_measures(np.full((12, 12), c), SCALES, epsilon=eps)
        for side, mu in zip(SCALES, measures):
            assert mu[6, 6] == pytest.approx(c * side * side + eps, rel=1e-12)

    def test_delta_field_counts_spike_coverage(self):
        field = np.zeros((9, 9))
        field[4, 4] = 1.0
        mu = box_measures(field, SCALES, epsilon=0.0)[2]  # side 4
        assert mu[4, 4] == 1.0
        assert mu[0, 0] == 0.0

    def test_zero_field_floors_at_epsilon(self):
        measures = box_measures(np.zeros((6, 6)), SCALES, epsilon=1e-6)
        for mu in measures:
            assert np.all(mu == 1e-6)

    def test_negative_measure_rejected(self):
        with pytest.raises(ValueError, match="measure must be nonnegative"):
            box_measures(np.array([[1.0, -1.0]]), SCALES)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            box_measures(np.ones((4, 4)), SCALES, epsilon=-1.0)

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match=f"epsilon must be finite and >= 0, got {epsilon}"):
            box_measures(np.ones((4, 4)), SCALES, epsilon=epsilon)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_outputs_are_c_contiguous(self, seed):
        rng = np.random.default_rng(seed)
        for shape in ((10, 7), (10, 7, 5)):
            for mu in box_measures(rng.uniform(size=shape), SCALES):
                assert mu.shape == shape
                assert mu.flags.c_contiguous


class TestHolderMap:
    def test_zero_mass_windows_at_epsilon_zero_raise(self):
        field = np.zeros((8, 8))
        field[0, 0] = 1.0
        with pytest.raises(ValueError, match="windowed masses are <= 0"):
            holder_map(field, SCALES, epsilon=0.0)
        assert np.all(np.isfinite(holder_map(field, SCALES, epsilon=1e-6)))

    def test_synthetic_cubic_power_law(self):
        measures = [np.full((5, 5), 5.0 * k ** 3) for k in SCALES]
        slope = slope_from_measures(measures, SCALES)
        assert np.abs(slope - 3.0).max() < 1e-12

    def test_constant_field_interior_slope_is_two(self):
        alpha = holder_map(np.full((32, 32), 0.37), SCALES, epsilon=0.0)
        interior = interior_view(alpha, SCALES)
        assert np.abs(interior - 2.0).max() < 1e-11

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_brute_force_exactly_on_integer_fields(self, seed):
        rng = np.random.default_rng(seed)
        field = rng.integers(1, 10, size=(16, 16, 2)).astype(np.float64)
        ours = holder_map(field, SCALES, epsilon=0.0)
        reference = _brute_holder(field, SCALES.sides, 0.0)
        assert np.array_equal(ours, reference)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.6667, 0.95])
    def test_product_cascade_map_is_the_sum_of_two_line_maps(self, p):
        # window (i, j) of side k holds r_k(i) * r_k(j), the line's clipped window
        # sums, so every exponent, border ones included, is a(i) + a(j)
        a = holder_map(generate_binomial(p, 4)[None, :], SCALES, epsilon=0.0)[0]
        square = generate_product_2d(p, 4)[:, :, None]
        reference = _brute_holder(square, SCALES.sides, 0.0)[:, :, 0]
        assert np.abs(np.add.outer(a, a) - reference).max() <= 1e-12

    def test_scale_invariance_of_exponents(self):
        rng = np.random.default_rng(9)
        field = rng.uniform(0.5, 2.0, (20, 20, 3))
        base = holder_map(field, SCALES, epsilon=0.0)
        scaled = holder_map(173.25 * field, SCALES, epsilon=0.0)
        np.testing.assert_allclose(scaled, base, rtol=0, atol=1e-9)

    def test_threaded_path_is_bit_identical(self, monkeypatch):
        rng = np.random.default_rng(10)
        field = rng.uniform(0.1, 1.0, (32, 32, 8))
        # one band at the default BAND_BYTES: force seven, so the workers split them
        monkeypatch.setattr(holder, "BAND_BYTES", band_bytes(field.shape, 2, 5))
        single = holder_map(field, SCALES, threads=1)
        for threads in (2, 3, 8):
            assert np.array_equal(holder_map(field, SCALES, threads=threads), single)

    def test_line_cascade_exponent_distribution_tracks_the_oracle(self):
        # 1-D cascade embedded as a 1 x 2^k field; sliding windows are not
        # dyadically aligned, so per-cell estimates scatter, but the
        # distribution stays centered on the closed form (bound frozen
        # from the oracle run: mean error 0.012, mean |error| 0.33).
        depth, p = 10, 2 / 3
        line = generate_binomial(p, depth)
        est = holder_map(line[None, :], SCALES, epsilon=0.0)[0]
        ones = np.bitwise_count(np.arange(2 ** depth, dtype=np.uint64)).astype(int)
        exact = np.array([analytic_alpha((depth - o) / depth, p) for o in ones])
        lo, hi = 2, 2 ** depth - 2
        err = est[lo:hi] - exact[lo:hi]
        assert abs(err.mean()) < 0.05
        assert np.abs(err).mean() < 0.5

    def test_requires_two_scales(self):
        with pytest.raises(ValueError):
            holder_map(np.ones((8, 8)), ScaleSet((3,)))

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            holder_map(np.ones((4, 4)), SCALES, epsilon=-1.0)

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match=f"epsilon must be finite and >= 0, got {epsilon}"):
            holder_map(np.ones((4, 4)), SCALES, epsilon=epsilon)

    @pytest.mark.parametrize("shape, threads", [
        ((64, 64, 16), 1), ((64, 64, 16), 2), ((256, 256), 1), ((256, 256), 2),
    ], ids=["stack-1", "stack-2", "2d-1", "2d-2"])
    def test_peak_memory_is_the_output_plus_chunk_temporaries(self, shape, threads):
        # no (S, H, W, C) block of masses: the output plus a padded copy,
        # a row pass and a mass array of each worker's chunk
        field = np.random.default_rng(14).uniform(0.1, 1.0, shape)
        holder._kept.clear()  # so the traced call allocates its band buffers
        tracemalloc.start()
        try:
            holder_map(field, SCALES, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * field.nbytes

    def test_peak_memory_at_the_working_shape_is_the_output_plus_tiles(self):
        # 224 x 224 x 64: the output is 25.7 MB; a worker's tile and its
        # temporaries are a few band-sized arrays, whatever the field's size
        field = np.random.default_rng(26).uniform(0.1, 1.0, (224, 224, 64))
        holder._kept.clear()
        tracemalloc.start()
        try:
            holder_map(field, SCALES, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= field.nbytes + (16 << 20), f"{(peak - field.nbytes) / 2**20:.1f} MiB"


def band_bytes(shape, halo, rows):
    """A ``BAND_BYTES`` that cuts a field of ``shape`` into the fewest equal bands of <= ``rows`` rows."""
    channels = shape[2] if len(shape) == 3 else 1
    return rows * (shape[1] + 2 * halo) * channels * 8


class TestBandLayout:
    """The shape alone fixes the bands; ``threads`` only shares them out."""

    @staticmethod
    def bands(shape, halo, threads):
        seen = []  # list.append is atomic, so workers may share it
        holder._run_bands(lambda tile, lo, hi: seen.append((lo, hi)), np.zeros(shape), halo,
                          threads, lambda rows: [])
        return sorted(seen)

    @pytest.mark.parametrize("shape, halo, heights", [
        ((224, 224, 32), 2, [8] * 28),          # exponent-map and train-step, map
        ((224, 224, 32), 3, [8] * 28),          # and adjoint
        ((56, 56, 64), 2, [14] * 4),            # validation-sweep, map
        ((56, 56, 64), 3, [14] * 4),            # and adjoint
        ((1024, 1024, 1), 2, [61] * 16 + [48]),  # spectrum's clt field
        ((64, 64, 64), 2, [13] * 4 + [12]),     # selftest's banded stack
        ((64, 64, 8), 2, [64]),                 # one band: the calling thread alone
        ((1, 9, 3), 4, [1]),
    ], ids=["224x32-map", "224x32-adjoint", "56x64-map", "56x64-adjoint", "clt-1024",
            "64x64-map", "64x8-one-band", "one-row"])
    def test_bands_depend_on_the_shape_alone(self, shape, halo, heights):
        expected, lo = [], 0
        for height in heights:
            expected.append((lo, lo + height))
            lo += height
        for threads in (1, 2, 3, 8):
            assert self.bands(shape, halo, threads) == expected, f"{threads} threads"

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 6])
    def test_forced_bands_are_the_fewest_of_equal_height(self, rows, monkeypatch):
        shape = (17, 5, 2)
        monkeypatch.setattr(holder, "BAND_BYTES", band_bytes(shape, 2, rows))
        layout = self.bands(shape, 2, 1)
        heights = [hi - lo for lo, hi in layout]
        assert len(layout) == -(-17 // rows)  # the fewest bands of at most rows rows
        assert all(height == heights[0] for height in heights[:-1]) and heights[-1] <= heights[0]
        assert [lo for lo, _ in layout] == [0] + [hi for _, hi in layout[:-1]]
        assert layout[-1][1] == 17
        for threads in (2, 3, 8):
            assert self.bands(shape, 2, threads) == layout


class TestOneGroup:
    """A single group runs on the calling thread; no executor is built for it."""

    @pytest.mark.parametrize("units, threads", [(range(1), 4), (range(5), 1), (range(0), 2)],
                             ids=["one unit", "one thread", "no unit"])
    def test_no_executor(self, units, threads, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an executor was built for one group")

        monkeypatch.setattr(holder, "ThreadPoolExecutor", refuse)
        entered = []

        @contextmanager
        def scratch():
            entered.append(threading.get_ident())
            yield [10]

        assert holder._run_units(lambda unit, add: unit + add, units, scratch, threads) == \
            [unit + 10 for unit in units]
        assert entered == [threading.get_ident()]

    def test_the_one_band_line_map_builds_no_executor(self, monkeypatch):
        line = generate_binomial(0.3, 10)[None, :]
        expected = holder_map(line, holder.DEFAULT_SCALES, epsilon=0.0, threads=1)
        monkeypatch.setattr(holder, "ThreadPoolExecutor", None)
        assert holder_map(line, holder.DEFAULT_SCALES, epsilon=0.0, threads=2).tobytes() == \
            expected.tobytes()


class TestTwoRoutesAgree:
    """``holder_map`` of an array, and of a container read band by band, give the bytes of
    serial ``slope_from_measures(box_measures(...))``."""

    @pytest.mark.parametrize("field, sides, epsilons, threads, band_rows", [
        (np.random.default_rng(16).uniform(0.1, 1.0, (21, 17)), (2, 3, 4), (0.0, 1e-6), (1, 2, 3),
         (None, 1, 2, 3)),
        (np.random.default_rng(17).uniform(0.1, 1.0, (32, 32, 8)), (2, 3, 4), (0.0, 1e-6), (1, 2, 3),
         (None, 1, 3)),
        (np.maximum(np.random.default_rng(15).normal(size=(48, 48, 5)), 0.0), (2, 3, 4), (1e-6,),
         (1, 2, 3), (None, 7)),
        (np.random.default_rng(18).uniform(0.1, 1.0, (40, 36, 2)), (2, 3, 4), (0.0, 1e-6), (3,),
         (None, 4)),
        # forced band heights: 7 and 11 rows are no multiple of 2 or 3
        (np.random.default_rng(19).uniform(0.1, 1.0, (7, 5, 3)), (2, 3, 4), (0.0, 1e-6), (1, 2, 3),
         (1, 2, 3)),
        (np.random.default_rng(20).uniform(0.1, 1.0, (11, 6)), (2, 5, 9), (0.0, 1e-6), (1, 2, 3),
         (1, 2, 3)),
        (np.random.default_rng(21).uniform(0.1, 1.0, (5, 4, 2)), (1, 2), (0.0, 1e-6), (1, 2, 3),
         (1, 2, 3)),
        # a side past the image: the halo (20 rows) is taller than the field
        (np.random.default_rng(22).uniform(0.1, 1.0, (6, 5, 2)), (3, 40), (0.0, 1e-6), (1, 2, 3),
         (1, 2, 3)),
        (np.random.default_rng(23).uniform(0.1, 1.0, (2, 7, 2)), (2, 5, 9), (0.0, 1e-6), (1, 2, 3),
         (1, 2, 3)),
        # one row: more workers than bands
        (np.random.default_rng(24).uniform(0.1, 1.0, (1, 9, 3)), (2, 5, 9), (0.0, 1e-6), (1, 2, 3),
         (1, 2, 3)),
        (np.random.default_rng(25).uniform(0.1, 1.0, (1, 12)), (3, 40), (0.0, 1e-6), (1, 2, 3),
         (1, 2, 3)),
        # sides that skip rows: each side's row sums extend the last one's by several rows
        (np.random.default_rng(26).uniform(0.1, 1.0, (23, 19, 3)), (2, 4), (0.0, 1e-6), (1, 2, 3),
         (None, 1, 2, 5)),
        (np.random.default_rng(27).uniform(0.1, 1.0, (19, 13, 2)), (1, 3, 5, 8), (0.0, 1e-6),
         (1, 2, 3), (None, 1, 3, 4)),
        (np.maximum(np.random.default_rng(28).normal(size=(17, 15, 2)), 0.0), (1, 3, 5, 8),
         (1e-6,), (1, 2), (None, 2)),
    ], ids=["2d", "uniform-stack", "relu-stack", "fewer-channels-than-threads",
            "uneven-bands", "uneven-bands-2d", "side-one", "side-past-image",
            "shorter-than-halo", "one-row", "one-row-2d", "even-sides", "four-sides",
            "four-sides-relu"])
    def test_byte_identical(self, field, sides, epsilons, threads, band_rows, monkeypatch,
                            tmp_path):
        scales = ScaleSet(sides)
        path = tmp_path / "field.mfr"
        path.write_bytes(write_field(field))
        container = ContainerRows(str(path))  # the same values, read band by band
        for rows in band_rows:
            if rows is not None:
                monkeypatch.setattr(holder, "BAND_BYTES",
                                    band_bytes(field.shape, max(sides) // 2, rows))
            for epsilon in epsilons:
                stored = slope_from_measures(box_measures(field, scales, epsilon), scales)
                for t in threads:
                    for streamed in (holder_map(field, scales, epsilon, threads=t),
                                     holder_map(container, scales, epsilon, t)):
                        assert streamed.shape == field.shape
                        assert streamed.tobytes() == stored.tobytes(), f"{rows} rows, {t} threads"


class TestKeptBuffers:
    """Each worker's band buffers outlive its sweep, for the next sweep of the same shapes.

    No output byte may depend on what a kept buffer holds: between calls
    every kept array is filled with NaN, which any read of a stale value
    would carry into the map or turn into an error.
    """

    @staticmethod
    def poison():
        for kept in holder._kept:
            for array in kept:
                array.fill(np.nan)

    @staticmethod
    def map_shapes(shape, sides, rows):
        # the tile, the row sums and the masses of holder_map's bands of <= rows rows
        w, c = shape[1], math.prod(shape[2:])
        halo = max(sides) // 2
        return [(rows + 2 * halo, w + 2 * halo, c), (rows + halo - min(sides) // 2, w + 2 * halo, c),
                (rows, w, c)]

    @pytest.mark.parametrize("band_rows", [None, 1, 3], ids=["default", "bands-of-1", "bands-of-3"])
    def test_a_poisoned_kept_set_moves_no_byte(self, band_rows, monkeypatch, tmp_path):
        rng = np.random.default_rng(30)
        fields = [rng.uniform(0.1, 1.0, (13, 11, 3)), np.maximum(rng.normal(size=(9, 14)), 0.0)]
        containers = []
        for i, field in enumerate(fields):
            path = tmp_path / f"field{i}.mfr"
            path.write_bytes(write_field(field))
            containers.append(ContainerRows(str(path)))
        other = rng.uniform(0.1, 1.0, (7, 5, 2))  # a sweep of other shapes: the drop path
        if band_rows is not None:
            monkeypatch.setattr(holder, "BAND_BYTES", band_bytes((13, 11, 3), 2, band_rows))
        for sides in ((2, 3, 4), (2, 4), (3, 4)):  # (2, 4) and (3, 4) share their buffer shapes
            scales = ScaleSet(sides)
            for field, container in zip(fields, containers):
                stored = slope_from_measures(box_measures(field, scales), scales).tobytes()
                for threads in (1, 2, 3, 2, 1):
                    for source in (field, container):
                        self.poison()
                        assert holder_map(source, scales, threads=threads).tobytes() == stored
                    self.poison()
                    holder_map(other, scales, threads=threads)

    def test_the_adjoint_ignores_its_poisoned_kept_set(self, monkeypatch):
        rng = np.random.default_rng(31)
        stack = rng.uniform(0.1, 1.0, (12, 10, 4))
        d_alpha = rng.normal(size=4)
        expected = np.zeros_like(stack)
        for w, side, mu in zip(log_slope_weights(SCALES), SCALES, box_measures(stack, SCALES)):
            expected += window_sum_adjoint(w * d_alpha / mu, side)
        params = _random_mono_params(4, rng, True)
        upstream = rng.normal(size=stack.shape)
        holder._kept.clear()
        fresh = mono_backward(stack, params, upstream, SCALES, threads=1)
        for rows in (None, 1, 3):
            if rows is not None:
                monkeypatch.setattr(holder, "BAND_BYTES", rows * (10 + 2 * 3) * 4 * 8)
            for threads in (1, 2, 3, 2, 1):
                for _ in range(2):  # the second call takes the first one's kept sets
                    self.poison()
                    d_stack = np.zeros_like(stack)
                    holder._holder_map_vjp(stack, d_alpha, d_stack, SCALES, 1e-6, threads)
                    assert d_stack.tobytes() == expected.tobytes(), f"{rows} rows, {threads} threads"
                holder_map(stack, SCALES, threads=threads)
                self.poison()  # mono_backward's forward sweep takes these
                grads = mono_backward(stack, params, upstream, SCALES, threads=threads)
                for name, value in vars(fresh).items():
                    assert getattr(grads, name).tobytes() == value.tobytes(), name

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_a_failed_first_band_keeps_its_message_and_spoils_no_later_call(
            self, threads, monkeypatch, tmp_path):
        field = np.random.default_rng(32).uniform(0.1, 1.0, (20, 9, 3))
        bad = field.copy()
        bad[1, 4, 2] = -0.5  # first band
        paths = [tmp_path / "good.mfr", tmp_path / "bad.mfr"]
        for path, values in zip(paths, (field, bad)):
            path.write_bytes(write_field(values))
        monkeypatch.setattr(holder, "BAND_BYTES", band_bytes(field.shape, 2, 4))
        stored = slope_from_measures(box_measures(field, SCALES), SCALES).tobytes()
        good, failing = (ContainerRows(str(path)) for path in paths)
        for _ in range(2):
            assert holder_map(good, SCALES, threads=threads).tobytes() == stored
            self.poison()
            with pytest.raises(ValueError, match=r"^measure must be nonnegative$"):
                holder_map(failing, SCALES, threads=threads)
            self.poison()
            assert holder_map(good, SCALES, threads=threads).tobytes() == stored

    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    def test_a_sweep_keeps_one_set_per_worker_of_its_own_shapes(self, threads, monkeypatch):
        shape = (20, 9, 3)
        monkeypatch.setattr(holder, "BAND_BYTES", band_bytes(shape, 2, 4))  # five bands
        field = np.random.default_rng(33).uniform(0.1, 1.0, shape)
        for before in (1, 8):  # fewer and more workers than this sweep's
            holder_map(field, SCALES, threads=before)
            holder_map(field, SCALES, threads=threads)
            assert len(holder._kept) == min(threads, 5)
            for kept in holder._kept:
                assert [a.shape for a in kept] == self.map_shapes(shape, SCALES.sides, 4)
        # the adjoint's halo is 3, so its tile rows are 15 wide and bands of 4
        # rows of the map's 13 become seven bands of 3 rows
        holder._holder_map_vjp(field, np.ones(3), np.zeros(shape), SCALES, 1e-6, threads)
        assert len(holder._kept) == min(threads, 7)
        for kept in holder._kept:
            assert [a.shape for a in kept] == [(9, 15, 3), (6, 15, 3), (6, 9, 3), (6, 12, 3),
                                               (3, 12, 3), (3, 9, 3)]

    def test_concurrent_sweeps_never_share_a_set(self, monkeypatch):
        # four callers of two shapes, three workers each, switching threads
        # every microsecond: two workers writing one set would move bytes
        monkeypatch.setattr(holder, "BAND_BYTES", band_bytes((16, 9, 3), 2, 3))
        rng = np.random.default_rng(36)
        fields = [rng.uniform(0.1, 1.0, (16, 9, 3)), rng.uniform(0.1, 1.0, (16, 9, 3)),
                  rng.uniform(0.1, 1.0, (15, 7, 2)), rng.uniform(0.1, 1.0, (15, 7, 2))]
        stored = [slope_from_measures(box_measures(f, SCALES), SCALES).tobytes() for f in fields]
        wrong = []

        def caller(field, expected):
            for _ in range(20):
                if holder_map(field, SCALES, threads=3).tobytes() != expected:
                    wrong.append(field.shape)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=pair) for pair in zip(fields, stored)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert wrong == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_sweep_of_other_shapes_frees_the_kept_sets_first(self, threads):
        # the small sweep keeps 0.86 MB a worker, so a kept set alive in the
        # large sweep would lift its peak by that much.  Two workers' band
        # temporaries overlap or not as the threads run, which moves a peak by
        # 128 KiB either way, so each case reads the least of five peaks and
        # may exceed the other by less than half a set
        small = np.random.default_rng(34).uniform(0.1, 1.0, (64, 64, 16))
        large = np.random.default_rng(35).uniform(0.1, 1.0, (128, 128, 16))
        peaks, kept = [], 0
        for first in (small, None):  # after a sweep of other shapes; after a clear
            least = math.inf
            for _ in range(5):
                holder._kept.clear()
                tracemalloc.start()
                try:
                    if first is not None:
                        holder_map(first, SCALES, threads=threads)  # its kept sets are traced
                        kept = min(sum(a.nbytes for a in arrays) for arrays in holder._kept)
                    tracemalloc.reset_peak()
                    holder_map(large, SCALES, threads=threads)
                    least = min(least, tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            peaks.append(least)
        assert kept > 800_000
        assert peaks[0] < peaks[1] + kept / 2, [peak / 2**20 for peak in peaks]


class TestMeansArray:
    """``holder_map(..., means=out)`` fills ``out`` with the all-pixel and interior means."""

    @pytest.mark.parametrize("shape", [(13, 11), (12, 9, 3)], ids=["2d", "3d"])
    def test_both_sources_give_the_same_map_and_means(self, shape, tmp_path, monkeypatch):
        field = np.random.default_rng(29).uniform(0.1, 1.0, shape)
        path = tmp_path / "field.mfr"
        path.write_bytes(write_field(field))
        monkeypatch.setattr(holder, "BAND_BYTES", band_bytes(field.shape, 2, 3))
        plain = holder_map(field, SCALES, threads=1)
        channels = shape[2] if len(shape) == 3 else 1
        outputs = []
        for source in (field, ContainerRows(str(path))):
            for threads in (1, 2):
                means = np.empty((2, channels))
                alpha = holder_map(source, SCALES, threads=threads, means=means)
                assert alpha.tobytes() == plain.tobytes()
                outputs.append(means.tobytes())
        assert len(set(outputs)) == 1
        assert means[0].tobytes() == mean_alpha(plain).tobytes()
        assert means[1].tobytes() == mean_alpha(interior_view(plain, SCALES)).tobytes()

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("shape, rows", [
        ((64, 64, 8), 5), ((56, 56, 64), 13), ((100, 37), 7), ((50, 64), 1),
    ], ids=["64x64x8-bands-of-5", "56x56x64-bands-of-13", "2d-bands-of-7", "2d-bands-of-1"])
    def test_the_means_are_the_bytes_of_mean_alpha(self, shape, rows, threads, monkeypatch):
        # one channel mean: the band sweep's row sums fold as mean_alpha folds the map's
        field = np.random.default_rng(43).uniform(0.0, 1.0, shape)
        monkeypatch.setattr(holder, "BAND_BYTES", band_bytes(shape, 2, rows))
        means = np.empty((2, shape[2] if len(shape) == 3 else 1))
        alpha = holder_map(field, SCALES, threads=threads, means=means)
        assert means[0].tobytes() == mean_alpha(alpha).tobytes()
        assert means[1].tobytes() == mean_alpha(interior_view(alpha, SCALES)).tobytes()

    @pytest.mark.parametrize("means", [
        np.empty((2, 2)), np.empty((3, 3)), np.empty(6), np.empty((2, 3), np.float32),
        [[0.0] * 3] * 2,
    ], ids=["too-few-channels", "three-rows", "flat", "float32", "list"])
    def test_a_wrong_means_array_is_refused_before_any_read(self, means, tmp_path, monkeypatch):
        path = tmp_path / "field.mfr"
        path.write_bytes(write_field(np.full((6, 5, 3), 0.5)))
        container = ContainerRows(str(path))

        def no_reader(rows):
            raise AssertionError("the payload was read")

        monkeypatch.setattr(ContainerRows, "reader", no_reader)
        with pytest.raises(ValueError, match=r"means must be a \(2, 3\) float64 array"):
            holder_map(container, SCALES, means=means)


class TestInterior:
    def test_unclipped_interior_slices(self):
        rows, cols = _unclipped_interior((128, 128), SCALES)
        assert rows == slice(2, 127)
        assert cols == slice(2, 127)

    def test_too_small_field_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            _unclipped_interior((3, 3), SCALES)


class TestMeanAlpha:
    def test_constant_map(self):
        assert mean_alpha(np.full((4, 4), 1.5))[0] == 1.5

    def test_per_channel_independence(self):
        alpha = np.stack([np.full((4, 4), 1.0), np.full((4, 4), 2.0)], axis=-1)
        np.testing.assert_allclose(mean_alpha(alpha), [1.0, 2.0])


class TestNormalize:
    def test_is_the_stored_statistics_affine(self):
        rng = np.random.default_rng(4)
        state = _random_norm(5, rng)
        x = rng.normal(size=5)
        np.testing.assert_allclose(normalize(x, state), _brute_frozen_norm(x, state),
                                   rtol=0, atol=1e-14)

    def test_value_at_the_running_mean_maps_to_beta(self):
        state = NormState.identity(2)
        state.running_mean = np.array([5.0, -1.0])
        state.beta = np.array([0.25, 3.0])
        assert np.array_equal(normalize(np.array([5.0, -1.0]), state), state.beta)

    def test_uses_the_running_statistics(self):
        state = NormState.identity(1)
        state.running_mean = np.array([10.0])
        state.running_var = np.array([4.0])
        out = normalize(np.array([12.0]), state)
        np.testing.assert_allclose(out, 2.0 / math.sqrt(4.0 + 1e-5), rtol=1e-12)

    @pytest.mark.parametrize("build", [
        lambda: NormState(gamma=[1.0], beta=[0.0], running_mean=[0.0], running_var=[1.0],
                          mode="frozen"),
        lambda: NormState.identity(1, mode="frozen"),
    ], ids=["constructor", "identity"])
    def test_there_is_no_statistics_mode_to_choose(self, build):
        # a squeeze always uses the stored statistics, a level set its own
        with pytest.raises(TypeError, match="mode"):
            build()

    @pytest.mark.parametrize("shape", [(4, 4, 3), (2,), (4,), (1, 3)],
                             ids=["stack", "short", "long", "row"])
    def test_anything_but_one_value_per_channel_rejected(self, shape):
        with pytest.raises(ValueError, match="one value per channel"):
            normalize(np.ones(shape), NormState.identity(3))

    FIELDS = ("gamma", "beta", "running_mean", "running_var")

    @pytest.mark.parametrize("field, bad", [
        ("gamma", np.inf), ("beta", np.nan), ("running_mean", np.inf),
        ("running_mean", -np.inf), ("running_var", np.nan), ("running_var", np.inf),
    ])
    def test_non_finite_state_rejected(self, field, bad):
        # a NaN variance passes the sign check, and any of these makes NaN gates
        values = {name: np.ones(3) for name in self.FIELDS}
        values[field][1] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            NormState(**values)

    @pytest.mark.parametrize("field", FIELDS)
    def test_mismatched_lengths_rejected(self, field):
        values = {name: np.ones(3) for name in self.FIELDS}
        values[field] = np.ones(2)
        with pytest.raises(ValueError, match="one 1-D shape"):
            NormState(**values)

    def test_two_dimensional_state_rejected(self):
        with pytest.raises(ValueError, match="one 1-D shape"):
            NormState(**{name: np.ones((2, 2)) for name in self.FIELDS})

    def test_negative_running_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            NormState(gamma=[1.0], beta=[0.0], running_mean=[0.0], running_var=[-1.0])

    def test_vjp_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=3)
        state = _random_norm(3, rng)
        upstream = rng.normal(size=3)
        _, cache = _normalize_with_cache(x, state)
        grad_x, grad_gamma, grad_beta = normalize_vjp(upstream, cache)
        error, name, index = _probe_gradient(
            lambda: float((upstream * normalize(x, state)).sum()),
            {"x": x, "gamma": state.gamma, "beta": state.beta},
            {"x": grad_x, "gamma": grad_gamma, "beta": grad_beta}, rng, x.size)
        assert error < 1e-5, f"{name}[{index}]: relative error {error:.2e}"


class TestBoxMeasuresInputCheck:
    # ``box_measures`` is serial and takes no ``threads``; its case runs
    # the same call under both thread ids.
    @pytest.mark.parametrize("compute", [
        lambda field, threads: box_measures(field, SCALES),
        lambda field, threads: holder_map(field, SCALES, threads=threads),
    ], ids=["box_measures", "holder_map"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_checks_its_input_once(self, threads, compute, monkeypatch):
        import mfcal.grid as grid

        # as_field and require_measure both check through grid._checked
        calls = []
        checked = grid._checked

        def counting(values, measure):
            calls.append(measure)
            return checked(values, measure)

        monkeypatch.setattr(grid, "_checked", counting)
        compute(np.ones((6, 5, 4)), threads)
        assert calls == [True]
