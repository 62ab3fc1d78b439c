"""Exponent maps: brute-force equality, scale laws, and normalization."""

import math

import numpy as np
import pytest

from mfcal.cascade import CascadeSpec, analytic_alpha, generate_binomial
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

SCALES = ScaleSet((2, 3, 4))


def brute_holder(field, sides, epsilon):
    """Per-pixel OLS over explicitly materialized clipped windows.

    Computed with the same final weighted-log expression as the library
    (scales ascending) so that integer-valued fields agree bit for bit.
    """
    field = np.asarray(field, dtype=np.float64)
    squeeze = field.ndim == 2
    if squeeze:
        field = field[:, :, None]
    h, w, c = field.shape
    xs = np.log(np.array(sides, dtype=np.float64))
    dev = xs - xs.mean()
    weights = dev / np.dot(dev, dev)
    out = np.zeros((h, w, c))
    for i in range(h):
        for j in range(w):
            for ch in range(c):
                acc = 0.0
                for weight, side in zip(weights, sides):
                    off = side // 2
                    r0, r1 = max(0, i - off), min(h, i - off + side)
                    c0, c1 = max(0, j - off), min(w, j - off + side)
                    mass = 0.0
                    for r in range(r0, r1):
                        for cc in range(c0, c1):
                            mass += field[r, cc, ch]
                    acc += weight * math.log(mass + epsilon)
                out[i, j, ch] = acc
    return out[:, :, 0] if squeeze else out


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

    @pytest.mark.parametrize("threads", [0, 1, 2])
    def test_outputs_are_c_contiguous(self, threads):
        rng = np.random.default_rng(3)
        for shape in ((10, 7), (10, 7, 5)):
            for mu in box_measures(rng.uniform(size=shape), SCALES, threads=threads):
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
        reference = brute_holder(field, SCALES.sides, 0.0)
        assert np.array_equal(ours, reference)

    def test_scale_invariance_of_exponents(self):
        rng = np.random.default_rng(9)
        field = rng.uniform(0.5, 2.0, (20, 20, 3))
        base = holder_map(field, SCALES, epsilon=0.0)
        scaled = holder_map(173.25 * field, SCALES, epsilon=0.0)
        np.testing.assert_allclose(scaled, base, rtol=0, atol=1e-9)

    def test_threaded_path_is_bit_identical(self):
        rng = np.random.default_rng(10)
        field = rng.uniform(0.1, 1.0, (32, 32, 8))
        single = holder_map(field, SCALES, threads=1)
        for threads in (2, 3, 8):
            assert np.array_equal(holder_map(field, SCALES, threads=threads), single)

    def test_line_cascade_exponent_distribution_tracks_the_oracle(self):
        # 1-D cascade embedded as a 1 x 2^k field; sliding windows are not
        # dyadically aligned, so per-cell estimates scatter, but the
        # distribution stays centered on the closed form (bound frozen
        # from the oracle run: mean error 0.012, mean |error| 0.33).
        depth, p = 10, 2 / 3
        line = generate_binomial(CascadeSpec.binomial(p, depth))
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
    def test_per_instance_standardizes(self):
        rng = np.random.default_rng(2)
        x = rng.normal(3.0, 2.5, (16, 16, 4))
        out = normalize(x, NormState.identity(4))
        np.testing.assert_allclose(out.mean(axis=(0, 1)), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=(0, 1)), 1.0, atol=1e-4)

    def test_constant_channel_maps_to_zero(self):
        out = normalize(np.full((8, 8, 2), 5.0), NormState.identity(2))
        assert np.all(out == 0.0)

    def test_affine_contract(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(32, 32, 1))
        state = NormState.identity(1)
        state.gamma = np.array([2.0])
        state.beta = np.array([3.0])
        out = normalize(x, state)
        assert out.mean() == pytest.approx(3.0, abs=1e-6)
        assert out.std() == pytest.approx(2.0, abs=1e-3)

    def test_frozen_mode_uses_running_statistics(self):
        state = NormState.identity(1, mode="frozen")
        state.running_mean = np.array([10.0])
        state.running_var = np.array([4.0])
        out = normalize(np.full((2, 2, 1), 12.0), state)
        np.testing.assert_allclose(out, 2.0 / math.sqrt(4.0 + 1e-5), rtol=1e-12)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            NormState.identity(1, mode="training")

    @pytest.mark.parametrize("mode", ["per-instance", "frozen"])
    def test_vjp_matches_finite_differences(self, mode):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 3, 2))
        state = NormState.identity(2, mode=mode)
        state.gamma = rng.uniform(0.5, 1.5, 2)
        state.beta = rng.normal(size=2)
        state.running_mean = rng.normal(size=2) * 0.1
        state.running_var = rng.uniform(0.5, 1.5, 2)
        upstream = rng.normal(size=x.shape)

        def loss(xx):
            return float((upstream * normalize(xx, state)).sum())

        _, cache = _normalize_with_cache(x, state)
        grad_x, grad_gamma, grad_beta = normalize_vjp(upstream, cache)
        h = 1e-6
        for idx in [(0, 0, 0), (1, 2, 1), (2, 1, 0)]:
            bumped = x.copy()
            bumped[idx] += h
            dipped = x.copy()
            dipped[idx] -= h
            fd = (loss(bumped) - loss(dipped)) / (2 * h)
            assert grad_x[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)
        for ch in range(2):
            for arr, grad in ((state.gamma, grad_gamma), (state.beta, grad_beta)):
                old = arr[ch]
                arr[ch] = old + h
                up = loss(x)
                arr[ch] = old - h
                down = loss(x)
                arr[ch] = old
                assert grad[ch] == pytest.approx((up - down) / (2 * h), rel=1e-5, abs=1e-8)


class TestBoxMeasuresInputCheck:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_checks_its_input_once(self, threads, monkeypatch):
        import mfcal.grid as grid

        calls = []
        checked = grid.as_field

        def counting(values):
            calls.append(1)
            return checked(values)

        monkeypatch.setattr(grid, "as_field", counting)
        box_measures(np.ones((6, 5, 4)), SCALES, threads=threads)
        assert len(calls) == 1
