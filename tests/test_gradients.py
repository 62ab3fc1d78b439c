"""Analytic gradients of both recalibration pipelines vs. central differences."""

import tracemalloc

import numpy as np
import pytest

from mfcal.attention import (
    init_multi_params,
    mono_backward,
    multi_backward,
    multi_forward,
    se_forward,
    sigmoid,
)
from mfcal import holder
from mfcal.grid import window_sum_adjoint
from mfcal.holder import ScaleSet, _holder_map_vjp, box_measures, log_slope_weights
from mfcal.selftest import _probe_gradient as probe_gradient
from mfcal.selftest import _random_level_sets as random_level_sets
from mfcal.selftest import _random_mono_params as random_mono_params

SCALES = ScaleSet((2, 3, 4))
EPS = 1e-6


class TestProbeGradient:
    def test_names_the_worst_entry_and_probes_every_entry_at_full_count(self):
        x = np.arange(1.0, 7.0).reshape(2, 3)
        y = np.array([0.5, -2.0])
        before = x.copy(), y.copy()
        calls = []

        def loss():
            calls.append(None)
            return float((x ** 2).sum() + (y ** 3).sum())

        analytic = {"x": 2.0 * x, "y": 3.0 * y ** 2}
        analytic["x"][1, 0] += 1.0  # 9 where the derivative is 8
        error, name, idx = probe_gradient(loss, {"x": x, "y": y}, analytic,
                                          np.random.default_rng(0), 6)
        assert (name, idx) == ("x", 3)
        assert error == pytest.approx(1.0 / 9.0, rel=1e-6)
        assert len(calls) == 2 * (x.size + y.size)
        assert np.array_equal(x, before[0]) and np.array_equal(y, before[1])

    def test_draws_count_distinct_entries_per_array(self):
        x = np.linspace(0.5, 2.0, 10)
        seen = []

        def loss():
            seen.append(int(np.flatnonzero(x != np.linspace(0.5, 2.0, 10))[0]))
            return float((x ** 2).sum())

        error, _, _ = probe_gradient(loss, {"x": x}, {"x": 2.0 * x},
                                     np.random.default_rng(1), 4)
        assert error < 1e-8
        assert len(seen) == 8 and len(set(seen)) == 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_analytic_entry_is_the_worst(self, bad):
        x = np.array([1.0, 2.0, 3.0])
        analytic = 2.0 * x
        analytic[1] = bad

        def loss():
            return float((x ** 2).sum())

        error, name, idx = probe_gradient(loss, {"x": x}, {"x": analytic},
                                          np.random.default_rng(2), 3)
        assert not error < 1e-4
        assert (name, idx) == ("x", 1)

    def test_a_nan_loss_is_the_worst(self):
        x = np.array([1.0, 2.0])

        def loss():
            return float("nan")

        error, _, _ = probe_gradient(loss, {"x": x}, {"x": 2.0 * x},
                                     np.random.default_rng(3), 2)
        assert not error < 1e-4


def mono_fixture(rng, use_bias=True, shape=(2, 2, 4)):
    channels = shape[2]
    stack = rng.uniform(0.5, 1.5, shape)
    # random biases even without use_bias: the two-matrix form must ignore them
    params = random_mono_params(channels, rng, True)
    params.use_bias = use_bias
    upstream = rng.normal(size=stack.shape)
    return stack, params, upstream


def mono_backward_peak(stack, params, upstream, threads):
    """tracemalloc peak of one mono_backward call, in bytes, with no band buffers kept before it."""
    holder._kept.clear()
    tracemalloc.start()
    try:
        mono_backward(stack, params, upstream, SCALES, EPS, threads=threads)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def mono_bytes(stack, params, upstream, threads):
    """Every MonoGradients field and both se_forward outputs, as bytes."""
    grads = mono_backward(stack, params, upstream, SCALES, EPS, threads=threads)
    forward = se_forward(stack, params, source="alpha-map", scales=SCALES,
                         epsilon=EPS, threads=threads)
    return {**{f: v.tobytes() for f, v in vars(grads).items()},
            "gates": forward[0].tobytes(), "out": forward[1].tobytes()}


class TestMonoBackward:
    def test_matches_finite_differences(self, monkeypatch):
        rng = np.random.default_rng(0)
        stack, params, upstream = mono_fixture(rng)
        grads = mono_backward(stack, params, upstream, SCALES, EPS, threads=1)
        # two and three workers give the same bytes as one; each input is one
        # band at the default BAND_BYTES, so force bands of one row (2x2x4)
        # and of six (40x36x8), for the map and its adjoint alike
        wide = mono_fixture(np.random.default_rng(40), shape=(40, 36, 8))
        for inputs, band_bytes in (((stack, params, upstream), 256), (wide, 1 << 14)):
            monkeypatch.setattr(holder, "BAND_BYTES", band_bytes)
            one = mono_bytes(*inputs, threads=1)
            for threads in (2, 3):
                again = mono_bytes(*inputs, threads=threads)
                for field, value in one.items():
                    assert again[field] == value, f"{field}, {threads} threads"

        def loss():
            _, out = se_forward(stack, params, source="alpha-map",
                                scales=SCALES, epsilon=EPS)
            return float((upstream * out).sum())

        arrays = {"w1": params.w1, "b1": params.b1, "w2": params.w2,
                  "b2": params.b2, "gamma": params.norm.gamma,
                  "beta": params.norm.beta, "stack": stack}
        analytic = {"w1": grads.w1, "b1": grads.b1, "w2": grads.w2,
                    "b2": grads.b2, "gamma": grads.gamma,
                    "beta": grads.beta, "stack": grads.stack}
        error, name, idx = probe_gradient(loss, arrays, analytic, rng, 5)
        assert error < 1e-4, f"{name}[{idx}]: relative error {error:.3g}"

    @pytest.mark.parametrize("shape, sides", [
        ((40, 36, 8), (2, 3, 4)),
        ((7, 5, 3), (2, 3, 4)),    # 7 rows: no multiple of 2 or 3
        ((11, 6, 1), (2, 5, 9)),   # one channel, as a 2-D field becomes
        ((5, 4, 2), (1, 2)),
        ((6, 5, 2), (3, 40)),      # a side past the image: the halo is taller than the field
        ((2, 7, 2), (2, 5, 9)),
        ((1, 9, 3), (2, 5, 9)),    # one row: more workers than bands
        ((23, 19, 3), (2, 4)),     # sides that skip rows in the chained row sums
        ((19, 13, 2), (1, 3, 5, 8)),
    ], ids=["wide", "uneven-bands", "one-channel", "side-one", "side-past-image",
            "shorter-than-halo", "one-row", "even-sides", "four-sides"])
    def test_exponent_map_adjoint_matches_the_reference(self, shape, sides, monkeypatch):
        # the banded adjoint adds, scale by scale, what window_sum_adjoint adds
        # over the whole field, at any band height and thread count; the
        # exponent cotangent is one value per channel, shared by its pixels
        rng = np.random.default_rng(sum(shape))
        stack = rng.uniform(0.1, 1.0, shape)
        d_alpha = rng.normal(size=shape[2])
        start = rng.normal(size=shape)
        scales = ScaleSet(sides)
        expected = start.copy()
        for w, side, mu in zip(log_slope_weights(scales), scales, box_measures(stack, scales, EPS)):
            expected += window_sum_adjoint(w * d_alpha / mu, side)
        row_bytes = (shape[1] + 2 * (max(sides) - 1)) * shape[2] * 8
        for rows in (None, 1, 2, 3):
            if rows is not None:
                monkeypatch.setattr(holder, "BAND_BYTES", rows * row_bytes)
            for threads in (1, 2, 3):
                d_stack = start.copy()
                _holder_map_vjp(stack, d_alpha, d_stack, scales, EPS, threads)
                assert d_stack.tobytes() == expected.tobytes(), f"{rows} rows, {threads} threads"

    def test_zero_upstream_gives_zero_bundle(self):
        rng = np.random.default_rng(30)
        stack, params, _ = mono_fixture(rng)
        grads = mono_backward(stack, params, np.zeros_like(stack), SCALES, EPS)
        for field in ("w1", "b1", "w2", "b2", "gamma", "beta", "stack"):
            assert np.all(getattr(grads, field) == 0.0)

    def test_zero_w2_bias_gradient_closed_form(self):
        # with w2 = 0 the gate is sigma(b2); for loss = sum(output) the b2
        # derivative is sigma'(b2) * sum of the channel's stack values
        rng = np.random.default_rng(31)
        stack, params, _ = mono_fixture(rng)
        params.w2[:] = 0.0
        params.b2[:] = 0.0
        grads = mono_backward(stack, params, np.ones_like(stack), SCALES, EPS)
        expected = 0.25 * stack.sum(axis=(0, 1))
        np.testing.assert_allclose(grads.b2, expected, rtol=1e-12)

    def test_non_finite_upstream_is_rejected(self):
        rng = np.random.default_rng(37)
        stack, params, upstream = mono_fixture(rng)
        upstream[0, 1, 2] = np.inf
        with pytest.raises(ValueError, match="finite"):
            mono_backward(stack, params, upstream, SCALES, EPS)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_zero_mass_windows_at_epsilon_zero_raise(self, threads):
        rng = np.random.default_rng(41)
        stack, params, upstream = mono_fixture(rng, shape=(8, 8, 4))
        stack[2:6, 2:6, 3] = 0.0  # side-2 and side-3 windows of zero mass
        with pytest.raises(ValueError, match="windowed masses are <= 0"):
            mono_backward(stack, params, upstream, SCALES, 0.0, threads=threads)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_peak_memory_holds_no_block_of_masses(self, threads):
        # The backward holds the exponent map, then the stack cotangent,
        # plus band temporaries of the map and its adjoint: about 5.3x the
        # stack's bytes here at one thread, and 3.6-6.1x at two, as the
        # workers' temporaries happen to overlap.  Holding the masses of
        # all three scales at once adds three more stack-sized arrays (about
        # 8.3x at one thread), which only the 6x bound of the next test rejects.
        rng = np.random.default_rng(42)
        stack, params, upstream = mono_fixture(rng, shape=(64, 64, 16))
        peak = mono_backward_peak(stack, params, upstream, threads)
        assert peak <= 10 * stack.nbytes, f"peak {peak / stack.nbytes:.2f}x the stack"

    def test_peak_memory_holds_no_stack_sized_normalization_cache(self):
        # Normalization runs on the (C,) squeeze: about 5.3x the stack's bytes
        # here.  A normalized (H, W, C) map or its cache adds 2x or more.
        rng = np.random.default_rng(42)
        stack, params, upstream = mono_fixture(rng, shape=(64, 64, 16))
        peak = mono_backward_peak(stack, params, upstream, threads=1)
        assert peak <= 6 * stack.nbytes, f"peak {peak / stack.nbytes:.2f}x the stack"

    def test_a_squeeze_at_the_running_mean_gates_by_the_mlp_of_beta(self):
        # the stored mean standardizes the exponent mean to 0 exactly, so the
        # normalized squeeze is beta whatever gamma and running_var
        stack, params, _ = mono_fixture(np.random.default_rng(43), shape=(8, 8, 4))
        squeeze = holder.mean_alpha(holder.holder_map(stack, SCALES, EPS))
        params.norm.running_mean = squeeze.copy()
        gates, _ = se_forward(stack, params, source="alpha-map", scales=SCALES, epsilon=EPS)
        hidden = np.maximum(params.w1 @ params.norm.beta + params.b1, 0.0)
        assert np.array_equal(gates, sigmoid(params.w2 @ hidden + params.b2))
        params.norm.running_mean = squeeze + 0.1
        moved, _ = se_forward(stack, params, source="alpha-map", scales=SCALES, epsilon=EPS)
        assert not np.array_equal(moved, gates)

    def test_the_gamma_gradient_vanishes_where_the_squeeze_is_the_running_mean(self):
        # d gamma_c = d z_c * (squeeze_c - running_mean_c) / sigma_c
        stack, params, upstream = mono_fixture(np.random.default_rng(44), shape=(8, 8, 4))
        params.norm.running_mean = holder.mean_alpha(holder.holder_map(stack, SCALES, EPS))
        params.norm.running_mean[0] += 0.1
        grads = mono_backward(stack, params, upstream, SCALES, EPS)
        assert np.all(grads.gamma[1:] == 0.0)
        assert grads.gamma[0] != 0.0

    def test_strict_two_matrix_form_has_no_bias_gradients(self):
        rng = np.random.default_rng(32)
        stack, params, upstream = mono_fixture(rng, use_bias=False)
        grads = mono_backward(stack, params, upstream, SCALES, EPS)
        assert np.all(grads.b1 == 0.0) and np.all(grads.b2 == 0.0)

        def loss():
            _, out = se_forward(stack, params, source="alpha-map",
                                scales=SCALES, epsilon=EPS)
            return float((upstream * out).sum())

        error, name, idx = probe_gradient(loss, {"w1": params.w1, "stack": stack},
                                          {"w1": grads.w1, "stack": grads.stack}, rng, 5)
        assert error < 1e-4, f"{name}[{idx}]: relative error {error:.3g}"


def multi_fixture(rng):
    stack = rng.uniform(0.5, 1.5, (2, 2, 4))
    alpha = rng.normal(2.0, 0.3, (2, 2, 4))
    params = random_level_sets(alpha, 4, rng)
    upstream = rng.normal(size=stack.shape)
    return stack, alpha, params, upstream


def check_multi_against_fd(stack, alpha, params, upstream, rng):
    grads = multi_backward(stack, alpha, params, upstream)

    def loss():
        _, out = multi_forward(stack, alpha, params)
        return float((upstream * out).sum())

    arrays = {"centers": params.centers, "sharpness": params.sharpness,
              "gamma": params.norm.gamma, "beta": params.norm.beta,
              "stack": stack, "alpha": alpha}
    analytic = {"centers": grads.centers, "sharpness": grads.sharpness,
                "gamma": grads.gamma, "beta": grads.beta,
                "stack": grads.stack, "alpha": grads.alpha}
    error, name, idx = probe_gradient(loss, arrays, analytic, rng, 5)
    assert error < 1e-4, f"{name}[{idx}]: relative error {error:.3g}"


class TestMultiBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        check_multi_against_fd(*multi_fixture(rng), rng)

    @pytest.mark.parametrize("name", ["alpha", "upstream"])
    def test_non_finite_inputs_are_rejected(self, name):
        # statistics over every position would spread one bad entry to every gradient
        rng = np.random.default_rng(39)
        inputs = dict(zip(("stack", "alpha", "params", "upstream"), multi_fixture(rng)))
        inputs[name][1, 0, 3] = np.nan if name == "alpha" else np.inf
        with pytest.raises(ValueError, match="finite"):
            multi_backward(**inputs)

    def test_zero_upstream_gives_zero_bundle(self):
        rng = np.random.default_rng(34)
        stack, alpha, params, _ = multi_fixture(rng)
        grads = multi_backward(stack, alpha, params, np.zeros_like(stack))
        for field in ("centers", "sharpness", "gamma", "beta", "stack", "alpha"):
            assert np.all(getattr(grads, field) == 0.0)

    def test_stack_gradient_is_the_upstream_cotangent(self):
        rng = np.random.default_rng(35)
        stack, alpha, params, upstream = multi_fixture(rng)
        grads = multi_backward(stack, alpha, params, upstream)
        assert np.array_equal(grads.stack, upstream)

    def test_saturated_memberships_freeze_the_centers(self):
        rng = np.random.default_rng(36)
        stack = rng.uniform(0.5, 1.5, (2, 2, 4))
        alpha = np.full((2, 2, 4), 1.0)
        params = init_multi_params(2, 1.0, 90.0)
        params.sharpness = np.full(2, 5.0)  # memberships pinned at 1 and 0
        grads = multi_backward(stack, alpha, params, rng.normal(size=stack.shape))
        np.testing.assert_allclose(grads.centers, 0.0, atol=1e-8)
