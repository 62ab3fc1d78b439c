"""Analytic gradients of both recalibration pipelines vs. central differences."""

import numpy as np
import pytest

from mfcal.attention import (
    init_mono_params,
    init_multi_params,
    mono_backward,
    multi_backward,
    multi_forward,
    se_forward,
)
from mfcal.holder import ScaleSet

SCALES = ScaleSet((2, 3, 4))
EPS = 1e-6
STEP = 1e-5


def relative_error(analytic, numeric):
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)


def check_against_fd(loss, arrays, analytic, rng, probes_per_array=5):
    for name, arr in arrays.items():
        flat = arr.ravel()
        grad = analytic[name].ravel()
        count = min(probes_per_array, flat.size)
        for idx in rng.choice(flat.size, size=count, replace=False):
            old = flat[idx]
            flat[idx] = old + STEP
            up = loss()
            flat[idx] = old - STEP
            down = loss()
            flat[idx] = old
            fd = (up - down) / (2 * STEP)
            assert relative_error(grad[idx], fd) < 1e-4, (
                f"{name}[{idx}]: analytic {grad[idx]:.8g} vs fd {fd:.8g}"
            )


def mono_fixture(rng, norm_mode, use_bias=True):
    stack = rng.uniform(0.5, 1.5, (2, 2, 4))
    params = init_mono_params(4, 2, rng=rng, use_bias=use_bias)
    params.norm.mode = norm_mode
    params.b1 = rng.normal(scale=0.2, size=params.b1.shape)
    params.b2 = rng.normal(scale=0.2, size=params.b2.shape)
    params.norm.gamma = rng.uniform(0.5, 1.5, 4)
    params.norm.beta = rng.uniform(-0.5, 0.5, 4)
    params.norm.running_mean = rng.uniform(-0.2, 0.2, 4)
    params.norm.running_var = rng.uniform(0.5, 1.5, 4)
    upstream = rng.normal(size=stack.shape)
    return stack, params, upstream


class TestMonoBackward:
    @pytest.mark.parametrize("norm_mode, seed", [("frozen", 0), ("per-instance", 1)],
                             ids=["frozen", "per-instance"])
    def test_matches_finite_differences(self, norm_mode, seed):
        rng = np.random.default_rng(seed)
        stack, params, upstream = mono_fixture(rng, norm_mode)
        grads = mono_backward(stack, params, upstream, SCALES, EPS)

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
        check_against_fd(loss, arrays, analytic, rng)

    def test_zero_upstream_gives_zero_bundle(self):
        rng = np.random.default_rng(30)
        stack, params, _ = mono_fixture(rng, "frozen")
        grads = mono_backward(stack, params, np.zeros_like(stack), SCALES, EPS)
        for field in ("w1", "b1", "w2", "b2", "gamma", "beta", "stack"):
            assert np.all(getattr(grads, field) == 0.0)

    def test_zero_w2_bias_gradient_closed_form(self):
        # with w2 = 0 the gate is sigma(b2); for loss = sum(output) the b2
        # derivative is sigma'(b2) * sum of the channel's stack values
        rng = np.random.default_rng(31)
        stack, params, _ = mono_fixture(rng, "frozen")
        params.w2[:] = 0.0
        params.b2[:] = 0.0
        grads = mono_backward(stack, params, np.ones_like(stack), SCALES, EPS)
        expected = 0.25 * stack.sum(axis=(0, 1))
        np.testing.assert_allclose(grads.b2, expected, rtol=1e-12)

    def test_strict_two_matrix_form_has_no_bias_gradients(self):
        rng = np.random.default_rng(32)
        stack, params, upstream = mono_fixture(rng, "frozen", use_bias=False)
        grads = mono_backward(stack, params, upstream, SCALES, EPS)
        assert np.all(grads.b1 == 0.0) and np.all(grads.b2 == 0.0)

        def loss():
            _, out = se_forward(stack, params, source="alpha-map",
                                scales=SCALES, epsilon=EPS)
            return float((upstream * out).sum())

        check_against_fd(loss, {"w1": params.w1, "stack": stack},
                         {"w1": grads.w1, "stack": grads.stack}, rng)


def multi_fixture(rng):
    stack = rng.uniform(0.5, 1.5, (2, 2, 4))
    alpha = rng.normal(2.0, 0.3, (2, 2, 4))
    params = init_multi_params(4, float(alpha.min()), float(alpha.max()))
    params.sharpness = rng.uniform(0.5, 2.0, 4)
    params.norm.gamma = rng.uniform(0.5, 1.5, 4)
    params.norm.beta = rng.uniform(-0.5, 0.5, 4)
    upstream = rng.normal(size=stack.shape)
    return stack, alpha, params, upstream


class TestMultiBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        stack, alpha, params, upstream = multi_fixture(rng)
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
        check_against_fd(loss, arrays, analytic, rng)

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
