"""The blocked level-set path against a dense reference of its formulas.

``multi_forward`` and ``multi_backward`` stream over fixed blocks of
flattened positions and never hold a (H, W, C, Q) tensor.  The
reference, the acceptance harness's ``selftest._dense_level_sets``,
materializes that tensor and applies the formulas directly: softmax
memberships, normalization by the memberships' statistics over every
position, and rectified pooling.  ``dense_backward`` below is the
matching reverse pass over its cache.  Only the summation order
differs, so the two agree within 1e-12 of each output's largest entry.
Groups of whole blocks run on worker threads, and the outputs are
byte-equal for every thread count.  Each worker computes in at most
three (Q, n) scratch arrays sized to its largest block, so peak memory
is the full-size outputs plus that scratch.
"""

import tracemalloc

import numpy as np
import pytest

from mfcal.attention import (
    LEVEL_SET_BLOCK,
    init_multi_params,
    multi_backward,
    multi_forward,
    multi_membership,
)
from mfcal.selftest import _dense_level_sets

RTOL = 1e-12  # max |blocked - dense| over max |dense|, per output array


def dense_normalize_vjp(grad_out, cache):
    """``(grad_x, grad_gamma, grad_beta)``; the moving statistics add two correction terms."""
    xhat, sigma, gamma, axes = cache
    grad_gamma = (grad_out * xhat).sum(axis=axes)
    grad_beta = grad_out.sum(axis=axes)
    gxhat = grad_out * gamma
    m = gxhat.mean(axis=axes, keepdims=True)
    mx = (gxhat * xhat).mean(axis=axes, keepdims=True)
    return (gxhat - m - xhat * mx) / sigma, grad_gamma, grad_beta


def dense_backward(stack, alpha, params, upstream):
    gate, _, (member, normed, norm_cache) = _dense_level_sets(stack, alpha, params)
    d_pooled = upstream * gate * (1.0 - gate)
    d_normed = d_pooled[..., None] * (normed > 0.0)
    d_member, d_gamma, d_beta = dense_normalize_vjp(d_normed, norm_cache)
    inner = (d_member * member).sum(axis=-1, keepdims=True)
    d_logits = member * (d_member - inner)
    diff = alpha[..., None] - params.centers
    return {
        "centers": (d_logits * 2.0 * params.sharpness * diff).sum(axis=(0, 1, 2)),
        "sharpness": (d_logits * -(diff ** 2)).sum(axis=(0, 1, 2)),
        "gamma": d_gamma,
        "beta": d_beta,
        "stack": upstream,
        "alpha": (d_logits * -2.0 * params.sharpness * diff).sum(axis=-1),
    }


def fixture(shape, seed, q=16):
    rng = np.random.default_rng(seed)
    stack = rng.uniform(0.1, 1.0, shape)
    alpha = rng.normal(2.0, 0.4, shape)
    params = init_multi_params(q, float(alpha.min()), float(alpha.max()))
    params.sharpness = rng.uniform(0.5, 4.0, q)
    params.norm.gamma = rng.uniform(0.5, 1.5, q)
    params.norm.beta = rng.uniform(-0.5, 0.5, q)
    params.norm.running_mean = rng.uniform(0.0, 0.2, q)
    params.norm.running_var = rng.uniform(0.005, 0.05, q)  # never read
    return stack, alpha, params, rng.normal(size=shape)


def relative_deviation(blocked, dense):
    return float(np.abs(blocked - dense).max() / np.abs(dense).max())


# ROWS * 32 * 4 positions are two blocks when the block size is a multiple of 64
ROWS = LEVEL_SET_BLOCK // 64
SHAPES = {
    "below-one-block": (8, 8, 4),
    "two-blocks": (ROWS, 32, 4),
    "two-blocks-and-a-remainder": (ROWS + 1, 32, 4),
}
# three threads split two blocks and a remainder into three groups
THREADS = (2, 3)


def test_the_shapes_straddle_the_block_boundaries():
    sizes = {name: int(np.prod(shape)) for name, shape in SHAPES.items()}
    assert sizes["below-one-block"] < LEVEL_SET_BLOCK
    assert sizes["two-blocks"] == 2 * LEVEL_SET_BLOCK
    assert 0 < sizes["two-blocks-and-a-remainder"] - 2 * LEVEL_SET_BLOCK < LEVEL_SET_BLOCK


@pytest.mark.parametrize("name", SHAPES)
def test_forward_matches_the_dense_reference(name):
    stack, alpha, params, _ = fixture(SHAPES[name], seed=7)
    gate, out = multi_forward(stack, alpha, params, threads=1)
    ref_gate, ref_out, (ref_member, _, _) = _dense_level_sets(stack, alpha, params)
    assert relative_deviation(gate, ref_gate) <= RTOL
    assert relative_deviation(out, ref_out) <= RTOL
    assert relative_deviation(multi_membership(alpha, params), ref_member) <= RTOL
    for threads in THREADS:
        again = multi_forward(stack, alpha, params, threads=threads)
        assert np.array_equal(again[0], gate) and np.array_equal(again[1], out)


@pytest.mark.parametrize("name", SHAPES)
def test_backward_matches_the_dense_reference(name):
    stack, alpha, params, upstream = fixture(SHAPES[name], seed=8)
    grads = multi_backward(stack, alpha, params, upstream, threads=1)
    for field, expected in dense_backward(stack, alpha, params, upstream).items():
        deviation = relative_deviation(getattr(grads, field), expected)
        assert deviation <= RTOL, f"{field}: {deviation:.2e}"
    for threads in THREADS:
        again = multi_backward(stack, alpha, params, upstream, threads=threads)
        for field, value in vars(grads).items():
            assert np.array_equal(getattr(again, field), value), f"{field}, {threads} threads"


def test_the_stored_statistics_are_never_read():
    stack, alpha, params, upstream = fixture(SHAPES["below-one-block"], seed=9)
    forward = multi_forward(stack, alpha, params)
    backward = multi_backward(stack, alpha, params, upstream)
    params.norm.running_mean = params.norm.running_mean + 0.5
    params.norm.running_var = params.norm.running_var * 4.0
    again = multi_forward(stack, alpha, params)
    assert all(np.array_equal(a, b) for a, b in zip(again, forward))
    for field, value in vars(multi_backward(stack, alpha, params, upstream)).items():
        assert np.array_equal(value, getattr(backward, field)), field


@pytest.mark.parametrize("threads", [1, 2])
def test_backward_peak_memory_stays_below_one_level_set_tensor(threads):
    shape, q = (64, 64, 16), 16
    stack, alpha, params, upstream = fixture(shape, seed=5, q=q)
    tensor_bytes = int(np.prod(shape)) * q * 8  # one (H, W, C, Q) float64 array
    tracemalloc.start()
    try:
        multi_backward(stack, alpha, params, upstream, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tensor_bytes, f"peak {peak / 2**20:.1f} MiB"


# NumPy's iterator may copy each broadcast operand of a short-row (Q, n)
# operation into a buffer of up to np.getbufsize() elements, two per call
ITERATOR_BUFFER_BYTES = 2 * np.getbufsize() * 8


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("shape", [(64, 64, 16), SHAPES["below-one-block"]])
def test_peak_memory_is_the_outputs_plus_per_worker_scratch(shape, threads):
    q = 16
    stack, alpha, params, upstream = fixture(shape, seed=5, q=q)
    size = int(np.prod(shape))
    outputs = 2 * size * 8  # (gate, stack + gate), or the stack and alpha gradients
    scratch = threads * 3 * q * min(size, LEVEL_SET_BLOCK) * 8
    for run in (lambda: multi_forward(stack, alpha, params, threads=threads),
                lambda: multi_backward(stack, alpha, params, upstream, threads=threads)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= outputs + scratch + ITERATOR_BUFFER_BYTES, f"peak {peak / 2**20:.3f} MiB"
