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
three (Q, n) scratch arrays sized to its largest block, of at most
``LEVEL_SET_BYTES`` each whatever Q is, so peak memory is the full-size
outputs plus that scratch.  Exponents far from every center, whose
softmax needs its largest logit subtracted, match the reference too.
"""

import tracemalloc

import numpy as np
import pytest

from mfcal.attention import (
    LEVEL_SET_BYTES,
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


BLOCK = LEVEL_SET_BYTES // (16 * 8)  # positions per block at the fixtures' Q = 16
# ROWS * 32 * 4 positions are two blocks when the block size is a multiple of 64
ROWS = BLOCK // 64
SHAPES = {
    "below-one-block": (8, 8, 4),
    "two-blocks": (ROWS, 32, 4),
    "two-blocks-and-a-remainder": (ROWS + 1, 32, 4),
}
# three threads split two blocks and a remainder into three groups
THREADS = (2, 3)


def test_the_shapes_straddle_the_block_boundaries():
    sizes = {name: int(np.prod(shape)) for name, shape in SHAPES.items()}
    assert sizes["below-one-block"] < BLOCK
    assert sizes["two-blocks"] == 2 * BLOCK
    assert 0 < sizes["two-blocks-and-a-remainder"] - 2 * BLOCK < BLOCK


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


def largest_logits(values, params):
    return (-params.sharpness * (values[:, None] - params.centers) ** 2).max(axis=1)


def test_units_of_several_blocks_fold_the_same_at_every_thread_count():
    # Q = 64 gives blocks of 2048 positions and units of four blocks: nine
    # blocks here, in units of four, four and one, which two or three
    # threads split
    stack, alpha, params, upstream = fixture(SHAPES["two-blocks-and-a-remainder"], seed=12, q=64)
    gate, out = multi_forward(stack, alpha, params, threads=1)
    assert relative_deviation(gate, _dense_level_sets(stack, alpha, params)[0]) <= RTOL
    grads = multi_backward(stack, alpha, params, upstream, threads=1)
    for threads in THREADS:
        again = multi_forward(stack, alpha, params, threads=threads)
        assert np.array_equal(again[0], gate) and np.array_equal(again[1], out)
        for field, value in vars(multi_backward(stack, alpha, params, upstream, threads=threads)).items():
            assert np.array_equal(value, getattr(grads, field)), f"{field}, {threads} threads"


def test_exponents_far_from_every_center():
    # every logit of a far position is below -745, where exp underflows to
    # 0; the largest of a middling one lies in (-745, -708), where exp is
    # subnormal and keeps few significant bits.  Both need the position's
    # largest logit subtracted before exp.
    stack, alpha, params, upstream = fixture(SHAPES["two-blocks-and-a-remainder"], seed=10)
    flat = alpha.reshape(-1)
    flat[:BLOCK] += 60.0  # the first block: every position far
    flat[BLOCK:2 * BLOCK:2] -= 60.0  # the second: every other one
    candidates = np.linspace(10.0, 40.0, 30001)
    top = largest_logits(candidates, params)
    middling = candidates[(top > -740.0) & (top < -712.0)]
    slots = flat[2 * BLOCK:-1:2]  # the remainder: every other one, the last near
    slots[:] = middling[np.linspace(0, middling.size - 1, slots.size).astype(int)]
    top = largest_logits(flat, params)
    assert np.all(top[:BLOCK] < -745.0) and np.all(top[BLOCK:2 * BLOCK:2] < -745.0)
    assert np.all((top[2 * BLOCK:-1:2] > -745.0) & (top[2 * BLOCK:-1:2] < -708.0))
    assert top[-1] > -708.0
    member = multi_membership(alpha, params)
    gate, out = multi_forward(stack, alpha, params, threads=1)
    ref_gate, ref_out, (ref_member, _, _) = _dense_level_sets(stack, alpha, params)
    assert np.all(np.isfinite(member))
    np.testing.assert_allclose(member.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
    assert relative_deviation(member, ref_member) <= RTOL
    assert relative_deviation(gate, ref_gate) <= RTOL
    assert relative_deviation(out, ref_out) <= RTOL
    grads = multi_backward(stack, alpha, params, upstream, threads=1)
    for field, expected in dense_backward(stack, alpha, params, upstream).items():
        value = getattr(grads, field)
        assert np.all(np.isfinite(value)), field
        assert relative_deviation(value, expected) <= RTOL, field


def test_subnormal_sums_take_the_max_subtracted_way():
    # two close centers seen from afar: both logits lie near -729, where
    # exp keeps about 20 significant bits, so a column sum above 0 but
    # below the floor must still be redone the max-subtracted way
    shape = (4, 4, 4)
    alpha = np.linspace(26.9, 27.1, int(np.prod(shape))).reshape(shape)
    params = init_multi_params(2, 0.0, 0.01)
    logits = -params.sharpness * (alpha[..., None] - params.centers) ** 2
    assert logits.min() > -745.0 and logits.max() < -708.0
    member = multi_membership(alpha, params)
    ref_member = _dense_level_sets(np.ones(shape), alpha, params)[2][0]
    assert relative_deviation(member, ref_member) <= RTOL


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
    scratch = threads * 3 * q * min(size, BLOCK) * 8
    for run in (lambda: multi_forward(stack, alpha, params, threads=threads),
                lambda: multi_backward(stack, alpha, params, upstream, threads=threads)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= outputs + scratch + ITERATOR_BUFFER_BYTES, f"peak {peak / 2**20:.3f} MiB"


def test_a_large_q_shrinks_the_blocks_to_their_bytes():
    # Q = 4096 gives blocks of 32 positions, so each (Q, n) scratch buffer
    # stays at LEVEL_SET_BYTES where 8192 positions would take 256 MiB,
    # and the 128 blocks' (Q,) partials are folded as they come; the
    # 4096 positions are one unit of work, which one worker runs at any
    # thread count
    shape, q = (16, 16, 16), 4096
    stack, alpha, params, upstream = fixture(shape, seed=11, q=q)
    size = int(np.prod(shape))
    assert size // (LEVEL_SET_BYTES // (q * 8)) == 128
    outputs = 2 * size * 8
    scratch = 3 * LEVEL_SET_BYTES
    # (Q,) vectors: two partials of up to three, and the statistics,
    # folded affine and gradients of the whole call
    vectors = (6 + 24) * q * 8
    for run in (lambda: multi_forward(stack, alpha, params, threads=2),
                lambda: multi_backward(stack, alpha, params, upstream, threads=2)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= outputs + scratch + vectors + ITERATOR_BUFFER_BYTES, \
            f"peak {peak / 2**20:.3f} MiB"
    stack, alpha, params, _ = fixture((8, 8, 4), seed=11, q=q)
    gate, _ = multi_forward(stack, alpha, params, threads=2)
    assert relative_deviation(gate, _dense_level_sets(stack, alpha, params)[0]) <= RTOL
