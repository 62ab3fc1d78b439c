"""Channel recalibration functions: forwards and analytic gradients.

Two recalibration families operate on a feature stack of shape
(H, W, C):

* scaling-exponent driven -- the stack's local exponent map is
  squeezed to its mean per channel, normalized, and run through a
  bottleneck MLP with a sigmoid, gating each channel multiplicatively
  (``se_forward(source="alpha-map")``); or the exponent map is softly
  partitioned into Q learnable level sets whose normalized memberships
  are pooled into an additive per-pixel gate field (``multi_forward``).
* classic per-channel statistics -- mean (``se_forward``), mean plus
  standard deviation (``srm_gates``), spatial projection maxout
  (``scse_forward``), and cosine-basis squeezes (``fca_gates``).

Each method computes its gates once: the forwards return
``(gates, output)``, and the gate-only squeezes (``srm_gates``,
``fca_gates``) leave the multiplication ``stack * gates`` to the caller.
The forwards take NumPy's ``out=``, so a caller that no longer needs its
input can pass ``out=stack`` and receive the same bytes in the stack's
own buffer.  The channel squeezes (``gap``, ``srm_gates``, ``fca_gates``)
reduce each channel as one contiguous row of its pixels, copied a chunk
of channels at a time into one reused buffer of at most ``CHUNK_BYTES``,
and the scSE maxout runs over chunks of rows the same way, so no method
builds a stack-sized temporary beyond its output (and the exponent map
or gate field of the two exponent-driven paths).

The two exponent-driven paths also expose exact reverse-mode gradients,
built for verification against central finite differences: the channel
gate's with respect to every learnable parameter and the input stack,
and the level sets' with respect to their parameters, the stack and the
exponent map, taken as an input (the stack gradient leaves out the
chain back through the map; see ROADMAP item 10).  Their per-pixel
passes run over units that the input fixes: the row bands of the
exponent map and its adjoint, and the position blocks of the level-set
passes.  ``threads`` (default: every CPU this process may use) only
caps how many workers share them, an input of one unit runs on the
calling thread, and no output byte depends on the count.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .grid import as_field
from .holder import (
    DEFAULT_EPSILON,
    DEFAULT_SCALES,
    VAR_EPS,
    NormState,
    _holder_map_vjp,
    _normalize_with_cache,
    _run_units,
    holder_map,
    mean_alpha,
    normalize,
    normalize_vjp,
)

__all__ = [
    "MonoParams",
    "MultiParams",
    "MonoGradients",
    "MultiGradients",
    "init_mono_params",
    "init_multi_params",
    "gap",
    "sigmoid",
    "se_forward",
    "scse_forward",
    "srm_gates",
    "dct_basis",
    "lowest_frequency_pairs",
    "fca_gates",
    "multi_membership",
    "multi_forward",
    "mono_backward",
    "multi_backward",
]


def _as_stack(values) -> np.ndarray:
    stack = as_field(values)
    if stack.ndim != 3:
        raise ValueError(f"feature stack must have shape (H, W, C), got {stack.shape}")
    return stack


def sigmoid(x) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below: e = e^-|x| is
    # the exponential either branch takes, so neither overflows
    if x.min(initial=0.0) >= 0.0:
        # no entry is negative (or NaN): the first branch everywhere, in
        # place, without the abs and the branch select
        out = np.negative(x, out=np.empty(x.shape))
        np.exp(out, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    out /= 1.0 + e
    return out


CHUNK_BYTES = 256 * 1024  # the buffer the channel squeezes and the scSE maxout reuse, in bytes


def _channel_chunks(stack: np.ndarray):
    """Yield ``(channels, rows)`` over consecutive chunks of an (H, W, C) stack's channels.

    ``rows`` is a C-contiguous (k, H*W) copy of the k channels in the
    ``channels`` slice, one row of pixels in row-major order per
    channel.  Every chunk is copied into the same buffer of at most
    ``CHUNK_BYTES`` (and at least one row), so a chunk's rows are spent
    before the next is yielded.
    """
    h, w, c = stack.shape
    per = min(max(CHUNK_BYTES // (h * w * stack.itemsize), 1), c)
    buffer = np.empty((per, h, w))
    for lo in range(0, c, per):
        hi = min(lo + per, c)
        np.copyto(buffer[:hi - lo], stack[:, :, lo:hi].transpose(2, 0, 1))
        yield slice(lo, hi), buffer[:hi - lo].reshape(hi - lo, h * w)


def gap(stack) -> np.ndarray:
    """Global average pooling: spatial mean per channel.

    Each channel is reduced as one contiguous row of its pixels in
    row-major order: NumPy's pairwise sum then adds the same sequence in
    the same tree as ``stack[:, :, c].mean()`` on a C-ordered stack, so
    the means are bit-identical to that per-channel loop, also above
    NumPy's 8192-element reduction buffer.  The rows are copied a chunk
    of channels at a time into one reused buffer of at most
    ``CHUNK_BYTES`` (or one row), so no stack-sized copy is made.
    """
    return _gap(_as_stack(stack))


def _gap(stack: np.ndarray) -> np.ndarray:
    # gap() of a stack its caller has already checked
    means = np.empty(stack.shape[2])
    for channels, rows in _channel_chunks(stack):
        means[channels] = rows.mean(axis=1)
    return means


# ---------------------------------------------------------------------------
# parameters


@dataclass
class MonoParams:
    """Bottleneck-MLP gate parameters shared by the squeeze-style methods.

    ``w1`` maps C channels down to a hidden width of ``w1.shape[0]``,
    ``w2`` maps back up; the sigmoid of the second layer is the
    per-channel gate.
    ``norm`` standardizes the pooled per-channel exponent means, one value
    per channel, by its stored statistics when the gate is driven by
    local exponents.  ``use_bias=False`` drops ``b1``/``b2`` from the
    evaluation (strict two-matrix form).
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    norm: NormState
    use_bias: bool = True

    def __post_init__(self):
        self.w1 = np.asarray(self.w1, dtype=np.float64)
        self.b1 = np.asarray(self.b1, dtype=np.float64)
        self.w2 = np.asarray(self.w2, dtype=np.float64)
        self.b2 = np.asarray(self.b2, dtype=np.float64)
        hidden, channels = self.w1.shape
        if self.w2.shape != (channels, hidden):
            raise ValueError("w2 must map the hidden layer back to the channels")
        if self.b1.shape != (hidden,) or self.b2.shape != (channels,):
            raise ValueError("bias shapes must match their layers")

    @property
    def channels(self) -> int:
        return self.w1.shape[1]


@dataclass
class MultiParams:
    """Q learnable level sets over exponent space.

    Membership of an exponent value in level set q is a softmax over
    ``-sharpness_q * (alpha - centers_q)**2``; ``norm`` is the per-set
    normalization applied to memberships before pooling (its channel
    axis is the level-set axis).  Memberships are standardized by their
    own statistics, so only ``norm.gamma`` and ``norm.beta`` are read.
    Every sharpness is >= 0, so no logit is positive and the softmax
    needs no max subtraction to stay finite; the level-set functions
    check it again on every call, since callers may assign
    ``sharpness`` after construction.
    """

    centers: np.ndarray
    sharpness: np.ndarray
    norm: NormState

    def __post_init__(self):
        self.centers = np.atleast_1d(np.asarray(self.centers, dtype=np.float64))
        self.sharpness = np.atleast_1d(np.asarray(self.sharpness, dtype=np.float64))
        if self.centers.shape != self.sharpness.shape or self.centers.ndim != 1:
            raise ValueError("centers and sharpness must be matching 1-D arrays")
        if self.norm.channels != self.centers.size:
            raise ValueError("norm state must have one channel per level set")
        if not (np.all(np.isfinite(self.centers)) and np.all(np.isfinite(self.sharpness))):
            raise ValueError("level-set parameters must be finite")
        _check_sharpness(self)


def _check_sharpness(params: MultiParams) -> None:
    if np.any(params.sharpness < 0.0):
        raise ValueError("level-set sharpness must be >= 0, so that no logit is positive")


def init_mono_params(channels: int, reduction: int = 2, rng=None,
                     use_bias: bool = True) -> MonoParams:
    """Fan-balanced uniform init for the bottleneck MLP, zero biases, identity norm.

    The hidden width is floor(C / reduction), at least 1.
    """
    if not (1 <= reduction < max(channels, 2)):
        raise ValueError("reduction must satisfy 1 <= reduction < channels")
    rng = np.random.default_rng(rng)
    hidden = max(channels // reduction, 1)

    def fan_uniform(n_out, n_in):
        bound = np.sqrt(6.0 / (n_in + n_out))
        return rng.uniform(-bound, bound, size=(n_out, n_in))

    return MonoParams(
        w1=fan_uniform(hidden, channels),
        b1=np.zeros(hidden),
        w2=fan_uniform(channels, hidden),
        b2=np.zeros(channels),
        norm=NormState.identity(channels),
        use_bias=use_bias,
    )


def init_multi_params(q: int, alpha_low: float, alpha_high: float) -> MultiParams:
    """Centers spread over the observed exponent range, unit sharpness, identity affine.

    Spanning the calibration range keeps every level set reachable at
    the start (dead memberships never recover under ReLU pooling).
    """
    if q < 1:
        raise ValueError("need at least one level set")
    if not (alpha_high >= alpha_low):
        raise ValueError("alpha range must be ordered")
    if q == 1:
        centers = np.array([0.5 * (alpha_low + alpha_high)])
    else:
        centers = np.linspace(alpha_low, alpha_high, q)
    return MultiParams(
        centers=centers,
        sharpness=np.ones(q),
        norm=NormState.identity(q),
    )


# ---------------------------------------------------------------------------
# squeeze-and-gate forwards


def _mlp_logits(z: np.ndarray, params: MonoParams):
    a1 = params.w1 @ z
    if params.use_bias:
        a1 = a1 + params.b1
    h1 = np.maximum(a1, 0.0)
    a2 = params.w2 @ h1
    if params.use_bias:
        a2 = a2 + params.b2
    return a1, h1, a2


def _gate_from_squeeze(z: np.ndarray, params: MonoParams) -> np.ndarray:
    _, _, a2 = _mlp_logits(z, params)
    return sigmoid(a2)


def _mono_forward(stack, params: MonoParams, scales, epsilon: float, threads: int | None):
    """Exponent-map gates, and ``(norm_cache, z, a1, h1)`` for :func:`mono_backward`."""
    alpha = holder_map(stack, scales, epsilon, threads)
    z, norm_cache = _normalize_with_cache(mean_alpha(alpha), params.norm)
    a1, h1, a2 = _mlp_logits(z, params)
    return sigmoid(a2), (norm_cache, z, a1, h1)


def se_forward(stack, params: MonoParams, source: str = "features",
               scales=DEFAULT_SCALES, epsilon: float = DEFAULT_EPSILON,
               threads: int | None = None, out: np.ndarray | None = None):
    """Channel gates from a squeezed descriptor; multiplicative output.

    ``source="features"`` squeezes the raw stack by its spatial mean.
    ``source="alpha-map"`` squeezes the local-exponent map of the stack
    to its spatial mean per channel instead and normalizes that, so the
    gate responds to each channel's scaling behaviour rather than its
    magnitude; ``params.norm`` standardizes that one value per channel by
    its stored statistics.  Returns ``(gates, stack * gates)``, the
    product written into ``out`` as NumPy's ``out=`` does: ``None``
    allocates it, and ``out=stack`` gates the stack in place, after the
    gates are formed, with the same bytes.
    """
    stack = _as_stack(stack)
    if stack.shape[2] != params.channels:
        raise ValueError("stack channel count does not match the parameters")
    if source == "features":
        gates = _gate_from_squeeze(_gap(stack), params)
    elif source == "alpha-map":
        gates, _ = _mono_forward(stack, params, scales, epsilon, threads)
    else:
        raise ValueError(f"unknown squeeze source: {source!r}")
    return gates, np.multiply(stack, gates, out=out)


def scse_forward(stack, channel_params: MonoParams, spatial_weights,
                 spatial_bias: float = 0.0, out: np.ndarray | None = None):
    """Element-wise maxout of the channel-gated and spatially-gated stack.

    The spatial branch projects each pixel's channel vector to a scalar
    logit (a 1x1 projection) and gates by its sigmoid.  Returns
    ``(channel_gates, maxout)``, the channel gates being those of
    ``se_forward(source="features")``.

    Both gates are formed from the whole stack first.  The maxout then
    runs over chunks of rows: each chunk's channel branch goes into one
    reused buffer of at most ``CHUNK_BYTES`` (or one row), and its
    spatial branch and the maxout into ``out``.  ``out`` follows NumPy's
    ``out=``: ``None`` allocates it, and ``out=stack`` overwrites the
    stack with the maxout, with the same bytes.
    """
    stack = _as_stack(stack)
    h, w, c = stack.shape
    spatial_weights = np.asarray(spatial_weights, dtype=np.float64)
    if spatial_weights.shape != (c,):
        raise ValueError("spatial projection needs one weight per channel")
    if c != channel_params.channels:
        raise ValueError("stack channel count does not match the parameters")
    gates = _gate_from_squeeze(_gap(stack), channel_params)
    spatial = sigmoid(stack @ spatial_weights + spatial_bias)[:, :, None]
    if out is None:
        out = np.empty(stack.shape)
    per = min(max(CHUNK_BYTES // (w * c * stack.itemsize), 1), h)
    buffer = np.empty((per, w, c))
    for lo in range(0, h, per):
        rows = slice(lo, min(lo + per, h))
        channel_branch = np.multiply(stack[rows], gates, out=buffer[:rows.stop - lo])
        spatial_branch = np.multiply(stack[rows], spatial[rows], out=out[rows])
        np.maximum(channel_branch, spatial_branch, out=spatial_branch)
    return gates, out


def srm_gates(stack, w_mean, w_std, norm: NormState) -> np.ndarray:
    """Per-channel gate from a learned blend of mean and std pooling.

    ``t_c = w_mean_c * GAP_c + w_std_c * GSP_c`` followed by the channel
    normalization by ``norm``'s stored statistics and a sigmoid.  Both
    poolings reduce the channel rows of :func:`gap`, a chunk at a time.
    """
    stack = _as_stack(stack)
    w_mean = np.asarray(w_mean, dtype=np.float64)
    w_std = np.asarray(w_std, dtype=np.float64)
    for name, weights in (("w_mean", w_mean), ("w_std", w_std)):
        if weights.shape != (stack.shape[2],):
            raise ValueError(f"{name} needs one weight per channel, got shape {weights.shape}")
    t = np.empty(stack.shape[2])
    for channels, rows in _channel_chunks(stack):
        mean = rows.mean(axis=1)
        # the steps of rows.std(axis=1), in place in the spent chunk: the
        # same bytes without a chunk-sized temporary
        rows -= mean[:, None]
        np.multiply(rows, rows, out=rows)
        std = np.sqrt(rows.sum(axis=1) / rows.shape[1])
        t[channels] = w_mean[channels] * mean + w_std[channels] * std
    return sigmoid(normalize(t, norm))


# ---------------------------------------------------------------------------
# cosine-basis squeezes


def dct_basis(height: int, width: int, i: int, j: int) -> np.ndarray:
    """Separable cosine basis field for frequency pair (i, j).

    ``B[h, w] = cos(pi*i*(h+1/2)/H) * cos(pi*j*(w+1/2)/W)``.  Frequency
    (0, 0) is the all-ones field, so its squeeze of a stack equals
    H*W times the spatial mean; distinct frequency pairs give fields
    orthogonal under the plain dot product.
    """
    if not (0 <= i < height and 0 <= j < width):
        raise ValueError("frequency indices must satisfy 0 <= i < H, 0 <= j < W")
    rows = np.cos(np.pi * i * (np.arange(height) + 0.5) / height)
    cols = np.cos(np.pi * j * (np.arange(width) + 0.5) / width)
    return np.outer(rows, cols)


def lowest_frequency_pairs(count: int, height: int, width: int) -> list:
    """The ``count`` lowest cosine frequency pairs, lowest sum first.

    Pairs are ordered by ``(i + j, max(i, j), i)``.  The diagonals
    ``i + j = 0, 1, 2, ...`` are walked in turn until ``count`` pairs are
    found, so the work grows with ``count``, not with H*W.
    """
    if count > height * width:
        raise ValueError("not enough frequency pairs for this spatial extent")
    pairs = []
    diagonal = 0  # i + j
    while len(pairs) < count:
        i_values = range(max(0, diagonal - width + 1), min(diagonal, height - 1) + 1)
        pairs.extend(sorted(((i, diagonal - i) for i in i_values), key=lambda p: (max(p), p[0])))
        diagonal += 1
    return pairs[:count]


def fca_gates(stack, params: MonoParams, freq_pairs) -> np.ndarray:
    """Gates from per-group cosine squeezes through the bottleneck MLP.

    Channels split into one contiguous group per frequency pair; each
    group is squeezed by its own basis field.  The channel count must be
    divisible by the group count (silent padding would corrupt the
    squeeze semantics).
    """
    stack = _as_stack(stack)
    h, w, c = stack.shape
    groups = len(freq_pairs)
    if groups < 1 or c % groups != 0:
        raise ValueError(f"channel count {c} is not divisible by {groups} groups")
    size = c // groups
    z = np.empty(c)
    for g, (i, j) in enumerate(freq_pairs):
        group = slice(g * size, (g + 1) * size)
        basis = dct_basis(h, w, i, j).ravel()
        squeezes = z[group]
        for channels, rows in _channel_chunks(stack[:, :, group]):
            # each product row is summed like a row in gap(), so the
            # zero-frequency squeeze is bit-equal to H*W*GAP
            squeezes[channels] = np.multiply(rows, basis, out=rows).sum(axis=1)
    return _gate_from_squeeze(z, params)


# ---------------------------------------------------------------------------
# stochastic level sets


LEVEL_SET_BYTES = 1024 * 1024  # each (Q, n) scratch buffer of the level-set passes, in bytes

# The passes sum over either axis of a (Q, n) block as a product with a
# vector of ones, and take its row dot products with np.vecdot: BLAS runs
# both faster than NumPy's reductions (about 25 us for a 16 x 8192 block,
# against 35-57 us for sum(axis=0) or sum(axis=1) and 57-80 us for einsum).


def _map_blocks(work, alpha, params: MultiParams, buffers: int, threads: int | None, merge=None):
    """``work(block, member, *scratch)`` over fixed blocks of flat exponents, on :func:`_run_units`.

    A block is as many positions as fill ``LEVEL_SET_BYTES`` per (Q, n)
    float64 buffer (at least one): 8192 at Q = 16.  The units of work
    are runs of whole blocks of at least 8192 positions together (one
    block for Q <= 16), so the size and Q alone fix them, and a size of
    one unit runs on the calling thread.  Each worker allocates
    ``buffers`` scratch arrays of one block once, as C-contiguous (Q, n)
    views over the n positions of each block: the first gets the
    block's memberships (:func:`_membership_block`), which ``work``
    takes as ``member``, and the rest follow as ``scratch``.  ``work``
    writes per-position outputs into its block's slices and returns a
    partial (or None), and ``merge(earlier, later)`` folds the partials
    serially in block order, within each unit and then across units, so
    at most one partial per unit is held and no output byte depends on
    ``threads``.  Returns the merged partial.
    """
    size, q = alpha.size, params.centers.size
    per = max(LEVEL_SET_BYTES // (q * 8), 1)
    width = q * min(size, per)
    blocks = [slice(lo, min(lo + per, size)) for lo in range(0, size, per)]
    group = max(8192 // per, 1)  # blocks per unit: one unit per block at Q <= 16

    def fold(partials):
        merged = None
        for partial in partials:
            merged = partial if merged is None else merge(merged, partial)
        return merged

    def run_block(block, flat):
        member, *scratch = (buf[:q * (block.stop - block.start)].reshape(q, -1) for buf in flat)
        return work(block, _membership_block(alpha[block], params, member), *scratch)

    def unit_work(unit, *flat):
        return fold(run_block(block, flat) for block in unit)

    return fold(_run_units(unit_work, [blocks[lo:lo + group] for lo in range(0, len(blocks), group)],
                           lambda: nullcontext([np.empty(width) for _ in range(buffers)]), threads))


def _add_pairs(earlier, later):
    return earlier[0] + later[0], earlier[1] + later[1]


# A block whose smallest column sum of exp(logits) is below this is
# redone with each position's largest logit subtracted.  At or above it,
# a column's largest term is at least _SUM_FLOOR / Q, a normal float for
# any Q below 2**62, and the terms that underflow to subnormals are off
# by at most 2**-1075 each, which moves a membership by at most
# Q * 2**-1075 / _SUM_FLOOR: 2**-111 at Q = 16, far below the 2**-56 ulp
# of the largest membership (at least 1/16).
_SUM_FLOOR = 2.0 ** -960


def _logits(alpha: np.ndarray, params: MultiParams, out: np.ndarray) -> np.ndarray:
    """``-sharpness * (alpha - centers)**2`` of a flat block, into the (Q, n) ``out``."""
    np.subtract(alpha, params.centers[:, None], out=out)
    np.square(out, out=out)
    out *= -params.sharpness[:, None]
    return out


def _membership_block(alpha: np.ndarray, params: MultiParams, out: np.ndarray) -> np.ndarray:
    """Memberships of a flat block, written into and returned as the (Q, n) ``out``.

    The level-set axis comes first, so reductions over it run
    elementwise across rows.  With sharpness >= 0 no logit is positive,
    so ``exp`` of the logits cannot overflow and the softmax skips the
    per-position max subtraction: six passes over the block (subtract,
    square, scale, exp, column sum, divide).  Only a block with a
    position far from every center, whose column sum falls below
    ``_SUM_FLOOR``, is redone the max-subtracted way.  The divide is a
    true divide, so one level set gives memberships of exactly 1.
    """
    ones = np.ones(out.shape[0])
    sums = ones @ np.exp(_logits(alpha, params, out), out=out)
    if sums.min() < _SUM_FLOOR:
        logits = _logits(alpha, params, out)
        logits -= logits.max(axis=0)
        sums = ones @ np.exp(logits, out=out)
    out /= sums
    return out


def multi_membership(alpha, params: MultiParams) -> np.ndarray:
    """Soft assignment of each exponent of an (H, W, C) map to the Q level sets.

    ``membership[..., q] = softmax_q(-sharpness_q * (alpha - centers_q)^2)``;
    memberships at every position sum to one.  Adding a constant to all
    squared-distance logits leaves the result unchanged.  Evaluated over
    the blocks of the level-set passes (see :func:`_membership_block`:
    no max subtraction unless a block has a position far from every
    center), and transposed into the (H, W, C, Q) result.  Like the
    other level-set functions, refuses negative sharpness and an
    exponent map that is not a finite (H, W, C) stack.
    """
    alpha, = _level_set_input(params, alpha)
    flat = alpha.reshape(-1)
    out = np.empty((flat.size, params.centers.size))

    def transpose_block(block, member):
        out[block] = member.T

    _map_blocks(transpose_block, flat, params, 1, threads=1)
    return out.reshape(alpha.shape + (-1,))


def _level_set_input(params: MultiParams, *arrays) -> list:
    """The entry check: sharpness >= 0, and the arrays as finite (H, W, C) stacks of one shape."""
    _check_sharpness(params)
    stacks = [_as_stack(array) for array in arrays]
    if len({stack.shape for stack in stacks}) > 1:
        raise ValueError(f"level-set inputs must share one shape, got {[s.shape for s in stacks]}")
    return stacks


def _level_set_statistics(alpha: np.ndarray, params: MultiParams, threads: int | None):
    """Per-level-set ``(mean, sigma, scale, shift)``, each of shape (Q,).

    ``sigma = sqrt(var + VAR_EPS)``; ``scale = gamma / sigma`` and
    ``shift = beta - scale * mean`` fold the normalization and its
    affine into one multiply-add, ``normed = member * scale + shift``.

    The statistics are the memberships' population mean and variance
    over every position: each block's count, mean and sum of squared
    deviations, merged in block order (Chan et al.'s pairwise update),
    so no (..., Q) membership tensor is ever held.
    """
    norm = params.norm

    def merge(earlier, later):
        (count, mean, m2), (n, block_mean, block_m2) = earlier, later
        delta = block_mean - mean
        total = count + n
        return total, mean + delta * (n / total), m2 + block_m2 + delta ** 2 * (count * n / total)

    def block_moments(block, member):
        n = member.shape[1]
        block_mean = member @ np.ones(n) / n
        member -= block_mean[:, None]
        return n, block_mean, np.vecdot(member, member)

    count, mean, m2 = _map_blocks(block_moments, alpha, params, 1, threads, merge)
    var = m2 / count
    sigma = np.sqrt(var + VAR_EPS)
    scale = norm.gamma / sigma
    return mean, sigma, scale, norm.beta - scale * mean


def _gated_block(member: np.ndarray, scale, shift, normed: np.ndarray):
    """Gate of a block from its (Q, n) memberships.

    Leaves the rectified normalized memberships in ``normed``; passing
    ``member`` as ``normed`` overwrites the memberships with them.
    """
    np.multiply(member, scale[:, None], out=normed)
    normed += shift[:, None]
    np.maximum(normed, 0.0, out=normed)
    return sigmoid(np.ones(normed.shape[0]) @ normed)


def multi_forward(stack, alpha, params: MultiParams, threads: int | None = None,
                  out: np.ndarray | None = None):
    """Additive recalibration by pooled level-set memberships.

    Per position: normalize each level set's membership by its statistics
    over every position, rectify, sum over the level sets, squash with a
    sigmoid, and add the resulting gate field to the stack.  Returns
    ``(gate_field, stack + gate_field)``, the sum written into ``out`` as
    NumPy's ``out=`` does: ``None`` allocates it, and ``out=stack`` adds
    the gate field to the stack in place, with the same bytes.

    Runs over fixed blocks of flattened positions, each filling one
    (Q, n) scratch array of ``LEVEL_SET_BYTES`` (8192 positions at
    Q = 16): one pass gathers the statistics and folds them with
    ``gamma`` and ``beta`` into one scale and one shift per level set; a
    second gates each block.  Each block's memberships skip the max
    subtraction (sharpness >= 0; see :func:`_membership_block`).  Both
    passes spread groups of whole blocks over at most ``threads``
    workers (default: every CPU this process may use), and each worker
    computes in place in one scratch array that it allocates once.
    Memory is O(H*W*C + threads*LEVEL_SET_BYTES), and the output bytes
    do not depend on ``threads``.
    """
    stack, alpha = _level_set_input(params, stack, alpha)
    alpha = alpha.reshape(-1)
    _, _, scale, shift = _level_set_statistics(alpha, params, threads)
    gate = np.empty(stack.shape)
    flat_gate = gate.reshape(-1)

    def gate_block(block, member):
        flat_gate[block] = _gated_block(member, scale, shift, member)

    _map_blocks(gate_block, alpha, params, 1, threads)
    return gate, np.add(stack, gate, out=out)


# ---------------------------------------------------------------------------
# analytic gradients


@dataclass(frozen=True)
class MonoGradients:
    """Loss derivatives for the exponent-gated squeeze pipeline."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    stack: np.ndarray


@dataclass(frozen=True)
class MultiGradients:
    """Loss derivatives for the level-set pipeline (alpha treated as input)."""

    centers: np.ndarray
    sharpness: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    stack: np.ndarray
    alpha: np.ndarray


def mono_backward(stack, params: MonoParams, upstream,
                  scales=DEFAULT_SCALES, epsilon: float = DEFAULT_EPSILON,
                  threads: int | None = None) -> MonoGradients:
    """Exact reverse-mode gradients through the exponent-gated pipeline.

    ``upstream`` is the loss cotangent of the recalibrated stack.  The
    stack gradient combines the direct multiplicative path with the
    chain through windowed masses, logs, the slope fit, pooling,
    normalization, and the MLP.  The rectifier subgradient at zero is
    zero.  The normalization is reversed on the (C,) squeeze, and each
    channel's pixels share one exponent cotangent, ``d_mean / (H * W)``,
    which the adjoint takes as a (C,) vector, so no stack-sized
    normalization array is built.
    """
    stack = _as_stack(stack)
    upstream = _as_stack(upstream)
    if upstream.shape != stack.shape:
        raise ValueError("upstream cotangent must match the stack shape")
    h, w, _ = stack.shape
    gates, (norm_cache, z, a1, h1) = _mono_forward(stack, params, scales, epsilon, threads)

    # multiplicative head
    d_stack = upstream * gates
    d_gates = (upstream * stack).sum(axis=(0, 1))

    # MLP
    d_a2 = d_gates * gates * (1.0 - gates)
    d_w2 = np.outer(d_a2, h1)
    d_b2 = d_a2 if params.use_bias else np.zeros_like(params.b2)
    d_h1 = params.w2.T @ d_a2
    d_a1 = d_h1 * (a1 > 0.0)
    d_w1 = np.outer(d_a1, z)
    d_b1 = d_a1 if params.use_bias else np.zeros_like(params.b1)
    d_z = params.w1.T @ d_a1

    # normalization, pooling, then slope fit and windowed masses
    d_mean, d_gamma, d_beta = normalize_vjp(d_z, norm_cache)
    _holder_map_vjp(stack, d_mean / (h * w), d_stack, scales, epsilon, threads)

    return MonoGradients(
        w1=d_w1, b1=d_b1, w2=d_w2, b2=d_b2,
        gamma=d_gamma, beta=d_beta, stack=d_stack,
    )


def multi_backward(stack, alpha, params: MultiParams, upstream,
                   threads: int | None = None) -> MultiGradients:
    """Exact reverse-mode gradients through the level-set pipeline.

    ``alpha`` is treated as an independent input: ``alpha`` of the result
    is the exponents' cotangent, and ``stack`` is the additive head's,
    the upstream cotangent itself.  No exponent-map backward takes an
    (H, W, C) cotangent yet, so the chain from the exponents back to the
    stack is left out (ROADMAP item 10).

    Uses the blocks, workers, membership evaluation and folded
    ``scale``/``shift`` of :func:`multi_forward`.  After the statistics
    pass, one pass accumulates two per-level-set gemv sums of the
    rectified cotangent, from which the affine gradients follow without
    building the standardized memberships.  A second pass forms the
    parameter and exponent gradients, with the normalization's
    correction terms.  The sums pass computes in place in two (Q, n)
    scratch arrays per worker and the parameter pass in three, and each
    writes its rectifier's mask as 1.0 and 0.0 straight into one of them.
    """
    stack, alpha, upstream = _level_set_input(params, stack, alpha, upstream)
    alpha = alpha.reshape(-1)
    flat_up = upstream.reshape(-1)
    norm = params.norm
    mean, sigma, scale, shift = _level_set_statistics(alpha, params, threads)
    d_pooled = np.empty(alpha.size)

    def normalization_sums(block, member, normed):
        """Fills d_pooled; returns the block's mask @ d_pooled and (mask * member) @ d_pooled."""
        gate = _gated_block(member, scale, shift, normed)
        d_block = d_pooled[block]
        d_block[:] = flat_up[block] * gate * (1.0 - gate)
        np.greater(normed, 0.0, out=normed)  # the rectifier's mask
        beta_part = normed @ d_block
        normed *= member
        return beta_part, normed @ d_block

    d_beta, weighted = _map_blocks(normalization_sums, alpha, params, 2, threads, _add_pairs)
    # sum(d_normed * xhat) with xhat = (member - mean) / sigma
    d_gamma = (weighted - mean * d_beta) / sigma

    # the statistics move with every membership: d_member gains
    # offset - member * tilt, the correction terms of the normalization
    tilt = norm.gamma * d_gamma / alpha.size / sigma ** 2
    offset = mean * tilt - norm.gamma * d_beta / alpha.size / sigma

    # each block's d_pooled is spent before its exponent gradient is
    # written, so the gradient overwrites it block by block
    d_alpha = d_pooled

    def parameter_terms(block, member, d_member, spare):
        """Per-level-set sums of d_logits * diff and d_logits * diff**2; fills d_alpha."""
        # the rectifier's mask: member * scale + shift > 0 exactly where
        # member * scale > -shift, so the shift is never added
        np.greater(np.multiply(member, scale[:, None], out=d_member), -shift[:, None], out=d_member)
        d_member *= d_pooled[block]
        d_member *= scale[:, None]
        d_member -= np.multiply(member, tilt[:, None], out=spare)
        d_member += offset[:, None]
        # softmax over the level-set axis: d_logits = member * (d_member - inner)
        d_member -= np.einsum("qn,qn->n", d_member, member)
        d_member *= member
        # the distances go into the spent membership buffer
        diff = np.subtract(alpha[block], params.centers[:, None], out=member)
        d_member *= diff  # d_logits * diff from here on
        np.matmul(params.sharpness, d_member, out=d_alpha[block])
        return d_member @ np.ones(d_member.shape[1]), np.vecdot(d_member, diff)

    d_centers, d_sharpness = _map_blocks(parameter_terms, alpha, params, 3, threads, _add_pairs)
    d_centers *= 2.0 * params.sharpness
    d_sharpness = -d_sharpness
    d_alpha *= -2.0

    return MultiGradients(
        centers=d_centers, sharpness=d_sharpness,
        gamma=d_gamma, beta=d_beta,
        stack=upstream.copy(), alpha=d_alpha.reshape(stack.shape),
    )
