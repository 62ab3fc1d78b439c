"""Channel recalibration functions: forwards and analytic gradients.

Two recalibration families operate on a feature stack of shape
(H, W, C):

* scaling-exponent driven -- the stack's local exponent map is
  normalized, squeezed to one value per channel, and run through a
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

The two exponent-driven paths also expose exact reverse-mode gradients
with respect to every learnable parameter and the input stack, built
for verification against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import as_field, window_sum_adjoint
from .holder import (
    DEFAULT_EPSILON,
    DEFAULT_SCALES,
    VAR_EPS,
    NormState,
    _normalize_with_cache,
    box_measures,
    log_slope_weights,
    normalize,
    normalize_vjp,
    slope_from_measures,
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
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def gap(stack) -> np.ndarray:
    """Global average pooling: spatial mean per channel.

    Channels are reduced one at a time so the result is bit-identical
    to a per-channel mean of the same pixel sequence.
    """
    stack = _as_stack(stack)
    return np.array([stack[:, :, c].mean() for c in range(stack.shape[2])])


def _gsp(stack) -> np.ndarray:
    """Global standard-deviation pooling (population std per channel)."""
    stack = _as_stack(stack)
    return np.array([stack[:, :, c].std() for c in range(stack.shape[2])])


# ---------------------------------------------------------------------------
# parameters


@dataclass
class MonoParams:
    """Bottleneck-MLP gate parameters shared by the squeeze-style methods.

    ``w1`` maps C channels down to floor(C / reduction), ``w2`` maps
    back up; the sigmoid of the second layer is the per-channel gate.
    ``norm`` standardizes the exponent map before pooling when the gate
    is driven by local exponents.  ``use_bias=False`` drops ``b1``/``b2``
    from the evaluation (strict two-matrix form).
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    reduction: int
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
        if not (1 <= self.reduction < max(channels, 2)):
            raise ValueError("reduction must satisfy 1 <= reduction < channels")

    @property
    def channels(self) -> int:
        return self.w1.shape[1]


@dataclass
class MultiParams:
    """Q learnable level sets over exponent space.

    Membership of an exponent value in level set q is a softmax over
    ``-sharpness_q * (alpha - centers_q)**2``; ``norm`` is the per-set
    normalization applied to memberships before pooling (its channel
    axis is the level-set axis).
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


def init_mono_params(channels: int, reduction: int = 2, rng=None,
                     use_bias: bool = True) -> MonoParams:
    """Fan-balanced uniform init for the bottleneck MLP, zero biases, frozen norm."""
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
        reduction=reduction,
        norm=NormState.identity(channels, mode="frozen"),
        use_bias=use_bias,
    )


def init_multi_params(q: int, alpha_low: float, alpha_high: float) -> MultiParams:
    """Centers spread over the observed exponent range, unit sharpness, per-instance norm.

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


def se_forward(stack, params: MonoParams, source: str = "features",
               scales=DEFAULT_SCALES, epsilon: float = DEFAULT_EPSILON):
    """Channel gates from a squeezed descriptor; multiplicative output.

    ``source="features"`` squeezes the raw stack by its spatial mean.
    ``source="alpha-map"`` squeezes the normalized local-exponent map of
    the stack instead, so the gate responds to each channel's scaling
    behaviour rather than its magnitude.  Returns ``(gates, stack * gates)``.
    """
    stack = _as_stack(stack)
    if stack.shape[2] != params.channels:
        raise ValueError("stack channel count does not match the parameters")
    if source == "features":
        z = gap(stack)
    elif source == "alpha-map":
        alpha = slope_from_measures(box_measures(stack, scales, epsilon), scales)
        z = gap(normalize(alpha, params.norm))
    else:
        raise ValueError(f"unknown squeeze source: {source!r}")
    gates = _gate_from_squeeze(z, params)
    return gates, stack * gates


def scse_forward(stack, channel_params: MonoParams, spatial_weights,
                 spatial_bias: float = 0.0):
    """Element-wise maxout of the channel-gated and spatially-gated stack.

    The spatial branch projects each pixel's channel vector to a scalar
    logit (a 1x1 projection) and gates by its sigmoid.  Returns
    ``(channel_gates, maxout)``, the channel gates being those of
    ``se_forward(source="features")``.
    """
    stack = _as_stack(stack)
    spatial_weights = np.asarray(spatial_weights, dtype=np.float64)
    if spatial_weights.shape != (stack.shape[2],):
        raise ValueError("spatial projection needs one weight per channel")
    gates, channel_branch = se_forward(stack, channel_params, source="features")
    logits = stack @ spatial_weights + spatial_bias
    spatial_branch = stack * sigmoid(logits)[:, :, None]
    return gates, np.maximum(channel_branch, spatial_branch)


def srm_gates(stack, w_mean, w_std, norm: NormState) -> np.ndarray:
    """Per-channel gate from a learned blend of mean and std pooling.

    ``t_c = w_mean_c * GAP_c + w_std_c * GSP_c`` followed by the channel
    normalization and a sigmoid.  The squeeze vector has no spatial
    extent, so per-instance statistics degenerate (each channel
    standardizes its single value to zero); use frozen running
    statistics for an informative gate.
    """
    stack = _as_stack(stack)
    w_mean = np.asarray(w_mean, dtype=np.float64)
    w_std = np.asarray(w_std, dtype=np.float64)
    t = w_mean * gap(stack) + w_std * _gsp(stack)
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
    """The ``count`` lowest cosine frequency pairs, lowest sum first."""
    pairs = sorted(
        ((i, j) for i in range(height) for j in range(width)),
        key=lambda p: (p[0] + p[1], max(p), p[0]),
    )
    if count > len(pairs):
        raise ValueError("not enough frequency pairs for this spatial extent")
    return pairs[:count]


def fca_gates(stack, params: MonoParams, freq_pairs=None) -> np.ndarray:
    """Gates from per-group cosine squeezes through the bottleneck MLP.

    Channels split into one contiguous group per frequency pair; each
    group is squeezed by its own basis field.  The channel count must be
    divisible by the group count (silent padding would corrupt the
    squeeze semantics).
    """
    stack = _as_stack(stack)
    h, w, c = stack.shape
    if freq_pairs is None:
        freq_pairs = lowest_frequency_pairs(16, h, w)
    groups = len(freq_pairs)
    if groups < 1 or c % groups != 0:
        raise ValueError(f"channel count {c} is not divisible by {groups} groups")
    size = c // groups
    z = np.empty(c)
    for g, (i, j) in enumerate(freq_pairs):
        basis = dct_basis(h, w, i, j)
        for ch in range(g * size, (g + 1) * size):
            # summed like gap() so the zero-frequency squeeze is bit-equal
            # to H*W*GAP
            z[ch] = (stack[:, :, ch] * basis).sum()
    return _gate_from_squeeze(z, params)


# ---------------------------------------------------------------------------
# stochastic level sets


LEVEL_SET_BLOCK = 8192  # flattened positions per block of the level-set passes


def _blocks(size: int):
    """Fixed position blocks: the boundaries depend only on the size."""
    return (slice(lo, lo + LEVEL_SET_BLOCK) for lo in range(0, size, LEVEL_SET_BLOCK))


def _membership_block(alpha: np.ndarray, params: MultiParams):
    """Memberships and distances ``alpha - centers`` of a flat block, both (Q, n).

    The level-set axis comes first, so reductions over it run
    elementwise across rows.
    """
    diff = alpha - params.centers[:, None]
    member = np.square(diff)
    member *= -params.sharpness[:, None]
    member -= member.max(axis=0)
    np.exp(member, out=member)
    member /= member.sum(axis=0)
    return member, diff


def multi_membership(alpha, params: MultiParams) -> np.ndarray:
    """Soft assignment of each exponent to the Q level sets.

    ``membership[..., q] = softmax_q(-sharpness_q * (alpha - centers_q)^2)``;
    memberships at every position sum to one.  Adding a constant to all
    squared-distance logits leaves the result unchanged.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    flat = alpha.reshape(-1)
    out = np.empty((flat.size, params.centers.size))
    for block in _blocks(flat.size):
        out[block] = _membership_block(flat[block], params)[0].T
    return out.reshape(alpha.shape + (params.centers.size,))


def _level_set_input(stack, alpha):
    stack = _as_stack(stack)
    alpha = _as_stack(alpha)
    if alpha.shape != stack.shape:
        raise ValueError("alpha map shape must match the stack")
    return stack, alpha.reshape(-1)


def _level_set_statistics(alpha: np.ndarray, params: MultiParams):
    """Per-level-set mean and sigma ``sqrt(var + VAR_EPS)`` as (Q, 1) columns.

    Frozen statistics are the stored ones.  Per-instance statistics are
    the memberships' population mean and variance over every position,
    merged block by block in a fixed order (Chan et al.'s pairwise
    update), so no (..., Q) membership tensor is ever held.
    """
    norm = params.norm
    if norm.mode == "frozen":
        mean, var = norm.running_mean, norm.running_var
    else:
        count, mean, m2 = 0, 0.0, 0.0
        for block in _blocks(alpha.size):
            member = _membership_block(alpha[block], params)[0]
            n = member.shape[1]
            block_mean = member.mean(axis=1)
            member -= block_mean[:, None]
            np.square(member, out=member)
            delta = block_mean - mean
            total = count + n
            mean = mean + delta * (n / total)
            m2 = m2 + member.sum(axis=1) + delta ** 2 * (count * n / total)
            count = total
        var = m2 / count
    return mean[:, None], np.sqrt(var + VAR_EPS)[:, None]


def _standardize(member: np.ndarray, mean, sigma) -> np.ndarray:
    xhat = member - mean
    xhat /= sigma
    return xhat


def _affine(xhat: np.ndarray, norm: NormState) -> np.ndarray:
    normed = norm.gamma[:, None] * xhat
    normed += norm.beta[:, None]
    return normed


def _rectified_gate(normed: np.ndarray) -> np.ndarray:
    """Rectify ``normed`` in place; return the sigmoid of its sum over the level sets."""
    np.maximum(normed, 0.0, out=normed)
    return sigmoid(normed.sum(axis=0))


def multi_forward(stack, alpha, params: MultiParams):
    """Additive recalibration by pooled level-set memberships.

    Per position: normalize each level set's membership, rectify, sum
    over the level sets, squash with a sigmoid, and add the resulting
    gate field to the stack.  Returns ``(gate_field, stack + gate_field)``.

    Runs over fixed blocks of ``LEVEL_SET_BLOCK`` flattened positions:
    one pass gathers the per-instance statistics (none when they are
    frozen), a second gates each block, so memory is
    O(H*W*C + LEVEL_SET_BLOCK*Q).
    """
    stack, alpha = _level_set_input(stack, alpha)
    mean, sigma = _level_set_statistics(alpha, params)
    gate = np.empty(stack.shape)
    flat_gate = gate.reshape(-1)
    for block in _blocks(alpha.size):
        xhat = _standardize(_membership_block(alpha[block], params)[0], mean, sigma)
        flat_gate[block] = _rectified_gate(_affine(xhat, params.norm))
    return gate, stack + gate


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
                  scales=DEFAULT_SCALES, epsilon: float = DEFAULT_EPSILON) -> MonoGradients:
    """Exact reverse-mode gradients through the exponent-gated pipeline.

    ``upstream`` is the loss cotangent of the recalibrated stack.  The
    stack gradient combines the direct multiplicative path with the
    chain through windowed masses, logs, the slope fit, normalization,
    pooling, and the MLP.  The rectifier subgradient at zero is zero.
    """
    stack = _as_stack(stack)
    upstream = _as_stack(upstream)
    if upstream.shape != stack.shape:
        raise ValueError("upstream cotangent must match the stack shape")
    h, w, _ = stack.shape

    # forward pass, caching every intermediate
    measures = box_measures(stack, scales, epsilon)
    alpha = slope_from_measures(measures, scales)
    normed, norm_cache = _normalize_with_cache(alpha, params.norm)
    z = gap(normed)
    a1, h1, a2 = _mlp_logits(z, params)
    gates = sigmoid(a2)

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

    # pooling and normalization
    d_normed = np.broadcast_to(d_z / (h * w), alpha.shape)
    d_alpha, d_gamma, d_beta = normalize_vjp(d_normed, norm_cache)

    # slope fit and windowed masses
    weights = log_slope_weights(scales)
    for weight, side, mu in zip(weights, scales, measures):
        d_stack = d_stack + window_sum_adjoint(weight * d_alpha / mu, side)

    return MonoGradients(
        w1=d_w1, b1=d_b1, w2=d_w2, b2=d_b2,
        gamma=d_gamma, beta=d_beta, stack=d_stack,
    )


def multi_backward(stack, alpha, params: MultiParams, upstream) -> MultiGradients:
    """Exact reverse-mode gradients through the level-set pipeline.

    ``alpha`` is treated as an independent input; its gradient is
    returned so callers can chain it through an exponent-map backward of
    their choice.  The stack gradient of the additive head is the
    upstream cotangent itself.

    Uses the blocks of :func:`multi_forward`.  After the statistics
    pass, one pass accumulates the two per-level-set sums that the
    normalization's reverse needs, and a second forms the parameter and
    exponent gradients.
    """
    stack, alpha = _level_set_input(stack, alpha)
    upstream = _as_stack(upstream)
    if upstream.shape != stack.shape:
        raise ValueError("upstream cotangent must match the stack shape")
    flat_up = upstream.reshape(-1)
    norm = params.norm
    mean, sigma = _level_set_statistics(alpha, params)
    d_pooled = np.empty(alpha.size)

    def rectified_cotangent(block, normed):
        """Overwrite ``normed``, or its rectified values, with d_pooled * (normed > 0)."""
        np.greater(normed, 0.0, out=normed)
        normed *= d_pooled[block]
        return normed

    def normalization_sums(block):
        """Gate cotangents of a block, and its share of sum(d_normed), sum(d_normed * xhat)."""
        xhat = _standardize(_membership_block(alpha[block], params)[0], mean, sigma)
        normed = _affine(xhat, norm)
        gate = _rectified_gate(normed)
        d_pooled[block] = flat_up[block] * gate * (1.0 - gate)
        d_normed = rectified_cotangent(block, normed)
        return d_normed.sum(axis=1), np.einsum("qn,qn->q", d_normed, xhat)

    d_beta = np.zeros(norm.channels)
    d_gamma = np.zeros(norm.channels)
    for block in _blocks(alpha.size):
        beta_part, gamma_part = normalization_sums(block)
        d_beta += beta_part
        d_gamma += gamma_part

    # per-instance statistics move with every membership: two correction terms
    per_instance = norm.mode != "frozen"
    shift = (norm.gamma * d_beta / alpha.size)[:, None]
    tilt = (norm.gamma * d_gamma / alpha.size)[:, None]

    def parameter_terms(block):
        """Per-level-set sums of d_logits * diff and d_logits * diff**2, and d_alpha."""
        member, diff = _membership_block(alpha[block], params)
        xhat = _standardize(member, mean, sigma)
        d_member = rectified_cotangent(block, _affine(xhat, norm))
        d_member *= norm.gamma[:, None]
        if per_instance:
            d_member -= shift
            xhat *= tilt
            d_member -= xhat
        d_member /= sigma
        # softmax over the level-set axis: d_logits = member * (d_member - inner)
        d_member -= np.einsum("qn,qn->n", d_member, member)
        d_member *= member
        d_member *= diff  # d_logits * diff from here on
        centers = d_member.sum(axis=1)
        sharpness = np.einsum("qn,qn->q", d_member, diff)
        d_member *= params.sharpness[:, None]
        return centers, sharpness, d_member.sum(axis=0)

    d_centers = np.zeros(norm.channels)
    d_sharpness = np.zeros(norm.channels)
    d_alpha = np.empty(alpha.size)
    for block in _blocks(alpha.size):
        centers_part, sharpness_part, d_alpha[block] = parameter_terms(block)
        d_centers += centers_part
        d_sharpness -= sharpness_part
    d_centers *= 2.0 * params.sharpness
    d_alpha *= -2.0

    return MultiGradients(
        centers=d_centers, sharpness=d_sharpness,
        gamma=d_gamma, beta=d_beta,
        stack=upstream.copy(), alpha=d_alpha.reshape(stack.shape),
    )
