"""Per-pixel local scaling exponents from multi-scale box measures.

The local exponent at a pixel is the log-log slope of its windowed
mass against the window side: collect ``mu(B_k(x))`` for the sides in a
scale set, then fit ``log mu = alpha * log k + c`` by ordinary least
squares.  On a strictly positive constant 2-D field the interior slope
is exactly 2 (window mass grows with window area); multiplying the
field by a positive constant shifts every log by the same amount and
leaves the slope untouched.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .grid import require_measure, window_sum

__all__ = [
    "ScaleSet",
    "DEFAULT_SCALES",
    "DEFAULT_EPSILON",
    "VAR_EPS",
    "NormState",
    "log_slope_weights",
    "box_measures",
    "slope_from_measures",
    "holder_map",
    "mean_alpha",
    "interior_view",
    "normalize",
]

DEFAULT_EPSILON = 1e-6  # mass floor added after window summation, before logs
VAR_EPS = 1e-5          # variance floor of the channel normalization


@dataclass(frozen=True)
class ScaleSet:
    """Strictly increasing window sides; at least two, else no slope."""

    sides: tuple

    def __post_init__(self):
        sides = tuple(int(s) for s in self.sides)
        object.__setattr__(self, "sides", sides)
        if len(sides) < 2:
            raise ValueError("need at least two scales to fit a slope")
        if sides[0] < 1:
            raise ValueError("window sides must be >= 1")
        if any(b <= a for a, b in zip(sides, sides[1:])):
            raise ValueError("window sides must be strictly increasing")

    def __iter__(self):
        return iter(self.sides)

    def __len__(self):
        return len(self.sides)


DEFAULT_SCALES = ScaleSet((2, 3, 4))


def _as_scales(scales) -> ScaleSet:
    return scales if isinstance(scales, ScaleSet) else ScaleSet(tuple(scales))


def log_slope_weights(scales) -> np.ndarray:
    """OLS weights ``w_s`` such that ``slope = sum_s w_s * log mu_s``.

    With abscissa ``x_s = log k_s`` the paired least-squares slope
    ``sum (x - xbar)(y - ybar) / sum (x - xbar)^2`` is the fixed linear
    functional ``w = (x - xbar) / sum (x - xbar)^2`` of the ordinates.
    """
    scales = _as_scales(scales)
    x = np.log(np.array(scales.sides, dtype=np.float64))
    dev = x - x.mean()
    return dev / np.dot(dev, dev)


def _channel_chunks(channels: int, threads: int):
    bounds = np.linspace(0, channels, max(min(threads, channels), 1) + 1).astype(int)
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


def box_measures(field, scales=DEFAULT_SCALES, epsilon: float = DEFAULT_EPSILON,
                 threads: int = 1) -> list:
    """Windowed mass ``window_sum(field, k) + epsilon`` for every scale.

    The epsilon floor keeps logs finite on fields with exact zeros
    (feature maps, masked measures); pass ``epsilon=0`` for strictly
    positive measures where the floor would bias small masses.

    One path for every ``threads``: one preallocated block holds the
    C-contiguous outputs, one per scale.  It is filled chunk by chunk
    over ``min(threads, C)`` contiguous channel chunks (a 2-D field is
    one channel), the first on the calling thread and the rest on a
    thread pool.  Each chunk goes straight to one :func:`window_sum` per
    scale, a direct sum with no subtraction.  Neither per-channel
    accumulation order nor output layout depends on the chunks, so
    results are bit-identical for every worker count.
    """
    field = require_measure(field)
    scales = _as_scales(scales)
    if epsilon < 0.0:
        raise ValueError("epsilon must be >= 0")
    stack = field[:, :, None] if field.ndim == 2 else field
    outs = np.empty((len(scales),) + stack.shape)
    chunks = _channel_chunks(stack.shape[2], threads)

    def work(bounds):
        lo, hi = bounds
        for out, side in zip(outs, scales):
            out[:, :, lo:hi] = window_sum(stack[:, :, lo:hi], side)

    # the calling thread fills the first chunk; a single chunk starts no thread
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        rest = pool.map(work, chunks[1:])
        work(chunks[0])
        list(rest)
    if epsilon > 0.0:
        outs += epsilon
    return list(outs.reshape((len(scales),) + field.shape))


def slope_from_measures(measures, scales) -> np.ndarray:
    """Per-pixel OLS slope of ``log mu`` against ``log k`` over the scale set.

    Every windowed mass must be positive.  A mass <= 0 (a window of
    zero mass at ``epsilon = 0``) has no finite log and raises
    ``ValueError``.
    """
    scales = _as_scales(scales)
    if len(measures) != len(scales):
        raise ValueError("one measure field per scale required")
    weights = log_slope_weights(scales)
    try:
        # log of a mass <= 0 sets the divide/invalid flag; no extra pass over the data
        with np.errstate(divide="raise", invalid="raise"):
            out = weights[0] * np.log(measures[0])
            for w, mu in zip(weights[1:], measures[1:]):
                out += w * np.log(mu)
    except FloatingPointError:
        raise ValueError(
            "some windowed masses are <= 0, so their log-log slopes are not finite "
            "(zero-mass windows at epsilon = 0); use epsilon > 0"
        ) from None
    return out


def holder_map(field, scales=DEFAULT_SCALES, epsilon: float = DEFAULT_EPSILON,
               threads: int = 1) -> np.ndarray:
    """Local exponent map: slope of log windowed mass vs. log window side.

    Output has the field's shape.  Masses are direct window sums, so
    values are finite whenever ``epsilon > 0``; with ``epsilon = 0`` a
    window without positive mass raises ``ValueError``.
    """
    scales = _as_scales(scales)
    measures = box_measures(field, scales, epsilon, threads)
    return slope_from_measures(measures, scales)


def mean_alpha(alpha_map) -> np.ndarray:
    """Spatial mean of an exponent map, one value per channel."""
    alpha_map = np.asarray(alpha_map, dtype=np.float64)
    if alpha_map.ndim not in (2, 3):
        raise ValueError("alpha map must be (H, W) or (H, W, C)")
    return np.atleast_1d(alpha_map.mean(axis=(0, 1)))


def _unclipped_interior(shape, scales) -> tuple:
    """Row/column slices of pixels whose windows never clip at any scale."""
    scales = _as_scales(scales)
    h, w = shape[0], shape[1]
    lo = max(side // 2 for side in scales)
    hi_row = min(h - (side - side // 2) for side in scales)
    hi_col = min(w - (side - side // 2) for side in scales)
    if hi_row < lo or hi_col < lo:
        raise ValueError("field too small: no pixel has fully interior windows")
    return slice(lo, hi_row + 1), slice(lo, hi_col + 1)


def interior_view(alpha_map, scales) -> np.ndarray:
    """Restrict a map to the clipping-free interior (border slopes are biased)."""
    alpha_map = np.asarray(alpha_map)
    rows, cols = _unclipped_interior(alpha_map.shape, scales)
    return alpha_map[rows, cols]


# ---------------------------------------------------------------------------
# channel normalization of exponent maps


@dataclass
class NormState:
    """Learnable per-channel affine plus stored statistics.

    ``mode`` selects where the standardizing statistics come from:
    ``per-instance`` uses the current map, ``frozen`` the stored
    ``running_mean``/``running_var``.  Normalizing never updates the
    stored values.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    mode: str = "per-instance"

    _MODES = ("per-instance", "frozen")

    def __post_init__(self):
        self.gamma = np.atleast_1d(np.asarray(self.gamma, dtype=np.float64))
        self.beta = np.atleast_1d(np.asarray(self.beta, dtype=np.float64))
        self.running_mean = np.atleast_1d(np.asarray(self.running_mean, dtype=np.float64))
        self.running_var = np.atleast_1d(np.asarray(self.running_var, dtype=np.float64))
        if self.mode not in self._MODES:
            raise ValueError(f"mode must be one of {self._MODES}")
        if np.any(self.running_var < 0.0):
            raise ValueError("running variance must be >= 0")
        if not np.all(np.isfinite(self.gamma)):
            raise ValueError("gamma must be finite")

    @classmethod
    def identity(cls, channels: int, mode: str = "per-instance") -> "NormState":
        """gamma = 1, beta = 0, running stats at the standard normal."""
        return cls(
            gamma=np.ones(channels),
            beta=np.zeros(channels),
            running_mean=np.zeros(channels),
            running_var=np.ones(channels),
            mode=mode,
        )

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


def _normalize_with_cache(values, state: NormState):
    x = np.asarray(values, dtype=np.float64)
    if x.shape[-1] != state.channels:
        raise ValueError("channel axis length does not match the norm state")
    axes = tuple(range(x.ndim - 1))
    if state.mode == "frozen":
        mean, var = state.running_mean, state.running_var
    else:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
    sigma = np.sqrt(var + VAR_EPS)
    xhat = (x - mean) / sigma
    out = state.gamma * xhat + state.beta
    cache = (xhat, sigma, state.gamma, state.mode, axes)
    return out, cache


def normalize(values, state: NormState) -> np.ndarray:
    """Standardize per channel, then apply the learnable affine.

    The channel axis is the last one.  ``(x - mean) / sqrt(var + 1e-5)
    * gamma + beta`` with statistics chosen by ``state.mode``.  A
    constant channel standardizes to zero (the variance floor prevents
    blow-up).
    """
    out, _ = _normalize_with_cache(values, state)
    return out


def normalize_vjp(grad_out, cache):
    """Reverse-mode derivatives of :func:`normalize`.

    Returns ``(grad_values, grad_gamma, grad_beta)`` for the upstream
    cotangent ``grad_out``.  In ``per-instance`` mode the mean and
    variance depend on the input, which contributes the usual two
    correction terms.
    """
    xhat, sigma, gamma, mode, axes = cache
    grad_out = np.asarray(grad_out, dtype=np.float64)
    grad_gamma = (grad_out * xhat).sum(axis=axes)
    grad_beta = grad_out.sum(axis=axes)
    gxhat = grad_out * gamma
    if mode == "frozen":
        grad_x = gxhat / sigma
    else:
        m = gxhat.mean(axis=axes, keepdims=True)
        mx = (gxhat * xhat).mean(axis=axes, keepdims=True)
        grad_x = (gxhat - m - xhat * mx) / sigma
    return grad_x, grad_gamma, grad_beta
