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

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .grid import _padded_sum, require_measure, window_sum

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
BAND_BYTES = 512 * 1024  # rows of one band of the exponent map and its adjoint, in bytes


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


def _available_cpus() -> int:
    """The CPUs this process may run on: the default worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _run_ranges(work, count: int, threads: int | None) -> list:
    """``work(lo, hi)`` over ``min(threads, count)`` contiguous ranges of ``range(count)``.

    The first range runs on the calling thread and the rest on a thread
    pool, so a single range starts no thread.  Results come back in
    range order; an exception raised in a worker reaches the caller
    unchanged.  ``threads=None`` means every CPU this process may use.
    """
    if threads is None:
        threads = _available_cpus()
    bounds = np.linspace(0, count, max(min(threads, count), 1) + 1).astype(int)
    ranges = list(zip(bounds[:-1], bounds[1:]))
    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        rest = [pool.submit(work, lo, hi) for lo, hi in ranges[1:]]
        first = work(*ranges[0])
        return [first] + [future.result() for future in rest]


def _mass(sums: np.ndarray, epsilon: float) -> np.ndarray:
    # a windowed mass: window sums plus the epsilon floor, in place
    if epsilon > 0.0:
        sums += epsilon
    return sums


def box_measures(field, scales=DEFAULT_SCALES, epsilon: float = DEFAULT_EPSILON) -> list:
    """Windowed mass ``window_sum(field, k) + epsilon`` for every scale.

    The epsilon floor keeps logs finite on fields with exact zeros
    (feature maps, masked measures); pass ``epsilon=0`` for strictly
    positive measures where the floor would bias small masses.

    The plain serial reference: :func:`holder_map` and its adjoint
    re-derive these masses per row band and never hold them all.
    No shipping path calls it.
    """
    field = require_measure(field)
    if epsilon < 0.0:
        raise ValueError("epsilon must be >= 0")
    return [_mass(window_sum(field, side), epsilon) for side in _as_scales(scales)]


def _run_bands(work, stack: np.ndarray, halo: int, threads: int | None) -> None:
    """``work(tile, lo, hi)`` for every row band ``[lo, hi)`` of the (H, W, C) ``stack``.

    ``tile`` holds rows ``lo - halo`` to ``hi + halo`` and ``halo`` more
    columns on either side, zero outside the image, so every window
    reaching at most ``halo`` cells past the band is a slice of it.  A
    band has as many padded rows as fit in ``BAND_BYTES`` (at least one),
    so that the tile and the few band-sized temporaries of its window
    sums stay in a core's L2 cache, and at most ``ceil(H / threads)``, so
    that a field of ``threads`` rows splits over every worker and a small
    field's tile is no larger than the field plus its halo.  Groups of
    whole bands run on :func:`_run_ranges`, each worker reusing one tile.
    """
    if threads is None:
        threads = _available_cpus()
    h, w, c = stack.shape
    row_bytes = (w + 2 * halo) * c * stack.itemsize
    rows = min(max(BAND_BYTES // row_bytes, 1), -(-h // threads))
    starts = range(0, h, rows)

    def bands(first, last):
        buffer = np.zeros((rows + 2 * halo, w + 2 * halo, c))  # one tile per worker
        for lo in starts[first:last]:
            hi = min(lo + rows, h)
            tile = buffer[:hi - lo + 2 * halo]
            top, bottom = max(lo - halo, 0), min(hi + halo, h)
            tile[:top - lo + halo] = 0.0  # rows past the image's edges
            tile[bottom - lo + halo:] = 0.0
            tile[top - lo + halo:bottom - lo + halo, halo:halo + w] = stack[top:bottom]
            work(tile, lo, hi)

    _run_ranges(bands, len(starts), threads)


def _tile_sums(tile: np.ndarray, first: int, last: int, side: int, halo: int) -> np.ndarray:
    # window_sum(field, side) at rows lo + first to lo + last of the field,
    # summed from a view of the tile that :func:`_run_bands` gives the band
    # starting at row lo; first and last may reach into the halo
    offset, width = side // 2, tile.shape[1] - 2 * halo
    return _padded_sum(tile[halo + first - offset:halo + last - offset + side - 1,
                            halo - offset:halo - offset + width + side - 1], side)


@contextmanager
def _finite_logs():
    """Raise ``ValueError`` where the log of a windowed mass is not finite.

    A log of a mass <= 0 sets the divide/invalid flag, so no extra pass
    over the data is needed.  The flag state is per thread: enter this
    on the thread that takes the logs.
    """
    try:
        with np.errstate(divide="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise ValueError(
            "some windowed masses are <= 0, so their log-log slopes are not finite "
            "(zero-mass windows at epsilon = 0); use epsilon > 0"
        ) from None


def slope_from_measures(measures, scales) -> np.ndarray:
    """Per-pixel OLS slope of ``log mu`` against ``log k`` over the scale set.

    Every windowed mass must be positive.  A mass <= 0 (a window of
    zero mass at ``epsilon = 0``) has no finite log and raises
    ``ValueError``.  The masses are left untouched.
    """
    scales = _as_scales(scales)
    if len(measures) != len(scales):
        raise ValueError("one measure field per scale required")
    weights = log_slope_weights(scales)
    with _finite_logs():
        out = weights[0] * np.log(measures[0])
        for w, mu in zip(weights[1:], measures[1:]):
            out += w * np.log(mu)
    return out


def holder_map(field, scales=DEFAULT_SCALES, epsilon: float = DEFAULT_EPSILON,
               threads: int | None = None) -> np.ndarray:
    """Local exponent map: slope of log windowed mass vs. log window side.

    Output has the field's shape.  Masses are direct window sums, so
    values are finite whenever ``epsilon > 0``; with ``epsilon = 0`` a
    window without positive mass raises ``ValueError``.

    One pass per row band over all channels (a 2-D field is one
    channel), on ``threads`` workers (default: every CPU this process
    may use): each band's rows and a halo are copied into one
    zero-bordered tile (see ``BAND_BYTES``), and while it stays in cache
    the band takes one window sum per scale, its log in place, and adds
    the weighted log into the output before the next scale.
    The bytes equal ``slope_from_measures(box_measures(...))`` for every
    ``threads``.  Peak memory is the output plus a few tile-sized
    temporaries per worker; the masses are never held for all scales.
    """
    scales = _as_scales(scales)
    field = require_measure(field)
    if epsilon < 0.0:
        raise ValueError("epsilon must be >= 0")
    weights = log_slope_weights(scales)
    stack = field[:, :, None] if field.ndim == 2 else field
    alpha = np.empty(stack.shape)
    halo = max(scales) // 2

    def work(tile, lo, hi):
        out = alpha[lo:hi]
        with _finite_logs():
            for k, (w, side) in enumerate(zip(weights, scales)):
                mu = _mass(_tile_sums(tile, 0, hi - lo, side, halo), epsilon)
                np.log(mu, out=mu)
                if k == 0:
                    np.multiply(mu, w, out=out)
                else:
                    mu *= w
                    out += mu
                del mu  # free this scale's masses before the next window sum

    _run_bands(work, stack, halo, threads)
    return alpha.reshape(field.shape)


def _holder_map_vjp(stack, d_alpha, d_stack, scales, epsilon: float, threads: int | None):
    """Add the vector-Jacobian product of :func:`holder_map` into ``d_stack``.

    Per row band of the (H, W, C) ``stack``, adds ``window_sum_adjoint(w
    * d_alpha / mu, side)`` scale by scale, re-deriving the masses ``mu``
    of the band and of the ``side - 1`` rows around it that its adjoint
    windows reach, rather than holding them, so the bytes do not depend
    on ``threads``.  ``stack`` must be one that :func:`holder_map`
    accepted (positive masses).
    """
    scales = _as_scales(scales)
    weights = log_slope_weights(scales)
    h, w, c = stack.shape
    halo = max(scales) - 1

    def work(tile, lo, hi):
        for weight, side in zip(weights, scales):
            back = side - 1 - side // 2  # anchor offset of the adjoint windows
            first, last = max(lo - back, 0), min(hi + side - 1 - back, h)
            mu = _mass(_tile_sums(tile, first - lo, last - lo, side, halo), epsilon)
            np.divide(weight * d_alpha[first:last], mu, out=mu)
            cotangent = np.zeros((hi - lo + side - 1, w + side - 1, c))
            cotangent[first - lo + back:last - lo + back, back:back + w] = mu
            del mu
            d_stack[lo:hi] += _padded_sum(cotangent, side)

    _run_bands(work, stack, halo, threads)


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
# channel normalization


@dataclass
class NormState:
    """Learnable per-channel affine plus stored statistics.

    ``mode`` selects where the standardizing statistics come from:
    ``frozen`` uses the stored ``running_mean``/``running_var``,
    ``per-instance`` the current input.  A (C,) squeeze needs frozen
    statistics; the level-set path takes either mode.  Normalizing never
    updates the stored values.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    mode: str = "per-instance"

    _MODES = ("per-instance", "frozen")

    def __post_init__(self):
        names = ("gamma", "beta", "running_mean", "running_var")
        for name in names:
            setattr(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=np.float64)))
        if self.mode not in self._MODES:
            raise ValueError(f"mode must be one of {self._MODES}")
        shapes = {getattr(self, name).shape for name in names}
        if len(shapes) != 1 or self.gamma.ndim != 1:
            raise ValueError("gamma, beta, running_mean and running_var must share one 1-D shape")
        for name in names:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if np.any(self.running_var < 0.0):
            raise ValueError("running variance must be >= 0")

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


def _require_frozen(state: NormState) -> None:
    """Reject per-instance statistics, which standardize a (C,) squeeze to 0."""
    if state.mode != "frozen":
        raise ValueError("per-instance statistics standardize a squeeze's single value "
                         "per channel to 0; use frozen statistics")


def _normalize_with_cache(values, state: NormState):
    _require_frozen(state)
    x = np.asarray(values, dtype=np.float64)
    if x.shape != (state.channels,):
        raise ValueError(f"expected one value per channel, ({state.channels},), got {x.shape}")
    sigma = np.sqrt(state.running_var + VAR_EPS)
    xhat = (x - state.running_mean) / sigma
    return state.gamma * xhat + state.beta, (xhat, sigma, state.gamma)


def normalize(values, state: NormState) -> np.ndarray:
    """Standardize a (C,) squeeze by the stored statistics, then apply the affine.

    ``(x - running_mean) / sqrt(running_var + 1e-5) * gamma + beta``.
    Per-instance statistics (which would standardize each value to 0)
    and any shape but ``(C,)`` raise ``ValueError``.
    """
    return _normalize_with_cache(values, state)[0]


def normalize_vjp(grad_out, cache):
    """Reverse-mode derivatives of :func:`normalize`.

    Returns ``(grad_values, grad_gamma, grad_beta)`` for the upstream
    cotangent ``grad_out``: the stored statistics do not depend on the
    input, so the reverse of the affine is elementwise.
    """
    xhat, sigma, gamma = cache
    grad_out = np.asarray(grad_out, dtype=np.float64)
    return grad_out * gamma / sigma, grad_out * xhat, grad_out
