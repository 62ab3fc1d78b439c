"""Per-pixel local scaling exponents from multi-scale box measures.

The local exponent at a pixel is the log-log slope of its windowed
mass against the window side: collect ``mu(B_k(x))`` for the sides in a
scale set, then fit ``log mu = alpha * log k + c`` by ordinary least
squares.  On a strictly positive constant 2-D field the interior slope
is exactly 2 (window mass grows with window area); multiplying the
field by a positive constant shifts every log by the same amount and
leaves the slope untouched.

:func:`holder_map` maps an array, or a field that it reads band by
band (a container file), checking each band's rows as they arrive; it
can sum the channel means on the way.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from .grid import _add_terms, _check_shape, _padded_sum, require_measure, window_sum

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


def _run_units(work, units, scratch, threads: int | None) -> list:
    """``[work(unit, *buffers) for unit in units]`` over at most ``threads`` workers.

    The input fixes ``units``; ``threads`` only caps how many workers
    share them (default: every CPU this process may use).  Each worker
    takes a contiguous group of units and enters ``scratch()``, a
    context manager, once: it gives the ``buffers`` (and handles) the
    worker reuses across its group, and its exit releases them when the
    group is done or fails.  The first group runs on the
    calling thread, so a single unit starts no thread.  Results come
    back in unit order; an exception raised in a worker reaches the
    caller unchanged.
    """
    if threads is None:
        threads = _available_cpus()
    bounds = np.linspace(0, len(units), max(min(threads, len(units)), 1) + 1).astype(int)
    groups = [units[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    def run(group):
        with scratch() as buffers:
            return [work(unit, *buffers) for unit in group]

    with ThreadPoolExecutor(max_workers=len(groups)) as pool:
        rest = [pool.submit(run, group) for group in groups[1:]]
        first = run(groups[0])
        return first + [result for future in rest for result in future.result()]


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
    if not 0.0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    return [_mass(window_sum(field, side), epsilon) for side in _as_scales(scales)]


def _run_bands(work, source, halo: int, threads: int | None, scratch) -> None:
    """``work(tile, lo, hi, *buffers)`` for every row band ``[lo, hi)`` of ``source``.

    ``source`` is a checked (H, W, C) float64 stack, whose rows are
    copied into each tile, or a row source of shape (H, W[, C]) (see
    :func:`holder_map`), whose rows each worker reads into its
    tiles through a ``reader()`` of its own and checks there as a
    measure, before any mass is taken of them.  ``tile`` holds rows
    ``lo - halo`` to ``hi + halo`` and ``halo`` more columns on either
    side, zero outside the image, so every window reaching at most
    ``halo`` cells past the band is a slice of it.  The bands are the
    fewest of equal height (the last may be shorter) whose padded rows
    fit in ``BAND_BYTES`` (at least one row each), so that the tile and
    the band-sized buffers of its window sums stay in a core's L2 cache.
    The shape alone fixes them; they run on :func:`_run_units`, each
    worker reusing one tile and the ``buffers`` that ``scratch(rows)``
    makes for bands of at most ``rows`` rows.
    """
    h, w, c = source.shape[0], source.shape[1], math.prod(source.shape[2:])
    fit = max(BAND_BYTES // ((w + 2 * halo) * c * 8), 1)  # float64 tile rows
    bands = -(-h // fit)  # the fewest bands of at most fit rows,
    rows = -(-h // bands)  # of equal height
    in_memory = isinstance(source, np.ndarray)

    def copy_rows(out, top):
        out[...] = source[top:top + len(out)]

    def band(lo, read, buffer, *buffers):
        hi = min(lo + rows, h)
        tile = buffer[:hi - lo + 2 * halo]
        top, bottom = max(lo - halo, 0), min(hi + halo, h)
        tile[:top - lo + halo] = 0.0  # rows past the image's edges
        tile[bottom - lo + halo:] = 0.0
        filled = tile[top - lo + halo:bottom - lo + halo, halo:halo + w]
        read(filled, top)
        if not in_memory:
            require_measure(filled)
        work(tile, lo, hi, *buffers)

    def worker():
        return _entered(nullcontext(copy_rows) if in_memory else source.reader(),
                        [np.zeros((rows + 2 * halo, w + 2 * halo, c)), *scratch(rows)])

    _run_units(band, range(0, h, rows), worker, threads)


@contextmanager
def _entered(context, buffers: list):
    """``[value, *buffers]`` while ``context`` is entered, its ``value`` first."""
    with context as value:
        yield [value, *buffers]


def _band_masses(tile: np.ndarray, halo: int, scales: ScaleSet, spans, epsilon: float,
                 rows: np.ndarray, mass: np.ndarray):
    """Yield the windowed masses of a band at each side in turn, in ``mass``.

    ``spans[k] = (first, last)`` are the rows, counted from the band's
    first row, whose side-k masses the caller wants; they may reach into
    the halo of the ``tile`` that :func:`_run_bands` gives the band.  The
    row sums live in ``rows``, as wide as the tile and indexed by the
    tile row where a window starts.  Sides ascend, so a side's row sums
    are the previous side's plus the rows between them, added in place
    and in order: the adds of a fresh row pass, so no byte moves.  Each
    side updates only the rows that it and the larger sides still read.
    Each yielded array is a leading slice of ``mass``, overwritten by
    the next.
    """
    starts = [halo + first - side // 2 for side, (first, _) in zip(scales, spans)]
    stops = [start + last - first for start, (first, last) in zip(starts, spans)]
    done = 0
    for k, side in enumerate(scales):
        lo, hi = min(starts[k:]), max(stops[k:])
        _add_terms(tile[lo:], side, rows[lo:hi], 0, done)
        done = side
        sums = rows[starts[k]:stops[k], halo - side // 2:]
        yield _mass(_add_terms(sums, side, mass[:stops[k] - starts[k]], 1), epsilon)


@contextmanager
def _finite_logs():
    """Raise ``ValueError`` where a windowed mass or its log is not finite.

    A window sum that overflows sets the overflow flag, and a log of a
    mass <= 0 the divide/invalid flag, so no extra pass over the data is
    needed.  The flag state is per thread: enter this on the thread that
    sums the windows and takes the logs.
    """
    try:
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            yield
    except FloatingPointError as exc:
        if str(exc).startswith("overflow"):
            raise ValueError("some windowed masses overflow float64, so their log-log "
                             "slopes are not finite; rescale the input") from None
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


def holder_map(source, scales=DEFAULT_SCALES, epsilon: float = DEFAULT_EPSILON,
               threads: int | None = None, means: np.ndarray | None = None) -> np.ndarray:
    """Local exponent map: slope of log windowed mass vs. log window side.

    ``source`` is a field array, (H, W) or (H, W, C), checked whole on
    entry (finite, >= 0), or a row source: an object with the field's
    ``shape`` and a ``reader()`` context manager that gives
    ``read(out, top)``, which fills the float64 array ``out`` with the
    field's rows from row ``top`` on (``io.ContainerRows`` reads a
    container file so).  A row source's shape is checked before any
    read, and each band's rows as they are read, with the same messages,
    so the field is never held whole; the first band that fails, by
    rows, decides the error, whatever ``threads`` is.  The map has the
    field's shape.  Masses are direct window sums; a window sum that
    overflows float64, or with ``epsilon = 0`` a window without positive
    mass, raises ``ValueError``.

    One pass per row band over all channels (a 2-D field is one
    channel), on at most ``threads`` workers (default: every CPU this
    process may use): each band's rows and a halo are copied from the
    array, or read through the worker's own ``reader()``, into one
    zero-bordered tile (see ``BAND_BYTES``), and while it stays in cache
    the band takes one window sum per scale, its log in place, and adds
    the weighted log into the output before the next scale.  A side's
    row sums extend the previous side's by the rows between them, in
    place and in order, so the default sides (2, 3, 4) take 3 row adds
    per output rather than 6 (see :func:`_band_masses`).
    The bytes equal ``slope_from_measures(box_measures(...))`` for every
    ``threads`` and either kind of source.  Each worker reuses one tile,
    one row-sum buffer and one mass buffer for all its bands, so peak
    memory is the output plus those three band-sized buffers per worker;
    nothing is allocated per band or per scale, and the masses are never
    held for all scales.

    ``means``, a (2, C) float64 array (C = 1 for a 2-D field), receives
    per channel the mean exponent over all pixels (row 0) and over the
    unclipped interior (row 1, see :func:`interior_view`); a ``means``
    of another shape or dtype, or a field with no such interior, raises
    ``ValueError`` before any read.  Each band writes the per-row
    channel sums of its exponents, over all columns and over the
    interior's, while they are in cache; a row's sums are NumPy's sums
    of that row of the map.  After the sweep they are folded in row
    order and divided by the pixel count, so the means depend on the map
    alone, not on ``threads`` or the bands.  :func:`mean_alpha` of the
    map and of its interior view sum in NumPy's own order, so the two
    agree to the last digits only (within 2.3e-14 relative on a
    224x224x128 uniform field).
    """
    scales = _as_scales(scales)
    if hasattr(source, "reader"):  # a row source, checked band by band
        shape = tuple(source.shape)
        _check_shape(shape)
    else:
        field = require_measure(source)
        shape, source = field.shape, field[:, :, None] if field.ndim == 2 else field
    if not 0.0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    h, w, c = shape[0], shape[1], math.prod(shape[2:])
    if means is not None:
        if not (isinstance(means, np.ndarray) and means.shape == (2, c)
                and means.dtype == np.float64):
            raise ValueError(f"means must be a (2, {c}) float64 array")
        inner_rows, inner_cols = _unclipped_interior(shape, scales)
        sums = np.empty((2, h, c))  # per-row channel sums: over all columns, over the interior's
    weights = log_slope_weights(scales)
    alpha = np.empty((h, w, c))
    halo = max(scales) // 2

    def work(tile, lo, hi, rows, mass):
        out = alpha[lo:hi]
        spans = [(0, hi - lo)] * len(scales)
        with _finite_logs():
            masses = _band_masses(tile, halo, scales, spans, epsilon, rows, mass)
            for k, (weight, mu) in enumerate(zip(weights, masses)):
                np.log(mu, out=mu)
                if k == 0:
                    np.multiply(mu, weight, out=out)
                else:
                    mu *= weight
                    out += mu
        if means is not None:
            np.sum(out, axis=1, out=sums[0, lo:hi])
            np.sum(out[:, inner_cols], axis=1, out=sums[1, lo:hi])

    _run_bands(work, source, halo, threads, lambda rows: [
        np.empty((rows + halo - min(scales) // 2, w + 2 * halo, c)),  # row sums
        np.empty((rows, w, c)),                                       # masses
    ])
    if means is not None:  # the row sums, added in row order
        interior = (inner_rows.stop - inner_rows.start) * (inner_cols.stop - inner_cols.start)
        means[0] = functools.reduce(np.add, sums[0]) / (h * w)
        means[1] = functools.reduce(np.add, sums[1, inner_rows]) / interior
    return alpha.reshape(shape)


def _holder_map_vjp(stack, d_alpha, d_stack, scales, epsilon: float, threads: int | None):
    """Add the vector-Jacobian product of :func:`holder_map` into ``d_stack``.

    ``d_alpha`` is the (C,) exponent cotangent that every pixel of a
    channel shares.  Per row band of the (H, W, C) ``stack``, adds
    ``window_sum_adjoint(w * d_alpha / mu, side)`` scale by scale,
    re-deriving the masses ``mu`` of the band and of the ``side - 1``
    rows around it that its adjoint windows reach, so the bytes do not
    depend on ``threads``.  The masses come from the band kernel of
    :func:`holder_map`, with its chained row sums; each worker reuses
    one set of buffers for them, for the zero-bordered cotangent and for
    its adjoint window sum.  ``stack`` must be one that
    :func:`holder_map` accepted (positive masses).
    """
    scales = _as_scales(scales)
    weights = log_slope_weights(scales)
    h, w, c = stack.shape
    halo = max(scales) - 1
    backs = [side - 1 - side // 2 for side in scales]  # anchor offsets of the adjoint windows

    def work(tile, lo, hi, rows, mass, cotangent, adjoint_rows, adjoint):
        n = hi - lo
        spans = [(max(lo - back, 0) - lo, min(hi + side - 1 - back, h) - lo)
                 for side, back in zip(scales, backs)]
        masses = _band_masses(tile, halo, scales, spans, epsilon, rows, mass)
        for weight, side, back, (first, last), mu in zip(weights, scales, backs, spans, masses):
            cot = cotangent[:n + side - 1, :w + side - 1]
            top, bottom = first + back, last + back
            cot[:top] = 0.0
            cot[bottom:] = 0.0
            cot[top:bottom, :back] = 0.0
            cot[top:bottom, back + w:] = 0.0
            np.divide(weight * d_alpha, mu, out=cot[top:bottom, back:back + w])
            d_stack[lo:hi] += _padded_sum(cot, side, adjoint[:n], adjoint_rows[:n, :w + side - 1])

    _run_bands(work, stack, halo, threads, lambda rows: [
        np.empty((rows + halo, w + 2 * halo, c)),      # row sums
        np.empty((rows + halo, w, c)),                 # masses
        np.empty((rows + halo, w + halo, c)),          # cotangent
        np.empty((rows, w + halo, c)),                 # its row sums
        np.empty((rows, w, c)),                        # its window sums
    ])


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

    A squeeze (:func:`normalize`) standardizes its one value per channel
    by the stored ``running_mean``/``running_var``; the level-set path
    standardizes memberships by their own statistics and reads only
    ``gamma`` and ``beta``.  Normalizing never updates the stored values.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray

    def __post_init__(self):
        names = ("gamma", "beta", "running_mean", "running_var")
        for name in names:
            setattr(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=np.float64)))
        shapes = {getattr(self, name).shape for name in names}
        if len(shapes) != 1 or self.gamma.ndim != 1:
            raise ValueError("gamma, beta, running_mean and running_var must share one 1-D shape")
        for name in names:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if np.any(self.running_var < 0.0):
            raise ValueError("running variance must be >= 0")

    @classmethod
    def identity(cls, channels: int) -> "NormState":
        """gamma = 1, beta = 0, running stats at the standard normal."""
        return cls(
            gamma=np.ones(channels),
            beta=np.zeros(channels),
            running_mean=np.zeros(channels),
            running_var=np.ones(channels),
        )

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


def _normalize_with_cache(values, state: NormState):
    x = np.asarray(values, dtype=np.float64)
    if x.shape != (state.channels,):
        raise ValueError(f"expected one value per channel, ({state.channels},), got {x.shape}")
    sigma = np.sqrt(state.running_var + VAR_EPS)
    xhat = (x - state.running_mean) / sigma
    return state.gamma * xhat + state.beta, (xhat, sigma, state.gamma)


def normalize(values, state: NormState) -> np.ndarray:
    """Standardize a (C,) squeeze by the stored statistics, then apply the affine.

    ``(x - running_mean) / sqrt(running_var + 1e-5) * gamma + beta``.
    Any shape but ``(C,)`` raises ``ValueError``.
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
