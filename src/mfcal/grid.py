"""Dense 2-D fields and clipped sliding-window sums.

A field is a plain float64 ndarray of shape (H, W) or (H, W, C).  A
window sum adds the field's cells directly, never subtracting, so a
window of nonnegative cells holding a positive one has a positive sum.
Window sums are pure, use a fixed association order, and clip windows
to the image domain, so results are reproducible bit for bit regardless
of how callers parallelize over channels.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_field",
    "require_measure",
    "integral_image",
    "window_sum",
    "window_sum_adjoint",
]


def _check_shape(shape: tuple) -> None:
    # the shape half of the input check, which a field read band by band
    # passes before any of its rows is read
    if len(shape) not in (2, 3):
        raise ValueError(f"field must have shape (H, W) or (H, W, C), got {tuple(shape)}")
    if 0 in shape:
        raise ValueError("field must be non-empty")


def _checked(values, measure: bool) -> np.ndarray:
    # the one input check: a float64 (H, W[, C]) array whose smallest and
    # largest values are finite (both reductions propagate NaN, so two
    # read-only passes decide it without a bool array) and, for a
    # measure, whose smallest value is >= 0 (``-0.0`` passes)
    field = np.asarray(values, dtype=np.float64)
    _check_shape(field.shape)
    lo, hi = field.min(), field.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("field values must be finite")
    if measure and lo < 0.0:
        raise ValueError("measure must be nonnegative")
    return field


def as_field(values) -> np.ndarray:
    """Coerce ``values`` to a finite float64 array of shape (H, W[, C])."""
    return _checked(values, measure=False)


def require_measure(values) -> np.ndarray:
    """Like :func:`as_field` but additionally rejects negative values."""
    return _checked(values, measure=True)


def integral_image(field) -> np.ndarray:
    """Cumulative-sum table: ``SAT[i, j] = sum(field[:i, :j])`` per channel.

    Shape (H+1, W+1[, C]), row 0 and column 0 zero, accumulated in a
    fixed order (down columns, then across rows).  No window sum uses it.
    """
    field = as_field(field)
    shape = (field.shape[0] + 1, field.shape[1] + 1) + field.shape[2:]
    table = np.zeros(shape, dtype=np.float64)
    np.cumsum(field, axis=0, out=table[1:, 1:])
    np.cumsum(table[1:, 1:], axis=1, out=table[1:, 1:])
    return table


def _pad(field: np.ndarray, side: int, offset: int) -> np.ndarray:
    # ``offset`` zero rows and columns before the field, ``side - 1 - offset``
    # after it: the border clip of a window anchored ``offset`` cells in
    spatial = ((offset, side - 1 - offset),) * 2
    return np.pad(field, spatial + ((0, 0),) * (field.ndim - 2))


def _add_terms(p: np.ndarray, side: int, out: np.ndarray, axis: int, done: int = 0) -> np.ndarray:
    # out[..., i, ...] = p[..., i, ...] + p[..., i + 1, ...] + ... + p[..., i + side - 1, ...]
    # along ``axis`` (0 or 1), the terms added in ascending order.  With
    # ``done`` > 0, ``out`` already holds the sums of the first ``done``
    # terms and only the rest are added: the same adds in the same order.
    n = out.shape[axis]

    def term(k):
        return p[(slice(None),) * axis + (slice(k, k + n),)]

    if done == 0:
        if side == 1:
            np.copyto(out, term(0))
        else:
            np.add(term(0), term(1), out=out)
        done = min(side, 2)
    for k in range(done, side):
        out += term(k)
    return out


def _padded_sum(p: np.ndarray, side: int, out: np.ndarray | None = None,
                rows: np.ndarray | None = None) -> np.ndarray:
    # out[i, j] = sum(p[i : i + side, j : j + side]) of an already padded
    # array: ``side`` row terms added in order, then ``side`` column terms.
    # Every window sum adds in this order (the exponent map's band kernel
    # chains the same row adds across sides), so each output keeps one
    # association order whatever array ``p`` is cut from.  ``rows`` is
    # scratch for the row sums; either buffer is allocated when not given.
    h, w = p.shape[0] - side + 1, p.shape[1] - side + 1
    if rows is None:
        rows = np.empty((h,) + p.shape[1:])
    if out is None:
        out = np.empty((h, w) + p.shape[2:])
    return _add_terms(_add_terms(p, side, rows, 0), side, out, 1)


def window_sum(field: np.ndarray, side: int) -> np.ndarray:
    """Sum of the ``side x side`` window anchored at every pixel.

    ``field`` is a checked float64 array; it is not checked again.  Odd
    sides are centered on the anchor; even sides cover ``[h - side/2,
    h + side/2)``, so the extra cell goes before the anchor (top/left).
    Windows are clipped to the image domain, so border outputs sum over
    the intersection only; a side exceeding twice the image extent gives
    the full-channel sum at every pixel.  Each output adds ``side`` row
    terms, then ``side`` column terms: O(side) work per pixel.
    """
    if side < 1:
        raise ValueError("window side must be >= 1")
    return _padded_sum(_pad(field, side, side // 2), side)


def window_sum_adjoint(field, side: int) -> np.ndarray:
    """Adjoint (transpose) of :func:`window_sum` as a linear operator.

    Needed for reverse-mode gradients: if ``y = window_sum(x, s)`` then
    ``<y_bar, y> = <window_sum_adjoint(y_bar, s), x>``.  The adjoint is
    again a clipped window sum, with the anchor mirrored so that even
    sides put their extra cell on the opposite edge.
    """
    return _padded_sum(_pad(as_field(field), side, side - 1 - side // 2), side)
