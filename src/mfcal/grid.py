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


def as_field(values) -> np.ndarray:
    """Coerce ``values`` to a finite float64 array of shape (H, W[, C])."""
    field = np.asarray(values, dtype=np.float64)
    if field.ndim not in (2, 3):
        raise ValueError(f"field must have shape (H, W) or (H, W, C), got {field.shape}")
    if field.size == 0:
        raise ValueError("field must be non-empty")
    if not np.all(np.isfinite(field)):
        raise ValueError("field values must be finite")
    return field


def require_measure(values) -> np.ndarray:
    """Like :func:`as_field` but additionally rejects negative values."""
    field = as_field(values)
    if np.any(field < 0.0):
        raise ValueError("measure must be nonnegative")
    return field


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


def _shift_sum(field: np.ndarray, side: int, offset: int) -> np.ndarray:
    # out[i] = sum(field[i - offset : i - offset + side]) per spatial axis;
    # zero padding is the border clip.  The first add allocates the result
    # (np.pad returns a fresh array, so side 1 needs no copy).
    h, w = field.shape[0], field.shape[1]
    spatial = ((offset, side - 1 - offset),) * 2
    p = np.pad(field, spatial + ((0, 0),) * (field.ndim - 2))
    rows = p[:h] + p[1:1 + h] if side > 1 else p
    for k in range(2, side):
        rows += p[k:k + h]
    out = rows[:, :w] + rows[:, 1:1 + w] if side > 1 else rows
    for k in range(2, side):
        out += rows[:, k:k + w]
    return out


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
    return _shift_sum(field, side, side // 2)


def window_sum_adjoint(field, side: int) -> np.ndarray:
    """Adjoint (transpose) of :func:`window_sum` as a linear operator.

    Needed for reverse-mode gradients: if ``y = window_sum(x, s)`` then
    ``<y_bar, y> = <window_sum_adjoint(y_bar, s), x>``.  The adjoint is
    again a clipped window sum, with the anchor mirrored so that even
    sides put their extra cell on the opposite edge.
    """
    return _shift_sum(as_field(field), side, side - 1 - side // 2)
