"""Dense 2-D fields, summed-area tables, and clipped sliding-window sums.

A field is a plain float64 ndarray of shape (H, W) or (H, W, C).  All
windowed reductions here are pure, use a fixed association order, and
clip windows to the image domain, so results are reproducible bit for
bit regardless of how callers parallelize over channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SummedAreaTable",
    "as_field",
    "require_measure",
    "integral_image",
    "window_sum",
    "window_sum_adjoint",
    "window_anchor",
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


@dataclass(frozen=True)
class SummedAreaTable:
    """Per-channel 2-D cumulative sums of a field.

    ``table`` has shape (H+1, W+1[, C]); row 0 and column 0 are
    identically zero so that any rectangle sum is a four-corner
    difference.  For nonnegative fields the table is monotone
    nondecreasing along both spatial axes.
    """

    table: np.ndarray

    @property
    def height(self) -> int:
        return self.table.shape[0] - 1

    @property
    def width(self) -> int:
        return self.table.shape[1] - 1

    @property
    def field_shape(self) -> tuple:
        return (self.height, self.width) + self.table.shape[2:]


def integral_image(field) -> SummedAreaTable:
    """Cumulative-sum table: ``SAT[i, j] = sum(field[:i, :j])`` per channel.

    Accumulation runs in a fixed order (down columns, then across rows)
    so repeated calls are bit-identical.
    """
    field = as_field(field)
    shape = (field.shape[0] + 1, field.shape[1] + 1) + field.shape[2:]
    table = np.zeros(shape, dtype=np.float64)
    np.cumsum(field, axis=0, out=table[1:, 1:])
    np.cumsum(table[1:, 1:], axis=1, out=table[1:, 1:])
    return SummedAreaTable(table)


def window_anchor(side: int) -> int:
    """Leading extent of a window before its anchor pixel.

    Odd sides are centered on the anchor; even sides cover
    ``[h - side/2, h + side/2)``, i.e. the extra cell goes to the
    bottom/right of the covered extent.
    """
    return side // 2


def _edge_indices(n: int, side: int, offset: int):
    starts = np.arange(n) - offset
    return np.clip(starts, 0, n), np.clip(starts + side, 0, n)


def _window_sum_table(table: np.ndarray, side: int, offset: int) -> np.ndarray:
    h, w = table.shape[0] - 1, table.shape[1] - 1
    r0, r1 = _edge_indices(h, side, offset)
    c0, c1 = _edge_indices(w, side, offset)
    top, bottom = table[r0], table[r1]
    # four-corner difference, evaluated in a fixed order; take() keeps the
    # corners (and so the result) C-contiguous, where [:, idx] would not
    return (np.take(bottom, c1, axis=1) - np.take(bottom, c0, axis=1)
            - np.take(top, c1, axis=1) + np.take(top, c0, axis=1))


def window_sum(sat, side: int) -> np.ndarray:
    """Sum of the ``side x side`` window anchored at every pixel.

    Windows are clipped to the image domain, so border outputs sum over
    the intersection only.  ``sat`` may be a :class:`SummedAreaTable` or
    a raw field (a table is then built internally).  A side exceeding
    twice the image extent degenerates to the full-channel sum at every
    pixel; that is allowed, not an error.
    """
    if side < 1:
        raise ValueError("window side must be >= 1")
    if not isinstance(sat, SummedAreaTable):
        sat = integral_image(sat)
    return _window_sum_table(sat.table, side, window_anchor(side))


def window_sum_adjoint(field, side: int) -> np.ndarray:
    """Adjoint (transpose) of :func:`window_sum` as a linear operator.

    Needed for reverse-mode gradients: if ``y = window_sum(x, s)`` then
    ``<y_bar, y> = <window_sum_adjoint(y_bar, s), x>``.  The adjoint is
    again a clipped window sum, with the anchor mirrored so that even
    sides put their extra cell on the opposite edge.
    """
    field = as_field(field)
    table = integral_image(field).table
    return _window_sum_table(table, side, side - 1 - window_anchor(side))
