"""Multiplicative cascade measures and their closed-form spectrum.

The binomial cascade splits unit mass dyadically, sending fraction
``p`` left and ``1 - p`` right at every refinement.  After ``k`` rounds
the cell whose binary address contains ``n0`` zeros carries mass
``p**n0 * (1-p)**(k-n0)``, so every local scaling exponent and the full
spectrum of level-set dimensions are known exactly.  This module ships
the spectrum (:func:`analytic_alpha`, :func:`analytic_spectrum`) that
``cascade --spectrum`` writes.  The other closed forms that the
estimators are checked against (the per-cell bit-count measure, tau(q)
and alpha(q)) are oracles of the acceptance harness, ``mfcal.selftest``.

A cascade is named by ``(p, depth)``: :func:`generate_binomial` builds
the line by one doubling run, and :func:`product_rows` gives the
square's rows block by block from that line, in one reused buffer of
256 KiB, so ``cascade --dims 2`` writes the square without holding it
(at the depth-14 cap, 2 GiB written, under 1 MiB traced).
:func:`generate_product_2d` fills a whole square from the same blocks,
for the acceptance harness and the tests.  The spectrum estimators see
a cascade only as its distinct masses and how many cells hold each, a :class:`MassLevels`
record per depth, and :func:`binomial_levels` runs the same doubling
over those levels instead of over cells, so a range of depths costs one
run to the deepest and no cell is ever built.  That is exact: every
depth-(k+1) cell is one rounded product, ``p * c`` or ``q * c``, of a
depth-k cell c, so its value depends only on c's value, and cell (i, j)
of the square is the rounded ``line_i * line_j``; the levels and counts
are bit-equal to those found by sorting the cells.  The product also
factors the square's exponent map: ``spectrum --method clt`` maps only
the line, and each 2-D exponent is a sum of two line exponents (equal
up to rounding), whose mean and variance over the interior are twice
the line's, so no command builds the square or those sums.  All
reject ``p`` outside (0, 1), a depth outside [1, cap], and a smallest
cell below the smallest normal float64 before they allocate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectrumCurve",
    "make_curve",
    "MassLevels",
    "binomial_levels",
    "generate_binomial",
    "generate_product_2d",
    "product_rows",
    "analytic_alpha",
    "analytic_spectrum",
    "MAX_DEPTH_1D",
    "MAX_DEPTH_2D",
]

# Memory guards: 2**26 float64 cells is 512 MiB; a 2**14-sided square is
# 2 GiB.  Deeper requests fail loudly instead of thrashing.  The mass
# levels build no cells but keep the same caps, so every command that
# names a cascade accepts the same depths.
MAX_DEPTH_1D = 26
MAX_DEPTH_2D = 14

# A row block of the product cascade: 32 rows at depth 10, in L2 while it
# is filled and written.  The depth-10 ``cascade --dims 2`` took a median
# 1.4 ms in process at 32 rows, 1.9 ms at 8 and 2.0 ms at 1024 (2-vCPU
# Xeon, NumPy 2.4).
PRODUCT_BLOCK_BYTES = 256 * 1024


def _check(p: float, depth: int = 1, dims: int = 1) -> None:
    """Reject ``p`` outside (0, 1), a depth outside [1, cap], or a cascade that underflows.

    Runs before any allocation.  The smallest cell of a ``dims``-axis
    cascade, ``min(p, 1 - p) ** (dims * depth)``, must be a normal
    float64 (at least 2**-1022); below that, cells lose precision and
    then become 0.  The bound is compared in log2, so the check itself
    cannot underflow.  The analytic forms have no depth and take the
    default, which rejects only a subnormal ``p`` or ``1 - p``.
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie strictly in (0, 1), got {p}")
    cap = MAX_DEPTH_1D if dims == 1 else MAX_DEPTH_2D
    if not (1 <= depth <= cap):
        raise ValueError(f"depth {depth} lies outside [1, {cap}], the {dims}-D cap")
    log2_smallest = dims * depth * math.log2(min(p, 1.0 - p))
    if log2_smallest < -1022.0:
        raise ValueError(
            f"the smallest cell, min(p, 1 - p)**{dims * depth} = "
            f"10**{log2_smallest * math.log10(2.0):.1f}, lies below the smallest "
            f"normal float64 (2**-1022); raise p toward 1/2 or lower the depth"
        )


@dataclass(frozen=True)
class SpectrumCurve:
    """Sampled (alpha, f) pairs with strictly increasing alpha.

    ``f`` holds level-set dimension values, hence is nonnegative and
    bounded by the dimension of the supporting space.
    """

    alpha: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.float64)
        f = np.asarray(self.f, dtype=np.float64)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "f", f)
        if alpha.ndim != 1 or alpha.shape != f.shape or alpha.size == 0:
            raise ValueError("curve needs matching non-empty 1-D alpha and f arrays")
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(f))):
            raise ValueError("curve values must be finite")
        if np.any(np.diff(alpha) <= 0.0):
            raise ValueError("alpha samples must be strictly increasing")
        if np.any(f < 0.0):
            raise ValueError("dimension values must be nonnegative")

    def __len__(self) -> int:
        return self.alpha.size

    @property
    def peak(self) -> tuple:
        """(alpha, f) at the curve's maximum f."""
        i = int(np.argmax(self.f))
        return float(self.alpha[i]), float(self.f[i])


def make_curve(alpha, f) -> SpectrumCurve:
    """Build a :class:`SpectrumCurve`, sorting by alpha and merging ties.

    Samples whose alpha values coincide (within 1e-12) collapse to a
    single point keeping the largest f; a uniform measure therefore
    yields the single point (support dimension, support dimension).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    order = np.argsort(alpha, kind="stable")
    alpha, f = alpha[order], f[order]
    out_a = [alpha[0]]
    out_f = [f[0]]
    for a, y in zip(alpha[1:], f[1:]):
        if a - out_a[-1] <= 1e-12:
            out_f[-1] = max(out_f[-1], y)
        else:
            out_a.append(a)
            out_f.append(y)
    return SpectrumCurve(np.array(out_a), np.array(out_f))


@dataclass(frozen=True)
class MassLevels:
    """One depth of a unit-mass dyadic measure, as its distinct positive masses.

    ``masses`` are finite, positive and strictly ascending; ``counts[i]``
    (int64, at least 1) is how many of the measure's cells hold
    ``masses[i]``, so ``counts @ masses`` is the total mass, 1 within
    1e-9.  ``depth`` (at least 1) is the number of dyadic refinements.
    The record checks all of this once, when it is built, and the
    estimators trust it.
    """

    masses: np.ndarray
    counts: np.ndarray
    depth: int

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=np.float64)
        counts = np.asarray(self.counts)
        if masses.ndim != 1 or masses.size == 0:
            raise ValueError("mass levels need a non-empty 1-D array of masses")
        if not np.all(np.isfinite(masses)):
            raise ValueError("measure values must be finite")
        if np.any(masses[1:] <= masses[:-1]):
            raise ValueError("mass levels must be strictly ascending")
        if masses[0] <= 0.0:
            raise ValueError("mass levels must be positive")
        if counts.shape != masses.shape:
            raise ValueError(f"counts of shape {counts.shape} do not match masses of shape "
                             f"{masses.shape}")
        if counts.dtype.kind not in "iu" or np.any(counts < 1):
            raise ValueError("counts must be integers >= 1")
        if abs(counts @ masses - 1.0) > 1e-9:
            raise ValueError("measure must be normalized to unit mass")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "counts", counts.astype(np.int64, copy=False))


def _merged(masses: np.ndarray, counts: np.ndarray) -> tuple:
    """The distinct values of ``masses``, ascending, each with the summed counts of its copies."""
    order = np.argsort(masses)
    masses, counts = masses[order], counts[order]
    starts = np.flatnonzero(np.concatenate(([True], masses[1:] != masses[:-1])))
    return masses[starts], np.add.reduceat(counts, starts)


def binomial_levels(p: float, depth_min: int, depth_max: int, dims: int = 1) -> list:
    """The mass levels of the binomial cascades of depths ``depth_min..depth_max``.

    Returns one :class:`MassLevels` per depth, from one doubling run over
    levels: each step forms ``p * masses`` and ``q * masses`` (``q = 1 -
    p``), sorts those values and merges equal ones, summing their counts.
    This is exact.  Every depth-(k+1) cell of :func:`generate_binomial`
    is one rounded product, ``p * c`` or ``q * c``, of a depth-k cell c,
    so its value depends only on c's value; the levels and counts are
    therefore bit-equal to those found by sorting the cells.  For
    ``dims=2`` every pair of a depth's line levels is multiplied, with
    counts multiplied, and merged the same way: cell (i, j) of
    :func:`generate_product_2d` is the rounded ``line_i * line_j``.  No
    cell is built, so memory grows with the levels (a few hundred per
    depth), not with the 2**(dims * depth) cells.  ``depth_max`` must
    meet the ``dims``-D cap; it is checked before anything is allocated.
    """
    _check(p, depth_max, dims)
    if not 1 <= depth_min <= depth_max:
        raise ValueError(f"depth range {depth_min}..{depth_max} is empty or starts below 1")
    q = 1.0 - p
    masses, counts = np.ones(1), np.ones(1, dtype=np.int64)
    records = []
    for depth in range(1, depth_max + 1):
        masses, counts = _merged(np.concatenate((p * masses, q * masses)),
                                 np.concatenate((counts, counts)))
        if depth < depth_min:
            continue
        if dims == 1:
            records.append(MassLevels(masses, counts, depth))
        else:
            square = _merged(np.multiply.outer(masses, masses).ravel(),
                             np.multiply.outer(counts, counts).ravel())
            records.append(MassLevels(*square, depth))
    return records


def _binomial_line(p: float, depth: int, dims: int) -> np.ndarray:
    """The 1-D binomial cascade of one depth, by one doubling run.

    Cell ``i`` receives ``p**n0(i) * (1-p)**(depth-n0(i))`` where
    ``n0(i)`` counts the zero bits in the depth-bit address of ``i``
    (most significant bit = first split); the cells sum to one.  Each
    level is written from the one before it, left children at even
    cells and right children at odd ones.  ``dims`` names the cascade
    the line is for, whose cap ``depth`` must meet; it is checked before
    anything is allocated.
    """
    _check(p, depth, dims)
    q = 1.0 - p
    cells = np.ones(1)
    for _ in range(depth):
        nxt = np.empty(2 * cells.size)
        np.multiply(p, cells, out=nxt[0::2])
        np.multiply(q, cells, out=nxt[1::2])
        cells = nxt
    return cells


def generate_binomial(p: float, depth: int) -> np.ndarray:
    """The 1-D binomial cascade of one depth (see :func:`_binomial_line`)."""
    return _binomial_line(p, depth, 1)


def product_rows(line: np.ndarray):
    """The 2-D product cascade of ``line``, row block by row block.

    Yields, top to bottom, the row blocks of ``np.outer(line, line)``,
    the same bytes: cell (i, j) is the rounded ``line_i * line_j``.
    Every block is a view of one reused buffer of at most
    ``PRODUCT_BLOCK_BYTES`` (one row at least), so the square is never
    held; a block is overwritten by the next, so use it before
    advancing.  Pass the line of :func:`_binomial_line` checked against
    the 2-D cap: its ``_check`` runs before anything is allocated and
    keeps every cell of the square a normal float.
    """
    rows = min(line.size, max(1, PRODUCT_BLOCK_BYTES // line.nbytes))
    block = np.empty((rows, line.size))
    for top in range(0, line.size, rows):
        out = block[:line.size - top]
        # einsum writes 0 + round(line_i * line_j), the bytes of np.outer for
        # cells > 0.  NumPy buffers a broadcast multiply over rows shorter than
        # 4096 cells: the depth-10 command took 1.8 ms with it and 1.3 with
        # einsum, though from depth 12 on the multiply is faster (21 against
        # 27 ms at depth 12).
        np.einsum("i,j->ij", line[top:top + len(out)], line, out=out)
        yield out


def generate_product_2d(p: float, depth: int) -> np.ndarray:
    """2-D product cascade: cell (i, j) carries ``mu1(i) * mu1(j)``.

    The line is checked against the 2-D cap; the square is filled from
    :func:`product_rows`.
    """
    line = _binomial_line(p, depth, 2)
    field = np.empty((line.size, line.size))
    top = 0
    for block in product_rows(line):
        field[top:top + len(block)] = block
        top += len(block)
    return field


def analytic_alpha(phi: float, p: float) -> float:
    """Exact coarse exponent of a binomial cell with zero-bit fraction ``phi``.

    ``alpha = -(phi * log2 p + (1 - phi) * log2(1 - p))``; independent of
    depth, so it serves as the scale-free oracle for estimated exponents.
    """
    if not (0.0 <= phi <= 1.0):
        raise ValueError("phi must lie in [0, 1]")
    _check(p)
    return -(phi * math.log2(p) + (1.0 - phi) * math.log2(1.0 - p))


def _analytic_f(phi: float) -> float:
    """Binary entropy ``-(phi log2 phi + (1-phi) log2(1-phi))``, 0 log 0 := 0.

    This is the level-set dimension paired with ``analytic_alpha(phi, p)``:
    the count of depth-k cells with zero-bit fraction phi is the binomial
    coefficient C(k, phi*k), whose Stirling growth rate is the entropy.
    """
    if not (0.0 <= phi <= 1.0):
        raise ValueError("phi must lie in [0, 1]")
    total = 0.0
    for w in (phi, 1.0 - phi):
        if w > 0.0:
            total -= w * math.log2(w)
    return total


def analytic_spectrum(p: float, n_points: int, dims: int = 1) -> SpectrumCurve:
    """Exact spectrum of the binomial cascade sampled over phi in [0, 1].

    For the 2-D product cascade both coordinates double: exponents add
    across the two independent axes and so do the level-set dimensions.
    The uniform case p = 1/2 collapses to the single point where the
    spectrum touches the support dimension.
    """
    _check(p)
    if n_points < 3:
        raise ValueError("need at least 3 sample points")
    if dims not in (1, 2):
        raise ValueError("dims must be 1 or 2")
    phis = np.linspace(0.0, 1.0, n_points)
    alpha = np.array([analytic_alpha(phi, p) for phi in phis])
    f = np.array([_analytic_f(phi) for phi in phis])
    if dims == 2:
        alpha = 2.0 * alpha
        f = 2.0 * f
    return make_curve(alpha, f)
