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
the line and :func:`generate_product_2d` the square.  Both are the
one-depth case of :func:`binomial_lines`, which keeps every level of one
doubling run, so a range of depths costs one run to the deepest.  All
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
    "binomial_lines",
    "generate_binomial",
    "generate_product_2d",
    "analytic_alpha",
    "analytic_spectrum",
    "MAX_DEPTH_1D",
    "MAX_DEPTH_2D",
]

# Memory guards: 2**26 float64 cells is 512 MiB; a 2**14-sided square is
# 2 GiB.  Deeper requests fail loudly instead of thrashing.
MAX_DEPTH_1D = 26
MAX_DEPTH_2D = 14


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


def binomial_lines(p: float, depth_min: int, depth_max: int, dims: int = 1) -> list:
    """The 1-D binomial cascades of depths ``depth_min..depth_max``, from one doubling run.

    Cell ``i`` at depth ``k`` receives ``p**n0(i) * (1-p)**(k-n0(i))``
    where ``n0(i)`` counts the zero bits in the k-bit address of ``i``
    (most significant bit = first split).  The cells of each depth sum
    to one.  Each level is written in place from the one before it, left
    children at even cells and right children at odd ones, and every
    level from ``depth_min`` on is kept.  ``dims`` names the cascade the
    lines are for, whose cap ``depth_max`` must meet (a line of a 2-D
    product cascade is capped at ``MAX_DEPTH_2D``); it is checked before
    anything is allocated.
    """
    _check(p, depth_max, dims)
    if not 1 <= depth_min <= depth_max:
        raise ValueError(f"depth range {depth_min}..{depth_max} is empty or starts below 1")
    q = 1.0 - p
    cells = np.ones(1)
    lines = []
    for depth in range(1, depth_max + 1):
        nxt = np.empty(2 * cells.size)
        np.multiply(p, cells, out=nxt[0::2])
        np.multiply(q, cells, out=nxt[1::2])
        cells = nxt
        if depth >= depth_min:
            lines.append(cells)
    return lines


def generate_binomial(p: float, depth: int) -> np.ndarray:
    """The 1-D binomial cascade of one depth: :func:`binomial_lines` of that depth alone."""
    return binomial_lines(p, depth, depth)[0]


def generate_product_2d(p: float, depth: int) -> np.ndarray:
    """2-D product cascade: cell (i, j) carries ``mu1(i) * mu1(j)``.

    The line comes from :func:`binomial_lines` under the 2-D cap.
    """
    line = binomial_lines(p, depth, depth, dims=2)[0]
    return np.outer(line, line)


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
