"""Multifractal spectrum and dimension estimators for dyadic measures.

Three complementary estimates of the level-set dimension curve f(alpha):

* histogram method -- bin the per-cell coarse exponents of a measure
  rendered at several dyadic depths and regress the bin occupancy
  against depth;
* method of moments -- scaling exponents tau(q) of the partition
  function ``Z(q, k) = sum mu_i^q``, Legendre-transformed into
  ``f = q * alpha(q) - tau(q)``;
* Gaussian approximation -- a parabola through the empirical mean and
  spread of sampled exponents, peaking at the support dimension.

Plus a plain box-counting dimension over non-overlapping tilings (kept
distinct from the sliding windows used for local exponents).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cascade import SpectrumCurve, make_curve
from .holder import ScaleSet

__all__ = [
    "PartitionFunction",
    "histogram_spectrum",
    "moments_spectrum",
    "clt_spectrum",
    "box_dimension",
]

_LN2 = np.log(2.0)
# Exponents are rounded before binning so that mathematically equal
# values rendered at different depths (hence with different float noise)
# always land in the same bin, even when a value sits on a bin edge.
_BIN_DECIMALS = 12
CLT_POINTS = 64  # abscissae of the parabolic spectrum


def _dyadic_depth(field: np.ndarray) -> int:
    """Depth k of a dyadic measure with 2**k cells per axis."""
    n = field.shape[0]
    k = int(round(np.log2(n)))
    if 2 ** k != n:
        raise ValueError(f"axis length {n} is not a power of two")
    for extent in field.shape[1:]:
        if extent != n:
            raise ValueError("dyadic measure must have equal power-of-two extents")
    return k


def _check_depth_fields(fields) -> list:
    if len(fields) < 2:
        raise ValueError("need measures at two depths or more")
    depths = []
    for field in fields:
        field = np.asarray(field, dtype=np.float64)
        if np.any(field < 0.0):
            raise ValueError("measure must be nonnegative")
        if abs(field.sum() - 1.0) > 1e-9:
            raise ValueError("measure must be normalized to unit mass")
        depths.append(_dyadic_depth(field))
    if any(b <= a for a, b in zip(depths, depths[1:])):
        raise ValueError("depths must be strictly increasing")
    return depths


def _coarse_exponents(field: np.ndarray, depth: int) -> np.ndarray:
    """alpha = -(1/k) log2 mu per cell; zero-mass cells are excluded."""
    mass = np.asarray(field, dtype=np.float64).ravel()
    mass = mass[mass > 0.0]
    return -np.log2(mass) / depth


def _ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    dev = x - x.mean()
    return float(np.dot(dev, y - y.mean()) / np.dot(dev, dev))


def histogram_spectrum(fields, bins: int = 32) -> SpectrumCurve:
    """Spectrum by binning coarse exponents across dyadic depths.

    Cells scaling with exponent alpha multiply like ``2**(k * f(alpha))``
    as the depth k grows, so the slope of ``log N_k(bin)`` against
    ``k log 2`` estimates the level-set dimension of each shared
    alpha-bin.  Bin edges span the exponent range observed at the
    deepest level; bins empty at any depth are dropped.
    """
    if bins < 4:
        raise ValueError("need at least 4 bins")
    depths = _check_depth_fields(fields)
    per_depth = [
        np.round(_coarse_exponents(field, k), _BIN_DECIMALS)
        for field, k in zip(fields, depths)
    ]
    deepest = per_depth[-1]
    lo, hi = float(deepest.min()), float(deepest.max())
    x = np.asarray(depths, dtype=np.float64) * _LN2
    dev = x - x.mean()
    if hi <= lo:
        # single exponent value at the deepest level: one bin holding all
        # positive cells; its occupancy growth is still the dimension
        counts = np.array([a.size for a in per_depth], dtype=np.float64)
        slope = float(dev @ np.log(counts) / np.dot(dev, dev))
        return SpectrumCurve(np.array([lo]), np.array([max(slope, 0.0)]))
    edges = np.linspace(lo, hi, bins + 1)
    counts = np.stack([np.histogram(a, bins=edges)[0] for a in per_depth])
    keep = np.all(counts > 0, axis=0)
    if not np.any(keep):
        raise ValueError("no alpha bin is occupied at every depth")
    centers = 0.5 * (edges[:-1] + edges[1:])[keep]
    log_n = np.log(counts[:, keep].astype(np.float64))
    slopes = dev @ log_n / np.dot(dev, dev)
    return make_curve(centers, np.maximum(slopes, 0.0))


@dataclass(frozen=True)
class PartitionFunction:
    """Moment sums of a dyadic measure and their scaling exponents.

    ``log2_z[i, j]`` holds ``log2 Z(q_i, k_j)``; ``tau`` is the slope of
    that row against ``-k``.  ``alpha``/``f`` are the Legendre pair, with
    ``one_sided`` flagging the endpoint moments whose derivative uses a
    one-sided difference (least trustworthy; tests may exclude them).
    """

    q_values: np.ndarray
    depths: tuple
    log2_z: np.ndarray
    tau: np.ndarray
    alpha: np.ndarray
    f: np.ndarray
    one_sided: np.ndarray


def _log2_partition(field, q: np.ndarray) -> np.ndarray:
    """``log2 sum mu**q`` over the positive cells, for every order q.

    Log-sum-exp: shifting by the largest log mass for q >= 0 and by the
    smallest for q < 0 keeps every term in (0, 1], so no order overflows.
    One scratch buffer serves every order; nothing is allocated per order.
    """
    mass = np.asarray(field, dtype=np.float64).ravel()
    log_mass = mass[mass > 0.0]
    np.log2(log_mass, out=log_mass)
    top, bottom = log_mass.max(), log_mass.min()
    below_top = log_mass - top
    above_bottom = np.subtract(log_mass, bottom, out=log_mass)
    buf = np.empty_like(log_mass)
    out = np.empty(q.size)
    for i, qi in enumerate(q):
        shift, dev = (top, below_top) if qi >= 0.0 else (bottom, above_bottom)
        np.multiply(qi, dev, out=buf)
        out[i] = qi * shift + np.log2(np.exp2(buf, out=buf).sum())
    return out


def moments_spectrum(fields, q_values) -> tuple:
    """Method of moments: tau(q) scaling plus Legendre transform.

    Z(1, k) = 1 for normalized measures, hence tau(1) = 0 up to the
    regression's rounding.  alpha(q) is a central difference of tau in
    the interior and a flagged one-sided difference at the ends;
    ``f = q * alpha - tau``.  Returns (PartitionFunction, SpectrumCurve).
    """
    q = np.asarray(q_values, dtype=np.float64)
    if q.ndim != 1 or q.size < 3:
        raise ValueError("need at least 3 moment orders")
    dq = np.diff(q)
    if np.any(dq <= 0.0):
        raise ValueError("moment orders must be strictly increasing")
    if np.any(dq > 0.5 + 1e-12):
        raise ValueError("moment order spacing must not exceed 0.5")
    depths = _check_depth_fields(fields)

    log2_z = np.stack([_log2_partition(field, q) for field in fields], axis=1)

    x = -np.asarray(depths, dtype=np.float64)
    dev = x - x.mean()
    tau = (log2_z - log2_z.mean(axis=1, keepdims=True)) @ dev / np.dot(dev, dev)

    alpha = np.empty_like(tau)
    alpha[1:-1] = (tau[2:] - tau[:-2]) / (q[2:] - q[:-2])
    alpha[0] = (tau[1] - tau[0]) / (q[1] - q[0])
    alpha[-1] = (tau[-1] - tau[-2]) / (q[-1] - q[-2])
    one_sided = np.zeros(q.size, dtype=bool)
    one_sided[[0, -1]] = True
    f = q * alpha - tau

    pf = PartitionFunction(
        q_values=q,
        depths=tuple(depths),
        log2_z=log2_z,
        tau=tau,
        alpha=alpha,
        f=f,
        one_sided=one_sided,
    )
    return pf, make_curve(alpha, np.maximum(f, 0.0))


def clt_spectrum(alpha_samples, k: int, support_dim: float) -> SpectrumCurve:
    """Parabolic spectrum from the empirical exponent distribution.

    Treating the depth-k exponent as approximately Gaussian, the curve
    ``f(alpha) = D + (1/k) log2 (p(alpha) / p(alpha0))`` is a parabola
    with apex (sample mean, support dimension) and curvature set by the
    sample spread, sampled at ``CLT_POINTS`` points over mean +/- 3 std.
    The center sample is pinned to the mean so the emitted peak sits
    exactly at the apex; zero spread collapses the curve to one point.
    """
    samples = np.asarray(alpha_samples, dtype=np.float64).ravel()
    if samples.size < 16:
        raise ValueError("need at least 16 exponent samples")
    if k < 1:
        raise ValueError("depth k must be >= 1")
    center = float(samples.mean())
    spread = float(samples.std())
    if spread == 0.0:
        return SpectrumCurve(np.array([center]), np.array([float(support_dim)]))
    alpha = np.linspace(center - 3.0 * spread, center + 3.0 * spread, CLT_POINTS)
    alpha[CLT_POINTS // 2] = center
    f = support_dim - (alpha - center) ** 2 / (2.0 * spread ** 2 * k * _LN2)
    return make_curve(alpha, np.maximum(f, 0.0))


def box_dimension(mask, scales) -> float:
    """Box-counting dimension of a binary mask.

    Tiles the grid with non-overlapping k x k boxes (partial boxes at
    the far edges count), takes N_k = number of tiles hitting the mask,
    and returns the slope of ``log N_k`` against ``-log k``.
    """
    mask = np.asarray(mask)
    if mask.ndim not in (1, 2):
        raise ValueError("mask must be 1-D or 2-D")
    occupied = mask != 0
    if not occupied.any():
        raise ValueError("mask is empty")
    scales = scales if isinstance(scales, ScaleSet) else ScaleSet(tuple(scales))

    counts = []
    for side in scales:
        tiled = occupied
        for axis in range(occupied.ndim):
            n = tiled.shape[axis]
            pad = (-n) % side
            if pad:
                pad_spec = [(0, 0)] * tiled.ndim
                pad_spec[axis] = (0, pad)
                tiled = np.pad(tiled, pad_spec, constant_values=False)
            shape = list(tiled.shape)
            shape[axis : axis + 1] = [shape[axis] // side, side]
            tiled = tiled.reshape(shape).any(axis=axis + 1)
        counts.append(int(tiled.sum()))

    x = -np.log(np.array(scales.sides, dtype=np.float64))
    y = np.log(np.array(counts, dtype=np.float64))
    return _ols_slope(x, y)
