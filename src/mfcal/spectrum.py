"""Multifractal spectrum estimators for dyadic measures.

Three complementary estimates of the level-set dimension curve f(alpha):

* histogram method -- bin the per-cell coarse exponents of a measure
  rendered at several dyadic depths and regress the bin occupancy
  against depth;
* method of moments -- scaling exponents tau(q) of the partition
  function ``Z(q, k) = sum mu_i^q``, and alpha(q) and f(q) from the
  direct sums of Chhabra & Jensen (PRL 62, 1327, 1989): the depth slopes
  of ``sum w_i log2 mu_i`` and ``sum w_i log2 w_i`` over the weights
  ``w_i = mu_i^q / Z``;
* Gaussian approximation -- a parabola through the empirical mean and
  spread of sampled exponents, peaking at the support dimension; a
  product measure's statistics come from one axis's samples.

The histogram and moments estimators take a measure only as its
distinct positive masses and how many cells hold each, one
:class:`~mfcal.cascade.MassLevels` record per depth (a binomial cascade
of depth k has k + 1 mass levels in 2**k cells, and up to a few
hundred where rounding splits mathematically equal products).  :func:`mfcal.cascade.binomial_levels`
builds them from the cascade's doubling run, without a cell or a sort of
cells, and bit-equal to the levels of the cells: every cell is one
rounded product of its parent's value, so equal parents give equal
children.  The sums run over the levels in ascending mass order, one
``exp2`` pass per chunk of moment orders rather than a pass per order,
and contractions of that chunk with ``log2 mu`` and its shifted form for
the weighted sums.  The Gaussian approximation takes its mean and spread
in one private copy of the samples, never in the caller's array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cascade import MassLevels, SpectrumCurve, make_curve

__all__ = [
    "PartitionFunction",
    "histogram_spectrum",
    "moments_spectrum",
    "clt_spectrum",
]

_LN2 = np.log(2.0)
# Exponents are rounded before binning so that mathematically equal
# values rendered at different depths (hence with different float noise)
# always land in the same bin, even when a value sits on a bin edge.
_BIN_DECIMALS = 12
CLT_POINTS = 64  # abscissae of the parabolic spectrum
PARTITION_CHUNK_BYTES = 256 * 1024  # one depth's (orders, levels) partition buffer, in bytes


def _check_depths(levels) -> list:
    if not all(isinstance(level, MassLevels) for level in levels):
        raise ValueError(
            "each depth must be a cascade.MassLevels record (see cascade.binomial_levels), "
            "not an array of cells"
        )
    if len(levels) < 2:
        raise ValueError("need measures at two depths or more")
    depths = [level.depth for level in levels]
    if any(b <= a for a, b in zip(depths, depths[1:])):
        raise ValueError("depths must be strictly increasing")
    return depths


def histogram_spectrum(levels: list[MassLevels], bins: int = 32) -> SpectrumCurve:
    """Spectrum by binning coarse exponents across dyadic depths.

    Cells scaling with exponent alpha multiply like ``2**(k * f(alpha))``
    as the depth k grows, so the slope of ``log N_k(bin)`` against
    ``k log 2`` estimates the level-set dimension of each shared
    alpha-bin.  Bin edges span the exponent range observed at the
    deepest level, and cells outside it are not counted; bins empty at
    any depth are dropped.

    ``levels`` holds one :class:`~mfcal.cascade.MassLevels` per depth,
    in increasing depth.  Each depth is binned as its distinct masses'
    exponents, weighted by how many cells hold each mass: the same
    counts as binning every cell.
    """
    if bins < 4:
        raise ValueError("need at least 4 bins")
    depths = _check_depths(levels)
    per_depth = [
        (np.round(-np.log2(level.masses) / level.depth, _BIN_DECIMALS), level.counts)
        for level in levels
    ]
    deepest = per_depth[-1][0]
    lo, hi = float(deepest.min()), float(deepest.max())
    x = np.asarray(depths, dtype=np.float64) * _LN2
    dev = x - x.mean()
    # one exponent at the deepest level makes every edge equal: np.histogram
    # puts its cells in the last bin, whose center is that exponent
    edges = np.linspace(lo, hi, bins + 1)
    counts = np.stack([
        np.histogram(alpha, bins=edges, weights=cells)[0] for alpha, cells in per_depth
    ])
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
    that row against ``-k``.  With the weights ``w = mu**q / Z``,
    ``alpha`` is the slope against ``-k`` of ``sum w log2 mu`` and ``f``
    that of ``sum w log2 w`` (Chhabra & Jensen's direct sums): f is
    ``q * alpha - tau`` without that difference's cancellation.
    """

    q_values: np.ndarray
    depths: tuple
    log2_z: np.ndarray
    tau: np.ndarray
    alpha: np.ndarray
    f: np.ndarray


def _log2_partition(level: MassLevels, q: np.ndarray) -> tuple:
    """``log2 Z``, ``sum w log2 mu`` and ``sum w log2 w`` with ``w = mu**q / Z``, for every order q.

    The sums run over the depth's distinct masses in ascending order,
    each term weighted by how many cells hold that mass, so they cost the
    number of mass levels per order, not the number of cells.  Log-sum-exp:
    shifting by the largest log mass for q >= 0 and by the smallest for
    q < 0 keeps every term in (0, 1], so no order overflows; the shift
    cancels in the weighted mean.  With the shifted sum S,
    ``sum w log2 w = q * sum w (log2 mu - shift) - log2 S``, two terms
    of one sign, so nothing cancels even at huge |q|.  The
    orders are ascending, so the negative ones are a prefix.  They are
    taken in chunks whose (orders, levels) terms fill one reused buffer
    of at most ``PARTITION_CHUNK_BYTES`` (or one row): one ``exp2`` pass
    and one count-weighting pass per chunk, then one contiguous row sum
    per order, the same pairwise sum as summing that order's terms alone,
    one contraction of the chunk with ``log2 mu`` and one of each part
    with its shifted log masses.
    """
    log_mass = np.log2(level.masses)
    top, bottom = log_mass[-1], log_mass[0]
    below_top = log_mass - top
    above_bottom = log_mass - bottom
    split = int(np.searchsorted(q, 0.0))
    rows = max(PARTITION_CHUNK_BYTES // log_mass.nbytes, 1)
    buf = np.empty((min(rows, q.size), log_mass.size))
    sums = np.empty(q.size)
    weighted = np.empty(q.size)
    shifted = np.empty(q.size)
    for start in range(0, q.size, rows):
        stop = min(start + rows, q.size)
        mid = min(max(split, start), stop)
        block = buf[: stop - start]
        np.multiply(q[start:mid, None], above_bottom, out=block[: mid - start])
        np.multiply(q[mid:stop, None], below_top, out=block[mid - start :])
        np.exp2(block, out=block)
        np.multiply(block, level.counts, out=block).sum(axis=1, out=sums[start:stop])
        np.matmul(block, log_mass, out=weighted[start:stop])
        np.matmul(block[: mid - start], above_bottom, out=shifted[start:mid])
        np.matmul(block[mid - start :], below_top, out=shifted[mid:stop])
    log2_sums = np.log2(sums)
    return (q * np.where(q >= 0.0, top, bottom) + log2_sums, weighted / sums,
            q * (shifted / sums) - log2_sums)


def moments_spectrum(levels: list[MassLevels], q_values) -> tuple:
    """Method of moments: tau(q) scaling plus Chhabra & Jensen's direct alpha(q) and f(q).

    Z(1, k) = 1 for normalized measures, hence tau(1) = 0 up to the
    regression's rounding.  With ``w = mu**q / Z``, alpha(q) and f(q) are
    the slopes against ``-k`` of ``sum w log2 mu`` and ``sum w log2 w``,
    the same fit as tau at every order, so f stays a dimension at any
    finite order, q = +-1e20 included.  ``levels`` holds one
    :class:`~mfcal.cascade.MassLevels` per depth, in increasing depth.
    Returns (PartitionFunction, SpectrumCurve).
    """
    q = np.asarray(q_values, dtype=np.float64)
    if q.ndim != 1 or q.size < 3:  # every written spectrum has an interior point
        raise ValueError("need at least 3 moment orders")
    if not np.isfinite(q).all():
        raise ValueError(f"moment orders must be finite, got {q[~np.isfinite(q)].tolist()}")
    if np.any(np.diff(q) <= 0.0):  # the log-sum-exp split needs the negative orders first
        raise ValueError("moment orders must be strictly increasing")
    depths = _check_depths(levels)

    log2_z = np.empty((q.size, len(levels)))
    mean_log2_mu = np.empty_like(log2_z)
    w_log2_w = np.empty_like(log2_z)
    for j, level in enumerate(levels):
        log2_z[:, j], mean_log2_mu[:, j], w_log2_w[:, j] = _log2_partition(level, q)

    x = -np.asarray(depths, dtype=np.float64)
    dev = x - x.mean()

    def slope(rows):
        return (rows - rows.mean(axis=1, keepdims=True)) @ dev / np.dot(dev, dev)

    tau = slope(log2_z)
    alpha = slope(mean_log2_mu)
    f = slope(w_log2_w)

    pf = PartitionFunction(q_values=q, depths=tuple(depths), log2_z=log2_z,
                           tau=tau, alpha=alpha, f=f)
    # a measure that is not self-similar can lose weight entropy with depth
    return pf, make_curve(alpha, np.maximum(f, 0.0))


def clt_spectrum(alpha_samples, k: int, dims: int) -> SpectrumCurve:
    """Parabolic spectrum from the empirical exponent distribution.

    Treating the depth-k exponent as approximately Gaussian, the curve
    ``f(alpha) = D + (1/k) log2 (p(alpha) / p(alpha0))`` is a parabola
    with apex (mean, D) and curvature set by the variance, sampled at
    ``CLT_POINTS`` points over mean +/- 3 std.  The samples are one
    axis's exponents of a ``dims``-axis product measure, whose exponents
    are the sums of one sample per axis: over all ``size ** dims`` such
    sums, which are never formed, the mean and the population variance
    are ``dims`` times the samples', D is ``dims``, and the 16-sample
    floor counts them.  The center sample is pinned to the mean so the
    emitted peak sits exactly at the apex; zero spread collapses the
    curve to one point.  The statistics run in one private copy of the
    samples: the mean, then NumPy's population variance steps in place
    (subtract, square, sum, divide), bit-equal to ``samples.std()`` at
    ``dims = 1`` without its second mean pass or a second sample-sized
    temporary.
    """
    samples = np.array(alpha_samples, dtype=np.float64).reshape(-1)
    if samples.size ** dims < 16:
        raise ValueError("need at least 16 exponent samples")
    if k < 1:
        raise ValueError("depth k must be >= 1")
    mean = float(samples.mean())
    np.subtract(samples, mean, out=samples)
    np.square(samples, out=samples)
    center = dims * mean
    spread = float(np.sqrt(dims * (samples.sum() / samples.size)))
    if spread == 0.0:
        return SpectrumCurve(np.array([center]), np.array([float(dims)]))
    alpha = np.linspace(center - 3.0 * spread, center + 3.0 * spread, CLT_POINTS)
    alpha[CLT_POINTS // 2] = center
    f = dims - (alpha - center) ** 2 / (2.0 * spread ** 2 * k * _LN2)
    return make_curve(alpha, np.maximum(f, 0.0))
