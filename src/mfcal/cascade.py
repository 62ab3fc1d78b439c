"""Multiplicative cascade measures with closed-form scaling oracles.

The binomial cascade splits unit mass dyadically, sending fraction
``p`` left and ``1 - p`` right at every refinement.  After ``k`` rounds
the cell whose binary address contains ``n0`` zeros carries mass
``p**n0 * (1-p)**(k-n0)``, so every local scaling exponent and the full
spectrum of level-set dimensions are known exactly.  These closed forms
are the ground truth that every estimator in this package is tested
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CascadeSpec",
    "SpectrumCurve",
    "make_curve",
    "generate_binomial",
    "generate_product_2d",
    "bitcount_measure",
    "analytic_alpha",
    "analytic_spectrum",
    "analytic_tau",
    "analytic_alpha_q",
    "MAX_DEPTH_1D",
    "MAX_DEPTH_2D",
]

# Memory guards: 2**26 float64 cells is 512 MiB; a 2**14-sided square is
# 2 GiB.  Deeper requests fail loudly instead of thrashing.
MAX_DEPTH_1D = 26
MAX_DEPTH_2D = 14

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class CascadeSpec:
    """Parameters of a deterministic multiplicative cascade.

    ``weights`` are the splitting ratios (two entries for the binomial
    case), ``depth`` the number of dyadic refinements, and ``dims``
    selects a 1-D cascade or the 2-D product of two copies.
    """

    weights: tuple
    depth: int
    dims: int = 1

    def __post_init__(self):
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        if len(weights) < 2:
            raise ValueError("cascade needs at least two splitting weights")
        if any(not (0.0 < w < 1.0) for w in weights):
            raise ValueError("every splitting weight must lie strictly in (0, 1)")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError("splitting weights must sum to 1")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.dims not in (1, 2):
            raise ValueError("dims must be 1 or 2")
        limit = MAX_DEPTH_1D if self.dims == 1 else MAX_DEPTH_2D
        if self.depth > limit:
            raise ValueError(
                f"depth {self.depth} exceeds the {self.dims}-D cap of {limit} "
                f"({2 ** (self.depth * self.dims)} cells)"
            )

    @classmethod
    def binomial(cls, p: float, depth: int, dims: int = 1) -> "CascadeSpec":
        return cls(weights=(p, 1.0 - p), depth=depth, dims=dims)


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


def _require_binomial(spec: CascadeSpec, dims: int):
    if len(spec.weights) != 2:
        raise ValueError("expected a binomial (two-weight) cascade")
    if spec.dims != dims:
        raise ValueError(f"expected a {dims}-D cascade spec, got dims={spec.dims}")


def generate_binomial(spec: CascadeSpec) -> np.ndarray:
    """Materialize the 1-D binomial cascade, cell by dyadic cell.

    Cell ``i`` at depth ``k`` receives ``p**n0(i) * (1-p)**(k-n0(i))``
    where ``n0(i)`` counts the zero bits in the k-bit address of ``i``
    (most significant bit = first split).  The cells sum to one.
    """
    _require_binomial(spec, dims=1)
    p, q = spec.weights
    cells = np.ones(1)
    for _ in range(spec.depth):
        nxt = np.empty(2 * cells.size)
        nxt[0::2] = p * cells
        nxt[1::2] = q * cells
        cells = nxt
    return cells


def bitcount_measure(p: float, depth: int) -> np.ndarray:
    """Closed-form binomial cascade via per-cell bit counting.

    Independent route to :func:`generate_binomial` (no sequential
    splitting); kept as the reference the generator is verified against.
    """
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie strictly in (0, 1)")
    if not (1 <= depth <= MAX_DEPTH_1D):
        raise ValueError(f"depth must lie in [1, {MAX_DEPTH_1D}]")
    idx = np.arange(2 ** depth, dtype=np.uint64)
    ones = np.bitwise_count(idx).astype(np.int64)
    zeros = depth - ones
    return np.power(p, zeros) * np.power(1.0 - p, ones)


def generate_product_2d(spec: CascadeSpec) -> np.ndarray:
    """2-D product cascade: cell (i, j) carries ``mu1(i) * mu1(j)``."""
    _require_binomial(spec, dims=2)
    line = generate_binomial(CascadeSpec(spec.weights, spec.depth, dims=1))
    return np.outer(line, line)


def analytic_alpha(phi: float, p: float) -> float:
    """Exact coarse exponent of a binomial cell with zero-bit fraction ``phi``.

    ``alpha = -(phi * log2 p + (1 - phi) * log2(1 - p))``; independent of
    depth, so it serves as the scale-free oracle for estimated exponents.
    """
    if not (0.0 <= phi <= 1.0):
        raise ValueError("phi must lie in [0, 1]")
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie strictly in (0, 1)")
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
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie strictly in (0, 1)")
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


def analytic_tau(p: float, q) -> np.ndarray | float:
    """Exact partition-function exponent ``tau(q) = -log2(p**q + (1-p)**q)``.

    ``tau(1) = 0`` (normalization) and ``tau(0) = -1`` (2**k cells of
    size 2**-k).  Accepts a scalar or an array of moments ``q``.
    """
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie strictly in (0, 1)")
    q = np.asarray(q, dtype=np.float64)
    tau = -np.log2(np.power(p, q) + np.power(1.0 - p, q))
    return float(tau) if tau.ndim == 0 else tau


def analytic_alpha_q(p: float, q) -> np.ndarray | float:
    """Closed-form ``alpha(q) = d tau / dq`` companion to :func:`analytic_tau`.

    Implemented analytically (not by numerical differentiation) so the
    moments-method estimator has an exact reference:
    ``alpha(q) = -(p^q ln p + r^q ln r) / ((p^q + r^q) ln 2)``, r = 1-p.
    """
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie strictly in (0, 1)")
    q = np.asarray(q, dtype=np.float64)
    r = 1.0 - p
    pq, rq = np.power(p, q), np.power(r, q)
    alpha = -(pq * math.log(p) + rq * math.log(r)) / ((pq + rq) * _LN2)
    return float(alpha) if alpha.ndim == 0 else alpha
