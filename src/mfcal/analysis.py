"""Excitation-response analysis: gate covariance and SVD energy rank.

Stacking the per-instance channel gates of a recalibration function
into an n x C matrix, the (optionally centered) covariance
``A = X^T X / (n - 1)`` summarizes how the gates co-vary across a
validation set.  The linear excitation threshold is the smallest
truncated-SVD rank whose Frobenius energy reaches a fraction ``delta``
of the total; a small threshold means the gates live near a
low-dimensional linear manifold.

The singular values of the symmetric covariance are its absolute
eigenvalues, taken from one LAPACK solve (``numpy.linalg.eigvalsh``).
A cyclic Jacobi solver is kept as the independent route that the
acceptance harness checks those values against.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "excitation_covariance",
    "jacobi_eigh",
    "singular_values",
    "excitation_report",
]

SYMMETRY_TOL = 1e-8
_JACOBI_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 60


def excitation_covariance(excitations, center: bool = False) -> np.ndarray:
    """Second-moment matrix of gate rows: ``X^T X / (n - 1)``.

    ``center=True`` removes the column means first (the usual sample
    covariance); ``center=False`` keeps the raw second moment.  The
    result is symmetrized to remove accumulation-order noise.
    """
    rows = np.asarray(excitations, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError("excitation matrix must be 2-D (instances x channels)")
    n = rows.shape[0]
    if n < 2:
        raise ValueError("need at least 2 instances")
    if not np.all(np.isfinite(rows)):
        raise ValueError("excitations must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # checked once, below
        x = rows - rows.mean(axis=0) if center else rows
        a = x.T @ x / (n - 1)
    if not np.all(np.isfinite(a)):
        raise ValueError("the excitation covariance is not finite (it overflows float64)")
    return (a + a.T) / 2.0


def _symmetric(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if np.max(np.abs(a - a.T), initial=0.0) > SYMMETRY_TOL:
        raise ValueError(f"matrix must be symmetric within {SYMMETRY_TOL:g}")
    return (a + a.T) / 2.0


def jacobi_eigh(matrix, max_sweeps: int = _JACOBI_MAX_SWEEPS):
    """Symmetric eigendecomposition by cyclic Jacobi rotations.

    Sweeps the strict upper triangle in a fixed row-major order,
    rotating each off-diagonal entry to zero, until the off-diagonal
    Frobenius norm falls below ``_JACOBI_TOL`` relative to the matrix norm.
    Returns ``(eigenvalues, eigenvectors)`` ordered by decreasing
    absolute value; columns of the eigenvector matrix are orthonormal.
    Raises ``ValueError`` when ``max_sweeps`` sweeps do not reach
    ``_JACOBI_TOL``.  Deterministic: no pivot searching, no randomness.
    """
    a = _symmetric(matrix)
    n = a.shape[0]
    v = np.eye(n)
    scale = np.linalg.norm(a)
    sweeps = 0
    while np.sqrt(np.sum(np.triu(a, 1) ** 2) * 2.0) > _JACOBI_TOL * scale:
        if sweeps == max_sweeps:
            raise ValueError(f"Jacobi eigensolver did not converge in {max_sweeps} sweeps")
        sweeps += 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                a[p, :], a[q, :] = c * a[p, :] - s * a[q, :], s * a[p, :] + c * a[q, :]
                a[p, q] = a[q, p] = 0.0
                v[:, p], v[:, q] = c * v[:, p] - s * v[:, q], s * v[:, p] + c * v[:, q]

    eigenvalues = np.diag(a).copy()
    order = np.argsort(-np.abs(eigenvalues), kind="stable")
    return eigenvalues[order], v[:, order]


def singular_values(matrix) -> np.ndarray:
    """Singular values of a symmetric matrix: |eigenvalues|, descending."""
    return -np.sort(-np.abs(np.linalg.eigvalsh(_symmetric(matrix))))


def excitation_report(matrix, delta: float) -> dict:
    """Threshold record ``{delta, k, singular_values}`` for JSON emission.

    ``k`` is the smallest rank whose squared singular values reach
    ``delta`` of the total.  ``delta`` lies in (0, 1]; the comparison
    carries a 1e-12 relative slack so that ``delta = 1`` returns the
    rank despite cumulative-sum rounding.  A zero matrix has rank 0 by
    convention.
    """
    s = singular_values(matrix)
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    s2 = s ** 2
    total = float(s2.sum())
    # the cumulative energy never decreases: the first index reaching the target
    k = int(np.searchsorted(np.cumsum(s2), delta * total - 1e-12 * total)) + 1 if total else 0
    return {
        "delta": float(delta),
        "k": k,
        "singular_values": [float(v) for v in s],
    }
