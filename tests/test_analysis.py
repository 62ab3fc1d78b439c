"""Covariance, Jacobi spectra, and energy thresholds against numpy oracles."""

import numpy as np
import pytest

from mfcal import analysis
from mfcal.analysis import (
    excitation_covariance,
    excitation_report,
    jacobi_eigh,
    singular_values,
)
from mfcal.selftest import _random_orthogonal as random_orthogonal
from mfcal.selftest import _spectrum_matrix as matrix_with_spectrum


class TestExcitationCovariance:
    def test_identical_rows_centered_is_zero(self):
        rows = np.tile([0.2, 0.7, 0.4], (5, 1))
        assert np.all(excitation_covariance(rows, center=True) == 0.0)

    def test_identity_rows_uncentered(self):
        rows = np.eye(2)
        np.testing.assert_allclose(excitation_covariance(rows, center=False),
                                   np.eye(2), rtol=0, atol=0)

    def test_matches_brute_force_outer_products(self):
        rng = np.random.default_rng(1)
        rows = rng.uniform(0.01, 0.99, (7, 4))
        got = excitation_covariance(rows, center=False)
        brute = np.zeros((4, 4))
        for row in rows:
            brute += np.outer(row, row)
        brute /= rows.shape[0] - 1
        np.testing.assert_allclose(got, brute, rtol=0, atol=1e-12)
        assert np.abs(got - got.T).max() <= 1e-12

    def test_needs_two_instances(self):
        with pytest.raises(ValueError, match="2 instances"):
            excitation_covariance(np.ones((1, 3)))


class TestJacobi:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    def test_matches_numpy_eigenvalues(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2.0
        ours, vectors = jacobi_eigh(a)
        reference = np.linalg.eigvalsh(a)
        np.testing.assert_allclose(np.sort(ours), reference, rtol=0, atol=1e-10)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(n), rtol=0, atol=1e-10)
        np.testing.assert_allclose((vectors * ours) @ vectors.T, a, rtol=0, atol=1e-9)

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_unconverged_sweeps_raise(self, monkeypatch):
        rng = np.random.default_rng(40)
        a = rng.normal(size=(40, 40))
        a = (a + a.T) / 2.0
        monkeypatch.setattr(analysis, "_JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(ValueError, match="did not converge in 1 sweeps"):
            jacobi_eigh(a)

    def test_singular_values_are_sorted_absolute_eigenvalues(self):
        rng = np.random.default_rng(9)
        a = matrix_with_spectrum([-4.0, 1.0, 3.0], rng)
        np.testing.assert_allclose(singular_values(a), [4.0, 3.0, 1.0],
                                   rtol=0, atol=1e-10)


class TestLinearExcitationThreshold:
    def test_constructed_spectrum(self):
        rng = np.random.default_rng(11)
        a = matrix_with_spectrum([10.0, 3.0, 1.0], rng)
        # energies: 100/110 = 0.909 < 0.95, 109/110 = 0.991 >= 0.95
        assert excitation_report(a, 0.95)["k"] == 2

    def test_rank_one_needs_one_component(self):
        v = np.array([0.3, 0.5, 0.1, 0.9])
        for delta in (0.1, 0.5, 1.0):
            assert excitation_report(np.outer(v, v), delta)["k"] == 1

    def test_full_energy_returns_the_rank(self):
        rng = np.random.default_rng(12)
        assert excitation_report(matrix_with_spectrum([10.0, 3.0, 1.0], rng), 1.0)["k"] == 3
        assert excitation_report(matrix_with_spectrum([10.0, 3.0, 0.0], rng), 1.0)["k"] == 2

    def test_full_energy_tolerates_cumulative_sum_rounding(self):
        s = np.array([669.5946702125508, 218.76691931620317, 10.891213892975017,
                      6.561970713253218, 0.18327297464326944, 0.02567786529227572,
                      0.008257136360313147, 0.008002062410674006, 0.0066649840765004515])
        # the running sum ends below the total it is compared with
        assert np.cumsum(s ** 2)[-1] < np.sum(s ** 2)
        assert excitation_report(np.diag(s), 1.0)["k"] == 9

    def test_zero_matrix_has_rank_zero(self):
        assert excitation_report(np.zeros((4, 4)), 0.9)["k"] == 0

    def test_monotone_in_delta_and_bounded_by_channels(self):
        rng = np.random.default_rng(13)
        a = matrix_with_spectrum([9.0, 4.0, 2.0, 1.0, 0.5], rng)
        deltas = [0.2, 0.5, 0.8, 0.9, 0.99, 1.0]
        ks = [excitation_report(a, d)["k"] for d in deltas]
        assert all(k1 <= k2 for k1, k2 in zip(ks, ks[1:]))
        assert all(1 <= k <= 5 for k in ks)

    def test_orthogonal_conjugation_invariance(self):
        rng = np.random.default_rng(14)
        a = matrix_with_spectrum([10.0, 3.0, 1.0], rng)
        for _ in range(20):
            q = random_orthogonal(3, rng)
            conj = q @ a @ q.T
            assert excitation_report((conj + conj.T) / 2, 0.95)["k"] == 2

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError, match="delta"):
            excitation_report(np.eye(2), 0.0)
        with pytest.raises(ValueError, match="delta"):
            excitation_report(np.eye(2), 1.5)

    def test_rejects_asymmetric_matrices(self):
        bad = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            excitation_report(bad, 0.9)

    def test_report_record_fields(self):
        rng = np.random.default_rng(15)
        a = matrix_with_spectrum([10.0, 3.0, 1.0], rng)
        record = excitation_report(a, 0.95)
        assert list(record) == ["delta", "k", "singular_values"]
        assert record["k"] == 2
        np.testing.assert_allclose(record["singular_values"], [10.0, 3.0, 1.0],
                                   atol=1e-9)

    def test_report_runs_one_eigensolve(self, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(analysis, "jacobi_eigh", counted(analysis.jacobi_eigh))
        for name in ("eigvalsh", "eigh", "eigvals", "eig", "svd"):
            monkeypatch.setattr(analysis.np.linalg, name, counted(getattr(np.linalg, name)))
        rng = np.random.default_rng(16)
        excitation_report(matrix_with_spectrum([10.0, 3.0, 1.0], rng), 0.95)
        assert calls == ["eigvalsh"]
