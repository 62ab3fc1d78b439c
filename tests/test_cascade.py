"""Cascade generators against their closed-form oracles."""

import math

import numpy as np
import pytest

from mfcal.cascade import (
    CascadeSpec,
    SpectrumCurve,
    analytic_alpha,
    analytic_alpha_q,
    analytic_spectrum,
    analytic_tau,
    bitcount_measure,
    generate_binomial,
    generate_product_2d,
    make_curve,
    _analytic_f,
)

# closed-form anchors for p = 2/3
ALPHA_STAR = 1.0849625007211562      # -(1/2) log2(p (1-p))
ENTROPY_23 = 0.9182958340544896      # binary entropy of 2/3


class TestGenerateBinomial:
    def test_uniform_case(self):
        cells = generate_binomial(CascadeSpec.binomial(0.5, 3))
        np.testing.assert_allclose(cells, np.full(8, 0.125), rtol=0, atol=0)

    def test_depth_one_splits_mass(self):
        cells = generate_binomial(CascadeSpec.binomial(2 / 3, 1))
        np.testing.assert_allclose(cells, [2 / 3, 1 / 3], rtol=1e-15)

    def test_depth_two_hand_expansion(self):
        cells = generate_binomial(CascadeSpec.binomial(2 / 3, 2))
        np.testing.assert_allclose(cells, [4 / 9, 2 / 9, 2 / 9, 1 / 9], rtol=1e-15)

    @pytest.mark.parametrize("depth", range(1, 11))
    def test_unit_mass(self, depth):
        rng = np.random.default_rng(depth)
        p = float(rng.uniform(0.05, 0.95))
        cells = generate_binomial(CascadeSpec.binomial(p, depth))
        assert abs(cells.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("depth", [1, 4, 7, 10, 12])
    def test_matches_bit_count_closed_form(self, depth):
        p = 2 / 3
        generated = generate_binomial(CascadeSpec.binomial(p, depth))
        assert np.abs(generated - bitcount_measure(p, depth)).max() < 1e-12

    def test_exponent_histogram_counts_are_binomial_coefficients(self):
        depth, p = 10, 2 / 3
        cells = generate_binomial(CascadeSpec.binomial(p, depth))
        exponents = np.round(-np.log2(cells) / depth, 12)
        _, counts = np.unique(exponents, return_counts=True)
        # exponent grows as the zero count drops, so counts run n0 = k..0
        assert counts.tolist() == [math.comb(depth, n0) for n0 in range(depth, -1, -1)]

    def test_coarse_exponents_match_analytic_alpha(self):
        depth, p = 10, 2 / 3
        cells = generate_binomial(CascadeSpec.binomial(p, depth))
        ones = np.bitwise_count(np.arange(2 ** depth, dtype=np.uint64)).astype(int)
        expected = np.array([analytic_alpha((depth - o) / depth, p) for o in ones])
        np.testing.assert_allclose(-np.log2(cells) / depth, expected, rtol=0, atol=1e-12)


class TestGenerateProduct2d:
    def test_uniform_product(self):
        field = generate_product_2d(CascadeSpec.binomial(0.5, 2, dims=2))
        np.testing.assert_allclose(field, np.full((4, 4), 1 / 16), rtol=0, atol=0)

    def test_depth_one_outer_product(self):
        field = generate_product_2d(CascadeSpec.binomial(2 / 3, 1, dims=2))
        np.testing.assert_allclose(field, [[4 / 9, 2 / 9], [2 / 9, 1 / 9]], rtol=1e-15)

    def test_row_sums_marginalize_to_the_line(self):
        spec = CascadeSpec.binomial(0.3, 5, dims=2)
        field = generate_product_2d(spec)
        line = generate_binomial(CascadeSpec.binomial(0.3, 5))
        np.testing.assert_allclose(field.sum(axis=1), line, rtol=1e-12)
        assert abs(field.sum() - 1.0) < 1e-12


class TestSpecValidation:
    def test_weights_must_be_interior(self):
        with pytest.raises(ValueError):
            CascadeSpec.binomial(1.0, 3)
        with pytest.raises(ValueError):
            CascadeSpec.binomial(0.0, 3)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            CascadeSpec(weights=(0.5, 0.4), depth=3)

    def test_depth_caps(self):
        with pytest.raises(ValueError, match="cap"):
            CascadeSpec.binomial(0.5, 15, dims=2)
        with pytest.raises(ValueError, match="cap"):
            CascadeSpec.binomial(0.5, 27, dims=1)

    def test_dims_mismatch_rejected(self):
        with pytest.raises(ValueError):
            generate_binomial(CascadeSpec.binomial(0.5, 3, dims=2))
        with pytest.raises(ValueError):
            generate_product_2d(CascadeSpec.binomial(0.5, 3, dims=1))


class TestAnalyticForms:
    def test_alpha_uniform_measure(self):
        for phi in (0.0, 0.25, 0.5, 1.0):
            assert analytic_alpha(phi, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_alpha_midpoint_closed_form(self):
        assert analytic_alpha(0.5, 2 / 3) == pytest.approx(ALPHA_STAR, abs=1e-15)

    def test_alpha_tangency_point(self):
        # at phi = p the spectrum touches the diagonal: f(alpha) = alpha
        assert analytic_alpha(2 / 3, 2 / 3) == pytest.approx(ENTROPY_23, abs=1e-15)
        assert _analytic_f(2 / 3) == pytest.approx(ENTROPY_23, abs=1e-15)

    def test_entropy_extremes(self):
        assert _analytic_f(0.5) == 1.0
        assert _analytic_f(0.0) == 0.0
        assert _analytic_f(1.0) == 0.0

    def test_spectrum_peak_1d(self):
        curve = analytic_spectrum(2 / 3, 101)
        alpha_at_peak, f_peak = curve.peak
        assert f_peak == pytest.approx(1.0, abs=1e-12)
        assert alpha_at_peak == pytest.approx(ALPHA_STAR, abs=1e-12)

    def test_spectrum_peak_2d_doubles(self):
        curve = analytic_spectrum(2 / 3, 101, dims=2)
        alpha_at_peak, f_peak = curve.peak
        assert f_peak == pytest.approx(2.0, abs=1e-12)
        assert alpha_at_peak == pytest.approx(2 * ALPHA_STAR, abs=1e-12)

    def test_uniform_spectrum_collapses_to_a_point(self):
        curve = analytic_spectrum(0.5, 101)
        assert len(curve) == 1
        assert curve.alpha[0] == pytest.approx(1.0, abs=1e-12)
        assert curve.f[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.2, 1 / 3, 2 / 3, 0.9])
    def test_spectrum_below_the_diagonal(self, p):
        curve = analytic_spectrum(p, 257)
        assert np.all(curve.f <= curve.alpha + 1e-9)
        assert np.all(np.diff(curve.alpha) > 0.0)

    def test_tau_normalization_and_box_counting(self):
        assert analytic_tau(2 / 3, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert analytic_tau(2 / 3, 0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_alpha_q_closed_form_at_zero(self):
        assert analytic_alpha_q(2 / 3, 0.0) == pytest.approx(ALPHA_STAR, abs=1e-15)
        # f(alpha(0)) = 0 * alpha - tau(0) = support dimension
        assert -analytic_tau(2 / 3, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_alpha_q_matches_numerical_tau_derivative(self):
        q = np.linspace(-4.0, 4.0, 33)
        h = 1e-6
        numeric = (analytic_tau(2 / 3, q + h) - analytic_tau(2 / 3, q - h)) / (2 * h)
        np.testing.assert_allclose(analytic_alpha_q(2 / 3, q), numeric, atol=1e-8)


class TestSpectrumCurveType:
    def test_duplicate_alphas_merge_keeping_max_f(self):
        curve = make_curve(np.array([1.0, 1.0, 2.0]), np.array([0.3, 0.7, 0.1]))
        np.testing.assert_allclose(curve.alpha, [1.0, 2.0])
        np.testing.assert_allclose(curve.f, [0.7, 0.1])

    def test_rejects_unsorted_alpha(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SpectrumCurve(np.array([2.0, 1.0]), np.array([0.5, 0.5]))

    def test_rejects_negative_dimension_values(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SpectrumCurve(np.array([1.0, 2.0]), np.array([0.5, -0.1]))
