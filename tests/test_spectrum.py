"""Spectrum estimators against the cascade closed forms."""

import numpy as np
import pytest

from mfcal.cascade import (
    analytic_alpha_q,
    analytic_tau,
    generate_binomial,
    generate_product_2d,
)
from mfcal.holder import ScaleSet
from mfcal.spectrum import (
    CLT_POINTS,
    box_dimension,
    clt_spectrum,
    histogram_spectrum,
    moments_spectrum,
)

ALPHA_STAR = 1.0849625007211562
P = 2 / 3


def line_cascades(depths, p=P):
    return [generate_binomial(p, k) for k in depths]


class TestHistogramSpectrum:
    def test_uniform_cascade_collapses_to_the_support_point(self):
        curve = histogram_spectrum(line_cascades(range(8, 13), p=0.5), bins=32)
        assert len(curve) == 1
        assert curve.alpha[0] == pytest.approx(1.0, abs=0.02)
        assert curve.f[0] == pytest.approx(1.0, abs=0.02)

    def test_point_mass_gives_the_origin(self):
        fields = []
        for k in (3, 4, 5):
            field = np.zeros(2 ** k)
            field[0] = 1.0
            fields.append(field)
        curve = histogram_spectrum(fields, bins=4)
        assert len(curve) == 1
        assert curve.alpha[0] == pytest.approx(0.0, abs=1e-12)
        assert curve.f[0] == pytest.approx(0.0, abs=1e-12)

    def test_binomial_peak_tracks_the_oracle(self):
        # 16 bins: narrow enough to localize the peak, wide enough that the
        # modal bin stays occupied at every depth in 8..12
        curve = histogram_spectrum(line_cascades(range(8, 13)), bins=16)
        alpha_peak, f_peak = curve.peak
        assert abs(alpha_peak - ALPHA_STAR) <= 0.05
        assert abs(f_peak - 1.0) <= 0.1

    def test_binomial_curve_stays_below_the_diagonal(self):
        curve = histogram_spectrum(line_cascades(range(8, 13)), bins=16)
        assert np.all(curve.f <= curve.alpha + 1e-6)

    def test_two_dimensional_peak(self):
        fields = [
            generate_product_2d(P, k)
            for k in (8, 9, 10, 11)
        ]
        # 33 bins put a bin center exactly on the modal exponent
        curve = histogram_spectrum(fields, bins=33)
        alpha_peak, f_peak = curve.peak
        assert abs(alpha_peak - 2 * ALPHA_STAR) <= 0.1
        assert abs(f_peak - 2.0) <= 0.15

    def test_needs_two_depths(self):
        with pytest.raises(ValueError, match="two depths"):
            histogram_spectrum(line_cascades([8]), bins=8)

    def test_rejects_unnormalized_measures(self):
        with pytest.raises(ValueError, match="normalized"):
            histogram_spectrum([np.ones(8), np.ones(16)], bins=8)

    def test_rejects_non_dyadic_shapes(self):
        with pytest.raises(ValueError, match="power of two"):
            histogram_spectrum([np.full(6, 1 / 6), np.full(12, 1 / 12)], bins=8)


Q_GRID = np.round(np.arange(-5.0, 5.0 + 1e-9, 0.25), 10)


@pytest.fixture(scope="module")
def fitted():
    return moments_spectrum(line_cascades(range(8, 13)), Q_GRID)


class TestMomentsSpectrum:
    Q = Q_GRID

    def test_tau_at_one_is_zero(self, fitted):
        partition, _ = fitted
        idx = np.flatnonzero(self.Q == 1.0)[0]
        assert abs(partition.tau[idx]) < 1e-9

    def test_tau_matches_the_closed_form(self, fitted):
        partition, _ = fitted
        err = np.abs(partition.tau - analytic_tau(P, self.Q)).max()
        assert err < 0.02

    def test_alpha_matches_the_closed_form_off_the_endpoints(self, fitted):
        partition, _ = fitted
        inner = ~partition.one_sided
        err = np.abs(partition.alpha[inner] - analytic_alpha_q(P, self.Q[inner])).max()
        assert err < 5e-3

    def test_curve_stays_below_the_diagonal(self, fitted):
        _, curve = fitted
        assert np.max(curve.f - curve.alpha) <= 1e-6

    def test_tau_is_nondecreasing_in_q(self, fitted):
        partition, _ = fitted
        assert np.all(np.diff(partition.tau) >= -1e-12)

    def test_endpoints_are_flagged_one_sided(self, fitted):
        partition, _ = fitted
        flags = partition.one_sided
        assert flags[0] and flags[-1] and not flags[1:-1].any()

    def test_extreme_orders_do_not_overflow(self):
        # at p = 0.01 and depth 16 the smallest cell mass to the power -10 is
        # about 2**1063, beyond float64; every shifted term stays in (0, 1]
        q = np.arange(-10.0, 1e-9, 0.25)
        with np.errstate(over="raise"):
            partition, _ = moments_spectrum(line_cascades((16, 17, 18), p=0.01), q)
        assert np.all(np.isfinite(partition.log2_z))
        np.testing.assert_allclose(partition.tau, analytic_tau(0.01, q), rtol=1e-12)

    def test_needs_three_moments(self):
        with pytest.raises(ValueError, match="3 moment"):
            moments_spectrum(line_cascades((8, 9)), [0.0, 1.0])

    def test_rejects_wide_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            moments_spectrum(line_cascades((8, 9)), [0.0, 1.0, 2.0])

    def test_rejects_unsorted_moments(self):
        with pytest.raises(ValueError, match="increasing"):
            moments_spectrum(line_cascades((8, 9)), [0.5, 0.0, 0.25])


class TestCltSpectrum:
    def test_zero_variance_collapses_to_the_apex(self):
        curve = clt_spectrum(np.full(32, 2.0), k=10, support_dim=2.0)
        assert len(curve) == 1
        assert curve.alpha[0] == 2.0
        assert curve.f[0] == 2.0

    def test_peak_sits_exactly_at_the_sample_mean(self):
        rng = np.random.default_rng(13)
        samples = rng.normal(1.3, 0.2, size=400)
        curve = clt_spectrum(samples, k=9, support_dim=1.0)
        alpha_peak, f_peak = curve.peak
        assert alpha_peak == float(samples.mean())
        assert f_peak == 1.0
        assert len(curve) == 64

    def test_product_cascade_cell_exponents(self):
        depth = 10
        field = generate_product_2d(P, depth)
        samples = -np.log2(field.ravel()) / depth
        curve = clt_spectrum(samples, k=depth, support_dim=2.0)
        alpha_peak, f_peak = curve.peak
        assert abs(alpha_peak - 2 * ALPHA_STAR) <= 0.05
        assert f_peak == 2.0
        # the quadratic form only approximates the true concave spectrum, so
        # it may cross the f = alpha diagonal by O(1/k); check that scale
        assert np.max(curve.f - curve.alpha) <= 0.5 / depth

    def test_samples_clt_points_evenly_over_three_spreads(self):
        samples = np.random.default_rng(14).normal(1.3, 0.2, size=400)
        curve = clt_spectrum(samples, k=9, support_dim=1.0)
        center, spread = samples.mean(), samples.std()
        expected = np.linspace(center - 3.0 * spread, center + 3.0 * spread, CLT_POINTS)
        expected[CLT_POINTS // 2] = center
        assert np.array_equal(curve.alpha, expected)

    def test_needs_sixteen_samples(self):
        with pytest.raises(ValueError, match="16"):
            clt_spectrum(np.ones(15), k=8, support_dim=1.0)


class TestEstimatorConsistency:
    def test_histogram_and_moments_agree_at_the_peak(self):
        fields = line_cascades(range(8, 13))
        hist = histogram_spectrum(fields, bins=16)
        _, legendre = moments_spectrum(fields, Q_GRID)
        h_alpha, h_f = hist.peak
        m_alpha, m_f = legendre.peak
        assert abs(h_alpha - m_alpha) <= 0.1
        assert abs(h_f - m_f) <= 0.1

    def test_moments_peak_matches_the_support_box_dimension(self):
        fields = line_cascades(range(8, 13))
        _, legendre = moments_spectrum(fields, Q_GRID)
        support = (fields[-1] > 0.0).astype(float)
        dim = box_dimension(support, ScaleSet((2, 4, 8)))
        assert abs(max(legendre.f) - dim) <= 0.1

    def test_clt_peak_equals_mean_alpha_exactly(self):
        from mfcal.holder import mean_alpha

        rng = np.random.default_rng(40)
        alpha_map = rng.normal(1.5, 0.2, (16, 16))
        curve = clt_spectrum(alpha_map, k=8, support_dim=2.0)
        assert curve.peak[0] == mean_alpha(alpha_map)[0]


class TestBoxDimension:
    SCALES = ScaleSet((2, 4, 8))

    def test_full_plane(self):
        assert box_dimension(np.ones((64, 64)), self.SCALES) == pytest.approx(2.0, abs=1e-9)

    def test_single_pixel(self):
        mask = np.zeros((64, 64))
        mask[5, 9] = 1
        assert box_dimension(mask, self.SCALES) == pytest.approx(0.0, abs=1e-9)

    def test_line(self):
        mask = np.zeros((64, 64))
        mask[12, :] = 1
        assert box_dimension(mask, self.SCALES) == pytest.approx(1.0, abs=0.05)

    def test_one_dimensional_mask(self):
        assert box_dimension(np.ones(64), self.SCALES) == pytest.approx(1.0, abs=1e-9)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            box_dimension(np.zeros((8, 8)), self.SCALES)

    def test_non_power_extents_still_count(self):
        mask = np.ones((60, 60))  # partial edge tiles still intersect the mask
        assert box_dimension(mask, ScaleSet((2, 4))) == pytest.approx(2.0, abs=0.05)
