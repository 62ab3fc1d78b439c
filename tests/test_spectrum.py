"""Spectrum estimators against the cascade closed forms."""

import tracemalloc

import numpy as np
import pytest

from mfcal import spectrum
from mfcal.cascade import MassLevels, binomial_levels, generate_binomial, generate_product_2d, make_curve
from mfcal.holder import interior_view
from mfcal.spectrum import CLT_POINTS, clt_spectrum, histogram_spectrum, moments_spectrum
from mfcal.selftest import _analytic_alpha_q, _analytic_tau, _field_levels

ALPHA_STAR = 1.0849625007211562
P = 2 / 3


def line_levels(depths, p=P):
    """The mass levels of the line cascades at a contiguous range of depths."""
    return binomial_levels(p, depths[0], depths[-1])


def as_levels(fields):
    """Hand-built dyadic measures, through the harness's sort-based oracle."""
    return [_field_levels(field) for field in fields]


class TestHistogramSpectrum:
    def test_uniform_cascade_collapses_to_the_support_point(self):
        curve = histogram_spectrum(line_levels(range(8, 13), p=0.5), bins=32)
        assert len(curve) == 1
        assert curve.alpha[0] == pytest.approx(1.0, abs=0.02)
        assert curve.f[0] == pytest.approx(1.0, abs=0.02)

    def test_point_mass_gives_the_origin(self):
        fields = []
        for k in (3, 4, 5):
            field = np.zeros(2 ** k)
            field[0] = 1.0
            fields.append(field)
        curve = histogram_spectrum(as_levels(fields), bins=4)
        assert len(curve) == 1
        assert curve.alpha[0] == pytest.approx(0.0, abs=1e-12)
        assert curve.f[0] == pytest.approx(0.0, abs=1e-12)

    def test_binomial_peak_tracks_the_oracle(self):
        # 16 bins: narrow enough to localize the peak, wide enough that the
        # modal bin stays occupied at every depth in 8..12
        curve = histogram_spectrum(line_levels(range(8, 13)), bins=16)
        alpha_peak, f_peak = curve.peak
        assert abs(alpha_peak - ALPHA_STAR) <= 0.05
        assert abs(f_peak - 1.0) <= 0.1

    def test_binomial_curve_stays_below_the_diagonal(self):
        curve = histogram_spectrum(line_levels(range(8, 13)), bins=16)
        assert np.all(curve.f <= curve.alpha + 1e-6)

    def test_two_dimensional_peak(self):
        # 33 bins put a bin center exactly on the modal exponent
        curve = histogram_spectrum(binomial_levels(P, 8, 11, dims=2), bins=33)
        alpha_peak, f_peak = curve.peak
        assert abs(alpha_peak - 2 * ALPHA_STAR) <= 0.1
        assert abs(f_peak - 2.0) <= 0.15

    def test_needs_two_depths(self):
        with pytest.raises(ValueError, match="two depths"):
            histogram_spectrum(line_levels([8]), bins=8)

    def test_rejects_depths_out_of_order(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            histogram_spectrum(line_levels(range(8, 11))[::-1], bins=8)

    def test_rejects_arrays_passed_as_levels(self):
        with pytest.raises(ValueError, match="cascade.MassLevels"):
            histogram_spectrum(line_fields(range(8, 11)), bins=8)

    # the estimators see no cells: these checks live in the harness's oracle
    def test_rejects_unnormalized_measures(self):
        with pytest.raises(ValueError, match="normalized"):
            as_levels([np.ones(8), np.ones(16)])

    def test_rejects_non_dyadic_shapes(self):
        with pytest.raises(ValueError, match="power of two"):
            as_levels([np.full(6, 1 / 6), np.full(12, 1 / 12)])


Q_GRID = np.round(np.arange(-5.0, 5.0 + 1e-9, 0.25), 10)


@pytest.fixture(scope="module")
def fitted():
    return moments_spectrum(line_levels(range(8, 13)), Q_GRID)


class TestMomentsSpectrum:
    Q = Q_GRID

    def test_tau_at_one_is_zero(self, fitted):
        partition, _ = fitted
        idx = np.flatnonzero(self.Q == 1.0)[0]
        assert abs(partition.tau[idx]) < 1e-9

    def test_tau_matches_the_closed_form(self, fitted):
        partition, _ = fitted
        err = np.abs(partition.tau - _analytic_tau(P, self.Q)).max()
        assert err < 0.02

    def test_alpha_matches_the_closed_form_at_every_order(self, fitted):
        partition, _ = fitted
        err = np.abs(partition.alpha - _analytic_alpha_q(P, self.Q)).max()
        assert err < 1e-12

    @pytest.mark.parametrize("step", [0.25, 1.0])
    @pytest.mark.parametrize("dims, lo, hi", [(1, 10, 20), (1, 8, 12), (2, 12, 14), (2, 4, 9)])
    @pytest.mark.parametrize("p", [0.1, 0.3, P])
    def test_direct_sums_are_exact_on_cascades_ends_included(self, p, dims, lo, hi, step):
        # the weighted mean of log2 mu is linear in the depth on a cascade, so
        # the fit recovers alpha(q) to rounding at every order, ends included
        q = np.round(np.arange(-5.0, 5.0 + 1e-9, step), 10)
        partition, _ = moments_spectrum(binomial_levels(p, lo, hi, dims), q)
        alpha = dims * _analytic_alpha_q(p, q)
        np.testing.assert_allclose(partition.alpha, alpha, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(partition.f, q * alpha - dims * _analytic_tau(p, q),
                                   rtol=0.0, atol=1e-12)

    def test_f_is_clamped_where_the_weights_concentrate_with_depth(self):
        # a measure that is not self-similar: at q = 10 the mu**q / Z weights are
        # uniform over two cells at depth 1 and sit almost all on one cell at
        # depth 2, so their entropy falls with depth and the fitted f is
        # negative, which make_curve would refuse
        levels = as_levels([np.array([0.5, 0.5]), np.array([0.49, 0.01, 0.25, 0.25])])
        partition, curve = moments_spectrum(levels, [-1.0, 0.0, 10.0])
        assert partition.f[-1] < -0.9
        assert curve.f.min() == 0.0

    @pytest.mark.parametrize("dims, lo, hi", [(1, 8, 12), (2, 12, 14)])
    def test_f_is_a_dimension_at_huge_orders(self, dims, lo, hi):
        # nearly all the weight sits on the one extreme cell, whose entropy is 0;
        # q * alpha - tau would cancel two terms of size |q| there
        q = np.array([-1e20, -5e19, 0.0, 5e19, 1e20])
        partition, _ = moments_spectrum(binomial_levels(0.3, lo, hi, dims), q)
        np.testing.assert_allclose(partition.f, [0.0, 0.0, dims, 0.0, 0.0], rtol=0.0, atol=1e-12)

    def test_curve_stays_below_the_diagonal(self, fitted):
        _, curve = fitted
        assert np.max(curve.f - curve.alpha) <= 1e-6

    def test_tau_is_nondecreasing_in_q(self, fitted):
        partition, _ = fitted
        assert np.all(np.diff(partition.tau) >= -1e-12)

    def test_extreme_orders_do_not_overflow(self):
        # at p = 0.01 and depth 16 the smallest cell mass to the power -10 is
        # about 2**1063, beyond float64; every shifted term stays in (0, 1]
        q = np.arange(-10.0, 1e-9, 0.25)
        with np.errstate(over="raise"):
            partition, _ = moments_spectrum(line_levels((16, 17, 18), p=0.01), q)
        assert np.all(np.isfinite(partition.log2_z))
        np.testing.assert_allclose(partition.tau, _analytic_tau(0.01, q), rtol=1e-12)

    def test_needs_three_moments(self):
        with pytest.raises(ValueError, match="3 moment"):
            moments_spectrum(line_levels((8, 9)), [0.0, 1.0])

    def test_rejects_unsorted_moments(self):
        with pytest.raises(ValueError, match="increasing"):
            moments_spectrum(line_levels((8, 9)), [0.5, 0.0, 0.25])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_moments_naming_them(self, bad):
        with pytest.raises(ValueError, match=rf"moment orders must be finite, got \[{bad}\]"):
            moments_spectrum(line_levels((8, 9)), [-0.5, bad, 0.5, 1.0])

    def test_rejects_a_repeated_depth(self):
        level = line_levels((8, 8))[0]
        with pytest.raises(ValueError, match="strictly increasing"):
            moments_spectrum([level, level], Q_GRID)

    def test_rejects_arrays_passed_as_levels(self):
        with pytest.raises(ValueError, match="cascade.MassLevels"):
            moments_spectrum(line_fields(range(8, 11)), Q_GRID)

    def test_many_orders_keep_the_scratch_to_the_chunk_budget(self):
        # an unchunked (orders, levels) block would be 20001 x 293 x 8 bytes,
        # about 47 MB; what remains is a few (orders, depths) arrays: the
        # partition rows, weighted means and w log2 w sums, their centered
        # copies and tau, alpha and f
        levels = binomial_levels(0.3, 12, 14, dims=2)
        q = np.linspace(-5.0, 5.0, 20001)
        tracemalloc.start()
        try:
            partition, _ = moments_spectrum(levels, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(level.masses.size for level in levels) * q.size * 8 > 40e6
        assert peak < 10 * partition.log2_z.nbytes + spectrum.PARTITION_CHUNK_BYTES + 64 * 1024


class TestCltSpectrum:
    def test_zero_variance_collapses_to_the_apex(self):
        curve = clt_spectrum(np.full(32, 1.0), k=10, dims=2)
        assert len(curve) == 1
        assert curve.alpha[0] == 2.0
        assert curve.f[0] == 2.0

    def test_peak_sits_exactly_at_the_sample_mean(self):
        rng = np.random.default_rng(13)
        samples = rng.normal(1.3, 0.2, size=400)
        curve = clt_spectrum(samples, k=9, dims=1)
        alpha_peak, f_peak = curve.peak
        assert alpha_peak == float(samples.mean())
        assert f_peak == 1.0
        assert len(curve) == 64

    def test_product_cascade_cell_exponents(self):
        # the square's cell exponents are the sums c(i) + c(j) of the line's
        depth = 10
        samples = -np.log2(generate_binomial(P, depth)) / depth
        curve = clt_spectrum(samples, k=depth, dims=2)
        alpha_peak, f_peak = curve.peak
        assert abs(alpha_peak - 2 * ALPHA_STAR) <= 0.05
        assert f_peak == 2.0
        # the quadratic form only approximates the true concave spectrum, so
        # it may cross the f = alpha diagonal by O(1/k); check that scale
        assert np.max(curve.f - curve.alpha) <= 0.5 / depth

    def test_samples_clt_points_evenly_over_three_spreads(self):
        samples = np.random.default_rng(14).normal(1.3, 0.2, size=400)
        curve = clt_spectrum(samples, k=9, dims=1)
        center, spread = samples.mean(), samples.std()
        expected = np.linspace(center - 3.0 * spread, center + 3.0 * spread, CLT_POINTS)
        expected[CLT_POINTS // 2] = center
        assert np.array_equal(curve.alpha, expected)

    @pytest.mark.parametrize("size, dims", [(15, 1), (3, 2)])
    def test_needs_sixteen_samples(self, size, dims):
        with pytest.raises(ValueError, match="16"):
            clt_spectrum(np.ones(size), k=8, dims=dims)

    def test_counts_the_sums_of_a_sample_per_axis(self):
        assert clt_spectrum(np.ones(4), k=8, dims=2).peak == (2.0, 2.0)

    def test_two_axes_match_the_explicit_sums(self):
        line = np.random.default_rng(16).normal(0.75, 0.1, 300)
        curve = clt_spectrum(line, k=10, dims=2)
        expected = self.numpy_statistics_curve(np.add.outer(line, line), k=10, support_dim=2.0)
        assert len(curve) == len(expected)
        np.testing.assert_allclose(curve.alpha, expected.alpha, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(curve.f, expected.f, rtol=0.0, atol=1e-13)

    @staticmethod
    def numpy_statistics_curve(alpha_samples, k, support_dim):
        """Reference: the curve from NumPy's own ``mean`` and ``std`` of the raveled samples."""
        samples = np.asarray(alpha_samples, dtype=np.float64).ravel()
        center, spread = float(samples.mean()), float(samples.std())
        alpha = np.linspace(center - 3.0 * spread, center + 3.0 * spread, CLT_POINTS)
        alpha[CLT_POINTS // 2] = center
        f = support_dim - (alpha - center) ** 2 / (2.0 * spread ** 2 * k * np.log(2.0))
        return make_curve(alpha, np.maximum(f, 0.0))

    @pytest.mark.parametrize("form", ["line", "map", "interior"])
    def test_statistics_match_numpy_and_leave_the_input_alone(self, form):
        alpha_map = np.random.default_rng(15).normal(1.5, 0.2, (67, 61, 1))
        samples = {
            "line": alpha_map.ravel(),
            "map": alpha_map,
            "interior": interior_view(alpha_map, (2, 3, 4)),
        }[form]
        assert samples.flags.c_contiguous == (form != "interior")
        before = samples.copy()
        curve = clt_spectrum(samples, k=10, dims=1)
        expected = self.numpy_statistics_curve(before, k=10, support_dim=1.0)
        assert curve.alpha.tobytes() == expected.alpha.tobytes()
        assert curve.f.tobytes() == expected.f.tobytes()
        assert samples.tobytes() == before.tobytes()


def per_cell_log2_partition(field, q):
    """Reference: ``log2 sum mu**q`` as one log-sum-exp pass over every positive cell."""
    mass = np.asarray(field, dtype=np.float64).ravel()
    log_mass = np.log2(mass[mass > 0.0])
    top, bottom = log_mass.max(), log_mass.min()
    out = np.empty(q.size)
    for i, qi in enumerate(q):
        shift = top if qi >= 0.0 else bottom
        out[i] = qi * shift + np.log2(np.exp2(qi * (log_mass - shift)).sum())
    return out


def loop_log2_partition(level, q):
    """Reference: one log-sum-exp pass over a depth's mass levels per order.

    Returns ``log2 Z``, the ``mu**q / Z``-weighted mean of ``log2 mu``
    and ``sum w log2 w`` over those weights ``w`` (minus their entropy).
    """
    log_mass = np.log2(level.masses)
    top, bottom = log_mass[-1], log_mass[0]
    below_top = log_mass - top
    above_bottom = log_mass - bottom
    buf = np.empty_like(log_mass)
    out, mean, w_log2_w = np.empty(q.size), np.empty(q.size), np.empty(q.size)
    for i, qi in enumerate(q):
        shift, dev = (top, below_top) if qi >= 0.0 else (bottom, above_bottom)
        np.multiply(qi, dev, out=buf)
        np.exp2(buf, out=buf)
        total = np.multiply(buf, level.counts, out=buf).sum()
        out[i] = qi * shift + np.log2(total)
        mean[i] = np.dot(buf, log_mass) / total
        w_log2_w[i] = qi * (np.dot(buf, dev) / total) - np.log2(total)
    return out, mean, w_log2_w


def assert_partition_matches_the_loop(level, q):
    """``log2 Z`` to the byte; the weighted sums to rounding (their contraction order is BLAS's)."""
    log2_z, mean, w_log2_w = spectrum._log2_partition(level, q)
    loop_z, loop_mean, loop_w_log2_w = loop_log2_partition(level, q)
    assert log2_z.tobytes() == loop_z.tobytes()
    np.testing.assert_allclose(mean, loop_mean, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(w_log2_w, loop_w_log2_w, rtol=1e-14, atol=0.0)


def per_cell_histogram(fields, bins):
    """Reference: the histogram estimator binning every positive cell's exponent."""
    depths = [int(round(np.log2(field.shape[0]))) for field in fields]
    per_depth = []
    for field, k in zip(fields, depths):
        mass = np.asarray(field, dtype=np.float64).ravel()
        per_depth.append(np.round(-np.log2(mass[mass > 0.0]) / k, 12))
    lo, hi = float(per_depth[-1].min()), float(per_depth[-1].max())
    x = np.asarray(depths, dtype=np.float64) * np.log(2.0)
    dev = x - x.mean()
    edges = np.linspace(lo, hi, bins + 1)
    counts = np.stack([np.histogram(a, bins=edges)[0] for a in per_depth])
    keep = np.all(counts > 0, axis=0)
    centers = 0.5 * (edges[:-1] + edges[1:])[keep]
    slopes = dev @ np.log(counts[:, keep].astype(np.float64)) / np.dot(dev, dev)
    return make_curve(centers, np.maximum(slopes, 0.0))


def sparse_cascades(depths, p=P):
    """Unit-mass dyadic measures whose odd cells are empty."""
    fields = []
    for k in depths:
        field = np.zeros(2 ** (k + 1))
        field[::2] = generate_binomial(p, k)
        fields.append(field)
    return fields


def distinct_measures(depths, seed=7):
    """Unit-mass dyadic measures whose cell masses are all distinct."""
    rng = np.random.default_rng(seed)
    fields = []
    for k in depths:
        field = rng.uniform(0.1, 1.0, 2 ** k)
        fields.append(field / field.sum())
    assert all(np.unique(f).size == f.size for f in fields)
    return fields


def signed_zero_cascades(depths, p=0.3):
    """Unit-mass dyadic measures whose odd cells alternate 0.0 and -0.0."""
    fields = sparse_cascades(depths, p)
    for field in fields:
        field[1::4] = -0.0
    return fields


def line_fields(depths, p=P):
    return [generate_binomial(p, k) for k in depths]


MEASURES = {
    "line p=0.1": lambda: line_fields(range(8, 13), p=0.1),
    "line p=0.3": lambda: line_fields(range(8, 13), p=0.3),
    "line p=2/3": lambda: line_fields(range(8, 13)),
    "line p=0.85": lambda: line_fields(range(8, 13), p=0.85),
    "uniform line": lambda: line_fields(range(8, 13), p=0.5),
    "plane p=0.3": lambda: [generate_product_2d(0.3, k) for k in range(4, 8)],
    "plane p=2/3": lambda: [generate_product_2d(P, k) for k in range(4, 8)],
    "uniform plane": lambda: [generate_product_2d(0.5, k) for k in range(4, 8)],
    "zero cells": lambda: sparse_cascades(range(8, 12)),
    "signed zero cells": lambda: signed_zero_cascades(range(8, 12)),
    "all distinct": lambda: distinct_measures(range(8, 11)),
}


@pytest.mark.parametrize("name", sorted(MEASURES))
class TestAgainstPerCellReferences:
    def test_log2_partition_matches_the_per_cell_sum(self, name):
        fields = MEASURES[name]()
        partition, _ = moments_spectrum(as_levels(fields), Q_GRID)
        expected = np.stack([per_cell_log2_partition(f, Q_GRID) for f in fields], axis=1)
        np.testing.assert_allclose(partition.log2_z, expected, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("bins", [8, 16])
    def test_histogram_matches_binning_every_cell(self, name, bins):
        fields = MEASURES[name]()
        curve = histogram_spectrum(as_levels(fields), bins=bins)
        expected = per_cell_histogram(fields, bins)
        assert np.array_equal(curve.alpha, expected.alpha)
        assert np.array_equal(curve.f, expected.f)


ORDER_GRIDS = {
    "all negative": np.linspace(-7.0, -0.1, 41),
    "all nonnegative": np.linspace(0.0, 7.0, 41),
    "straddling with -0.0": np.array([-1.5, -1.0, -0.5, -0.0, 0.5, 1.0, 1.5]),
    "the CLI's": Q_GRID,
}


def random_levels(size, seed=17):
    """A unit-mass level set of ``size`` distinct masses, each held by 1 to 4 cells."""
    rng = np.random.default_rng(seed)
    masses = np.unique(rng.uniform(0.1, 1.0, size))
    counts = rng.integers(1, 5, size)
    assert masses.size == size
    return MassLevels(masses / (counts @ masses), counts, 12)


class TestPartitionBytes:
    """The chunked partition sums give the per-order loop's results."""

    @pytest.mark.parametrize("grid", sorted(ORDER_GRIDS))
    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_every_measure(self, name, grid):
        q = ORDER_GRIDS[grid]
        for level in as_levels(MEASURES[name]()):
            assert_partition_matches_the_loop(level, q)

    @pytest.mark.parametrize("grid", sorted(ORDER_GRIDS))
    @pytest.mark.parametrize("size", [8191, 8192, 8193, 20001])
    def test_many_levels(self, size, grid):
        level, q = random_levels(size), ORDER_GRIDS[grid]
        assert_partition_matches_the_loop(level, q)

    @pytest.mark.parametrize("p, dims", [(0.3, 1), (P, 2)])
    def test_orders_in_several_chunks_with_a_shorter_last_one(self, p, dims):
        level = binomial_levels(p, 10, 10, dims)[0]
        rows = spectrum.PARTITION_CHUNK_BYTES // level.masses.nbytes
        q = np.linspace(-3.0, 3.0, 2 * rows + rows // 2)
        split = int(np.searchsorted(q, 0.0))
        assert rows > 1 and q.size % rows and split % rows
        assert_partition_matches_the_loop(level, q)


class TestOneExponentAtTheDeepestLevel:
    """Every edge equals that exponent; like any bin, it counts only its own cells."""

    def test_a_shallower_level_counts_only_its_cells_at_that_exponent(self):
        # two of the four depth-2 cells have exponent 1, all eight at depth 3
        fields = [np.array([0.25, 0.25, 0.1, 0.4]), np.full(8, 0.125)]
        curve = histogram_spectrum(as_levels(fields), bins=8)
        assert curve.alpha.tolist() == [1.0] and curve.f == pytest.approx([2.0])
        expected = per_cell_histogram(fields, 8)
        assert np.array_equal(curve.alpha, expected.alpha)
        assert np.array_equal(curve.f, expected.f)

    def test_no_shallower_cell_at_that_exponent_is_an_empty_bin(self):
        fields = [np.array([0.2, 0.3, 0.1, 0.4]), np.full(8, 0.125)]
        with pytest.raises(ValueError, match="no alpha bin is occupied"):
            histogram_spectrum(as_levels(fields), bins=8)


def unique_mass_levels(field):
    """Reference: ``np.unique`` over a copy of the positive cells."""
    mass = np.asarray(field, dtype=np.float64).ravel()
    return np.unique(mass[mass > 0.0], return_counts=True)


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_mass_levels_match_unique_over_the_positive_cells(name):
    for field in MEASURES[name]():
        level = _field_levels(field)
        expected_levels, expected_cells = unique_mass_levels(field)
        assert level.masses.tobytes() == expected_levels.tobytes()
        assert level.counts.dtype == expected_cells.dtype
        assert np.array_equal(level.counts, expected_cells)


class TestNonFiniteMeasures:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_a_non_finite_cell_is_rejected(self, bad):
        fields = line_fields(range(8, 11))
        fields[-1][5] = bad
        with pytest.raises(ValueError, match="measure values must be finite"):
            as_levels(fields)

    def test_non_finite_is_reported_before_negative(self):
        fields = line_fields(range(8, 11))
        fields[0][[1, 2]] = [-0.25, np.nan]
        with pytest.raises(ValueError, match="finite"):
            as_levels(fields)


class TestCellOrderIsIrrelevant:
    @staticmethod
    def permuted(fields, seed=3):
        rng = np.random.default_rng(seed)
        return [rng.permutation(f.ravel()).reshape(f.shape) for f in fields]

    @pytest.mark.parametrize("p, dims, depths", [
        pytest.param(0.3, 1, range(8, 13), id="line p=0.3"),
        pytest.param(P, 2, range(4, 8), id="plane p=2/3"),
    ])
    def test_permuting_cells_keeps_every_byte(self, p, dims, depths):
        make = generate_binomial if dims == 1 else generate_product_2d
        shuffled = as_levels(self.permuted([make(p, k) for k in depths]))
        levels = binomial_levels(p, depths[0], depths[-1], dims)
        partition, legendre = moments_spectrum(levels, Q_GRID)
        partition_p, legendre_p = moments_spectrum(shuffled, Q_GRID)
        assert partition.log2_z.tobytes() == partition_p.log2_z.tobytes()
        assert partition.tau.tobytes() == partition_p.tau.tobytes()
        assert legendre.f.tobytes() == legendre_p.f.tobytes()
        hist = histogram_spectrum(levels, bins=16)
        hist_p = histogram_spectrum(shuffled, bins=16)
        assert hist.alpha.tobytes() == hist_p.alpha.tobytes()
        assert hist.f.tobytes() == hist_p.f.tobytes()


class TestEstimatorConsistency:
    def test_histogram_and_moments_agree_at_the_peak(self):
        levels = line_levels(range(8, 13))
        hist = histogram_spectrum(levels, bins=16)
        _, legendre = moments_spectrum(levels, Q_GRID)
        h_alpha, h_f = hist.peak
        m_alpha, m_f = legendre.peak
        assert abs(h_alpha - m_alpha) <= 0.1
        assert abs(h_f - m_f) <= 0.1

    def test_moments_peak_matches_the_support_box_dimension(self):
        levels = line_levels(range(8, 13))
        _, legendre = moments_spectrum(levels, Q_GRID)
        # every cell is positive, so the support is the unit interval: -tau(0) = 1
        assert levels[-1].counts.sum() == 2 ** 12
        assert abs(max(legendre.f) - -_analytic_tau(P, 0.0)) <= 0.1

    def test_clt_peak_equals_mean_alpha_exactly(self):
        from mfcal.holder import mean_alpha

        # the samples are one axis of a 2-D product; its mean is twice theirs
        line = np.random.default_rng(40).normal(0.75, 0.1, (1, 64))
        curve = clt_spectrum(line, k=8, dims=2)
        assert curve.peak == (2 * mean_alpha(line)[0], 2.0)
