"""Cascade generators against their closed-form oracles."""

import math

import numpy as np
import pytest

import mfcal.cascade as cascade
from mfcal.cascade import (
    MAX_DEPTH_1D,
    MAX_DEPTH_2D,
    MassLevels,
    SpectrumCurve,
    analytic_alpha,
    analytic_spectrum,
    binomial_levels,
    generate_binomial,
    generate_product_2d,
    make_curve,
    _analytic_f,
)
from mfcal.selftest import (
    _analytic_alpha_q,
    _analytic_tau,
    _bitcount_measure,
    _field_levels,
    _same_levels,
)

# closed-form anchors for p = 2/3
ALPHA_STAR = 1.0849625007211562      # -(1/2) log2(p (1-p))
ENTROPY_23 = 0.9182958340544896      # binary entropy of 2/3


class TestGenerateBinomial:
    def test_uniform_case(self):
        cells = generate_binomial(0.5, 3)
        np.testing.assert_allclose(cells, np.full(8, 0.125), rtol=0, atol=0)

    def test_depth_one_splits_mass(self):
        cells = generate_binomial(2 / 3, 1)
        np.testing.assert_allclose(cells, [2 / 3, 1 / 3], rtol=1e-15)

    def test_depth_two_hand_expansion(self):
        cells = generate_binomial(2 / 3, 2)
        np.testing.assert_allclose(cells, [4 / 9, 2 / 9, 2 / 9, 1 / 9], rtol=1e-15)

    @pytest.mark.parametrize("depth", range(1, 11))
    def test_unit_mass(self, depth):
        rng = np.random.default_rng(depth)
        p = float(rng.uniform(0.05, 0.95))
        cells = generate_binomial(p, depth)
        assert abs(cells.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("depth", [1, 4, 7, 10, 12])
    def test_matches_bit_count_closed_form(self, depth):
        p = 2 / 3
        generated = generate_binomial(p, depth)
        assert np.abs(generated - _bitcount_measure(p, depth)).max() < 1e-12

    def test_exponent_histogram_counts_are_binomial_coefficients(self):
        depth, p = 10, 2 / 3
        cells = generate_binomial(p, depth)
        exponents = np.round(-np.log2(cells) / depth, 12)
        _, counts = np.unique(exponents, return_counts=True)
        # exponent grows as the zero count drops, so counts run n0 = k..0
        assert counts.tolist() == [math.comb(depth, n0) for n0 in range(depth, -1, -1)]

    def test_coarse_exponents_match_analytic_alpha(self):
        depth, p = 10, 2 / 3
        cells = generate_binomial(p, depth)
        ones = np.bitwise_count(np.arange(2 ** depth, dtype=np.uint64)).astype(int)
        expected = np.array([analytic_alpha((depth - o) / depth, p) for o in ones])
        np.testing.assert_allclose(-np.log2(cells) / depth, expected, rtol=0, atol=1e-12)


def per_depth_doubling(p, depth):
    """Reference: one doubling run to ``depth`` alone, each level built from a temporary."""
    q = 1.0 - p
    cells = np.ones(1)
    for _ in range(depth):
        nxt = np.empty(2 * cells.size)
        nxt[0::2] = p * cells
        nxt[1::2] = q * cells
        cells = nxt
    return cells


def cells(p, depth, dims):
    return generate_binomial(p, depth) if dims == 1 else generate_product_2d(p, depth)


# 2**-63.8 is just above the underflow bound at dims * depth = 16, where the
# smallest cell p**16 must stay >= 2**-1022; there q = 1 - p rounds to 1.0
GRID_P = [0.5, 2 / 3, 0.3, 0.1, 0.95, 0.999, 2.0 ** -63.8]


class TestBinomialLevels:
    @pytest.mark.parametrize("dims, deepest", [(1, 16), (2, 8)])
    @pytest.mark.parametrize("p", GRID_P, ids=lambda p: f"p={p:.6g}")
    def test_levels_equal_the_sorted_cells(self, p, dims, deepest):
        levels = binomial_levels(p, 1, deepest, dims)
        assert [level.depth for level in levels] == list(range(1, deepest + 1))
        for level in levels:
            assert _same_levels(level, _field_levels(cells(p, level.depth, dims)))
        if p == 0.5:
            assert all(level.masses.size == 1 for level in levels)

    # caps lowered so that a range ending at the cap stays a few MiB
    @pytest.mark.parametrize("dims, cap", [(1, 16), (2, 9)])
    @pytest.mark.parametrize("first, last", [(1, 2), (1, None), (2, None), (-3, None), (0, None)],
                             ids=["1..2", "1..cap", "2..cap", "cap-3..cap", "cap..cap"])
    def test_one_run_equals_a_run_per_depth(self, dims, cap, first, last, monkeypatch):
        monkeypatch.setattr(cascade, "MAX_DEPTH_1D", 16)
        monkeypatch.setattr(cascade, "MAX_DEPTH_2D", 9)
        depth_min = first if first > 0 else cap + first
        depth_max = cap if last is None else last
        p = 0.37
        levels = binomial_levels(p, depth_min, depth_max, dims)
        assert len(levels) == depth_max - depth_min + 1
        for depth, level in zip(range(depth_min, depth_max + 1), levels):
            assert _same_levels(level, binomial_levels(p, depth, depth, dims)[0])
            assert _same_levels(level, _field_levels(cells(p, depth, dims)))
            assert generate_binomial(p, depth).tobytes() == per_depth_doubling(p, depth).tobytes()
        with pytest.raises(ValueError, match="cap"):
            binomial_levels(p, depth_min, cap + 1, dims)

    @pytest.mark.parametrize("depth_min, depth_max", [(0, 3), (4, 3), (-1, 2)])
    def test_an_empty_range_or_one_below_depth_one_is_rejected(self, depth_min, depth_max):
        with pytest.raises(ValueError, match="depth range"):
            binomial_levels(0.3, depth_min, depth_max)

    @pytest.mark.parametrize("dims, depth", [(1, 12), (2, 6)])
    def test_the_smallest_cell_must_be_a_normal_float(self, dims, depth):
        assert binomial_levels(1e-25, depth, depth, dims)[0].masses[0] >= np.finfo(float).tiny
        with pytest.raises(ValueError, match="smallest cell"):
            binomial_levels(1e-26, 1, depth, dims)


class TestMassLevels:
    MASSES = [0.125, 0.25, 0.5]
    COUNTS = [2, 1, 1]

    def test_a_valid_record_keeps_float64_masses_and_int64_counts(self):
        level = MassLevels(self.MASSES, self.COUNTS, 2)
        assert level.masses.dtype == np.float64 and level.counts.dtype == np.int64

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_masses_are_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MassLevels([0.125, bad, 0.5], self.COUNTS, 2)

    def test_non_finite_is_reported_before_a_negative_mass(self):
        with pytest.raises(ValueError, match="finite"):
            MassLevels([-0.25, np.nan, 0.5], self.COUNTS, 2)

    @pytest.mark.parametrize("first", [0.0, -0.0, -0.125])
    def test_a_mass_at_or_below_zero_is_rejected(self, first):
        with pytest.raises(ValueError, match="positive"):
            MassLevels([first, 0.25, 0.75], [1, 1, 1], 2)

    @pytest.mark.parametrize("masses", [[0.25, 0.125, 0.5], [0.125, 0.125, 0.5]],
                             ids=["descending pair", "repeated mass"])
    def test_masses_must_be_strictly_ascending(self, masses):
        with pytest.raises(ValueError, match="ascending"):
            MassLevels(masses, [2, 2, 1], 2)

    @pytest.mark.parametrize("counts", [[2, 0, 1], [2, -1, 2], [2.0, 1.0, 1.0]],
                             ids=["zero", "negative", "float"])
    def test_counts_must_be_integers_of_at_least_one(self, counts):
        with pytest.raises(ValueError, match="integers >= 1"):
            MassLevels(self.MASSES, counts, 2)

    @pytest.mark.parametrize("counts", [[2, 1], [[2, 1, 1]]], ids=["short", "2-D"])
    def test_counts_must_have_the_masses_shape(self, counts):
        with pytest.raises(ValueError, match="do not match"):
            MassLevels(self.MASSES, counts, 2)

    @pytest.mark.parametrize("off", [2e-9, -2e-9])
    def test_a_total_mass_off_by_more_than_1e_9_is_rejected(self, off):
        MassLevels([0.125, 0.25, 0.5 + off / 4], self.COUNTS, 2)  # within 1e-9
        with pytest.raises(ValueError, match="normalized"):
            MassLevels([0.125, 0.25, 0.5 + off], self.COUNTS, 2)

    def test_depth_must_be_at_least_one(self):
        with pytest.raises(ValueError, match="depth"):
            MassLevels(self.MASSES, self.COUNTS, 0)


class TestGenerateProduct2d:
    def test_uniform_product(self):
        field = generate_product_2d(0.5, 2)
        np.testing.assert_allclose(field, np.full((4, 4), 1 / 16), rtol=0, atol=0)

    def test_depth_one_outer_product(self):
        field = generate_product_2d(2 / 3, 1)
        np.testing.assert_allclose(field, [[4 / 9, 2 / 9], [2 / 9, 1 / 9]], rtol=1e-15)

    def test_row_sums_marginalize_to_the_line(self):
        field = generate_product_2d(0.3, 5)
        line = generate_binomial(0.3, 5)
        np.testing.assert_allclose(field.sum(axis=1), line, rtol=1e-12)
        assert abs(field.sum() - 1.0) < 1e-12


class TestProductRows:
    """The square's row blocks, in one reused buffer, are the bytes of ``np.outer``."""

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.6667])
    @pytest.mark.parametrize("depth", [1, 2, 5, 8, 10, 11])
    def test_the_blocks_are_the_rows_of_the_outer_product(self, p, depth):
        line = generate_binomial(p, depth)
        blocks = [block.copy() for block in cascade.product_rows(line)]
        rows = max(1, cascade.PRODUCT_BLOCK_BYTES // line.nbytes)
        assert [len(b) for b in blocks] == [min(rows, line.size)] * len(blocks)
        assert np.concatenate(blocks).tobytes() == np.outer(line, line).tobytes()
        assert generate_product_2d(p, depth).tobytes() == np.outer(line, line).tobytes()

    def test_every_block_is_a_view_of_one_buffer_within_the_block_bytes(self):
        line = generate_binomial(0.3, 12)
        bases = {id(block.base) for block in cascade.product_rows(line)}
        first = next(cascade.product_rows(line))
        assert len(bases) == 1
        assert first.base.nbytes <= cascade.PRODUCT_BLOCK_BYTES
        assert first.flags.c_contiguous


class TestSpecValidation:
    CAPS = {generate_binomial: MAX_DEPTH_1D, generate_product_2d: MAX_DEPTH_2D}

    def test_weights_must_be_interior(self):
        for make in self.CAPS:
            for p in (1.0, 0.0, -0.5, 1.5):
                with pytest.raises(ValueError, match="p must lie"):
                    make(p, 3)

    def test_depth_caps(self):
        for make, cap in self.CAPS.items():
            for depth in (0, -1, cap + 1):
                with pytest.raises(ValueError, match="cap"):
                    make(0.5, depth)

    @pytest.mark.parametrize("make, depth", [(generate_binomial, 12), (generate_product_2d, 6)])
    def test_the_smallest_cell_must_be_a_normal_float(self, make, depth):
        # 12 halvings: 1e-25**12 = 1e-300 is normal, 1e-26**12 = 1e-312 is subnormal
        assert make(1e-25, depth).min() >= np.finfo(np.float64).tiny
        with pytest.raises(ValueError, match="smallest cell"):
            make(1e-26, depth)


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
        assert _analytic_tau(2 / 3, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert _analytic_tau(2 / 3, 0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_alpha_q_closed_form_at_zero(self):
        assert _analytic_alpha_q(2 / 3, 0.0) == pytest.approx(ALPHA_STAR, abs=1e-15)
        # f(alpha(0)) = 0 * alpha - tau(0) = support dimension
        assert -_analytic_tau(2 / 3, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_alpha_q_matches_numerical_tau_derivative(self):
        q = np.linspace(-4.0, 4.0, 33)
        h = 1e-6
        numeric = (_analytic_tau(2 / 3, q + h) - _analytic_tau(2 / 3, q - h)) / (2 * h)
        np.testing.assert_allclose(_analytic_alpha_q(2 / 3, q), numeric, atol=1e-8)


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
