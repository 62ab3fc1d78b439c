"""Clipped window sums and the cumulative-sum table against brute-force loops."""

import numpy as np
import pytest

from mfcal.cascade import CascadeSpec, generate_product_2d
from mfcal.grid import (
    as_field,
    integral_image,
    require_measure,
    window_sum,
    window_sum_adjoint,
)
from mfcal.holder import ScaleSet, interior_view
from mfcal.selftest import _brute_window_measures

# sides 1-9, plus one larger than twice either extent of the 9 x 8 fields
EXACT_SIDES = [1, 2, 3, 4, 5, 6, 7, 8, 9, 19]


class TestIntegralImage:
    def test_single_cell(self):
        sat = integral_image(np.array([[5.0]]))
        assert sat[1, 1] == 5.0

    def test_all_zero(self):
        sat = integral_image(np.zeros((4, 4)))
        assert np.all(sat == 0.0)

    def test_two_by_two_corner(self):
        sat = integral_image(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert sat[2, 2] == 10.0

    def test_zero_border_row_and_column(self):
        sat = integral_image(np.arange(12.0).reshape(3, 4))
        assert np.all(sat[0, :] == 0.0)
        assert np.all(sat[:, 0] == 0.0)

    def test_monotone_for_nonnegative_fields(self):
        rng = np.random.default_rng(3)
        sat = integral_image(rng.uniform(0.0, 1.0, (9, 7, 2)))
        assert np.all(np.diff(sat, axis=0) >= 0.0)
        assert np.all(np.diff(sat, axis=1) >= 0.0)

    def test_shape_bookkeeping(self):
        assert integral_image(np.ones((5, 6, 3))).shape == (6, 7, 3)


class TestWindowSum:
    def test_side_one_is_identity(self):
        rng = np.random.default_rng(0)
        exact = rng.integers(-9, 9, size=(6, 5, 2)).astype(np.float64)
        assert np.array_equal(window_sum(exact, 1), exact)
        field = rng.normal(size=(6, 5, 2))
        np.testing.assert_allclose(window_sum(field, 1), field, rtol=0, atol=1e-12)

    def test_uniform_interior_value(self):
        field = np.full((10, 10), 0.5)
        for side in (2, 3, 4):
            out = window_sum(field, side)
            assert out[5, 5] == pytest.approx(0.5 * side * side, abs=1e-12)

    def test_two_by_two_full_cover_anchor(self):
        out = window_sum(np.array([[1.0, 2.0], [3.0, 4.0]]), 2)
        # even side covers [h-1, h+1), so the (1, 1) anchor sees all four cells
        assert out[1, 1] == 10.0

    @pytest.mark.parametrize("side", EXACT_SIDES)
    def test_matches_brute_force_exactly_on_integer_fields(self, side):
        rng = np.random.default_rng(side)
        for low in (0, -9):  # nonnegative measures and signed cotangents
            field = rng.integers(low, 10, size=(9, 8, 2)).astype(np.float64)
            brute = _brute_window_measures(field, [side], 0.0)[0]
            assert np.array_equal(window_sum(field, side), brute)

    def test_degenerates_to_full_sum_for_huge_windows(self):
        rng = np.random.default_rng(8)
        field = rng.integers(0, 9, size=(5, 7)).astype(np.float64)
        out = window_sum(field, 2 * max(field.shape))
        assert np.array_equal(out, np.full_like(field, field.sum()))

    def test_linearity(self):
        rng = np.random.default_rng(11)
        f = rng.normal(size=(8, 8))
        g = rng.normal(size=(8, 8))
        lhs = window_sum(2.5 * f + 4.0 * g, 3)
        rhs = 2.5 * window_sum(f, 3) + 4.0 * window_sum(g, 3)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_monotone_in_side_for_nonnegative_fields(self):
        rng = np.random.default_rng(12)
        field = rng.uniform(0.0, 1.0, (12, 12))
        smaller = window_sum(field, 2)
        for side in (3, 4, 5):
            larger = window_sum(field, side)
            assert np.all(larger >= smaller - 1e-12)
            smaller = larger

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            window_sum(np.ones((3, 3)), 0)

    def test_cascade_masses_are_positive_and_exact(self):
        # depth-10 product cascade at p = 0.95: cell masses span about 26
        # decades, where a summed-area table's four-corner differences
        # cancel to masses <= 0
        field = generate_product_2d(CascadeSpec.binomial(0.95, 10, dims=2))
        scales = ScaleSet((2, 3, 4))
        sums = [window_sum(field, side) for side in scales]
        assert all(np.all(s > 0.0) for s in sums)
        brutes = _brute_window_measures(field[:64, :64, None], scales.sides, 0.0)
        for s, brute in zip(sums, brutes):
            np.testing.assert_allclose(interior_view(s[:64, :64], scales),
                                       interior_view(brute[:, :, 0], scales),
                                       rtol=1e-13, atol=0)


class TestAdjoint:
    @pytest.mark.parametrize("side", [1, 2, 3, 4, 5])
    def test_inner_product_identity(self, side):
        rng = np.random.default_rng(side + 100)
        x = rng.normal(size=(7, 6))
        y = rng.normal(size=(7, 6))
        lhs = float((window_sum(x, side) * y).sum())
        rhs = float((x * window_sum_adjoint(y, side)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_odd_sides_are_self_adjoint(self):
        rng = np.random.default_rng(21)
        y = rng.normal(size=(6, 6))
        assert np.array_equal(window_sum_adjoint(y, 3), window_sum(y, 3))


class TestFieldValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            as_field(np.array([[np.nan, 1.0]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            as_field(np.ones(4))
        with pytest.raises(ValueError):
            as_field(np.ones((2, 2, 2, 2)))

    def test_measure_rejects_negative_values(self):
        with pytest.raises(ValueError, match="measure must be nonnegative"):
            require_measure(np.array([[1.0, -0.5]]))

    def test_sat_dataclass_is_reusable(self):
        field = np.ones((4, 4))
        assert isinstance(integral_image(field), np.ndarray)
        first = window_sum(field, 2)
        second = window_sum(field, 2)
        assert np.array_equal(first, second)


class TestAdjointKernel:
    def test_checks_its_input_once(self, monkeypatch):
        import mfcal.grid as grid

        calls = []
        checked = grid.as_field

        def counting(values):
            calls.append(1)
            return checked(values)

        monkeypatch.setattr(grid, "as_field", counting)
        window_sum_adjoint(np.ones((5, 4, 2)), 3)
        assert len(calls) == 1
        with pytest.raises(ValueError, match="finite"):
            window_sum_adjoint(np.array([[np.nan, 1.0], [0.0, 2.0]]), 2)

    @pytest.mark.parametrize("side", EXACT_SIDES)
    def test_is_the_mirrored_window_sum_exactly(self, side):
        rng = np.random.default_rng(side + 200)
        y = rng.integers(-9, 10, size=(9, 8, 2)).astype(np.float64)
        mirrored = _brute_window_measures(y[::-1, ::-1], [side], 0.0)[0][::-1, ::-1]
        assert np.array_equal(window_sum_adjoint(y, side), mirrored)
