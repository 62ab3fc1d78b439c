"""Summed-area tables and clipped window sums against brute-force loops."""

import numpy as np
import pytest

from mfcal.grid import (
    as_field,
    integral_image,
    require_measure,
    window_anchor,
    window_sum,
    window_sum_adjoint,
)
from mfcal.selftest import _brute_window_measures


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
        assert np.array_equal(window_sum(integral_image(exact), 1), exact)
        # float data goes through table differences, so only ulp-level drift
        field = rng.normal(size=(6, 5, 2))
        np.testing.assert_allclose(window_sum(integral_image(field), 1), field,
                                   rtol=0, atol=1e-12)

    def test_uniform_interior_value(self):
        field = np.full((10, 10), 0.5)
        for side in (2, 3, 4):
            out = window_sum(integral_image(field), side)
            assert out[5, 5] == pytest.approx(0.5 * side * side, abs=1e-12)

    def test_two_by_two_full_cover_anchor(self):
        out = window_sum(integral_image(np.array([[1.0, 2.0], [3.0, 4.0]])), 2)
        # even side covers [h-1, h+1), so the (1, 1) anchor sees all four cells
        assert out[1, 1] == 10.0

    @pytest.mark.parametrize("side", [1, 2, 3, 4, 5, 6])
    def test_matches_brute_force_exactly_on_integer_fields(self, side):
        rng = np.random.default_rng(side)
        field = rng.integers(0, 10, size=(9, 8, 2)).astype(np.float64)
        sat = integral_image(field)
        brute = _brute_window_measures(field, [side], 0.0)[0]
        assert np.array_equal(window_sum(sat, side), brute)

    def test_degenerates_to_full_sum_for_huge_windows(self):
        rng = np.random.default_rng(8)
        field = rng.integers(0, 9, size=(5, 7)).astype(np.float64)
        out = window_sum(integral_image(field), 2 * max(field.shape))
        assert np.array_equal(out, np.full_like(field, field.sum()))

    def test_linearity(self):
        rng = np.random.default_rng(11)
        f = rng.normal(size=(8, 8))
        g = rng.normal(size=(8, 8))
        lhs = window_sum(integral_image(2.5 * f + 4.0 * g), 3)
        rhs = 2.5 * window_sum(integral_image(f), 3) + 4.0 * window_sum(integral_image(g), 3)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_monotone_in_side_for_nonnegative_fields(self):
        rng = np.random.default_rng(12)
        field = rng.uniform(0.0, 1.0, (12, 12))
        sat = integral_image(field)
        smaller = window_sum(sat, 2)
        for side in (3, 4, 5):
            larger = window_sum(sat, side)
            assert np.all(larger >= smaller - 1e-12)
            smaller = larger

    def test_rejects_bad_arguments(self):
        sat = integral_image(np.ones((3, 3)))
        with pytest.raises(ValueError):
            window_sum(sat, 0)


class TestAnchor:
    def test_odd_sides_center(self):
        assert window_anchor(3) == 1
        assert window_anchor(5) == 2

    def test_even_sides_lead_by_half(self):
        assert window_anchor(2) == 1
        assert window_anchor(4) == 2


class TestAdjoint:
    @pytest.mark.parametrize("side", [1, 2, 3, 4, 5])
    def test_inner_product_identity(self, side):
        rng = np.random.default_rng(side + 100)
        x = rng.normal(size=(7, 6))
        y = rng.normal(size=(7, 6))
        lhs = float((window_sum(integral_image(x), side) * y).sum())
        rhs = float((x * window_sum_adjoint(y, side)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_odd_sides_are_self_adjoint(self):
        rng = np.random.default_rng(21)
        y = rng.normal(size=(6, 6))
        assert np.array_equal(window_sum_adjoint(y, 3), window_sum(integral_image(y), 3))


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
        sat = integral_image(np.ones((4, 4)))
        assert isinstance(sat, np.ndarray)
        first = window_sum(sat, 2)
        second = window_sum(sat, 2)
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

    @pytest.mark.parametrize("side", [1, 2, 3, 4, 5, 6])
    def test_is_the_mirrored_window_sum_exactly(self, side):
        rng = np.random.default_rng(side + 200)
        y = rng.integers(-9, 10, size=(9, 8, 2)).astype(np.float64)
        mirrored = _brute_window_measures(y[::-1, ::-1], [side], 0.0)[0][::-1, ::-1]
        assert np.array_equal(window_sum_adjoint(y, side), mirrored)
