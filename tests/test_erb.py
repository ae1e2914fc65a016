import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblab import ErbParams, bandwidth_b, center_frequency_grid, erb, erb_scale, erb_scale_inv
from fblab.erb import FC_MAX_HZ, FC_MIN_HZ, center_count

DEFAULTS = ErbParams()

valid_params = st.builds(
    ErbParams,
    st.floats(1.0, 100.0, allow_nan=False),
    st.floats(1.0, 20.0, allow_nan=False),
)


class TestErbParams:
    @pytest.mark.parametrize("c1,c2", [(0.0, 9.265), (-1.0, 9.265), (24.7, 0.0), (24.7, -2.0), (math.nan, 9.265), (1e-200, 1e-200)])
    def test_invalid(self, c1, c2):
        with pytest.raises(ValueError, match="invalid ERB parameters"):
            ErbParams(c1, c2)


class TestErb:
    def test_at_100_hz(self):
        # 24.7 + 100/9.265, evaluated at 40-digit precision
        assert erb(100.0, DEFAULTS) == pytest.approx(35.49330814894765, abs=1e-9)

    def test_intercept(self):
        assert erb(0.0, DEFAULTS) == DEFAULTS.c1

    def test_unit_slope_point(self):
        assert erb(DEFAULTS.c2, DEFAULTS) == pytest.approx(DEFAULTS.c1 + 1.0, rel=1e-15)

    def test_negative_frequency(self):
        with pytest.raises(ValueError):
            erb(-1.0, DEFAULTS)


class TestBandwidth:
    def test_order_two_closed_form(self):
        assert bandwidth_b(math.pi, 2) == pytest.approx(2.0, rel=1e-12)

    def test_at_default_erb(self):
        assert bandwidth_b(35.49330814894765, 2) == pytest.approx(22.595741754355473, rel=1e-12)

    def test_order_one_is_erb_over_pi(self):
        assert bandwidth_b(7.0, 1) == pytest.approx(7.0 / math.pi, rel=1e-12)

    def test_factorial_guard(self):
        with pytest.raises(ValueError, match="factorial"):
            bandwidth_b(10.0, 13)

    def test_invalid_erb(self):
        with pytest.raises(ValueError):
            bandwidth_b(0.0, 2)

    def test_order_two_matches_2_erb_over_pi_randomly(self):
        rng = np.random.default_rng(0)
        for erb_value in rng.uniform(1.0, 1000.0, size=100):
            assert bandwidth_b(erb_value, 2) == pytest.approx(2.0 * erb_value / math.pi, rel=1e-12)


class TestErbScale:
    def test_zero_maps_to_zero(self):
        assert erb_scale(0.0, DEFAULTS) == 0.0

    def test_log_e_point(self):
        f = DEFAULTS.c1 * DEFAULTS.c2 * (math.e - 1.0)
        assert erb_scale(f, DEFAULTS) == pytest.approx(DEFAULTS.c2, rel=1e-12)

    def test_at_100_hz(self):
        # 9.265 * ln(1 + 100 / (24.7 * 9.265)), evaluated at 40-digit precision
        assert erb_scale(100.0, DEFAULTS) == pytest.approx(3.3589417371294707, rel=1e-12)

    def test_strictly_increasing(self):
        grid = np.linspace(0.0, 8000.0, 200)
        values = [erb_scale(f, DEFAULTS) for f in grid]
        assert np.all(np.diff(values) > 0)

    def test_inverse_at_zero(self):
        assert erb_scale_inv(0.0, DEFAULTS) == 0.0

    def test_inverse_at_c2(self):
        expected = 24.7 * 9.265 * (math.e - 1.0)  # 393.2210641746244
        assert erb_scale_inv(DEFAULTS.c2, DEFAULTS) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("u", [7000.0, 709.0 * DEFAULTS.c2])  # expm1 overflows; the product does
    def test_inverse_overflow_is_typed_error(self, u):
        with pytest.raises(ValueError, match=rf"u={u!r} .*c2=9\.265"):
            erb_scale_inv(u, DEFAULTS)

    @pytest.mark.parametrize("f", [100.0, 500.0, 4000.0])
    def test_inverse_identity_spot(self, f):
        assert erb_scale_inv(erb_scale(f, DEFAULTS), DEFAULTS) == pytest.approx(f, rel=1e-9)

    @given(valid_params, st.floats(0.0, 8000.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_inverse_identity_property(self, params, f):
        back = erb_scale_inv(erb_scale(f, params), params)
        assert back == pytest.approx(f, rel=1e-9, abs=1e-9)


class TestCenterCount:
    def test_default_count(self):
        assert center_count(DEFAULTS) == 24.0

    @given(c1=st.floats(1e-3, 1e3), c2=st.floats(1e-2, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_grid(self, c1, c2):
        p = ErbParams(c1, c2)
        count = center_count(p)
        assert count <= 20000  # the range keeps the grid small
        grid_count = len(center_frequency_grid(p))
        span = count - 1.0  # floor of the span
        exact = c2 * math.log1p((FC_MAX_HZ - FC_MIN_HZ) / (c1 * c2 + FC_MIN_HZ))
        if exact - span > 1e-9 and span + 1.0 - exact > 1e-9:  # not within rounding of an integer
            assert grid_count == count
        assert abs(grid_count - count) <= 1

    @pytest.mark.parametrize("c1,c2,expected", [(1e-3, 1e6, 1514128.0), (1e-320, 1e308, math.inf), (1e200, 1e200, 1.0)])
    def test_extreme_spans_need_no_grid(self, c1, c2, expected):
        assert center_count(ErbParams(c1, c2)) == expected


class TestCenterFrequencyGrid:
    def test_starts_exactly_at_f_start(self):
        grid = center_frequency_grid(DEFAULTS, 100.0, 4000.0)
        assert grid[0] == 100.0

    def test_default_count_and_range(self):
        grid = center_frequency_grid(DEFAULTS, 100.0, 4000.0)
        assert len(grid) == 24
        assert np.all(grid <= 4000.0)
        assert np.all(np.diff(grid) > 0)

    def test_second_center(self):
        grid = center_frequency_grid(DEFAULTS, 100.0, 4000.0)
        assert grid[1] == pytest.approx(137.47957310698982, rel=1e-12)

    def test_unit_erb_steps(self):
        grid = center_frequency_grid(DEFAULTS, 100.0, 4000.0)
        scale = np.array([erb_scale(f, DEFAULTS) for f in grid])
        np.testing.assert_allclose(np.diff(scale), 1.0, atol=1e-9)

    def test_matches_closed_form_recursion(self):
        # One ERB-rate step has the closed form f' = (f + c1*c2) * e^(1/c2) - c1*c2.
        grid = center_frequency_grid(DEFAULTS, 100.0, 4000.0)
        cc = DEFAULTS.c1 * DEFAULTS.c2
        f = 100.0
        expected = [f]
        while True:
            f = (f + cc) * math.exp(1.0 / DEFAULTS.c2) - cc
            if f > 4000.0:
                break
            expected.append(f)
        np.testing.assert_allclose(grid, expected, rtol=1e-9)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            center_frequency_grid(DEFAULTS, 4000.0, 100.0)

    def test_overflowing_step_ends_the_grid(self):
        # At c2 = 1e-3 one ERB-rate step from 100 Hz overflows exp(); the
        # next center lies past any f_max.
        assert center_frequency_grid(ErbParams(24.7, 1e-3)).tolist() == [100.0]

    @given(valid_params)
    @settings(max_examples=50, deadline=None)
    def test_grid_properties_random_params(self, params):
        grid = center_frequency_grid(params, 100.0, 4000.0)
        assert grid[0] == 100.0
        assert np.all(grid <= 4000.0)
        scale = np.array([erb_scale(f, params) for f in grid])
        np.testing.assert_allclose(np.diff(scale), 1.0, atol=1e-9)
