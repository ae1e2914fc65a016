import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblab import ErbParams, bandwidth_b, center_frequency_grid, erb, erb_scale, erb_scale_inv
from fblab.erb import FC_MIN_HZ, center_count

#: The top of the centre band at the default rate, fs/2 = 8000 / 2.
TOP_HZ = 4000.0

DEFAULTS = ErbParams()

#: The rates the tests build gammatone banks at: the default 8 kHz, and 11.025 and 16 kHz.
MEASURED_RATES = st.sampled_from([8000, 11025, 16000])

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

    @pytest.mark.parametrize("scale,message", [
        (erb_scale, "frequency must be >= 0, got -1.0"),
        (erb_scale_inv, "ERB-rate value must be >= 0, got -1.0"),
    ])
    def test_negative_input_is_typed_error(self, scale, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            scale(-1.0, DEFAULTS)

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

    @given(c1=st.floats(1e-3, 1e3), c2=st.floats(1e-2, 1e3), fs=MEASURED_RATES)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_grid(self, c1, c2, fs):
        p = ErbParams(c1, c2)
        count = center_count(p, fs)
        assert count <= 20000  # the range keeps the grid small
        grid = center_frequency_grid(p, fs)
        assert len(grid) == count
        assert grid[-1] < fs / 2  # so the builder needs no band check per centre
        span = erb_scale(fs / 2, p) - erb_scale(FC_MIN_HZ, p)
        if abs(span - round(span)) > 1e-9:  # not within rounding of an integer
            assert count == math.floor(span) + 1

    @pytest.mark.parametrize("c1,c2,expected", [(1e-3, 1e6, 1514128.0), (1e-320, 1e308, math.inf), (1e200, 1e200, 1.0)])
    def test_extreme_spans_need_no_grid(self, c1, c2, expected):
        assert center_count(ErbParams(c1, c2)) == expected


class TestCenterFrequencyGrid:
    def test_starts_exactly_at_f_start(self):
        grid = center_frequency_grid(DEFAULTS)
        assert grid[0] == 100.0

    def test_default_count_and_range(self):
        grid = center_frequency_grid(DEFAULTS)
        assert len(grid) == 24
        assert np.all(grid < 4000.0)
        assert np.all(np.diff(grid) > 0)

    def test_second_center(self):
        grid = center_frequency_grid(DEFAULTS)
        assert grid[1] == pytest.approx(137.47957310698982, rel=1e-12)

    def test_unit_erb_steps(self):
        grid = center_frequency_grid(DEFAULTS)
        scale = np.array([erb_scale(f, DEFAULTS) for f in grid])
        np.testing.assert_allclose(np.diff(scale), 1.0, atol=1e-9)

    def test_matches_closed_form_recursion(self):
        # One ERB-rate step has the closed form f' = (f + c1*c2) * e^(1/c2) - c1*c2.
        grid = center_frequency_grid(DEFAULTS)
        cc = DEFAULTS.c1 * DEFAULTS.c2
        f = 100.0
        expected = [f]
        while True:
            f = (f + cc) * math.exp(1.0 / DEFAULTS.c2) - cc
            if f > 4000.0:
                break
            expected.append(f)
        np.testing.assert_allclose(grid, expected, rtol=1e-9)

    # At c2 = 1e-3 one ERB-rate unit multiplies f + c1*c2 by e^1000, past any
    # float; where c1*c2 overflows to inf, the span is 0 and centre 0 must not
    # read inf * 0. Either band holds only its first centre.
    @pytest.mark.parametrize("c1,c2", [(24.7, 1e-3), (1e200, 1e200)])
    def test_overflowing_step_ends_the_grid(self, c1, c2):
        assert center_frequency_grid(ErbParams(c1, c2)).tolist() == [100.0]

    @pytest.mark.parametrize("rate,count,top", [(8000, 24, 3707.660905622449), (11025, 27, 5212.861918661661),
                                                (16000, 30, 7293.606283140182)])
    def test_band_ends_at_half_the_rate(self, rate, count, top):
        grid = center_frequency_grid(DEFAULTS, rate)
        assert len(grid) == center_count(DEFAULTS, rate) == count
        assert grid[0] == 100.0
        assert grid[-1] == pytest.approx(top, rel=1e-12)
        next_step = 100.0 + (100.0 + DEFAULTS.c1 * DEFAULTS.c2) * math.expm1(count / DEFAULTS.c2)
        assert grid[-1] < rate / 2 < next_step

    @pytest.mark.parametrize("c2", [2.8341247219974894, 3.198807472164571, 5.178525459860994])
    def test_a_step_that_rounds_to_half_the_rate_is_left_out(self, c2):
        # At these c2 (c1 = 24.7) centre floor(span) rounds to 4000 Hz or just past it.
        p = ErbParams(24.7, c2)
        step = math.floor(c2 * math.log1p(3900.0 / (24.7 * c2 + 100.0)))
        grid = center_frequency_grid(p)
        top_step = 100.0 + (100.0 + 24.7 * c2) * np.expm1(step / c2)
        assert top_step >= TOP_HZ and top_step == pytest.approx(TOP_HZ, rel=1e-14)
        assert center_count(p) == len(grid) == step
        assert grid[-1] < TOP_HZ

    def test_default_rate_is_8_khz(self):
        assert center_frequency_grid(DEFAULTS).tobytes() == center_frequency_grid(DEFAULTS, 8000).tobytes()

    @pytest.mark.parametrize("rate", [1, 199, 200])
    def test_rate_without_a_band_is_typed_error(self, rate):
        message = f"no gammatone centre band at {rate} Hz: fs/2 = {rate / 2:g} Hz must exceed 100 Hz"
        for fn in (center_count, center_frequency_grid):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                fn(DEFAULTS, rate)

    @pytest.mark.parametrize("rate", [0, 8000.0, 10**400])
    def test_bad_rate_is_typed_error(self, rate):
        with pytest.raises(ValueError, match="^sample_rate must"):
            center_frequency_grid(DEFAULTS, rate)

    def test_span_beyond_a_float_is_typed_error(self):
        message = "span from 100.0 to 4000.0 Hz overflows a float at c1=1e-320, c2=1e+308"
        with pytest.raises(ValueError, match=re.escape(message)):
            center_frequency_grid(ErbParams(1e-320, 1e308))

    @given(valid_params, MEASURED_RATES)
    @settings(max_examples=50, deadline=None)
    def test_grid_properties_random_params(self, params, fs):
        grid = center_frequency_grid(params, fs)
        assert len(grid) == center_count(params, fs)
        assert grid[0] == 100.0
        assert np.all(grid < fs / 2)
        scale = np.array([erb_scale(f, params) for f in grid])
        np.testing.assert_allclose(np.diff(scale), 1.0, atol=1e-9)
        # the grid ends at the last centre in the band: one more step leaves it
        next_step = 100.0 + (100.0 + params.c1 * params.c2) * math.expm1(len(grid) / params.c2)
        span = erb_scale(fs / 2, params) - erb_scale(FC_MIN_HZ, params)
        if abs(span - round(span)) > 1e-9:  # not within rounding of an integer
            assert next_step > fs / 2
