import contextlib
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fblab.gammatone as gammatone_module
from fblab import (
    ErbParams,
    Filterbank,
    FilterbankKind,
    bandwidth_b,
    build_mpgtf,
    build_parampgtf,
    center_frequency_grid,
    erb,
)
from gammatone_model import GammatoneSpec, gammatone_ir

DEFAULTS = ErbParams()


def spec(order=2, phi=0.0, fc=1000.0, b=200.0, length=16, fs=8000):
    return GammatoneSpec(order, phi, fc, b, length, fs)


def per_row_reference(p, n_filters=512, frame_len=16, sample_rate=8000, order=2):
    """The multi-phase bank's taps, built one `gammatone_ir` call per row over the centre grid."""
    if n_filters < 2 or n_filters % 2 != 0:
        raise ValueError(f"n_filters must be a positive even number, got {n_filters}")
    centers = center_frequency_grid(p, sample_rate)
    m = len(centers)
    n_half = n_filters // 2
    per_center = n_half // m
    if per_center == 0:
        raise ValueError(
            f"not enough filters for one phase per center: n_filters={n_filters} < 2*M={2 * m}"
        )
    counts = [per_center + (j < n_half - per_center * m) for j in range(m)]
    rows = []
    for fc, count in zip(centers, counts):
        b = bandwidth_b(erb(float(fc), p), order)
        for k in range(count):
            phi = math.pi * k / count
            rows.append(gammatone_ir(GammatoneSpec(order, phi, float(fc), b, frame_len, sample_rate)))
    rows = np.vstack(rows)
    return np.vstack([rows, -rows])


@contextlib.contextmanager
def no_grid():
    """Stand in for the builder's centre grid, failing at once if it is asked for; yield the stand-in.

    An unbounded grid (billions of centres) then fails the test instead of
    filling the memory.
    """
    with mock.patch.object(gammatone_module, "center_frequency_grid",
                           side_effect=AssertionError("the centre grid was built")) as grid:
        yield grid


def value_error(fn, *args, **kwargs):
    with pytest.raises(ValueError) as info:
        fn(*args, **kwargs)
    return str(info.value)


class TestGammatoneIr:
    def test_first_tap_smallest_at_low_center(self):
        # order 2: the envelope grows like t near zero and, at a realistic
        # low-center bandwidth, keeps rising through the whole 2 ms window
        b = bandwidth_b(erb(100.0, DEFAULTS), 2)
        ir = gammatone_ir(spec(phi=0.0, fc=100.0, b=b))
        assert np.argmin(np.abs(ir)) == 0

    def test_phase_shift_by_pi_flips_sign(self):
        # cos antisymmetry, up to libm rounding of the two phase evaluations
        a = gammatone_ir(spec(phi=0.3))
        b = gammatone_ir(spec(phi=0.3 + math.pi))
        np.testing.assert_allclose(a, -b, rtol=1e-12, atol=1e-14)

    def test_peak_normalized(self):
        ir = gammatone_ir(spec())
        assert np.max(np.abs(ir)) == 1.0

    def test_envelope_peak_location(self):
        # envelope t*exp(-2*pi*b*t) peaks at t = 1/(2*pi*b); use a long
        # filter and a wide bandwidth so the peak falls inside the window
        b = 400.0
        t = (np.arange(256) + 1.0) / 8000.0
        envelope = t * np.exp(-2.0 * math.pi * b * t)
        t_peak = 1.0 / (2.0 * math.pi * b)
        assert t[np.argmax(envelope)] == pytest.approx(t_peak, abs=1.0 / 8000.0)
        # the sampled ir is bounded pointwise by its envelope (pre-normalization)
        s = GammatoneSpec(2, 0.0, 1000.0, b, 256, 8000)
        ir = gammatone_ir(s) * np.max(np.abs(envelope * np.cos(2.0 * math.pi * 1000.0 * t)))
        assert np.all(np.abs(ir) <= envelope * (1 + 1e-12))

    def test_time_grid_starts_one_sample_in(self):
        # tap k equals the closed form at t = (k+1)/fs, up to normalization
        s = spec(order=1, fc=567.0, b=123.0, length=8)
        t = (np.arange(8) + 1.0) / 8000.0
        raw = np.exp(-2.0 * math.pi * 123.0 * t) * np.cos(2.0 * math.pi * 567.0 * t)
        np.testing.assert_allclose(gammatone_ir(s), raw / np.max(np.abs(raw)), rtol=1e-15)

    @pytest.mark.parametrize("kwargs", [
        dict(order=0), dict(b=0.0), dict(fc=0.0), dict(fc=4000.0), dict(length=0),
    ])
    def test_invalid_spec(self, kwargs):
        base = dict(order=2, phi=0.0, fc=1000.0, b=200.0, length=16, fs=8000)
        base.update(kwargs)
        with pytest.raises(ValueError):
            GammatoneSpec(base["order"], base["phi"], base["fc"], base["b"], base["length"], base["fs"])

    @pytest.mark.parametrize("fs", [0, -8000, 8000.0])
    def test_rate_is_checked_before_the_centre(self, fs):
        # fs/2 bounds the centre, so a bad rate is named before the centre is judged
        with pytest.raises(ValueError, match=f"sample_rate must be a positive integer, got {fs!r}"):
            gammatone_ir(GammatoneSpec(2, 0.0, 100.0, 50.0, 16, fs))


class TestBuildMpgtf:
    def test_paper_scale_shape(self):
        bank = build_mpgtf(DEFAULTS, 512, 16, 8000)
        assert bank.taps.shape == (512, 16)
        assert bank.kind is FilterbankKind.MPGTF
        assert len(center_frequency_grid(bank.erb_params, bank.sample_rate)) == 24

    def test_default_frame_len_is_16_taps_at_any_rate(self):
        assert build_mpgtf(DEFAULTS, 64, sample_rate=8000).filter_len == 16
        assert build_mpgtf(DEFAULTS, 64, sample_rate=16000).filter_len == 16

    def test_every_row_has_its_negation(self):
        bank = build_mpgtf(DEFAULTS, 512, 16, 8000)
        half = 256
        np.testing.assert_array_equal(bank.taps[half:], -bank.taps[:half])

    def test_pair_column_sums_are_zero(self):
        bank = build_mpgtf(DEFAULTS, 128, 16, 8000)
        np.testing.assert_array_equal(bank.taps[:64] + bank.taps[64:], np.zeros((64, 16)))

    def test_rows_peak_normalized(self):
        bank = build_mpgtf(DEFAULTS, 512, 16, 8000)
        np.testing.assert_array_equal(np.max(np.abs(bank.taps), axis=1), np.ones(512))

    def test_surplus_phases_go_to_low_centers(self):
        # 256 positive-phase rows over 24 centers: 16 centers get 11, 8 get 10.
        bank = build_mpgtf(DEFAULTS, 512, 16, 8000)
        centers = center_frequency_grid(DEFAULTS)
        b0 = bandwidth_b(erb(float(centers[0]), DEFAULTS), 2)
        first_center_rows = [
            gammatone_ir(GammatoneSpec(2, math.pi * k / 11, float(centers[0]), b0, 16, 8000))
            for k in range(11)
        ]
        np.testing.assert_array_equal(bank.taps[:11], np.vstack(first_center_rows))

    def test_odd_filter_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            build_mpgtf(DEFAULTS, 511, 16, 8000)

    def test_too_few_filters_rejected(self):
        with pytest.raises(ValueError, match="not enough filters"):
            build_mpgtf(DEFAULTS, 24, 16, 8000)  # 24 < 2*M = 48

    @pytest.mark.parametrize("c1,c2,message", [
        (1e-3, 1e6, "n_filters=512 < 2*M=3028256"),  # the grid would hold 1 514 128 centres
        (1e-9, 1e9, "n_filters=512 < 2*M=7358358186"),  # ~3.7e9 centres: more than memory holds
        (1e-320, 1e308, "n_filters=512 < 2*M=inf"),  # a span beyond a float
    ])
    def test_oversized_grid_is_refused_before_it_is_built(self, c1, c2, message):
        with no_grid() as grid:
            with pytest.raises(ValueError, match=re.escape(f"not enough filters for one phase per center: {message}")):
                build_mpgtf(ErbParams(c1, c2), 512, 16, 8000)
        assert grid.call_count == 0

    @pytest.mark.parametrize("n_filters", [46, 44, 42])  # M = 24 = n_half + 1, + 2, + 3
    def test_bank_short_of_the_grid_is_refused_before_it_is_built(self, n_filters):
        with no_grid() as grid:
            message = value_error(build_mpgtf, DEFAULTS, n_filters, 16, 8000)
        assert grid.call_count == 0
        assert message == value_error(per_row_reference, DEFAULTS, n_filters, 16, 8000)
        assert message.endswith(f"n_filters={n_filters} < 2*M=48")

    def test_smallest_decay_is_positive(self):
        # the builder checks no decay: the lowest ERB any ErbParams gives at 100 Hz, at the top order, stays > 0
        p = ErbParams(5e-324, 1.7976931348623157e308)
        assert bandwidth_b(erb(100.0, p), 12) > 4e-318

    def test_minimum_one_phase_per_center(self):
        bank = build_mpgtf(DEFAULTS, 48, 16, 8000)
        assert bank.taps.shape == (48, 16)

    @pytest.mark.parametrize("kind", [FilterbankKind.STFT, FilterbankKind.CUSTOM])
    def test_non_gammatone_kind_rejected(self, kind):
        with pytest.raises(ValueError, match="multi-phase gammatone kind"):
            build_mpgtf(DEFAULTS, 64, 16, 8000, kind=kind)


class TestBroadcastMatchesPerRowLoop:
    def test_default_bank_bitwise(self):
        assert build_mpgtf(DEFAULTS).taps.tobytes() == per_row_reference(DEFAULTS).tobytes()

    @given(
        c1=st.floats(10.0, 60.0),
        c2=st.floats(3.0, 20.0),
        order=st.integers(1, 6),
        n_half=st.integers(1, 256),
        frame_len=st.integers(1, 48),
        fs=st.sampled_from([7000, 8000, 12000, 16000]),
    )
    @settings(max_examples=80, deadline=None)
    def test_bitwise_equal_or_same_error(self, c1, c2, order, n_half, frame_len, fs):
        p = ErbParams(c1, c2)
        args = (p, 2 * n_half, frame_len, fs)
        try:
            taps = per_row_reference(*args, order=order)
        except ValueError as err:
            assert value_error(build_mpgtf, *args, order=order) == str(err)
            return
        assert build_mpgtf(*args, order=order).taps.tobytes() == taps.tobytes()

    @pytest.mark.parametrize("kwargs", [
        dict(sample_rate=200),  # no centre band: fs/2 = 100 Hz
        dict(frame_len=0),
        dict(order=0),
        dict(order=13),
        dict(p=ErbParams(DEFAULTS.c1, 1e-300)),  # one centre, every tap underflows
        dict(n_filters=24),
        dict(n_filters=511),
        dict(n_filters=511, sample_rate=0),  # the reference names n_filters before it reads the rate
    ], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
    def test_same_error_as_per_row_loop(self, kwargs):
        args = dict(p=DEFAULTS) | kwargs
        assert value_error(build_mpgtf, **args) == value_error(per_row_reference, **args)


class TestBuildParampgtf:
    def test_defaults_bit_identical_to_mpgtf(self):
        a = build_mpgtf(DEFAULTS, 512, 16, 8000)
        b = build_parampgtf(DEFAULTS, 512, 16, 8000)
        assert a.taps.tobytes() == b.taps.tobytes()
        assert b.kind is FilterbankKind.PARAMPGTF

    @given(st.floats(20.0, 30.0), st.floats(8.5, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_same_taps_as_mpgtf_at_any_feasible_point(self, c1, c2):
        p = ErbParams(c1, c2)
        a = build_mpgtf(p)
        b = build_parampgtf(p)
        assert b.taps.tobytes() == a.taps.tobytes()
        assert (a.kind, b.kind) == (FilterbankKind.MPGTF, FilterbankKind.PARAMPGTF)

    def test_paper_converged_point_builds(self):
        # converged operating point reported for the trained variant
        bank = build_parampgtf(ErbParams(25.09, 9.198), 512, 16, 8000)
        assert bank.taps.shape == (512, 16)
        assert center_frequency_grid(bank.erb_params, bank.sample_rate)[0] == 100.0

    def test_c2_perturbation_moves_every_center_but_the_anchor(self):
        base = center_frequency_grid(DEFAULTS)
        moved = center_frequency_grid(ErbParams(24.7, 9.3))
        n = min(len(base), len(moved))
        assert moved[0] == base[0] == 100.0
        assert np.all(moved[1:n] != base[1:n])

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError, match="invalid ERB parameters"):
            build_parampgtf(ErbParams(-1.0, 9.265), 512, 16, 8000)


#: c1 or c2 drawn log-uniform from the smallest subnormals to near the float maximum.
ERB_CONSTANT = st.floats(math.log10(1e-320), math.log10(1.7e308)).map(lambda e: 10.0 ** e)


class TestBuilderFuzz:
    @given(
        builder=st.sampled_from([build_mpgtf, build_parampgtf]),
        c1=ERB_CONSTANT,
        c2=ERB_CONSTANT,
        n_filters=st.integers(0, 512),
        frame_len=st.integers(0, 48),  # explicit, so no draw sizes an array from the rate
        sample_rate=st.sampled_from([1, 200, 7000, 8000, 16000]),
        order=st.integers(0, 13),
    )
    # c1 * c2 = inf: one centre whose decay overflows -2*pi*b (`fblab build-bank` reaches it)
    @example(builder=build_mpgtf, c1=1.7e308, c2=1e6, n_filters=512, frame_len=16, sample_rate=8000, order=2)
    @settings(max_examples=100, deadline=None)
    def test_builds_or_raises_value_error(self, builder, c1, c2, n_filters, frame_len, sample_rate, order):
        # pyproject.toml turns every warning into an error, so a numpy warning on the way fails here
        try:
            p = ErbParams(c1, c2)
        except ValueError:
            return
        try:
            bank = builder(p, n_filters, frame_len, sample_rate, order=order)
        except ValueError:
            return
        assert isinstance(bank, Filterbank)
        assert bank.taps.shape == (n_filters, frame_len)
