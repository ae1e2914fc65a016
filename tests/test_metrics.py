import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblab import SI_SNR_CLIP_DB, Waveform, clip_si_snr, si_snr
from fblab.metrics import BLOCK_SAMPLES


def wave(values, fs=8000):
    return Waveform(np.asarray(values, dtype=np.float64), fs)


def block_ordered_dot(a, b):
    """<a, b> summed one `BLOCK_SAMPLES` block at a time, in order: how `si_snr` takes its projection gain."""
    total = 0.0
    for lo in range(0, len(a), BLOCK_SAMPLES):
        total += float(np.dot(a[lo:lo + BLOCK_SAMPLES], b[lo:lo + BLOCK_SAMPLES]))
    return total


def whole_signal_energies(est, ref):
    """(target, noise) energies formed on whole-signal arrays: the model of the blocked sums.

    The gain is the library's, bit for bit: a residual that cancels to
    1e-9 of the signal turns a one-ulp change of the gain into a relative
    change of its energy far above the tolerance below.
    """
    beta = block_ordered_dot(est, ref) / block_ordered_dot(ref, ref)
    target = beta * ref
    residual = est - target
    return float(np.dot(target, target)), float(np.dot(residual, residual))


#: Lengths at, and one either side of, multiples of the energy block, and 1.
BLOCK_EDGE_LENGTHS = sorted({1, *(k * BLOCK_SAMPLES + d for k in (1, 2, 3) for d in (-1, 0, 1))})


class TestSiSnr:
    def test_perfect_reconstruction_is_positive_infinity(self):
        rng = np.random.default_rng(0)
        s = wave(rng.standard_normal(100))
        value = si_snr(s, s)
        assert value == math.inf

    def test_hand_case_zero_db(self):
        value = si_snr(wave([1.0, 1.0]), wave([1.0, 0.0]))
        assert value == 0.0

    def test_scale_invariance_exact(self):
        # projection gain 14/8 is dyadic here, so every intermediate scales
        # exactly and the dB value must be bit-identical
        base = si_snr(wave([1.0, 2.0, -3.0, 5.0]), wave([0.0, 2.0, 0.0, 2.0]))
        for alpha in (0.5, 3.0, 1e6):
            scaled = si_snr(wave(np.array([1.0, 2.0, -3.0, 5.0]) * alpha), wave([0.0, 2.0, 0.0, 2.0]))
            assert scaled == base

    def test_scale_invariance_exact_on_hand_case(self):
        base = si_snr(wave([1.0, 1.0]), wave([1.0, 0.0]))
        assert base == 0.0
        for alpha in (0.5, 3.0, 1e6):
            assert si_snr(wave([alpha, alpha]), wave([1.0, 0.0])) == base

    @given(st.integers(0, 2**32 - 1), st.integers(-40, 40))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance_power_of_two_property(self, seed, exponent):
        # scaling by powers of two is exact in binary floating point, so
        # the dB value must not move by even one bit
        rng = np.random.default_rng(seed)
        est = rng.standard_normal(32)
        ref = wave(rng.standard_normal(32))
        alpha = 2.0 ** exponent
        assert si_snr(wave(est * alpha), ref) == si_snr(wave(est), ref)

    def test_orthogonal_noise_closed_form(self):
        rng = np.random.default_rng(1)
        s = rng.standard_normal(256)
        e = rng.standard_normal(256)
        e -= (np.dot(e, s) / np.dot(s, s)) * s
        value = si_snr(wave(s + e), wave(s))
        expected = 10.0 * math.log10(np.dot(s, s) / np.dot(e, e))
        assert value == pytest.approx(expected, abs=1e-9)

    def test_zero_reference_raises(self):
        with pytest.raises(ValueError, match="zero-energy reference"):
            si_snr(wave([1.0, 2.0]), wave([0.0, 0.0]))

    @pytest.mark.parametrize("scaled", ["estimate", "reference"])
    def test_overflowing_energy_raises(self, scaled):
        # 1e200 * x has a sum of squares beyond a float: an inf estimate energy overflows
        # the projection's dot, and an inf reference energy zeroes the projection gain
        x = np.array([1.0, -2.0, 3.0, 0.5])
        est, ref = (1e200 * x, x) if scaled == "estimate" else (x, 1e200 * x)
        energies = {"estimate": "inf, reference 14.25", "reference": "14.25, reference inf"}
        message = f"energy overflows a float: estimate {energies[scaled]}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            si_snr(Waveform(est, 8000), Waveform(ref, 8000))

    def test_zero_estimate_is_negative_infinity(self):
        assert si_snr(wave([0.0, 0.0]), wave([1.0, 2.0])) == -math.inf

    def test_orthogonal_estimate_is_negative_infinity(self):
        assert si_snr(wave([0.0, 1.0]), wave([1.0, 0.0])) == -math.inf

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            si_snr(wave([1.0]), wave([1.0, 2.0]))

    def test_rate_mismatch(self):
        with pytest.raises(ValueError, match="sample rate mismatch"):
            si_snr(wave([1.0]), Waveform(np.ones(1), 16000))

    @given(st.sampled_from(BLOCK_EDGE_LENGTHS), st.integers(0, 2**32 - 1),
           st.floats(-4.0, 4.0), st.sampled_from([0.0, 1e-9, 1e-3, 1.0, 1e3]))
    @settings(max_examples=60, deadline=None)
    def test_blocked_energies_match_the_whole_signal_formula(self, n, seed, gain, noise):
        rng = np.random.default_rng(seed)
        ref = rng.standard_normal(n)
        est = gain * ref + noise * rng.standard_normal(n)
        value = si_snr(wave(est), wave(ref))
        target, residual = whole_signal_energies(est, ref)
        if target == 0.0 or residual == 0.0:  # the blocked sums must be exactly 0 too
            assert value == (-math.inf if target == 0.0 else math.inf)
        else:  # 1e-12 relative on each energy is 20e-12 / ln(10) < 1e-11 dB on their ratio
            assert abs(value - 10.0 * math.log10(target / residual)) <= 1e-11

    @pytest.mark.parametrize("n", BLOCK_EDGE_LENGTHS)
    def test_infinite_values_at_block_edges(self, n):
        s = wave(np.random.default_rng(n).standard_normal(n))
        assert si_snr(s, s) == math.inf
        assert si_snr(wave(np.zeros(n)), s) == -math.inf


class TestClip:
    def test_clip_above(self):
        assert clip_si_snr(math.inf) == SI_SNR_CLIP_DB
        assert clip_si_snr(100.0) == 60.0

    def test_below_untouched(self):
        assert clip_si_snr(12.5) == 12.5
        assert clip_si_snr(-math.inf) == -math.inf
