import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblab import FrameParams, MixSpec, SilentSourceError, Waveform, make_multi_mixture_item, num_frames
from fblab.dsp import _mixing_gain, frame_signal, overlap_add


def wave(values, fs=8000):
    return Waveform(np.asarray(values, dtype=np.float64), fs)


def naive_overlap_add(frames, frame_len, hop):
    """Frame-by-frame overlap-add in increasing frame order, used as an oracle."""
    count = frames.shape[0]
    out = np.zeros((count - 1) * hop + frame_len)
    for i in range(count):
        out[i * hop:i * hop + frame_len] += frames[i]
    return out


def padded_frames(samples, frame_len, hop):
    """Framing on one zero-padded copy of the whole signal, sliced frame by frame.

    Kept as the model that `frame_signal`, which reads whole frames in place
    and pads only the tail, must match bit for bit.
    """
    count = num_frames(len(samples), FrameParams(frame_len, hop))
    padded = np.zeros((count - 1) * hop + frame_len)
    padded[:len(samples)] = samples
    return np.array([padded[i * hop:i * hop + frame_len] for i in range(count)])


@st.composite
def framings(draw):
    """(n, L, D) with L in 1..32, D in 1..L and n in 1..2000, drawing the edge
    cases on purpose: n < L, n = L, n = L + j*D, and a hop that does not divide L."""
    frame_len = draw(st.integers(1, 32))
    non_divisors = [d for d in range(1, frame_len) if frame_len % d]
    hops = st.integers(1, frame_len)
    hop = draw(st.one_of(hops, st.sampled_from(non_divisors)) if non_divisors else hops)
    n = draw(st.one_of(
        st.integers(1, frame_len),  # n < L, and n = L
        st.integers(0, (2000 - frame_len) // hop).map(lambda j: frame_len + j * hop),  # n = L + j*D
        st.integers(1, 2000),
    ))
    return n, frame_len, hop


class TestWaveform:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            wave([0.0, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            wave([np.inf])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 500, 999])
    def test_rejects_a_non_finite_sample_anywhere(self, bad, at):
        samples = np.random.default_rng(at).standard_normal(1000)
        samples[at] = bad
        with pytest.raises(ValueError, match="waveform contains non-finite samples"):
            Waveform(samples, 8000)
        with pytest.raises(ValueError, match="waveform contains non-finite samples"):
            Waveform._adopt(samples, 8000)

    def test_accepts_samples_whose_sum_of_squares_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = wave([1e300, -1e300])
        assert w.samples.tolist() == [1e300, -1e300]

    @given(n=st.integers(0, 3000), seed=st.integers(0, 2**31 - 1), scale=st.sampled_from([1e-160, 1.0, 1e155]))
    @settings(max_examples=100, deadline=None)
    def test_energy_is_the_dot_product_bitwise(self, n, seed, scale):
        s = scale * np.random.default_rng(seed).standard_normal(n)
        with np.errstate(over="ignore"):  # large scales may overflow; the stored sum must be inf too
            want = float(np.dot(s, s))
        for w in (Waveform(s, 8000), Waveform._adopt(s.copy(), 8000)):
            assert type(w.energy()) is float
            assert np.float64(w.energy()).tobytes() == np.float64(want).tobytes()

    def test_energy_that_overflows_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Waveform(np.array([1e200, 1.0]), 8000).energy() == np.inf

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="sample_rate"):
            Waveform(np.zeros(4), 0)

    def test_samples_are_immutable(self):
        w = wave([1.0, 2.0])
        with pytest.raises(ValueError):
            w.samples[0] = 5.0


class TestAdoptedWaveform:
    """`Waveform._adopt` takes over a fresh array without a copy, with the constructor's checks."""

    def test_takes_over_and_freezes_the_array(self):
        samples = np.array([1.0, 2.0, 3.0])
        w = Waveform._adopt(samples, 8000)
        assert w.samples is samples and w.sample_rate == 8000
        assert not samples.flags.writeable
        with pytest.raises(ValueError):
            w.samples[0] = 5.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="waveform contains non-finite samples"):
            Waveform._adopt(np.array([0.0, bad]), 8000)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match=r"waveform samples must be 1-D, got shape \(2, 2\)"):
            Waveform._adopt(np.zeros((2, 2)), 8000)

    @pytest.mark.parametrize("rate", [0, -8000, 8000.0])
    def test_rejects_bad_rate(self, rate):
        with pytest.raises(ValueError, match="sample_rate must be a positive integer"):
            Waveform._adopt(np.zeros(4), rate)


class TestFrameParams:
    @pytest.mark.parametrize("frame_len,hop", [(0, 1), (4, 0), (4, 5)])
    def test_invalid(self, frame_len, hop):
        with pytest.raises(ValueError):
            FrameParams(frame_len, hop)


class TestFraming:
    def test_non_overlapping_tiling(self):
        frames = frame_signal(wave([1, 2, 3, 4]), FrameParams(2, 2))
        np.testing.assert_array_equal(frames, [[1, 2], [3, 4]])

    def test_unit_hop(self):
        frames = frame_signal(wave([1, 2, 3]), FrameParams(2, 1))
        np.testing.assert_array_equal(frames, [[1, 2], [2, 3]])

    def test_zero_padded_tail(self):
        frames = frame_signal(wave([1, 2, 3]), FrameParams(2, 2))
        np.testing.assert_array_equal(frames, [[1, 2], [3, 0]])

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty input"):
            frame_signal(wave([]), FrameParams(2, 2))

    def test_short_signal_single_frame(self):
        frames = frame_signal(wave([7]), FrameParams(4, 2))
        np.testing.assert_array_equal(frames, [[7, 0, 0, 0]])

    @given(case=framings(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_whole_signal_padding(self, case, seed):
        n, frame_len, hop = case
        x = wave(np.random.default_rng(seed).standard_normal(n))
        frames = frame_signal(x, FrameParams(frame_len, hop))
        expected = padded_frames(x.samples, frame_len, hop)
        assert frames.shape == expected.shape
        assert frames.tobytes() == expected.tobytes()
        assert frames.flags.writeable and not np.shares_memory(frames, x.samples)

    @pytest.mark.parametrize(
        "n,frame_len,hop,expected",
        [(4, 2, 2, 2), (3, 2, 1, 2), (3, 2, 2, 2), (1, 4, 2, 1), (16, 16, 8, 1), (17, 16, 8, 2)],
    )
    def test_frame_count(self, n, frame_len, hop, expected):
        assert num_frames(n, FrameParams(frame_len, hop)) == expected


class TestOverlapAdd:
    def test_inverse_of_disjoint_framing(self):
        out = overlap_add(np.array([[1.0, 2.0], [3.0, 4.0]]), FrameParams(2, 2), 8000)
        np.testing.assert_array_equal(out.samples, [1, 2, 3, 4])

    def test_overlapped_sum(self):
        out = overlap_add(np.array([[1.0, 1.0], [1.0, 1.0]]), FrameParams(2, 1), 8000)
        np.testing.assert_array_equal(out.samples, [1, 2, 1])

    def test_single_frame_identity(self):
        out = overlap_add(np.array([[5.0, 6.0]]), FrameParams(2, 2), 8000)
        np.testing.assert_array_equal(out.samples, [5, 6])

    def test_length(self):
        out = overlap_add(np.zeros((7, 16)), FrameParams(16, 8), 8000)
        assert len(out) == 6 * 8 + 16

    def test_inconsistent_frame_length(self):
        with pytest.raises(ValueError, match="frame length mismatch"):
            overlap_add(np.zeros((2, 3)), FrameParams(2, 2), 8000)

    @pytest.mark.parametrize("shape", [(4,), (1, 2, 2)])
    def test_frames_must_be_2d(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"frames must be a 2-D array, got shape {shape}")):
            overlap_add(np.zeros(shape), FrameParams(2, 2), 8000)

    def test_roundtrip_exact_when_disjoint(self):
        rng = np.random.default_rng(1)
        x = wave(rng.standard_normal(64))
        p = FrameParams(8, 8)
        out = overlap_add(frame_signal(x, p), p, x.sample_rate)
        np.testing.assert_array_equal(out.samples, x.samples)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        p = FrameParams(8, 3)
        x, y = rng.standard_normal((2, 50))
        a, b = 0.7, -1.3
        fx = frame_signal(wave(x), p)
        fy = frame_signal(wave(y), p)
        lhs = overlap_add(a * fx + b * fy, p, 8000).samples
        rhs = a * overlap_add(fx, p, 8000).samples + b * overlap_add(fy, p, 8000).samples
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    @given(
        seed=st.integers(0, 2**31 - 1),
        frame_len=st.integers(1, 40),
        hop_frac=st.floats(0.0, 1.0),
        count=st.integers(1, 60),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_loop(self, seed, frame_len, hop_frac, count):
        hop = 1 + int(hop_frac * (frame_len - 1))
        frames = np.random.default_rng(seed).standard_normal((count, frame_len))
        out = overlap_add(frames, FrameParams(frame_len, hop), 8000)
        expected = naive_overlap_add(frames, frame_len, hop)
        np.testing.assert_array_equal(out.samples, expected)
        assert out.samples.tobytes() == expected.tobytes()


class TestMixAtSnr:
    """The mixing gain, and the checks on a two-source `make_multi_mixture_item`."""

    def test_equal_energy_zero_db(self):
        assert _mixing_gain(4.0, 4.0, MixSpec(0.0)) == 1.0

    def test_equal_energy_plus_five_db(self):
        g = _mixing_gain(1.0, 1.0, MixSpec(5.0))
        assert g == pytest.approx(10.0 ** -0.25, rel=1e-12)

    def test_gain_compensates_source_scale(self):
        rng = np.random.default_rng(3)
        s1 = wave(rng.standard_normal(100))
        s2 = wave(rng.standard_normal(100))
        spec = MixSpec(2.5)
        x1 = make_multi_mixture_item([s1, s2], spec).mixture
        x2 = make_multi_mixture_item([s1, wave(2.0 * s2.samples)], spec).mixture
        np.testing.assert_array_equal(x1.samples, x2.samples)

    @pytest.mark.parametrize("position", [1, 2, 3])
    def test_silent_source_is_named_by_position(self, position):
        sources = [wave([1.0, -2.0, 3.0]), wave([0.5, 0.5, 0.5, 7.0]), wave([-1.0, 2.0, 1.0])]
        sources[position - 1] = wave([0.0, 0.0, 0.0, 4.0])  # non-zero only past the common length
        with pytest.raises(SilentSourceError, match=rf"^silent source {position} of 3: its first 3 samples") as excinfo:
            make_multi_mixture_item(sources, MixSpec(0.0))
        assert excinfo.value.position == position

    def test_rate_mismatch(self):
        with pytest.raises(ValueError, match="sample rates differ"):
            make_multi_mixture_item([wave([1.0]), Waveform(np.ones(1), 16000)], MixSpec(0.0))

    def test_truncates_to_shorter(self):
        s1 = wave([1.0, 1.0, 1.0, 99.0])
        s2 = wave([1.0, -1.0, 1.0])
        item = make_multi_mixture_item([s1, s2], MixSpec(0.0))
        g = _mixing_gain(3.0, s2.energy(), MixSpec(0.0))
        assert len(item.mixture) == 3
        np.testing.assert_allclose(item.mixture.samples, s1.samples[:3] + g * s2.samples)

    @given(st.integers(0, 2**32 - 1), st.floats(-5, 5))
    @settings(max_examples=50, deadline=None)
    def test_requested_snr_is_achieved(self, seed, snr_db):
        rng = np.random.default_rng(seed)
        s1 = rng.standard_normal(64)
        s2 = rng.standard_normal(64)
        g = _mixing_gain(float(np.dot(s1, s1)), float(np.dot(s2, s2)), MixSpec(snr_db))
        measured = 10.0 * np.log10(np.dot(s1, s1) / (g * g * np.dot(s2, s2)))
        assert measured == pytest.approx(snr_db, abs=1e-9)

    def test_invalid_spec(self):
        with pytest.raises(ValueError, match="finite"):
            MixSpec(float("nan"))

    def test_targets_and_mixture_are_read_only_and_share_no_memory(self):
        s1 = wave([1.0, -2.0, 3.0, 99.0])
        s2 = wave([1.0, -1.0, 1.0])
        s3 = wave([0.5, 2.0, -1.0])
        item = make_multi_mixture_item([s1, s2, s3], MixSpec(1.0))
        outputs = [item.mixture.samples, *(t.samples for t in item.sources)]
        for i, out in enumerate(outputs):
            assert not out.flags.writeable
            assert out.base is None or not out.base.flags.writeable
            for other in [*outputs[:i], s1.samples, s2.samples, s3.samples]:
                assert not np.shares_memory(out, other)

    @pytest.mark.parametrize("snr_db", [-1e4, 1e4])
    def test_extreme_snr_is_typed_error(self, snr_db):
        # 10 ** 1000 overflows and 10 ** -1000 underflows the gain to 0
        with pytest.raises(ValueError, match="snr_db"):
            _mixing_gain(5.0, 5.0, MixSpec(snr_db))
