import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblab import FrameParams, Waveform, num_frames
from fblab.dsp import frame_signal, overlap_add


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

