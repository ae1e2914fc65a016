import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblab import (
    Filterbank,
    FrameParams,
    TFRepresentation,
    Waveform,
    analysis_matrix,
    apply_mask,
    decode,
    encode,
    numerical_rank,
    pseudo_inverse,
    num_frames,
)
from fblab.codec import PINV_RCOND, _resynthesize

FS = 8000


def random_bank(rng, n=8, length=8):
    return Filterbank(rng.standard_normal((n, length)), FS)


def naive_encode(x, taps, frame_len, hop, apply_relu):
    """Direct loop evaluation of the analysis sum, used as an oracle."""
    n_filters = taps.shape[0]
    n = len(x)
    count = max(0, -(-max(n - frame_len, 0) // hop)) + 1
    out = np.zeros((n_filters, count))
    for fi in range(n_filters):
        for i in range(count):
            acc = 0.0
            for l in range(frame_len):
                t = i * hop + l
                sample = x[t] if t < n else 0.0
                acc += sample * taps[fi, frame_len - 1 - l]
            out[fi, i] = max(acc, 0.0) if apply_relu else acc
    return out


class TestEncode:
    def test_impulse_filter_picks_first_frame_sample(self):
        # taps [0,...,0,1] means h(L) = 1, which multiplies x(i*D + 0)
        taps = np.zeros((1, 4))
        taps[0, 3] = 1.0
        bank = Filterbank(taps, FS)
        x = Waveform(np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]), FS)
        rep = encode(x, bank, FrameParams(4, 4), apply_relu=False)
        np.testing.assert_array_equal(rep.values, [[1.0, 5.0]])

    def test_zero_signal_zero_representation(self):
        rng = np.random.default_rng(0)
        bank = random_bank(rng)
        rep = encode(Waveform(np.zeros(32), FS), bank, FrameParams(8, 4), apply_relu=False)
        np.testing.assert_array_equal(rep.values, np.zeros_like(rep.values))

    def test_relu_zeroes_only_negative_entries(self):
        rng = np.random.default_rng(1)
        bank = random_bank(rng)
        x = Waveform(rng.standard_normal(32), FS)
        p = FrameParams(8, 4)
        lin = encode(x, bank, p, apply_relu=False).values
        rect = encode(x, bank, p, apply_relu=True).values
        np.testing.assert_array_equal(rect, np.maximum(lin, 0.0))
        assert np.any(lin < 0)

    def test_matches_naive_loop_bitwise(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            length = int(rng.integers(1, 9))
            hop = int(rng.integers(1, length + 1))
            sig_len = int(rng.integers(1, 65))
            bank = Filterbank(rng.standard_normal((n, length)), FS)
            x = rng.standard_normal(sig_len)
            rep = encode(Waveform(x, FS), bank, FrameParams(length, hop), apply_relu=False)
            np.testing.assert_array_equal(rep.values, naive_encode(x, bank.taps, length, hop, False))

    def test_linearity(self):
        rng = np.random.default_rng(3)
        bank = random_bank(rng)
        p = FrameParams(8, 3)
        x, y = rng.standard_normal((2, 40))
        a, b = 1.7, -0.4
        mixed = encode(Waveform(a * x + b * y, FS), bank, p, apply_relu=False).values
        split = a * encode(Waveform(x, FS), bank, p, apply_relu=False).values \
            + b * encode(Waveform(y, FS), bank, p, apply_relu=False).values
        np.testing.assert_allclose(mixed, split, rtol=1e-12, atol=1e-12)

    def test_rate_mismatch(self):
        bank = random_bank(np.random.default_rng(4))
        with pytest.raises(ValueError, match="sample rate mismatch"):
            encode(Waveform(np.ones(16), 16000), bank, FrameParams(8, 4))

    def test_frame_len_mismatch(self):
        bank = random_bank(np.random.default_rng(5))
        with pytest.raises(ValueError, match="filter length"):
            encode(Waveform(np.ones(16), FS), bank, FrameParams(4, 2))


@given(
    seed=st.integers(0, 2**31 - 1),
    n_filters=st.integers(1, 64),
    frame_len=st.integers(1, 32),
    hop_frac=st.floats(0.0, 1.0),
    sig_len=st.integers(1, 2000),
    block_frac=st.floats(0.0, 1.0),
    apply_relu=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_blocked_roundtrip_matches_whole_signal_reference(
    seed, n_filters, frame_len, hop_frac, sig_len, block_frac, apply_relu
):
    rng = np.random.default_rng(seed)
    hop = 1 + int(hop_frac * (frame_len - 1))
    p = FrameParams(frame_len, hop)
    bank = Filterbank(rng.standard_normal((n_filters, frame_len)), FS)
    dec = Filterbank(rng.standard_normal((n_filters, frame_len)), FS)
    x = Waveform(rng.standard_normal(sig_len), FS)
    block_frames = 1 + int(block_frac * num_frames(sig_len, p))  # 1 .. count + 1
    ref = decode(encode(x, bank, p, apply_relu=apply_relu), dec).samples[:sig_len]
    (out,) = _resynthesize([x], bank, dec, p, lambda enc: enc, 1, relu=apply_relu, block_frames=block_frames)
    assert out.sample_rate == FS and len(out) == sig_len
    assert not out.samples.flags.writeable
    assert np.max(np.abs(out.samples - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


@given(
    seed=st.integers(0, 2**31 - 1),
    n_half=st.integers(1, 32),
    frame_len=st.integers(1, 32),
    hop_frac=st.floats(0.0, 1.0),
    sig_len=st.integers(1, 2000),
    block_frac=st.floats(0.0, 1.0),
    apply_relu=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_folded_roundtrip_matches_whole_signal_reference(
    seed, n_half, frame_len, hop_frac, sig_len, block_frac, apply_relu
):
    # A [P; -P] bank with its pseudo-inverse decoder runs only the rows of P.
    rng = np.random.default_rng(seed)
    hop = 1 + int(hop_frac * (frame_len - 1))
    p = FrameParams(frame_len, hop)
    half = rng.standard_normal((n_half, frame_len))
    bank = Filterbank(np.vstack([half, -half]), FS)
    dec = pseudo_inverse(bank)
    x = Waveform(rng.standard_normal(sig_len), FS)
    block_frames = 1 + int(block_frac * num_frames(sig_len, p))  # 1 .. count + 1
    ref = decode(encode(x, bank, p, apply_relu=apply_relu), dec).samples[:sig_len]
    seen = set()

    def identity(enc):
        seen.add(enc.shape[1])
        return enc

    (out,) = _resynthesize([x], bank, dec, p, identity, 1, relu=apply_relu, block_frames=block_frames)
    assert seen == {n_half}
    assert out.sample_rate == FS and len(out) == sig_len
    assert np.max(np.abs(out.samples - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


class TestDecode:
    def test_zero_representation_gives_silence_of_correct_length(self):
        bank = random_bank(np.random.default_rng(6))
        rep = TFRepresentation(np.zeros((8, 5)), FrameParams(8, 4))
        out = decode(rep, bank)
        assert len(out) == 4 * 4 + 8
        np.testing.assert_array_equal(out.samples, np.zeros(24))

    def test_single_coefficient_emits_one_decoder_row(self):
        bank = random_bank(np.random.default_rng(7))
        values = np.zeros((8, 1))
        values[3, 0] = 2.5
        rep = TFRepresentation(values, FrameParams(8, 8))
        out = decode(rep, bank)
        np.testing.assert_allclose(out.samples, 2.5 * bank.taps[3], rtol=1e-15)

    def test_row_count_mismatch(self):
        bank = random_bank(np.random.default_rng(8))
        rep = TFRepresentation(np.zeros((7, 5)), FrameParams(8, 4))
        with pytest.raises(ValueError, match="filters"):
            decode(rep, bank)


class TestPseudoInverse:
    def test_orthonormal_bank_inverse_is_transpose(self):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        bank = Filterbank(q, FS)
        dec = pseudo_inverse(bank)
        a = analysis_matrix(bank)
        np.testing.assert_allclose(dec.taps.T, a.T, atol=1e-12)  # pinv equals transpose

    def test_scaled_identity(self):
        bank = Filterbank(2.0 * np.eye(4), FS)
        dec = pseudo_inverse(bank)
        # analysis matrix is 2*J (J = column reversal); its inverse is 0.5*J
        j = np.eye(4)[:, ::-1]
        np.testing.assert_allclose(dec.taps.T, 0.5 * j, atol=1e-15)

    def test_penrose_conditions_on_random_banks(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            bank = Filterbank(rng.standard_normal((64, 16)), FS)
            a = analysis_matrix(bank)
            p = pseudo_inverse(bank).taps.T
            assert np.max(np.abs(a @ p @ a - a)) < 1e-8
            assert np.max(np.abs(p @ a @ p - p)) < 1e-8
            assert np.max(np.abs((a @ p).T - a @ p)) < 1e-8
            assert np.max(np.abs((p @ a).T - p @ a)) < 1e-8

    def test_roundtrip_identity_full_rank(self):
        rng = np.random.default_rng(11)
        bank = Filterbank(rng.standard_normal((32, 8)), FS)
        dec = pseudo_inverse(bank)
        x = Waveform(rng.standard_normal(64), FS)
        p = FrameParams(8, 8)
        y = decode(encode(x, bank, p, apply_relu=False), dec)
        np.testing.assert_allclose(y.samples, x.samples, atol=1e-9 * np.max(np.abs(x.samples)))

    @pytest.fixture
    def bank(self, request):
        from fblab import ErbParams, StftSpec, build_mpgtf, build_parampgtf, build_stft_bank

        if request.param == "mpgtf":
            return build_mpgtf(ErbParams(), 512, 16, FS)
        if request.param == "parampgtf":
            return build_parampgtf(ErbParams(27.0, 8.5), 512, 16, FS)
        if request.param == "stft_signsplit":  # the default: 128 frequencies, overcomplete
            return build_stft_bank(StftSpec(), FS)
        if request.param == "stft_complete":
            return build_stft_bank(StftSpec(frame_len=16, n_freqs=8), FS)
        half = np.random.default_rng(14).standard_normal((6, 16))  # rank 6 < L
        rows = np.vstack([half, half])
        return Filterbank(np.vstack([rows, -rows]), FS)

    @pytest.mark.parametrize("bank", ["mpgtf", "parampgtf", "stft_signsplit", "stft_complete", "duplicated_rows"],
                             indirect=True)
    def test_sign_split_bank_gets_antisymmetric_exact_pinv(self, bank):
        a = analysis_matrix(bank)
        dec = pseudo_inverse(bank).taps
        h = bank.n_filters // 2
        np.testing.assert_array_equal(dec[h:], -dec[:h])
        full = np.linalg.pinv(a, rcond=PINV_RCOND).T
        assert np.max(np.abs(dec - full)) <= 1e-12 * np.max(np.abs(full))
        p = dec.T
        assert np.max(np.abs(a @ p @ a - a)) < 1e-8
        assert np.max(np.abs(p @ a @ p - p)) < 1e-8
        assert np.max(np.abs((a @ p).T - a @ p)) < 1e-8
        assert np.max(np.abs((p @ a).T - p @ a)) < 1e-8
        assert numerical_rank(dec) == numerical_rank(a) == numerical_rank(full)

    def test_metadata_carried_over(self):
        from fblab import ErbParams, build_mpgtf

        bank = build_mpgtf(ErbParams(), 128, 16, FS)
        dec = pseudo_inverse(bank)
        assert dec.kind is bank.kind
        assert dec.erb_params == bank.erb_params
        np.testing.assert_array_equal(dec.center_freqs, bank.center_freqs)


class TestMask:
    def test_out_of_range_rejected(self):
        rep = TFRepresentation(np.ones((1, 2)), FrameParams(8, 4))
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            apply_mask(rep, np.array([[0.5, 1.5]]))
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            apply_mask(rep, np.array([[-0.1, 0.5]]))

    def test_nan_rejected(self):
        rep = TFRepresentation(np.ones((1, 2)), FrameParams(8, 4))
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            apply_mask(rep, np.array([[np.nan, 0.5]]))

    def test_identity_mask(self):
        rep = TFRepresentation(np.abs(np.random.default_rng(12).standard_normal((4, 3))), FrameParams(8, 4))
        out = apply_mask(rep, np.ones((4, 3)))
        np.testing.assert_array_equal(out.values, rep.values)

    def test_zero_mask(self):
        rep = TFRepresentation(np.ones((4, 3)), FrameParams(8, 4))
        out = apply_mask(rep, np.zeros((4, 3)))
        np.testing.assert_array_equal(out.values, np.zeros((4, 3)))

    def test_complementary_masks_partition(self):
        rng = np.random.default_rng(13)
        rep = TFRepresentation(np.abs(rng.standard_normal((4, 3))), FrameParams(8, 4))
        m = rng.uniform(0, 1, size=(4, 3))
        total = apply_mask(rep, m).values + apply_mask(rep, 1.0 - m).values
        np.testing.assert_allclose(total, rep.values, rtol=1e-15)

    def test_shape_mismatch(self):
        rep = TFRepresentation(np.ones((4, 3)), FrameParams(8, 4))
        with pytest.raises(ValueError, match="shape"):
            apply_mask(rep, np.ones((3, 4)))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_encode_decode_identity_property(seed):
    rng = np.random.default_rng(seed)
    bank = Filterbank(rng.standard_normal((24, 6)), FS)
    x = Waveform(rng.standard_normal(36), FS)
    p = FrameParams(6, 6)
    y = decode(encode(x, bank, p, apply_relu=False), pseudo_inverse(bank))
    np.testing.assert_allclose(y.samples, x.samples, atol=1e-9 * max(1.0, np.max(np.abs(x.samples))))

