import numpy as np
import pytest

from fblab import (
    ErbParams,
    FilterbankKind,
    FrameParams,
    StftMode,
    StftSpec,
    StftWindow,
    Waveform,
    analysis_matrix,
    build_mpgtf,
    build_stft_bank,
    decode,
    encode,
    frequency_response,
    istft_decoder,
    numerical_rank,
)
from fblab.filterbank import condition_number

FS = 8000


def nominal_freqs(n_freqs):
    """The frequencies of an STFT bank's row pairs at FS: half a step above each multiple of FS / (2 * n_freqs)."""
    return (np.arange(n_freqs) + 0.5) * (FS / 2 / n_freqs)


class TestBuildStftBank:
    def test_filter_counts(self):
        assert build_stft_bank(StftSpec(16, 8, StftMode.LINEAR), FS).n_filters == 16
        assert build_stft_bank(StftSpec(16, 128, StftMode.SIGN_SPLIT), FS).n_filters == 512

    def test_default_spec_matches_paper_dimensions(self):
        bank = build_stft_bank(StftSpec(), FS)
        assert bank.taps.shape == (512, 16)
        assert bank.kind is FilterbankKind.STFT

    def test_linear_square_bank_is_full_rank(self):
        bank = build_stft_bank(StftSpec(16, 8, StftMode.LINEAR), FS)
        assert bank.taps.shape == (16, 16)
        assert numerical_rank(analysis_matrix(bank)) == 16

    def test_linear_square_bank_is_orthogonal(self):
        bank = build_stft_bank(StftSpec(16, 8, StftMode.LINEAR), FS)
        gram = bank.taps @ bank.taps.T
        np.testing.assert_allclose(gram, 8.0 * np.eye(16), atol=1e-12)

    def test_sign_split_contains_negations(self):
        bank = build_stft_bank(StftSpec(16, 8, StftMode.SIGN_SPLIT), FS)
        half = bank.n_filters // 2
        np.testing.assert_array_equal(bank.taps[half:], -bank.taps[:half])

    def test_frequencies_within_half_band(self):
        # Row pair k is the cosine and sine at (k + 1/2) * fs / (2 * n_freqs):
        # evenly spaced, and inside (0, fs/2).
        bank = build_stft_bank(StftSpec(), FS)
        freqs = nominal_freqs(128)
        assert np.all(freqs > 0) and np.all(freqs < FS / 2)
        phase = 2 * np.pi * np.outer(freqs, np.arange(16)) / FS
        np.testing.assert_allclose(bank.taps[0:256:2], np.cos(phase), atol=1e-12)
        np.testing.assert_allclose(bank.taps[1:256:2], np.sin(phase), atol=1e-12)

    @pytest.mark.parametrize("frame_len,n_freqs,message", [
        (0, 8, "frame_len must be >= 1, got 0"),
        (16, 0, "n_freqs must be >= 1, got 0"),
    ])
    def test_spec_below_one_is_typed_error(self, frame_len, n_freqs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            StftSpec(frame_len, n_freqs)

    def test_overcomplete_warning(self):
        # `build-bank` warns on conditioning, not on overcompleteness: the
        # default bank's 128 frequencies exceed frame_len/2 = 8, yet its
        # analysis matrix is as well conditioned as the 8-frequency basis.
        for spec in (StftSpec(16, 128), StftSpec(16, 8, StftMode.LINEAR)):
            assert condition_number(analysis_matrix(build_stft_bank(spec, FS))) == pytest.approx(1.0, abs=1e-12)
        hann = build_stft_bank(StftSpec(16, 128, window=StftWindow.HANN), FS)
        assert condition_number(analysis_matrix(hann)) == pytest.approx(26.27, abs=0.01)

    def test_hann_window_applied(self):
        rect = build_stft_bank(StftSpec(16, 8, StftMode.LINEAR, StftWindow.RECTANGULAR), FS)
        hann = build_stft_bank(StftSpec(16, 8, StftMode.LINEAR, StftWindow.HANN), FS)
        w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(16) / 16)
        np.testing.assert_allclose(hann.taps, rect.taps * w, atol=1e-15)

    def test_row_peaks_at_nominal_frequency_when_resolved(self):
        # 16-tap rows have 500 Hz wide lobes, far coarser than one FFT bin;
        # the per-row peak claim is checked where the window resolves it
        bank = build_stft_bank(StftSpec(256, 8, StftMode.LINEAR), FS)
        bin_hz, mags = frequency_response(bank, 512)
        peaks = bin_hz[np.argmax(mags[:, :257], axis=1)]  # folded to [0, fs/2]
        nominal = np.repeat(nominal_freqs(8), 2)
        assert np.all(np.abs(peaks - nominal) <= FS / 512 + 1e-9)


class TestIstftDecoder:
    def test_requires_stft_kind(self):
        bank = build_mpgtf(ErbParams(), 512, 16, FS)
        with pytest.raises(ValueError, match="requires an STFT bank"):
            istft_decoder(bank)

    def test_linear_roundtrip_identity(self):
        bank = build_stft_bank(StftSpec(16, 8, StftMode.LINEAR), FS)
        dec = istft_decoder(bank)
        rng = np.random.default_rng(0)
        x = Waveform(rng.standard_normal(160), FS)
        p = FrameParams(16, 16)
        y = decode(encode(x, bank, p, apply_relu=False), dec, p)
        np.testing.assert_allclose(y.samples, x.samples, rtol=0, atol=1e-9 * np.max(np.abs(x.samples)))

    def test_relu_roundtrip_recovers_half_signal(self):
        # relu(a) - relu(-a) = a: the +/- pairs keep the rectified encoding
        # lossless, and the pseudo-inverse spreads it over both pair members,
        # reconstructing exactly x/2.
        bank = build_stft_bank(StftSpec(), FS)
        dec = istft_decoder(bank)
        rng = np.random.default_rng(1)
        x = Waveform(rng.standard_normal(160), FS)
        p = FrameParams(16, 16)
        y = decode(encode(x, bank, p, apply_relu=True), dec, p)
        np.testing.assert_allclose(2.0 * y.samples, x.samples, rtol=0, atol=1e-12)

    def test_relu_roundtrip_per_frame_scale_normalized(self):
        bank = build_stft_bank(StftSpec(), FS)
        dec = istft_decoder(bank)
        rng = np.random.default_rng(2)
        p = FrameParams(16, 16)
        worst = 0.0
        for _ in range(1000):
            frame = rng.standard_normal(16)
            x = Waveform(frame, FS)
            y = decode(encode(x, bank, p, apply_relu=True), dec, p)
            err = np.linalg.norm(2.0 * y.samples - frame) / np.linalg.norm(frame)
            worst = max(worst, err)
        assert worst <= 1e-9

    def test_zero_frame_decodes_to_zero(self):
        bank = build_stft_bank(StftSpec(), FS)
        dec = istft_decoder(bank)
        x = Waveform(np.zeros(32), FS)
        p = FrameParams(16, 16)
        y = decode(encode(x, bank, p, apply_relu=True), dec, p)
        np.testing.assert_array_equal(y.samples, np.zeros(32))

    def test_rank_deficient_requires_acknowledgement(self):
        bank = build_stft_bank(StftSpec(16, 4, StftMode.LINEAR), FS)  # 8 rows < L=16
        with pytest.raises(ValueError, match="rank-deficient"):
            istft_decoder(bank)

    def test_parseval_ratio_constant_in_orthogonal_linear_mode(self):
        bank = build_stft_bank(StftSpec(16, 8, StftMode.LINEAR), FS)
        p = FrameParams(16, 16)
        rng = np.random.default_rng(3)
        ratios = []
        for _ in range(20):
            x = Waveform(rng.standard_normal(16), FS)
            rep = encode(x, bank, p, apply_relu=False)
            ratios.append(float(np.sum(rep**2)) / x.energy())
        ratios = np.array(ratios)
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)  # measured constant: L/2
