import json
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblab import (
    ErbParams,
    Filterbank,
    FrameParams,
    MixSpec,
    Waveform,
    bank_info,
    build_mpgtf,
    decode,
    encode,
    make_multi_mixture_item,
    make_sinusoid_mixture_items,
    num_frames,
    pseudo_inverse,
    run_separation,
    separate,
    si_snr,
    write_report_csv,
    write_report_json,
)
import fblab.codec as codec
from fblab.codec import _resynthesize, apply_mask
from fblab.separation import _oracle_mask_weigh, oracle_irm_masks

FS = 8000
FP = FrameParams(16, 8)


@pytest.fixture(scope="module")
def mpgtf_bank():
    return build_mpgtf(ErbParams(), 512, 16, FS)


@pytest.fixture(scope="module")
def mpgtf_dec(mpgtf_bank):
    return pseudo_inverse(mpgtf_bank)


def tone(freq, n=4000, amp=0.5, phase=0.0):
    t = np.arange(n) / FS
    return Waveform(amp * np.sin(2 * np.pi * freq * t + phase), FS)


class TestOracleIrmMasks:
    def test_identical_sources_give_half_masks(self, mpgtf_bank):
        s = tone(440.0, n=800)
        masks = oracle_irm_masks([s, s], mpgtf_bank, FP)
        np.testing.assert_array_equal(masks[0], np.full_like(masks[0], 0.5))
        np.testing.assert_array_equal(masks[1], np.full_like(masks[1], 0.5))

    def test_silent_second_source(self, mpgtf_bank):
        s = tone(440.0, n=800)
        silent = Waveform(np.zeros(800), FS)
        masks = oracle_irm_masks([s, silent], mpgtf_bank, FP)
        enc = np.abs(encode(s, mpgtf_bank, FP, apply_relu=False).values)
        live = enc > 0
        assert np.all(masks[0][live] == 1.0)
        assert np.all(masks[0][~live] == 0.5)
        assert np.all(masks[1][live] == 0.0)

    def test_partition_of_unity_exact(self, mpgtf_bank):
        rng = np.random.default_rng(0)
        sources = [Waveform(rng.standard_normal(800), FS) for _ in range(2)]
        masks = oracle_irm_masks(sources, mpgtf_bank, FP)
        total = masks[0] + masks[1]
        np.testing.assert_array_equal(total, np.ones_like(total))

    def test_three_source_partition(self, mpgtf_bank):
        rng = np.random.default_rng(1)
        sources = [Waveform(rng.standard_normal(800), FS) for _ in range(3)]
        masks = oracle_irm_masks(sources, mpgtf_bank, FP)
        total = masks[0] + masks[1] + masks[2]
        np.testing.assert_allclose(total, 1.0, atol=1e-15)

    def test_rejects_single_source(self, mpgtf_bank):
        with pytest.raises(ValueError, match="at least 2"):
            oracle_irm_masks([tone(440.0)], mpgtf_bank, FP)

    def test_rejects_mismatched_lengths(self, mpgtf_bank):
        with pytest.raises(ValueError, match="equal lengths"):
            oracle_irm_masks([tone(440.0, n=800), tone(500.0, n=801)], mpgtf_bank, FP)


class TestRunSeparation:
    def test_single_source_mixture_reconstructs_perfectly(self, mpgtf_bank, mpgtf_dec):
        # mixture equal to one source with the other silent: its oracle mask
        # is 1 on every live cell, so the linear pinv decode returns the
        # source up to float residuals and the SI-SNR hits the 60 dB clip
        from fblab import clip_si_snr

        s = tone(300.0, n=2048)
        silent = Waveform(np.zeros(2048), FS)
        estimates = separate(s, [s, silent], mpgtf_bank, mpgtf_dec, FrameParams(16, 16), apply_relu=False)
        value = si_snr(estimates[0], s).value_db
        assert value > 250.0
        assert clip_si_snr(value) == 60.0

    def test_disjoint_sinusoids_improve_over_mixture(self, mpgtf_bank, mpgtf_dec):
        item = make_multi_mixture_item("pair", [tone(300.0), tone(2000.0, phase=1.2)], MixSpec(0.0))
        scores = run_separation(item.mixture, item.sources, mpgtf_bank, mpgtf_dec, FP)
        assert isinstance(scores, tuple) and len(scores) == 2
        for est_db, src in zip(scores, item.sources):
            mixture_db = si_snr(item.mixture, src).value_db
            assert est_db > mixture_db

    def test_uniform_half_mask_scales_like_mixture(self, mpgtf_bank, mpgtf_dec):
        # identical sources force both masks to 0.5: the two estimates are
        # bitwise equal scaled copies of the decoded mixture, so their SI-SNR
        # sits at the clip exactly like the mixture's own
        from fblab import clip_si_snr

        s = tone(440.0, n=2048)
        item = make_multi_mixture_item("same", [s, s], MixSpec(0.0))
        p = FrameParams(16, 16)  # disjoint frames keep the decode proportional
        masks = oracle_irm_masks(item.sources, mpgtf_bank, p)
        assert np.all(masks[0] == 0.5) and np.all(masks[1] == 0.5)
        estimates = separate(item.mixture, item.sources, mpgtf_bank, mpgtf_dec, p)
        np.testing.assert_array_equal(estimates[0].samples, estimates[1].samples)
        est_db = si_snr(estimates[0], item.sources[0]).value_db
        mix_db = si_snr(item.mixture, item.sources[0]).value_db
        assert clip_si_snr(est_db) == 60.0
        assert clip_si_snr(mix_db) == 60.0

    def test_estimates_sum_to_decoded_mixture(self, mpgtf_bank, mpgtf_dec):
        item = make_multi_mixture_item("sum", [tone(300.0), tone(2000.0)], MixSpec(-3.0))
        estimates = separate(item.mixture, item.sources, mpgtf_bank, mpgtf_dec, FP)
        rep = encode(item.mixture, mpgtf_bank, FP, apply_relu=True)
        full = decode(rep, mpgtf_dec).samples[: len(item.mixture)]
        total = estimates[0].samples + estimates[1].samples
        np.testing.assert_allclose(total, full, rtol=0, atol=1e-9 * np.max(np.abs(full)))


@given(
    seed=st.integers(0, 2**31 - 1),
    n_filters=st.integers(1, 24),
    frame_len=st.integers(1, 32),
    hop_frac=st.floats(0.0, 1.0),
    sig_len=st.integers(1, 2000),
    block_frac=st.floats(0.0, 1.0),
    n_sources=st.sampled_from([2, 3]),
    apply_relu=st.booleans(),
    silent_span=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_blocked_separation_matches_whole_signal_reference(
    seed, n_filters, frame_len, hop_frac, sig_len, block_frac, n_sources, apply_relu, silent_span
):
    rng = np.random.default_rng(seed)
    hop = 1 + int(hop_frac * (frame_len - 1))
    p = FrameParams(frame_len, hop)
    bank = Filterbank(rng.standard_normal((n_filters, frame_len)), FS)
    dec = Filterbank(rng.standard_normal((n_filters, frame_len)), FS)
    samples = rng.standard_normal((n_sources, sig_len))
    if silent_span:  # all-zero cells take the 1/C mask
        samples[:, sig_len // 4:sig_len // 2] = 0.0
    sources = [Waveform(x, FS) for x in samples]
    mixture = Waveform(samples.sum(axis=0), FS)
    block_frames = 1 + int(block_frac * num_frames(sig_len, p))  # 1 .. count + 1

    rep = encode(mixture, bank, p, apply_relu=apply_relu)
    masks = oracle_irm_masks(sources, bank, p)
    refs = [decode(apply_mask(rep, mask), dec).samples[:sig_len] for mask in masks]
    with mock.patch.object(codec, "BLOCK_FRAMES", block_frames):
        outs = _resynthesize([mixture, *sources], bank, dec, p, _oracle_mask_weigh, n_sources, relu=apply_relu)
    assert len(outs) == n_sources
    for out, ref in zip(outs, refs):
        assert out.sample_rate == FS and len(out) == sig_len
        assert np.max(np.abs(out.samples - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


def test_separate_memory_is_flat_in_signal_length(mpgtf_bank, mpgtf_dec):
    # The whole-signal path holds several N x I arrays at once (~266 MB
    # at 8 s); the blocked engine holds O(N * BLOCK_FRAMES) plus a few
    # signal-length buffers.
    peaks = {}
    for seconds in (2.0, 8.0):
        item = make_sinusoid_mixture_items(1, seed=4, duration_s=seconds)[0]
        tracemalloc.start()
        try:
            separate(item.mixture, item.sources, mpgtf_bank, mpgtf_dec, FP)
            peaks[seconds] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    rep_bytes = mpgtf_bank.n_filters * num_frames(8 * FS, FP) * 8  # one 8 s N x I float64 array
    assert peaks[8.0] - peaks[2.0] < rep_bytes / 4
    assert peaks[8.0] < rep_bytes / 2


def test_separate_peak_memory_is_below_three_signal_lengths(mpgtf_bank, mpgtf_dec):
    # Frames are read from the inputs in place and the overlap-add rows are
    # handed out as the estimates: two output lengths plus O(N * BLOCK_FRAMES).
    item = make_sinusoid_mixture_items(1, seed=4, duration_s=32.0)[0]
    tracemalloc.start()
    try:
        separate(item.mixture, item.sources, mpgtf_bank, mpgtf_dec, FP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(item.mixture) * 8


class TestSeparateErrors:
    """Every bad argument is rejected before any work, with the message of the
    whole-signal functions that used to raise it."""

    def test_decoder_row_count(self, mpgtf_bank):
        s = tone(440.0, n=800)
        dec = Filterbank(np.ones((511, 16)), FS)
        with pytest.raises(ValueError, match=re.escape("decoder has 511 filters but representation has 512 rows")):
            separate(s, [s, s], mpgtf_bank, dec, FP)

    def test_decoder_length(self, mpgtf_bank):
        s = tone(440.0, n=800)
        dec = Filterbank(np.ones((512, 12)), FS)
        with pytest.raises(ValueError, match=re.escape("decoder filter length 12 != frame length 16")):
            separate(s, [s, s], mpgtf_bank, dec, FP)

    def test_encoder_frame_length(self, mpgtf_bank, mpgtf_dec):
        s = tone(440.0, n=800)
        with pytest.raises(ValueError, match=re.escape("bank filter length 16 != frame length 8")):
            separate(s, [s, s], mpgtf_bank, mpgtf_dec, FrameParams(8, 4))

    def test_bank_signal_rate_mismatch(self, mpgtf_bank, mpgtf_dec):
        s = Waveform(np.ones(800), 16000)
        with pytest.raises(ValueError, match=re.escape("sample rate mismatch: bank 8000 Hz, signal 16000 Hz")):
            separate(s, [s, s], mpgtf_bank, mpgtf_dec, FP)

    @pytest.mark.parametrize("source_len", [0, 800])
    def test_empty_mixture(self, mpgtf_bank, mpgtf_dec, source_len):
        empty = Waveform(np.zeros(0), FS)
        s = tone(440.0, n=source_len)
        with pytest.raises(ValueError, match=re.escape("empty input")):
            separate(empty, [s, s], mpgtf_bank, mpgtf_dec, FP)

    def test_mixture_length_differs_from_sources(self, mpgtf_bank, mpgtf_dec):
        s = tone(440.0, n=800)
        with pytest.raises(ValueError, match="equal lengths"):
            separate(tone(440.0, n=801), [s, s], mpgtf_bank, mpgtf_dec, FP)

    def test_single_source(self, mpgtf_bank, mpgtf_dec):
        s = tone(440.0)
        with pytest.raises(ValueError, match="at least 2"):
            separate(s, [s], mpgtf_bank, mpgtf_dec, FP)


class TestMixtureItems:
    def test_mixture_is_sum_of_stored_sources(self):
        item = make_multi_mixture_item("x", [tone(300.0), tone(2000.0)], MixSpec(4.0))
        np.testing.assert_array_equal(
            item.mixture.samples, item.sources[0].samples + item.sources[1].samples
        )

    @pytest.mark.parametrize("lengths", [(900, 700), (700, 1000, 850)])
    def test_targets_are_gained_truncated_sources_bitwise(self, lengths):
        rng = np.random.default_rng(len(lengths))
        sources = [Waveform(rng.standard_normal(n), FS) for n in lengths]
        spec = MixSpec(-2.5)
        item = make_multi_mixture_item("x", sources, spec)
        n = min(lengths)
        head = sources[0].samples[:n]
        assert item.sources[0].samples.tobytes() == head.tobytes()
        expected = head.copy()
        for s, target in zip(sources[1:], item.sources[1:]):
            tail = s.samples[:n]
            g = math.sqrt((float(np.dot(head, head)) / float(np.dot(tail, tail))) * 10.0 ** (-spec.snr_db / 10.0))
            assert target.samples.tobytes() == (tail * g).tobytes()
            measured = 10.0 * np.log10(np.dot(head, head) / target.energy())
            assert measured == pytest.approx(spec.snr_db, abs=1e-9)
            expected += target.samples
        assert item.mixture.samples.tobytes() == expected.tobytes()

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty input"):
            make_multi_mixture_item("x", [tone(300.0), Waveform(np.zeros(0), FS)], MixSpec(0.0))

    def test_synthetic_set_is_deterministic(self):
        a = make_sinusoid_mixture_items(3, seed=5)
        b = make_sinusoid_mixture_items(3, seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.mixture.samples, y.mixture.samples)
        c = make_sinusoid_mixture_items(3, seed=6)
        assert not np.array_equal(a[0].mixture.samples, c[0].mixture.samples)

    def test_synthetic_set_shapes(self):
        items = make_sinusoid_mixture_items(4, seed=1, duration_s=0.25)
        assert len(items) == 4
        for item in items:
            assert len(item.mixture) == 2000
            assert len(item.sources) == 2


class TestExperimentReport:
    def test_csv_format(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(path, "a", (1.5, math.inf))
        assert path.read_text() == "item_id,source_idx,si_snr_db\na,0,1.5\na,1,inf\n"

    def test_json_summary(self, tmp_path, mpgtf_bank):
        path = tmp_path / "report.json"
        write_report_json(path, "a", (1.5, 2.5), {"snr_db": 0.0}, bank_info(mpgtf_bank))
        data = json.loads(path.read_text())
        assert data["mean_si_snr_db"] == 2.0
        assert data["bank"]["kind"] == "mpgtf"
        assert data["bank"]["c1"] == 24.7
        assert data["config"]["snr_db"] == 0.0


def _sign_split_bank(rng, n_half, frame_len):
    half = rng.standard_normal((n_half, frame_len))
    return Filterbank(np.vstack([half, -half]), FS)


def _recording_rows(weigh, seen):
    """Wrap a weigh so it records the row count of every block it gets."""

    def wrapped(enc):
        seen.add(enc.shape[1])
        return weigh(enc)

    return wrapped


def _reference_estimates(mixture, sources, bank, dec, p, apply_relu):
    rep = encode(mixture, bank, p, apply_relu=apply_relu)
    masks = oracle_irm_masks(sources, bank, p)
    return [decode(apply_mask(rep, mask), dec).samples[:len(mixture)] for mask in masks]


@given(
    seed=st.integers(0, 2**31 - 1),
    n_half=st.integers(1, 12),
    frame_len=st.integers(1, 32),
    hop_frac=st.floats(0.0, 1.0),
    sig_len=st.integers(1, 2000),
    block_frac=st.floats(0.0, 1.0),
    n_sources=st.sampled_from([2, 3]),
    apply_relu=st.booleans(),
    silent_span=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_folded_separation_matches_whole_signal_reference(
    seed, n_half, frame_len, hop_frac, sig_len, block_frac, n_sources, apply_relu, silent_span
):
    # A [P; -P] bank with its pseudo-inverse decoder runs only the rows of P.
    rng = np.random.default_rng(seed)
    hop = 1 + int(hop_frac * (frame_len - 1))
    p = FrameParams(frame_len, hop)
    bank = _sign_split_bank(rng, n_half, frame_len)
    dec = pseudo_inverse(bank)
    samples = rng.standard_normal((n_sources, sig_len))
    if silent_span:  # all-zero cells take the 1/C mask
        samples[:, sig_len // 4:sig_len // 2] = 0.0
    sources = [Waveform(x, FS) for x in samples]
    mixture = Waveform(samples.sum(axis=0), FS)
    block_frames = 1 + int(block_frac * num_frames(sig_len, p))  # 1 .. count + 1

    refs = _reference_estimates(mixture, sources, bank, dec, p, apply_relu)
    seen = set()
    with mock.patch.object(codec, "BLOCK_FRAMES", block_frames):
        outs = _resynthesize([mixture, *sources], bank, dec, p, _recording_rows(_oracle_mask_weigh, seen), n_sources,
                             relu=apply_relu)
    assert seen == {n_half}
    assert len(outs) == n_sources
    for out, ref in zip(outs, refs):
        assert out.sample_rate == FS and len(out) == sig_len
        assert np.max(np.abs(out.samples - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


def _one_ulp_up(taps, row, col):
    taps = taps.copy()
    taps[row, col] = np.nextafter(taps[row, col], np.inf)
    return taps


def _unfoldable_pair(case, rng):
    """(encoder, decoder) pairs that miss the fold's precondition, some by one bit."""
    split = _sign_split_bank(rng, 6, 8)
    if case == "decoder_one_ulp":
        return split, Filterbank(_one_ulp_up(pseudo_inverse(split).taps, 8, 3), FS)
    if case == "encoder_one_ulp":
        bank = Filterbank(_one_ulp_up(split.taps, 8, 3), FS)
        return bank, pseudo_inverse(bank)
    if case == "odd_row_count":
        bank = Filterbank(np.vstack([split.taps, rng.standard_normal((1, 8))]), FS)
        return bank, pseudo_inverse(bank)
    if case == "foreign_decoder":
        return split, Filterbank(rng.standard_normal((12, 8)), FS)
    return Filterbank(rng.standard_normal((12, 8)), FS), Filterbank(rng.standard_normal((12, 8)), FS)


@pytest.mark.parametrize("apply_relu", [True, False])
@pytest.mark.parametrize(
    "case", ["decoder_one_ulp", "encoder_one_ulp", "odd_row_count", "foreign_decoder", "not_split"]
)
def test_unfoldable_banks_run_every_row(case, apply_relu):
    rng = np.random.default_rng(21)
    bank, dec = _unfoldable_pair(case, rng)
    p = FrameParams(8, 3)
    samples = rng.standard_normal((2, 301))
    sources = [Waveform(x, FS) for x in samples]
    mixture = Waveform(samples.sum(axis=0), FS)
    seen = set()
    with mock.patch.object(codec, "BLOCK_FRAMES", 16):
        outs = _resynthesize([mixture, *sources], bank, dec, p, _recording_rows(_oracle_mask_weigh, seen), 2,
                             relu=apply_relu)
    assert seen == {bank.n_filters}
    refs = _reference_estimates(mixture, sources, bank, dec, p, apply_relu)
    for out, ref in zip(outs, refs):
        assert np.max(np.abs(out.samples - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))

    # The engine's relu is the one the weigh used to apply itself: same bits.
    def rectify_then_mask(enc):
        if apply_relu:
            np.maximum(enc[0], 0.0, out=enc[0])
        return _oracle_mask_weigh(enc)

    with mock.patch.object(codec, "BLOCK_FRAMES", 16):
        before = _resynthesize([mixture, *sources], bank, dec, p, rectify_then_mask, 2, relu=False)
    for out, old in zip(outs, before):
        assert out.samples.tobytes() == old.samples.tobytes()
