import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fblab import (
    ErbParams,
    Filterbank,
    FrameParams,
    MixtureItem,
    SilentSourceError,
    Waveform,
    build_mpgtf,
    decode,
    encode,
    make_multi_mixture_item,
    make_sinusoid_mixture_items,
    num_frames,
    pseudo_inverse,
    run_separation,
    score_separation,
    separate,
    si_snr,
)
import fblab.codec as codec
from fblab.codec import _resynthesize, apply_mask
from fblab.separation import _oracle_mask_weigh, oracle_irm_masks

FS = 8000
FP = FrameParams(16, 8)


@pytest.fixture(scope="module")
def mpgtf_bank():
    return build_mpgtf(ErbParams(), 512, 16, FS)


def wave(values, fs=FS):
    return Waveform(np.asarray(values, dtype=np.float64), fs)


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
        enc = np.abs(encode(s, mpgtf_bank, FP, apply_relu=False))
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

    def test_four_sources_take_a_quarter_of_an_all_zero_cell(self, mpgtf_bank):
        rng = np.random.default_rng(2)
        samples = rng.standard_normal((4, 800))
        samples[:, 200:400] = 0.0  # frames 25-48 see only zeros in every source
        sources = [Waveform(x, FS) for x in samples]
        masks = oracle_irm_masks(sources, mpgtf_bank, FP)
        mags = np.stack([np.abs(encode(s, mpgtf_bank, FP, apply_relu=False)) for s in sources])
        zero = np.all(mags == 0.0, axis=0)
        assert zero[:, 25:49].all() and not zero.all()
        for mask in masks:
            assert np.all(mask[zero] == 0.25)
        total = masks[0] + masks[1] + masks[2] + masks[3]
        assert np.all(total[zero] == 1.0)
        np.testing.assert_allclose(total, 1.0, atol=1e-15)

    def test_rejects_single_source(self, mpgtf_bank):
        with pytest.raises(ValueError, match="at least 2"):
            oracle_irm_masks([tone(440.0)], mpgtf_bank, FP)

    def test_rejects_mismatched_lengths(self, mpgtf_bank):
        with pytest.raises(ValueError, match="equal lengths"):
            oracle_irm_masks([tone(440.0, n=800), tone(500.0, n=801)], mpgtf_bank, FP)


class TestRunSeparation:
    def test_single_source_mixture_reconstructs_perfectly(self, mpgtf_bank):
        # one source with the other silent: its oracle mask is 1 on every
        # live cell, so the linear pinv decode returns the source up to
        # float residuals and the SI-SNR hits the 60 dB clip
        from fblab import clip_si_snr

        s = tone(300.0, n=2048)
        silent = Waveform(np.zeros(2048), FS)
        estimates = separate([s, silent], mpgtf_bank, FrameParams(16, 16), apply_relu=False)
        value = si_snr(estimates[0], s)
        assert value > 250.0
        assert clip_si_snr(value) == 60.0

    @pytest.mark.parametrize("n_estimates", [1, 3])
    def test_score_separation_refuses_a_count_mismatch(self, n_estimates):
        # a missing or extra estimate is an error, not a shorter tuple of scores
        sources = [tone(300.0), tone(2000.0)]
        with pytest.raises(ValueError, match="^zip"):
            score_separation([sources[0]] * n_estimates, sources)

    def test_disjoint_sinusoids_improve_over_mixture(self, mpgtf_bank):
        item = make_multi_mixture_item([tone(300.0), tone(2000.0, phase=1.2)], 0.0)
        scores = run_separation(item.sources, mpgtf_bank, FP)
        assert isinstance(scores, tuple) and len(scores) == 2
        for est_db, src in zip(scores, item.sources):
            mixture_db = si_snr(item.mixture, src)
            assert est_db > mixture_db

    def test_uniform_half_mask_scales_like_mixture(self, mpgtf_bank):
        # identical sources force both masks to 0.5: the two estimates are
        # bitwise equal scaled copies of the decoded mixture, so their SI-SNR
        # sits at the clip exactly like the mixture's own
        from fblab import clip_si_snr

        s = tone(440.0, n=2048)
        item = make_multi_mixture_item([s, s], 0.0)
        p = FrameParams(16, 16)  # disjoint frames keep the decode proportional
        masks = oracle_irm_masks(item.sources, mpgtf_bank, p)
        assert np.all(masks[0] == 0.5) and np.all(masks[1] == 0.5)
        estimates = separate(item.sources, mpgtf_bank, p)
        np.testing.assert_array_equal(estimates[0].samples, estimates[1].samples)
        est_db = si_snr(estimates[0], item.sources[0])
        mix_db = si_snr(item.mixture, item.sources[0])
        assert clip_si_snr(est_db) == 60.0
        assert clip_si_snr(mix_db) == 60.0

    def test_estimates_sum_to_decoded_mixture(self, mpgtf_bank):
        item = make_multi_mixture_item([tone(300.0), tone(2000.0)], -3.0)
        estimates = separate(item.sources, mpgtf_bank, FP)
        rep = encode(item.mixture, mpgtf_bank, FP, apply_relu=True)
        full = decode(rep, pseudo_inverse(mpgtf_bank), FP).samples[: len(item.mixture)]
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
    samples = rng.standard_normal((n_sources, sig_len))
    if silent_span:  # all-zero cells take the 1/C mask
        samples[:, sig_len // 4:sig_len // 2] = 0.0
    sources = [Waveform(x, FS) for x in samples]
    mixture = Waveform(samples.sum(axis=0), FS)
    block_frames = 1 + int(block_frac * num_frames(sig_len, p))  # 1 .. count + 1

    refs = _reference_estimates(mixture, sources, bank, p, apply_relu)
    with mock.patch.object(codec, "BLOCK_FRAMES", block_frames):
        outs = _resynthesize(sources, bank, p, _oracle_mask_weigh, n_sources, relu=apply_relu)
    assert len(outs) == n_sources
    for out, ref in zip(outs, refs):
        assert out.sample_rate == FS and len(out) == sig_len
        assert np.max(np.abs(out.samples - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


def test_separate_memory_is_flat_in_signal_length(mpgtf_bank):
    # The whole-signal path holds several N x I arrays at once (~266 MB
    # at 8 s); the blocked engine holds O(N * BLOCK_FRAMES) plus a few
    # signal-length buffers.
    peaks = {}
    for seconds in (2.0, 8.0):
        item = make_sinusoid_mixture_items(1, seed=4, duration_s=seconds)[0]
        tracemalloc.start()
        try:
            separate(item.sources, mpgtf_bank, FP)
            peaks[seconds] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    rep_bytes = mpgtf_bank.n_filters * num_frames(8 * FS, FP) * 8  # one 8 s N x I float64 array
    assert peaks[8.0] - peaks[2.0] < rep_bytes / 4
    assert peaks[8.0] < rep_bytes / 2


def test_separate_peak_memory_is_below_three_signal_lengths(mpgtf_bank):
    # Frames are read from the inputs in place and the overlap-add rows are
    # handed out as the estimates: two output lengths plus O(N * BLOCK_FRAMES).
    # At 2 s the peak is also held to the budget `codec._resynthesize` and
    # `separate` document, at the default block of 64 frames: the C outputs,
    # the (1 + C, 64, N') encodings, the weigh's one (64, N') temporary, the
    # (2C, 64, L) frame and synthesis buffers (the engine frames the C
    # sources, not their mixture) and the (L, N') analysis copy. A block of
    # 68 frames or more fails it; at 10 s every added frame costs ~9 KB of
    # the harness's 5% `peak_mb` bound (~200 KB).
    block, n_sources = 64, 2
    rows, frame_len = mpgtf_bank.n_filters // 2, FP.frame_len  # the engine folds
    peaks = {}
    for seconds in (2.0, 32.0):
        item = make_sinusoid_mixture_items(1, seed=4, duration_s=seconds)[0]
        tracemalloc.start()
        try:
            separate(item.sources, mpgtf_bank, FP)
            peaks[seconds] = tracemalloc.get_traced_memory()[1], len(item.sources[0])
        finally:
            tracemalloc.stop()
    peak, n = peaks[32.0]
    assert peak < 3 * n * 8
    peak, n = peaks[2.0]
    budget = 8 * (n_sources * n
                  + (1 + n_sources) * block * rows
                  + block * rows
                  + 2 * n_sources * block * frame_len
                  + frame_len * rows)
    assert peak <= budget + 32 * 1024  # interpreter objects and the padded tails


def test_sources_whose_magnitude_sum_overflows_are_refused():
    # Opposite sources of ~1.6e307 encode finitely, but their magnitude sum
    # overflows to inf: mix / inf read 0 and gave wrong, finite estimates.
    x = np.sin(np.arange(800) / 3.0)
    sources = [Waveform(1.6e307 * x, FS), Waveform(-1.6e307 * x, FS)]
    with pytest.raises(ValueError, match="^filtering the signals with the bank overflows a float "):
        separate(sources, build_mpgtf(ErbParams(), 64, 16, FS), FP)


@given(
    seed=st.integers(0, 2**31 - 1),
    n_sources=st.sampled_from([2, 3, 4]),
    frames=st.integers(1, 70),
    rows=st.integers(1, 40),
    zero_frac=st.floats(0.0, 1.0),
    identical=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_mask_weigh_matches_ratio_masks_times_the_mixture(seed, n_sources, frames, rows, zero_frac, identical):
    rng = np.random.default_rng(seed)
    enc = rng.standard_normal((1 + n_sources, frames, rows)) * 10.0 ** rng.uniform(-3, 3, (1 + n_sources, 1, 1))
    if identical:  # the same magnitude, either sign
        enc[2] = enc[1] * rng.choice([-1.0, 1.0], (frames, rows))
    zero = rng.random((frames, rows)) < zero_frac
    enc[1:, zero] = 0.0
    mix = enc[0].copy()
    mags = np.abs(enc[1:])
    total = mags.sum(axis=0)
    masks = np.divide(mags, total, out=np.full_like(mags, 1.0 / n_sources), where=total > 0.0)
    masks[-1] = np.clip(1.0 - masks[:-1].sum(axis=0), 0.0, 1.0)
    ref = masks * mix

    out = _oracle_mask_weigh(enc)
    assert out.shape == (n_sources, frames, rows) and np.shares_memory(out, enc)
    assert np.max(np.abs(out - ref)) <= 1e-14 * max(1.0, float(np.max(np.abs(ref))))
    for coeffs in out:  # all-zero cells take the 1/C mask exactly
        assert np.array_equal(coeffs[zero], mix[zero] / n_sources)
    if identical:
        assert out[0].tobytes() == out[1].tobytes()


class TestSeparateErrors:
    """Every bad argument is rejected before any work, with the message of the
    whole-signal functions that used to raise it."""

    def test_encoder_frame_length(self, mpgtf_bank):
        s = tone(440.0, n=800)
        with pytest.raises(ValueError, match=re.escape("bank filter length 16 != frame length 8")):
            separate([s, s], mpgtf_bank, FrameParams(8, 4))

    def test_bank_signal_rate_mismatch(self, mpgtf_bank):
        s = Waveform(np.ones(800), 16000)
        with pytest.raises(ValueError, match=re.escape("sample rate mismatch: bank 8000 Hz, signal 16000 Hz")):
            separate([s, s], mpgtf_bank, FP)

    @pytest.mark.parametrize("source_len", [0, 800])
    def test_empty_mixture(self, mpgtf_bank, source_len):
        # an empty first source: the empty check comes before the length check
        empty = Waveform(np.zeros(0), FS)
        s = tone(440.0, n=source_len)
        with pytest.raises(ValueError, match=re.escape("empty input")):
            separate([empty, s], mpgtf_bank, FP)

    def test_an_empty_later_source_is_empty_input(self, mpgtf_bank):
        # any empty source, not only the first, is refused before the lengths are compared
        with pytest.raises(ValueError, match="^empty input$"):
            separate([tone(440.0, n=800), Waveform(np.zeros(0), FS)], mpgtf_bank, FP)

    def test_source_lengths_differ(self, mpgtf_bank):
        s = tone(440.0, n=800)
        with pytest.raises(ValueError, match="equal lengths"):
            separate([tone(440.0, n=801), s], mpgtf_bank, FP)

    def test_single_source(self, mpgtf_bank):
        s = tone(440.0)
        with pytest.raises(ValueError, match="at least 2"):
            separate([s], mpgtf_bank, FP)

    def test_no_signals_is_the_set_check_count_error(self, mpgtf_bank):
        # no signal for the engine's own checks to refuse: the set check names the count
        with pytest.raises(ValueError, match="^need at least 1 waveform, got 0$"):
            _resynthesize([], mpgtf_bank, FP, _oracle_mask_weigh, 2, relu=True)

    @pytest.mark.parametrize("call,message", [
        ("separate", "sample rate mismatch: bank 8000 Hz, signal 16000 Hz"),  # the engine's per-signal check
        ("oracle_irm_masks", "waveforms must share one sample rate, got [8000, 16000]"),
    ], ids=["separate", "oracle_irm_masks"])
    def test_sources_at_two_rates(self, mpgtf_bank, call, message):
        s = tone(440.0, n=800)
        sources = [s, Waveform(s.samples, 16000)]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            if call == "separate":
                separate(sources, mpgtf_bank, FP)
            else:
                oracle_irm_masks(sources, mpgtf_bank, FP)


def _model_mixture(sources, snr_db):
    """The mixer's arithmetic written out: (mixture, targets) as arrays.

    With head and tails cut to the common length, E1 = head . head and
    E_c = tail_c . tail_c; tail c is scaled by
    g_c = sqrt((E1 / E_c) * 10^(-snr_db / 10)), and the mixture adds the
    scaled tails to a copy of the head in source order.
    """
    n = min(len(s) for s in sources)
    head = sources[0].samples[:n]
    e1 = float(np.dot(head, head))
    targets = [head]
    total = head.copy()
    for s in sources[1:]:
        tail = s.samples[:n]
        g = math.sqrt((e1 / float(np.dot(tail, tail))) * 10.0 ** (-snr_db / 10.0))
        targets.append(tail * g)
        total += targets[-1]
    return total, targets


class TestMixtureItems:
    """`make_multi_mixture_item`: its gains, targets, mixture and refusals."""

    def test_equal_energy_zero_db(self):
        s1, s2 = wave([2.0, 0.0, 0.0, 0.0]), wave([1.0, -1.0, 1.0, -1.0])  # both of energy 4
        item = make_multi_mixture_item([s1, s2], 0.0)
        assert item.sources[1].samples.tobytes() == s2.samples.tobytes()  # a gain of exactly 1
        np.testing.assert_array_equal(item.mixture.samples, [3.0, -1.0, 1.0, -1.0])

    def test_equal_energy_plus_five_db(self):
        s1, s2 = wave([1.0, 0.0]), wave([0.0, -1.0])
        item = make_multi_mixture_item([s1, s2], 5.0)
        np.testing.assert_allclose(item.sources[1].samples, 10.0 ** -0.25 * s2.samples, rtol=1e-12, atol=0)
        np.testing.assert_allclose(item.mixture.samples, [1.0, -(10.0 ** -0.25)], rtol=1e-12, atol=0)

    def test_gain_compensates_source_scale(self):
        rng = np.random.default_rng(3)
        s1 = wave(rng.standard_normal(100))
        s2 = wave(rng.standard_normal(100))
        x1 = make_multi_mixture_item([s1, s2], 2.5).mixture
        x2 = make_multi_mixture_item([s1, wave(2.0 * s2.samples)], 2.5).mixture
        np.testing.assert_array_equal(x1.samples, x2.samples)

    @pytest.mark.parametrize("position", [1, 2, 3])
    def test_silent_source_is_named_by_position(self, position):
        sources = [wave([1.0, -2.0, 3.0]), wave([0.5, 0.5, 0.5, 7.0]), wave([-1.0, 2.0, 1.0])]
        sources[position - 1] = wave([0.0, 0.0, 0.0, 4.0])  # non-zero only past the common length
        message = f"silent source {position} of 3: its first 3 samples (the length the sources share) are all zero"
        with pytest.raises(SilentSourceError, match=f"^{re.escape(message)}$") as excinfo:
            make_multi_mixture_item(sources, 0.0)
        assert excinfo.value.position == position

    @pytest.mark.parametrize("position", [1, 2])
    def test_overflowing_energy_is_named_by_position(self, position):
        # a 1e200-scaled source: its sum of squares overflows, and the source is named, not the SNR
        sources = [wave([1.0, -2.0, 3.0]), wave([0.5, 0.5, 7.0])]
        sources[position - 1] = wave(1e200 * sources[position - 1].samples)
        message = f"source {position} of 2: its energy overflows a float"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_multi_mixture_item(sources, 0.0)

    def test_rate_mismatch(self):
        with pytest.raises(ValueError, match=r"^waveforms must share one sample rate, got \[8000, 16000\]$"):
            make_multi_mixture_item([wave([1.0]), Waveform(np.ones(1), 16000)], 0.0)

    def test_truncates_to_shorter(self):
        s1 = wave([1.0, 1.0, 1.0, 99.0])
        s2 = wave([1.0, -1.0, 1.0])  # the energy of s1's first 3 samples: a gain of exactly 1
        item = make_multi_mixture_item([s1, s2], 0.0)
        assert len(item.mixture) == 3
        assert item.sources[0].samples.tobytes() == s1.samples[:3].tobytes()
        assert item.sources[1].samples.tobytes() == s2.samples.tobytes()
        np.testing.assert_array_equal(item.mixture.samples, [2.0, 0.0, 2.0])

    @given(st.integers(0, 2**32 - 1), st.floats(-5, 5))
    @settings(max_examples=50, deadline=None)
    def test_requested_snr_is_achieved(self, seed, snr_db):
        rng = np.random.default_rng(seed)
        s1 = wave(rng.standard_normal(64))
        s2 = wave(rng.standard_normal(64))
        item = make_multi_mixture_item([s1, s2], snr_db)
        measured = 10.0 * np.log10(item.sources[0].energy() / item.sources[1].energy())
        assert measured == pytest.approx(snr_db, abs=1e-9)

    def test_invalid_spec(self):
        for snr_db in (math.nan, math.inf, -math.inf):  # refused ahead of the one-source error
            with pytest.raises(ValueError, match=f"^snr_db must be finite, got {snr_db!r}$"):
                make_multi_mixture_item([wave([1.0])], snr_db)

    def test_targets_and_mixture_are_read_only_and_share_no_memory(self):
        s1 = wave([1.0, -2.0, 3.0, 99.0])
        s2 = wave([1.0, -1.0, 1.0])
        s3 = wave([0.5, 2.0, -1.0])
        item = make_multi_mixture_item([s1, s2, s3], 1.0)
        outputs = [item.mixture.samples, *(t.samples for t in item.sources)]
        for i, out in enumerate(outputs):
            assert not out.flags.writeable
            assert out.base is None or not out.base.flags.writeable
            for other in [*outputs[:i], s1.samples, s2.samples, s3.samples]:
                assert not np.shares_memory(out, other)

    @pytest.mark.parametrize("snr_db", [-1e4, 1e4])
    def test_extreme_snr_is_typed_error(self, snr_db):
        # 10 ** 1000 overflows the gain to inf, and 10 ** -1000 underflows it to 0
        message = f"snr_db={snr_db!r} gives a mixing gain {math.inf if snr_db < 0 else 0.0!r} outside (0, inf)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_multi_mixture_item([wave([1.0, 2.0]), wave([2.0, -1.0])], snr_db)

    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(st.integers(1, 300), min_size=2, max_size=4, unique=True),
        snr_db=st.one_of(st.floats(-5, 5), st.sampled_from([-300.0, 300.0])),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_the_written_out_arithmetic_bitwise(self, seed, lengths, snr_db):
        rng = np.random.default_rng(seed)
        sources = [wave(rng.standard_normal(n)) for n in lengths]
        item = make_multi_mixture_item(sources, snr_db)
        total, targets = _model_mixture(sources, snr_db)
        assert item.mixture.samples.tobytes() == total.tobytes()
        for got, want in zip(item.sources, targets, strict=True):
            assert got.samples.tobytes() == want.tobytes()

    def test_mixture_is_sum_of_stored_sources(self):
        item = make_multi_mixture_item([tone(300.0), tone(2000.0)], 4.0)
        np.testing.assert_array_equal(
            item.mixture.samples, item.sources[0].samples + item.sources[1].samples
        )

    @pytest.mark.parametrize("lengths", [(900, 700), (700, 1000, 850)])
    def test_targets_are_gained_truncated_sources_bitwise(self, lengths):
        rng = np.random.default_rng(len(lengths))
        sources = [Waveform(rng.standard_normal(n), FS) for n in lengths]
        snr_db = -2.5
        item = make_multi_mixture_item(sources, snr_db)
        total, targets = _model_mixture(sources, snr_db)
        assert item.mixture.samples.tobytes() == total.tobytes()
        for target, expected in zip(item.sources, targets, strict=True):
            assert target.samples.tobytes() == expected.tobytes()
        for target in item.sources[1:]:
            measured = 10.0 * np.log10(item.sources[0].energy() / target.energy())
            assert measured == pytest.approx(snr_db, abs=1e-9)

    def test_empty_input(self):
        with pytest.raises(ValueError, match="^empty input$"):
            make_multi_mixture_item([tone(300.0), Waveform(np.zeros(0), FS)], 0.0)

    def test_single_source(self):
        with pytest.raises(ValueError, match="^need at least 2 waveforms, got 1$"):
            make_multi_mixture_item([tone(300.0)], 0.0)

    @pytest.mark.parametrize("sources,message", [
        ([tone(300.0)], "need at least 2 waveforms, got 1"),
        ([tone(300.0, n=800), tone(2000.0, n=801)], "waveforms must have equal lengths, got [800, 801]"),
        ([tone(300.0), Waveform(tone(2000.0).samples, 16000)],
         "waveforms must share one sample rate, got [8000, 16000]"),
    ], ids=["one-source", "two-lengths", "two-rates"])
    def test_item_refuses_sources_whose_sum_is_no_mixture(self, sources, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MixtureItem(tuple(sources))

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


def _sign_split_bank(rng, n_half, frame_len):
    half = rng.standard_normal((n_half, frame_len))
    return Filterbank(np.vstack([half, -half]), FS)


def _recording_rows(weigh, seen):
    """Wrap a weigh so it records the row count of every block it gets."""

    def wrapped(enc):
        seen.add(enc.shape[2])
        return weigh(enc)

    return wrapped


def _reference_estimates(mixture, sources, bank, p, apply_relu):
    """The whole-signal path: encode, oracle masks, decode through `pseudo_inverse(bank)`."""
    rep = encode(mixture, bank, p, apply_relu=apply_relu)
    masks = oracle_irm_masks(sources, bank, p)
    dec = pseudo_inverse(bank)
    return [decode(apply_mask(rep, mask), dec, p).samples[:len(mixture)] for mask in masks]


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
    # A [P; -P] bank runs only the rows of P, and of its pseudo-inverse decoder only Q.
    rng = np.random.default_rng(seed)
    hop = 1 + int(hop_frac * (frame_len - 1))
    p = FrameParams(frame_len, hop)
    bank = _sign_split_bank(rng, n_half, frame_len)
    samples = rng.standard_normal((n_sources, sig_len))
    if silent_span:  # all-zero cells take the 1/C mask
        samples[:, sig_len // 4:sig_len // 2] = 0.0
    sources = [Waveform(x, FS) for x in samples]
    mixture = Waveform(samples.sum(axis=0), FS)
    block_frames = 1 + int(block_frac * num_frames(sig_len, p))  # 1 .. count + 1

    refs = _reference_estimates(mixture, sources, bank, p, apply_relu)
    seen = set()
    with mock.patch.object(codec, "BLOCK_FRAMES", block_frames):
        outs = _resynthesize(sources, bank, p, _recording_rows(_oracle_mask_weigh, seen), n_sources,
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


def _unfoldable_bank(case, rng):
    """Banks that miss the fold's precondition, one of them by one bit."""
    split = _sign_split_bank(rng, 6, 8)
    if case == "encoder_one_ulp":
        return Filterbank(_one_ulp_up(split.taps, 8, 3), FS)
    if case == "odd_row_count":
        return Filterbank(np.vstack([split.taps, rng.standard_normal((1, 8))]), FS)
    return Filterbank(rng.standard_normal((12, 8)), FS)


@pytest.mark.parametrize("apply_relu", [True, False])
@pytest.mark.parametrize("case", ["encoder_one_ulp", "odd_row_count", "not_split"])
def test_unfoldable_banks_run_every_row(case, apply_relu):
    rng = np.random.default_rng(21)
    bank = _unfoldable_bank(case, rng)
    p = FrameParams(8, 3)
    samples = rng.standard_normal((2, 301))
    sources = [Waveform(x, FS) for x in samples]
    mixture = Waveform(samples.sum(axis=0), FS)
    seen = set()
    with mock.patch.object(codec, "BLOCK_FRAMES", 16):
        outs = _resynthesize(sources, bank, p, _recording_rows(_oracle_mask_weigh, seen), 2, relu=apply_relu)
    assert seen == {bank.n_filters}
    refs = _reference_estimates(mixture, sources, bank, p, apply_relu)
    for out, ref in zip(outs, refs):
        assert np.max(np.abs(out.samples - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))

    # The engine's relu is the one the weigh used to apply itself: same bits.
    def rectify_then_mask(enc):
        if apply_relu:
            np.maximum(enc[0], 0.0, out=enc[0])
        return _oracle_mask_weigh(enc)

    with mock.patch.object(codec, "BLOCK_FRAMES", 16):
        before = _resynthesize(sources, bank, p, rectify_then_mask, 2, relu=False)
    for out, old in zip(outs, before):
        assert out.samples.tobytes() == old.samples.tobytes()


#: Edge values for the library fuzz net: magnitudes from the smallest
#: subnormal to the largest float, and SNRs that overflow or underflow a gain.
_FUZZ_SCALES = [0.0, 1e-320, 1e-300, 1e-154, 1.0, 1e154, 1e155, 1e300, 1.7e308]
_FUZZ_SNRS_DB = [0.0, -1.0, 1e-320, 1.7e308, -1.7e308, 2e10, 99999999999999999999.0, math.inf, -math.inf, math.nan]


@given(
    n_sources=st.integers(2, 3),
    n_samples=st.integers(0, 64),
    extra=st.lists(st.integers(0, 8), min_size=3, max_size=3),
    scales=st.lists(st.floats(1e-3, 1e3) | st.floats(1e-320, 1.7e308) | st.sampled_from(_FUZZ_SCALES),
                    min_size=3, max_size=3),
    snr_db=st.floats(-30.0, 30.0) | st.floats(-400.0, 400.0) | st.sampled_from(_FUZZ_SNRS_DB),
    rates=st.sampled_from([(FS, FS, FS)] * 3 + [(FS, 16000, FS)]),
    bank_scale=st.sampled_from([1e-320, 1e-308, 1e-300, 1e-3, 1.0, 1e300, 1.7e308]),
    hop=st.integers(1, 4),
    apply_relu=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
# taps of 1e300 times samples of 7e8 overflow the encoding: a numpy warning in the engine's products
@example(n_sources=2, n_samples=1, extra=[0, 0, 0], scales=[703533040.0, 1.0, 1.0], snr_db=0.0, rates=(FS, FS, FS),
         bank_scale=1e300, hop=1, apply_relu=False, seed=0)
@settings(max_examples=150, deadline=None)
def test_mixes_separates_and_scores_or_raises_value_error(n_sources, n_samples, extra, scales, snr_db, rates,
                                                          bank_scale, hop, apply_relu, seed):
    # A regression net: pyproject.toml turns every warning into an error, so a
    # numpy warning on the way fails here, and so does any other exception.
    rng = np.random.default_rng(seed)
    sources = [Waveform(scale * rng.uniform(-1.0, 1.0, n_samples + more), fs)
               for more, scale, fs in zip(extra[:n_sources], scales, rates)]
    bank = Filterbank(bank_scale * rng.uniform(-1.0, 1.0, (6, 4)), FS)
    for estimate, reference in zip(sources, sources[::-1]):
        try:
            si_snr(estimate, reference)
        except ValueError:
            pass
    try:
        item = make_multi_mixture_item(sources, snr_db)
        estimates = separate(item.sources, bank, FrameParams(4, hop), apply_relu=apply_relu)
    except ValueError:
        return
    assert len(estimates) == len(sources)
    for estimate, source in zip(estimates, item.sources):
        try:
            assert isinstance(si_snr(estimate, source), float)
        except ValueError:
            pass
