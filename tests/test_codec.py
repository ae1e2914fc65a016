import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fblab import (
    ErbParams,
    Filterbank,
    FilterbankKind,
    FrameParams,
    StftMode,
    StftSpec,
    Waveform,
    analysis_matrix,
    build_mpgtf,
    build_stft_bank,
    decode,
    encode,
    istft_decoder,
    numerical_rank,
    pseudo_inverse,
    num_frames,
)
import fblab.codec as codec
from fblab.codec import _resynthesize, apply_mask
from fblab.dsp import _add_frames
from fblab.filterbank import PINV_RCOND
from fblab.separation import _oracle_mask_weigh

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


#: The engine's difference from the whole-signal reference, in units of
#: eps * cond(A) * max|ref|, may reach this multiple where that term
#: exceeds 1e-12 * max(1, max|ref|). Both paths decode through the
#: pseudo-inverse, which scales the rounding of the encodings by up to
#: cond(A); on thousands of random square banks (cond up to 1e5) the
#: difference stayed below 0.6 of the term, through every engine path.
COND_ERROR_MULTIPLE = 4.0


def assert_matches_reference(out, ref, taps):
    """|out - ref| <= 1e-12 * max(1, max|ref|), or COND_ERROR_MULTIPLE * eps * cond * max|ref| where larger.

    cond is sigma_max / sigma_rank of the taps, with the rank of
    `numerical_rank`: the singular values the pseudo-inverse keeps.
    """
    s = np.linalg.svd(taps, compute_uv=False)
    cond = s[0] / s[numerical_rank(taps) - 1]
    peak = float(np.max(np.abs(ref)))
    bound = max(1e-12 * max(1.0, peak), COND_ERROR_MULTIPLE * np.finfo(np.float64).eps * cond * peak)
    assert np.max(np.abs(out.samples - ref)) <= bound


class TestEncode:
    def test_impulse_filter_picks_first_frame_sample(self):
        # taps [0,...,0,1] means h(L) = 1, which multiplies x(i*D + 0)
        taps = np.zeros((1, 4))
        taps[0, 3] = 1.0
        bank = Filterbank(taps, FS)
        x = Waveform(np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]), FS)
        rep = encode(x, bank, FrameParams(4, 4), apply_relu=False)
        np.testing.assert_array_equal(rep, [[1.0, 5.0]])

    def test_zero_signal_zero_representation(self):
        rng = np.random.default_rng(0)
        bank = random_bank(rng)
        rep = encode(Waveform(np.zeros(32), FS), bank, FrameParams(8, 4), apply_relu=False)
        np.testing.assert_array_equal(rep, np.zeros_like(rep))

    def test_relu_zeroes_only_negative_entries(self):
        rng = np.random.default_rng(1)
        bank = random_bank(rng)
        x = Waveform(rng.standard_normal(32), FS)
        p = FrameParams(8, 4)
        lin = encode(x, bank, p, apply_relu=False)
        rect = encode(x, bank, p, apply_relu=True)
        np.testing.assert_array_equal(rect, np.maximum(lin, 0.0))
        assert np.any(lin < 0)
        for rep in (lin, rect):
            assert rep.dtype == np.float64 and rep.flags.c_contiguous and not rep.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                rep[0, 0] = 0.0

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
            np.testing.assert_array_equal(rep, naive_encode(x, bank.taps, length, hop, False))

    def test_linearity(self):
        rng = np.random.default_rng(3)
        bank = random_bank(rng)
        p = FrameParams(8, 3)
        x, y = rng.standard_normal((2, 40))
        a, b = 1.7, -0.4
        mixed = encode(Waveform(a * x + b * y, FS), bank, p, apply_relu=False)
        split = a * encode(Waveform(x, FS), bank, p, apply_relu=False) \
            + b * encode(Waveform(y, FS), bank, p, apply_relu=False)
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
@example(seed=449, n_filters=20, frame_len=20, hop_frac=0.0, sig_len=10, block_frac=0.0,
         apply_relu=False)  # cond 8.2e4: the difference, 2.27e-12, exceeds 1e-12 * max|ref|
def test_blocked_roundtrip_matches_whole_signal_reference(
    seed, n_filters, frame_len, hop_frac, sig_len, block_frac, apply_relu
):
    rng = np.random.default_rng(seed)
    hop = 1 + int(hop_frac * (frame_len - 1))
    p = FrameParams(frame_len, hop)
    bank = Filterbank(rng.standard_normal((n_filters, frame_len)), FS)
    x = Waveform(rng.standard_normal(sig_len), FS)
    block_frames = 1 + int(block_frac * num_frames(sig_len, p))  # 1 .. count + 1
    ref = decode(encode(x, bank, p, apply_relu=apply_relu), pseudo_inverse(bank), p).samples[:sig_len]
    with mock.patch.object(codec, "BLOCK_FRAMES", block_frames):
        (out,) = _resynthesize([x], bank, p, lambda enc: enc, 1, relu=apply_relu)
    assert out.sample_rate == FS and len(out) == sig_len
    assert not out.samples.flags.writeable
    assert_matches_reference(out, ref, bank.taps)


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
@example(seed=1684847065, n_half=22, frame_len=22, hop_frac=0.3359672153091189, sig_len=546,
         block_frac=0.3379968553572298, apply_relu=False)  # cond 3.7e4: 1.04e-11 against 8.6e-12
def test_folded_roundtrip_matches_whole_signal_reference(
    seed, n_half, frame_len, hop_frac, sig_len, block_frac, apply_relu
):
    # A [P; -P] bank runs only the rows of P, and of its pseudo-inverse decoder only Q.
    rng = np.random.default_rng(seed)
    hop = 1 + int(hop_frac * (frame_len - 1))
    p = FrameParams(frame_len, hop)
    half = rng.standard_normal((n_half, frame_len))
    bank = Filterbank(np.vstack([half, -half]), FS)
    dec = pseudo_inverse(bank)
    x = Waveform(rng.standard_normal(sig_len), FS)
    block_frames = 1 + int(block_frac * num_frames(sig_len, p))  # 1 .. count + 1
    ref = decode(encode(x, bank, p, apply_relu=apply_relu), dec, p).samples[:sig_len]
    seen = set()

    def identity(enc):
        seen.add(enc.shape[2])
        return enc

    with mock.patch.object(codec, "BLOCK_FRAMES", block_frames):
        (out,) = _resynthesize([x], bank, p, identity, 1, relu=apply_relu)
    assert seen == {n_half}
    assert out.sample_rate == FS and len(out) == sig_len
    assert_matches_reference(out, ref, bank.taps)


def sign_split_half(taps):
    """h if `taps` is [P; -P] bit for bit with P of h rows, else 0: the model of `Filterbank.sign_split_half`.

    An odd row count fails the shape check of `np.array_equal`.
    """
    h = taps.shape[0] // 2
    return h if h and np.array_equal(taps[h:], -taps[:h]) else 0


@st.composite
def fold_banks(draw):
    """Sign-split and plain banks, some one ulp off [P; -P], as built, loaded or pseudo-inverted."""
    kind = draw(st.sampled_from(["sign_split", "one_ulp_off", "odd", "plain", "mpgtf", "stft", "stft_linear"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    frame_len = draw(st.integers(1, 16))
    if kind in ("sign_split", "one_ulp_off", "odd"):
        half = rng.standard_normal((draw(st.integers(1, 12)), frame_len))
        taps = np.vstack([half, -half])
        if kind == "one_ulp_off":
            i, j = draw(st.integers(0, len(taps) - 1)), draw(st.integers(0, frame_len - 1))
            taps[i, j] = np.nextafter(taps[i, j], draw(st.sampled_from([-np.inf, np.inf])))
        elif kind == "odd":  # [P; -P] plus one row, or a single row
            taps = np.vstack([taps, rng.standard_normal((1, frame_len))]) if draw(st.booleans()) else half[:1]
        bank = Filterbank(taps, FS)
    elif kind == "plain":
        bank = random_bank(rng, draw(st.integers(1, 24)), frame_len)
    elif kind == "mpgtf":
        bank = build_mpgtf(ErbParams(), draw(st.sampled_from([64, 128, 512])), 16, FS)
    else:
        mode = StftMode.SIGN_SPLIT if kind == "stft" else StftMode.LINEAR
        bank = build_stft_bank(StftSpec(frame_len, draw(st.integers(1, 16)), mode), FS)
    return bank, draw(st.booleans()), draw(st.booleans())


@given(case=fold_banks())
@settings(max_examples=150, deadline=None)
def test_sign_split_half_matches_the_model(tmp_path_factory, case):
    from fblab import load_filterbank, save_filterbank

    bank, through_fbank1, inverted = case
    if through_fbank1:
        path = tmp_path_factory.mktemp("fold") / "bank.fbank"
        save_filterbank(path, bank)
        bank = load_filterbank(path)
    if inverted:
        bank = pseudo_inverse(bank)
    assert bank.sign_split_half == sign_split_half(bank.taps)


def test_sign_split_half_is_decided_once_per_bank():
    bank = Filterbank(np.vstack([np.eye(4), -np.eye(4)]), FS)
    with mock.patch.object(np, "array_equal", wraps=np.array_equal) as checks:
        signals = [Waveform(np.arange(40.0), FS)]
        for relu in (False, True):
            _resynthesize(signals, bank, FrameParams(4, 2), lambda enc: enc, 1, relu=relu)
        assert bank.sign_split_half == pseudo_inverse(bank).sign_split_half == 4
    assert checks.call_count == 2  # one per bank: the encoder, then its decoder


def model_resynthesize(signals, bank, p, weigh, n_out, *, relu, block_frames):
    """The engine as it ran on one zero-padded (S, (count-1)*D + L) copy of all inputs.

    Kept as the model that `_resynthesize`, which reads whole frames in
    place and pads only the tail, must match bit for bit. It decodes with
    the taps of the public `pseudo_inverse(bank)`, which are C-ordered, so
    an engine whose decoder rows BLAS reads in another order fails it. A
    weigh-free pass with no relu left to apply multiplies each block of
    frames by the L x L operator A^T * S and decodes nothing. With S > 1
    signals the weigh gets 1 + S rows: the sum of the encodings, added in
    signal order, then the encodings.
    """
    n = len(signals[0])
    count = num_frames(n, p)
    padded = np.zeros((len(signals), (count - 1) * p.hop + p.frame_len))
    for row, x in zip(padded, signals):
        row[:n] = x.samples
    windows = np.lib.stride_tricks.sliding_window_view(padded, p.frame_len, axis=1)[:, ::p.hop]
    block = min(block_frames, count)
    dec = pseudo_inverse(bank).taps
    h = sign_split_half(bank.taps)
    if h:
        analysis, rectify = analysis_matrix(bank)[:h], False
        synthesis = dec[:h] if relu else 2.0 * dec[:h]
    else:
        analysis, synthesis, rectify = analysis_matrix(bank), dec, relu
    operator = weigh is None and not rectify
    analysis_t = analysis.T @ synthesis if operator else np.ascontiguousarray(analysis.T)
    mixed = int(len(signals) > 1)
    frames = np.empty((len(signals), block, p.frame_len))
    enc = np.empty((mixed + len(signals), block, analysis_t.shape[1]))
    synth = enc if operator else np.empty((n_out, block, p.frame_len))
    rows = np.zeros((n_out, count - 1 + -(-p.frame_len // p.hop), p.hop))
    for first in range(0, count, block):
        k = min(block, count - first)
        np.copyto(frames[:, :k], windows[:, first:first + k])
        np.matmul(frames[:, :k], analysis_t, out=enc[mixed:, :k])
        if mixed:
            enc[0, :k] = enc[1, :k]
            for extra in enc[2:, :k]:
                enc[0, :k] += extra
        if rectify:
            np.maximum(enc[0, :k], 0.0, out=enc[0, :k])
        if not operator:
            coeffs = enc[:, :k] if weigh is None else weigh(enc[:, :k])
            np.matmul(coeffs, synthesis, out=synth[:, :k])
        _add_frames(rows, synth[:, :k], p.hop, first)
    return [out.ravel()[:n] for out in rows]


def assert_engine_matches_model(seed, frame_len, hop, sig_len, block_frames, n_sig, weigh, folded, relu):
    rng = np.random.default_rng(seed)
    p = FrameParams(frame_len, hop)
    if folded:
        half = rng.standard_normal((1 + seed % 8, frame_len))
        bank = Filterbank(np.vstack([half, -half]), FS)
    else:
        bank = random_bank(rng, n=1 + seed % 16, length=frame_len)
    if weigh == "oracle":
        weigh, n_sig, n_out = _oracle_mask_weigh, 2, 2  # two sources; the engine sums them into the mixture
    elif weigh == "none":
        weigh, n_sig, n_out = None, 1, 1
    else:
        weigh, n_out = (lambda enc: enc), n_sig + (n_sig > 1)  # the sum of the encodings too
    signals = [Waveform(x, FS) for x in rng.standard_normal((n_sig, sig_len))]
    with mock.patch.object(codec, "BLOCK_FRAMES", block_frames), \
            mock.patch.object(codec, "OPERATOR_BLOCK_FRAMES", block_frames):
        outs = _resynthesize(signals, bank, p, weigh, n_out, relu=relu)
    refs = model_resynthesize(signals, bank, p, weigh, n_out, relu=relu, block_frames=block_frames)
    assert len(outs) == n_out
    for out, ref in zip(outs, refs):
        assert np.array_equal(out.samples, ref)


@st.composite
def engine_cases(draw):
    """(L, D, n, block): free draws plus the edges of the in-place / padded split."""
    frame_len = draw(st.integers(1, 32))
    hop = draw(st.integers(1, frame_len))
    kind = draw(st.sampled_from(["free", "short", "exact", "no_tail", "straddle"]))
    if kind == "short" and frame_len > 1:  # no frame lies inside the signal
        sig_len = draw(st.integers(1, frame_len - 1))
    elif kind == "no_tail":  # n = L + j*D: every frame lies inside
        sig_len = frame_len + hop * draw(st.integers(0, (2000 - frame_len) // hop))
    elif kind == "straddle" and hop > 1:  # one padded frame, in a block with in-place ones
        sig_len = frame_len + hop * draw(st.integers(1, (2000 - frame_len) // hop - 1)) - draw(st.integers(1, hop - 1))
    elif kind in ("short", "exact", "straddle"):
        sig_len = frame_len
    else:
        sig_len = draw(st.integers(1, 2000))
    count = num_frames(sig_len, FrameParams(frame_len, hop))
    full = (sig_len - frame_len) // hop + 1 if sig_len >= frame_len else 0
    if kind == "straddle" and full < count:
        block = draw(st.sampled_from([b for b in range(2, count + 1) if full % b]))
    else:
        block = draw(st.integers(1, count + 1))
    return frame_len, hop, sig_len, block


@given(
    case=engine_cases(),
    seed=st.integers(0, 2**31 - 1),
    n_sig=st.integers(1, 3),
    weigh=st.sampled_from(["identity", "oracle", "none"]),
    folded=st.booleans(),
    relu=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_engine_framing_matches_padded_copy_model_bitwise(case, seed, n_sig, weigh, folded, relu):
    frame_len, hop, sig_len, block = case
    assert_engine_matches_model(seed, frame_len, hop, sig_len, block, n_sig, weigh, folded, relu)


@pytest.mark.parametrize(
    "frame_len,hop,sig_len,block",
    [
        (16, 8, 5, 1),  # n < L: only the padded frame
        (16, 8, 16, 1),  # n = L: one frame, inside
        (16, 8, 16 + 5 * 8, 3),  # n = L + j*D: no padded frame
        (16, 5, 16 + 4 * 5, 2),  # D does not divide L, no padded frame
        (16, 5, 16 + 4 * 5 + 3, 5),  # D does not divide L, padded frame alone in its block
        (16, 8, 16 + 9 * 8 + 3, 4),  # the last block straddles the split: frames 8, 9 inside, 10 padded
        (12, 7, 12 + 6 * 7 + 1, 5),  # straddling block with D not dividing L
        (1, 1, 7, 3),  # L = 1: every frame inside
    ],
)
@pytest.mark.parametrize("oracle", [False, True])
@pytest.mark.parametrize("folded", [False, True])
def test_engine_framing_edges_match_padded_copy_model_bitwise(frame_len, hop, sig_len, block, oracle, folded):
    weigh = "oracle" if oracle else "identity"
    assert_engine_matches_model(7, frame_len, hop, sig_len, block, 2, weigh, folded, relu=True)


@given(
    case=engine_cases(),
    seed=st.integers(0, 2**31 - 1),
    folded=st.booleans(),
    relu=st.booleans(),
)
@settings(max_examples=150, deadline=None)
@example(case=(16, 16, 1193, 70), seed=1585987471, folded=False,
         relu=False)  # cond 2.0e4: 3.6e-12 against 3.3e-12
def test_weigh_free_pass_matches_whole_signal_reference(case, seed, folded, relu):
    # One L x L frame operator per block: a [P; -P] bank, rectified or
    # not, or any other bank without relu.
    frame_len, hop, sig_len, block = case
    rng = np.random.default_rng(seed)
    p = FrameParams(frame_len, hop)
    if folded:
        half = rng.standard_normal((1 + seed % 32, frame_len))
        bank = Filterbank(np.vstack([half, -half]), FS)
    else:
        bank = random_bank(rng, n=1 + seed % 64, length=frame_len)
        relu = False
    x = Waveform(rng.standard_normal(sig_len), FS)
    ref = decode(encode(x, bank, p, apply_relu=relu), pseudo_inverse(bank), p).samples[:sig_len]
    count = num_frames(sig_len, p)
    with mock.patch.object(codec, "OPERATOR_BLOCK_FRAMES", block), \
            mock.patch.object(codec, "BLOCK_FRAMES", count + 1), \
            mock.patch.object(codec, "_add_frames", wraps=_add_frames) as add:
        (out,) = _resynthesize([x], bank, p, None, 1, relu=relu)
    assert add.call_count == -(-count // block)  # its blocks, not the engine's one
    assert out.sample_rate == FS and len(out) == sig_len
    assert not out.samples.flags.writeable
    assert_matches_reference(out, ref, bank.taps)


@given(case=engine_cases(), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_weigh_free_relu_through_a_plain_bank_stays_on_the_engine(case, seed):
    # A rectified encoding is not linear in the frame, so it runs the engine unchanged.
    frame_len, hop, sig_len, block = case
    rng = np.random.default_rng(seed)
    p = FrameParams(frame_len, hop)
    bank = random_bank(rng, n=1 + seed % 16, length=frame_len)
    x = Waveform(rng.standard_normal(sig_len), FS)
    with mock.patch.object(codec, "BLOCK_FRAMES", block):
        (free,) = _resynthesize([x], bank, p, None, 1, relu=True)
        (weighed,) = _resynthesize([x], bank, p, lambda enc: enc, 1, relu=True)
    assert np.array_equal(free.samples, weighed.samples)


@pytest.mark.parametrize("n_sig,n_out", [(2, 1), (1, 2)])
def test_weigh_free_pass_takes_one_signal_and_one_output(n_sig, n_out):
    rng = np.random.default_rng(15)
    bank = random_bank(rng)
    signals = [Waveform(x, FS) for x in rng.standard_normal((n_sig, 40))]
    with pytest.raises(ValueError, match="weigh=None takes one signal and n_out=1"):
        _resynthesize(signals, bank, FrameParams(8, 4), None, n_out, relu=False)


def engine_frame_operator(bank, relu):
    """The L x L operator a weigh-free pass applies, read back from the engine.

    At hop D = L, frame i of the flattened identity is e_i, so output frame
    i is row i of the operator.
    """
    frame_len = bank.filter_len
    x = Waveform(np.eye(frame_len).ravel(), bank.sample_rate)
    (out,) = _resynthesize([x], bank, FrameParams(frame_len, frame_len), None, 1, relu=relu)
    return out.samples.reshape(frame_len, frame_len)


@pytest.mark.parametrize("name", ["stft_signsplit", "mpgtf"])
def test_frame_operator_of_a_full_rank_folded_bank_is_half_the_identity(name):
    bank = build_stft_bank(StftSpec(), FS) if name == "stft_signsplit" else build_mpgtf(ErbParams(), 512, 16, FS)
    dec = pseudo_inverse(bank)
    assert numerical_rank(analysis_matrix(bank)) == 16
    h = sign_split_half(bank.taps)
    operator = analysis_matrix(bank)[:h].T @ dec.taps[:h]  # A_P^T * Q, closed form
    assert np.max(np.abs(operator - np.eye(16) / 2)) <= 1e-12
    assert np.array_equal(engine_frame_operator(bank, relu=True), operator)
    assert np.array_equal(engine_frame_operator(bank, relu=False), 2.0 * operator)


def test_frame_operator_of_a_rank_deficient_linear_bank_is_a_projector():
    from fblab import StftMode, StftSpec, build_stft_bank

    bank = build_stft_bank(StftSpec(16, 2, StftMode.LINEAR), FS)
    dec = pseudo_inverse(bank)
    assert numerical_rank(analysis_matrix(bank)) == 4
    operator = analysis_matrix(bank).T @ dec.taps  # A^T * pinv(A)^T = (pinv(A) A)^T
    assert np.max(np.abs(operator - operator.T)) <= 1e-12
    assert np.max(np.abs(operator @ operator - operator)) <= 1e-12
    assert abs(np.trace(operator) - 4.0) <= 1e-12
    assert np.array_equal(engine_frame_operator(bank, relu=False), operator)


@pytest.mark.parametrize("shape", [(4, 3), (0, 3)])
def test_numerical_rank_of_a_zero_or_empty_matrix_is_zero(shape):
    assert numerical_rank(np.zeros(shape)) == 0


def test_engine_outputs_are_read_only_and_share_memory_with_no_writable_array():
    rng = np.random.default_rng(3)
    p = FrameParams(8, 3)
    bank = random_bank(rng)
    signals = [Waveform(x, FS) for x in rng.standard_normal((3, 100))]
    seen = []

    def identity(enc):
        seen.append(enc)
        return enc

    with mock.patch.object(codec, "BLOCK_FRAMES", 4):
        outs = _resynthesize(signals, bank, p, identity, 4, relu=True)  # the sum, then the 3 signals
    assert max(enc.shape[1] for enc in seen) == 4  # the engine reads BLOCK_FRAMES at call time
    for i, out in enumerate(outs):
        base = out.samples
        while isinstance(base, np.ndarray):  # the owner of the memory, and every view on the way
            assert not base.flags.writeable
            base = base.base
        for other in [*seen, *(x.samples for x in signals), *(o.samples for o in outs[:i])]:
            assert not np.shares_memory(out.samples, other)
        with pytest.raises(ValueError):
            out.samples[0] = 1.0


class TestDecode:
    def test_zero_representation_gives_silence_of_correct_length(self):
        bank = random_bank(np.random.default_rng(6))
        out = decode(np.zeros((8, 5)), bank, FrameParams(8, 4))
        assert len(out) == 4 * 4 + 8
        np.testing.assert_array_equal(out.samples, np.zeros(24))

    def test_single_coefficient_emits_one_decoder_row(self):
        bank = random_bank(np.random.default_rng(7))
        values = np.zeros((8, 1))
        values[3, 0] = 2.5
        out = decode(values, bank, FrameParams(8, 8))
        np.testing.assert_allclose(out.samples, 2.5 * bank.taps[3], rtol=1e-15)

    def test_row_count_mismatch(self):
        bank = random_bank(np.random.default_rng(8))
        with pytest.raises(ValueError, match="^decoder has 8 filters but representation has 7 rows$"):
            decode(np.zeros((7, 5)), bank, FrameParams(8, 4))

    def test_filter_length_mismatch(self):
        bank = random_bank(np.random.default_rng(8), length=6)
        with pytest.raises(ValueError, match="^decoder filter length 6 != frame length 8$"):
            decode(np.zeros((8, 5)), bank, FrameParams(8, 4))

    def test_zero_frames_are_refused(self):
        # L - D samples of silence is what an unchecked overlap-add of no frames gives
        bank = random_bank(np.random.default_rng(8), length=16)
        with pytest.raises(ValueError, match="^no frames to overlap-add$"):
            decode(np.zeros((8, 0)), bank, FrameParams(16, 8))

    @pytest.mark.parametrize("shape", [(8,), (1, 8, 5)])
    def test_representation_must_be_2d(self, shape):
        bank = random_bank(np.random.default_rng(8))
        with pytest.raises(ValueError, match=re.escape(f"representation must be 2-D, got shape {shape}")):
            decode(np.zeros(shape), bank, FrameParams(8, 4))


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
        y = decode(encode(x, bank, p, apply_relu=False), dec, p)
        np.testing.assert_allclose(y.samples, x.samples, atol=1e-9 * np.max(np.abs(x.samples)))

    @pytest.fixture
    def bank(self, request):
        from fblab import ErbParams, StftMode, StftSpec, build_mpgtf, build_parampgtf, build_stft_bank

        if request.param == "mpgtf":
            return build_mpgtf(ErbParams(), 512, 16, FS)
        if request.param == "parampgtf":
            return build_parampgtf(ErbParams(27.0, 8.5), 512, 16, FS)
        if request.param == "stft_signsplit":  # the default: 128 frequencies, overcomplete
            return build_stft_bank(StftSpec(), FS)
        if request.param == "stft_complete":
            return build_stft_bank(StftSpec(frame_len=16, n_freqs=8), FS)
        if request.param == "stft_linear":  # rank 4 < L, and not sign-split
            return build_stft_bank(StftSpec(frame_len=16, n_freqs=2, mode=StftMode.LINEAR), FS)
        if request.param == "plain":
            return Filterbank(np.random.default_rng(15).standard_normal((24, 16)), FS)
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

    @pytest.mark.parametrize("bank", ["mpgtf", "stft_signsplit", "stft_linear", "duplicated_rows", "plain"],
                             indirect=True)
    def test_pinv_rows_are_the_decoder_rows_read_only_and_c_ordered(self, bank):
        # The engine decodes with these rows; BLAS rounds a product with an
        # F-ordered operand differently, so C order keeps its output bitwise.
        rows = bank.pinv_rows
        assert rows.flags.c_contiguous and not rows.flags.writeable
        assert bank.pinv_rows is rows  # computed once per bank
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0
        a, h = analysis_matrix(bank), bank.sign_split_half
        if h:  # Q = 1/2 pinv(A_P)^T, and the decoder is [Q; -Q]
            assert rows.tobytes() == np.ascontiguousarray(0.5 * np.linalg.pinv(a[:h], rcond=PINV_RCOND).T).tobytes()
            assert pseudo_inverse(bank).taps.tobytes() == np.vstack([rows, -rows]).tobytes()
        else:
            assert rows.tobytes() == np.ascontiguousarray(np.linalg.pinv(a, rcond=PINV_RCOND).T).tobytes()
            assert pseudo_inverse(bank).taps.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("bank", [build_mpgtf(ErbParams(), 128, 16, FS), build_stft_bank(StftSpec(), FS)],
                             ids=["mpgtf", "stft"])
    def test_decoder_carries_taps_and_rate_alone(self, bank):
        # A decoder is not a member of its encoder's family: no kind, centres or
        # ERB parameters, so `istft_decoder` refuses a decoder of an STFT bank.
        dec = pseudo_inverse(bank)
        assert (dec.kind, dec.center_freqs, dec.erb_params) == (FilterbankKind.CUSTOM, None, None)
        assert dec.sample_rate == bank.sample_rate
        with pytest.raises(ValueError, match="^istft_decoder requires an STFT bank, got kind='custom'$"):
            istft_decoder(dec)


class TestMask:
    def test_out_of_range_rejected(self):
        rep = np.ones((1, 2))
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            apply_mask(rep, np.array([[0.5, 1.5]]))
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            apply_mask(rep, np.array([[-0.1, 0.5]]))

    def test_nan_rejected(self):
        rep = np.ones((1, 2))
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            apply_mask(rep, np.array([[np.nan, 0.5]]))

    def test_identity_mask(self):
        rep = np.abs(np.random.default_rng(12).standard_normal((4, 3)))
        out = apply_mask(rep, np.ones((4, 3)))
        np.testing.assert_array_equal(out, rep)

    def test_zero_mask(self):
        rep = np.ones((4, 3))
        out = apply_mask(rep, np.zeros((4, 3)))
        np.testing.assert_array_equal(out, np.zeros((4, 3)))

    def test_complementary_masks_partition(self):
        rng = np.random.default_rng(13)
        rep = np.abs(rng.standard_normal((4, 3)))
        m = rng.uniform(0, 1, size=(4, 3))
        total = apply_mask(rep, m) + apply_mask(rep, 1.0 - m)
        np.testing.assert_allclose(total, rep, rtol=1e-15)

    def test_shape_mismatch(self):
        rep = np.ones((4, 3))
        with pytest.raises(ValueError, match="shape"):
            apply_mask(rep, np.ones((3, 4)))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_encode_decode_identity_property(seed):
    rng = np.random.default_rng(seed)
    bank = Filterbank(rng.standard_normal((24, 6)), FS)
    x = Waveform(rng.standard_normal(36), FS)
    p = FrameParams(6, 6)
    y = decode(encode(x, bank, p, apply_relu=False), pseudo_inverse(bank), p)
    np.testing.assert_allclose(y.samples, x.samples, atol=1e-9 * max(1.0, np.max(np.abs(x.samples))))

