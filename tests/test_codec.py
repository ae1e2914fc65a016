from unittest import mock

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
    decode,
    encode,
    numerical_rank,
    pseudo_inverse,
    num_frames,
)
import fblab.codec as codec
from fblab.codec import PINV_RCOND, _resynthesize, _sign_split_half, apply_mask
from fblab.dsp import _add_frames
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
    with mock.patch.object(codec, "BLOCK_FRAMES", block_frames):
        (out,) = _resynthesize([x], bank, dec, p, lambda enc: enc, 1, relu=apply_relu)
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
        seen.add(enc.shape[2])
        return enc

    with mock.patch.object(codec, "BLOCK_FRAMES", block_frames):
        (out,) = _resynthesize([x], bank, dec, p, identity, 1, relu=apply_relu)
    assert seen == {n_half}
    assert out.sample_rate == FS and len(out) == sig_len
    assert np.max(np.abs(out.samples - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


def model_resynthesize(signals, enc_bank, dec_bank, p, weigh, n_out, *, relu, block_frames):
    """The engine as it ran on one zero-padded (S, (count-1)*D + L) copy of all inputs.

    Kept as the model that `_resynthesize`, which reads whole frames in
    place and pads only the tail, must match bit for bit. A weigh-free
    pass with no relu left to apply multiplies each block of frames by the
    L x L operator A^T * S and decodes nothing.
    """
    n = len(signals[0])
    count = num_frames(n, p)
    padded = np.zeros((len(signals), (count - 1) * p.hop + p.frame_len))
    for row, x in zip(padded, signals):
        row[:n] = x.samples
    windows = np.lib.stride_tricks.sliding_window_view(padded, p.frame_len, axis=1)[:, ::p.hop]
    block = min(block_frames, count)
    h = _sign_split_half(enc_bank.taps)
    if h and _sign_split_half(dec_bank.taps):
        analysis, rectify = analysis_matrix(enc_bank)[:h], False
        synthesis = dec_bank.taps[:h] if relu else 2.0 * dec_bank.taps[:h]
    else:
        analysis, synthesis, rectify = analysis_matrix(enc_bank), dec_bank.taps, relu
    operator = weigh is None and not rectify
    analysis_t = analysis.T @ synthesis if operator else np.ascontiguousarray(analysis.T)
    frames = np.empty((len(signals), block, p.frame_len))
    enc = np.empty((len(signals), block, analysis_t.shape[1]))
    synth = enc if operator else np.empty((n_out, block, p.frame_len))
    rows = np.zeros((n_out, count - 1 + -(-p.frame_len // p.hop), p.hop))
    for first in range(0, count, block):
        k = min(block, count - first)
        np.copyto(frames[:, :k], windows[:, first:first + k])
        np.matmul(frames[:, :k], analysis_t, out=enc[:, :k])
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
        dec = pseudo_inverse(bank)
    else:
        bank = random_bank(rng, n=1 + seed % 16, length=frame_len)
        dec = random_bank(rng, n=bank.n_filters, length=frame_len)
    if weigh == "oracle":
        weigh, n_sig, n_out = _oracle_mask_weigh, 3, 2  # the mixture and two sources
    elif weigh == "none":
        weigh, n_sig, n_out = None, 1, 1
    else:
        weigh, n_out = (lambda enc: enc), n_sig
    signals = [Waveform(x, FS) for x in rng.standard_normal((n_sig, sig_len))]
    with mock.patch.object(codec, "BLOCK_FRAMES", block_frames), \
            mock.patch.object(codec, "OPERATOR_BLOCK_FRAMES", block_frames):
        outs = _resynthesize(signals, bank, dec, p, weigh, n_out, relu=relu)
    refs = model_resynthesize(signals, bank, dec, p, weigh, n_out, relu=relu, block_frames=block_frames)
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
def test_weigh_free_pass_matches_whole_signal_reference(case, seed, folded, relu):
    # One L x L frame operator per block: a [P; -P] bank with its
    # pseudo-inverse, rectified or not, or any pair of banks without relu.
    frame_len, hop, sig_len, block = case
    rng = np.random.default_rng(seed)
    p = FrameParams(frame_len, hop)
    if folded:
        half = rng.standard_normal((1 + seed % 32, frame_len))
        bank = Filterbank(np.vstack([half, -half]), FS)
        dec = pseudo_inverse(bank)
    else:
        bank = random_bank(rng, n=1 + seed % 64, length=frame_len)
        dec = random_bank(rng, n=bank.n_filters, length=frame_len)
        relu = False
    x = Waveform(rng.standard_normal(sig_len), FS)
    ref = decode(encode(x, bank, p, apply_relu=relu), dec).samples[:sig_len]
    count = num_frames(sig_len, p)
    with mock.patch.object(codec, "OPERATOR_BLOCK_FRAMES", block), \
            mock.patch.object(codec, "BLOCK_FRAMES", count + 1), \
            mock.patch.object(codec, "_add_frames", wraps=_add_frames) as add:
        (out,) = _resynthesize([x], bank, dec, p, None, 1, relu=relu)
    assert add.call_count == -(-count // block)  # its blocks, not the engine's one
    assert out.sample_rate == FS and len(out) == sig_len
    assert not out.samples.flags.writeable
    assert np.max(np.abs(out.samples - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


@given(case=engine_cases(), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_weigh_free_relu_through_a_plain_bank_stays_on_the_engine(case, seed):
    # A rectified encoding is not linear in the frame, so it runs the engine unchanged.
    frame_len, hop, sig_len, block = case
    rng = np.random.default_rng(seed)
    p = FrameParams(frame_len, hop)
    bank = random_bank(rng, n=1 + seed % 16, length=frame_len)
    dec = random_bank(rng, n=bank.n_filters, length=frame_len)
    x = Waveform(rng.standard_normal(sig_len), FS)
    with mock.patch.object(codec, "BLOCK_FRAMES", block):
        (free,) = _resynthesize([x], bank, dec, p, None, 1, relu=True)
        (weighed,) = _resynthesize([x], bank, dec, p, lambda enc: enc, 1, relu=True)
    assert np.array_equal(free.samples, weighed.samples)


@pytest.mark.parametrize("n_sig,n_out", [(2, 1), (1, 2)])
def test_weigh_free_pass_takes_one_signal_and_one_output(n_sig, n_out):
    rng = np.random.default_rng(15)
    bank, dec = random_bank(rng), random_bank(rng)
    signals = [Waveform(x, FS) for x in rng.standard_normal((n_sig, 40))]
    with pytest.raises(ValueError, match="weigh=None takes one signal and n_out=1"):
        _resynthesize(signals, bank, dec, FrameParams(8, 4), None, n_out, relu=False)


def engine_frame_operator(bank, dec, relu):
    """The L x L operator a weigh-free pass applies, read back from the engine.

    At hop D = L, frame i of the flattened identity is e_i, so output frame
    i is row i of the operator.
    """
    frame_len = bank.filter_len
    x = Waveform(np.eye(frame_len).ravel(), bank.sample_rate)
    (out,) = _resynthesize([x], bank, dec, FrameParams(frame_len, frame_len), None, 1, relu=relu)
    return out.samples.reshape(frame_len, frame_len)


@pytest.mark.parametrize("name", ["stft_signsplit", "mpgtf"])
def test_frame_operator_of_a_full_rank_folded_bank_is_half_the_identity(name):
    from fblab import ErbParams, StftSpec, build_mpgtf, build_stft_bank

    bank = build_stft_bank(StftSpec(), FS) if name == "stft_signsplit" else build_mpgtf(ErbParams(), 512, 16, FS)
    dec = pseudo_inverse(bank)
    assert numerical_rank(analysis_matrix(bank)) == 16
    h = _sign_split_half(bank.taps)
    operator = analysis_matrix(bank)[:h].T @ dec.taps[:h]  # A_P^T * Q, closed form
    assert np.max(np.abs(operator - np.eye(16) / 2)) <= 1e-12
    assert np.array_equal(engine_frame_operator(bank, dec, relu=True), operator)
    assert np.array_equal(engine_frame_operator(bank, dec, relu=False), 2.0 * operator)


def test_frame_operator_of_a_rank_deficient_linear_bank_is_a_projector():
    from fblab import StftMode, StftSpec, build_stft_bank

    bank = build_stft_bank(StftSpec(16, 2, StftMode.LINEAR), FS)
    dec = pseudo_inverse(bank)
    assert numerical_rank(analysis_matrix(bank)) == 4
    operator = analysis_matrix(bank).T @ dec.taps  # A^T * pinv(A)^T = (pinv(A) A)^T
    assert np.max(np.abs(operator - operator.T)) <= 1e-12
    assert np.max(np.abs(operator @ operator - operator)) <= 1e-12
    assert abs(np.trace(operator) - 4.0) <= 1e-12
    assert np.array_equal(engine_frame_operator(bank, dec, relu=False), operator)


def test_engine_outputs_are_read_only_and_share_memory_with_no_writable_array():
    rng = np.random.default_rng(3)
    p = FrameParams(8, 3)
    bank, dec = random_bank(rng), random_bank(rng)
    signals = [Waveform(x, FS) for x in rng.standard_normal((3, 100))]
    seen = []

    def identity(enc):
        seen.append(enc)
        return enc

    with mock.patch.object(codec, "BLOCK_FRAMES", 4):
        outs = _resynthesize(signals, bank, dec, p, identity, 3, relu=True)
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

