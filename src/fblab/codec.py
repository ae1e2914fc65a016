"""Encoder/decoder transforms over a filterbank, and pseudo-inverse decoders.

The encoder is a strided FIR analysis transform: frame i of the input is
correlated against the time-reversed taps of every filter (a true
convolution), optionally rectified so the representation is nonnegative:

    X[n, i] = H( sum_l x[i*D + l] * taps[n, L-1-l] )

The decoder synthesizes one frame per column as a tap-weighted sum of
decoder rows and overlap-adds them at hop D. A decoder built from the
Moore-Penrose pseudo-inverse of the analysis matrix makes
decode(encode(x)) the identity for full-rank banks when D = L. The
pipeline decodes with that decoder only: the engine takes its rows from
the bank, `Filterbank.pinv_rows`, computed once per bank.

There are two encoders: the frame-blocked engine that does the work, and
the bitwise whole-signal `encode` that pins its arithmetic.

The pipeline (`separation.separate` and `fblab roundtrip`) runs the
engine, `_resynthesize`: per block of k <= `BLOCK_FRAMES` frames it
encodes every input signal with one batched BLAS product, lets the
caller weigh the encodings into synthesis coefficients in place, decodes
them with one more product and overlap-adds the frames into the outputs.
The block is frame-major: the S signals' (k, L) frames times one
contiguous (L, N') copy of the analysis matrix give the (S, k, N')
encodings, and the (n_out, k, N') coefficients times the (N', L)
synthesis rows give the output frames (N' is the number of rows the
engine runs; see the fold below). Both products then read and write
unit-stride rows, which BLAS runs faster than the transposed (N', k)
layout.
With more than one signal, the block the weigh sees starts with one more
row, the sum of the S encodings. Encoding is linear, so that row is the
encoding of the signals' sum, within rounding: a separation's mixture is
derived from its sources block by block and is never itself framed or
encoded, so C sources take C encode rows per frame, not C + 1, and no
caller has to hold the mixture as a signal.
No frame couples to another further away than one frame length, so its
work buffers are O(N * BLOCK_FRAMES) however long the signal is, and no
N x I array is built. It frames every input with `dsp._framed`, as
`encode` does, so it copies no signal-long array. The n_out overlap-add
accumulators become the returned waveforms without a copy, so besides
its inputs the engine holds n_out signal lengths, the padded tails and
the work buffers. A weigh-free pass, as `fblab roundtrip` makes, runs
no frames, encodings or overlap-add, but one windowed product per block
of output rows (see below).
BLAS sums a product's columns in an order that depends on how many
columns it has, so the engine agrees with the whole-signal path within
rounding, not bitwise; for a fixed block size its output is
deterministic. The pseudo-inverse scales the rounding of the encodings
by up to cond(A) = sigma_max / sigma_rank of the analysis matrix, so the
two differ by up to about eps * cond(A) of the output's peak: 1e-15 of
it on the default banks (cond < 10), 1e-12 on a random 20 x 20 bank of
cond 8e4. Tests bound the difference by 1e-12 of the peak, or by 4 * eps *
cond(A) of it where that is larger.

Sign-split banks fold. Every multi-phase gammatone bank and every
sign-split STFT bank is `[P; -P]` bit for bit; when the bank has that
form, its pseudo-inverse does too: `[Q; -Q]`, again bit for bit, with Q
the bank's `pinv_rows`. A negated row has the same magnitude, so it gets
the same ratio mask, and with a weigh that is linear in row 0 of the
block (the sum of the encodings)

    relu(e) * Q + relu(-e) * (-Q) = e * Q,    e * Q + (-e) * (-Q) = 2 * e * Q.

So when the bank has that form, which `Filterbank.sign_split_half`
decides once per bank, the engine encodes, weighs and decodes only the
rows of P, skips the relu and decodes with Q (rectified) or 2*Q (linear).
That halves its work; any other bank runs every row. Since Q is half the
pseudo-inverse decoder of P alone, a rectified encoding through such a
bank decodes to half of what the linear one does, a scale SI-SNR does not
see.

Weigh-free passes collapse. With no weigh (`fblab roundtrip` passes
`weigh=None`) and no relu left to apply, because the bank folds or relu
is off, every frame maps linearly. For A the analysis rows the engine runs
(P when it folds, every row otherwise) and S its synthesis (Q, 2*Q or the
whole pseudo-inverse decoder),

    frame -> (frame * A^T) * S = frame * (A^T * S) = frame * M,

with M the L x L frame operator: the projector onto the bank's row space
(halved for a rectified fold), so I or I/2 at full rank. Overlap-added at
hop D, the pass is then a periodically time-varying FIR filter (the
polyphase view of a filter bank: Vaidyanathan, Multirate Systems and
Filter Banks, 1993, ch. 5). Each D-sample output row sums the P =
ceil(L/D) frames that reach it, and those frames span one window of
Lw = (P-1)*D + L input samples, so the row is that window times one
(Lw, D) polyphase matrix B built once from M. So `_weigh_free_pass`
builds no frames, no encodings and no overlap-add: it copies the windows
of a block of `OPERATOR_BLOCK_FRAMES` rows into one buffer and runs one
(k, Lw) x (Lw, D) product straight into the output: Lw * D multiply-adds
per output row (192 at L = 16, hop 8) against 2 * N' * L for the engine
(8192 on the default 512 x 16 banks). The at most 2P - 2 rows at the
ends, where frames are missing, take their own sums of B. A relu pass
through a bank that is not sign-split rectifies each encoding, is not
linear in the frame and runs the full engine. Both forms sum the same
products, grouped differently: the engine rounds the N' encodings of a
frame and the overlap-add, the windowed form rounds the entries of M and
B. So they agree within rounding, not bitwise, under the same
conditioning-scaled bound as above. At D = L, P = 1 and B = M: each row
is one frame times M, grouped in the same blocks as a frame-by-frame
product.

The whole-signal functions are the reference the tests compare against,
and the public API for inspecting a representation:

- `encode` is the bitwise reference encoder. It accumulates over the tap
  index in fixed ascending order and matches a naive loop evaluation
  exactly (acceptance criterion 08 pins this).
- A representation is the read-only (N, I) float64 array `encode`
  returns; `decode` takes it with the framing that made it, and a mask
  for `apply_mask` is a plain array of its shape with entries in [0, 1].
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .dsp import FrameParams, Waveform, _add_frames, _check_waveforms, _framed, frame_signal, num_frames, overlap_add
from .filterbank import Filterbank

#: Frames per block of `_resynthesize`. Measured on 512-filter banks, L = 16,
#: hop 8: 64 was fastest on both 0.5 s and 10 s items, and every size from
#: 32 to 512 stayed within 1.5x of it; a block's working set (~1 MB) then
#: fits in L2. Re-measured with frame-major blocks and the 3C + 1 pass mask
#: weigh (two-source `separate`, default mpgtf bank folded to N' = 256,
#: OpenBLAS on 1 thread of a shared 2-core host), ms per call at
#: 32 / 64 / 128 / 256 frames: 36.3 / 31.7 / 30.2 / 38.8 on 10 s and
#: 1.94 / 1.78 / 1.53 / 1.66 on 0.5 s. 128 is a little faster, but every
#: frame of block adds (S + 1) * N' floats of work buffers: the tracemalloc
#: peak of that `separate` on 2 s rises from 0.87 to 1.43 MB, and the
#: harness's `peak_mb` from 4.04 to 4.56 MB on `separate_10s` and from
#: 0.82 to 1.38 MB on `train_fd`, against a 5% bound.
#: `tests/test_separation.py` holds the peak to the budget at 64 frames.
BLOCK_FRAMES = 64

#: Output rows (D samples each) per block of a weigh-free `_resynthesize`
#: pass, which runs one (k, Lw) x (Lw, D) windowed product per block.
#: Measured on 60 s at 8 kHz, L = 16, hop 8 (Lw = 24), the default STFT bank,
#: OpenBLAS on 1 thread of a shared 2-core host, median ms per pass of 40,
#: three runs: 2.6-2.8 / 2.1-2.2 / 1.9-2.0 / 1.9-2.0 / 2.0-2.7 at 256 / 512 /
#: 1024 / 2048 / 4096 rows. The (k, Lw) window buffer is the pass's only
#: block-sized array.
OPERATOR_BLOCK_FRAMES = 1024


def analysis_matrix(bank: Filterbank) -> np.ndarray:
    """Tap matrix as applied by the encoder: column l holds taps[:, L-1-l]."""
    return bank.taps[:, ::-1]


def _check_encode_args(x: Waveform, bank: Filterbank, p: FrameParams) -> None:
    if bank.sample_rate != x.sample_rate:
        raise ValueError(f"sample rate mismatch: bank {bank.sample_rate} Hz, signal {x.sample_rate} Hz")
    if bank.filter_len != p.frame_len:
        raise ValueError(f"bank filter length {bank.filter_len} != frame length {p.frame_len}")


def encode(x: Waveform, bank: Filterbank, p: FrameParams, apply_relu: bool = True) -> np.ndarray:
    """Analysis transform of `x` through `bank` at framing `p` (bitwise reference).

    Returns the read-only (N, I) float64 representation. The inner
    products accumulate over the tap index in fixed ascending order, so
    the result is bit-reproducible and matches a naive loop evaluation of
    the analysis sum exactly.
    """
    _check_encode_args(x, bank, p)
    frames = frame_signal(x, p)  # (I, L)
    rev = analysis_matrix(bank)  # (N, L)
    values = np.zeros((bank.n_filters, frames.shape[0]), dtype=np.float64)
    for l in range(p.frame_len):
        values += rev[:, l:l + 1] * frames[:, l][None, :]
    if apply_relu:
        values = np.maximum(values, 0.0)
    values.setflags(write=False)
    return values


def decode(rep: np.ndarray, dec_bank: Filterbank, p: FrameParams) -> Waveform:
    """Synthesize an (N, I) representation framed by `p`: frame i = sum_n rep[n, i] * dec_taps[n], then OLA."""
    if rep.ndim != 2:
        raise ValueError(f"representation must be 2-D, got shape {rep.shape}")
    if dec_bank.n_filters != rep.shape[0]:
        raise ValueError(f"decoder has {dec_bank.n_filters} filters but representation has {rep.shape[0]} rows")
    if dec_bank.filter_len != p.frame_len:
        raise ValueError(f"decoder filter length {dec_bank.filter_len} != frame length {p.frame_len}")
    frames = (dec_bank.taps.T @ rep).T  # (I, L)
    return overlap_add(frames, p, dec_bank.sample_rate)


def _resynthesize(
    signals: Sequence[Waveform],
    bank: Filterbank,
    p: FrameParams,
    weigh: Callable[[np.ndarray], np.ndarray] | None,
    n_out: int,
    *,
    relu: bool,
) -> list[Waveform]:
    """Encode S equal-length signals, weigh, decode and overlap-add, block by block.

    For each block of k <= `BLOCK_FRAMES` frames, the S signals are
    encoded linearly through `bank` with one product, and the weigh gets
    the frame-major block of their encodings. With S = 1 that is the
    (1, k, N) encoding itself. With S > 1 it is (1 + S, k, N): row 0 is
    the sum of the S encodings, added in signal order with one `np.add`
    per signal after the first, and rows 1 .. S are the encodings. So the
    sum of the signals, the mixture of a separation, is never framed or
    encoded. Row 0 is rectified first if `relu`. The weigh overwrites the
    array in place and returns an (n_out, k, N) view of it holding
    synthesis coefficients. Those are decoded through the bank's
    pseudo-inverse, whose rows `bank.pinv_rows` gives, and overlap-added
    in increasing frame order into `n_out` outputs, each trimmed to the
    input length.

    Nothing signal-long is copied: `dsp._framed` gives the frames, and the
    overlap-add rows are frozen and handed out as the outputs. Besides its
    inputs and the n_out outputs, a call holds, allocated once and never
    escaping it: the (1 + S, BLOCK_FRAMES, N) encodings (S = 1: one row),
    the (S + n_out, BLOCK_FRAMES, L) frame and synthesis buffers, an
    (L, N) copy of the analysis matrix and the padded tails. Temporaries
    of the weigh come on top (one (k, N) array for the oracle mask). A
    weigh-free pass holds no frames, encodings or synthesis buffer: besides
    its input and output it holds the (OPERATOR_BLOCK_FRAMES, Lw) window
    buffer, the L x L operator, the (P, Lw, D) slabs of B and B itself,
    with P = ceil(L / D) and Lw = (P - 1)*D + L, and one padded window.

    If the bank is [P; -P], as its `Filterbank.sign_split_half` says, the
    weigh gets only the rows of P (N/2 of them), row 0 is not rectified,
    and the coefficients are decoded with Q = `bank.pinv_rows` if `relu`,
    else with 2*Q (see the module docstring). That is exact for a weigh
    that is linear in row 0 and reads the other rows only through their
    magnitudes, as the oracle mask and the identity are; other weighs must
    not be given a sign-split bank.

    `weigh=None` means no weigh at all; it takes one signal and
    `n_out == 1`. If the bank folds or `relu` is off, the pass is then
    linear per frame: `_weigh_free_pass` maps the signal through the L x L
    frame operator, one windowed product per block of
    `OPERATOR_BLOCK_FRAMES` output rows, with no frames and no overlap-add
    (see the module docstring); otherwise it is the full engine with the
    identity weigh.

    Raises, before any work and in this order, a `ValueError` for
    `weigh=None` with more than one signal or output, those of `encode`
    for a bank or signal that does not fit (an empty one: "empty input"),
    and those of `dsp._check_waveforms` for no signals ("need at least 1
    waveform, got 0") or unequal lengths ("waveforms must have equal
    lengths, got [...]"); then one for a product of taps and samples, a
    sum of encodings, a weigh's result or a windowed product that overflows
    a float, which `relu` or the weigh could otherwise turn into a finite
    but wrong output.
    """
    if weigh is None and (len(signals) != 1 or n_out != 1):
        raise ValueError(f"weigh=None takes one signal and n_out=1, got {len(signals)} signals and n_out={n_out}")
    for x in signals:
        _check_encode_args(x, bank, p)
    if not all(map(len, signals)):
        raise ValueError("empty input")
    _check_waveforms(signals, 1)
    analysis, synthesis, rectify = analysis_matrix(bank), bank.pinv_rows, relu
    if h := bank.sign_split_half:  # the rows of P, and Q for relu, 2*Q without
        analysis, rectify = analysis[:h], False
        if not relu:
            synthesis = 2.0 * synthesis
    try:
        with np.errstate(over="raise", invalid="raise"):  # before `relu` or the weigh turns an overflow finite
            if weigh is None and not rectify:  # every frame maps linearly: one L x L operator
                return [_weigh_free_pass(signals[0], analysis.T @ synthesis, p)]
            n = len(signals[0])
            framed = [_framed(x.samples, p) for x in signals]
            n_sig, count, frame_len = len(signals), num_frames(n, p), p.frame_len
            mixed = int(n_sig > 1)  # the encodings start at row 1 when row 0 holds their sum
            rows = np.zeros((n_out, count - 1 + -(-frame_len // p.hop), p.hop))
            analysis_t, block = np.ascontiguousarray(analysis.T), min(BLOCK_FRAMES, count)  # (L, N'): frame-major
            frames = np.empty((n_sig, block, frame_len))
            enc = np.empty((mixed + n_sig, block, analysis_t.shape[1]))
            synth = np.empty((n_out, block, frame_len))
            for first in range(0, count, block):
                k = min(block, count - first)
                for dst, pair in zip(frames, framed):
                    _gather(dst, pair, first, k)
                np.matmul(frames[:, :k], analysis_t, out=enc[mixed:, :k])
                if mixed:
                    np.add(enc[1, :k], enc[2, :k], out=enc[0, :k])
                    for extra in enc[3:, :k]:
                        np.add(enc[0, :k], extra, out=enc[0, :k])
                if rectify:
                    np.maximum(enc[0, :k], 0.0, out=enc[0, :k])
                coeffs = enc[:, :k] if weigh is None else weigh(enc[:, :k])
                np.matmul(coeffs, synthesis, out=synth[:, :k])
                _add_frames(rows, synth[:, :k], p.hop, first)
    except FloatingPointError as exc:
        raise ValueError(f"filtering the signals with the bank overflows a float ({exc})") from None
    rows.setflags(write=False)
    return [Waveform._adopt(out.ravel()[:n], bank.sample_rate) for out in rows]


def _weigh_free_pass(x: Waveform, operator: np.ndarray, p: FrameParams) -> Waveform:
    """`x` with every frame mapped by the L x L `operator` M and overlap-added at hop D.

    Output row r (samples r*D .. r*D + D - 1) sums column slab j of M
    (columns j*D .. j*D + D - 1, zero-padded past L) applied to frame
    r - j, for j < P = ceil(L / D). Those P frames lie in the window
    x[(r - P + 1)*D : r*D + L] of Lw = (P - 1)*D + L samples, where frame
    r - j starts at offset (P - 1 - j)*D, so row r is one product: the
    window times the (Lw, D) polyphase matrix B that adds slab j in at that
    offset. The rows whose P frames all exist, P - 1 .. count - 1, run in
    blocks of `OPERATOR_BLOCK_FRAMES`: their windows, framed by `_framed`
    as the engine frames its inputs (in place, the last one zero-padded if
    it runs past the signal), are copied into a contiguous (block, Lw)
    buffer (the windows overlap, and BLAS needs a leading dimension of at
    least Lw) and multiplied straight into the output. The at most 2P - 2
    other rows take a zero-padded window and B summed over only the frames
    that exist: a frame before the first or after the last shares samples
    with frames that do exist, so zeroing its samples would not remove it.
    """
    samples, frame_len, hop = x.samples, p.frame_len, p.hop
    taps = -(-frame_len // hop)  # P: the frames that reach one output row
    width = (taps - 1) * hop + frame_len  # Lw: the samples they span
    count = num_frames(len(samples), p)
    slabs = np.zeros((taps, width, hop))  # slabs[j]: frame r - j's share of row r, placed in its window
    for j in range(taps):
        cols = min(hop, frame_len - j * hop)
        at = (taps - 1 - j) * hop
        slabs[j, at:at + frame_len, :cols] = operator[:, j * hop:j * hop + cols]
    rows = np.empty((count - 1 + taps, hop))
    windows = _framed(samples, FrameParams(width, hop))  # window i is row P - 1 + i's
    whole = max(count - taps + 1, 0)  # rows P - 1 .. count - 1
    buf = np.empty((min(OPERATOR_BLOCK_FRAMES, whole), width))
    poly = slabs.sum(axis=0)
    for first in range(0, whole, OPERATOR_BLOCK_FRAMES):
        k = min(OPERATOR_BLOCK_FRAMES, whole - first)
        _gather(buf, windows, first, k)
        np.matmul(buf[:k], poly, out=rows[taps - 1 + first:taps - 1 + first + k])
    window = np.empty(width)
    for r in (*range(taps - 1), *range(max(count, taps - 1), len(rows))):
        start = (r - taps + 1) * hop
        lo, hi = max(start, 0), min(start + width, len(samples))
        window.fill(0.0)
        window[lo - start:hi - start] = samples[lo:hi]
        np.matmul(window, slabs[max(r - count + 1, 0):min(r, taps - 1) + 1].sum(axis=0), out=rows[r])
    rows.setflags(write=False)
    return Waveform._adopt(rows.ravel()[:len(samples)], x.sample_rate)


def _gather(dst: np.ndarray, framed: tuple[np.ndarray, np.ndarray], first: int, k: int) -> None:
    """Copy frames first .. first + k - 1 of a `_framed` pair into dst[:k]: in place ones, then the padded tail."""
    inside, tail = framed
    split = min(max(len(inside) - first, 0), k)  # frames of this block read in place
    np.copyto(dst[:split], inside[first:first + split])
    if split < k:
        np.copyto(dst[split:k], tail[first + split - len(inside):first + k - len(inside)])


def pseudo_inverse(bank: Filterbank) -> Filterbank:
    """Decoder bank inverting the analysis transform in the least-squares sense.

    The Moore-Penrose pseudo-inverse of the N x L analysis matrix
    (singular values below PINV_RCOND * sigma_max truncated), stored
    transposed, so decoder row n has length L and pairs with
    representation row n in `decode`. Its rows come from
    `Filterbank.pinv_rows`, which the bank computes once; the pipeline
    engine reads them there and builds no decoder bank. This bank is for
    `decode` and for inspecting the decoder. It carries the taps and the
    sample rate alone: its kind is `custom`, with no ERB parameters, since
    a decoder is not a member of its encoder's family.

    A sign-split bank [P; -P] (`Filterbank.sign_split_half` is nonzero) has
    analysis matrix [1; -1] (x) A for A the analysis matrix of P, and

        pinv([1; -1] (x) A) = pinv([1; -1]) (x) pinv(A) = 1/2 [1, -1] (x) pinv(A),

    so its decoder is [Q; -Q] with Q = 1/2 pinv(A)^T, computed from P
    alone. Its singular values are sqrt(2) times those of A, so the
    relative cutoff keeps the same rank, and its rows are exactly
    antisymmetric, which lets `_resynthesize` decode with Q alone.
    """
    rows = bank.pinv_rows
    return Filterbank(np.vstack([rows, -rows]) if bank.sign_split_half else rows, bank.sample_rate)


def apply_mask(rep: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Elementwise product of a representation with a mask in [0, 1] of its shape."""
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != rep.shape:
        raise ValueError(f"mask shape {mask.shape} != representation shape {rep.shape}")
    if not np.all((mask >= 0.0) & (mask <= 1.0)):  # NaN fails both comparisons
        raise ValueError("mask entries must lie in [0, 1]")
    return rep * mask
