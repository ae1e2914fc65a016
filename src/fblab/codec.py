"""Encoder/decoder transforms over a filterbank, and pseudo-inverse decoders.

The encoder is a strided FIR analysis transform: frame i of the input is
correlated against the time-reversed taps of every filter (a true
convolution), optionally rectified so the representation is nonnegative:

    X[n, i] = H( sum_l x[i*D + l] * taps[n, L-1-l] )

The decoder synthesizes one frame per column as a tap-weighted sum of
decoder rows and overlap-adds them at hop D. A decoder built from the
Moore-Penrose pseudo-inverse of the analysis matrix makes
decode(encode(x)) the identity for full-rank banks when D = L.

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
No frame couples to another further away than one frame length, so its
work buffers are O(N * BLOCK_FRAMES) however long the signal is, and no
N x I array is built. It frames every input with `dsp._framed`, as
`encode` does, so it copies no signal-long array. The n_out overlap-add
accumulators become the returned waveforms without a copy, so besides
its inputs the engine holds n_out signal lengths, the padded tails and
the work buffers. A weigh-free pass, as `fblab roundtrip` makes, runs
the same loop with one smaller product in place of both (see below).
BLAS sums a product's columns in an order that depends on how many
columns it has, so the engine agrees with the whole-signal path to about
1e-15 relative (tests bound it at 1e-12), not bitwise; for a fixed block
size its output is deterministic.

Sign-split banks fold. Every multi-phase gammatone bank and every
sign-split STFT bank is `[P; -P]` bit for bit, and `pseudo_inverse` gives
such a bank a decoder `[Q; -Q]`, again bit for bit. A negated row has the
same magnitude, so it gets the same ratio mask, and with a weigh that is
linear in the mixture's block

    relu(e) * Q + relu(-e) * (-Q) = e * Q,    e * Q + (-e) * (-Q) = 2 * e * Q.

So when both banks have that form, the engine encodes, weighs and decodes
only the rows of P, skips the relu and decodes with Q (rectified) or 2*Q
(linear). That halves its work; any other pair of banks runs every row.
Since Q is half the pseudo-inverse decoder of P alone, a rectified
encoding through such a bank decodes to half of what the linear one does,
a scale SI-SNR does not see.

Weigh-free passes collapse. With no weigh (`fblab roundtrip` passes
`weigh=None`) and no relu left to apply, because the pair folds or relu
is off, every frame maps linearly. For A the analysis rows the engine runs
(P when it folds, every row otherwise) and S its synthesis (Q, 2*Q or the
whole decoder),

    frame -> (frame * A^T) * S = frame * (A^T * S) = frame * M,

so the engine computes the L x L frame operator M once per call, takes it
for the analysis matrix and skips the decode product: one (k, L) x (L, L)
product per block of `OPERATOR_BLOCK_FRAMES` frames, L^2 multiply-adds
per frame in place of 2 * N' * L, 32x fewer on the default 512 x 16
banks. For a pseudo-inverse decoder M is the projector onto the bank's
row space (halved for a rectified fold), so I or I/2 at full rank. A
relu pass through a bank that is not sign-split rectifies each encoding,
is not linear in the frame and runs the full engine. Both forms sum the
same products, grouped differently: the engine rounds the N' encodings
of a frame, the operator rounds the entries of M. So they agree to about
1e-15 relative (tests bound it at 1e-12), not bitwise.

The whole-signal functions are the reference the tests compare against,
and the public API for inspecting a representation:

- `encode` is the bitwise reference encoder. It accumulates over the tap
  index in fixed ascending order and matches a naive loop evaluation
  exactly (acceptance criterion 08 pins this).
- `decode` and `apply_mask` act on whole `TFRepresentation`s; a mask is
  a plain array of the representation's shape with entries in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dsp import FrameParams, Waveform, _add_frames, _framed, _frozen, frame_signal, num_frames, overlap_add
from .filterbank import PINV_RCOND, Filterbank

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

#: Frames per block of a weigh-free `_resynthesize` pass, which runs one
#: (k, L) x (L, L) product per block. Measured on 60 s at 8 kHz, L = 16,
#: hop 8, default STFT and 512-filter mpgtf banks, OpenBLAS on 1 thread of a
#: shared 2-core host: 10-16 / 4.6-7.1 / 3.2-4.5 / 3.3-4.7 ms per pass at
#: 64 / 256 / 1024 / 4096 frames, against 37-45 ms for the full engine.
OPERATOR_BLOCK_FRAMES = 1024


@dataclass(frozen=True, eq=False)
class TFRepresentation:
    """Nonnegative-capable N x I encoder output plus its framing parameters."""

    values: np.ndarray
    frame_params: FrameParams

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        object.__setattr__(self, "values", _frozen(values))

    @property
    def n_filters(self) -> int:
        return self.values.shape[0]


def analysis_matrix(bank: Filterbank) -> np.ndarray:
    """Tap matrix as applied by the encoder: column l holds taps[:, L-1-l]."""
    return bank.taps[:, ::-1]


def _check_encode_args(x: Waveform, bank: Filterbank, p: FrameParams) -> None:
    if bank.sample_rate != x.sample_rate:
        raise ValueError(f"sample rate mismatch: bank {bank.sample_rate} Hz, signal {x.sample_rate} Hz")
    if bank.filter_len != p.frame_len:
        raise ValueError(f"bank filter length {bank.filter_len} != frame length {p.frame_len}")


def encode(x: Waveform, bank: Filterbank, p: FrameParams, apply_relu: bool = True) -> TFRepresentation:
    """Analysis transform of `x` through `bank` at framing `p` (bitwise reference).

    The inner products accumulate over the tap index in fixed ascending
    order, so the result is bit-reproducible and matches a naive loop
    evaluation of the analysis sum exactly.
    """
    _check_encode_args(x, bank, p)
    frames = frame_signal(x, p)  # (I, L)
    rev = analysis_matrix(bank)  # (N, L)
    values = np.zeros((bank.n_filters, frames.shape[0]), dtype=np.float64)
    for l in range(p.frame_len):
        values += rev[:, l:l + 1] * frames[:, l][None, :]
    if apply_relu:
        values = np.maximum(values, 0.0)
    return TFRepresentation(values, p)


def _check_decode_args(dec_bank: Filterbank, n_rows: int, frame_len: int) -> None:
    if dec_bank.n_filters != n_rows:
        raise ValueError(f"decoder has {dec_bank.n_filters} filters but representation has {n_rows} rows")
    if dec_bank.filter_len != frame_len:
        raise ValueError(f"decoder filter length {dec_bank.filter_len} != frame length {frame_len}")


def decode(rep: TFRepresentation, dec_bank: Filterbank) -> Waveform:
    """Synthesize a waveform: frame i = sum_n rep[n, i] * dec_taps[n], then OLA."""
    _check_decode_args(dec_bank, rep.n_filters, rep.frame_params.frame_len)
    frames = (dec_bank.taps.T @ rep.values).T  # (I, L)
    return overlap_add(frames, rep.frame_params, dec_bank.sample_rate)


def _sign_split_half(taps: np.ndarray) -> int:
    """h if `taps` is [P; -P] bit for bit with P of h rows, else 0.

    An odd row count fails the shape check of `np.array_equal`.
    """
    h = taps.shape[0] // 2
    return h if h and np.array_equal(taps[h:], -taps[:h]) else 0


def _resynthesize(
    signals: Sequence[Waveform],
    enc_bank: Filterbank,
    dec_bank: Filterbank,
    p: FrameParams,
    weigh: Callable[[np.ndarray], np.ndarray] | None,
    n_out: int,
    *,
    relu: bool,
) -> list[Waveform]:
    """Encode S equal-length signals, weigh, decode and overlap-add, block by block.

    For each block of k <= `BLOCK_FRAMES` frames, the frame-major
    (S, k, N) array of linear encodings of all `signals` goes to `weigh`,
    with signal 0's block rectified first if `relu`. The weigh overwrites
    the array in place and returns an (n_out, k, N) view of it holding
    synthesis coefficients. Those are decoded and overlap-added in
    increasing frame order into `n_out` outputs, each trimmed to the input
    length.

    Nothing signal-long is copied: `dsp._framed` gives the frames, and the
    overlap-add rows are frozen and handed out as the outputs. Besides its
    inputs and the n_out outputs, a call holds, allocated once and never
    escaping it: the (S, BLOCK_FRAMES, N) encodings, the
    (S + n_out, BLOCK_FRAMES, L) frame and synthesis buffers, an (L, N)
    copy of the analysis matrix and the padded tails. A weigh-free pass
    holds (S, OPERATOR_BLOCK_FRAMES, L) frames and encodings, which it
    overlap-adds directly, and no synthesis buffer. Temporaries of the
    weigh come on top (one (k, N) array for the oracle mask).

    If the encoder is [P; -P] and the decoder [Q; -Q], both checked bit
    for bit, the weigh gets only the rows of P (N/2 of them), signal 0's
    block is not rectified, and the coefficients are decoded with Q if
    `relu`, else with 2*Q (see the module docstring). That is exact for a
    weigh that is linear in signal 0's block and reads the other signals
    only through their magnitudes, as the oracle mask and the identity
    are; other weighs must not be given a sign-split pair.

    `weigh=None` means no weigh at all; it takes one signal and
    `n_out == 1`. If the pair folds or `relu` is off, the pass is then
    linear per frame: the same loop encodes with the L x L frame operator,
    in blocks of `OPERATOR_BLOCK_FRAMES` frames, and decodes nothing (see
    the module docstring); otherwise it is the full engine with the
    identity weigh.

    Raises the `ValueError`s of `encode` and `decode` for a bank,
    decoder or signal that does not fit, one for signals of unequal
    lengths and one for `weigh=None` with more than one signal or output,
    before any work.
    """
    if weigh is None and (len(signals) != 1 or n_out != 1):
        raise ValueError(f"weigh=None takes one signal and n_out=1, got {len(signals)} signals and n_out={n_out}")
    for x in signals:
        _check_encode_args(x, enc_bank, p)
    _check_decode_args(dec_bank, enc_bank.n_filters, p.frame_len)
    n = len(signals[0])
    if n == 0:
        raise ValueError("empty input")
    if any(len(x) != n for x in signals):
        raise ValueError(f"signals must have equal lengths, got {[len(x) for x in signals]}")
    framed = [_framed(x.samples, p) for x in signals]
    n_sig, count, frame_len = len(signals), num_frames(n, p), p.frame_len
    h = _sign_split_half(enc_bank.taps)
    if h and _sign_split_half(dec_bank.taps):  # the decoder has N rows too
        analysis, rectify = analysis_matrix(enc_bank)[:h], False
        synthesis = dec_bank.taps[:h] if relu else 2.0 * dec_bank.taps[:h]
    else:
        analysis, synthesis, rectify = analysis_matrix(enc_bank), dec_bank.taps, relu
    rows = np.zeros((n_out, count - 1 + -(-frame_len // p.hop), p.hop))
    if weigh is None and not rectify:  # every frame maps linearly: one L x L operator
        analysis_t, synthesis, block = analysis.T @ synthesis, None, OPERATOR_BLOCK_FRAMES
    else:  # (L, N'): frames * A^T is frame-major
        analysis_t, block = np.ascontiguousarray(analysis.T), BLOCK_FRAMES
    block = min(block, count)
    frames = np.empty((n_sig, block, frame_len))
    enc = np.empty((n_sig, block, analysis_t.shape[1]))
    synth = enc if synthesis is None else np.empty((n_out, block, frame_len))
    for first in range(0, count, block):
        k = min(block, count - first)
        for dst, (inside, tail) in zip(frames, framed):
            full = len(inside)
            split = min(max(full - first, 0), k)  # frames of this block read in place
            np.copyto(dst[:split], inside[first:first + split])
            if split < k:
                np.copyto(dst[split:k], tail[first + split - full:first + k - full])
        np.matmul(frames[:, :k], analysis_t, out=enc[:, :k])
        if rectify:
            np.maximum(enc[0, :k], 0.0, out=enc[0, :k])
        if synthesis is not None:
            coeffs = enc[:, :k] if weigh is None else weigh(enc[:, :k])
            np.matmul(coeffs, synthesis, out=synth[:, :k])
        _add_frames(rows, synth[:, :k], p.hop, first)
    rows.setflags(write=False)
    return [Waveform._adopt(out.ravel()[:n], dec_bank.sample_rate) for out in rows]


def pseudo_inverse(bank: Filterbank) -> Filterbank:
    """Decoder bank inverting the analysis transform in the least-squares sense.

    Computes the Moore-Penrose pseudo-inverse of the N x L analysis
    matrix (singular values below PINV_RCOND * sigma_max truncated) and stores
    it transposed, so decoder row n has length L and pairs with
    representation row n in `decode`.

    A sign-split bank [P; -P] (bit for bit) has analysis matrix
    [1; -1] (x) A for A the analysis matrix of P, and

        pinv([1; -1] (x) A) = pinv([1; -1]) (x) pinv(A) = 1/2 [1, -1] (x) pinv(A),

    so its decoder is 1/2 [pinv(A)^T; -pinv(A)^T], computed from P alone.
    Its singular values are sqrt(2) times those of A, so the relative
    cutoff keeps the same rank, and its rows are exactly antisymmetric,
    which lets `_resynthesize` fold the pair.
    """
    a = analysis_matrix(bank)
    h = _sign_split_half(bank.taps)
    if h:
        half = 0.5 * np.linalg.pinv(a[:h], rcond=PINV_RCOND).T  # (h, L)
        dec = np.vstack([half, -half])
    else:
        dec = np.linalg.pinv(a, rcond=PINV_RCOND).T  # (N, L)
    return Filterbank(
        dec,
        bank.sample_rate,
        kind=bank.kind,
        center_freqs=bank.center_freqs,
        erb_params=bank.erb_params,
    )


def apply_mask(rep: TFRepresentation, mask: np.ndarray) -> TFRepresentation:
    """Elementwise product of a representation with a mask in [0, 1] of its shape."""
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != rep.values.shape:
        raise ValueError(f"mask shape {mask.shape} != representation shape {rep.values.shape}")
    if not np.all((mask >= 0.0) & (mask <= 1.0)):  # NaN fails both comparisons
        raise ValueError("mask entries must lie in [0, 1]")
    return TFRepresentation(rep.values * mask, rep.frame_params)
