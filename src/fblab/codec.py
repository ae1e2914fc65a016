"""Encoder/decoder transforms over a filterbank, and pseudo-inverse decoders.

The encoder is a strided FIR analysis transform: frame i of the input is
correlated against the time-reversed taps of every filter (a true
convolution), optionally rectified so the representation is nonnegative:

    X[n, i] = H( sum_l x[i*D + l] * taps[n, L-1-l] )

Two functions evaluate it, with the same arguments and errors:

- `encode` is the bitwise reference. It accumulates over the tap index in
  fixed ascending order and matches a naive loop evaluation exactly
  (acceptance criterion 08 pins this). Tests compare against it; the
  pipeline does not call it.
- `encode_gemm` is what the pipeline runs: one BLAS product
  `analysis_matrix(bank) @ frame_signal(x, p).T`. BLAS sums in its own
  order, so it agrees with `encode` to about 1e-15 relative, not bitwise.

The decoder synthesizes one frame per column as a tap-weighted sum of
decoder rows and overlap-adds them at hop D. A decoder built from the
Moore-Penrose pseudo-inverse of the analysis matrix makes
decode(encode(x)) the identity for full-rank banks when D = L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import FrameParams, Waveform, _frozen, frame_signal, overlap_add
from .filterbank import Filterbank

#: Relative singular-value cutoff for pseudo-inverse decoders. Multi-phase
#: banks contain exact +/- row pairs and are rank-deficient by design.
PINV_RCOND = 1e-10


@dataclass(frozen=True, eq=False)
class TFRepresentation:
    """Nonnegative-capable N x I encoder output plus its framing parameters."""

    values: np.ndarray
    frame_params: FrameParams
    relu_applied: bool

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        if self.relu_applied and np.any(values < 0):
            raise ValueError("relu_applied representation contains negative entries")
        object.__setattr__(self, "values", _frozen(values))

    @property
    def n_filters(self) -> int:
        return self.values.shape[0]

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class Mask:
    """Elementwise gain matrix in [0, 1], same shape as its representation."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"mask must be 2-D, got shape {values.shape}")
        if np.any(values < 0) or np.any(values > 1):
            raise ValueError("mask entries must lie in [0, 1]")
        object.__setattr__(self, "values", _frozen(values))


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
    return TFRepresentation(values, p, relu_applied=apply_relu)


def encode_gemm(x: Waveform, bank: Filterbank, p: FrameParams, apply_relu: bool = True) -> TFRepresentation:
    """The analysis transform of `encode` as one BLAS matrix product.

    Same arguments, result shape and errors as `encode`; the values agree
    with it to about 1e-15 relative but not bitwise.
    """
    _check_encode_args(x, bank, p)
    values = analysis_matrix(bank) @ frame_signal(x, p).T  # (N, I)
    if apply_relu:
        np.maximum(values, 0.0, out=values)
    return TFRepresentation(values, p, relu_applied=apply_relu)


def decode(rep: TFRepresentation, dec_bank: Filterbank) -> Waveform:
    """Synthesize a waveform: frame i = sum_n rep[n, i] * dec_taps[n], then OLA."""
    if dec_bank.n_filters != rep.n_filters:
        raise ValueError(
            f"decoder has {dec_bank.n_filters} filters but representation has {rep.n_filters} rows"
        )
    if dec_bank.filter_len != rep.frame_params.frame_len:
        raise ValueError(
            f"decoder filter length {dec_bank.filter_len} != frame length {rep.frame_params.frame_len}"
        )
    frames = (dec_bank.taps.T @ rep.values).T  # (I, L)
    return overlap_add(frames, rep.frame_params, dec_bank.sample_rate)


def pseudo_inverse(bank: Filterbank, rcond: float = PINV_RCOND) -> Filterbank:
    """Decoder bank inverting the analysis transform in the least-squares sense.

    Computes the Moore-Penrose pseudo-inverse of the N x L analysis
    matrix (singular values below rcond * sigma_max truncated) and stores
    it transposed, so decoder row n has length L and pairs with
    representation row n in `decode`.
    """
    a = analysis_matrix(bank)
    if not np.all(np.isfinite(a)):
        raise ValueError("bank taps contain non-finite values")
    pinv = np.linalg.pinv(a, rcond=rcond)  # (L, N)
    return Filterbank(
        pinv.T,
        bank.sample_rate,
        kind=bank.kind,
        center_freqs=bank.center_freqs,
        erb_params=bank.erb_params,
    )


def apply_mask(rep: TFRepresentation, mask: Mask) -> TFRepresentation:
    """Elementwise product of a representation with a mask in [0, 1]."""
    if mask.values.shape != rep.values.shape:
        raise ValueError(f"mask shape {mask.values.shape} != representation shape {rep.values.shape}")
    return TFRepresentation(rep.values * mask.values, rep.frame_params, rep.relu_applied)


def write_tfrep_csv(path, rep: TFRepresentation) -> None:
    """Write a representation as CSV rows `n,i,value` with LF newlines."""
    with open(path, "w", newline="\n") as fh:
        fh.write("n,i,value\n")
        for n in range(rep.n_filters):
            for i in range(rep.n_frames):
                fh.write(f"{n},{i},{float(rep.values[n, i])!r}\n")
