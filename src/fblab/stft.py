"""STFT realized as a real cosine/sine filterbank, with a rectification-proof
sign-split variant.

Row pairs are w(l)*cos(2*pi*f_k*l/fs) and w(l)*sin(2*pi*f_k*l/fs) for
frequencies evenly spaced over (0, fs/2] with a half-step offset:

    f_k = (k - 1/2) * (fs/2) / n_freqs,   k = 1 .. n_freqs

The offset avoids the degenerate DC and Nyquist rows (an all-ones cosine
and an all-zero sine), so with a rectangular window and n_freqs = L/2 the
rows form an exactly orthogonal basis of rank L. Sign-split mode appends
the negation of every row, so a rectified encoding still determines the
frame; the `codec` module docstring derives why it then decodes to half
the frame and how the engine runs only the linear half of such a bank.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .codec import analysis_matrix, pseudo_inverse
from .dsp import _check_array_size, _check_sample_rate
from .filterbank import Filterbank, FilterbankKind, numerical_rank


class StftMode(enum.Enum):
    LINEAR = "linear"
    SIGN_SPLIT = "signsplit"


class StftWindow(enum.Enum):
    RECTANGULAR = "rectangular"
    HANN = "hann"


@dataclass(frozen=True)
class StftSpec:
    """Frame length, distinct-frequency count, row mode, and analysis window.

    The filter count is 2*n_freqs in linear mode (cos + sin rows) and
    4*n_freqs in sign-split mode (+/- cos, +/- sin).
    """

    frame_len: int = 16
    n_freqs: int = 128
    mode: StftMode = StftMode.SIGN_SPLIT
    window: StftWindow = StftWindow.RECTANGULAR

    def __post_init__(self):
        if self.frame_len < 1:
            raise ValueError(f"frame_len must be >= 1, got {self.frame_len}")
        if self.n_freqs < 1:
            raise ValueError(f"n_freqs must be >= 1, got {self.n_freqs}")


def _window_taps(window: StftWindow, length: int) -> np.ndarray:
    if window is StftWindow.HANN:
        # Periodic Hann, the usual choice for overlap-add analysis.
        return 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(length) / length)
    return np.ones(length)


def build_stft_bank(spec: StftSpec, sample_rate: int) -> Filterbank:
    """Construct the cosine/sine analysis bank described by `spec`."""
    _check_sample_rate(sample_rate)  # before it divides
    _check_array_size(f"n_freqs={spec.n_freqs}, frame_len={spec.frame_len}",
                      (4 if spec.mode is StftMode.SIGN_SPLIT else 2) * spec.n_freqs, spec.frame_len)
    step = (sample_rate / 2.0) / spec.n_freqs
    freqs = (np.arange(1, spec.n_freqs + 1) - 0.5) * step
    l = np.arange(spec.frame_len)
    phase = 2.0 * math.pi * np.outer(freqs, l) / sample_rate
    w = _window_taps(spec.window, spec.frame_len)
    pairs = np.stack([np.cos(phase) * w, np.sin(phase) * w], axis=1)
    rows = pairs.reshape(2 * spec.n_freqs, spec.frame_len)
    if spec.mode is StftMode.SIGN_SPLIT:
        rows = np.vstack([rows, -rows])
    return Filterbank(rows, sample_rate, kind=FilterbankKind.STFT)


def istft_decoder(bank: Filterbank) -> Filterbank:
    """Pseudo-inverse decoder for a full-rank STFT bank.

    Linear encode -> decode -> overlap-add then restores every frame
    exactly. A rank-deficient bank only reconstructs its row space, so it
    is refused; `pseudo_inverse` gives its lossy decoder.
    """
    if bank.kind is not FilterbankKind.STFT:
        raise ValueError(f"istft_decoder requires an STFT bank, got kind={bank.kind.value!r}")
    rank = numerical_rank(analysis_matrix(bank))
    if rank < bank.filter_len:
        raise ValueError(
            f"rank-deficient STFT bank (rank {rank} < frame length {bank.filter_len}); "
            "use pseudo_inverse to accept lossy reconstruction"
        )
    return pseudo_inverse(bank)
