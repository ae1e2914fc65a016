"""Time-domain signal primitives: waveforms, framing and overlap-add.

Everything operates on immutable float64 values. Framing follows strided
1-D convolution semantics: the trailing partial frame is zero-padded, and
overlap-add sums shifted synthesis frames without window compensation.
`_framed` owns the frame geometry for both the whole-signal `frame_signal`
and the block engine `codec._resynthesize`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


def _check_sample_rate(sample_rate) -> None:
    """Raise ValueError unless `sample_rate` is a positive integer (Hz) that a float can hold."""
    if not (isinstance(sample_rate, (int, np.integer)) and sample_rate > 0):
        raise ValueError(f"sample_rate must be a positive integer, got {sample_rate!r}")
    if sample_rate > sys.float_info.max:  # beyond it, `float(sample_rate)` and `sample_rate / n` overflow
        raise ValueError(f"sample_rate must not exceed the float range ({sys.float_info.max!r} Hz)")


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only, C-ordered float64 copy of `a`, so no caller can mutate a stored value."""
    out = np.array(a, dtype=np.float64, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Waveform:
    """A mono time-domain signal with a sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self._take(_frozen(self.samples), self.sample_rate)

    @classmethod
    def _adopt(cls, samples: np.ndarray, sample_rate: int) -> Waveform:
        """A waveform that takes over `samples` instead of copying them.

        Only for float64 arrays the library has just allocated and keeps no
        other writable reference to: they are checked as the constructor
        checks its input, then made read-only in place.
        """
        w = object.__new__(cls)
        w._take(np.asarray(samples, dtype=np.float64, order="C"), sample_rate)
        return w

    def _take(self, samples: np.ndarray, sample_rate: int) -> None:
        if samples.ndim != 1:
            raise ValueError(f"waveform samples must be 1-D, got shape {samples.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            energy = float(np.dot(samples, samples))
        # A NaN or inf sample makes the sum of squares non-finite, so a finite one
        # proves every sample finite without an n-long temporary; a sum that
        # overflows (|x| >~ 1e154) or meets a NaN takes the exact check.
        if not math.isfinite(energy) and not np.all(np.isfinite(samples)):
            raise ValueError("waveform contains non-finite samples")
        _check_sample_rate(sample_rate)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(sample_rate))
        object.__setattr__(self, "_energy", energy)

    def __len__(self) -> int:
        return self.samples.shape[0]

    def energy(self) -> float:
        """Sum of squared samples, as computed at construction; inf if it overflows."""
        return self._energy


@dataclass(frozen=True)
class FrameParams:
    """Analysis frame length L and hop D, both in samples, with 1 <= D <= L."""

    frame_len: int
    hop: int

    def __post_init__(self):
        if self.frame_len < 1:
            raise ValueError(f"frame_len must be >= 1, got {self.frame_len}")
        if not 1 <= self.hop <= self.frame_len:
            raise ValueError(f"hop must satisfy 1 <= hop <= frame_len, got hop={self.hop}, frame_len={self.frame_len}")


def num_frames(n_samples: int, p: FrameParams) -> int:
    """Frame count for a signal of `n_samples`: ceil(max(n - L, 0) / D) + 1."""
    overflow = max(n_samples - p.frame_len, 0)
    return -(-overflow // p.hop) + 1


def frame_signal(x: Waveform, p: FrameParams) -> np.ndarray:
    """Slice `x` into overlapping frames of length L at hop D.

    Frame i holds samples x[i*D : i*D + L]; samples past the end of the
    signal read as zero, so the last frame may be zero-padded.

    Returns:
        Array of shape (num_frames, frame_len).
    """
    if len(x) == 0:
        raise ValueError("empty input")
    return np.concatenate(_framed(x.samples, p))


def _framed(samples: np.ndarray, p: FrameParams) -> tuple[np.ndarray, np.ndarray]:
    """Frames of a non-empty C-contiguous float64 signal, row i = samples[i*D : i*D + L].

    Returns (inside, tail): a view of `samples`, as writable as it, of the
    frames that end inside the signal (none if n < L), and a zero-padded
    copy of the at most one frame that runs past the end. The view is built
    with `np.ndarray`, about 1 us per call against 10 us for
    `sliding_window_view`: the engine frames every input on every run.
    """
    n, step = samples.shape[0], samples.itemsize
    full = max((n - p.frame_len) // p.hop + 1, 0)
    inside = np.ndarray((full, p.frame_len), np.float64, samples, 0, (p.hop * step, step))
    tail = np.zeros((num_frames(n, p) - full, p.frame_len))
    tail[:, :n - full * p.hop] = samples[full * p.hop:]
    return inside, tail


def _add_frames(rows: np.ndarray, frames: np.ndarray, hop: int, first: int) -> None:
    """Overlap-add frames (..., count, L) into rows (..., R, D) at hop D, from row `first` on.

    Column slab k of the frames (samples k*D .. k*D + D - 1, the last one
    narrower when D does not divide L) lands on rows first + k ..
    first + k + count - 1. Adding the slabs in decreasing k adds the
    frames in increasing order at every sample, so calls made in
    increasing `first` sum as a frame-by-frame loop does, bit for bit.
    """
    count, frame_len = frames.shape[-2:]
    for k in reversed(range(-(-frame_len // hop))):
        lo = k * hop
        width = min(hop, frame_len - lo)
        rows[..., first + k:first + k + count, :width] += frames[..., lo:lo + width]


def overlap_add(frames: np.ndarray, p: FrameParams, sample_rate: int) -> Waveform:
    """Sum shifted frames: output[t] = sum_i frames[i, t - i*D].

    Overlapping regions are summed as-is (no synthesis window or overlap
    compensation). Output length is (num_frames - 1) * D + L. The sums are
    those of a frame-by-frame loop, bit for bit.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ValueError(f"frames must be a 2-D array, got shape {frames.shape}")
    if frames.shape[1] != p.frame_len:
        raise ValueError(f"frame length mismatch: frames have {frames.shape[1]} samples, expected {p.frame_len}")
    count = frames.shape[0]
    rows = np.zeros((count - 1 + -(-p.frame_len // p.hop), p.hop), dtype=np.float64)
    _add_frames(rows, frames, p.hop, 0)
    return Waveform(rows.ravel()[:(count - 1) * p.hop + p.frame_len], sample_rate)

