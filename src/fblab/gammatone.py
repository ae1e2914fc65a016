"""Gammatone impulse responses and multi-phase gammatone filterbanks.

A gammatone filter is the classic cochlear model

    g(t) = alpha * t^(n-1) * exp(-2*pi*b*t) * cos(2*pi*fc*t + phi),  t > 0

truncated here to short FIR prototypes (2 ms at the canonical 8 kHz rate,
i.e. 16 taps) for low-latency analysis. The multi-phase construction
covers each center frequency with several phase shifts evenly spaced on
[0, pi) and appends the negation of every filter, so rectified encoder
outputs keep energy at every center. Center frequencies sit one ERB-rate
unit apart from 100 Hz up to at most 4000 Hz.

One builder, `build_mpgtf`, makes both the fixed bank (MPGTF) and the
parameterized one (ParaMPGTF): the construction is a deterministic
function of (c1, c2), so those constants can be fitted numerically, and
`kind` only labels the result. `build_parampgtf` is that builder with
kind=PARAMPGTF. The first center stays pinned at 100 Hz regardless of the
parameters. Peak normalization cancels the amplitude alpha, so neither
the builders nor `GammatoneSpec` take one: every filter is sampled at
alpha = 1.

The builder evaluates all its rows in one broadcast over per-row
(fc, b, phi) and a shared time grid. `GammatoneSpec` and `gammatone_ir`
are the single-filter reference: the tests build the bank one
`gammatone_ir` call per row and require the builder's taps to equal it
bitwise, and its errors to match.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dsp import _check_sample_rate
from .erb import FC_MAX_HZ, FC_MIN_HZ, ErbParams, bandwidth_b, center_frequency_grid, erb
from .filterbank import Filterbank, FilterbankKind

#: Canonical prototype length: 2 ms of signal.
FILTER_LENGTH_SECONDS = 0.002


@dataclass(frozen=True)
class GammatoneSpec:
    """Parameters of a single FIR-truncated gammatone filter."""

    order_n: int
    phase_phi: float
    center_fc: float
    bandwidth_b: float
    length: int
    sample_rate: int

    def __post_init__(self):
        _check_filter(self.order_n, self.center_fc, self.bandwidth_b, self.length, self.sample_rate)


def _check_filter(order_n: int, center_fc: float, bandwidth_b: float, length: int, sample_rate: int) -> None:
    """Raise ValueError for a gammatone filter that cannot be sampled."""
    _check_sample_rate(sample_rate)  # before fs/2 bounds the centre
    if order_n < 1:
        raise ValueError(f"order_n must be >= 1, got {order_n}")
    if bandwidth_b <= 0:
        raise ValueError(f"bandwidth_b must be > 0, got {bandwidth_b}")
    if not 0 < center_fc < sample_rate / 2:
        raise ValueError(f"center_fc must lie in (0, fs/2) = (0, {sample_rate / 2}), got {center_fc}")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")


def gammatone_ir(spec: GammatoneSpec) -> np.ndarray:
    """Sampled gammatone impulse response, peak-normalized to max |tap| = 1.

    Tap k is g((k+1)/fs): the time grid starts one sample period after
    zero because the envelope t^(n-1) makes g(0) an uninformative tap
    for n >= 2.
    """
    t = (np.arange(spec.length) + 1.0) / spec.sample_rate
    ir = (
        t ** (spec.order_n - 1)
        * np.exp(-2.0 * math.pi * spec.bandwidth_b * t)
        * np.cos(2.0 * math.pi * spec.center_fc * t + spec.phase_phi)
    )
    peak = np.max(np.abs(ir))
    if peak == 0.0:
        raise ValueError("degenerate gammatone filter: all taps are zero")
    return ir / peak


def build_mpgtf(
    p: ErbParams,
    n_filters: int = 512,
    frame_len: int | None = None,
    sample_rate: int = 8000,
    *,
    order: int = 2,
    kind: FilterbankKind = FilterbankKind.MPGTF,
) -> Filterbank:
    """Build a multi-phase gammatone filterbank at the ERB constants `p`.

    `frame_len` defaults to 2 ms at the given sample rate (16 taps at
    8 kHz). The result has exactly `n_filters` rows: n_filters/2 phase
    variants spread over the ERB-spaced centers, plus their negations.
    `kind` (MPGTF or PARAMPGTF) only labels the bank; the taps depend on
    `p` alone.

    All n_filters/2 positive-phase rows come from one broadcast expression
    in `gammatone_ir`'s factor order, so each row is bitwise the
    `gammatone_ir` filter of its (fc, b, phi), and a bad input raises the
    same ValueError as that per-row construction.
    """
    _check_sample_rate(sample_rate)  # before it sizes the frame and bounds the centres
    if kind not in (FilterbankKind.MPGTF, FilterbankKind.PARAMPGTF):
        raise ValueError(f"not a multi-phase gammatone kind: {kind}")
    if frame_len is None:
        frame_len = round(FILTER_LENGTH_SECONDS * sample_rate)
    if n_filters < 2 or n_filters % 2 != 0:
        raise ValueError(f"n_filters must be a positive even number, got {n_filters}")
    centers = center_frequency_grid(p, FC_MIN_HZ, FC_MAX_HZ)
    m = len(centers)
    n_half = n_filters // 2
    per_center = n_half // m
    if per_center == 0:
        raise ValueError(
            f"not enough filters for one phase per center: n_filters={n_filters} < 2*M={2 * m}"
        )
    # Surplus phase variants go to the lowest centers, where speech energy sits.
    counts = np.full(m, per_center, dtype=int)
    counts[: n_half - per_center * m] += 1

    # Every centre is checked before any row is sampled. The per-row loop
    # raised in the same order: a degenerate row needs a decay above
    # ~100*fs, and the ERB spacing that comes with it leaves no second
    # centre below 4000 Hz.
    decays = []
    for fc in centers:
        b = bandwidth_b(erb(float(fc), p), order)
        _check_filter(order, float(fc), b, frame_len, sample_rate)
        decays.append(b)

    # Row r takes phase k of its centre's count, evenly spaced on [0, pi).
    row_count = np.repeat(counts, counts)
    k = np.arange(n_half) - np.repeat(np.cumsum(counts) - counts, counts)
    row_phi = math.pi * k / row_count
    row_b = np.repeat(decays, counts)
    row_fc = np.repeat(centers, counts)
    # `gammatone_ir`'s expression and factor order, so every tap equals
    # the reference's bitwise.
    t = (np.arange(frame_len) + 1.0) / sample_rate
    rows = (
        t ** (order - 1)
        * np.exp((-2.0 * math.pi * row_b)[:, None] * t)
        * np.cos((2.0 * math.pi * row_fc)[:, None] * t + row_phi[:, None])
    )
    peaks = np.max(np.abs(rows), axis=1)
    if np.any(peaks == 0.0):
        raise ValueError("degenerate gammatone filter: all taps are zero")
    rows /= peaks[:, None]
    taps = np.vstack([rows, -rows])  # the negated copies supply [pi, 2*pi)
    return Filterbank(taps, sample_rate, kind=kind, center_freqs=centers, erb_params=p)


#: ParaMPGTF: the same construction, labelled PARAMPGTF for trainable (c1, c2).
build_parampgtf = functools.partial(build_mpgtf, kind=FilterbankKind.PARAMPGTF)
build_parampgtf.__name__ = "build_parampgtf"  # a partial has no name of its own; reprs and test ids read it
