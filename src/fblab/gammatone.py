"""Gammatone impulse responses and multi-phase gammatone filterbanks.

A gammatone filter is the classic cochlear model

    g(t) = alpha * t^(n-1) * exp(-2*pi*b*t) * cos(2*pi*fc*t + phi),  t > 0

truncated here to short FIR prototypes (16 taps by default, 2 ms at the
canonical 8 kHz rate) for low-latency analysis. The multi-phase construction
covers each center frequency with several phase shifts evenly spaced on
[0, pi) and appends the negation of every filter, so rectified encoder
outputs keep energy at every center. Center frequencies sit one ERB-rate
unit apart on the band [100 Hz, fs/2), [100, 4000) Hz at 8 kHz.

One builder, `build_mpgtf`, makes both the fixed bank (MPGTF) and the
parameterized one (ParaMPGTF): the construction is a deterministic
function of (c1, c2), so those constants can be fitted numerically, and
`kind` only labels the result. `build_parampgtf` is that builder with
kind=PARAMPGTF. The first center stays pinned at 100 Hz regardless of the
parameters. Peak normalization cancels the amplitude alpha, so the
builders take none: every filter is sampled at alpha = 1.

The builder is the library's only gammatone sampler: it evaluates all its
rows in one broadcast over per-row (fc, b, phi) and a shared time grid.
The single-filter reference lives with the tests, in
`tests/gammatone_model.py`: they build the bank one `gammatone_ir` call
per row there and require the builder's taps to equal it bitwise, and its
errors to match.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .dsp import _check_array_size
from .erb import ErbParams, bandwidth_b, center_count, center_frequency_grid, erb
from .filterbank import Filterbank, FilterbankKind


def build_mpgtf(
    p: ErbParams,
    n_filters: int = 512,
    frame_len: int = 16,
    sample_rate: int = 8000,
    *,
    order: int = 2,
    kind: FilterbankKind = FilterbankKind.MPGTF,
) -> Filterbank:
    """Build a multi-phase gammatone filterbank at the ERB constants `p`.

    `frame_len` defaults to 16 taps, 2 ms at 8 kHz, at every sample
    rate. The result has exactly `n_filters` rows: n_filters/2 phase
    variants spread over the ERB-spaced centers, plus their negations.
    `kind` (MPGTF or PARAMPGTF) only labels the bank; the taps depend on
    `p` alone.

    All n_filters/2 positive-phase rows come from one broadcast expression.
    The tests hold it to the per-row reference in `tests/gammatone_model.py`:
    each row is bitwise that model's `gammatone_ir` filter of its
    (fc, b, phi), and a bad input raises the same ValueError as the bank
    built one model filter per row.

    Each check runs once, in this order, and raises ValueError: `kind` is
    a gammatone kind; `n_filters` is positive and even; an n_filters x
    frame_len array fits numpy; `sample_rate` is a positive integer with
    fs/2 above 100 Hz (in `center_count`); n_filters/2 rows give every
    centre a phase; `order` lies in 1..12 (in `bandwidth_b`); `frame_len`
    is >= 1; and no row samples to all zeros.
    """
    if kind not in (FilterbankKind.MPGTF, FilterbankKind.PARAMPGTF):
        raise ValueError(f"not a multi-phase gammatone kind: {kind}")
    if n_filters < 2 or n_filters % 2 != 0:
        raise ValueError(f"n_filters must be a positive even number, got {n_filters}")
    _check_array_size(f"n_filters={n_filters}, frame_len={frame_len}", n_filters, frame_len)
    n_half = n_filters // 2
    # The grid holds exactly `center_count` centres, so a grid too large for
    # the bank is refused before it is built (c1=1e-3, c2=1e6 spans 1 514 128).
    m = center_count(p, sample_rate)
    if m > n_half:
        raise ValueError(f"not enough filters for one phase per center: n_filters={n_filters} < 2*M={2 * m:.0f}")
    centers = center_frequency_grid(p, sample_rate)
    # Surplus phase variants go to the lowest centers, where speech energy sits.
    per_center, surplus = divmod(n_half, len(centers))
    counts = np.full(len(centers), per_center, dtype=int)
    counts[:surplus] += 1

    # No decay needs a check: every centre is >= 100 Hz, so its ERB is
    # >= 100 / c2 > 5e-307, and `bandwidth_b` (which checks the order) scales
    # that by at least 7.5e-12 (order 12), which leaves b > 4e-318.
    decays = [bandwidth_b(erb(float(fc), p), order) for fc in centers]
    if frame_len < 1:  # after the order, as the per-row reference checks them
        raise ValueError(f"length must be >= 1, got {frame_len}")

    # Row r takes phase k of its centre's count, evenly spaced on [0, pi).
    row_count = np.repeat(counts, counts)
    k = np.arange(n_half) - np.repeat(np.cumsum(counts) - counts, counts)
    row_phi = math.pi * k / row_count
    row_b = np.repeat(decays, counts)
    row_fc = np.repeat(centers, counts)
    # The expression and factor order of `gammatone_ir` in
    # `tests/gammatone_model.py`, so every tap equals the reference's
    # bitwise. A decay b above float max/(2*pi) ~ 2.9e307 (c1 = 1.7e308
    # gives b ~ 1.08e308) overflows to -inf here: every tap of its row is
    # then 0, and the zero-peak check below refuses the row.
    with np.errstate(over="ignore"):
        row_decay = -2.0 * math.pi * row_b
    t = (np.arange(frame_len) + 1.0) / sample_rate
    rows = (
        t ** (order - 1)
        * np.exp(row_decay[:, None] * t)
        * np.cos((2.0 * math.pi * row_fc)[:, None] * t + row_phi[:, None])
    )
    peaks = np.max(np.abs(rows), axis=1)
    if np.any(peaks == 0.0):
        raise ValueError("degenerate gammatone filter: all taps are zero")
    rows /= peaks[:, None]
    taps = np.vstack([rows, -rows])  # the negated copies supply [pi, 2*pi)
    return Filterbank(taps, sample_rate, kind=kind, erb_params=p)


#: ParaMPGTF: the same construction, labelled PARAMPGTF for trainable (c1, c2).
build_parampgtf = functools.partial(build_mpgtf, kind=FilterbankKind.PARAMPGTF)
build_parampgtf.__name__ = "build_parampgtf"  # a partial has no name of its own; reprs and test ids read it
