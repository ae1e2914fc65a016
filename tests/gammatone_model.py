"""The single-filter gammatone sampler: the per-row reference for `build_mpgtf`.

`fblab.gammatone.build_mpgtf` samples every row of a multi-phase bank in
one broadcast. This model samples one filter at a time, the way the bank
was first built, and the tests require the builder's taps to equal it
bitwise and its errors to match. It is not part of the library.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


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
        fs = self.sample_rate
        if not (isinstance(fs, (int, np.integer)) and fs > 0):
            raise ValueError(f"sample_rate must be a positive integer, got {fs!r}")
        if fs > sys.float_info.max:
            raise ValueError(f"sample_rate must not exceed the float range ({sys.float_info.max!r} Hz)")
        if self.order_n < 1:
            raise ValueError(f"order_n must be >= 1, got {self.order_n}")
        if self.bandwidth_b <= 0:
            raise ValueError(f"bandwidth_b must be > 0, got {self.bandwidth_b}")
        if not 0 < self.center_fc < fs / 2:
            raise ValueError(f"center_fc must lie in (0, fs/2) = (0, {fs / 2}), got {self.center_fc}")
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")


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
