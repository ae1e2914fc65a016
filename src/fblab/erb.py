"""Equivalent-rectangular-bandwidth (ERB) math for auditory filterbanks.

The auditory filter bandwidth is modeled as the affine function

    ERB(fc) = c1 + fc / c2

with the standard empirical constants c1 = 24.7 Hz and c2 = 9.265.
Integrating 1/ERB(f) gives the ERB-rate scale, a warped frequency axis
where one unit equals one auditory filter bandwidth:

    scale(f)   = c2 * ln(1 + f / (c1 * c2))
    scale^-1(u) = c1 * c2 * (exp(u / c2) - 1)

Center frequencies placed one unit apart on this scale follow the
recursion f_j = scale^-1(scale(f_{j-1}) + 1). Both (c1, c2) are kept as
an explicit value object so they can be treated as trainable parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Standard empirical ERB constants.
DEFAULT_C1 = 24.7
DEFAULT_C2 = 9.265

#: Center frequencies of gammatone banks are confined to this band (Hz).
FC_MIN_HZ = 100.0
FC_MAX_HZ = 4000.0

#: Factorials overflow the guard above this gammatone order.
MAX_ORDER = 12


@dataclass(frozen=True)
class ErbParams:
    """The (c1, c2) pair of the affine ERB model; both > 0, and so is c1 * c2."""

    c1: float = DEFAULT_C1
    c2: float = DEFAULT_C2

    def __post_init__(self):
        if not (math.isfinite(self.c1) and self.c1 > 0):
            raise ValueError(f"invalid ERB parameters: c1 must be finite and > 0, got {self.c1!r}")
        if not (math.isfinite(self.c2) and self.c2 > 0):
            raise ValueError(f"invalid ERB parameters: c2 must be finite and > 0, got {self.c2!r}")
        if self.c1 * self.c2 == 0.0:  # the ERB-rate scale divides by it
            raise ValueError(f"invalid ERB parameters: c1 * c2 underflows to 0, got c1={self.c1!r}, c2={self.c2!r}")


def erb(fc: float, p: ErbParams = ErbParams()) -> float:
    """Equivalent rectangular bandwidth c1 + fc/c2 at center frequency fc, in Hz."""
    if fc < 0:
        raise ValueError(f"center frequency must be >= 0, got {fc}")
    return p.c1 + fc / p.c2


def bandwidth_b(erb_value: float, order_n: int) -> float:
    """Gammatone decay parameter b for a filter of order n and given ERB.

        b = ERB * sqrt((n-1)!) / (pi * (2n-2)! * 2^(2-2n))

    For n = 2 this reduces to 2*ERB/pi.
    """
    if erb_value <= 0:
        raise ValueError(f"erb_value must be > 0, got {erb_value}")
    if order_n < 1:
        raise ValueError(f"order_n must be >= 1, got {order_n}")
    if order_n > MAX_ORDER:
        raise ValueError(f"order_n > {MAX_ORDER} overflows the factorial guard, got {order_n}")
    num = math.sqrt(math.factorial(order_n - 1))
    den = math.pi * math.factorial(2 * order_n - 2) * 2.0 ** (2 - 2 * order_n)
    return erb_value * num / den


def erb_scale(f_hz: float, p: ErbParams = ErbParams()) -> float:
    """Map a frequency in Hz onto the ERB-rate scale (natural log; scale(0) = 0)."""
    if f_hz < 0:
        raise ValueError(f"frequency must be >= 0, got {f_hz}")
    return p.c2 * math.log1p(f_hz / (p.c1 * p.c2))


def erb_scale_inv(u: float, p: ErbParams = ErbParams()) -> float:
    """Map an ERB-rate value back to Hz; exact inverse of `erb_scale`.

    Raises ValueError when the frequency overflows a float (u / c2 above
    about 709).
    """
    if u < 0:
        raise ValueError(f"ERB-rate value must be >= 0, got {u}")
    try:
        f_hz = p.c1 * p.c2 * math.expm1(u / p.c2)
    except OverflowError:
        f_hz = math.inf
    if math.isinf(f_hz):
        raise ValueError(f"ERB-rate value u={u!r} overflows a float frequency at c2={p.c2!r}")
    return f_hz


def center_count(p: ErbParams) -> float:
    """Centres `center_frequency_grid(p)` places from FC_MIN_HZ to FC_MAX_HZ, in closed form.

    The grid steps one ERB-rate unit at a time from scale(FC_MIN_HZ), so it
    holds floor(span) + 1 centres for the span

        scale(FC_MAX_HZ) - scale(FC_MIN_HZ) = c2 * ln((c1*c2 + FC_MAX_HZ) / (c1*c2 + FC_MIN_HZ)),

    computed as one `log1p` that neither divides by c1*c2 nor cancels.
    Where the span lies within rounding of an integer, the recursion can
    land one centre to either side. Returned as a float, so a span too
    large for one reads inf.
    """
    span = p.c2 * math.log1p((FC_MAX_HZ - FC_MIN_HZ) / (p.c1 * p.c2 + FC_MIN_HZ))
    return math.floor(span) + 1.0 if math.isfinite(span) else math.inf


def center_frequency_grid(p: ErbParams, f_start: float = FC_MIN_HZ, f_max: float = FC_MAX_HZ) -> np.ndarray:
    """Center frequencies spaced one ERB-rate unit apart, starting at f_start.

    The first element is f_start exactly; generation stops before the
    recursion f_j = scale^-1(scale(f_{j-1}) + 1) would exceed f_max. A
    step whose inverse overflows a float (tiny c2, where one ERB-rate unit
    spans the whole band) counts as exceeding f_max.
    """
    if not 0 < f_start < f_max:
        raise ValueError(f"need 0 < f_start < f_max, got f_start={f_start}, f_max={f_max}")
    centers = [float(f_start)]
    while True:
        try:
            nxt = erb_scale_inv(erb_scale(centers[-1], p) + 1.0, p)
        except ValueError:  # the step overflows a float; its arguments are in range
            break
        if nxt > f_max:
            break
        centers.append(nxt)
    return np.array(centers, dtype=np.float64)
