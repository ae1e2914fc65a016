"""Equivalent-rectangular-bandwidth (ERB) math for auditory filterbanks.

The auditory filter bandwidth is modeled as the affine function

    ERB(fc) = c1 + fc / c2

with the standard empirical constants c1 = 24.7 Hz and c2 = 9.265.
Integrating 1/ERB(f) gives the ERB-rate scale, a warped frequency axis
where one unit equals one auditory filter bandwidth:

    scale(f)   = c2 * ln(1 + f / (c1 * c2))
    scale^-1(u) = c1 * c2 * (exp(u / c2) - 1)

Center frequencies placed one unit apart on this scale from f_0 have the
closed form

    f_j = scale^-1(scale(f_0) + j) = (f_0 + c1*c2) * exp(j / c2) - c1*c2.

Both (c1, c2) are kept as an explicit value object so they can be
treated as trainable parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsp import _check_sample_rate

#: Standard empirical ERB constants.
DEFAULT_C1 = 24.7
DEFAULT_C2 = 9.265

#: Center frequencies of gammatone banks start here (Hz); the band ends below fs/2.
FC_MIN_HZ = 100.0

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


def _band_top(sample_rate: int) -> float:
    """fs/2, the top of the centre band at `sample_rate`; ValueError if it is not above FC_MIN_HZ."""
    _check_sample_rate(sample_rate)
    top = sample_rate / 2
    if top <= FC_MIN_HZ:
        raise ValueError(f"no gammatone centre band at {sample_rate} Hz: fs/2 = {top:g} Hz "
                         f"must exceed {FC_MIN_HZ:g} Hz")
    return top


def _centers_past_the_first(p: ErbParams, steps: np.ndarray) -> np.ndarray:
    """Centres j = `steps` (float64, each >= 1) of the grid: FC_MIN_HZ + (FC_MIN_HZ + c1*c2) * expm1(j / c2)."""
    return FC_MIN_HZ + (FC_MIN_HZ + p.c1 * p.c2) * np.expm1(steps / p.c2)


def center_count(p: ErbParams, sample_rate: int = 8000) -> float:
    """Centres `center_frequency_grid(p, sample_rate)` holds: floor(span) + 1, for the span

        scale(fs/2) - scale(FC_MIN_HZ) = c2 * ln((c1*c2 + fs/2) / (c1*c2 + FC_MIN_HZ))

    of the band, computed as one `log1p` that neither divides by c1*c2 nor
    cancels; one fewer when centre floor(span) rounds to fs/2 or past it,
    where a phase-shifted row is rounding noise. Returned as a float, so a
    span too large for one reads inf. Raises ValueError for a rate whose
    fs/2 is not above FC_MIN_HZ.
    """
    top = _band_top(sample_rate)
    span = p.c2 * math.log1p((top - FC_MIN_HZ) / (p.c1 * p.c2 + FC_MIN_HZ))
    if not math.isfinite(span):
        return math.inf
    last = math.floor(span)
    if last and _centers_past_the_first(p, np.float64(last)) >= top:
        last -= 1
    return last + 1.0


def center_frequency_grid(p: ErbParams, sample_rate: int = 8000) -> np.ndarray:
    """Center frequencies spaced one ERB-rate unit apart over the band [FC_MIN_HZ, fs/2).

    Centre j is FC_MIN_HZ + (FC_MIN_HZ + c1*c2) * expm1(j / c2) for j = 0 ..
    `center_count(p, sample_rate)` - 1; j / c2 never exceeds the span's
    log, so expm1 cannot overflow. The first element is FC_MIN_HZ exactly,
    and every centre lies below fs/2: a last centre that rounding puts at
    fs/2 or past it is not counted. At the default 8 kHz the band is
    [100, 4000) Hz. Raises ValueError when fs/2 is not above FC_MIN_HZ, or
    when the span is too large for a float.
    """
    count = center_count(p, sample_rate)
    if math.isinf(count):
        raise ValueError(f"the ERB-rate span from {FC_MIN_HZ} to {sample_rate / 2} Hz overflows a float "
                         f"at c1={p.c1!r}, c2={p.c2!r}")
    # Centre 0 is placed apart: where c1*c2 overflows (one centre), its term would be inf * 0.
    return np.concatenate(([FC_MIN_HZ], _centers_past_the_first(p, np.arange(1.0, count))))
