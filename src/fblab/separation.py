"""Mixtures and oracle-mask separation experiments.

An experiment's result is a tuple of floats: the SI-SNR in dB of each
separated source, in source order. `score_separation` and
`run_separation` return it. This module writes no files: `fblab
separate` writes the scores to report.csv and report.json in `cli`.

There is one mixer, `make_multi_mixture_item`, and it and `SNR_RANGE_DB`
are the mixing rule: every source after the first sits `snr_db` below the
first, and experiments draw `snr_db` from `SNR_RANGE_DB`. The targets are
the mixture's addends, so the mixture is their sum, as `separate`
requires.

Ideal ratio masks computed from the true sources stand in for a learned
separator, so encoder/decoder feature families can be compared on their
own merits at desk scale: encode the mixture, weight it by each source's
share of the magnitude in every time-frequency cell, decode through the
bank's pseudo-inverse, and score SI-SNR against the scaled sources that
actually sum to the mixture. The decoder is always that pseudo-inverse,
so every function here takes the encoder bank alone.

`separate` (and with it `run_separation`, `training.separation_loss` and
the CLI) runs the frame-blocked engine `codec._resynthesize`, which
encodes the mixture and the sources together one block of frames at a
time, masks and decodes them; it states what the engine holds and how
closely it agrees with the whole-signal path `encode` ->
`oracle_irm_masks` -> `apply_mask` -> `decode` through
`codec.pseudo_inverse(bank)`. That path is the reference: it states the
mask rule in three array lines, where the engine's weigh
`_oracle_mask_weigh` scales each source's magnitude by mixture / sum in
one divide per cell.
On sign-split banks the engine runs only the positive half of each +/-
row pair (see `codec`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import _resynthesize, encode
from .dsp import FrameParams, Waveform, _dot
from .filterbank import Filterbank
from .metrics import si_snr


class SilentSourceError(ValueError):
    """A source to mix has zero energy; `position` is its 1-based place in the source list."""

    def __init__(self, position: int, count: int, n_samples: int):
        super().__init__(f"silent source {position} of {count}: its first {n_samples} samples "
                         "(the length the sources share) are all zero")
        self.position = position


@dataclass(frozen=True, eq=False)
class MixtureItem:
    """One separation problem: a mixture and the scaled sources it sums."""

    mixture: Waveform
    sources: tuple[Waveform, ...]


#: Default range experiments draw mixture SNRs from, in dB.
SNR_RANGE_DB = (-5.0, 5.0)


def make_multi_mixture_item(sources, snr_db: float) -> MixtureItem:
    """Mix two or more sources; every tail source sits `snr_db` below the first.

    `snr_db` may be any finite value; a non-finite one is refused before
    anything else. Mixing is deterministic: experiments that draw `snr_db`
    at random, conventionally from `SNR_RANGE_DB`, own their RNG. Sources
    must share one sample rate and are truncated to the common length;
    source c >= 2 is scaled by its own gain
    g_c = sqrt((E1 / E_c) * 10^(-snr_db / 10)). The targets are the
    addends of the mixture itself (the first source and each g_c * s_c),
    so a perfect separator would score +inf SI-SNR on each. A source that
    is all zero over the common length raises `SilentSourceError` naming
    its position, and so does the `ValueError` for a source whose energy
    overflows a float (|x| >~ 1e154); an snr_db so extreme that a gain
    overflows or underflows to 0 is a `ValueError`.
    """
    if not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db!r}")
    if len(sources) < 2:
        raise ValueError(f"need at least 2 sources, got {len(sources)}")
    fs = sources[0].sample_rate
    for s in sources[1:]:
        if s.sample_rate != fs:
            raise ValueError(f"sample rates differ: {fs} vs {s.sample_rate}")
    n = min(len(s) for s in sources)
    if n == 0:
        raise ValueError("empty input")
    head = sources[0].samples[:n]
    targets = [Waveform(head, fs)]
    tails = [s.samples[:n] for s in sources[1:]]
    with np.errstate(over="ignore"):  # an overflowing energy reads inf and is refused below
        energies = [targets[0].energy()] + [_dot(tail, tail) for tail in tails]
    for position, energy in enumerate(energies, start=1):
        if energy == 0.0:
            raise SilentSourceError(position, len(sources), n)
        if energy == math.inf:
            raise ValueError(f"source {position} of {len(sources)}: its energy overflows a float")
    total = head.copy()
    for tail, energy in zip(tails, energies[1:]):
        try:  # energy != 0: the check above refused a silent source
            g = math.sqrt((energies[0] / energy) * 10.0 ** (-snr_db / 10.0))
        except OverflowError:
            g = math.inf
        if not 0.0 < g < math.inf:
            raise ValueError(f"snr_db={snr_db!r} gives a mixing gain {g!r} outside (0, inf)")
        scaled = tail * g
        targets.append(Waveform._adopt(scaled, fs))
        total += scaled
    return MixtureItem(Waveform._adopt(total, fs), tuple(targets))


def make_sinusoid_mixture_items(n_items: int, seed: int, duration_s: float = 0.5) -> list[MixtureItem]:
    """Deterministic synthetic set at 8 kHz: pairs of sinusoids from disjoint bands.

    Each item mixes one tone from 250-1200 Hz and one from 1500-3600 Hz
    (random frequency and phase) at an SNR drawn uniformly from
    `SNR_RANGE_DB`, [-5, 5] dB. Everything derives from `seed`, so the
    set doubles as a reproducible corpus for trainer and CLI tests.
    """
    fs = 8000
    rng = np.random.default_rng(seed)
    t = np.arange(int(round(duration_s * fs))) / fs
    items = []
    for _ in range(n_items):
        f_lo = rng.uniform(250.0, 1200.0)
        f_hi = rng.uniform(1500.0, 3600.0)
        ph_lo, ph_hi = rng.uniform(0.0, 2.0 * np.pi, size=2)
        snr_db = rng.uniform(*SNR_RANGE_DB)
        s1 = Waveform(0.5 * np.sin(2.0 * np.pi * f_lo * t + ph_lo), fs)
        s2 = Waveform(0.5 * np.sin(2.0 * np.pi * f_hi * t + ph_hi), fs)
        items.append(make_multi_mixture_item([s1, s2], snr_db))
    return items


def oracle_irm_masks(
    sources: tuple[Waveform, ...] | list[Waveform],
    bank: Filterbank,
    frame_params: FrameParams,
) -> np.ndarray:
    """Ideal ratio masks: each source's share of linear encoded magnitude.

    Returns a (C, N, I) array whose row c is
    mask_c = |encode(s_c)| / sum_c' |encode(s_c')|, with cells where every
    source is zero set to 1/C. The last mask is the complement of the
    others, so the set sums to one exactly. The sources are encoded with
    the bitwise reference `encode`; `encode` -> `oracle_irm_masks` ->
    `apply_mask` -> `decode` is the whole-signal reference chain that the
    blocked engine of `separate` is tested against.
    """
    if len(sources) < 2:
        raise ValueError(f"need at least 2 sources, got {len(sources)}")
    n = len(sources[0])
    if any(len(s) != n for s in sources):
        raise ValueError("sources must have equal lengths")
    if any(s.sample_rate != sources[0].sample_rate for s in sources):
        raise ValueError("sources must share one sample rate")
    mags = np.stack([np.abs(encode(s, bank, frame_params, apply_relu=False)) for s in sources])
    total = mags.sum(axis=0)
    masks = np.divide(mags, total, out=np.full_like(mags, 1.0 / len(sources)), where=total > 0.0)
    masks[-1] = np.clip(1.0 - masks[:-1].sum(axis=0), 0.0, 1.0)
    return masks


def _oracle_mask_weigh(enc: np.ndarray) -> np.ndarray:
    """`_resynthesize` weigh for oracle separation of encodings [mixture, *sources].

    Takes the engine's (1 + C, k, N') block, C >= 2, and overwrites the
    sources' rows with their masked coefficients |e_c| * (mix / sum_c' |e_c'|),
    which it returns as a (C, k, N') view. That is the ratio mask of
    `oracle_irm_masks` times the mixture's block (already rectified by the
    engine if asked), within rounding, in 3C + 1 passes over a block and
    one (k, N') temporary: C for the magnitudes, C - 1 for their sum, one
    test for all-zero cells, one divide and C products. Where every
    magnitude is zero the sum becomes C and each magnitude 1, so every
    source gets mix / C exactly, as the 1/C mask gives; identical sources
    get bitwise-equal coefficients. The ratio mix / sum overflows only if
    the mixture's encoding outgrows the sources' magnitude sum by a factor
    near 1e308, far beyond what rounding gives when the mixture is their
    sum, as on every pipeline path.

    It is linear in the mixture and reads the sources only through their
    magnitudes, so the engine may fold sign-split banks.
    """
    mix, mags = enc[0], enc[1:]
    np.abs(mags, out=mags)
    denom = mags[0] + mags[1]
    for m in mags[2:]:
        denom += m
    if denom.min() == 0.0:  # the sum is >= 0, and where it is 0 so is every magnitude; min scans faster than all()
        zero = denom == 0.0
        np.copyto(denom, len(mags), where=zero)
        np.copyto(mags, 1.0, where=zero)
    np.divide(mix, denom, out=denom)
    np.multiply(mags, denom, out=mags)
    return mags


def separate(
    mixture: Waveform,
    sources: tuple[Waveform, ...] | list[Waveform],
    bank: Filterbank,
    frame_params: FrameParams,
    apply_relu: bool = True,
) -> list[Waveform]:
    """Oracle-masked estimates of every source, trimmed to the mixture length.

    Encodes through `bank` and decodes through its pseudo-inverse. The
    mixture and the sources must have one length and `bank`'s rate, and
    the mixture must be the sum of the sources, up to rounding, as
    `make_multi_mixture_item` makes it: the weigh scales each source's
    magnitude by mixture / (sum of the sources' magnitudes) per cell, and
    a mixture that outgrows its sources far beyond that (see
    `_oracle_mask_weigh`) gives non-finite estimates, refused with the
    `ValueError` of `Waveform`. Runs the blocked engine `_resynthesize`;
    every argument is checked before any work.
    """
    if len(sources) < 2:  # `_resynthesize` checks the lengths and rates
        raise ValueError(f"need at least 2 sources, got {len(sources)}")
    return _resynthesize([mixture, *sources], bank, frame_params, _oracle_mask_weigh, len(sources),
                         relu=apply_relu)


def score_separation(
    estimates: list[Waveform],
    sources: tuple[Waveform, ...] | list[Waveform],
) -> tuple[float, ...]:
    """SI-SNR in dB of each estimate against its (scaled) source, as a tuple."""
    return tuple(si_snr(est, src) for est, src in zip(estimates, sources))


def run_separation(
    mixture: Waveform,
    sources: tuple[Waveform, ...] | list[Waveform],
    bank: Filterbank,
    frame_params: FrameParams,
) -> tuple[float, ...]:
    """Encode (rectified), oracle-mask, decode through the pseudo-inverse, and score one mixture.

    Returns the per-source SI-SNR tuple. The mixture must be the sum of the
    sources, up to rounding (see `separate`).
    """
    return score_separation(separate(mixture, sources, bank, frame_params), sources)
