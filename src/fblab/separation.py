"""Mixtures and oracle-mask separation experiments.

An experiment's result is a tuple of floats: the SI-SNR in dB of each
separated source, in source order. `score_separation` and
`run_separation` return it. This module writes no files: `fblab
separate` writes the scores to report.csv and report.json in `cli`.

There is one mixer, `make_multi_mixture_item`, and it and `SNR_RANGE_DB`
are the mixing rule: every source after the first sits `snr_db` below the
first, and experiments draw `snr_db` from `SNR_RANGE_DB`. A `MixtureItem`
holds the scaled sources alone; its mixture is their sum, a value derived
on each read. No fblab module reads it: `separate` derives the mixture's
encoding from the sources', and `fblab separate` writes mixture.wav with
`write_wav(path, *item.sources)`, which sums the sources one chunk at a
time. It stays the whole-signal model of that sum, which the benchmark's
reference separation reads.

Ideal ratio masks computed from the true sources stand in for a learned
separator, so encoder/decoder feature families can be compared on their
own merits at desk scale: encode the mixture, weight it by each source's
share of the magnitude in every time-frequency cell, decode through the
bank's pseudo-inverse, and score SI-SNR against the scaled sources that
actually sum to the mixture. The decoder is always that pseudo-inverse,
so every function here takes the encoder bank alone.

`separate` (and with it `run_separation`, `training.separation_loss` and
the CLI) runs the frame-blocked engine `codec._resynthesize`, which
encodes the sources one block of frames at a time, sums their encodings
into the mixture's, masks and decodes them; it states what the engine
holds and how closely it agrees with the whole-signal path `encode` ->
`oracle_irm_masks` -> `apply_mask` -> `decode` through
`codec.pseudo_inverse(bank)`, which encodes the mixture itself. That
path is the reference: it states the mask rule in three array lines,
where the engine's weigh `_oracle_mask_weigh` scales each source's
magnitude by mixture / sum in one divide per cell. The mixture's
encoding is the sum of the sources' encodings, so its magnitude never
exceeds the sum of their magnitudes: the ratio stays in [-1, 1] and
cannot overflow.
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
    """One separation problem: two or more scaled sources of one length and one sample rate.

    Each refusal of `sources` is a `ValueError` that names its fault:
    fewer than two, unequal lengths or more than one sample rate.
    """

    sources: tuple[Waveform, ...]

    def __post_init__(self):
        if len(self.sources) < 2:
            raise ValueError(f"need at least 2 sources, got {len(self.sources)}")
        if any(len(s) != len(self.sources[0]) for s in self.sources):
            raise ValueError(f"sources must have equal lengths, got {[len(s) for s in self.sources]}")
        if any(s.sample_rate != self.sources[0].sample_rate for s in self.sources):
            raise ValueError(f"sources must share one sample rate, got {[s.sample_rate for s in self.sources]}")

    @property
    def mixture(self) -> Waveform:
        """The sum of the sources, added in order onto a copy of the first, computed on each read.

        A sum beyond the float range is refused with the `ValueError` of
        `Waveform`. This is a signal-long array: the pipeline never builds
        it, and `write_wav(path, *item.sources)` writes its float32 bytes
        one chunk at a time. It is the reference those paths are checked
        against.
        """
        total = self.sources[0].samples.copy()
        with np.errstate(over="ignore"):  # an overflowing sum reads inf and is refused by `_adopt`
            for s in self.sources[1:]:
                total += s.samples
        return Waveform._adopt(total, self.sources[0].sample_rate)


#: Default range experiments draw mixture SNRs from, in dB.
SNR_RANGE_DB = (-5.0, 5.0)


def make_multi_mixture_item(sources, snr_db: float) -> MixtureItem:
    """Mix two or more sources; every tail source sits `snr_db` below the first.

    `snr_db` may be any finite value; a non-finite one is refused before
    anything else. Mixing is deterministic: experiments that draw `snr_db`
    at random, conventionally from `SNR_RANGE_DB`, own their RNG. Sources
    must share one sample rate and are truncated to the common length;
    source c >= 2 is scaled by its own gain
    g_c = sqrt((E1 / E_c) * 10^(-snr_db / 10)). The item holds these
    targets (the first source and each g_c * s_c) and nothing else; its
    mixture is their sum, so a perfect separator would score +inf SI-SNR
    on each. A source that is all zero over the common length raises
    `SilentSourceError` naming its position, and so does the `ValueError`
    for a source whose energy overflows a float (|x| >~ 1e154); an snr_db
    so extreme that a gain overflows or underflows to 0 is a `ValueError`.
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
    for tail, energy in zip(tails, energies[1:]):
        try:  # energy != 0: the check above refused a silent source
            g = math.sqrt((energies[0] / energy) * 10.0 ** (-snr_db / 10.0))
        except OverflowError:
            g = math.inf
        if not 0.0 < g < math.inf:
            raise ValueError(f"snr_db={snr_db!r} gives a mixing gain {g!r} outside (0, inf)")
        targets.append(Waveform._adopt(tail * g, fs))
    return MixtureItem(tuple(targets))


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

    Takes the engine's (1 + C, k, N') block, C >= 2, whose row 0, mix, is
    the sum of the sources' encodings e_c in rows 1 .. C, and overwrites
    the sources' rows with their masked coefficients
    |e_c| * (mix / sum_c' |e_c'|), which it returns as a (C, k, N') view.
    That is the ratio mask of `oracle_irm_masks` times the mixture's
    encoding (already rectified by the engine if asked), within rounding,
    in 3C + 1 passes over a block and one (k, N') temporary: C for the
    magnitudes, C - 1 for their sum, one test for all-zero cells, one
    divide and C products. Where every magnitude is zero the sum becomes C
    and each magnitude 1, so every source gets mix / C exactly, as the 1/C
    mask gives; identical sources get bitwise-equal coefficients. The
    magnitudes are summed in the order the engine sums the encodings, and
    rounding is monotonic, so |mix| never exceeds the sum: the ratio stays
    in [-1, 1] and cannot overflow.

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
    sources: tuple[Waveform, ...] | list[Waveform],
    bank: Filterbank,
    frame_params: FrameParams,
    apply_relu: bool = True,
) -> list[Waveform]:
    """Oracle-masked estimates of every source from their mixture, trimmed to its length.

    The mixture is the sum of the sources; its encoding is the sum of
    theirs, which the blocked engine `_resynthesize` forms block by block,
    rectifies if `apply_relu`, masks per source (`_oracle_mask_weigh`) and
    decodes through the pseudo-inverse of `bank`. The sources must be two
    or more, of one length and at `bank`'s rate; every argument is checked
    before any work. An encoding, or a sum of encodings, beyond the float
    range is refused with a `ValueError`.
    """
    if len(sources) < 2:  # `_resynthesize` checks the lengths and rates
        raise ValueError(f"need at least 2 sources, got {len(sources)}")
    return _resynthesize(sources, bank, frame_params, _oracle_mask_weigh, len(sources), relu=apply_relu)


def score_separation(
    estimates: list[Waveform],
    sources: tuple[Waveform, ...] | list[Waveform],
) -> tuple[float, ...]:
    """SI-SNR in dB of each estimate against its (scaled) source, as a tuple."""
    return tuple(si_snr(est, src) for est, src in zip(estimates, sources))


def run_separation(
    sources: tuple[Waveform, ...] | list[Waveform],
    bank: Filterbank,
    frame_params: FrameParams,
) -> tuple[float, ...]:
    """Encode (rectified), oracle-mask, decode through the pseudo-inverse, and score the sum of `sources`.

    Returns the per-source SI-SNR tuple (see `separate`).
    """
    return score_separation(separate(sources, bank, frame_params), sources)
