"""Oracle-mask separation experiments and their reports.

An experiment's result is a tuple of floats: the SI-SNR in dB of each
separated source, in source order. `score_separation` and
`run_separation` return it, and the report writers take it with the id
of the item it scores.

Ideal ratio masks computed from the true sources stand in for a learned
separator, so encoder/decoder feature families can be compared on their
own merits at desk scale: encode the mixture, weight it by each source's
share of the magnitude in every time-frequency cell, decode, and score
SI-SNR against the scaled sources that actually sum to the mixture.

`separate` (and with it `run_separation`, `training.separation_loss` and
the CLI) runs the frame-blocked engine `codec._resynthesize`: the mixture
and the sources are encoded together one block of `codec.BLOCK_FRAMES`
frames at a time, masked and decoded, so no N x I array is ever built.
Besides its inputs it holds the C estimates of n samples each, an
O((C + 1) * L) zero-padded tail and O(N * BLOCK_FRAMES) work buffers:
it reads frames in place and hands out its overlap-add rows. Its estimates
agree with the whole-signal path `encode` -> `oracle_irm_masks` ->
`apply_mask` -> `decode` to about 1e-15 relative (tests bound it at
1e-12); that path is the reference, and both compute the masks with
`_ratio_masks`. On sign-split banks the engine runs only the positive
half of each +/- row pair (see `codec`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .codec import _resynthesize, encode
from .dsp import FrameParams, MixSpec, SNR_RANGE_DB, Waveform, _mixing_gain
from .filterbank import Filterbank
from .metrics import si_snr


@dataclass(frozen=True, eq=False)
class MixtureItem:
    """One separation problem: a mixture and the scaled sources it sums."""

    item_id: str
    mixture: Waveform
    sources: tuple[Waveform, ...]


def make_multi_mixture_item(item_id: str, sources, spec: MixSpec) -> MixtureItem:
    """Mix two or more sources; every tail source sits spec.snr_db below the first.

    Sources must share one sample rate and are truncated to the common
    length; source c >= 2 is scaled by its own gain
    g_c = sqrt((E1 / E_c) * 10^(-snr_db / 10)). The targets are the
    addends of the mixture itself (the first source and each g_c * s_c),
    so a perfect separator would score +inf SI-SNR on each.
    """
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
    total = head.copy()
    for s in sources[1:]:
        tail = s.samples[:n]
        scaled = tail * _mixing_gain(head, tail, spec)
        targets.append(Waveform._adopt(scaled, fs))
        total += scaled
    return MixtureItem(item_id, Waveform._adopt(total, fs), tuple(targets))


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
    for i in range(n_items):
        f_lo = rng.uniform(250.0, 1200.0)
        f_hi = rng.uniform(1500.0, 3600.0)
        ph_lo, ph_hi = rng.uniform(0.0, 2.0 * np.pi, size=2)
        snr_db = rng.uniform(*SNR_RANGE_DB)
        s1 = Waveform(0.5 * np.sin(2.0 * np.pi * f_lo * t + ph_lo), fs)
        s2 = Waveform(0.5 * np.sin(2.0 * np.pi * f_hi * t + ph_hi), fs)
        items.append(make_multi_mixture_item(f"synth-{i:03d}", [s1, s2], MixSpec(snr_db)))
    return items


def _check_sources(sources) -> None:
    if len(sources) < 2:
        raise ValueError(f"need at least 2 sources, got {len(sources)}")
    n = len(sources[0])
    if any(len(s) != n for s in sources):
        raise ValueError("sources must have equal lengths")
    if any(s.sample_rate != sources[0].sample_rate for s in sources):
        raise ValueError("sources must share one sample rate")


def _ratio_masks(mags: np.ndarray) -> None:
    """Turn C stacked magnitudes (C, ...) into ideal ratio masks, in place.

    mask_c = mags[c] / sum(mags), or 1/C where every magnitude is zero;
    the last mask is clip(1 - sum of the others), so the set sums to one.
    """
    c = mags.shape[0]
    denom = mags[0] + mags[1]
    for m in mags[2:]:
        denom += m
    # A zero sum means every magnitude is zero there: 1 / C reads 1/C exactly.
    zero = denom == 0.0
    np.copyto(denom, c, where=zero)
    for m in mags[:-1]:
        np.copyto(m, 1.0, where=zero)
        np.divide(m, denom, out=m)
    last = mags[-1]
    np.copyto(last, mags[0])
    for m in mags[1:-1]:
        last += m
    np.subtract(1.0, last, out=last)
    np.clip(last, 0.0, 1.0, out=last)


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
    _check_sources(sources)
    mags = np.stack([np.abs(encode(s, bank, frame_params, apply_relu=False).values) for s in sources])
    _ratio_masks(mags)
    return mags


def _oracle_mask_weigh(enc: np.ndarray) -> np.ndarray:
    """`_resynthesize` weigh for oracle separation of encodings [mixture, *sources].

    Turns the sources' blocks into ratio masks and multiplies them by the
    mixture's (already rectified by the engine if asked); returns the C
    masked blocks. It is linear in the mixture and reads the sources only
    through their magnitudes, so the engine may fold sign-split banks.
    """
    mix, mags = enc[0], enc[1:]
    np.abs(mags, out=mags)
    _ratio_masks(mags)
    np.multiply(mags, mix, out=mags)
    return mags


def separate(
    mixture: Waveform,
    sources: tuple[Waveform, ...] | list[Waveform],
    enc_bank: Filterbank,
    dec_bank: Filterbank,
    frame_params: FrameParams,
    apply_relu: bool = True,
) -> list[Waveform]:
    """Oracle-masked estimates of every source, trimmed to the mixture length.

    The mixture and the sources must have one length and one sample rate.
    Runs the blocked engine `_resynthesize`; every argument is checked
    before any work.
    """
    _check_sources(sources)
    return _resynthesize([mixture, *sources], enc_bank, dec_bank, frame_params,
                         _oracle_mask_weigh, len(sources), relu=apply_relu)


def score_separation(
    estimates: list[Waveform],
    sources: tuple[Waveform, ...] | list[Waveform],
) -> tuple[float, ...]:
    """SI-SNR in dB of each estimate against its (scaled) source, as a tuple."""
    return tuple(si_snr(est, src).value_db for est, src in zip(estimates, sources))


def run_separation(
    mixture: Waveform,
    sources: tuple[Waveform, ...] | list[Waveform],
    enc_bank: Filterbank,
    dec_bank: Filterbank,
    frame_params: FrameParams,
) -> tuple[float, ...]:
    """Encode (rectified), oracle-mask, decode, and score one mixture: the per-source SI-SNR tuple."""
    return score_separation(separate(mixture, sources, enc_bank, dec_bank, frame_params), sources)


def write_report_csv(path, item_id: str, scores: tuple[float, ...]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("item_id,source_idx,si_snr_db\n")
        for idx, value in enumerate(scores):
            fh.write(f"{item_id},{idx},{value!r}\n")


def write_report_json(path, item_id: str, scores: tuple[float, ...], config: dict, bank_info: dict) -> None:
    payload = {
        "mean_si_snr_db": float(np.mean(scores)),
        "config": config,
        "bank": bank_info,
        "items": [{"item_id": item_id, "si_snr_db": list(scores)}],
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def bank_info(bank: Filterbank) -> dict:
    """Provenance summary of a bank for report JSON."""
    info = {
        "kind": bank.kind.value,
        "n_filters": bank.n_filters,
        "filter_len": bank.filter_len,
        "sample_rate": bank.sample_rate,
    }
    if bank.erb_params is not None:
        info["c1"] = bank.erb_params.c1
        info["c2"] = bank.erb_params.c2
    return info
