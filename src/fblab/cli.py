"""Command-line front end.

Subcommands: build-bank, freq-response, roundtrip, separate, train. All
numeric defaults mirror the canonical operating point (8 kHz, 16-tap
frames, hop 8, 512 filters, c1 = 24.7, c2 = 9.265, gammatone order 2),
so a flagless run reproduces the standard configuration. Outputs are
deterministic given --seed; the FBLAB_SEED environment variable overrides
the default seed of 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .codec import _resynthesize, pseudo_inverse
from .dsp import FrameParams, MixSpec, SNR_RANGE_DB, Waveform
from .erb import DEFAULT_C1, DEFAULT_C2, ErbParams
from .filterbank import FilterbankKind, frequency_response, load_filterbank, save_filterbank
from .gammatone import build_mpgtf, build_parampgtf
from .metrics import clip_si_snr, si_snr
from .separation import (
    bank_info,
    make_multi_mixture_item,
    score_separation,
    separate,
    write_report_csv,
    write_report_json,
)
from .stft import StftMode, StftSpec, StftWindow, build_stft_bank
from .training import TrainerConfig, TrainingDivergedError, train_parampgtf, write_trace_csv
from .wavio import WavError, read_wav, write_wav

SEED_ENV_VAR = "FBLAB_SEED"


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    value = os.environ.get(SEED_ENV_VAR, "0")
    if not value.strip().isdecimal():  # also "-1", which numpy refuses without naming the variable
        raise ValueError(f"{SEED_ENV_VAR} must be a non-negative integer, got {value!r}")
    return int(value)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fblab",
        description="Analysis/synthesis filterbank lab: build banks, inspect them, and run oracle-mask separation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("build-bank", formatter_class=fmt, help="construct a filterbank and write it as FBANK1")
    p.add_argument("kind", choices=["mpgtf", "parampgtf", "stft"],
                   help="filterbank family; mpgtf and parampgtf build the same multi-phase gammatone taps "
                        "from --c1/--c2 and differ only in the kind recorded in the file")
    p.add_argument("--out", required=True, help="output FBANK1 path")
    p.add_argument("--fs", type=int, default=8000, help="sample rate in Hz")
    p.add_argument("--frame-len", type=int, default=16, help="filter length L in samples")
    p.add_argument("--n-filters", type=int, default=512, help="number of filters N (gammatone kinds)")
    p.add_argument("--c1", type=float, default=DEFAULT_C1, help="ERB parameter c1 in Hz (gammatone kinds)")
    p.add_argument("--c2", type=float, default=DEFAULT_C2, help="ERB parameter c2, dimensionless (gammatone kinds)")
    p.add_argument("--order", type=int, default=2, help="gammatone order n (gammatone kinds)")
    p.add_argument("--mode", choices=[m.value for m in StftMode], default=StftMode.SIGN_SPLIT.value,
                   help="STFT row mode (stft)")
    p.add_argument("--nfreqs", type=int, default=128, help="distinct STFT frequencies (stft)")
    p.add_argument("--window", choices=[w.value for w in StftWindow], default=StftWindow.RECTANGULAR.value,
                   help="STFT analysis window (stft)")
    p.set_defaults(func=cmd_build_bank)

    p = sub.add_parser("freq-response", formatter_class=fmt, help="export per-filter FFT magnitudes as CSV")
    p.add_argument("bank", help="FBANK1 file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--n-fft", type=int, default=512, help="FFT size (filters are zero-padded)")
    p.set_defaults(func=cmd_freq_response)

    p = sub.add_parser("roundtrip", formatter_class=fmt,
                       help="encode a WAV through a bank and decode it with the pseudo-inverse")
    p.add_argument("bank", help="FBANK1 file")
    p.add_argument("wav_in", help="input WAV (mono, rate must match the bank)")
    p.add_argument("wav_out", help="output WAV (float32)")
    p.add_argument("--relu", action="store_true", help="rectify the encoder output")
    p.add_argument("--hop", type=int, default=None, help="frame hop D (default: frame length, i.e. no overlap)")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("separate", formatter_class=fmt,
                       help="mix source WAVs and separate them with oracle ratio masks")
    p.add_argument("bank", help="FBANK1 encoder bank; the decoder is its pseudo-inverse")
    p.add_argument("sources", nargs="+", help="two or more source WAVs (tail sources sit snr-db below the first)")
    p.add_argument("--out-dir", required=True, help="directory for estimates and reports")
    p.add_argument("--snr-db", type=float, default=None,
                   help=f"mixing SNR in dB (default: drawn uniformly from {list(SNR_RANGE_DB)} using --seed)")
    p.add_argument("--hop", type=int, default=8, help="frame hop D")
    p.add_argument("--no-relu", action="store_true", help="skip encoder rectification")
    p.add_argument("--seed", type=int, default=None, help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("train", formatter_class=fmt,
                       help="fit (c1, c2) on directories of paired-source WAVs (<stem>_s1.wav / <stem>_s2.wav)")
    p.add_argument("train_dir", help="directory of training pairs")
    p.add_argument("dev_dir", help="directory of development pairs")
    p.add_argument("--out-dir", required=True, help="directory for trace, bank, and result JSON")
    p.add_argument("--lr", type=float, default=0.05, help="learning rate")
    p.add_argument("--max-iters", type=int, default=20, help="gradient iterations")
    p.add_argument("--fd-epsilon", type=float, default=1e-3, help="relative finite-difference step")
    p.add_argument("--c1-init", type=float, default=DEFAULT_C1, help="initial c1")
    p.add_argument("--c2-init", type=float, default=DEFAULT_C2, help="initial c2")
    p.add_argument("--n-filters", type=int, default=512, help="filters in the trained bank")
    p.add_argument("--frame-len", type=int, default=16, help="filter length L")
    p.add_argument("--hop", type=int, default=8, help="frame hop D")
    p.add_argument("--seed", type=int, default=None, help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")
    p.set_defaults(func=cmd_train)

    return parser


def cmd_build_bank(args) -> int:
    overcomplete = False
    if args.kind == "stft":
        spec = StftSpec(args.frame_len, args.nfreqs, StftMode(args.mode), StftWindow(args.window))
        bank = build_stft_bank(spec, args.fs)
        overcomplete = spec.overcomplete
    else:
        bank = build_mpgtf(ErbParams(args.c1, args.c2), args.n_filters, args.frame_len, args.fs,
                           order=args.order, kind=FilterbankKind(args.kind))
    save_filterbank(args.out, bank)
    if overcomplete:  # after the save, so a failed save reports only its error
        print(f"warning: overcomplete: {args.nfreqs} frequencies exceed frame_len/2 = {args.frame_len / 2:g}; "
              "the analysis matrix cannot have independent rows", file=sys.stderr)
    print(f"N={bank.n_filters} L={bank.filter_len} M={len(bank.center_freqs)}")
    return 0


def cmd_freq_response(args) -> int:
    bank = load_filterbank(args.bank)
    bin_hz, mags = frequency_response(bank, args.n_fft)
    with open(args.out, "w", newline="\n") as fh:
        fh.write("filter_index,bin_hz,magnitude\n")
        for n in range(bank.n_filters):
            for k in range(args.n_fft):
                fh.write(f"{n},{float(bin_hz[k])!r},{float(mags[n, k])!r}\n")
    print(f"wrote {bank.n_filters * args.n_fft} rows to {args.out}")
    return 0


def cmd_roundtrip(args) -> int:
    bank = load_filterbank(args.bank)
    x = read_wav(args.wav_in)
    hop = args.hop if args.hop is not None else bank.filter_len
    p = FrameParams(bank.filter_len, hop)
    (out,) = _resynthesize([x], bank, pseudo_inverse(bank), p, None, 1, relu=args.relu)
    write_wav(args.wav_out, out, encoding="float32")
    if x.energy() == 0.0:
        print("si_snr_db=n/a")
    else:
        print(f"si_snr_db={clip_si_snr(si_snr(out, x).value_db)!r}")
    return 0


def cmd_separate(args) -> int:
    if len(args.sources) < 2:
        print("error: separate needs at least two source WAVs", file=sys.stderr)
        return 2
    seed = _resolve_seed(args)
    if args.snr_db is None:
        snr_db = float(np.random.default_rng(seed).uniform(*SNR_RANGE_DB))
    else:
        snr_db = args.snr_db
    sources = [read_wav(path) for path in args.sources]
    bank = load_filterbank(args.bank)
    item = make_multi_mixture_item("item-0", sources, MixSpec(snr_db))
    del sources  # the item holds its own targets; this frees the read copies
    p = FrameParams(bank.filter_len, args.hop)
    dec = pseudo_inverse(bank)
    estimates = separate(item.mixture, item.sources, bank, dec, p, apply_relu=not args.no_relu)
    scores = score_separation(estimates, item.sources)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_wav(out_dir / "mixture.wav", item.mixture, encoding="float32")
    for i, est in enumerate(estimates, start=1):
        write_wav(out_dir / f"est_{i}.wav", est, encoding="float32")
    write_report_csv(out_dir / "report.csv", item.item_id, scores)
    config = {
        "snr_db": snr_db,
        "seed": seed,
        "hop": args.hop,
        "relu": not args.no_relu,
        "sources": [Path(s).name for s in args.sources],
    }
    write_report_json(out_dir / "report.json", item.item_id, scores, config, bank_info(bank))
    print(f"mean_si_snr_db={float(np.mean(scores))!r}")
    return 0


def _load_pairs(directory: Path, expected_fs: int | None) -> list[tuple[str, Waveform, Waveform]]:
    """The <stem>_s1/_s2 pairs in `directory`, all at `expected_fs` (None: the first pair's rate)."""
    pairs = []
    for first in sorted(directory.glob("*_s1.wav")):
        second = first.with_name(first.name[: -len("_s1.wav")] + "_s2.wav")
        if not second.exists():
            raise ValueError(f"missing partner file for {first.name}")
        s1 = read_wav(first)
        s2 = read_wav(second)
        expected_fs = expected_fs or s1.sample_rate
        if s1.sample_rate != expected_fs or s2.sample_rate != expected_fs:
            raise ValueError(f"sample rate mismatch in {first.stem}: expected {expected_fs} Hz")
        pairs.append((first.name[: -len("_s1.wav")], s1, s2))
    if not pairs:
        raise ValueError(f"no *_s1.wav/*_s2.wav pairs found in {directory}")
    return pairs


def cmd_train(args) -> int:
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    items = {}
    fs = None  # every pair must match the first train pair's rate
    for split, directory in (("train", Path(args.train_dir)), ("dev", Path(args.dev_dir))):
        split_items = []
        for stem, s1, s2 in _load_pairs(directory, fs):
            snr_db = float(rng.uniform(*SNR_RANGE_DB))
            split_items.append(make_multi_mixture_item(stem, [s1, s2], MixSpec(snr_db)))
        items[split] = split_items
        fs = split_items[0].mixture.sample_rate

    cfg = TrainerConfig(learning_rate=args.lr, max_iters=args.max_iters, fd_epsilon=args.fd_epsilon)
    init = ErbParams(args.c1_init, args.c2_init)
    frame_params = FrameParams(args.frame_len, args.hop)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        best, trace = train_parampgtf(items["train"], items["dev"], cfg, init,
                                      n_filters=args.n_filters, frame_params=frame_params)
    except TrainingDivergedError as exc:
        write_trace_csv(out_dir / "trace.csv", exc.trace)  # keep the rows before the failure
        raise
    write_trace_csv(out_dir / "trace.csv", trace)
    bank = build_parampgtf(best, args.n_filters, args.frame_len, fs)
    save_filterbank(out_dir / "parampgtf.fbank", bank)
    result = {
        "c1": best.c1,
        "c2": best.c2,
        "init": {"c1": init.c1, "c2": init.c2},
        "iterations": len(trace),
        "best_dev_loss": min((row.dev_loss for row in trace), default=None),
        "seed": seed,
        "config": {
            "learning_rate": cfg.learning_rate,
            "max_iters": cfg.max_iters,
            "fd_epsilon": cfg.fd_epsilon,
            "n_filters": args.n_filters,
            "frame_len": args.frame_len,
            "hop": args.hop,
        },
    }
    with open(out_dir / "result.json", "w", newline="\n") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"c1={best.c1!r} c2={best.c2!r}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, WavError, OSError, TrainingDivergedError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
