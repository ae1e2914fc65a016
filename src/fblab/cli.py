"""Command-line front end.

Subcommands: build-bank, freq-response, roundtrip, separate, train. All
numeric defaults mirror the canonical operating point (8 kHz, 16-tap
frames, hop 8, 512 filters, c1 = 24.7, c2 = 9.265, gammatone order 2),
so a flagless run reproduces the standard configuration; `roundtrip`'s
--hop alone defaults to the bank's frame length instead. Outputs are
deterministic given --seed, which defaults to 0.

Every file a subcommand produces is written here except WAVs
(`wavio.write_wav`) and FBANK2 banks (`filterbank.save_filterbank`).
`build-bank` prints one `warning: ` line on stderr, after the save, when
the bank's condition number exceeds `COND_WARN`.
`separate` writes mixture.wav as `write_wav(path, *item.sources)`, which
sums the sources one chunk at a time: past the engine's fixed buffers, a
two-source run peaks at four signal lengths (the sources and the
estimates), and no mixture signal is ever built. Its
text outputs go through one line writer, `_write_lines`: the
freq-response CSV, `separate`'s report.csv and `train`'s trace.csv; and
one JSON writer, `_write_json`: `separate`'s report.json and `train`'s
result.json. A failed `separate` or `train` leaves no output directory
that it created and wrote nothing into.

Every file a subcommand reads goes through one reader per format, which
names the file in every error that file causes, as `error: <path>:
<reason>`: `_read_source` reads each WAV (`roundtrip`'s input, and the
sources that `_read_item` mixes for `separate` and `train`) and
`_load_bank` each FBANK2 bank (`freq-response`, `roundtrip` and
`separate`). The one computation each of those three subcommands runs on
the bank (`frequency_response`, `_resynthesize`, `separate`) names the
bank file in its errors too.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .codec import _resynthesize, analysis_matrix
from .dsp import FrameParams, Waveform
from .erb import DEFAULT_C1, DEFAULT_C2, ErbParams, center_count
from .filterbank import (Filterbank, FilterbankKind, condition_number, frequency_response, load_filterbank,
                         save_filterbank)
from .gammatone import build_mpgtf, build_parampgtf
from .metrics import clip_si_snr, si_snr
from .separation import (SNR_RANGE_DB, MixtureItem, SilentSourceError, make_multi_mixture_item, score_separation,
                         separate)
from .stft import StftMode, StftSpec, StftWindow, build_stft_bank
from .training import TrainerConfig, TrainingDivergedError, train_parampgtf
from .wavio import read_wav, write_wav

#: `build-bank` warns when the bank's condition number exceeds this. Mean
#: oracle SI-SNR on sinusoid mixtures read +17 dB through the default mpgtf
#: bank (cond 6.9), 4 dB at order 3 (cond 162) and -11 dB with 48 to 80
#: filters (cond 218 to 289). The default STFT (1.0) and Hann STFT (26.3)
#: banks stay below it.
COND_WARN = 100.0


def _resolve_seed(args) -> int:
    if args.seed < 0:  # numpy's own refusal names neither the flag nor the value
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    return args.seed


def _write_lines(path, header: str, rows) -> None:
    """Write `header`, then each string of `rows`, as newline-ended lines."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def _write_json(path, payload: dict) -> None:
    """Write `payload` as JSON indented by 2 with sorted keys, newline-ended."""
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_trace(path, trace) -> None:
    _write_lines(path, "iter,c1,c2,train_loss,dev_loss",
                 (f"{r.iteration},{r.c1!r},{r.c2!r},{r.train_loss!r},{r.dev_loss!r}" for r in trace))


@contextmanager
def _naming(path):
    """Put `path` before every ValueError the block raises; an OSError names its file already."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_source(path, fs: int | None) -> Waveform:
    """Read the WAV at `path`, refusing one with no samples, or one not at `fs` Hz unless `fs` is None.

    Every ValueError of the file (malformed, unsupported, non-finite, empty
    or off-rate) starts with its path.
    """
    with _naming(path):
        source = read_wav(path)
        if len(source) == 0:
            raise ValueError("no samples")
        if fs is not None and source.sample_rate != fs:
            raise ValueError(f"sample rate mismatch: {source.sample_rate} Hz, expected {fs} Hz")
    return source


def _load_bank(path) -> Filterbank:
    """`load_filterbank(path)`, with the path put before every ValueError."""
    with _naming(path):
        return load_filterbank(path)


def _read_item(paths, snr_db: float, fs: int | None) -> MixtureItem:
    """Read the source WAVs at `paths` and mix them, each tail source `snr_db` below the first.

    Every file must be at `fs` Hz, or at the first file's rate when `fs` is
    None. An error of one file (see `_read_source`, or a silent source) is a
    ValueError that starts with its path. The read waveforms die on return:
    the item holds its own targets.
    """
    sources = [_read_source(paths[0], fs)]
    sources += [_read_source(path, sources[0].sample_rate) for path in paths[1:]]
    try:
        return make_multi_mixture_item(sources, snr_db)
    except SilentSourceError as exc:
        raise ValueError(f"{paths[exc.position - 1]}: {exc}") from exc


@contextmanager
def _out_dir(path):
    """Create the output directory `path` and yield it as a Path.

    If the block raises, the directory is removed again when this call
    created it and it is still empty; one that existed before is kept.
    """
    out_dir = Path(path)
    created = not out_dir.exists()
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        yield out_dir
    except BaseException:
        if created and not any(out_dir.iterdir()):
            out_dir.rmdir()
        raise


class _DefaultsHelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Adds nothing for a None default: such an option is required, or its help states its default."""

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fblab",
        description="Analysis/synthesis filterbank lab: build banks, inspect them, and run oracle-mask separation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = _DefaultsHelpFormatter

    p = sub.add_parser("build-bank", formatter_class=fmt, help="construct a filterbank and write it as FBANK2")
    p.add_argument("kind", choices=["mpgtf", "parampgtf", "stft"],
                   help="filterbank family; mpgtf and parampgtf build the same multi-phase gammatone taps "
                        "from --c1/--c2 and differ only in the kind recorded in the file")
    p.add_argument("--out", required=True, help="output FBANK2 path")
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
    p.add_argument("bank", help="FBANK2 file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--n-fft", type=int, default=512, help="FFT size (filters are zero-padded)")
    p.set_defaults(func=cmd_freq_response)

    p = sub.add_parser("roundtrip", formatter_class=fmt,
                       help="encode a WAV through a bank and decode it with the pseudo-inverse")
    p.add_argument("bank", help="FBANK2 file")
    p.add_argument("wav_in", help="input WAV (mono, rate must match the bank)")
    p.add_argument("wav_out", help="output WAV (float32)")
    p.add_argument("--relu", action="store_true", help="rectify the encoder output")
    p.add_argument("--hop", type=int, default=None, help="frame hop D (default: frame length, i.e. no overlap)")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("separate", formatter_class=fmt,
                       help="mix source WAVs and separate them with oracle ratio masks")
    p.add_argument("bank", help="FBANK2 encoder bank; the decoder is its pseudo-inverse")
    p.add_argument("sources", nargs="+", help="two or more source WAVs (tail sources sit snr-db below the first)")
    p.add_argument("--out-dir", required=True, help="directory for estimates and reports")
    p.add_argument("--snr-db", type=float, default=None,
                   help=f"mixing SNR in dB (default: drawn uniformly from {list(SNR_RANGE_DB)} using --seed)")
    p.add_argument("--hop", type=int, default=8, help="frame hop D")
    p.add_argument("--no-relu", action="store_true", help="skip encoder rectification")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("train", formatter_class=fmt,
                       help="fit (c1, c2) on directories of paired-source WAVs (<stem>_s1.wav / <stem>_s2.wav)")
    p.add_argument("train_dir", help="directory of training pairs")
    p.add_argument("dev_dir", help="directory of development pairs")
    p.add_argument("--out-dir", required=True, help="directory for trace, bank, and result JSON")
    p.add_argument("--lr", type=float, default=0.05, help="learning rate")
    p.add_argument("--max-iters", type=int, default=20,
                   help="trace rows; a gradient step follows every row but the last")
    p.add_argument("--fd-epsilon", type=float, default=1e-3, help="relative finite-difference step")
    p.add_argument("--c1-init", type=float, default=DEFAULT_C1, help="initial c1")
    p.add_argument("--c2-init", type=float, default=DEFAULT_C2, help="initial c2")
    p.add_argument("--n-filters", type=int, default=512, help="filters in the trained bank")
    p.add_argument("--frame-len", type=int, default=16, help="filter length L")
    p.add_argument("--hop", type=int, default=8, help="frame hop D")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.set_defaults(func=cmd_train)

    return parser


def cmd_build_bank(args) -> int:
    if args.kind == "stft":
        bank = build_stft_bank(StftSpec(args.frame_len, args.nfreqs, StftMode(args.mode), StftWindow(args.window)),
                               args.fs)
    else:
        bank = build_mpgtf(ErbParams(args.c1, args.c2), args.n_filters, args.frame_len, args.fs,
                           order=args.order, kind=FilterbankKind(args.kind))
    save_filterbank(args.out, bank)
    cond = condition_number(analysis_matrix(bank))
    if cond > COND_WARN:  # after the save, so a failed save reports only its error
        print(f"warning: ill-conditioned bank: cond = sigma_max/sigma_rank of its analysis matrix is {cond:.3g} "
              f"> {COND_WARN:g}; oracle separation through it scores poorly", file=sys.stderr)
    n_centers = args.nfreqs if bank.erb_params is None else int(center_count(bank.erb_params, bank.sample_rate))
    print(f"N={bank.n_filters} L={bank.filter_len} M={n_centers}")
    return 0


def cmd_freq_response(args) -> int:
    bank = _load_bank(args.bank)
    with _naming(args.bank):
        bin_hz, mags = frequency_response(bank, args.n_fft)
    _write_lines(args.out, "filter_index,bin_hz,magnitude",
                 (f"{n},{float(bin_hz[k])!r},{float(mags[n, k])!r}"
                  for n in range(bank.n_filters) for k in range(args.n_fft)))
    print(f"wrote {bank.n_filters * args.n_fft} rows to {args.out}")
    return 0


def cmd_roundtrip(args) -> int:
    bank = _load_bank(args.bank)
    x = _read_source(args.wav_in, bank.sample_rate)
    hop = args.hop if args.hop is not None else bank.filter_len
    p = FrameParams(bank.filter_len, hop)
    with _naming(args.bank):
        (out,) = _resynthesize([x], bank, p, None, 1, relu=args.relu)
    write_wav(args.wav_out, out)
    if x.energy() == 0.0:
        print("si_snr_db=n/a")
    else:
        print(f"si_snr_db={clip_si_snr(si_snr(out, x))!r}")
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
    bank = _load_bank(args.bank)
    item = _read_item(args.sources, snr_db, bank.sample_rate)
    p = FrameParams(bank.filter_len, args.hop)
    with _naming(args.bank):
        estimates = separate(item.sources, bank, p, apply_relu=not args.no_relu)

    with _out_dir(args.out_dir) as out_dir:
        # Written before scoring: the float32 range check refuses any signal whose SI-SNR sums overflow.
        # The mixture is the sources' sum, which the writer makes one chunk at a time.
        write_wav(out_dir / "mixture.wav", *item.sources)
        for i, est in enumerate(estimates, start=1):
            write_wav(out_dir / f"est_{i}.wav", est)
        scores = score_separation(estimates, item.sources)
        mean = float(np.mean(scores))
        item_id = "item-0"  # the one item a report scores
        _write_lines(out_dir / "report.csv", "item_id,source_idx,si_snr_db",
                     (f"{item_id},{idx},{value!r}" for idx, value in enumerate(scores)))
        bank_summary = {
            "kind": bank.kind.value,
            "n_filters": bank.n_filters,
            "filter_len": bank.filter_len,
            "sample_rate": bank.sample_rate,
        }
        if bank.erb_params is not None:
            bank_summary["c1"] = bank.erb_params.c1
            bank_summary["c2"] = bank.erb_params.c2
        config = {
            "snr_db": snr_db,
            "seed": seed,
            "hop": args.hop,
            "relu": not args.no_relu,
            "sources": [Path(s).name for s in args.sources],
        }
        _write_json(out_dir / "report.json", {
            "mean_si_snr_db": mean,
            "config": config,
            "bank": bank_summary,
            "items": [{"item_id": item_id, "si_snr_db": list(scores)}],
        })
    print(f"mean_si_snr_db={mean!r}")
    return 0


def _load_pairs(directory: Path, rng: np.random.Generator, fs: int | None) -> list[MixtureItem]:
    """The <stem>_s1/_s2 pairs in `directory`, each mixed at an SNR drawn from `rng`, all at `fs` Hz.

    `fs` None takes the first pair's rate. A file without its partner is an error.
    """
    items = []
    for path in sorted(directory.glob("*_s[12].wav")):
        pair = [path.with_name(f"{path.name[: -len('1.wav')]}{k}.wav") for k in "12"]
        if not all(p.exists() for p in pair):
            raise ValueError(f"missing partner file for {path.name}")
        if path == pair[0]:
            items.append(_read_item(pair, float(rng.uniform(*SNR_RANGE_DB)), fs))
            fs = items[0].sources[0].sample_rate
    if not items:
        raise ValueError(f"no *_s1.wav/*_s2.wav pairs found in {directory}")
    return items


def cmd_train(args) -> int:
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    train = _load_pairs(Path(args.train_dir), rng, None)
    dev = _load_pairs(Path(args.dev_dir), rng, train[0].sources[0].sample_rate)  # at the first train pair's rate

    cfg = TrainerConfig(learning_rate=args.lr, max_iters=args.max_iters, fd_epsilon=args.fd_epsilon)
    init = ErbParams(args.c1_init, args.c2_init)
    frame_params = FrameParams(args.frame_len, args.hop)
    with _out_dir(args.out_dir) as out_dir:
        try:
            best, trace = train_parampgtf(train, dev, cfg, init,
                                          n_filters=args.n_filters, frame_params=frame_params)
        except TrainingDivergedError as exc:
            _write_trace(out_dir / "trace.csv", exc.trace)  # keep the rows before the failure
            raise
        # Built before the first write, so a best point no bank can hold leaves no file behind.
        bank = build_parampgtf(best, args.n_filters, args.frame_len, train[0].sources[0].sample_rate)
        _write_trace(out_dir / "trace.csv", trace)
        save_filterbank(out_dir / "parampgtf.fbank", bank)
        _write_json(out_dir / "result.json", {
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
        })
    print(f"c1={best.c1!r} c2={best.c2!r}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, TrainingDivergedError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
