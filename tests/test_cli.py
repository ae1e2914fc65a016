import contextlib
import dataclasses
import inspect
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fblab.cli
import fblab.codec
import fblab.separation
import fblab.training
import fblab.wavio
from fblab import (
    ErbParams,
    FrameParams,
    StftSpec,
    TraceRow,
    TrainerConfig,
    Waveform,
    analysis_matrix,
    build_mpgtf,
    build_stft_bank,
    center_frequency_grid,
    frequency_response,
    load_filterbank,
    make_multi_mixture_item,
    read_wav,
    save_filterbank,
    separation_loss,
    si_snr,
    train_parampgtf,
    write_wav,
)
from fblab.cli import main
from fblab.filterbank import condition_number
from test_filterbank import fbank2_text
from test_wavio import whole_signal_wav_bytes


def tone(freq, n=4000, fs=8000, amp=0.5, phase=0.0):
    t = np.arange(n) / fs
    return Waveform(amp * np.sin(2 * np.pi * freq * t + phase), fs)


@pytest.fixture()
def source_wavs(tmp_path):
    a = tmp_path / "a.wav"
    b = tmp_path / "b.wav"
    write_wav(a, tone(300.0))
    write_wav(b, tone(2000.0, phase=1.0))
    return a, b


def run(args):
    return main([str(a) for a in args])


def _float32_wav_bytes(samples, fs=8000):
    """A mono float32 WAV file of `samples`, written without `write_wav`'s range check."""
    payload = np.asarray(samples, dtype="<f4").tobytes()
    body = b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, fs, 4 * fs, 4, 32)
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


class TestBuildBank:
    def test_mpgtf_default(self, tmp_path, capsys):
        out = tmp_path / "bank.fbank"
        assert run(["build-bank", "mpgtf", "--out", out]) == 0
        assert capsys.readouterr().out.strip() == "N=512 L=16 M=24"
        bank = load_filterbank(out)
        assert bank.taps.shape == (512, 16)

    def test_parampgtf_matches_mpgtf_at_defaults(self, tmp_path):
        out1 = tmp_path / "a.fbank"
        out2 = tmp_path / "b.fbank"
        assert run(["build-bank", "mpgtf", "--out", out1]) == 0
        assert run(["build-bank", "parampgtf", "--c1", "24.7", "--c2", "9.265", "--out", out2]) == 0
        taps1 = out1.read_text().splitlines()[1:]
        taps2 = out2.read_text().splitlines()[1:]
        assert taps1 == taps2

    def test_ill_conditioned_bank_warns_after_the_save(self, tmp_path, capsys):
        out = tmp_path / "bank.fbank"
        assert run(["build-bank", "mpgtf", "--n-filters", "64", "--out", out]) == 0
        assert capsys.readouterr() == ("N=64 L=16 M=24\n",
                                       "warning: ill-conditioned bank: cond = sigma_max/sigma_rank of its analysis "
                                       "matrix is 289 > 100; oracle separation through it scores poorly\n")
        assert load_filterbank(out).n_filters == 64

    def test_failed_save_prints_no_warning(self, tmp_path, capsys):
        out = tmp_path / "missing" / "bank.fbank"
        assert run(["build-bank", "mpgtf", "--n-filters", "64", "--out", out]) == 1
        assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: '{out}'\n")

    @pytest.mark.parametrize("argv", [["mpgtf"], ["parampgtf"], ["stft"], ["stft", "--window", "hann"]],
                             ids=["mpgtf", "parampgtf", "stft", "stft-hann"])
    def test_default_banks_build_without_a_warning(self, tmp_path, capsys, argv):
        assert run(["build-bank", *argv, "--out", tmp_path / "bank.fbank"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("fs,centers", [(11025, 27), (16000, 30)])
    def test_default_gammatone_bank_at_other_rates_is_well_conditioned(self, tmp_path, capsys, fs, centers):
        # The centres span [100 Hz, fs/2) at every rate, so no band is left uncovered.
        out = tmp_path / "bank.fbank"
        assert run(["build-bank", "mpgtf", "--fs", fs, "--out", out]) == 0
        assert capsys.readouterr() == (f"N=512 L=16 M={centers}\n", "")
        bank = load_filterbank(out)
        assert condition_number(analysis_matrix(bank)) < fblab.cli.COND_WARN
        assert center_frequency_grid(bank.erb_params, fs)[-1] < fs / 2

    def test_rate_without_a_gammatone_band_is_typed_error(self, tmp_path, capsys):
        out = tmp_path / "bank.fbank"
        assert run(["build-bank", "mpgtf", "--fs", "200", "--out", out]) == 1
        message = "error: no gammatone centre band at 200 Hz: fs/2 = 100 Hz must exceed 100 Hz\n"
        assert capsys.readouterr() == ("", message)
        assert not out.exists()

    def test_stft_signsplit_dimensions(self, tmp_path, capsys):
        out = tmp_path / "stft.fbank"
        assert run(["build-bank", "stft", "--mode", "signsplit", "--nfreqs", "128", "--out", out]) == 0
        assert capsys.readouterr().out == "N=512 L=16 M=128\n"
        assert load_filterbank(out).taps.shape == (512, 16)

    def test_tiny_c2_builds_one_center(self, tmp_path, capsys):
        # one ERB-rate step overflows past 4 kHz: a single center, no traceback
        out = tmp_path / "x.fbank"
        assert run(["build-bank", "parampgtf", "--c2", "1e-3", "--out", out]) == 0
        assert capsys.readouterr().out.strip() == "N=512 L=16 M=1"
        bank = load_filterbank(out)
        assert len(center_frequency_grid(bank.erb_params, bank.sample_rate)) == 1

    def test_vanishing_c2_is_typed_error(self, tmp_path, capsys):
        out = tmp_path / "x.fbank"
        assert run(["build-bank", "parampgtf", "--c2", "1e-6", "--out", out]) == 1
        assert capsys.readouterr().err.startswith("error: degenerate gammatone filter")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["stft", "mpgtf"])
    def test_zero_rate_is_named_without_warning(self, tmp_path, capsys, kind):
        out = tmp_path / "x.fbank"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["build-bank", kind, "--fs", "0", "--out", out]) == 1
        assert capsys.readouterr().err == "error: sample_rate must be a positive integer, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag,message", [
        ("--frame-len", "frame_len must be >= 1, got 0"),
        ("--nfreqs", "n_freqs must be >= 1, got 0"),
    ])
    def test_stft_spec_below_one_is_typed_error(self, tmp_path, capsys, flag, message):
        out = tmp_path / "x.fbank"
        assert run(["build-bank", "stft", flag, "0", "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_invalid_params_fail_before_writing(self, tmp_path, capsys):
        out = tmp_path / "bad.fbank"
        assert run(["build-bank", "mpgtf", "--c1", "-3", "--out", out]) == 1
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_underflowing_erb_product_is_typed_error(self, tmp_path, capsys):
        # c1 * c2 rounds to 0.0, which the ERB-rate scale divides by
        out = tmp_path / "bad.fbank"
        assert run(["build-bank", "mpgtf", "--c1", "1e-200", "--c2", "1e-200", "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error: invalid ERB parameters: c1 * c2 underflows to 0, got c1=1e-200, c2=1e-200\n"
        )
        assert not out.exists()

    def test_overflowing_decay_is_typed_error_without_warning(self, tmp_path, capsys):
        # c1 * c2 = inf leaves one centre whose decay b ~ 1.08e308 makes -2*pi*b overflow
        out = tmp_path / "bad.fbank"
        assert run(["build-bank", "mpgtf", "--c1", "1.7e308", "--c2", "1e6", "--out", out]) == 1
        assert capsys.readouterr().err == "error: degenerate gammatone filter: all taps are zero\n"
        assert not out.exists()


class TestFreqResponse:
    def test_csv_shape(self, tmp_path):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--n-filters", "64", "--out", bank])
        csv = tmp_path / "resp.csv"
        assert run(["freq-response", bank, "--out", csv]) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "filter_index,bin_hz,magnitude"
        assert len(lines) == 1 + 64 * 512

    def test_malformed_bank(self, tmp_path, capsys):
        bank = tmp_path / "bad.fbank"
        bank.write_text("not a bank\n")
        assert run(["freq-response", bank, "--out", tmp_path / "x.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["freq-response", "roundtrip"])
    def test_wav_given_as_bank_is_typed_error(self, tmp_path, source_wavs, capsys, command):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--n-filters", "64", "--out", bank])
        capsys.readouterr()
        wav = source_wavs[0]
        if command == "freq-response":
            args = ["freq-response", wav, "--out", tmp_path / "x.csv"]
        else:  # WAV and bank arguments swapped
            args = ["roundtrip", wav, bank, tmp_path / "out.wav"]
        assert run(args) == 1
        assert capsys.readouterr().err.startswith(f"error: {wav}: not an FBANK2 file")

    @pytest.mark.parametrize("command", ["freq-response", "roundtrip"])
    @pytest.mark.parametrize(
        "dims,message",
        [
            ("n=1 len=10000000000000", "error: FBANK2 dimension mismatch on row 0"),
            ("n=1 len=-3", "error: bad FBANK2 header"),
            ("n=0 len=3", "error: bad FBANK2 header"),
            ("n=1 len=3 junk", "error: bad FBANK2 header token 'junk'\n"),
            # refused by `Filterbank`, not by the parser
            ("n=1 len=3 fs=0", "error: sample_rate must be a positive integer, got 0\n"),
            ("n=1 len=3\n1 nan 3", "error: taps contain non-finite values\n"),
        ],
    )
    def test_bad_dimensions_are_typed_errors(self, tmp_path, source_wavs, capsys, command, dims, message):
        # `dims` holds header fields, which replace the defaults of the same name
        # (a header names each field once), and may go on with its own tap rows
        # after a newline.
        fields, _, rows = dims.partition("\n")
        given = {token.split("=", 1)[0] for token in fields.split()}
        defaults = " ".join(field for field in ("kind=custom", "fs=8000") if field.split("=")[0] not in given)
        bank = tmp_path / "bad.fbank"
        bank.write_text(fbank2_text(f"{defaults} {fields} c1=- c2=-", rows or "1 2 3"))
        if command == "freq-response":
            args = ["freq-response", bank, "--out", tmp_path / "x.csv"]
        else:
            args = ["roundtrip", bank, source_wavs[0], tmp_path / "out.wav"]
        assert run(args) == 1
        assert capsys.readouterr().err.startswith(message.replace("error: ", f"error: {bank}: ", 1))

    @pytest.mark.parametrize("rows,row", [("1 2\n3 x", 1), ("1 x\n-1 x", 0)], ids=["full-parse", "sign-split-half"])
    def test_bad_tap_names_its_row(self, tmp_path, source_wavs, capsys, rows, row):
        # "x" stands for 16 characters that are not all hex digits. In "1 x" /
        # "-1 x" the second row starts as the negation of the first; the
        # first bad row is named all the same.
        bad = "0123456789abcdex"
        bank = tmp_path / "bad.fbank"
        bank.write_text(fbank2_text("kind=custom n=2 len=2 fs=8000 c1=- c2=-", rows.replace("x", bad)))
        assert run(["roundtrip", bank, source_wavs[0], tmp_path / "out.wav"]) == 1
        assert capsys.readouterr().err == f"error: {bank}: FBANK2 bad tap on row {row}: {bad!r}\n"

    def test_fbank1_bank_is_one_error_line_that_says_how_to_rebuild_it(self, tmp_path, source_wavs, capsys):
        bank = tmp_path / "old.fbank"
        bank.write_text("FBANK1 kind=custom n=1 len=2 fs=8000 c1=- c2=-\n1 2\n")
        assert run(["roundtrip", bank, source_wavs[0], tmp_path / "out.wav"]) == 1
        assert capsys.readouterr() == ("", f"error: {bank}: an FBANK1 file: decimal taps are no longer read; "
                                           "rebuild the bank with `fblab build-bank`\n")

    @pytest.mark.parametrize("c1,reason", [("abc", "could not convert"), ("-3", "invalid ERB parameters")])
    def test_bad_erb_params_are_header_errors(self, tmp_path, capsys, c1, reason):
        bank = tmp_path / "bad.fbank"
        bank.write_text(fbank2_text(f"kind=mpgtf n=1 len=1 fs=8000 c1={c1} c2=9.265", "1"))
        assert run(["freq-response", bank, "--out", tmp_path / "x.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bank}: bad FBANK2 header: ") and reason in err

    def test_unallocatable_n_fft_is_typed_error(self, tmp_path, capsys):
        # 146 TiB of spectrum exceeds the 128 TiB user address space of
        # x86-64, so the allocation fails at once and nothing is allocated.
        bank = tmp_path / "one.fbank"
        bank.write_text(fbank2_text("kind=custom n=1 len=4 fs=8000 c1=- c2=-", "1 2 3 4"))
        csv = tmp_path / "x.csv"
        assert run(["freq-response", bank, "--out", csv, "--n-fft", "10000000000000"]) == 1
        assert capsys.readouterr().err.startswith("error: Unable to allocate")
        assert not csv.exists()

    @pytest.mark.parametrize("scale", [1e308, 1.7e308, 3e307])
    def test_spectrum_overflow_is_typed_error(self, tmp_path, scale):
        # Four finite taps of |scale| sum past the float maximum in some bin unless 4 * scale fits.
        signs = [[1, 1, 1, 1], [1, -1, 1, -1], [-1, -1, -1, -1], [-1, 1, -1, 1]]
        rows = "\n".join(" ".join(repr(sign * scale) for sign in row) for row in signs)
        bank = tmp_path / "big.fbank"
        bank.write_text(fbank2_text("kind=custom n=4 len=4 fs=8000 c1=- c2=-", rows))
        csv = tmp_path / "r.csv"
        code, err = _assert_clean_exit(["freq-response", bank, "--out", csv])
        if 4 * scale < math.inf:
            assert code == 0
            assert all(math.isfinite(float(line.split(",")[2])) for line in csv.read_text().splitlines()[1:])
        else:
            assert code == 1 and err.startswith(f"error: {bank}: the bank's spectrum overflows a float (")
            assert not csv.exists()


class TestRoundtrip:
    def test_stft_signsplit_relu_hits_clip(self, tmp_path, source_wavs, capsys):
        bank = tmp_path / "stft.fbank"
        run(["build-bank", "stft", "--out", bank])
        capsys.readouterr()
        out_wav = tmp_path / "out.wav"
        assert run(["roundtrip", bank, source_wavs[0], out_wav, "--relu", "--hop", "16"]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed == "si_snr_db=60.0"

    def test_mpgtf_linear_hits_clip(self, tmp_path, source_wavs, capsys):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--out", bank])
        capsys.readouterr()
        out_wav = tmp_path / "out.wav"
        assert run(["roundtrip", bank, source_wavs[0], out_wav, "--hop", "16"]) == 0
        assert capsys.readouterr().out.strip() == "si_snr_db=60.0"

    def test_silent_input_prints_na(self, tmp_path, capsys):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--out", bank])
        capsys.readouterr()
        silent = tmp_path / "silent.wav"
        write_wav(silent, Waveform(np.zeros(1600), 8000))
        out_wav = tmp_path / "out.wav"
        assert run(["roundtrip", bank, silent, out_wav]) == 0
        assert capsys.readouterr().out.strip() == "si_snr_db=n/a"
        assert np.all(read_wav(out_wav).samples == 0.0)

    @staticmethod
    def _roundtrip_peak_and_budget(tmp_path, seconds):
        # The input and the weigh-free pass's output rows, two signal
        # lengths of float64, are held from the engine to the end. On top of
        # them come, one stage at a time, the pass's one (OPERATOR_BLOCK_FRAMES,
        # Lw) window buffer, Lw = (ceil(L/D) - 1)*D + L, one float32
        # `write_wav` chunk and `si_snr`'s block buffer; the budget sums the
        # first two and allows 64 kB for the rest: the bank, its decoder,
        # the polyphase matrix and interpreter objects.
        bank, hop = tmp_path / "stft.fbank", 8
        run(["build-bank", "stft", "--out", bank])
        n = int(seconds * 8000)
        wav_in = tmp_path / "long.wav"
        write_wav(wav_in, Waveform(0.3 * np.random.default_rng(6).standard_normal(n), 8000))
        tracemalloc.start()
        try:
            assert run(["roundtrip", bank, wav_in, tmp_path / "out.wav", "--relu", "--hop", str(hop)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        frame_len = load_filterbank(bank).filter_len
        window_len = (-(-frame_len // hop) - 1) * hop + frame_len
        budget = (8 * 2 * n
                  + 8 * fblab.codec.OPERATOR_BLOCK_FRAMES * window_len
                  + 4 * fblab.wavio.CHUNK_SAMPLES
                  + 64 * 1024)
        return peak, budget

    def test_peak_memory_of_a_60s_roundtrip(self, tmp_path, capsys):
        peak, budget = self._roundtrip_peak_and_budget(tmp_path, 60.0)
        assert peak <= budget

    def test_peak_memory_of_a_32s_roundtrip(self, tmp_path, capsys):
        peak, budget = self._roundtrip_peak_and_budget(tmp_path, 32.0)
        assert peak <= budget

    def test_rate_beyond_the_wav_byte_rate_field_is_typed_error(self, tmp_path, capsys):
        bank = tmp_path / "stft.fbank"
        assert run(["build-bank", "stft", "--fs", "4000000000", "--out", bank]) == 0
        wav_in = tmp_path / "fast.wav"  # a header `write_wav` refuses: its byte-rate field holds 0
        payload = np.full(64, 0.25, dtype="<f4").tobytes()
        body = b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, 4_000_000_000, 0, 4, 32)
        body += b"data" + struct.pack("<I", len(payload)) + payload
        wav_in.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        capsys.readouterr()
        out_wav = tmp_path / "out.wav"
        assert run(["roundtrip", bank, wav_in, out_wav]) == 1
        err = capsys.readouterr().err
        assert "error: sample rate 4000000000 Hz is too high for a 32-bit WAV" in err and "Traceback" not in err
        assert not out_wav.exists()

    @pytest.mark.parametrize("end,chunk", [(30, "fmt"), (-2, "data")])
    def test_truncated_wav_is_typed_error(self, tmp_path, source_wavs, capsys, end, chunk):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--n-filters", "64", "--out", bank])
        capsys.readouterr()
        wav_in = tmp_path / "short.wav"
        wav_in.write_bytes(source_wavs[0].read_bytes()[:end])
        out_wav = tmp_path / "out.wav"
        assert run(["roundtrip", bank, wav_in, out_wav]) == 1
        assert capsys.readouterr().err == f"error: {wav_in}: malformed header: truncated {chunk} chunk\n"
        assert not out_wav.exists()

    def test_rate_mismatch_fails(self, tmp_path, capsys):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--out", bank])
        wav16k = tmp_path / "x.wav"
        write_wav(wav16k, Waveform(np.ones(100), 16000))
        assert run(["roundtrip", bank, wav16k, tmp_path / "y.wav"]) == 1
        assert capsys.readouterr().err == f"error: {wav16k}: sample rate mismatch: 16000 Hz, expected 8000 Hz\n"

    def test_empty_wav_is_named(self, tmp_path, capsys):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--n-filters", "64", "--out", bank])
        capsys.readouterr()  # the build's conditioning warning
        empty = tmp_path / "empty.wav"
        write_wav(empty, Waveform(np.zeros(0), 8000))
        out_wav = tmp_path / "out.wav"
        assert run(["roundtrip", bank, empty, out_wav]) == 1
        assert capsys.readouterr().err == f"error: {empty}: no samples\n"
        assert not out_wav.exists()


@pytest.mark.parametrize("taps", ["1e300 2e299\n-3e299 1e300", "-1e300 -1e300\n-1e300 -1e300"],
                         ids=["mixed-sign", "one-sign"])
def test_overflowing_products_are_a_typed_error_without_warning(tmp_path, capsys, taps):
    # Taps of 1e300 and samples of 1e9 overflow the encoding. With the
    # one-sign bank on a positive input every encoding is -inf, which the
    # ReLU turned into 0: an all-zero WAV and exit 0 unless the overflow is
    # caught where it happens.
    bank, wav = tmp_path / "huge.fbank", tmp_path / "loud.wav"
    bank.write_text(fbank2_text("kind=custom n=2 len=2 fs=8000 c1=- c2=-", taps))
    write_wav(wav, Waveform(1e9 * (1.5 + np.sin(np.arange(64) / 3.0)), 8000))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["roundtrip", bank, wav, tmp_path / "out.wav", "--hop", "1", "--relu"]) == 1
    assert capsys.readouterr().err == (f"error: {bank}: filtering the signals with the bank overflows a float "
                                       "(overflow encountered in matmul)\n")
    assert not (tmp_path / "out.wav").exists()


class TestUninvertibleBank:
    # Taps near the smallest float give a decoder beyond float64; near the
    # largest, the SVD's largest singular value overflows and the decoder reads 0.
    @pytest.mark.parametrize("scale", [1e-310, 1.7e308])
    @pytest.mark.parametrize("command", [["separate"], ["roundtrip"], ["roundtrip", "--relu"]], ids="-".join)
    def test_is_typed_error_without_output(self, tmp_path, source_wavs, capsys, scale, command):
        mpgtf = build_mpgtf(ErbParams(), 64)
        bank = tmp_path / "bank.fbank"
        save_filterbank(bank, dataclasses.replace(mpgtf, taps=scale * mpgtf.taps))
        out = tmp_path / "out"
        name, *flags = command
        inputs = source_wavs if name == "separate" else source_wavs[:1]
        target = ["--out-dir", out] if name == "separate" else [out]
        assert run([name, bank, *inputs, *target, *flags]) == 1
        message = "the bank's taps are too small or too large for a float64 pseudo-inverse decoder"
        assert capsys.readouterr() == ("", f"error: {bank}: {message}\n")
        assert not out.exists()


class TestSeparate:
    def test_writes_all_outputs(self, tmp_path, source_wavs):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--out", bank])
        out_dir = tmp_path / "sep"
        assert run(["separate", bank, *source_wavs, "--out-dir", out_dir, "--snr-db", "0"]) == 0
        for name in ("mixture.wav", "est_1.wav", "est_2.wav", "report.csv", "report.json"):
            assert (out_dir / name).exists()
        data = json.loads((out_dir / "report.json").read_text())
        assert data["bank"]["kind"] == "mpgtf"
        assert data["config"]["snr_db"] == 0.0

    @staticmethod
    def _separate_peak(tmp_path, seconds):
        """The tracemalloc peak of a two-source `fblab separate` of `seconds` at 8 kHz, and its length in samples.

        The first run in a process also sets up state that later runs
        reuse, so the second one is measured.
        """
        n = int(seconds * 8000)
        bank, wavs = tmp_path / "bank.fbank", [tmp_path / "a.wav", tmp_path / "b.wav"]
        if not bank.exists():
            run(["build-bank", "mpgtf", "--out", bank])
        write_wav(wavs[0], tone(300.0, n=n))
        write_wav(wavs[1], tone(2000.0, n=n, phase=1.0))
        argv = ["separate", bank, *wavs, "--snr-db", "0", "--out-dir"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert run([*argv, tmp_path / f"warm-{seconds}"]) == 0
            tracemalloc.start()
            try:
                assert run([*argv, tmp_path / f"sep-{seconds}"]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return peak, n

    def test_peak_memory_of_a_2s_separate(self, tmp_path):
        # From the engine on, the run holds the item's two sources and the
        # two estimates; the engine's block buffers, the bank and its decoder
        # rows add about 5.3 signal lengths at 2 s, and they set the peak
        # there. The mixture is never held beside them: the engine derives
        # its encoding from the sources', and mixture.wav is summed from the
        # sources a chunk at a time. Measured: 9.7 signal lengths of float64,
        # the same as when the CLI summed a whole mixture to write it (the
        # engine's fixed buffers outweigh one 2 s signal), against 10.8 with
        # a mixture mixed up front and framed by the engine.
        peak, n = self._separate_peak(tmp_path, 2.0)
        assert peak < 10.3 * 8 * n

    def test_peak_memory_grows_by_four_signal_lengths(self, tmp_path):
        # Past the engine's fixed buffers the peak grows with the four
        # signals held at the mixture.wav write: two sources and two
        # estimates. Measured from 8 s to 32 s: 4.0 float64 signal lengths
        # per added length, against 5.0 when a whole mixture was summed to
        # be written.
        peak_8, n_8 = self._separate_peak(tmp_path, 8.0)
        peak_32, n_32 = self._separate_peak(tmp_path, 32.0)
        assert (peak_32 - peak_8) / (8 * (n_32 - n_8)) <= 4.2

    @pytest.mark.parametrize("n_sources", [2, 3])
    def test_mixture_wav_is_the_whole_signal_sum_of_the_sources(self, tmp_path, source_wavs, n_sources):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--out", bank])
        wavs = [*source_wavs, tmp_path / "c.wav"][:n_sources]
        write_wav(tmp_path / "c.wav", tone(1100.0, phase=2.0))
        out_dir = tmp_path / "sep"
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["separate", bank, *wavs, "--out-dir", out_dir, "--snr-db", "3"]) == 0
        item = make_multi_mixture_item([read_wav(p) for p in wavs], 3.0)
        assert (out_dir / "mixture.wav").read_bytes() == whole_signal_wav_bytes(item.mixture, "float32")

    def test_identical_sources_give_identical_estimates(self, tmp_path, source_wavs):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--out", bank])
        out_dir = tmp_path / "sep"
        assert run(["separate", bank, source_wavs[0], source_wavs[0], "--out-dir", out_dir, "--snr-db", "0"]) == 0
        est1 = read_wav(out_dir / "est_1.wav")
        est2 = read_wav(out_dir / "est_2.wav")
        np.testing.assert_array_equal(est1.samples, est2.samples)

    def test_separates_once_and_scores_written_estimates(self, tmp_path, source_wavs, monkeypatch):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--out", bank])
        calls = []
        original = fblab.separation.separate

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        # Patch both namespaces, so a second pass through run_separation is counted too.
        monkeypatch.setattr(fblab.cli, "separate", counting)
        monkeypatch.setattr(fblab.separation, "separate", counting)
        out_dir = tmp_path / "sep"
        assert run(["separate", bank, *source_wavs, "--out-dir", out_dir, "--snr-db", "0"]) == 0
        assert len(calls) == 1

        item = make_multi_mixture_item([read_wav(p) for p in source_wavs], 0.0)
        scores = json.loads((out_dir / "report.json").read_text())["items"][0]["si_snr_db"]
        assert len(scores) == len(item.sources)
        for i, (score, src) in enumerate(zip(scores, item.sources), start=1):
            written = si_snr(read_wav(out_dir / f"est_{i}.wav"), src)
            assert abs(score - written) <= 1e-6

    @pytest.mark.parametrize("n_sources", [2, 3])
    def test_reports_and_stdout_agree_on_the_scores(self, tmp_path, source_wavs, capsys, n_sources):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--out", bank])
        wavs = [*source_wavs, source_wavs[0]][:n_sources]
        out_dir = tmp_path / "sep"
        capsys.readouterr()
        assert run(["separate", bank, *wavs, "--out-dir", out_dir, "--snr-db", "3"]) == 0
        printed = capsys.readouterr().out.strip()
        rows = (out_dir / "report.csv").read_text().splitlines()
        assert rows[0] == "item_id,source_idx,si_snr_db"
        assert [row.split(",")[:2] for row in rows[1:]] == [["item-0", str(i)] for i in range(n_sources)]
        scores = [float(row.split(",")[2]) for row in rows[1:]]
        data = json.loads((out_dir / "report.json").read_text())
        assert data["items"] == [{"item_id": "item-0", "si_snr_db": scores}]
        mean = float(np.mean(scores))
        assert data["mean_si_snr_db"] == mean
        assert printed == f"mean_si_snr_db={mean!r}"

    def test_single_source_is_usage_error(self, tmp_path, source_wavs, capsys):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--out", bank])
        assert run(["separate", bank, source_wavs[0], "--out-dir", tmp_path / "sep"]) == 2
        assert "at least two" in capsys.readouterr().err

    def test_extreme_snr_is_typed_error(self, tmp_path, source_wavs, capsys):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--out", bank])
        out_dir = tmp_path / "sep"
        # the "=" form: argparse reads a bare "-1e4" as a flag
        assert run(["separate", bank, *source_wavs, "--out-dir", out_dir, "--snr-db=-1e4"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "snr_db" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_silent_source_names_its_wav(self, tmp_path, source_wavs, capsys):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--out", bank])
        silent = tmp_path / "z.wav"
        write_wav(silent, Waveform(np.zeros(4000), 8000))
        out_dir = tmp_path / "sep"
        assert run(["separate", bank, source_wavs[0], silent, "--out-dir", out_dir]) == 1
        assert capsys.readouterr().err == f"error: {silent}: silent source 2 of 2: its first 4000 samples " \
                                          "(the length the sources share) are all zero\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "write, reason",
        [
            (lambda path: path.write_bytes(b"not a wav"),
             "malformed header: not a RIFF/WAVE file"),
            (lambda path: path.write_bytes(whole_signal_wav_bytes(Waveform(np.zeros(0), 8000), "pcm16")),
             "no samples"),
            (lambda path: path.write_bytes(_float32_wav_bytes([0.5, math.inf])),
             "waveform contains non-finite samples"),
            (lambda path: path.write_bytes(whole_signal_wav_bytes(tone(2000.0, fs=16000), "pcm16")),
             "sample rate mismatch: 16000 Hz, expected 8000 Hz"),
        ],
        ids=["malformed", "empty", "non-finite", "off-rate"],
    )
    def test_bad_source_names_its_wav(self, tmp_path, source_wavs, capsys, write, reason):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--out", bank])
        bad = tmp_path / "bad.wav"
        write(bad)
        out_dir = tmp_path / "sep"
        assert run(["separate", bank, source_wavs[0], bad, "--out-dir", out_dir, "--snr-db", "0"]) == 1
        assert capsys.readouterr().err == f"error: {bad}: {reason}\n"
        assert not out_dir.exists()

    def test_mixture_beyond_float32_is_typed_error_without_warning(self, tmp_path, capsys):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--out", bank])
        wavs = [tmp_path / "a.wav", tmp_path / "b.wav"]
        write_wav(wavs[0], Waveform(3e38 / 0.5 * tone(300.0).samples, 8000))
        write_wav(wavs[1], Waveform(3e38 / 0.5 * tone(2000.0, phase=1.0).samples, 8000))
        out_dir = tmp_path / "sep"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["separate", bank, *wavs, "--out-dir", out_dir, "--snr-db=-5"]) == 1
        err = capsys.readouterr().err
        assert "error: sample magnitude" in err and "beyond the float32 range" in err and "Traceback" not in err
        assert not (out_dir / "mixture.wav").exists()
        assert not out_dir.exists()

    def test_mixture_whose_scores_overflow_is_typed_error_without_warning(self, tmp_path, source_wavs, capsys):
        # -3080 dB lifts the second source by ~1e154: its squares overflow float64 in SI-SNR's sums.
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--out", bank])
        out_dir = tmp_path / "sep"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["separate", bank, *source_wavs, "--out-dir", out_dir, "--snr-db=-3080"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sample magnitude") and "beyond the float32 range" in err
        assert not (out_dir / "mixture.wav").exists()
        assert not out_dir.exists()

    @pytest.mark.parametrize("kept", [[], ["notes.txt"]], ids=["empty", "holding-a-file"])
    def test_failed_run_keeps_an_out_dir_that_existed(self, tmp_path, source_wavs, capsys, kept):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--n-filters", "64", "--out", bank])
        capsys.readouterr()  # the build's conditioning warning
        out_dir = tmp_path / "sep"
        out_dir.mkdir()
        for name in kept:
            (out_dir / name).write_text("kept\n")
        assert run(["separate", bank, *source_wavs, "--out-dir", out_dir, "--snr-db=-3080"]) == 1
        assert capsys.readouterr().err.startswith("error: sample magnitude")
        assert sorted(p.name for p in out_dir.iterdir()) == kept
        assert all((out_dir / name).read_text() == "kept\n" for name in kept)

    def test_sources_bank_rate_mismatch_fails_before_writing(self, tmp_path, capsys):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--out", bank])
        wavs = [tmp_path / "a16k.wav", tmp_path / "b16k.wav"]
        write_wav(wavs[0], tone(300.0, fs=16000))
        write_wav(wavs[1], tone(2000.0, fs=16000))
        out_dir = tmp_path / "sep"
        assert run(["separate", bank, *wavs, "--out-dir", out_dir, "--snr-db", "0"]) == 1
        assert capsys.readouterr().err == f"error: {wavs[0]}: sample rate mismatch: 16000 Hz, expected 8000 Hz\n"
        assert not out_dir.exists()

    def test_seed_flag_sets_the_draw_and_defaults_to_0(self, tmp_path, source_wavs):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--out", bank])

        reports = {}
        for name, flags in [("none", []), ("0", ["--seed", "0"]), ("7", ["--seed", "7"]),
                            ("7-again", ["--seed", "7"]), ("8", ["--seed", "8"])]:
            assert run(["separate", bank, *source_wavs, "--out-dir", tmp_path / name, *flags]) == 0
            reports[name] = (tmp_path / name / "report.json").read_bytes()
        assert reports["none"] == reports["0"]
        assert reports["7"] == reports["7-again"] != reports["8"]

    def test_negative_seed_flag_is_named(self, tmp_path, source_wavs, capsys):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--n-filters", "64", "--out", bank])
        capsys.readouterr()
        out_dir = tmp_path / "sep"
        assert run(["separate", bank, *source_wavs, "--out-dir", out_dir, "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"
        assert not out_dir.exists()


class TestExperimentReport:
    """The report files `fblab separate` writes, for scores the test sets."""

    @staticmethod
    def _separate_with_scores(tmp_path, source_wavs, monkeypatch, capsys, scores):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--n-filters", "64", "--out", bank])
        capsys.readouterr()
        monkeypatch.setattr(fblab.cli, "score_separation", lambda estimates, sources: scores)
        out_dir = tmp_path / "sep"
        assert run(["separate", bank, *source_wavs, "--out-dir", out_dir, "--snr-db", "0"]) == 0
        return out_dir, capsys.readouterr().out

    def test_csv_format(self, tmp_path, source_wavs, monkeypatch, capsys):
        out_dir, printed = self._separate_with_scores(tmp_path, source_wavs, monkeypatch, capsys, (1.5, math.inf))
        assert (out_dir / "report.csv").read_text() == "item_id,source_idx,si_snr_db\nitem-0,0,1.5\nitem-0,1,inf\n"
        assert printed == "mean_si_snr_db=inf\n"

    def test_json_summary(self, tmp_path, source_wavs, monkeypatch, capsys):
        out_dir, printed = self._separate_with_scores(tmp_path, source_wavs, monkeypatch, capsys, (1.5, 2.5))
        data = json.loads((out_dir / "report.json").read_text())
        assert data["mean_si_snr_db"] == 2.0
        assert data["items"] == [{"item_id": "item-0", "si_snr_db": [1.5, 2.5]}]
        assert data["bank"]["kind"] == "mpgtf"
        assert data["bank"]["c1"] == 24.7
        assert data["config"]["snr_db"] == 0.0
        assert printed == "mean_si_snr_db=2.0\n"


class TestTrain:
    def _write_pairs(self, directory, n, seed, fs=8000):
        directory.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        for i in range(n):
            f1 = rng.uniform(250, 1200)
            f2 = rng.uniform(1500, 3600)
            write_wav(directory / f"item{i}_s1.wav", tone(f1, n=1600, fs=fs))
            write_wav(directory / f"item{i}_s2.wav", tone(f2, n=1600, fs=fs))

    def test_zero_iters_returns_init(self, tmp_path, capsys):
        self._write_pairs(tmp_path / "train", 2, 0)
        self._write_pairs(tmp_path / "dev", 1, 1)
        out_dir = tmp_path / "out"
        code = run(["train", tmp_path / "train", tmp_path / "dev", "--out-dir", out_dir,
                    "--max-iters", "0", "--n-filters", "128"])
        assert code == 0
        result = json.loads((out_dir / "result.json").read_text())
        assert result["c1"] == 24.7
        assert result["c2"] == 9.265
        assert (out_dir / "trace.csv").read_text() == "iter,c1,c2,train_loss,dev_loss\n"

    def test_negative_seed_flag_is_named(self, tmp_path, capsys):
        self._write_pairs(tmp_path / "train", 1, 0)
        self._write_pairs(tmp_path / "dev", 1, 1)
        out_dir = tmp_path / "out"
        assert run(["train", tmp_path / "train", tmp_path / "dev", "--out-dir", out_dir,
                    "--max-iters", "0", "--n-filters", "128", "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"
        assert not out_dir.exists()

    def test_zero_lr_constant_trace(self, tmp_path):
        self._write_pairs(tmp_path / "train", 2, 0)
        self._write_pairs(tmp_path / "dev", 1, 1)
        out_dir = tmp_path / "out"
        code = run(["train", tmp_path / "train", tmp_path / "dev", "--out-dir", out_dir,
                    "--lr", "0", "--max-iters", "3", "--n-filters", "128"])
        assert code == 0
        lines = (out_dir / "trace.csv").read_text().splitlines()
        assert len(lines) == 4
        losses = {line.split(",")[3] for line in lines[1:]}
        assert len(losses) == 1

    def test_infeasible_step_writes_partial_trace(self, tmp_path, capsys):
        self._write_pairs(tmp_path / "train", 2, 0)
        self._write_pairs(tmp_path / "dev", 1, 1)
        out_dir = tmp_path / "out"
        code = run(["train", tmp_path / "train", tmp_path / "dev", "--out-dir", out_dir,
                    "--lr", "5", "--max-iters", "3", "--n-filters", "64"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no valid bank at c1=") and "Traceback" not in err
        lines = (out_dir / "trace.csv").read_text().splitlines()
        assert lines[0] == "iter,c1,c2,train_loss,dev_loss"
        assert lines[1].startswith("0,24.7,9.265,")
        assert len(lines) == 2
        assert not (out_dir / "result.json").exists()

    def test_non_finite_loss_writes_empty_trace(self, tmp_path, capsys, monkeypatch):
        self._write_pairs(tmp_path / "train", 1, 0)
        self._write_pairs(tmp_path / "dev", 1, 1)
        monkeypatch.setattr(fblab.training, "separation_loss", lambda *args: float("nan"))
        out_dir = tmp_path / "out"
        assert run(["train", tmp_path / "train", tmp_path / "dev", "--out-dir", out_dir, "--n-filters", "128"]) == 1
        assert capsys.readouterr().err == "error: non-finite loss at iteration 0: train=nan, dev=nan\n"
        assert (out_dir / "trace.csv").read_text() == "iter,c1,c2,train_loss,dev_loss\n"
        assert not (out_dir / "result.json").exists()

    @pytest.mark.parametrize("iters", [["--max-iters", "0"], []], ids=["zero-iters", "default-iters"])
    def test_infeasible_initial_point_leaves_no_out_dir(self, tmp_path, capsys, iters):
        self._write_pairs(tmp_path / "train", 1, 0)
        self._write_pairs(tmp_path / "dev", 1, 1)
        out_dir = tmp_path / "out"
        assert run(["train", tmp_path / "train", tmp_path / "dev", "--out-dir", out_dir,
                    "--c1-init", "0.5", "--c2-init", "100", "--n-filters", "128", *iters]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not enough filters" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_best_dev_loss_is_that_of_the_returned_point(self, tmp_path, monkeypatch):
        # `train_parampgtf` returns the point of the row of least dev loss, here
        # neither the first row nor the last, so that row's loss is the best.
        self._write_pairs(tmp_path / "train", 1, 0)
        self._write_pairs(tmp_path / "dev", 1, 1)
        trace = [TraceRow(0, 24.7, 9.265, -3.0, -1.0), TraceRow(1, 25.0, 9.2, -3.5, -2.0),
                 TraceRow(2, 25.1, 9.1, -3.6, -1.5)]
        monkeypatch.setattr(fblab.cli, "train_parampgtf", lambda *args, **kwargs: (ErbParams(25.0, 9.2), trace))
        out_dir = tmp_path / "out"
        assert run(["train", tmp_path / "train", tmp_path / "dev", "--out-dir", out_dir, "--n-filters", "128"]) == 0
        result = json.loads((out_dir / "result.json").read_text())
        assert (result["c1"], result["c2"], result["best_dev_loss"]) == (25.0, 9.2, -2.0)

    def test_unpaired_source_is_named(self, tmp_path, capsys):
        self._write_pairs(tmp_path / "train", 1, 0)
        self._write_pairs(tmp_path / "dev", 1, 1)
        (tmp_path / "train" / "item0_s2.wav").unlink()
        out_dir = tmp_path / "out"
        assert run(["train", tmp_path / "train", tmp_path / "dev", "--out-dir", out_dir]) == 1
        assert capsys.readouterr().err == "error: missing partner file for item0_s1.wav\n"
        assert not out_dir.exists()

    def test_unpaired_second_source_is_named(self, tmp_path, capsys):
        self._write_pairs(tmp_path / "train", 1, 0)
        self._write_pairs(tmp_path / "dev", 1, 1)
        write_wav(tmp_path / "train" / "orphan_s2.wav", tone(2000.0, n=1600))
        out_dir = tmp_path / "out"
        assert run(["train", tmp_path / "train", tmp_path / "dev", "--out-dir", out_dir]) == 1
        assert capsys.readouterr().err == "error: missing partner file for orphan_s2.wav\n"
        assert not out_dir.exists()

    def test_off_rate_second_source_is_named(self, tmp_path, capsys):
        self._write_pairs(tmp_path / "train", 2, 0)
        self._write_pairs(tmp_path / "dev", 1, 1)
        off_rate = tmp_path / "train" / "item1_s2.wav"
        write_wav(off_rate, tone(2000.0, n=1600, fs=16000))
        out_dir = tmp_path / "out"
        assert run(["train", tmp_path / "train", tmp_path / "dev", "--out-dir", out_dir]) == 1
        assert capsys.readouterr().err == f"error: {off_rate}: sample rate mismatch: 16000 Hz, expected 8000 Hz\n"
        assert not out_dir.exists()

    def test_malformed_pair_file_is_named(self, tmp_path, capsys):
        self._write_pairs(tmp_path / "train", 1, 0)
        self._write_pairs(tmp_path / "dev", 1, 1)
        malformed = tmp_path / "dev" / "item0_s2.wav"
        malformed.write_bytes(b"RIFF\x00\x00\x00\x00WAVE")
        out_dir = tmp_path / "out"
        assert run(["train", tmp_path / "train", tmp_path / "dev", "--out-dir", out_dir]) == 1
        assert capsys.readouterr().err == f"error: {malformed}: malformed header: missing fmt or data chunk\n"
        assert not out_dir.exists()

    def test_silent_source_names_its_pair_file(self, tmp_path, capsys):
        self._write_pairs(tmp_path / "train", 2, 0)
        self._write_pairs(tmp_path / "dev", 1, 1)
        silent = tmp_path / "dev" / "item0_s1.wav"
        write_wav(silent, Waveform(np.zeros(1600), 8000))
        out_dir = tmp_path / "out"
        assert run(["train", tmp_path / "train", tmp_path / "dev", "--out-dir", out_dir]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {silent}: silent source 1 of 2: ")
        assert not out_dir.exists()

    def test_last_row_takes_no_probe(self, tmp_path, capsys):
        # Feasible with M = 32 centres at 64 filters; a probe above this c2 needs M = 33.
        self._write_pairs(tmp_path / "train", 2, 0)
        self._write_pairs(tmp_path / "dev", 1, 1)
        out_dir = tmp_path / "out"
        code = run(["train", tmp_path / "train", tmp_path / "dev", "--out-dir", out_dir,
                    "--n-filters", "64", "--c2-init", "14.069398742262345", "--max-iters", "1"])
        assert code == 0
        result = json.loads((out_dir / "result.json").read_text())
        assert (result["c1"], result["c2"], result["iterations"]) == (24.7, 14.069398742262345, 1)
        assert len((out_dir / "trace.csv").read_text().splitlines()) == 2
        assert capsys.readouterr().out == "c1=24.7 c2=14.069398742262345\n"

    def test_sample_rate_comes_from_the_first_train_pair(self, tmp_path):
        self._write_pairs(tmp_path / "train", 2, 0, fs=16000)
        self._write_pairs(tmp_path / "dev", 1, 1, fs=16000)
        out_dir = tmp_path / "out"
        code = run(["train", tmp_path / "train", tmp_path / "dev", "--out-dir", out_dir,
                    "--lr", "0", "--max-iters", "1", "--n-filters", "128"])
        assert code == 0
        assert load_filterbank(out_dir / "parampgtf.fbank").sample_rate == 16000

    def test_dev_rate_must_match_train_rate(self, tmp_path, capsys):
        self._write_pairs(tmp_path / "train", 2, 0, fs=16000)
        self._write_pairs(tmp_path / "dev", 1, 1, fs=8000)
        out_dir = tmp_path / "out"
        code = run(["train", tmp_path / "train", tmp_path / "dev", "--out-dir", out_dir, "--n-filters", "128"])
        assert code == 1
        err = capsys.readouterr().err
        off_rate = tmp_path / "dev" / "item0_s1.wav"
        assert err == f"error: {off_rate}: sample rate mismatch: 8000 Hz, expected 16000 Hz\n"
        assert not out_dir.exists()  # rejected before training

    def test_help_has_no_rate_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--help"])
        assert excinfo.value.code == 0
        assert "--fs" not in capsys.readouterr().out

    def test_empty_directory_fails(self, tmp_path, capsys):
        (tmp_path / "train").mkdir()
        (tmp_path / "dev").mkdir()
        assert run(["train", tmp_path / "train", tmp_path / "dev", "--out-dir", tmp_path / "out"]) == 1
        assert "no *_s1.wav" in capsys.readouterr().err


def _assert_clean_exit(argv) -> tuple[int, str]:
    """Run the CLI on `argv`: exit 0 with nothing on stderr, or exit 1 with one `error: ` line; no warning.

    Returns the exit code and stderr.
    """
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = run(argv)
    assert (code, err.getvalue()) == (0, "") or (code == 1 and re.fullmatch(r"error: [^\n]*\n", err.getvalue()))
    return code, err.getvalue()


#: Values for a mutated FBANK2 header field: small sizes, integers far beyond
#: float range, special and near-valid tokens, short text without whitespace,
#: and None, which drops the field. No field sizes an allocation (the parser
#: grows the taps it reads), so the values need no cap to stay small.
_FIELD_VALUES = st.one_of(
    st.integers(-2, 10).map(str),
    st.integers(-10**400, 10**400).map(str),
    st.sampled_from(["-", "", "nan", "inf", "-1e400", "1e308", "0x10", "1_0",
                     "custom", "mpgtf", "parampgtf", "stft", "1,2", "2,1", "500,1500,", "24.7"]),
    st.text(st.characters(blacklist_categories=("Z", "C")), max_size=6),
    st.none(),
)


class TestMutatedInputs:
    """A regression net over malformed inputs: header mutations of a small
    WAV and of a small FBANK2 bank end in exit 0, or in exit 1 with one
    `error: ` line; never in an exception or a warning."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("inputs")
        save_filterbank(d / "bank.fbank", build_stft_bank(StftSpec(frame_len=4, n_freqs=2), 8000))
        write_wav(d / "a.wav", tone(300.0, n=64))
        write_wav(d / "b.wav", tone(2000.0, n=64, phase=1.0))
        return d

    @given(st.lists(st.tuples(st.integers(0, 43), st.integers(0, 255)), min_size=1, max_size=4),
           st.sampled_from(["roundtrip", "separate"]))
    @settings(max_examples=30, deadline=None)
    def test_mutated_wav_header(self, inputs, edits, command):
        data = bytearray((inputs / "a.wav").read_bytes())  # a 44-byte header, then 64 float32 samples
        for offset, value in edits:
            data[offset] = value
        wav = inputs / "mutated.wav"
        wav.write_bytes(data)
        if command == "roundtrip":
            argv = ["roundtrip", inputs / "bank.fbank", wav, inputs / "out.wav"]
        else:
            argv = ["separate", inputs / "bank.fbank", wav, inputs / "b.wav",
                    "--out-dir", inputs / "sep", "--snr-db", "0", "--hop", "2"]
        _assert_clean_exit(argv)

    @given(st.dictionaries(st.sampled_from(["kind", "n", "len", "fs", "c1", "c2", "centers"]), _FIELD_VALUES,
                           min_size=1, max_size=3),
           st.sampled_from(["roundtrip", "freq-response"]))
    @example({"fs": str(10**400)}, "freq-response")  # a rate beyond float range overflowed the bin frequencies
    @settings(max_examples=30, deadline=None)
    def test_mutated_bank_header(self, inputs, edits, command):
        head, *rows = (inputs / "bank.fbank").read_text().splitlines()
        fields = dict(token.split("=", 1) for token in head.split()[1:])
        for key, value in edits.items():
            if value is None:
                fields.pop(key, None)
            else:
                fields[key] = value
        bank = inputs / "mutated.fbank"
        bank.write_text("\n".join([" ".join(["FBANK2", *(f"{k}={v}" for k, v in fields.items())]), *rows]) + "\n")
        if command == "roundtrip":
            argv = ["roundtrip", bank, inputs / "a.wav", inputs / "out.wav"]
        else:
            argv = ["freq-response", bank, "--out", inputs / "response.csv", "--n-fft", "8"]
        _assert_clean_exit(argv)

    @given(st.floats(1.0, 10.0, exclude_max=True), st.integers(-324, 308),
           st.sampled_from(["roundtrip", "separate", "freq-response"]))
    @example(1.0, 308, "freq-response")  # a spectrum beyond float range escaped as numpy warnings
    @settings(max_examples=30, deadline=None)
    def test_scaled_bank_taps(self, inputs, m, k, command):
        # Python floats: a product past the float range reads inf (which the
        # loader refuses) and one below it 0, without a numpy warning.
        scale = m * 10.0**k
        head, *rows = (inputs / "bank.fbank").read_text().splitlines()
        decimals = "\n".join(" ".join(repr(float(v) * scale) for v in np.frombuffer(bytes.fromhex(row), "<f8"))
                             for row in rows)
        bank = inputs / "scaled.fbank"
        bank.write_text(fbank2_text(head.split(" ", 1)[1], decimals))
        if command == "roundtrip":
            argv = ["roundtrip", bank, inputs / "a.wav", inputs / "out.wav"]
        elif command == "separate":
            argv = ["separate", bank, inputs / "a.wav", inputs / "b.wav",
                    "--out-dir", inputs / "sep", "--snr-db", "0", "--hop", "2"]
        else:
            argv = ["freq-response", bank, "--out", inputs / "response.csv", "--n-fft", "8"]
        _assert_clean_exit(argv)


#: Values for a numeric CLI flag: the edges of the int and float ranges, the
#: special floats, spellings argparse refuses for an int flag, and small valid
#: sizes. No int value between 64 and 99999999999999999999 is drawn, so no run
#: allocates much: the builders refuse that one before any allocation.
_FLAG_VALUES = st.sampled_from(["0", "-1", "1e-320", "1.7e308", "-1.7e308", "inf", "-inf", "nan", "2e10",
                                "99999999999999999999", "1", "2", "4", "8", "16", "64", "0.5", "1e-3", "24.7"])

#: The numeric flags of each subcommand the net drives.
_NUMERIC_FLAGS = {
    "build-bank": ["--fs", "--n-filters", "--order", "--frame-len", "--c1", "--c2", "--nfreqs"],
    "freq-response": ["--n-fft"],
    "roundtrip": ["--hop"],
    "separate": ["--snr-db", "--hop"],
    "train": ["--lr", "--fd-epsilon", "--hop", "--n-filters", "--frame-len", "--c1-init", "--c2-init"],
}


@st.composite
def numeric_flag_runs(draw):
    """A subcommand (build-bank with its kind) and one to three of its numeric flags, each set to a drawn value."""
    command = draw(st.sampled_from(sorted(_NUMERIC_FLAGS)))
    flags = draw(st.lists(st.sampled_from(_NUMERIC_FLAGS[command]), min_size=1, max_size=3, unique=True))
    kind = [draw(st.sampled_from(["mpgtf", "stft"]))] if command == "build-bank" else []
    return [command, *kind], [token for flag in flags for token in (flag, draw(_FLAG_VALUES))]


class TestNumericFlags:
    """A regression net over the CLI's numeric flags: exit 0 (stderr empty, or
    `warning: ` lines only), exit 1 with one `error: ` line, or argparse's
    exit 2 with its usage message; never an exception or a warning."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("flags")
        save_filterbank(d / "bank.fbank", build_mpgtf(ErbParams(), 64, 16, 8000))
        for split in ("train", "dev"):
            (d / split).mkdir()
        for k, name, freq, phase in [(1, "a", 300.0, 0.0), (2, "b", 2000.0, 1.0)]:
            for path in (d / f"{name}.wav", d / "train" / f"x_s{k}.wav", d / "dev" / f"x_s{k}.wav"):
                write_wav(path, tone(freq, n=64, phase=phase))
        return d

    @given(numeric_flag_runs())
    @example((["train"], ["--lr", "1.7e308"]))  # lr * gradient overflowed: a numpy warning, then a misleading error
    @settings(max_examples=120, deadline=None)
    def test_numeric_flag_exits_cleanly(self, inputs, run_case):
        command, flags = run_case
        d = inputs
        operands = {
            "build-bank": ["--out", d / "built.fbank"],
            "freq-response": [d / "bank.fbank", "--out", d / "response.csv"],
            "roundtrip": [d / "bank.fbank", d / "a.wav", d / "out.wav"],
            "separate": [d / "bank.fbank", d / "a.wav", d / "b.wav", "--out-dir", d / "sep"],
            "train": [d / "train", d / "dev", "--out-dir", d / "trained", "--max-iters", "2", "--n-filters", "64"],
        }[command[0]]
        argv = [*command, *operands, *flags]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            try:
                code = run(argv)
            except SystemExit as exc:  # argparse refuses a value that its type does not parse
                code = exc.code
        text = err.getvalue()
        if code == 0:
            assert all(line.startswith("warning: ") for line in text.splitlines())
        elif code == 1:
            assert re.fullmatch(r"error: [^\n]*\n", text)
        else:
            assert code == 2 and text.startswith("usage: fblab ") and "error: argument " in text

    _HUGE = "99999999999999999999"

    @pytest.mark.parametrize("command,flags,message", [
        (["build-bank", "mpgtf"], ["--frame-len", _HUGE], f"n_filters=512, frame_len={_HUGE}: a 512 x {_HUGE} float64"),
        (["build-bank", "stft"], ["--frame-len", _HUGE], f"n_freqs=128, frame_len={_HUGE}: a 512 x {_HUGE} float64"),
        (["build-bank", "stft"], ["--nfreqs", _HUGE],  # sign-split: 4 rows per frequency
         f"n_freqs={_HUGE}, frame_len=16: a {4 * int(_HUGE)} x 16 float64"),
        (["build-bank", "mpgtf"], ["--n-filters", "99999999999999999998"],  # numpy's own refusal: "negative dimensions"
         "n_filters=99999999999999999998, frame_len=16: a 99999999999999999998 x 16 float64"),
        (["build-bank", "mpgtf"], ["--n-filters", "2305843009213693952"],  # numpy's own refusal: "array is too big"
         "n_filters=2305843009213693952, frame_len=16: a 2305843009213693952 x 16 float64"),
        (["freq-response"], ["--n-fft", _HUGE], f"{{bank}}: n_fft={_HUGE}: a 64 x {_HUGE} complex128"),
        (["train"], ["--frame-len", _HUGE], f"n_filters=64, frame_len={_HUGE}: a 64 x {_HUGE} float64"),
        (["train"], ["--n-filters", "99999999999999999998"],
         "n_filters=99999999999999999998, frame_len=16: a 99999999999999999998 x 16 float64"),
    ], ids=["mpgtf-frame-len", "stft-frame-len", "stft-nfreqs", "mpgtf-n-filters", "mpgtf-n-filters-2**61",
            "n-fft", "train-frame-len", "train-n-filters"])
    def test_size_beyond_numpy_names_its_parameters(self, inputs, capsys, command, flags, message):
        # Refused before any array is sized, so numpy's texts, which name no parameter, never show.
        d = inputs
        operands = {
            "build-bank": ["--out", d / "huge.fbank"],
            "freq-response": [d / "bank.fbank", "--out", d / "huge.csv"],
            "train": [d / "train", d / "dev", "--out-dir", d / "huge", "--max-iters", "2", "--n-filters", "64"],
        }[command[0]]
        assert run([*command, *operands, *flags]) == 1
        message = message.format(bank=d / "bank.fbank")  # a bank's computation names the bank file
        assert capsys.readouterr().err == f"error: {message} array is larger than numpy can hold\n"
        assert not any(p.name.startswith("huge") for p in d.iterdir())


def test_help_lists_defaults(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["build-bank", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "24.7" in out and "9.265" in out and "512" in out


@pytest.mark.parametrize("command", ["separate", "train"])
def test_seed_help_gives_its_default(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    assert "--seed SEED RNG seed (default: 0)" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", ["build-bank", "freq-response", "roundtrip", "separate", "train"])
def test_help_gives_no_none_default(capsys, command):
    # a required option, or one whose help states its default, gets no second one
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    assert "(default: None)" not in " ".join(capsys.readouterr().out.split())  # help wraps lines


def _defaults(*argv):
    """The namespace `fblab` parses from `argv`: every option left out takes its CLI default."""
    return fblab.cli._build_parser().parse_args([str(a) for a in argv])


def _parameter_defaults(func):
    return {name: p.default for name, p in inspect.signature(func).parameters.items()}


def test_cli_defaults_equal_the_library_defaults():
    build = _defaults("build-bank", "mpgtf", "--out", "bank.fbank")
    mpgtf = _parameter_defaults(build_mpgtf)
    assert (build.fs, build.n_filters, build.order) == (mpgtf["sample_rate"], mpgtf["n_filters"], mpgtf["order"])
    assert build.frame_len == mpgtf["frame_len"]
    stft = StftSpec()
    assert (build.frame_len, build.nfreqs, build.mode, build.window) == (
        stft.frame_len, stft.n_freqs, stft.mode.value, stft.window.value)
    assert (build.c1, build.c2) == (ErbParams().c1, ErbParams().c2)

    assert _defaults("freq-response", "bank.fbank", "--out", "r.csv").n_fft == (
        _parameter_defaults(frequency_response)["n_fft"])

    separate = _defaults("separate", "bank.fbank", "a.wav", "b.wav", "--out-dir", "sep")
    train = _defaults("train", "train", "dev", "--out-dir", "out")
    for func in (train_parampgtf, separation_loss):
        library = _parameter_defaults(func)
        assert library["frame_params"] == FrameParams(16, 8) and library["n_filters"] == 512
        assert separate.hop == train.hop == library["frame_params"].hop
        assert train.frame_len == library["frame_params"].frame_len
        assert train.n_filters == library["n_filters"]
    cfg = TrainerConfig()
    assert (train.lr, train.max_iters, train.fd_epsilon) == (cfg.learning_rate, cfg.max_iters, cfg.fd_epsilon)
    assert (train.c1_init, train.c2_init) == (ErbParams().c1, ErbParams().c2)

    # the one deliberate exception: roundtrip's hop defaults to the bank's frame length
    assert _defaults("roundtrip", "bank.fbank", "in.wav", "out.wav").hop is None


#: `separate`, then `roundtrip`, in one interpreter: argv is the bank, two source WAVs and the output directory.
_SEPARATE_AND_ROUNDTRIP = """
import sys
from fblab.cli import main
bank, s1, s2, out = sys.argv[1:]
assert main(["separate", bank, s1, s2, "--out-dir", out, "--seed", "5"]) == 0
assert main(["roundtrip", bank, s1, out + "/roundtrip.wav", "--relu", "--hop", "8"]) == 0
"""


@pytest.mark.skipif("openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "")
                    or (os.cpu_count() or 1) < 2,
                    reason="OPENBLAS_NUM_THREADS changes nothing without OpenBLAS and two CPUs")
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits a dot product of more than 10000 elements across
    # threads and rounds it differently; these sources are 80000 samples.
    rng = np.random.default_rng(1701)
    wavs = [tmp_path / "s1.wav", tmp_path / "s2.wav"]
    for path in wavs:
        write_wav(path, Waveform(0.1 * rng.standard_normal(80000), 8000))
    bank = tmp_path / "mpgtf.fbank"
    save_filterbank(bank, build_mpgtf(ErbParams(), 512, 16, 8000))
    src = str(Path(fblab.cli.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", _SEPARATE_AND_ROUNDTRIP, str(bank), *map(str, wavs), str(out)],
                              env=env, capture_output=True, text=True, check=True)
        runs.append((proc.stdout, {path.name: path.read_bytes() for path in sorted(out.iterdir())}))
    assert sorted(runs[0][1]) == ["est_1.wav", "est_2.wav", "mixture.wav", "report.csv", "report.json",
                                  "roundtrip.wav"]
    assert runs[0] == runs[1]
