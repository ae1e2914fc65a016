import json
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

import fblab.cli
import fblab.separation
from fblab import MixSpec, Waveform, load_filterbank, make_multi_mixture_item, read_wav, si_snr, write_wav
from fblab.cli import main


def tone(freq, n=4000, fs=8000, amp=0.5, phase=0.0):
    t = np.arange(n) / fs
    return Waveform(amp * np.sin(2 * np.pi * freq * t + phase), fs)


@pytest.fixture()
def source_wavs(tmp_path):
    a = tmp_path / "a.wav"
    b = tmp_path / "b.wav"
    write_wav(a, tone(300.0), encoding="float32")
    write_wav(b, tone(2000.0, phase=1.0), encoding="float32")
    return a, b


def run(args):
    return main([str(a) for a in args])


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

    def test_stft_signsplit_dimensions(self, tmp_path, capsys):
        out = tmp_path / "stft.fbank"
        assert run(["build-bank", "stft", "--mode", "signsplit", "--nfreqs", "128", "--out", out]) == 0
        assert "N=512 L=16" in capsys.readouterr().out
        assert load_filterbank(out).taps.shape == (512, 16)

    def test_tiny_c2_builds_one_center(self, tmp_path, capsys):
        # one ERB-rate step overflows past 4 kHz: a single center, no traceback
        out = tmp_path / "x.fbank"
        assert run(["build-bank", "parampgtf", "--c2", "1e-3", "--out", out]) == 0
        assert capsys.readouterr().out.strip() == "N=512 L=16 M=1"
        assert len(load_filterbank(out).center_freqs) == 1

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
        assert capsys.readouterr().err.startswith("error: not an FBANK1 file")

    @pytest.mark.parametrize("command", ["freq-response", "roundtrip"])
    @pytest.mark.parametrize(
        "dims,message",
        [
            ("n=1 len=10000000000000", "error: FBANK1 dimension mismatch on row 0"),
            ("n=1 len=-3", "error: bad FBANK1 header"),
            ("n=0 len=3", "error: bad FBANK1 header"),
        ],
    )
    def test_bad_dimensions_are_typed_errors(self, tmp_path, source_wavs, capsys, command, dims, message):
        bank = tmp_path / "bad.fbank"
        bank.write_text(f"FBANK1 kind=custom {dims} fs=8000 c1=- c2=- centers=-\n1 2 3\n")
        if command == "freq-response":
            args = ["freq-response", bank, "--out", tmp_path / "x.csv"]
        else:
            args = ["roundtrip", bank, source_wavs[0], tmp_path / "out.wav"]
        assert run(args) == 1
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("c1,reason", [("abc", "could not convert"), ("-3", "invalid ERB parameters")])
    def test_bad_erb_params_are_header_errors(self, tmp_path, capsys, c1, reason):
        bank = tmp_path / "bad.fbank"
        bank.write_text(f"FBANK1 kind=mpgtf n=1 len=1 fs=8000 c1={c1} c2=9.265 centers=-\n1\n")
        assert run(["freq-response", bank, "--out", tmp_path / "x.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad FBANK1 header: ") and reason in err

    def test_unallocatable_n_fft_is_typed_error(self, tmp_path, capsys):
        # 146 TiB of spectrum exceeds the 128 TiB user address space of
        # x86-64, so the allocation fails at once and nothing is allocated.
        bank = tmp_path / "one.fbank"
        bank.write_text("FBANK1 kind=custom n=1 len=4 fs=8000 c1=- c2=- centers=-\n1 2 3 4\n")
        csv = tmp_path / "x.csv"
        assert run(["freq-response", bank, "--out", csv, "--n-fft", "10000000000000"]) == 1
        assert capsys.readouterr().err.startswith("error: Unable to allocate")
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
        write_wav(silent, Waveform(np.zeros(1600), 8000), encoding="float32")
        out_wav = tmp_path / "out.wav"
        assert run(["roundtrip", bank, silent, out_wav]) == 0
        assert capsys.readouterr().out.strip() == "si_snr_db=n/a"
        assert np.all(read_wav(out_wav).samples == 0.0)

    def test_peak_memory_of_a_60s_roundtrip(self, tmp_path, capsys):
        # The input, the engine's overlap-add rows handed out as the output,
        # and one SI-SNR work buffer: about three signal lengths of float64.
        bank = tmp_path / "stft.fbank"
        run(["build-bank", "stft", "--out", bank])
        n = 60 * 8000
        wav_in = tmp_path / "long.wav"
        write_wav(wav_in, Waveform(0.3 * np.random.default_rng(6).standard_normal(n), 8000), encoding="float32")
        tracemalloc.start()
        try:
            assert run(["roundtrip", bank, wav_in, tmp_path / "out.wav", "--relu", "--hop", "8"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.2 * n * 8

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

    def test_rate_mismatch_fails(self, tmp_path, capsys):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--out", bank])
        wav16k = tmp_path / "x.wav"
        write_wav(wav16k, Waveform(np.ones(100), 16000), encoding="float32")
        assert run(["roundtrip", bank, wav16k, tmp_path / "y.wav"]) == 1
        assert "error:" in capsys.readouterr().err


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

        item = make_multi_mixture_item("item-0", [read_wav(p) for p in source_wavs], MixSpec(0.0))
        scores = json.loads((out_dir / "report.json").read_text())["items"][0]["si_snr_db"]
        assert len(scores) == len(item.sources)
        for i, (score, src) in enumerate(zip(scores, item.sources), start=1):
            written = si_snr(read_wav(out_dir / f"est_{i}.wav"), src).value_db
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

    def test_mixture_beyond_float32_is_typed_error_without_warning(self, tmp_path, capsys):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--out", bank])
        wavs = [tmp_path / "a.wav", tmp_path / "b.wav"]
        write_wav(wavs[0], Waveform(3e38 / 0.5 * tone(300.0).samples, 8000), encoding="float32")
        write_wav(wavs[1], Waveform(3e38 / 0.5 * tone(2000.0, phase=1.0).samples, 8000), encoding="float32")
        out_dir = tmp_path / "sep"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["separate", bank, *wavs, "--out-dir", out_dir, "--snr-db=-5"]) == 1
        err = capsys.readouterr().err
        assert "error: sample magnitude" in err and "beyond the float32 range" in err and "Traceback" not in err
        assert not (out_dir / "mixture.wav").exists()

    def test_sources_bank_rate_mismatch_fails_before_writing(self, tmp_path, capsys):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--out", bank])
        wavs = [tmp_path / "a16k.wav", tmp_path / "b16k.wav"]
        write_wav(wavs[0], tone(300.0, fs=16000), encoding="float32")
        write_wav(wavs[1], tone(2000.0, fs=16000), encoding="float32")
        out_dir = tmp_path / "sep"
        assert run(["separate", bank, *wavs, "--out-dir", out_dir, "--snr-db", "0"]) == 1
        err = capsys.readouterr().err
        assert "error: sample rate mismatch: bank 8000 Hz, signal 16000 Hz" in err
        assert not out_dir.exists()

    def test_seed_env_var_used_as_default(self, tmp_path, source_wavs, monkeypatch):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--out", bank])
        d1, d2, d3 = tmp_path / "s1", tmp_path / "s2", tmp_path / "s3"
        monkeypatch.setenv("FBLAB_SEED", "7")
        run(["separate", bank, *source_wavs, "--out-dir", d1])
        run(["separate", bank, *source_wavs, "--out-dir", d2])
        monkeypatch.setenv("FBLAB_SEED", "8")
        run(["separate", bank, *source_wavs, "--out-dir", d3])
        assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
        assert (d1 / "report.json").read_bytes() != (d3 / "report.json").read_bytes()

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_bad_seed_env_var_is_named(self, tmp_path, source_wavs, monkeypatch, capsys, value):
        bank = tmp_path / "bank.fbank"
        run(["build-bank", "mpgtf", "--n-filters", "64", "--out", bank])
        capsys.readouterr()
        monkeypatch.setenv("FBLAB_SEED", value)
        out_dir = tmp_path / "sep"
        assert run(["separate", bank, *source_wavs, "--out-dir", out_dir]) == 1
        assert capsys.readouterr().err == f"error: FBLAB_SEED must be a non-negative integer, got {value!r}\n"
        assert not out_dir.exists()


class TestTrain:
    def _write_pairs(self, directory, n, seed, fs=8000):
        directory.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        for i in range(n):
            f1 = rng.uniform(250, 1200)
            f2 = rng.uniform(1500, 3600)
            write_wav(directory / f"item{i}_s1.wav", tone(f1, n=1600, fs=fs), encoding="float32")
            write_wav(directory / f"item{i}_s2.wav", tone(f2, n=1600, fs=fs), encoding="float32")

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
        assert err == "error: sample rate mismatch in item0_s1: expected 16000 Hz\n"
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


def test_help_lists_defaults(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["build-bank", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "24.7" in out and "9.265" in out and "512" in out
