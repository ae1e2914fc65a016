"""Seeded inputs, operations and output checks for fblab's benchmark workloads.

Every workload is a closed loop of identical operations ("ops") on inputs
generated from one seed. The benchmark writes the inputs (WAV files, or
fblab mixture items), and fblab sees nothing else. Expected outputs come
from a reference pipeline in this file: a GEMM encoder, the same ratio
masks, a pseudo-inverse decoder and overlap-add, all in plain numpy and
independent of fblab's codec, separation and metrics code. Banks and
synthetic items are taken from fblab, whose builders the unit tests pin.

Workloads (see BENCHMARK.json for the one-line reasons):
  separate_10s   `fblab separate` on a 10 s two-source WAV pair.
  roundtrip_60s  `fblab roundtrip --relu --hop 8` on a 60 s WAV, STFT bank.
  train_fd       one `train_parampgtf` iteration (finite differences), 20 items.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import struct
from pathlib import Path

import numpy as np

import fblab
import fblab.cli

FS = 8000
FRAME_LEN = 16
HOP = 8
N_FILTERS = 512
PINV_RCOND = 1e-10
SI_SNR_CLIP_DB = 60.0
SNR_RANGE_DB = (-5.0, 5.0)

#: Scores may differ from the reference by this much. A GEMM encoder or a
#: reordered overlap-add moves them by about 1e-12 dB; a wrong result moves
#: them by far more.
SCORE_TOL_DB = 1e-6
#: Output samples may differ from the reference by this share of its peak
#: (float32 storage rounds at about 6e-8).
SAMPLE_TOL = 1e-6


# --- WAV files written and read by the benchmark itself -----------------------

def write_wav_f32(path: Path, samples: np.ndarray, sample_rate: int = FS) -> None:
    payload = np.asarray(samples, dtype="<f4").tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, sample_rate, sample_rate * 4, 4, 32)
    header += b"data" + struct.pack("<I", len(payload))
    path.write_bytes(header + payload)


def read_wav_f32(path: Path) -> np.ndarray:
    """Samples of a mono float32 WAV file, widened to float64."""
    data = path.read_bytes()
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        if chunk_id == b"fmt ":
            audio_format, channels, _, _, _, bits = struct.unpack_from("<HHIIHH", data, pos + 8)
            if (audio_format, channels, bits) != (3, 1, 32):
                raise ValueError(f"{path.name}: not mono float32")
        elif chunk_id == b"data":
            return np.frombuffer(data, dtype="<f4", count=size // 4, offset=pos + 8).astype(np.float64)
        pos += 8 + size + (size & 1)
    raise ValueError(f"{path.name}: no data chunk")


# --- Seeded sources -------------------------------------------------------------

def note_source(rng: np.random.Generator, n: int, f0_range: tuple[float, float], note_s: float = 0.25) -> np.ndarray:
    """Harmonic notes plus a noise floor, as float32 with peak 0.5.

    Each `note_s` note has an f0 drawn from `f0_range`, harmonics up to
    3.8 kHz at 1/k amplitude with random phases, and a sin^2 envelope. The
    signal fades to zero over its first and last frame, so reconstruction
    error at the edges does not depend on the seed.
    """
    m = int(note_s * FS)
    t = np.arange(m) / FS
    env = np.sin(np.pi * (np.arange(m) + 0.5) / m) ** 2
    sig = np.zeros(n)
    for start in range(0, n - m + 1, m):
        f0 = rng.uniform(*f0_range)
        k = np.arange(1, int(3800.0 // f0) + 1)[:, None]
        phase = rng.uniform(0.0, 2.0 * np.pi, size=k.shape)
        sig[start:start + m] = env * (np.cos(2.0 * np.pi * f0 * k * t + phase) / k).sum(axis=0)
    sig += 0.05 * np.sqrt(np.mean(sig ** 2)) * rng.standard_normal(n)
    fade = np.minimum(1.0, np.arange(n) / FRAME_LEN)
    sig *= fade * fade[::-1]
    return (0.5 * sig / np.max(np.abs(sig))).astype(np.float32)


# --- Reference pipeline (plain numpy, independent of fblab's codec) ------------

def ref_frames(x: np.ndarray, frame_len: int = FRAME_LEN, hop: int = HOP) -> np.ndarray:
    count = -(-max(len(x) - frame_len, 0) // hop) + 1
    padded = np.zeros((count - 1) * hop + frame_len)
    padded[:len(x)] = x
    return np.lib.stride_tricks.sliding_window_view(padded, frame_len)[::hop]


def ref_encode(x: np.ndarray, taps: np.ndarray, relu: bool) -> np.ndarray:
    values = taps[:, ::-1] @ ref_frames(x, taps.shape[1]).T
    return np.maximum(values, 0.0) if relu else values


def ref_decode(values: np.ndarray, pinv: np.ndarray, n: int, hop: int = HOP) -> np.ndarray:
    frames = (pinv @ values).T
    count, frame_len = frames.shape
    out = np.zeros((count - 1) * hop + frame_len)
    np.add.at(out, np.arange(count)[:, None] * hop + np.arange(frame_len), frames)
    return out[:n]


def ref_pinv(taps: np.ndarray) -> np.ndarray:
    return np.linalg.pinv(taps[:, ::-1], rcond=PINV_RCOND)


def ref_si_snr(est: np.ndarray, ref: np.ndarray) -> float:
    target = (est @ ref) / (ref @ ref) * ref
    residual = est - target
    return 10.0 * math.log10((target @ target) / (residual @ residual))


def ref_separate(mixture: np.ndarray, sources: list[np.ndarray], taps: np.ndarray, pinv: np.ndarray) -> list[np.ndarray]:
    """Oracle ratio-mask estimates of two sources from a rectified mixture encoding."""
    rep = ref_encode(mixture, taps, relu=True)
    mag0, mag1 = (np.abs(ref_encode(s, taps, relu=False)) for s in sources)
    denom = mag0 + mag1
    zero = denom == 0.0
    mask0 = np.where(zero, 0.5, mag0 / np.where(zero, 1.0, denom))
    mask1 = np.clip(1.0 - mask0, 0.0, 1.0)
    return [ref_decode(rep * mask, pinv, len(mixture)) for mask in (mask0, mask1)]


def ref_loss(items, taps: np.ndarray) -> float:
    """Negative mean clipped SI-SNR over every source of every item."""
    pinv = ref_pinv(taps)
    scores = []
    for item in items:
        sources = [s.samples for s in item.sources]
        for est, src in zip(ref_separate(item.mixture.samples, sources, taps, pinv), sources):
            scores.append(min(ref_si_snr(est, src), SI_SNR_CLIP_DB))
    return -float(np.mean(scores))


def close(value: float, expected: float, tol: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= tol


def samples_close(out: np.ndarray, expected: np.ndarray) -> bool:
    return out.shape == expected.shape and float(np.max(np.abs(out - expected))) <= SAMPLE_TOL * float(np.max(np.abs(expected)))


def _quiet_cli(argv: list[str]) -> tuple[int, str]:
    """Run `fblab.cli.main` in-process and return its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = fblab.cli.main(argv)  # attribute lookup at call time, so a traced run sees the wrapper
    return rc, buf.getvalue()


# --- Workloads ------------------------------------------------------------------

class Workload:
    """One seeded workload: inputs, expected outputs, setup, op and check.

    `expected` holds the reference values an op's outputs are checked
    against; `setup_code` is the preparation the program does before its
    first op, timed by the runner in a fresh interpreter between ops. It
    writes a bank to `timed_bank`, never to the one the ops read.
    """

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.expected: dict = {}

    def setup_code(self) -> str:
        raise NotImplementedError

    def setup(self) -> None:
        """Do in this process what `setup_code` does, before the first op."""
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def check(self, result) -> list[str]:
        """Problems with one op's result; empty when the outputs are right."""
        raise NotImplementedError

    def quality(self, result) -> float:
        raise NotImplementedError

    def reset(self) -> None:
        """Remove the previous op's outputs so a check never reads stale files."""


class SeparateWorkload(Workload):
    name = "separate_10s"

    def __init__(self, workdir: Path, seed: int, duration_s: float = 10.0):
        super().__init__(seed)
        n = int(round(duration_s * FS))
        rng = np.random.default_rng(seed)
        s1 = note_source(rng, n, (90.0, 180.0))
        s2 = note_source(rng, n, (160.0, 300.0))
        self.wavs = [workdir / "s1.wav", workdir / "s2.wav"]
        for path, s in zip(self.wavs, (s1, s2)):
            write_wav_f32(path, s)
        self.bank = workdir / "mpgtf.fbank"
        self.timed_bank = workdir / "setup-mpgtf.fbank"
        self.out_dir = workdir / "separate_out"
        self.n = n

        # The CLI draws the mixing SNR from --seed, as its help text states.
        snr_db = float(np.random.default_rng(seed).uniform(*SNR_RANGE_DB))
        a, b = s1.astype(np.float64), s2.astype(np.float64)
        gain = math.sqrt((a @ a) / (b @ b) * 10.0 ** (-snr_db / 10.0))
        sources = [a, gain * b]
        taps = fblab.build_mpgtf(fblab.ErbParams(), N_FILTERS, FRAME_LEN, FS).taps
        estimates = ref_separate(a + gain * b, sources, taps, ref_pinv(taps))
        scores = [ref_si_snr(e, s) for e, s in zip(estimates, sources)]
        self.expected = {
            "si_snr_db": scores,
            "mean_si_snr_db": float(np.mean(scores)),
            "estimates": [e.astype(np.float32).astype(np.float64) for e in estimates],
            "mixture": (a + gain * b).astype(np.float32).astype(np.float64),
        }

    def setup_code(self) -> str:
        return f"import fblab.cli\nfblab.cli.main(['build-bank', 'mpgtf', '--out', {str(self.timed_bank)!r}])\n"

    def setup(self) -> None:
        _quiet_cli(["build-bank", "mpgtf", "--out", str(self.bank)])

    def reset(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def op(self):
        argv = ["separate", str(self.bank), *map(str, self.wavs), "--out-dir", str(self.out_dir), "--seed", str(self.seed)]
        rc, _ = _quiet_cli(argv)
        return rc

    def check(self, rc) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        problems = []
        report = json.loads((self.out_dir / "report.json").read_text())
        got = report["items"][0]["si_snr_db"]
        want = self.expected["si_snr_db"]
        if len(got) != len(want) or not all(close(g, w, SCORE_TOL_DB) for g, w in zip(got, want)):
            problems.append(f"per-source si_snr_db {got} != {want}")
        if not close(report["mean_si_snr_db"], self.expected["mean_si_snr_db"], SCORE_TOL_DB):
            problems.append(f"mean_si_snr_db {report['mean_si_snr_db']} != {self.expected['mean_si_snr_db']}")
        outputs = {"mixture.wav": self.expected["mixture"]}
        outputs.update({f"est_{i}.wav": e for i, e in enumerate(self.expected["estimates"], start=1)})
        for name, want_samples in outputs.items():
            samples = read_wav_f32(self.out_dir / name)
            if len(samples) != self.n:
                problems.append(f"{name} has {len(samples)} samples, input has {self.n}")
            elif not samples_close(samples, want_samples):
                problems.append(f"{name} differs from the reference")
        return problems

    def quality(self, rc) -> float:
        return float(json.loads((self.out_dir / "report.json").read_text())["mean_si_snr_db"])


class RoundtripWorkload(Workload):
    name = "roundtrip_60s"

    def __init__(self, workdir: Path, seed: int, duration_s: float = 60.0):
        super().__init__(seed)
        n = int(round(duration_s * FS))
        x = note_source(np.random.default_rng(seed), n, (90.0, 300.0)).astype(np.float64)
        self.wav_in = workdir / "x.wav"
        self.wav_out = workdir / "roundtrip_out.wav"
        write_wav_f32(self.wav_in, x)
        self.bank = workdir / "stft.fbank"
        self.timed_bank = workdir / "setup-stft.fbank"
        self.n = n

        taps = fblab.build_stft_bank(fblab.StftSpec(FRAME_LEN), FS).taps
        out = ref_decode(ref_encode(x, taps, relu=True), ref_pinv(taps), n)
        self.expected = {
            "si_snr_db": min(ref_si_snr(out, x), SI_SNR_CLIP_DB),
            "samples": out.astype(np.float32).astype(np.float64),
        }

    def setup_code(self) -> str:
        return f"import fblab.cli\nfblab.cli.main(['build-bank', 'stft', '--out', {str(self.timed_bank)!r}])\n"

    def setup(self) -> None:
        _quiet_cli(["build-bank", "stft", "--out", str(self.bank)])

    def reset(self) -> None:
        self.wav_out.unlink(missing_ok=True)

    def op(self):
        rc, stdout = _quiet_cli(["roundtrip", str(self.bank), str(self.wav_in), str(self.wav_out), "--relu", "--hop", str(HOP)])
        return rc, stdout

    def _printed_si_snr(self, stdout: str) -> float:
        for line in stdout.splitlines():
            if line.startswith("si_snr_db="):
                return float(line.split("=", 1)[1])
        raise ValueError("no si_snr_db line in roundtrip output")

    def check(self, result) -> list[str]:
        rc, stdout = result
        if rc != 0:
            return [f"exit code {rc}"]
        problems = []
        value = self._printed_si_snr(stdout)
        if not close(value, self.expected["si_snr_db"], SCORE_TOL_DB):
            problems.append(f"si_snr_db {value} != {self.expected['si_snr_db']}")
        samples = read_wav_f32(self.wav_out)
        if len(samples) != self.n:
            problems.append(f"output has {len(samples)} samples, input has {self.n}")
        elif not samples_close(samples, self.expected["samples"]):
            problems.append("output differs from the reference reconstruction")
        return problems

    def quality(self, result) -> float:
        return self._printed_si_snr(result[1])


class TrainWorkload(Workload):
    name = "train_fd"

    def __init__(self, workdir: Path, seed: int, n_items: int = 20, n_train: int = 12,
                 item_s: float = 0.5, max_iters: int = 1):
        super().__init__(seed)
        self.n_items, self.n_train, self.item_s = n_items, n_train, item_s
        self.cfg = fblab.TrainerConfig(learning_rate=0.05, max_iters=max_iters)
        self.setup()
        taps = fblab.build_parampgtf(fblab.ErbParams(), N_FILTERS, FRAME_LEN, FS).taps
        self.expected = {
            "train_loss": ref_loss(self.train_items, taps),
            "dev_loss": ref_loss(self.dev_items, taps),
        }

    def setup_code(self) -> str:
        return (f"import fblab\n"
                f"fblab.make_sinusoid_mixture_items({self.n_items}, {self.seed}, duration_s={self.item_s!r})\n")

    def setup(self) -> None:
        items = fblab.make_sinusoid_mixture_items(self.n_items, self.seed, duration_s=self.item_s)
        self.train_items, self.dev_items = items[:self.n_train], items[self.n_train:]

    def op(self):
        return fblab.train_parampgtf(self.train_items, self.dev_items, self.cfg, fblab.ErbParams(), n_filters=N_FILTERS)

    def check(self, result) -> list[str]:
        best, trace = result
        if len(trace) != self.cfg.max_iters:
            return [f"trace has {len(trace)} rows, expected {self.cfg.max_iters}"]
        problems = []
        first = trace[0]
        for key in ("train_loss", "dev_loss"):
            if not close(getattr(first, key), self.expected[key], SCORE_TOL_DB):
                problems.append(f"first-row {key} {getattr(first, key)} != {self.expected[key]}")
        chosen = [row for row in trace if (row.c1, row.c2) == (best.c1, best.c2)]
        if not chosen:
            problems.append("returned parameters are not in the trace")
        elif not chosen[0].dev_loss <= first.dev_loss:
            problems.append(f"best dev loss {chosen[0].dev_loss} > initial {first.dev_loss}")
        if not all(math.isfinite(row.train_loss) and math.isfinite(row.dev_loss) for row in trace):
            problems.append("non-finite loss in trace")
        return problems

    def quality(self, result) -> float:
        return -min(row.dev_loss for row in result[1])


WORKLOADS = {cls.name: cls for cls in (SeparateWorkload, RoundtripWorkload, TrainWorkload)}
