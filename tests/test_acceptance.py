"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import fblab as fb
from fblab.cli import main as cli_main


@contextmanager
def criterion(number, title):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL: {title}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:02d} PASS: {title} ({elapsed:.2f}s)")


def test_criterion_01_erb_math_suite():
    with criterion(1, "ERB math: erb(100), erb_scale(0), inverse identity on [0, 8000]"):
        start = time.perf_counter()
        defaults = fb.ErbParams()
        assert abs(fb.erb(100.0, defaults) - 35.49330814894765) < 1e-9
        assert fb.erb_scale(0.0, defaults) == 0.0
        for f in np.linspace(0.0, 8000.0, 1000):
            back = fb.erb_scale_inv(fb.erb_scale(float(f), defaults), defaults)
            assert abs(back - f) <= 1e-9 * max(f, 1e-30)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_center_frequency_grid():
    with criterion(2, "center grid: anchor, monotone, unit ERB gaps, <= 4 kHz, oracle match"):
        start = time.perf_counter()
        defaults = fb.ErbParams()
        grid = fb.center_frequency_grid(defaults)
        assert grid[0] == 100.0
        assert np.all(np.diff(grid) > 0)
        assert np.all(grid <= 4000.0)
        scale = np.array([fb.erb_scale(float(f), defaults) for f in grid])
        assert np.max(np.abs(np.diff(scale) - 1.0)) <= 1e-9
        # independent oracle: the recursion's algebraic closed form,
        # f_{j+1} = (f_j + c1*c2) * e^(1/c2) - c1*c2
        cc = defaults.c1 * defaults.c2
        f = 100.0
        oracle = [f]
        while True:
            f = (f + cc) * math.exp(1.0 / defaults.c2) - cc
            if f > 4000.0:
                break
            oracle.append(f)
        assert len(oracle) == len(grid)
        np.testing.assert_allclose(grid, oracle, rtol=1e-9)
        assert time.perf_counter() - start < 1.0


def test_criterion_03_mpgtf_structure():
    with criterion(3, "MPGTF: 512x16, negation pairs, unit peaks, parameterized build identical"):
        start = time.perf_counter()
        defaults = fb.ErbParams()
        bank = fb.build_mpgtf(defaults, 512, 16, 8000)
        assert bank.taps.shape == (512, 16)
        taps = np.asarray(bank.taps)
        # every row's negation is present (structural +/- pairing)
        np.testing.assert_array_equal(taps[256:], -taps[:256])
        np.testing.assert_array_equal(np.max(np.abs(taps), axis=1), np.ones(512))
        para = fb.build_parampgtf(fb.ErbParams(24.7, 9.265), 512, 16, 8000)
        assert para.taps.tobytes() == bank.taps.tobytes()
        assert time.perf_counter() - start < 1.0


def test_criterion_04_bandwidth_order_two_consistency():
    with criterion(4, "bandwidth formula at n=2 equals 2*ERB/pi within 1e-12"):
        rng = np.random.default_rng(123)
        for erb_value in rng.uniform(0.5, 2000.0, size=100):
            b = fb.bandwidth_b(float(erb_value), 2)
            closed = 2.0 * erb_value / math.pi
            assert abs(b - closed) <= 1e-12 * closed


def test_criterion_05_pseudo_inverse_and_roundtrip():
    with criterion(5, "Penrose conditions on 20 random 512x16 banks; linear decode∘encode identity"):
        start = time.perf_counter()
        rng = np.random.default_rng(456)
        for _ in range(20):
            bank = fb.Filterbank(rng.standard_normal((512, 16)), 8000)
            a = fb.analysis_matrix(bank)
            p = fb.pseudo_inverse(bank).taps.T
            assert np.max(np.abs(a @ p @ a - a)) < 1e-8
            assert np.max(np.abs(p @ a @ p - p)) < 1e-8
            assert np.max(np.abs((a @ p).T - a @ p)) < 1e-8
            assert np.max(np.abs((p @ a).T - p @ a)) < 1e-8
        bank = fb.Filterbank(rng.standard_normal((512, 16)), 8000)
        dec = fb.pseudo_inverse(bank)
        frame_params = fb.FrameParams(16, 16)
        for _ in range(100):
            x = fb.Waveform(rng.standard_normal(160), 8000)
            y = fb.decode(fb.encode(x, bank, frame_params, apply_relu=False), dec, frame_params)
            err = np.linalg.norm(y.samples - x.samples) / np.linalg.norm(x.samples)
            assert err <= 1e-9
        assert time.perf_counter() - start < 10.0


def test_criterion_06_relu_survivable_stft():
    with criterion(6, "sign-split STFT + ReLU reconstructs within 1e-9 (reported SI-SNR at clip)"):
        bank = fb.build_stft_bank(fb.StftSpec(), 8000)
        dec = fb.istft_decoder(bank)
        frame_params = fb.FrameParams(16, 16)
        rng = np.random.default_rng(789)
        for _ in range(100):
            x = fb.Waveform(rng.standard_normal(160), 8000)
            y = fb.decode(fb.encode(x, bank, frame_params, apply_relu=True), dec, frame_params)
            value = fb.si_snr(y, x)
            # 1e-9 relative amplitude after the scale SI-SNR ignores = 180 dB
            assert value >= 180.0
            assert fb.clip_si_snr(value) == fb.SI_SNR_CLIP_DB


def test_criterion_07_si_snr_suite():
    with criterion(7, "SI-SNR: hand case 0 dB, bit-exact scaling, orthogonal-noise closed form"):
        hand = fb.si_snr(fb.Waveform(np.array([1.0, 1.0]), 8000), fb.Waveform(np.array([1.0, 0.0]), 8000))
        assert hand == 0.0
        for alpha in (0.5, 3.0, 1e6):
            scaled = fb.si_snr(
                fb.Waveform(np.array([alpha, alpha]), 8000), fb.Waveform(np.array([1.0, 0.0]), 8000)
            )
            assert scaled == hand
        # second bit-exact case with a dyadic projection gain
        est = np.array([1.0, 2.0, -3.0, 5.0])
        ref = fb.Waveform(np.array([0.0, 2.0, 0.0, 2.0]), 8000)
        base = fb.si_snr(fb.Waveform(est, 8000), ref)
        for alpha in (0.5, 3.0, 1e6):
            assert fb.si_snr(fb.Waveform(est * alpha, 8000), ref) == base
        rng = np.random.default_rng(321)
        for _ in range(20):
            s = rng.standard_normal(256)
            e = rng.standard_normal(256)
            e -= (np.dot(e, s) / np.dot(s, s)) * s
            measured = fb.si_snr(fb.Waveform(s + e, 8000), fb.Waveform(s, 8000))
            closed = 10.0 * math.log10(np.dot(s, s) / np.dot(e, e))
            assert abs(measured - closed) <= 1e-9


def test_criterion_08_brute_force_encode_equivalence():
    with criterion(8, "encode matches the naive triple-loop analysis sum bitwise, 200 trials"):
        rng = np.random.default_rng(654)
        for trial in range(200):
            n = int(rng.integers(1, 9))
            length = int(rng.integers(1, 9))
            hop = int(rng.integers(1, length + 1))
            sig_len = int(rng.integers(1, 65))
            apply_relu = bool(trial % 2)
            taps = rng.standard_normal((n, length))
            x = rng.standard_normal(sig_len)
            rep = fb.encode(
                fb.Waveform(x, 8000), fb.Filterbank(taps, 8000), fb.FrameParams(length, hop), apply_relu
            )
            frames = -(-max(sig_len - length, 0) // hop) + 1
            expected = np.zeros((n, frames))
            for fi in range(n):
                for i in range(frames):
                    acc = 0.0
                    for l in range(length):
                        t = i * hop + l
                        sample = x[t] if t < sig_len else 0.0
                        acc += sample * taps[fi, length - 1 - l]
                    expected[fi, i] = max(acc, 0.0) if apply_relu else acc
            np.testing.assert_array_equal(rep, expected)


def _smooth_db_ratio_objective(rng):
    """Random smooth dB-of-energy-ratio surface over the (c1, c2) plane.

    Mirrors the functional form of the separation loss (10*log10 of an
    energy ratio) while staying C-infinity, so the halving-step check
    probes the estimator's convergence order rather than the kinks the
    rectifier and the magnitude masks put into the real loss surface.
    """
    a1 = rng.standard_normal((2, 2))
    a1 = a1 @ a1.T + 0.5 * np.eye(2)
    a2 = rng.standard_normal((2, 2))
    a2 = a2 @ a2.T + 0.5 * np.eye(2)
    b1, b2 = rng.uniform(0.5, 2.0, size=2)
    w = rng.uniform(0.5, 2.0, size=2)

    def f(theta):
        d = theta - np.array([24.7, 9.265])
        q1 = float(d @ a1 @ d) + b1 + 0.3 * math.sin(w[0] * theta[0])
        q2 = float(d @ a2 @ d) + b2 + 0.3 * math.cos(w[1] * theta[1])
        return 10.0 * math.log10(q1 / q2)

    return f


def test_criterion_09_trainer_sanity():
    with criterion(9, "FD halving ratio in [2.5, 5.5] at smooth points; dev-selected <= initial dev loss"):
        start = time.perf_counter()
        rng = np.random.default_rng(20260809)
        for _ in range(10):
            f = _smooth_db_ratio_objective(rng)
            theta = np.array([rng.uniform(20.0, 30.0), rng.uniform(8.5, 10.0)])
            eps = 1e-3
            g1, g2, g3 = (fb.fd_gradient(f, theta, e) for e in (eps, eps / 2, eps / 4))
            ratio = np.linalg.norm(g1 - g2) / np.linalg.norm(g2 - g3)
            assert 2.5 <= ratio <= 5.5
        items = fb.make_sinusoid_mixture_items(20, seed=2026, duration_s=0.5)
        train_items, dev_items = items[:12], items[12:]
        cfg = fb.TrainerConfig(learning_rate=0.05, max_iters=8, fd_epsilon=1e-3)
        best, trace = fb.train_parampgtf(train_items, dev_items, cfg, fb.ErbParams())
        best_dev = min(row.dev_loss for row in trace)
        assert best_dev <= trace[0].dev_loss
        selected = fb.separation_loss(best, dev_items)
        assert selected == pytest.approx(best_dev, abs=1e-12)
        assert time.perf_counter() - start < 300.0


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "repeated separate/train runs with one seed emit byte-identical reports"):
        fs = 8000
        t = np.arange(4000) / fs
        s1 = fb.Waveform(0.5 * np.sin(2 * np.pi * 300.0 * t), fs)
        s2 = fb.Waveform(0.5 * np.sin(2 * np.pi * 2000.0 * t + 1.0), fs)
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        fb.write_wav(a, s1)
        fb.write_wav(b, s2)
        bank_path = tmp_path / "bank.fbank"
        assert cli_main(["build-bank", "mpgtf", "--out", str(bank_path)]) == 0

        sep1, sep2 = tmp_path / "sep1", tmp_path / "sep2"
        for out in (sep1, sep2):
            code = cli_main(
                ["separate", str(bank_path), str(a), str(b), "--out-dir", str(out), "--seed", "5"]
            )
            assert code == 0
        for name in ("report.csv", "report.json", "est_1.wav", "est_2.wav", "mixture.wav"):
            assert (sep1 / name).read_bytes() == (sep2 / name).read_bytes()

        train_dir, dev_dir = tmp_path / "train", tmp_path / "dev"
        train_dir.mkdir()
        dev_dir.mkdir()
        for i, items_dir in ((0, train_dir), (1, dev_dir)):
            rng = np.random.default_rng(i)
            for j in range(2):
                f_lo, f_hi = rng.uniform(250, 1200), rng.uniform(1500, 3600)
                fb.write_wav(items_dir / f"it{j}_s1.wav",
                             fb.Waveform(0.5 * np.sin(2 * np.pi * f_lo * t[:1600]), fs))
                fb.write_wav(items_dir / f"it{j}_s2.wav",
                             fb.Waveform(0.5 * np.sin(2 * np.pi * f_hi * t[:1600]), fs))
        tr1, tr2 = tmp_path / "tr1", tmp_path / "tr2"
        for out in (tr1, tr2):
            code = cli_main(
                ["train", str(train_dir), str(dev_dir), "--out-dir", str(out),
                 "--max-iters", "2", "--n-filters", "128", "--seed", "5"]
            )
            assert code == 0
        for name in ("trace.csv", "result.json", "parampgtf.fbank"):
            assert (tr1 / name).read_bytes() == (tr2 / name).read_bytes()
        data = json.loads((tr1 / "result.json").read_text())
        assert "c1" in data and "c2" in data
