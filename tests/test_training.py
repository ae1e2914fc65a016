import importlib.util
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import fblab.training
from fblab import (
    SNR_RANGE_DB,
    ErbParams,
    FrameParams,
    StftSpec,
    TrainerConfig,
    TrainingDivergedError,
    Waveform,
    build_mpgtf,
    build_parampgtf,
    build_stft_bank,
    fd_gradient,
    make_multi_mixture_item,
    make_sinusoid_mixture_items,
    run_separation,
    separation_loss,
    train_parampgtf,
)

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


@pytest.fixture(scope="module")
def tiny_items():
    return make_sinusoid_mixture_items(4, seed=11, duration_s=0.2)


@pytest.fixture(scope="module")
def tiny_dev_items():
    return make_sinusoid_mixture_items(2, seed=12, duration_s=0.2)


class TestTrainerConfig:
    def test_defaults_valid(self):
        cfg = TrainerConfig()
        assert (cfg.learning_rate, cfg.max_iters, cfg.fd_epsilon) == (0.05, 20, 1e-3)

    @pytest.mark.parametrize("kwargs", [
        dict(learning_rate=-0.1),
        dict(learning_rate=math.nan),
        dict(max_iters=-1),
        dict(fd_epsilon=0.0),
        dict(fd_epsilon=0.02),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TrainerConfig(**kwargs)


class TestFdGradient:
    def test_exact_on_quadratic(self):
        f = lambda x: float(3.0 * x[0] ** 2 + 2.0 * x[0] * x[1] - x[1] ** 2)
        x = np.array([1.5, -2.0])
        grad = fd_gradient(f, x, 1e-6)
        np.testing.assert_allclose(grad, [6 * 1.5 + 2 * -2.0, 2 * 1.5 - 2 * -2.0], rtol=1e-6)

    def test_halving_reduces_error_by_four(self):
        f = lambda x: float(np.sin(x[0]) * np.exp(0.3 * x[1]))
        x = np.array([0.7, 1.1])
        exact = np.array([math.cos(0.7) * math.exp(0.33), 0.3 * math.sin(0.7) * math.exp(0.33)])
        e1 = np.linalg.norm(fd_gradient(f, x, 1e-3) - exact)
        e2 = np.linalg.norm(fd_gradient(f, x, 5e-4) - exact)
        assert e1 / e2 == pytest.approx(4.0, rel=0.05)

    def test_rejects_zero_component(self):
        with pytest.raises(ValueError, match="relative step"):
            fd_gradient(lambda x: 0.0, np.array([0.0, 1.0]), 1e-3)


class TestFdRatioOnPipeline:
    def test_median_halving_ratio_on_smoothed_pipeline(self):
        # The production loss (rectified encoder, magnitude-ratio masks) has
        # densely spaced relu/abs kinks, so pointwise Richardson ratios are
        # unreliable on it at any step size. This variant removes both kink
        # sources (linear encoding, power-ratio masks); its surface is smooth
        # but chirpy, so individual points can still be under-resolved. The
        # median ratio across random points is a stable 4.
        import numpy as np

        from fblab import build_parampgtf, clip_si_snr, si_snr
        from fblab.codec import _resynthesize

        items = make_sinusoid_mixture_items(4, seed=42, duration_s=0.2)
        fp = FrameParams(16, 8)

        def power_weigh(enc):
            # enc holds the linear encodings [s1 + s2, s1, s2] of one block.
            mix, e = enc[0], enc[1:] ** 2
            denom = e[0] + e[1]
            m1 = np.where(denom == 0, 0.5, e[0] / np.where(denom == 0, 1.0, denom))
            masks = np.clip(np.stack((m1, 1.0 - m1)), 0.0, 1.0)
            return np.multiply(masks, mix, out=enc[1:])

        def smooth_loss(theta):
            p = ErbParams(float(theta[0]), float(theta[1]))
            bank = build_parampgtf(p, 512, 16, 8000)
            vals = []
            for item in items:
                estimates = _resynthesize(item.sources, bank, fp, power_weigh, 2, relu=False)
                for est, src in zip(estimates, item.sources):
                    vals.append(clip_si_snr(si_snr(est, src)))
            return -float(np.mean(vals))

        rng = np.random.default_rng(7)
        ratios = []
        for _ in range(10):
            theta = np.array([rng.uniform(22.0, 28.0), rng.uniform(8.8, 9.8)])
            g1, g2, g3 = (fd_gradient(smooth_loss, theta, e) for e in (1e-5, 5e-6, 2.5e-6))
            ratios.append(np.linalg.norm(g1 - g2) / np.linalg.norm(g2 - g3))
        assert 2.5 <= float(np.median(ratios)) <= 5.5


class TestSeparationLoss:
    def test_loss_is_finite_and_deterministic(self, tiny_items):
        loss1 = separation_loss(ErbParams(), tiny_items, n_filters=128, frame_params=FrameParams(16, 8))
        loss2 = separation_loss(ErbParams(), tiny_items, n_filters=128, frame_params=FrameParams(16, 8))
        assert math.isfinite(loss1)
        assert loss1 == loss2

    def test_loss_rejects_empty_items(self):
        with pytest.raises(ValueError, match="at least one item"):
            separation_loss(ErbParams(), [])

    def test_pseudo_inverse_is_computed_once_per_bank(self, tiny_items):
        # Every item decodes through the one bank's `pinv_rows`; recomputing
        # them per item would add one SVD per item to every trainer loss.
        assert len(tiny_items) >= 2
        with mock.patch.object(np.linalg, "pinv", wraps=np.linalg.pinv) as pinv:
            separation_loss(ErbParams(), tiny_items, n_filters=64)
        assert pinv.call_count == 1


class TestTrainParampgtf:
    def test_zero_iters_returns_init(self, tiny_items, tiny_dev_items):
        init = ErbParams(24.7, 9.265)
        best, trace = train_parampgtf(tiny_items, tiny_dev_items, TrainerConfig(max_iters=0), init,
                                      n_filters=128)
        assert best == init
        assert trace == []

    def test_zero_learning_rate_freezes_parameters(self, tiny_items, tiny_dev_items):
        cfg = TrainerConfig(learning_rate=0.0, max_iters=5)
        init = ErbParams(24.7, 9.265)
        best, trace = train_parampgtf(tiny_items, tiny_dev_items, cfg, init, n_filters=128)
        assert best == init
        assert len(trace) == 5
        assert all(row.c1 == 24.7 and row.c2 == 9.265 for row in trace)
        assert len({row.train_loss for row in trace}) == 1
        assert len({row.dev_loss for row in trace}) == 1

    def test_best_dev_selection_is_argmin(self, tiny_items, tiny_dev_items):
        cfg = TrainerConfig(learning_rate=0.02, max_iters=4, fd_epsilon=1e-3)
        best, trace = train_parampgtf(tiny_items, tiny_dev_items, cfg, ErbParams(), n_filters=128)
        best_row = min(trace, key=lambda row: row.dev_loss)
        assert (best.c1, best.c2) == (best_row.c1, best_row.c2)
        assert best_row.dev_loss <= trace[0].dev_loss

    def test_first_of_tied_best_rows_is_returned(self, tiny_items, tiny_dev_items, monkeypatch):
        # The train loss is c2, so each step of lr 1 lowers c2 by ~1; the dev
        # loss drops once c2 < 9 and then holds, so rows 1 and 2 tie at its least.
        def loss(params, items, *args):
            if items is tiny_items:
                return params.c2
            return -1.0 if params.c2 < 9.0 else 0.0
        monkeypatch.setattr(fblab.training, "separation_loss", loss)
        cfg = TrainerConfig(learning_rate=1.0, max_iters=3)
        best, trace = train_parampgtf(tiny_items, tiny_dev_items, cfg, ErbParams(), n_filters=128)
        assert [row.dev_loss for row in trace] == [0.0, -1.0, -1.0]
        assert trace[1].c2 != trace[2].c2
        assert best == ErbParams(trace[1].c1, trace[1].c2)

    def test_empty_items_rejected(self, tiny_items):
        with pytest.raises(ValueError, match="non-empty"):
            train_parampgtf([], tiny_items, TrainerConfig(max_iters=1), ErbParams())

    def test_infeasible_step_keeps_trace(self):
        # lr 5 drives c2 to PARAM_FLOOR on the first step; no bank exists there.
        items = make_sinusoid_mixture_items(4, seed=1, duration_s=0.1)
        with pytest.raises(TrainingDivergedError, match=r"c1=.*c2=1e-06") as excinfo:
            train_parampgtf(items[:2], items[2:], TrainerConfig(learning_rate=5.0, max_iters=3), ErbParams(),
                            n_filters=64)
        trace = excinfo.value.trace
        assert [(row.iteration, row.c1, row.c2) for row in trace] == [(0, 24.7, 9.265)]
        assert math.isfinite(trace[0].train_loss) and math.isfinite(trace[0].dev_loss)

    def test_overflowing_step_is_divergence(self):
        # lr * gradient overflows to -inf on the first step; it was a numpy warning,
        # then an ErbParams error that blamed c1 = inf and dropped the trace.
        items = make_sinusoid_mixture_items(4, seed=1, duration_s=0.1)
        with pytest.raises(TrainingDivergedError, match=r"^the step after iteration 0 overflows a float: "
                                                        r"learning rate 1\.7e\+308, gradient \[") as excinfo:
            train_parampgtf(items[:2], items[2:], TrainerConfig(learning_rate=1.7e308, max_iters=3), ErbParams(),
                            n_filters=64)
        assert [(row.iteration, row.c1, row.c2) for row in excinfo.value.trace] == [(0, 24.7, 9.265)]

    def test_last_row_takes_no_probe(self):
        # Feasible with M = 32 centres at n_filters = 64; the +c2 probe needs M = 33.
        items = make_sinusoid_mixture_items(4, seed=1, duration_s=0.1)
        edge = ErbParams(24.7, 14.069398742262345)
        best, trace = train_parampgtf(items[:2], items[2:], TrainerConfig(max_iters=1), edge, n_filters=64)
        assert best == edge
        assert [(row.iteration, row.c1, row.c2) for row in trace] == [(0, edge.c1, edge.c2)]
        assert math.isfinite(trace[0].train_loss) and math.isfinite(trace[0].dev_loss)

    def test_probe_on_a_followed_row_is_still_fatal(self):
        items = make_sinusoid_mixture_items(4, seed=1, duration_s=0.1)
        edge = ErbParams(24.7, 14.069398742262345)
        with pytest.raises(TrainingDivergedError, match=r"no valid bank at c1=24\.7, c2=.*not enough filters") as excinfo:
            train_parampgtf(items[:2], items[2:], TrainerConfig(max_iters=2), edge, n_filters=64)
        assert [(row.iteration, row.c1, row.c2) for row in excinfo.value.trace] == [(0, edge.c1, edge.c2)]

    @pytest.mark.parametrize("learning_rate, rows, gradients, losses", [
        (0.05, 1, 0, 2),
        (0.05, 3, 2, 14),
        (0.0, 1, 0, 2),
        (0.0, 3, 0, 6),
    ])
    def test_work_per_run(self, tiny_items, tiny_dev_items, monkeypatch, learning_rate, rows, gradients, losses):
        # N rows take N - 1 gradients of 4 losses each on top of 2 losses per row: 6N - 4 in all.
        calls = {"fd_gradient": 0, "separation_loss": 0}

        def counted(name):
            original = getattr(fblab.training, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(fblab.training, name, wrapper)

        counted("fd_gradient")
        counted("separation_loss")
        cfg = TrainerConfig(learning_rate=learning_rate, max_iters=rows)
        _, trace = train_parampgtf(tiny_items, tiny_dev_items, cfg, ErbParams(), n_filters=128)
        assert len(trace) == rows
        assert calls == {"fd_gradient": gradients, "separation_loss": losses}

    def test_non_finite_loss_is_divergence(self, tiny_items, tiny_dev_items, monkeypatch):
        monkeypatch.setattr(fblab.training, "separation_loss", lambda *args: math.nan)
        with pytest.raises(TrainingDivergedError, match=r"^non-finite loss at iteration 0: train=nan, dev=nan$") as excinfo:
            train_parampgtf(tiny_items, tiny_dev_items, TrainerConfig(max_iters=2), ErbParams(), n_filters=128)
        assert excinfo.value.trace == []

    def test_infeasible_initial_point_is_plain_value_error(self, tiny_items, tiny_dev_items):
        with pytest.raises(ValueError, match="not enough filters") as excinfo:
            train_parampgtf(tiny_items, tiny_dev_items, TrainerConfig(max_iters=1), ErbParams(0.5, 100.0),
                            n_filters=128)
        assert not isinstance(excinfo.value, TrainingDivergedError)


def _one_step_margins(make_items) -> tuple[list[float], list[float]]:
    """Finding (ii)'s protocol: per seed 1-8, (trained - MPGTF, trained - STFT) in dB.

    One step (max_iters=2) from the default (c1, c2) is trained on 12 of
    the items `make_items(20, seed)` and selected on the other 8; each bank
    is then scored by mean oracle SI-SNR, with pseudo-inverse decoders, on
    the 12 held-out items `make_items(12, seed + 100)`.
    """
    frame_params = FrameParams(16, 8)
    mpgtf = build_mpgtf(ErbParams())
    stft = build_stft_bank(StftSpec(), 8000)

    def mean_score(bank, items):
        return float(np.mean([run_separation(it.sources, bank, frame_params) for it in items]))

    over_mpgtf, over_stft = [], []
    for seed in range(1, 9):
        items = make_items(20, seed)
        best, _ = train_parampgtf(items[:12], items[12:], TrainerConfig(max_iters=2), ErbParams())
        held_out = make_items(12, seed + 100)
        trained = mean_score(build_parampgtf(best, 512, 16, 8000), held_out)
        over_mpgtf.append(trained - mean_score(mpgtf, held_out))
        over_stft.append(trained - mean_score(stft, held_out))
        print(f"seed {seed}: trained - mpgtf {over_mpgtf[-1]:+.4f} dB, trained - stft {over_stft[-1]:+.4f} dB")
    return over_mpgtf, over_stft


def test_one_trained_step_beats_mpgtf_and_stft():
    """The paper's finding (ii) at desk scale: with pseudo-inverse decoders, a
    trained ParaMPGTF separates better than the fixed MPGTF and the STFT bank.

    On each of the seeds 1-8, fixed in advance, with the protocol of
    `_one_step_margins` on sinusoid items. Measured, the trained bank beats
    MPGTF on every seed, by +0.08 to +0.41 dB (mean +0.256), and the
    default STFT bank by +0.205 dB on the mean. Seed 6 loses to STFT by
    0.06 dB, so against STFT only the mean is asserted.
    """
    over_mpgtf, over_stft = _one_step_margins(make_sinusoid_mixture_items)
    assert min(over_mpgtf) > 0.0
    assert np.mean(over_stft) > 0.0


def _note_source():
    """`note_source` of benchmarks/workloads.py, loaded as tests/test_benchmark_layers.py loads that file."""
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.note_source


def test_on_harmonic_notes_one_trained_step_beats_mpgtf_but_not_stft():
    """The scope of finding (ii): on overlapping harmonic notes, the sources
    of the `separate_10s` benchmark, the rectangular STFT bank wins.

    Each 0.5 s item mixes a `note_source` with f0 in 90-180 Hz and one
    with f0 in 160-300 Hz, at an SNR drawn from `SNR_RANGE_DB`; the
    protocol is `_one_step_margins`, seeds 1-8. Measured, the trained bank
    beats MPGTF by +0.0071 to +0.0087 dB and loses to the STFT bank by
    0.54 to 0.62 dB, on every seed.
    """
    note_source = _note_source()

    def note_items(n_items, seed):
        rng = np.random.default_rng(seed)
        items = []
        for _ in range(n_items):
            low = Waveform(note_source(rng, 4000, (90.0, 180.0)), 8000)
            high = Waveform(note_source(rng, 4000, (160.0, 300.0)), 8000)
            items.append(make_multi_mixture_item([low, high], rng.uniform(*SNR_RANGE_DB)))
        return items

    over_mpgtf, over_stft = _one_step_margins(note_items)
    assert min(over_mpgtf) > 0.0
    assert max(over_stft) < 0.0
