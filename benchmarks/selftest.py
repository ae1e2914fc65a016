"""Tests of the benchmark itself, kept out of the repository's main test run.

Run from the repository root:

    python3 -m pytest -q benchmarks/selftest.py

`python3 benchmarks/selftest.py --record` rewrites golden.json from the
program's own outputs at the current commit (full-size inputs, seeds 0
and 1); the tests then pin the benchmark's reference pipeline to them.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402

run.load_fblab()

import fblab  # noqa: E402
import workloads  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden.json"
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
GOLDEN_SEEDS = (0, 1)

SMOKE = {
    "separate_10s": dict(duration_s=0.5),
    "roundtrip_60s": dict(duration_s=1.0),
    "train_fd": dict(n_items=4, n_train=2, item_s=0.1, max_iters=2),
}


@pytest.fixture
def workdir():
    path = run.ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def smoke(name: str, workdir: Path, seed: int = 3):
    return workloads.WORKLOADS[name](workdir, seed, **SMOKE[name])


def declared(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them."""
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_workload_is_correct(name, workdir):
    tally, metrics, n_ops = run.measure(smoke(name, workdir), seconds=0.0)
    assert (tally.failed, n_ops) == (0, run.MIN_OPS)
    assert tally.attempted == run.MIN_OPS + 1  # plus the memory op
    assert metrics["ok_frac"][0] == 1.0
    assert all(value > 0 for value, _ in metrics.values())
    assert {name: unit for name, (_, unit) in metrics.items()} == declared("end_to_end")


@pytest.mark.parametrize("name, key", [
    ("separate_10s", "mean_si_snr_db"),
    ("roundtrip_60s", "si_snr_db"),
    ("train_fd", "dev_loss"),
])
def test_corrupted_expected_value_fails_every_op(name, key, workdir):
    workload = smoke(name, workdir)
    workload.expected[key] += 1e-3
    tally, metrics, _ = run.measure(workload, seconds=0.0)
    assert tally.failed == tally.attempted
    assert metrics["ok_frac"][0] == 0.0


def test_failed_op_is_counted_and_run_goes_on(workdir):
    workload = smoke("roundtrip_60s", workdir)
    workload.wav_in.write_bytes(b"not a wav")
    tally = run.Tally()
    for _ in range(2):
        seconds, quality = run.run_op(workload, tally)
        assert seconds >= 0.0 and quality is None
    assert (tally.attempted, tally.failed) == (2, 2)


def test_self_time_of_synthetic_span_tree():
    tree = [
        spans.Span("root", 0.0, 10.0, None),
        spans.Span("a", 1.0, 4.0, 0),
        spans.Span("a.x", 1.5, 2.0, 1),
        spans.Span("b", 3.5, 6.0, 0),  # overlaps a: the union, not the sum, is covered
        spans.Span("c", 9.0, 12.0, 0),  # runs past its parent: only the inside counts
    ]
    assert spans.self_times(tree) == pytest.approx([10.0 - 5.0 - 1.0, 3.0 - 0.5, 0.5, 2.5, 3.0])


def _fblab_attributes() -> dict:
    return {(key, attr): value for key, module in sys.modules.items()
            if key == "fblab" or key.startswith("fblab.") for attr, value in vars(module).items()}


def test_wrappers_wrap_every_reference_and_are_removed(workdir):
    before = _fblab_attributes()
    with spans.traced(run.LAYERS):
        assert fblab.separation.encode is not before[("fblab.separation", "encode")]
        assert fblab.cli.encode is fblab.codec.encode is fblab.encode
    assert _fblab_attributes() == before

    tally, metrics, n_ops = run.measure_traced(smoke("separate_10s", workdir), seconds=0.0)
    assert _fblab_attributes() == before
    assert tally.failed == 0
    assert metrics["codec.encode.calls"][0] == 6.0
    assert metrics["cli.main.calls"][0] == 1.0
    assert metrics["codec.encode.mflop"][0] > 0.0
    assert {name: unit for name, (_, unit) in metrics.items()} == declared("per_layer")


def test_traced_train_counts_encodes_per_iteration(workdir):
    workload = smoke("train_fd", workdir)
    _, metrics, _ = run.measure_traced(workload, seconds=0.0)
    iterations = workload.cfg.max_iters
    n_dev = workload.n_items - workload.n_train
    # Each iteration scores the train and dev sets, then four finite-difference
    # points on the train set; every item costs three encodes.
    assert metrics["training.separation_loss.calls"][0] == 6 * iterations
    assert metrics["codec.encode.calls"][0] == 3 * iterations * (5 * workload.n_train + n_dev)


def test_run_fails_without_printing_a_result_where_fblab_is_missing(workdir):
    bare = workdir / "bare"
    shutil.copytree(Path(__file__).resolve().parent, bare / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "separate_10s", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_reference_matches_golden_values_from_the_program(seed, workdir):
    golden = json.loads(GOLDEN.read_text())[str(seed)]
    sep = workloads.SeparateWorkload(workdir, seed)
    assert sep.expected["si_snr_db"] == pytest.approx(golden["separate_10s"], abs=workloads.SCORE_TOL_DB, rel=0)
    rt = workloads.RoundtripWorkload(workdir, seed)
    assert rt.expected["si_snr_db"] == pytest.approx(golden["roundtrip_60s"], abs=workloads.SCORE_TOL_DB, rel=0)
    train = workloads.TrainWorkload(workdir, seed)
    got = [train.expected["train_loss"], train.expected["dev_loss"]]
    assert got == pytest.approx(golden["train_fd"], abs=workloads.SCORE_TOL_DB, rel=0)


def record_golden() -> None:
    """Write golden.json from one full-size op of each workload per seed."""
    workdir = run.ROOT / ".bench_work" / f"record-{os.getpid()}"
    workdir.mkdir(parents=True)
    golden = {}
    try:
        for seed in GOLDEN_SEEDS:
            sep = workloads.SeparateWorkload(workdir, seed)
            sep.setup()
            sep.op()
            report = json.loads((sep.out_dir / "report.json").read_text())
            rt = workloads.RoundtripWorkload(workdir, seed)
            rt.setup()
            train = workloads.TrainWorkload(workdir, seed)
            first = train.op()[1][0]
            golden[str(seed)] = {
                "separate_10s": report["items"][0]["si_snr_db"],
                "roundtrip_60s": rt.quality(rt.op()),
                "train_fd": [first.train_loss, first.dev_loss],
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record_golden()
