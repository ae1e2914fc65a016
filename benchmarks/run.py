"""Run fblab benchmark workloads and print their metrics as JSON.

Usage, from the repository root:

    python3 benchmarks/run.py --workload separate_10s --seed 1 --seconds 20 --trace 0

Workloads are listed in BENCHMARK.json and defined in workloads.py;
--workload all runs each in turn. A run generates its inputs from --seed
under .bench_work/, checks every op's outputs against a reference, and
prints two JSON lines per workload: an environment stamp, then the result
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: median op time, fresh-interpreter
setup time, tracemalloc peak of one op (in a separate memory run), output
SI-SNR and the share of ops that passed their checks. --trace 1 reports
per-layer metrics instead: calls, self time and errors per op of each
function in LAYERS, timed by wrapping it from outside (see spans.py),
plus the tracing overhead against untraced ops of the same run.

BLAS runs on one thread, here and in the setup subprocesses. On a shared
two-core host a second BLAS thread spins against other load: it does not
make an op faster, and it makes op times swing by half when a neighbour
takes a core.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS; subprocesses inherit it

from spans import self_times, traced  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Public fblab functions timed by a traced run, as module.function.
LAYERS = (
    "cli.main",
    "wavio.read_wav",
    "wavio.write_wav",
    "filterbank.load_filterbank",
    "separation.make_multi_mixture_item",
    "separation.run_separation",
    "separation.separate",
    "separation.oracle_irm_masks",
    "codec.encode",
    "codec.apply_mask",
    "codec.decode",
    "codec.pseudo_inverse",
    "dsp.frame_signal",
    "dsp.overlap_add",
    "metrics.si_snr",
    "training.fd_gradient",
    "training.separation_loss",
    "gammatone.build_parampgtf",
    "erb.center_frequency_grid",
)

#: Fresh-interpreter setups per run, at least; the median is reported.
SETUP_REPEATS = 9
#: Timed ops per run, at least, however short --seconds is.
MIN_OPS = 3


def load_fblab() -> None:
    """Import fblab from this checkout's src/, and nowhere else."""
    if not (SRC / "fblab" / "__init__.py").is_file():
        raise SystemExit(f"error: no fblab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fblab

    if Path(fblab.__file__).resolve().parent != (SRC / "fblab").resolve():
        raise SystemExit(f"error: fblab was imported from {fblab.__file__}, not from {SRC}")


def encode_flop(x, bank, p, *args, **kwargs) -> float:
    """Flops of one `codec.encode` call: 2·N·L·I, a multiply and an add per tap."""
    count = -(-max(len(x) - p.frame_len, 0) // p.hop) + 1
    return 2.0 * bank.n_filters * p.frame_len * count


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


@contextmanager
def peak_memory(peaks: list[int]):
    """Append the tracemalloc peak, in bytes, of the enclosed block to `peaks`."""
    tracemalloc.start()
    try:
        yield
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


@contextmanager
def layer_spans(recorded: list[list]):
    """Record the enclosed block's spans of every function in LAYERS into `recorded`."""
    with traced(LAYERS, {"codec.encode": encode_flop}) as spans:
        recorded.append(spans)  # before the block runs, so a raising op's spans count too
        yield


def run_op(workload, tally: Tally, around=None) -> tuple[float, float | None]:
    """Run, time and check one op; return its seconds and output quality.

    `around` is a context manager entered around the op alone, not its
    check. A failed op (an exception or a failed check) is counted and
    reported on stderr, and the run goes on; its quality is None.
    """
    workload.reset()
    gc.collect()
    tally.attempted += 1
    start = time.perf_counter()
    try:
        with around or nullcontext():
            result = workload.op()
        seconds = time.perf_counter() - start
        problems = workload.check(result)
        quality = workload.quality(result) if not problems else None
    except Exception as exc:  # a broken op must not stop the run; it counts as failed
        seconds = time.perf_counter() - start
        problems, quality = [f"{type(exc).__name__}: {exc}"], None
    if problems:
        tally.failed += 1
        print(f"op {tally.attempted} failed: {'; '.join(problems)}", file=sys.stderr)
    return seconds, quality


def time_setups(workload, repeats: int) -> list[float]:
    """Seconds of `import fblab` plus the workload's setup, each in a fresh interpreter."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        f"{workload.setup_code()}"
        "print(time.perf_counter() - t0)\n"
    )
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def timed_ops(workload, tally: Tally, seconds: float) -> tuple[list[float], list[float], list[float]]:
    """Op times, qualities and setup times of a closed loop that runs for `seconds`.

    One fresh-interpreter setup follows each op, so setup times are sampled
    across the whole run, as op times are, and not in one burst at its start.
    """
    times, qualities, setups = [], [], []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_OPS or time.perf_counter() < deadline:
        dt, quality = run_op(workload, tally)
        times.append(dt)
        if quality is not None:
            qualities.append(quality)
        setups += time_setups(workload, 1)
    return times, qualities, setups


def measure(workload, seconds: float) -> tuple[Tally, dict, int]:
    """End-to-end metrics: one memory op, then timed ops and setups for `seconds`."""
    workload.setup()
    tally = Tally()
    peaks: list[int] = []
    _, mem_quality = run_op(workload, tally, peak_memory(peaks))
    times, qualities, setups = timed_ops(workload, tally, seconds)
    setups += time_setups(workload, SETUP_REPEATS - len(setups))
    print(f"op seconds: {' '.join(f'{t:.3f}' for t in times)}; setup seconds: "
          f"{' '.join(f'{t:.3f}' for t in setups)}", file=sys.stderr)
    if mem_quality is not None:
        qualities.append(mem_quality)
    metrics = {
        "op_s_p50": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_mb": (peaks[0] / 1e6 if peaks else 0.0, "MB"),
        "si_snr_db": (statistics.median(qualities) if qualities else 0.0, "dB"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    return tally, metrics, len(times)


def layer_metrics(recorded_runs: list[list], n_ops: int) -> dict:
    """calls, self_s and errors per op of every layer, plus encode flops."""
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    errors = dict.fromkeys(LAYERS, 0)
    encode_flops = encode_s = 0.0
    for spans in recorded_runs:
        for span, own in zip(spans, self_times(spans)):
            calls[span.name] += 1
            self_s[span.name] += own
            errors[span.name] += span.error
            if span.name == "codec.encode":
                encode_flops += span.work
                encode_s += span.end - span.start
    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = (calls[name] / n_ops, "count/op")
        metrics[f"{name}.self_s"] = (self_s[name] / n_ops, "s/op")
        metrics[f"{name}.errors"] = (errors[name] / n_ops, "count/op")
    metrics["codec.encode.mflop"] = (encode_flops / n_ops / 1e6, "MFLOP/op")
    metrics["codec.encode.gflop_per_s"] = (encode_flops / encode_s / 1e9 if encode_s else 0.0, "GFLOP/s")
    return metrics


def measure_traced(workload, seconds: float) -> tuple[Tally, dict, int]:
    """Per-layer metrics: a warm-up op, then untraced and traced ops in turn.

    The warm-up counts against `seconds`, and at least one pair runs.
    """
    workload.setup()
    tally = Tally()
    deadline = time.perf_counter() + seconds
    run_op(workload, tally)
    untraced, traced_times, recorded = [], [], []
    while not traced_times or time.perf_counter() < deadline:
        untraced.append(run_op(workload, tally)[0])
        traced_times.append(run_op(workload, tally, layer_spans(recorded))[0])
    metrics = layer_metrics(recorded, len(traced_times))
    overhead = statistics.median(traced_times) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return tally, metrics, len(traced_times)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import ctypes

    import numpy as np

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs_dir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int, n_ops: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "ops": n_ops,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one fblab benchmark workload.")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the timed ops run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_fblab()
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'")
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        workdir = ROOT / ".bench_work" / f"{name}-{args.seed}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            workload = WORKLOADS[name](workdir, args.seed)
            measure_fn = measure_traced if args.trace else measure
            tally, metrics, n_ops = measure_fn(workload, args.seconds)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"env": environment(name, args.seed, n_ops)}))
        print(json.dumps({
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
