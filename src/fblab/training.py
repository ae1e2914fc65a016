"""Gradient fitting of the ERB parameters (c1, c2) behind the parameterized
multi-phase gammatone bank.

Each iteration rebuilds the bank from the current parameters (bandwidths
and the center grid both follow (c1, c2)), and with it the pseudo-inverse
decoder that the bank derives once, evaluates mean negative SI-SNR over
oracle-mask separations of the training and development items, and logs
one trace row. Every row but
the last is followed by a step down a central finite-difference gradient
of the training loss; the last row ends the run, so no gradient is taken
that nothing would read. The best point is read off the trace: the first
row of least development loss. With only two degrees of freedom a
finite-difference step costs four bank rebuilds.
This module writes no files: `fblab train` writes the trace and result
in `cli`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .dsp import FrameParams
from .erb import ErbParams
from .gammatone import build_parampgtf
from .metrics import clip_si_snr
from .separation import MixtureItem, run_separation

#: Parameters are clamped to stay strictly positive after each step.
PARAM_FLOOR = 1e-6


class TrainingDivergedError(RuntimeError):
    """A step left the region where a loss can be evaluated; carries the trace so far."""

    def __init__(self, message: str, trace: list):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class TrainerConfig:
    learning_rate: float = 0.05
    max_iters: int = 20
    fd_epsilon: float = 1e-3  # relative step for central differences

    def __post_init__(self):
        # learning_rate = 0 is allowed: it freezes the parameters while
        # still tracing the loss, which is useful as a dry run.
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate!r}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not 0 < self.fd_epsilon <= 1e-2:
            raise ValueError(f"fd_epsilon must lie in (0, 1e-2], got {self.fd_epsilon!r}")


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    c1: float
    c2: float
    train_loss: float
    dev_loss: float


def fd_gradient(f: Callable[[np.ndarray], float], x: np.ndarray, rel_eps: float) -> np.ndarray:
    """Central-difference gradient with per-component relative steps.

    Component k uses the step h_k = rel_eps * |x_k|, so the estimate is
    meaningful for parameters of very different magnitudes.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for k in range(x.size):
        h = rel_eps * abs(x[k])
        if h == 0.0:
            raise ValueError(f"cannot take a relative step at x[{k}] = 0")
        plus = x.copy()
        minus = x.copy()
        plus[k] += h
        minus[k] -= h
        grad[k] = (f(plus) - f(minus)) / (2.0 * h)
    return grad


def separation_loss(
    params: ErbParams,
    items: Sequence[MixtureItem],
    n_filters: int = 512,
    frame_params: FrameParams = FrameParams(16, 8),
) -> float:
    """Negative mean SI-SNR (clipped at 60 dB) of oracle-mask separation.

    The bank is rebuilt from `params`, and its pseudo-inverse decoder rows
    are computed once for all items (`Filterbank.pinv_rows`); scores
    accumulate in item order so the reduction is deterministic.
    Each item runs through `run_separation`, which returns its tuple of
    per-source scores, so every encode happens in the blocked engine
    `codec._resynthesize`.
    """
    if not items:
        raise ValueError("need at least one item")
    sample_rate = items[0].sources[0].sample_rate
    bank = build_parampgtf(params, n_filters, frame_params.frame_len, sample_rate)
    values = []
    for item in items:
        scores = run_separation(item.sources, bank, frame_params)
        values.extend(clip_si_snr(v) for v in scores)
    return -float(np.mean(values))


def train_parampgtf(
    train_items: Sequence[MixtureItem],
    dev_items: Sequence[MixtureItem],
    cfg: TrainerConfig,
    init: ErbParams,
    n_filters: int = 512,
    frame_params: FrameParams = FrameParams(16, 8),
) -> tuple[ErbParams, list[TraceRow]]:
    """Fit (c1, c2) by finite-difference gradient descent on the train loss.

    Every iteration logs one trace row (current parameters, train and dev
    loss); every row but the last is then followed by a gradient step, so
    cfg.max_iters rows take cfg.max_iters - 1 steps (none at learning rate
    0). The returned parameters are those of the first trace row of least
    dev loss (the initial point included), so the selection never
    regresses below the starting dev loss; with no rows they are `init`.

    Raises TrainingDivergedError if any loss evaluation is non-finite, if
    a step overflows a float (learning rate times gradient), or if no
    bank can be built at a point the optimizer reached after the
    initial one (a step, or a finite-difference probe around a row that
    another row follows; e.g. more centers than n_filters/2, or c2 so
    small that every tap underflows). The last row takes no probes, so
    its neighbourhood is never evaluated. A bad initial point raises the
    builder's ValueError as is.
    """
    if not train_items or not dev_items:
        raise ValueError("train_items and dev_items must be non-empty")
    trace: list[TraceRow] = []

    def loss_at(theta: np.ndarray, items: Sequence[MixtureItem]) -> float:
        try:
            return separation_loss(ErbParams(float(theta[0]), float(theta[1])), items, n_filters, frame_params)
        except ValueError as exc:
            if not trace:  # the initial point itself: a bad input, not a bad step
                raise
            raise TrainingDivergedError(
                f"no valid bank at c1={float(theta[0])!r}, c2={float(theta[1])!r}: {exc}", trace
            ) from exc

    theta = np.array([init.c1, init.c2], dtype=np.float64)
    for iteration in range(cfg.max_iters):
        train_loss = loss_at(theta, train_items)
        dev_loss = loss_at(theta, dev_items)
        if not (math.isfinite(train_loss) and math.isfinite(dev_loss)):
            raise TrainingDivergedError(
                f"non-finite loss at iteration {iteration}: train={train_loss}, dev={dev_loss}", trace
            )
        trace.append(TraceRow(iteration, float(theta[0]), float(theta[1]), train_loss, dev_loss))
        if cfg.learning_rate > 0 and iteration + 1 < cfg.max_iters:  # the last row's step is never read
            grad = fd_gradient(lambda t: loss_at(t, train_items), theta, cfg.fd_epsilon)
            with np.errstate(over="ignore"):  # a step beyond the float range is refused below
                theta = np.maximum(theta - cfg.learning_rate * grad, PARAM_FLOOR)
            if not np.all(np.isfinite(theta)):
                raise TrainingDivergedError(f"the step after iteration {iteration} overflows a float: learning rate "
                                            f"{cfg.learning_rate!r}, gradient {grad.tolist()!r}", trace)
    best = min(trace, key=lambda row: row.dev_loss, default=None)  # `min` keeps the first of equal losses
    return (init if best is None else ErbParams(best.c1, best.c2)), trace
