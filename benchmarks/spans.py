"""Outside-in span recorder for fblab's public functions.

`traced` swaps each named function for a timing wrapper in every loaded
`fblab` module namespace that holds a reference to it (modules such as
`separation` and `cli` import `encode` by name, so patching `codec` alone
would miss their calls), and puts the originals back on exit. Each call
becomes a `Span` with its name, start, end and the index of the span that
was open when it began. Self time is a span's duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

PACKAGE = "fblab"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the recorded list
    work: float = 0.0  # counter computed from the call's arguments, e.g. flops
    error: bool = False


def _wrap(name: str, fn: Callable, spans: list[Span], stack: list[int], counter: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = Span(name, 0.0, 0.0, stack[-1] if stack else None)
        if counter is not None:
            span.work = counter(*args, **kwargs)
        spans.append(span)
        stack.append(len(spans) - 1)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()

    return wrapper


@contextmanager
def traced(names: Sequence[str], counters: Mapping[str, Callable] | None = None) -> Iterator[list[Span]]:
    """Record a span for every call of each `module.function` in `names`.

    `counters` maps a name to a function of the call's arguments whose
    value is stored as the span's `work`. Yields the list the spans are
    appended to; every patched attribute is restored on exit.
    """
    counters = counters or {}
    spans: list[Span] = []
    stack: list[int] = []
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
    patches = []  # (module, attribute, original, wrapper)
    for name in names:
        module_name, attr = name.rsplit(".", 1)
        original = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), attr)
        wrapper = _wrap(name, original, spans, stack, counters.get(name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, key, original, wrapper))
    try:
        for module, key, _, wrapper in patches:
            setattr(module, key, wrapper)
        yield spans
    finally:
        for module, key, original, _ in reversed(patches):
            setattr(module, key, original)


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(i)
    out = []
    for i, span in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end)) for c in children.get(i, ())
        )
        covered = 0.0
        cur_start = cur_end = None
        for start, end in intervals:
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(span.end - span.start - covered)
    return out
