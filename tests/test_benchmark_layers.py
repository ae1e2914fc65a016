"""The benchmark's traced layers and library calls must exist in fblab, and its ops must pass their checks.

`benchmarks/run.py --trace 1` wraps every `module.function` in its
`LAYERS` tuple, and `benchmarks/workloads.py` drives fblab through
`fblab.<name>` attributes; a name that no longer resolves breaks every
benchmark op. Both files are read with `ast`, because importing run.py
sets BLAS environment variables and edits `sys.path`. workloads.py sets
no environment, so the smoke test imports it and runs each workload's op
once on short inputs against the workload's own reference check.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
RUN_PY = BENCHMARKS / "run.py"
WORKLOADS_PY = BENCHMARKS / "workloads.py"


def _layers() -> tuple[str, ...]:
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {RUN_PY}")


def test_every_traced_layer_is_a_callable_in_fblab():
    layers = _layers()
    assert layers
    for name in layers:
        module, _, function = name.partition(".")
        assert callable(getattr(importlib.import_module(f"fblab.{module}"), function, None)), name


def _dotted(node: ast.AST) -> str | None:
    """`a.b.c` for an attribute chain rooted at a bare name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _resolve(dotted: str):
    """Follow `fblab.x.y` by attribute, importing submodules that are not loaded yet."""
    obj = importlib.import_module("fblab")
    prefix = "fblab"
    for part in dotted.split(".")[1:]:
        prefix = f"{prefix}.{part}"
        if not hasattr(obj, part):
            importlib.import_module(prefix)
        obj = getattr(obj, part)
    return obj


def test_every_fblab_name_the_workloads_read_resolves():
    names = {
        dotted
        for node in ast.walk(ast.parse(WORKLOADS_PY.read_text()))
        if (dotted := _dotted(node)) is not None and dotted.startswith("fblab.")
    }
    assert {"fblab.build_mpgtf", "fblab.train_parampgtf", "fblab.cli.main"} <= names
    for name in sorted(names):
        _resolve(name)


def _workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,sizes", [
    ("separate_10s", dict(duration_s=0.5)),
    ("roundtrip_60s", dict(duration_s=0.5)),
    ("train_fd", dict(n_items=4, n_train=2, item_s=0.25)),
])
def test_each_workload_op_passes_its_own_check_on_short_inputs(tmp_path, name, sizes):
    workload = _workloads().WORKLOADS[name](tmp_path, 3, **sizes)
    workload.setup()
    workload.reset()
    assert workload.check(workload.op()) == []
