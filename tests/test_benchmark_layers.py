"""The benchmark's traced layers must name functions that exist in fblab.

`benchmarks/run.py --trace 1` wraps every `module.function` in its
`LAYERS` tuple; a name that no longer resolves breaks the traced run. The
tuple is read with `ast`, because importing run.py sets BLAS environment
variables and edits `sys.path`.
"""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"


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
