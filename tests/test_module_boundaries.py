"""Only three fblab modules touch files, and only the CLI writes JSON or prints.

`cli` writes every text output of the subcommands, `filterbank` reads and
writes FBANK1 banks and `wavio` reads and writes WAV files; the other
modules compute on values in memory. Within `cli`, each input format has
one reader, which names the file in its errors: WAVs are read only by
`_read_source` and FBANK1 banks only by `_load_bank`. No pipeline module
builds a decoder bank: the engine decodes with the bank's own
`pinv_rows`, and `codec.pseudo_inverse` is called only by
`stft.istft_decoder`. Only `cli` calls `print`; the other modules
report through return values and exceptions. The sources are read with
`ast`, so a call is found whether or not the code path runs in a test.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fblab"


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _calls(node: ast.AST, name: str) -> bool:
    """Whether `node` calls `name`, bare (`open`) or as an attribute (`io.open`, `Path.open`, `os.open`)."""
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            func = call.func
            if (isinstance(func, ast.Name) and func.id == name) or (
                isinstance(func, ast.Attribute) and func.attr == name
            ):
                return True
    return False


def _callers(tree: ast.Module, name: str) -> set[str]:
    """The top-level definitions of `tree` that call `name`; "<module>" for a call outside any."""
    return {getattr(top, "name", "<module>") for top in tree.body if _calls(top, name)}


def _imports_json(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "json" for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "json":
            return True
    return False


def test_only_cli_filterbank_and_wavio_open_files():
    openers = {name for name, tree in _modules().items() if _calls(tree, "open")}
    assert "cli" in openers  # the check sees the calls it is meant to find
    assert openers <= {"cli", "filterbank", "wavio"}


def test_only_cli_imports_json():
    assert {name for name, tree in _modules().items() if _imports_json(tree)} == {"cli"}


def test_only_cli_prints():
    assert {name for name, tree in _modules().items() if _calls(tree, "print")} == {"cli"}


def test_cli_reads_wavs_only_in_read_source_and_banks_only_in_load_bank():
    cli = _modules()["cli"]
    assert _callers(cli, "read_wav") == {"_read_source"}
    assert _callers(cli, "load_filterbank") == {"_load_bank"}


def _imports(tree: ast.Module, name: str) -> bool:
    """Whether `tree` imports `name` from any module, under any alias."""
    return any(isinstance(node, ast.ImportFrom) and any(alias.name == name for alias in node.names)
               for node in ast.walk(tree))


def test_only_istft_decoder_calls_pseudo_inverse():
    modules = _modules()
    callers = {(name, caller) for name, tree in modules.items() for caller in _callers(tree, "pseudo_inverse")}
    assert callers == {("stft", "istft_decoder")}
    assert {name for name, tree in modules.items() if _imports(tree, "pseudo_inverse")} == {"__init__", "stft"}
