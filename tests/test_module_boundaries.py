"""Only three fblab modules touch files, and only the CLI writes JSON or prints.

`cli` writes every text output of the subcommands, `filterbank` reads and
writes FBANK1 banks and `wavio` reads and writes WAV files; the other
modules compute on values in memory. Within `cli`, each input format has
one reader, which names the file in its errors: WAVs are read only by
`_read_source` and FBANK1 banks only by `_load_bank`. No pipeline module
builds a decoder bank: the engine decodes with the bank's own
`pinv_rows`, and `codec.pseudo_inverse` is called only by
`stft.istft_decoder`. Only `cli` calls `print`; the other modules
report through return values and exceptions. No module reads an item's
`mixture`: the pipeline derives the mixture's encoding from the sources,
and `fblab separate` writes mixture.wav by summing the sources a chunk at
a time, so the mixture signal is never built. The sources are read with
`ast`, so a call is found whether or not the code path runs in a test.

Every public name of `fblab`, and every dataclass field, public method and
property of its classes, has a reader outside the unit tests: the library's
own modules, the acceptance suite, the benchmark or the README's example.
A name that only unit tests read belongs to the tests. No module reads the
process environment: every setting is a parameter or a flag. Every type
hint under `src/fblab` resolves: with postponed annotations, a hint that
names a missing type imports cleanly and fails only when inspected.
"""

import ast
import functools
import importlib
import inspect
import re
import types
import typing
from pathlib import Path

import fblab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fblab"


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


def _mixture_reads(tree: ast.Module) -> list[ast.Attribute]:
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "mixture" and isinstance(node.ctx, ast.Load)]


def test_no_module_reads_the_mixture():
    assert _mixture_reads(ast.parse("item.mixture"))  # the check sees the reads it is meant to find
    assert {name for name, tree in _modules().items() if _mixture_reads(tree)} == set()


def _imports(tree: ast.Module, name: str) -> bool:
    """Whether `tree` imports `name` from any module, under any alias."""
    return any(isinstance(node, ast.ImportFrom) and any(alias.name == name for alias in node.names)
               for node in ast.walk(tree))


def test_only_istft_decoder_calls_pseudo_inverse():
    modules = _modules()
    callers = {(name, caller) for name, tree in modules.items() for caller in _callers(tree, "pseudo_inverse")}
    assert callers == {("stft", "istft_decoder")}
    assert {name for name, tree in modules.items() if _imports(tree, "pseudo_inverse")} == {"__init__", "stft"}


def _read_names(trees) -> set[str]:
    """The names `trees` read: each loaded `Name` or `Attribute`, and each name an `ImportFrom` imports."""
    names = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _outside_readers() -> list[ast.Module]:
    """The code outside the unit tests: `src/fblab` but `__init__`, the acceptance suite, `benchmarks/`, the README."""
    sources = [path.read_text() for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    sources.append((ROOT / "tests" / "test_acceptance.py").read_text())
    sources += [path.read_text() for path in sorted((ROOT / "benchmarks").glob("*.py"))]
    snippets = re.findall(r'python -c "(.*?)"', (ROOT / "README.md").read_text(), re.S)
    assert snippets  # the README's example is among the readers
    return [ast.parse(source) for source in sources + snippets]


def test_every_export_has_a_reader_outside_the_unit_tests():
    read = _read_names(_outside_readers())
    exported = {name for name, value in vars(fblab).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert "build_mpgtf" in exported  # the check sees the names it is meant to judge
    assert sorted(exported - read) == []


def _members(cls: ast.ClassDef) -> set[str]:
    """The annotated fields and public methods and properties of `cls`.

    An enum's members are plain assignments, so they are not counted: the CLI reads them by value.
    """
    fields = {node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)}
    methods = {node.name for node in cls.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    return fields | methods


def test_every_class_member_has_a_reader_outside_the_unit_tests():
    read = {node.attr for tree in _outside_readers() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    members = {f"{cls.name}.{member}" for tree in _modules().values() for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for member in _members(cls)}
    assert "Filterbank.pinv_rows" in members  # the check sees the members it is meant to judge
    assert sorted(member for member in members if member.split(".")[1] not in read) == []


def test_no_module_reads_the_environment():
    names = ("environ", "environb", "getenv", "getenvb")  # read as `os.environ`, or imported bare
    readers = {module for module, tree in _modules().items() for name in names
               if _imports(tree, name) or any(isinstance(node, ast.Attribute) and node.attr == name
                                              for node in ast.walk(tree))}
    assert readers == set()


def _definitions():
    """Every function, class and method defined under `src/fblab`, with the module it is defined in."""
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("fblab" if path.stem == "__init__" else f"fblab.{path.stem}")
        for value in vars(module).values():
            value = value.func if isinstance(value, functools.partial) else value  # `build_parampgtf`
            if (inspect.isfunction(value) or inspect.isclass(value)) and value.__module__ == module.__name__:
                yield value
                for member in vars(value).values() if inspect.isclass(value) else ():
                    for wrapped in ("fget", "func", "__func__"):  # property, cached_property, classmethod
                        member = getattr(member, wrapped, member)
                    if inspect.isfunction(member) and member.__module__ == module.__name__:
                        yield member


def test_every_type_hint_resolves():
    definitions = list(_definitions())
    assert fblab.encode in definitions  # the check sees what it is meant to judge, cached properties too
    assert vars(fblab.Filterbank)["pinv_rows"].func in definitions
    for definition in definitions:
        typing.get_type_hints(definition)
