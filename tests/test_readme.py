"""The README's usage examples run, in order, and print what it says they print.

Each `sh` block of the Usage section is replayed in a temporary directory:
`mkdir -p` makes its directories, the `python -c` snippet is executed,
every `python -m fblab.cli ...` line runs through `fblab.cli.main`, and
`cp` copies with `shutil.copy`. The `# ...` line under a command is its
expected stdout: a trailing `...` matches any rest of the line, and
`name=...` any float. A line of any other kind fails the test, so a new
kind of example has to be taught here before the README can show it.
"""

import re
import shlex
import shutil
from pathlib import Path

from fblab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
FLOAT = r"-?\d+(\.\d+)?(e-?\d+)?"
PREFIX = "PYTHONPATH=src python "


def _usage_blocks() -> list[list[str]]:
    """The lines of every `sh` code block in the README's Usage section."""
    text = README.read_text()
    usage = text[text.index("## Usage"):]
    usage = usage[:usage.index("\n## ", 1)]
    return [block.splitlines() for block in re.findall(r"```sh\n(.*?)```", usage, re.S)]


def _expected(line: str) -> re.Pattern:
    """The pattern a `# ...` comment line stands for."""
    parts = re.split(r"(=\.\.\.|\.\.\.$)", line.removeprefix("# "))
    pattern = "".join(
        "=" + FLOAT if part == "=..." else ".*" if part == "..." else re.escape(part) for part in parts
    )
    return re.compile(pattern)


def _commands(lines: list[str]):
    """(shell command, expected stdout pattern or None) for every command of a block."""
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.endswith('"') and line.count('"') == 1:  # a quoted argument spanning lines
            end = lines.index('"', i + 1)
            line = "\n".join(lines[i:end + 1])
            i = end
        i += 1
        expected = None
        if i < len(lines) and lines[i].startswith("# "):
            expected = _expected(lines[i])
            i += 1
        for command in line.split("; "):
            yield command, expected


def _run(command: str, capsys) -> str:
    """Run one README command in the current directory and return what it printed."""
    if command.startswith(PREFIX + "-c "):
        exec(compile(shlex.split(command.removeprefix(PREFIX))[1], "README.md", "exec"), {})
    elif command.startswith(PREFIX + "-m fblab.cli "):
        assert main(shlex.split(command.removeprefix(PREFIX + "-m fblab.cli "))) == 0, command
    elif command.startswith("mkdir -p "):
        for directory in shlex.split(command.removeprefix("mkdir -p ")):
            Path(directory).mkdir(parents=True, exist_ok=True)
    elif command.startswith("cp "):
        shutil.copy(*shlex.split(command.removeprefix("cp ")))
    else:
        raise AssertionError(f"README command of an unknown kind: {command!r}")
    return capsys.readouterr().out


def test_readme_usage_examples_print_what_the_readme_says(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    subcommands = []
    for block in _usage_blocks():
        for command, expected in _commands(block):
            out = _run(command, capsys)
            if expected is None:
                assert out == "", command
            else:
                assert expected.fullmatch(out.rstrip("\n")), (command, out)
            if " -m fblab.cli " in command:
                subcommands.append(command.split()[4])
    assert subcommands == ["build-bank", "freq-response", "roundtrip", "separate", "train"]
