"""The README runs: every line of its "Command line" block exits 0, and its
"Example" block executes."""

import json
import re
import shlex
from pathlib import Path

import pytest

from schubcells.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(section: str) -> str:
    """The first fenced block under the heading ``## <section>``."""
    match = re.search(rf"^## {section}\n.*?^```\w*\n(.*?)^```", README, re.M | re.S)
    assert match, section
    return match.group(1)


COMMANDS = [line for line in _block("Command line").splitlines() if line.startswith("schubcells ")]


def test_the_command_block_is_read():
    assert len(COMMANDS) == 13


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_0(line, tmp_path, monkeypatch, capsys):
    # the flag.json that the recognize line reads: a flag in C^3
    (tmp_path / "flag.json").write_text(json.dumps([["1/2", 1, 0], [1, 0, 1], [0, 1, 1]]))
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(line)[1:])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out


def test_readme_example_runs():
    exec(compile(_block("Example"), "README.md", "exec"), {})
