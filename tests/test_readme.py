"""Every todkit command that README's "Command line" section shows runs,
on the rod file that section shows, and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from todkit import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
SECTION = README.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", SECTION, re.M | re.S)
COMMANDS = [line for lang, body in BLOCKS if not lang
            for line in body.splitlines() if line.startswith("todkit ")]
ROD_FILE = next(body for lang, body in BLOCKS if lang == "json")


def test_section_found():
    assert len(COMMANDS) == 8


@pytest.mark.parametrize("line", COMMANDS)
def test_command_exits_zero(tmp_path, monkeypatch, capsys, line):
    # the commands name the rod file rods.json and write beside it
    (tmp_path / "rods.json").write_text(ROD_FILE)
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(line)[1:]) == 0, capsys.readouterr().err
