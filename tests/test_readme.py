"""Every fenced ``python`` block of README.md runs as written, and every
``saldet`` command line of its ``sh`` blocks parses."""

import re
import shlex
from pathlib import Path

import pytest

from saldet.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
COMMANDS = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    for line in block.splitlines()
    if line.startswith("saldet ")
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_block_runs(code):
    exec(compile(code, f"{README.name} python block", "exec"), {})


def test_readme_has_cli_commands():
    assert COMMANDS


@pytest.mark.parametrize("line", COMMANDS, ids=[line.split()[1] for line in COMMANDS])
def test_cli_command_parses(line):
    words = shlex.split(line)
    assert build_parser().parse_args(words[1:]).command == words[1]
