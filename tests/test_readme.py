"""Every fenced ``python`` block of README.md runs as written, each in a
fresh interpreter with the package on ``PYTHONPATH=src``, and every
``faircc`` command of its ``sh`` blocks parses, so the documented examples
cannot drift from the public API or the CLI's flags."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from faircc import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
COMMANDS = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```$", README, re.M | re.S)
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("faircc ")
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_readme_shows_every_subcommand():
    assert {shlex.split(command)[1] for command in COMMANDS} == {
        "ingest", "cluster", "experiment", "verify", "gen"
    }


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_cli_command_parses(command):
    """The argument parser accepts the command as written; parsing opens no
    file, so the files it names need not exist."""
    args = cli.build_parser().parse_args(shlex.split(command, comments=True)[1:])
    assert args.command == shlex.split(command)[1]
