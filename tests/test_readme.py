"""Every fenced ``python`` block of README.md runs as written, each in a
fresh interpreter with the package on ``PYTHONPATH=src``, and every
``faircc`` command of its ``sh`` blocks parses and, in order, runs on
small input files, so the documented examples cannot drift from the
public API, the CLI's flags or what the CLI can do."""

import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from faircc import SignedCompleteGraph, cli

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


def test_readme_cli_walkthrough_runs(tmp_path, monkeypatch, capsys):
    """The ``faircc`` commands of README's sh blocks run in order in one
    directory that starts with the files they read: a CSV of 150 rows, 50
    of group A and 100 of group B, with its schema, and a 5-vertex base
    graph. Each exits 0 and writes every file it names."""
    rng = random.Random(0)
    rows = [
        f"{rng.randrange(18, 80)},{rng.choice('xyz')},{'A' if i % 3 == 0 else 'B'}"
        for i in range(150)
    ]
    (tmp_path / "data.csv").write_text("\n".join(["age,job,group", *rows]) + "\n")
    columns = [("age", "numeric"), ("job", "categorical"), ("group", "protected")]
    (tmp_path / "schema.json").write_text(
        json.dumps({"columns": [{"name": name, "kind": kind} for name, kind in columns]})
    )
    base = SignedCompleteGraph.from_negative_edges(5, [(0, 1), (1, 3), (2, 4)])
    (tmp_path / "base_graph.json").write_text(base.to_json() + "\n")
    monkeypatch.chdir(tmp_path)
    for command in COMMANDS:
        argv = shlex.split(command, comments=True)[1:]
        assert cli.main(argv) == 0, (command, capsys.readouterr().err)
        for flag, value in zip(argv, argv[1:]):
            if flag.startswith("--out"):
                assert (tmp_path / value).is_file(), (command, value)
