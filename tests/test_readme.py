"""Every fenced ``python`` block of README.md runs as written, each in a
fresh interpreter with the package on ``PYTHONPATH=src``, so the documented
examples cannot drift from the public API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
