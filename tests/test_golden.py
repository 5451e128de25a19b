"""CLI output pinned byte for byte against recorded golden files.

Each case in ``golden/cases.json`` names its argv and exit code; its
stdout is ``golden/<case>.out``.  The command runs in a fresh
interpreter with the bundled data directory as working directory, so
dataset arguments are bare file names.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homophonic
from homophonic.datasets import builtin_data_dir

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
SRC = str(Path(homophonic.__file__).resolve().parent.parent)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    case = CASES[name]
    done = subprocess.run(
        [sys.executable, "-m", "homophonic", *case["argv"]],
        cwd=builtin_data_dir(),
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        timeout=60,
    )
    assert done.stderr == b""
    assert done.returncode == case["exit"]
    assert done.stdout == (GOLDEN / f"{name}.out").read_bytes()
