"""Every demo script runs to completion in a fresh interpreter and prints
exactly its recorded output, ``golden/demos/<name>.out``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    done = run_demo(demo)
    assert done.stderr == b""
    assert done.returncode == 0


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_output_matches_golden(demo):
    assert run_demo(demo).stdout == (GOLDEN / f"{demo.stem}.out").read_bytes()
