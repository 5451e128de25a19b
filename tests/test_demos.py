"""Every demo script runs to completion in a fresh interpreter and prints
exactly its recorded output, ``golden/demos/<name>.out``; the README's
library example runs cleanly too."""

import os
import re
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


def test_readme_library_example_runs_cleanly():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    done = subprocess.run(
        [sys.executable, "-c", example], cwd=ROOT, capture_output=True, timeout=120
    )
    assert done.stderr == b""
    assert done.returncode == 0
    assert done.stdout.decode("utf-8").splitlines()[-2:] == [
        "verdict: free of rank 2; basis: ㅏ ㅗ",
        "abelianization: free rank 2, torsion []; consistent: yes",
    ]
