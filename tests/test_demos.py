"""Every demo script runs to completion in a fresh interpreter and prints
exactly its recorded output, ``golden/demos/<name>.out``; the README's
library example and command lines run cleanly too, its dataset blocks load,
and its code names exist."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import homophonic

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"
README = (ROOT / "README.md").read_text(encoding="utf-8")


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
    example = re.search(r"```python\n(.*?)```", README, re.DOTALL).group(1)
    done = subprocess.run(
        [sys.executable, "-c", example], cwd=ROOT, capture_output=True, timeout=120
    )
    assert done.stderr == b""
    assert done.returncode == 0
    assert done.stdout.decode("utf-8").splitlines()[-2:] == [
        "verdict: free of rank 2; basis: ㅏ ㅗ",
        "abelianization: free rank 2, torsion []; consistent: yes",
    ]


README_COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for block in re.findall(r"```sh\n(.*?)```", README, re.DOTALL)
    for line in block.splitlines()
    if line.startswith("homophonic ")
]


@pytest.mark.parametrize("args", README_COMMANDS, ids=lambda args: args[0])
def test_readme_command_runs_from_the_root(args):
    done = subprocess.run(
        [sys.executable, "-m", "homophonic", *args], cwd=ROOT, capture_output=True, timeout=120
    )
    assert done.stderr == b""
    assert done.returncode == 0
    if args[0] == "decompose":
        assert done.stdout.decode("utf-8") == "ㅂ+ㅜ+ㅇ+ㅓ+ㅋ\n"


README_DATASETS = [
    body
    for _, body in re.findall(r"^```(\w*)\n(.*?)^```", README, re.DOTALL | re.MULTILINE)
    if body.startswith("@language")
]


def test_readme_dataset_blocks_load_and_are_bundled_lines():
    corpus_lines = {
        line
        for path in homophonic.datasets.builtin_data_dir().glob("*.hq")
        for line in path.read_text(encoding="utf-8").splitlines()
    }
    assert README_DATASETS
    for block in README_DATASETS:
        assert homophonic.to_presentation(homophonic.parse_dataset(block, "README")).relators
        assert set(block.splitlines()) <= corpus_lines


def test_readme_calls_name_package_attributes():
    """Each inline code span that opens with a call, such as ``Alphabet.letter(glyph)``,
    names an attribute of the package, so a removed name cannot linger in the docs."""
    prose = re.sub(r"```.*?```", "", README, flags=re.DOTALL)
    spans = re.findall(r"`([^`]+)`", prose)
    calls = [m.group(1) for span in spans if (m := re.match(r"([A-Za-z_][\w.]*)\(", span))]
    assert "Word" in calls
    for name in calls:
        target = homophonic
        for part in name.split("."):
            assert hasattr(target, part), name
            target = getattr(target, part)
