"""CLI output pinned byte for byte against recorded golden files.

Each case in ``golden/cases.json`` names its argv and exit code; its
stdout is ``golden/<case>.out``.  The command runs in a fresh
interpreter with the bundled data directory as working directory, so
dataset arguments are bare file names.

``golden/final_presentations.json`` pins the final presentation of
bound-stopped runs on the bundled corpora, which the CLI reports only
as counts: each relator's ASCII display and origin witness, and the live
glyphs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homophonic
from homophonic.datasets import builtin_data_dir, builtin_dataset, to_presentation
from homophonic.presentation import simplify
from homophonic.words import display

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


FINAL_RUNS = [
    (name, bound, value)
    for name in ("german", "korean", "turkish")
    for bound, value in (
        ("max_rounds", 1),
        ("max_rounds", 3),
        ("max_rounds", 10),
        ("max_relator_len", 2),
        ("max_relator_len", 3),
    )
]
FINAL_PRESENTATIONS = json.loads(
    (GOLDEN / "final_presentations.json").read_text(encoding="utf-8")
)


def final_presentation(name: str, bound: str, value: int) -> dict:
    """The final presentation of a bound-stopped run, as plain JSON data."""
    _, trace = simplify(to_presentation(builtin_dataset(name)), **{bound: value})
    final = trace.final
    return {
        "relators": [
            [display(w, ascii_inverse=True), origin.witness()]
            for w, origin in zip(final.relators, final.origins)
        ],
        "live": [g.glyph for g in final.live],
    }


@pytest.mark.parametrize(
    "name, bound, value", FINAL_RUNS, ids=[f"{n}-{b}-{v}" for n, b, v in FINAL_RUNS]
)
def test_final_presentation_matches_golden(name, bound, value):
    assert final_presentation(name, bound, value) == FINAL_PRESENTATIONS[f"{name} {bound}={value}"]


# Runs two golden cases in one interpreter; a NUL byte ends each one's output.
TWO_CASES = """
import sys
from homophonic.cli import main
for argv in (["report", "--machine", "--ascii"], ["simplify", "korean.hq", "--machine"]):
    main(argv)
    sys.stdout.write("\\0")
"""


@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_output_does_not_follow_the_hash_seed(seed):
    # An elimination round buckets relators by a ``hash``, which the seed changes.
    done = subprocess.run(
        [sys.executable, "-c", TWO_CASES],
        cwd=builtin_data_dir(),
        env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed),
        capture_output=True, check=True, timeout=60,
    )
    assert done.stderr == b""
    assert done.stdout.split(b"\0") == [
        (GOLDEN / f"{name}.out").read_bytes()
        for name in ("report_machine_ascii", "simplify_korean_machine")
    ] + [b""]
