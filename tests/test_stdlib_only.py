"""The runtime imports nothing outside the standard library and parses as Python 3.10."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import homophonic, homophonic.cli
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(added)))
"""


def test_import_adds_only_standard_library_modules():
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    added = json.loads(out)
    assert "homophonic" in added
    foreign = [n for n in added if n != "homophonic" and n not in sys.stdlib_module_names]
    assert foreign == []


def test_sources_parse_as_python_3_10():
    # pyproject.toml promises requires-python >= 3.10.  This checks syntax
    # only: a standard-library API added after 3.10 would still pass.
    sources = sorted(SRC.glob("homophonic/*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
