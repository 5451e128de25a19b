"""The runtime imports nothing outside the standard library, parses as Python 3.10 and keeps
its lines to ``MAX_LINE`` characters; the trace checker imports nothing at all."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MAX_LINE = 100  # the width the sources are written to

# Run without ``site`` (``python -S``): ``site`` may preload third-party
# packages, and an import of one by ``homophonic`` would then go unseen.
PROBE = """
import json, sys
before = set(sys.modules)
import homophonic, homophonic.cli
added = set(sys.modules) - before
print(json.dumps(sorted(added)))
"""


def test_import_adds_only_standard_library_modules():
    out = subprocess.run(
        [sys.executable, "-S", "-c", PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    added = json.loads(out)
    top = {name.partition(".")[0] for name in added}
    assert "homophonic" in top
    foreign = [n for n in top if n != "homophonic" and n not in sys.stdlib_module_names]
    assert foreign == []
    # The bundled corpora are found by path, not through the resources machinery.
    assert "importlib.resources" not in added
    # dataclasses pulls inspect, dis, ast and tokenize into every start-up.
    assert {"dataclasses", "inspect"}.isdisjoint(added)


def test_sources_parse_as_python_3_10():
    # pyproject.toml promises requires-python >= 3.10.  This checks syntax
    # only: a standard-library API added after 3.10 would still pass.
    sources = sorted(SRC.glob("homophonic/*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_source_lines_fit_the_width():
    sources = sorted(SRC.glob("homophonic/*.py"))
    assert sources
    long = [f"{path.name}:{n}" for path in sources
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if len(line) > MAX_LINE]
    assert long == []


def test_the_trace_checker_imports_nothing():
    # ``replay`` checks traces with ``tietze``: importing nothing, it shares no simplifier code.
    path = SRC / "homophonic" / "tietze.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imports = [node.lineno for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               or isinstance(node, ast.Name) and node.id == "__import__"]
    assert imports == []
