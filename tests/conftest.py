"""Puts ``src/`` on the path of the Python processes the tests start.

``pythonpath`` in ``pyproject.toml`` covers the test process itself; with
this, a bare ``pytest`` also runs from a checkout that is not installed.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
