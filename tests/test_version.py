"""``repro.__version__`` agrees with the packaging metadata."""

from __future__ import annotations

import re
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_version_matches_pyproject():
    # A regex rather than tomllib: the supported interpreters include 3.10.
    text = PYPROJECT.read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.MULTILINE | re.DOTALL)
    assert project is not None
    version = re.search(r'^version\s*=\s*"([^"]+)"', project.group(1), re.MULTILINE)
    assert version is not None
    assert repro.__version__ == version.group(1)
