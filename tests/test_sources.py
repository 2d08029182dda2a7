"""Every Python source parses as the oldest Python that pyproject.toml allows.

``ast.parse`` with ``feature_version`` refuses syntax newer than that
version, such as ``except*``, on any interpreter this suite runs on.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def oldest_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def test_every_source_parses_as_the_oldest_python_allowed():
    version = oldest_python()
    assert version == (3, 10)
    sources = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))
    assert ROOT / "tests" / "test_sources.py" in sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=version)
