from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

from lcsg import Grammar, WeightedGrammar, parse_grammar

DATA = Path(__file__).parent / "data"

# pyproject.toml puts src on this process's sys.path; put it first on the
# PYTHONPATH that child processes inherit too, so that a `python -c` child
# imports the same lcsg as the tests, not another copy or none.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One ACCEPTANCE line per criterion, based on the acceptance tests."""
    results: dict[int, bool] = {}
    for key in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(key, ()):
            m = re.search(r"test_criterion_(\d+)", getattr(report, "nodeid", ""))
            if not m:
                continue
            n = int(m.group(1))
            results[n] = results.get(n, True) and key == "passed"
    if results:
        terminalreporter.section("acceptance criteria")
        for n in sorted(results):
            verdict = "PASS" if results[n] else "FAIL"
            terminalreporter.write_line(f"ACCEPTANCE {n} {verdict}")


def load_grammar(name: str) -> Grammar:
    return parse_grammar((DATA / name).read_text())


def load_weighted(name: str) -> WeightedGrammar:
    return WeightedGrammar.from_grammar(load_grammar(name))


@pytest.fixture
def abc() -> Grammar:
    return load_grammar("abc.grammar")


@pytest.fixture
def crossserial() -> Grammar:
    return load_grammar("crossserial.grammar")


@pytest.fixture
def chain() -> Grammar:
    return load_grammar("chain.grammar")


@pytest.fixture
def loop() -> WeightedGrammar:
    return load_weighted("loop.grammar")
