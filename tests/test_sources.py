"""Every Python source parses as the oldest Python that pyproject.toml allows.

``ast.parse`` with ``feature_version`` refuses syntax newer than that
version, such as ``except*``, on any interpreter this suite runs on.  And
the test oracles stay independent of the library they check: they import
no private library name outside a short allowlist.  And each library module
imports only from its own layer or a lower one.
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


# The private library names an oracle may read.  The rational oracle sweeps
# the library's own search record, through its view; the toy-attention
# position cap and the state-id hash are fixed values that an oracle must
# share to be compared at all.  Anything else is computed by the oracle.
ORACLE_PRIVATE_IMPORTS = {"_bounded_reachability", "_compiled", "_MAX_POSITIONS", "_state_hash"}


def test_the_oracles_import_no_other_private_library_name():
    oracles = sorted((ROOT / "tests").glob("*_oracle.py"))
    assert ROOT / "tests" / "derivation_oracle.py" in oracles
    for path in oracles:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lcsg":
                private = {alias.name for alias in node.names if alias.name.startswith("_")}
                assert private <= ORACLE_PRIVATE_IMPORTS, (path.name, private)


# The layers that ``lcsg/__init__.py`` states, lowest first.  The package
# module re-exports every layer but the CLI, so it stands above them all.
LAYERS = (
    ("symbols", "grammar", "grammar_io", "derivation", "stochastic"),
    ("autoregressive", "predictors"),
    ("bridge", "traces"),
    ("cli",),
    ("__init__",),
)


def imported_library_modules(tree: ast.AST, modules) -> list[str]:
    """The ``modules`` a source imports from; ``__init__`` for the package itself."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):  # a relative import is from lcsg
            base = ".".join(filter(None, ["lcsg" if node.level else "", node.module]))
            dotted = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for parts in (name.split(".") for name in dotted):
            if parts[0] == "lcsg":
                imported.append(parts[1] if parts[1:2] and parts[1] in modules else "__init__")
    return imported


def test_each_library_module_imports_only_from_its_own_layer_or_below():
    layer_of = {module: n for n, layer in enumerate(LAYERS) for module in layer}
    sources = sorted((ROOT / "src" / "lcsg").glob("*.py"))
    assert {path.stem for path in sources} == set(layer_of)
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for module in imported_library_modules(tree, layer_of):
            assert layer_of[module] <= layer_of[path.stem], (path.name, module)
