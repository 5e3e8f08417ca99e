"""Module ownership: no module reaches into a sibling's private names.

Each module owns its underscore-prefixed helpers; a sibling that needs
one should call the owner's public (or array-level) entry point instead.
"""

import ast
from pathlib import Path

import pytest

import unitfrechet

PACKAGE = Path(unitfrechet.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_sibling_imports(path):
    offenders = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            offenders.extend(
                f"line {node.lineno}: {node.module}.{alias.name}"
                for alias in node.names
                if is_private(alias.name)
            )
    assert not offenders, f"{path.name} imports private names: {offenders}"
