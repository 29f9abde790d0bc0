"""Internal invariants must still be checked under ``python -O``, which
strips ``assert`` statements: the package raises explicit errors instead."""

import ast
from pathlib import Path

import cardvote

SOURCES = sorted(Path(cardvote.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"core.py", "bounds.py", "generators.py"}


def test_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
