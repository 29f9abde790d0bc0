"""Source checks over the package, with the stdlib ``ast``.

Internal invariants must still be checked under ``python -O``, which strips
``assert`` statements: the package raises explicit errors instead.  Imports
must be used, and only ``core`` knows the integer form of a distribution or
of a preference."""

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


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> set[str]:
    """Every bare name the module reads, including names inside string
    annotations such as ``-> "Preference"``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def test_no_unused_imports():
    """Deleting a definition must not leave its imports behind; the package
    ``__init__`` is exempt because its imports are the public re-exports."""
    found = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_distributions_are_not_rescaled():
    """A distribution's integer form is ``(den, nums)``, kept by ``core``;
    no module may rebuild it from the `Fraction` view with
    ``scaled(....probs)``."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "scaled" and any(
                isinstance(sub, ast.Attribute) and sub.attr == "probs"
                for arg in node.args
                for sub in ast.walk(arg)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_preferences_are_not_rescaled():
    """A preference's integer form is ``Preference.ints``, kept or derived by
    ``core``; no other module may rebuild it with ``scaled(....values)``,
    and ``bounds`` rounds from it instead of comparing utilities with
    ``HALF``."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if path.name != "core.py" and isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "scaled" and any(
                    isinstance(sub, ast.Attribute) and sub.attr == "values"
                    for arg in node.args
                    for sub in ast.walk(arg)
                ):
                    found.append(f"{path.name}:{node.lineno} scaled")
            if path.name == "bounds.py" and isinstance(node, ast.Compare) and any(
                isinstance(sub, ast.Name) and sub.id == "HALF"
                for side in [node.left, *node.comparators]
                for sub in ast.walk(side)
            ):
                found.append(f"{path.name}:{node.lineno} HALF")
    assert found == []
