"""No public function or method in ``src/`` goes unreferenced.

A stdlib AST scan collects every public (non-underscore) module-level
function and class method defined under ``src/repro`` and every name
referenced in ``src/``, ``tests/``, ``examples/``, ``benchmarks/`` and
``perfbench/``.  A reference is an identifier, an attribute, an
imported name, or an identifier inside a string literal (perfbench
resolves the functions it traces by name).  Docstrings and comments do
not count, a definition does not reference itself, and the package
``__init__`` re-exports (imports and ``__all__``) are not callers.

A name that nothing references is dead weight: delete it, or write
down the query that needs it and call it from there.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
SEARCHED = ("src", "tests", "examples", "benchmarks", "perfbench")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _python_files():
    for top in SEARCHED:
        yield from sorted((ROOT / top).rglob("*.py"))


def _docstring_ids(tree: ast.AST) -> set[int]:
    """``id``s of the string constants that are bare expression
    statements: docstrings and other inert strings."""
    return {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }


def _is_reexport_file(path: Path) -> bool:
    return path.name == "__init__.py" and SRC in path.parents


def _definitions(tree: ast.Module):
    """Public module-level functions and class methods, with the line
    span of their own definition."""
    for node in tree.body:
        bodies = [node]
        if isinstance(node, ast.ClassDef):
            bodies = node.body
        for item in bodies:
            if isinstance(
                item, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and not item.name.startswith("_"):
                yield item.name, item.lineno, item.end_lineno


def _references(path: Path, tree: ast.Module):
    """``(name, line)`` of every reference in one file."""
    inert = _docstring_ids(tree)
    reexports = _is_reexport_file(path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if reexports:
                continue
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1], node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in inert
            and not reexports
        ):
            for name in _IDENT.findall(node.value):
                yield name, node.lineno


def find_orphans() -> list[str]:
    """``path:line name`` of every public definition nothing references."""
    definitions = []
    references: dict[str, list[tuple[Path, int]]] = defaultdict(list)
    for path in _python_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        if SRC in path.parents:
            definitions.extend(
                (path, *definition) for definition in _definitions(tree)
            )
        for name, line in _references(path, tree):
            references[name].append((path, line))
    orphans = []
    for path, name, first, last in definitions:
        outside = [
            (where, line)
            for where, line in references.get(name, ())
            if not (where == path and first <= line <= last)
        ]
        if not outside:
            orphans.append(f"{path.relative_to(ROOT)}:{first} {name}")
    return orphans


def test_no_public_function_is_orphaned():
    orphans = find_orphans()
    assert not orphans, (
        "public functions or methods nothing references:\n  "
        + "\n  ".join(orphans)
    )


def test_scan_skips_docstrings_and_sees_string_references(tmp_path):
    source = (
        '"""Module docstring naming ghost."""\n'
        "def f():\n"
        '    """Docstring naming ghost."""\n'
        '    return getattr(obj, "traced")  # comment naming ghost\n'
    )
    tree = ast.parse(source)
    names = {name for name, _ in _references(tmp_path / "m.py", tree)}
    assert "traced" in names
    assert "ghost" not in names
