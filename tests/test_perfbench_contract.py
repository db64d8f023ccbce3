"""The benchmark's tracing contract with the program.

``perfbench/tracing.py`` wraps program functions that it names by
module and attribute path, and reports per-backend ctmc figures from a
fixed list of backend names.  A refactor that renames a traced function,
or records a backend the list lacks, would otherwise surface only in a
``run.py --trace 1`` benchmark run.  These tests load ``tracing.py``
read-only from the repository and check both halves of the contract.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _recorded_backends() -> dict[str, str]:
    """Every backend name passed to ``record_dispatch`` in ``src/``,
    mapped to one place that passes it."""
    names: dict[str, str] = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None
            )
            if called != "record_dispatch":
                continue
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            arg = node.args[0] if node.args else None
            assert isinstance(arg, ast.Constant) and isinstance(
                arg.value, str
            ), f"{where}: backend name must be a string literal"
            names.setdefault(arg.value, where)
    return names


def test_every_trace_target_resolves(tracing):
    for module_name, path, _span, _options in tracing.TARGETS:
        owner, attribute = tracing._resolve(module_name, path)
        assert callable(getattr(owner, attribute, None)), (
            f"{module_name}.{path} is traced but no longer exists"
        )


def test_ctmc_backends_cover_every_recorded_name(tracing):
    recorded = _recorded_backends()
    assert recorded, "no record_dispatch call found under src/"
    missing = {
        name: where
        for name, where in recorded.items()
        if name not in tracing.CTMC_BACKENDS
    }
    assert not missing, f"backends missing from CTMC_BACKENDS: {missing}"
