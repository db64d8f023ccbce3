"""Numerical warnings are errors for the CTMC solver tests.

A ``RuntimeWarning`` from numpy or scipy inside a solver (overflow, a
0/0, a divide by zero) means an answer was computed from a non-finite
intermediate; here it fails the test instead of scrolling past.
"""

from __future__ import annotations

from pathlib import Path

import pytest

_HERE = Path(__file__).parent


def pytest_collection_modifyitems(config, items):
    for item in items:
        if _HERE in Path(item.fspath).parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))
