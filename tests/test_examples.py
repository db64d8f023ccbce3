"""Smoke tests: every example script must run cleanly end to end.

Examples are the public face of the library; these tests keep them from
rotting.  Each script runs in a subprocess with a generous timeout and
its key output lines are sanity-checked.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

#: script -> substrings its stdout must contain.
EXPECTED_OUTPUT = {
    "quickstart.py": ["Optimal guarded-operation duration", "Y = 1.53"],
    "custom_san_model.py": [
        "State space: 3 tangible markings",
        "Steady-state availability",
        "Simulated availability",
    ],
    "protocol_trace.py": ["outcome statistics", "mean accrued worth"],
    "upgrade_planning.py": ["Upgrade planning summary", "elasticity"],
    "validation_study.py": ["CONSISTENT", "closed form"],
    "hybrid_evaluation.py": ["95% CI", "analytic Y inside the interval: yes"],
}


def _run(script: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )


#: examples that simulate at scale (many replications or long horizons);
#: they run in the slow tier so tier-1 stays fast.
SLOW_EXAMPLES = {"hybrid_evaluation.py", "protocol_trace.py", "validation_study.py"}


@pytest.mark.parametrize(
    "script",
    [
        pytest.param(name, marks=pytest.mark.slow)
        if name in SLOW_EXAMPLES
        else name
        for name in sorted(EXPECTED_OUTPUT)
    ],
)
def test_example_runs_cleanly(script):
    result = _run(script)
    assert result.returncode == 0, result.stderr[-2000:]
    for expected in EXPECTED_OUTPUT[script]:
        assert expected in result.stdout, (
            f"{script}: expected {expected!r} in output;\n"
            f"stdout tail: {result.stdout[-1500:]}"
        )


def test_every_example_has_a_smoke_test():
    scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert scripts == set(EXPECTED_OUTPUT), (
        "examples and smoke tests out of sync"
    )
