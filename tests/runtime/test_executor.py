"""Executor determinism tests (ISSUE satellite).

Serial, thread, and process backends must produce bit-identical campaign
results — including with ``jobs=4``, odd chunk sizes, and shuffled task
submission order.  The backends may only change the wall clock, never a
number.
"""

import random

import pytest

from repro.gsu.parameters import PAPER_TABLE3
from repro.runtime.campaign import run_campaign
from repro.runtime.executor import execute_tasks
from repro.runtime.spec import CampaignSpec, CurveSpec
from repro.runtime.tasks import plan_campaign

#: A small two-curve grid (a shrunken Figure 9 study).
SPEC = CampaignSpec(
    name="determinism",
    curves=(
        CurveSpec(
            label="mu_new = 1e-4",
            params=PAPER_TABLE3,
            phis=(0.0, 2500.0, 5000.0, 7500.0, 10_000.0),
        ),
        CurveSpec(
            label="mu_new = 5e-5",
            params=PAPER_TABLE3.with_overrides(mu_new=0.5e-4),
            phis=(0.0, 5000.0, 10_000.0),
        ),
    ),
)


@pytest.fixture(scope="module")
def serial_reference():
    return run_campaign(SPEC, backend="serial", jobs=1)


def _curve_data(result):
    return [(s.label, s.phis, s.values) for s in result.sweeps]


class TestBackendEquivalence:
    @pytest.mark.parametrize(
        "backend,jobs",
        [
            ("serial", 1),
            ("thread", 2),
            ("thread", 4),
            ("process", 2),
            ("process", 4),
        ],
    )
    def test_bit_identical_across_backends(
        self, serial_reference, backend, jobs
    ):
        result = run_campaign(SPEC, backend=backend, jobs=jobs)
        assert _curve_data(result) == _curve_data(serial_reference)
        # Full evaluations match too, not just the headline Y values.
        for ref_sweep, sweep in zip(serial_reference.sweeps, result.sweeps):
            for ref_point, point in zip(ref_sweep.points, sweep.points):
                assert point.evaluation.constituents == (
                    ref_point.evaluation.constituents
                )

    @pytest.mark.parametrize("chunk_size", [1, 2, 7])
    def test_chunking_never_changes_results(self, serial_reference, chunk_size):
        result = run_campaign(
            SPEC, backend="thread", jobs=4, chunk_size=chunk_size
        )
        assert _curve_data(result) == _curve_data(serial_reference)


class TestSubmissionOrder:
    @pytest.mark.parametrize("backend,jobs", [("serial", 1), ("process", 4)])
    def test_shuffled_submission_returns_submission_order(
        self, serial_reference, backend, jobs
    ):
        tasks = list(plan_campaign(SPEC))
        shuffled = tasks[:]
        random.Random(20020623).shuffle(shuffled)
        assert shuffled != tasks

        outcomes = execute_tasks(shuffled, backend=backend, jobs=jobs)
        # Outcomes align element-for-element with the shuffled input...
        assert [o.task for o in outcomes] == shuffled
        # ...and re-sorting by plan position reproduces the reference
        # curve values bit for bit.
        by_index = sorted(outcomes, key=lambda o: o.task.index)
        reference_values = [
            y for sweep in serial_reference.sweeps for y in sweep.values
        ]
        assert [o.record["value"] for o in by_index] == reference_values


class TestValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            execute_tasks(plan_campaign(SPEC), backend="gpu")

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            execute_tasks(plan_campaign(SPEC), jobs=0)
