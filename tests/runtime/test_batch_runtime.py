"""Batched per-curve execution through the campaign runtime.

Every campaign solves its cache-missing points one way: one batched
solver pass per curve on template-restamped models.  A cold run, its
warm cache replay, and a direct ``evaluate_batch`` must therefore give
bitwise-equal records, including at short mission times where the
per-point reference drifts by up to ~1e-11.
"""

import pytest

from repro.gsu.measures import ConstituentSolver
from repro.gsu.parameters import PAPER_TABLE3
from repro.gsu.performability import evaluate_batch
from repro.runtime import executor
from repro.runtime.cache import ResultCache
from repro.runtime.campaign import run_campaign
from repro.runtime.records import record_from_evaluation
from repro.runtime.spec import CampaignSpec, CurveSpec, default_grid
from repro.runtime.tasks import group_by_params, plan_campaign


def small_spec(name="batch-test", phis=(0.0, 4000.0, 10_000.0), params=PAPER_TABLE3):
    return CampaignSpec(
        name=name,
        curves=(CurveSpec(label="base", params=params, phis=tuple(phis)),),
    )


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=tmp_path / "cache")


class TestBatchPointEquivalence:
    def test_partial_cache_batches_only_the_misses(self, cache, monkeypatch):
        # Pre-populate two of five points; the rerun must solve exactly
        # the three missing ones, in one batch, and reuse the rest.
        phis = (0.0, 2500.0, 5000.0, 7500.0, 10_000.0)
        run_campaign(small_spec(phis=(2500.0, 7500.0)), cache=cache)

        batches = []

        def spy(params, batch_phis, solver=None):
            batches.append(list(batch_phis))
            return evaluate_batch(params, batch_phis, solver=solver)

        monkeypatch.setattr(executor, "evaluate_batch", spy)
        full = run_campaign(small_spec(phis=phis), cache=cache)
        assert batches == [[0.0, 5000.0, 10_000.0]]
        assert full.cache_stats.hits == 2
        assert full.cache_stats.misses == 3
        cached_flags = [o.cached for o in full.outcomes]
        assert cached_flags == [False, True, False, True, False]

        monkeypatch.undo()
        reference = run_campaign(small_spec(phis=phis))
        assert full.sweeps[0].values == reference.sweeps[0].values

    @pytest.mark.parametrize("theta", [10.0, 100.0])
    def test_short_theta_cold_warm_and_direct_records_are_bitwise_equal(
        self, cache, theta
    ):
        # At short mission times the per-point reference differs from
        # the batched pass in the last bits; every served record must
        # still equal what a fresh batched solve writes.
        params = PAPER_TABLE3.with_overrides(theta=theta)
        spec = small_spec(phis=default_grid(theta, step=theta / 10), params=params)
        assert spec.num_points == 11

        cold = run_campaign(spec, cache=cache)
        warm = run_campaign(spec, cache=cache)
        assert cold.tasks_computed == 11
        assert warm.tasks_computed == 0

        direct = [
            record_from_evaluation(evaluation)
            for evaluation in evaluate_batch(
                params, spec.curves[0].phis, solver=ConstituentSolver(params)
            )
        ]
        assert [o.record for o in cold.outcomes] == direct
        assert [o.record for o in warm.outcomes] == direct


class TestGroupByParams:
    def test_groups_preserve_plan_order(self):
        other = PAPER_TABLE3.with_overrides(mu_new=5e-5)
        spec = CampaignSpec(
            name="grouping",
            curves=(
                CurveSpec(label="a", params=PAPER_TABLE3, phis=(0.0, 1.0)),
                CurveSpec(label="b", params=other, phis=(2.0,)),
                CurveSpec(label="c", params=PAPER_TABLE3, phis=(3.0,)),
            ),
        )
        pending = list(enumerate(plan_campaign(spec)))
        groups = group_by_params(pending)
        assert list(groups) == [PAPER_TABLE3, other]
        phis_first = [task.phi for _, task in groups[PAPER_TABLE3]]
        assert phis_first == [0.0, 1.0, 3.0]
        assert [task.phi for _, task in groups[other]] == [2.0]
