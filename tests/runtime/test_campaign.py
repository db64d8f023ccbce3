"""Tests for run_campaign orchestration, config, and run artifacts."""

import json

from repro.analysis.experiments import run_experiment
from repro.gsu.measures import ConstituentSolver
from repro.gsu.optimizer import find_optimal_phi
from repro.gsu.parameters import PAPER_TABLE3
from repro.gsu.performability import evaluate_batch
from repro.runtime.artifacts import code_version
from repro.runtime.campaign import (
    RuntimeConfig,
    get_config,
    run_campaign,
    set_config,
    use_config,
)
from repro.runtime.spec import CampaignSpec, CurveSpec, figure_campaign


def tiny_spec():
    return CampaignSpec(
        name="tiny",
        curves=(
            CurveSpec(
                label="base", params=PAPER_TABLE3, phis=(0.0, 7000.0)
            ),
        ),
    )


class TestConfig:
    def test_default_is_serial_uncached(self):
        config = get_config()
        assert config.backend == "serial"
        assert config.jobs == 1
        assert config.cache_dir is None

    def test_use_config_restores_previous(self, tmp_path):
        with use_config(RuntimeConfig(backend="thread", jobs=2)) as config:
            assert get_config() is config
        assert get_config().backend == "serial"

    def test_set_config_none_restores_defaults(self):
        set_config(RuntimeConfig(jobs=3))
        try:
            assert get_config().jobs == 3
        finally:
            set_config(None)
        assert get_config().jobs == 1

    def test_campaign_inherits_installed_config(self, tmp_path):
        config = RuntimeConfig(cache_dir=tmp_path / "cache")
        assert config.make_cache().root == tmp_path / "cache"
        assert RuntimeConfig().make_cache() is None
        with use_config(config):
            result = run_campaign(tiny_spec())
        assert result.cache_stats is not None
        assert result.cache_stats.writes == 2


class TestEquivalence:
    def test_fig9_campaign_matches_direct_serial_path(self):
        """`repro campaign FIG9` == a direct in-process batched solve.

        The acceptance bar is 1e-12; the construction gives exact
        equality (the same evaluate_batch pass, floats round-tripped via
        repr), so assert bit-for-bit.
        """
        campaign = run_campaign(figure_campaign("FIG9"))
        spec = figure_campaign("FIG9")
        for sweep, curve in zip(campaign.sweeps, spec.curves):
            direct = evaluate_batch(
                curve.params, curve.grid(), solver=ConstituentSolver(curve.params)
            )
            assert sweep.phis == [e.phi for e in direct]
            assert sweep.values == [e.value for e in direct]

    def test_experiment_path_matches_campaign_path(self):
        outcome = run_experiment("FIG9")
        campaign = run_campaign(figure_campaign("FIG9"))
        for exp_sweep, camp_sweep in zip(outcome.sweeps, campaign.sweeps):
            assert exp_sweep.values == camp_sweep.values

    def test_optimizer_via_runtime_matches_direct(self):
        direct = find_optimal_phi(
            PAPER_TABLE3, step=2500.0, solver=ConstituentSolver(PAPER_TABLE3)
        )
        routed = find_optimal_phi(PAPER_TABLE3, step=2500.0)
        assert routed.phi == direct.phi
        assert routed.y == direct.y
        assert [e.value for e in routed.sweep] == [
            e.value for e in direct.sweep
        ]


class TestArtifacts:
    def test_manifest_and_results_written(self, tmp_path):
        result = run_campaign(
            tiny_spec(),
            cache_dir=tmp_path / "cache",
            artifacts_dir=tmp_path / "runs",
        )
        assert result.artifacts is not None
        manifest = json.loads(result.artifacts.manifest_path.read_text())
        assert manifest["campaign"]["name"] == "tiny"
        assert manifest["backend"] == "serial"
        assert manifest["jobs"] == 1
        assert manifest["code_version"]
        assert manifest["cache"]["enabled"] is True
        assert manifest["cache"]["misses"] == 2
        assert len(manifest["tasks"]) == 2
        task_entry = manifest["tasks"][0]
        assert set(task_entry) >= {
            "index", "curve", "label", "phi", "key", "y", "seconds", "cached"
        }
        assert len(task_entry["key"]) == 64

        results = json.loads(result.artifacts.results_path.read_text())
        assert results["curves"][0]["values"] == result.sweeps[0].values

    def test_manifest_marks_cached_tasks(self, tmp_path):
        kwargs = dict(
            cache_dir=tmp_path / "cache", artifacts_dir=tmp_path / "runs"
        )
        run_campaign(tiny_spec(), **kwargs)
        warm = run_campaign(tiny_spec(), **kwargs)
        manifest = json.loads(warm.artifacts.manifest_path.read_text())
        assert all(task["cached"] for task in manifest["tasks"])
        assert manifest["cache"]["hits"] == 2
        assert manifest["cache"]["misses"] == 0

    def test_manifest_reports_template_stats(self, tmp_path):
        cold = run_campaign(tiny_spec(), artifacts_dir=tmp_path / "runs")
        manifest = json.loads(cold.artifacts.manifest_path.read_text())
        templates = manifest["templates"]
        assert set(templates) == {"compiles", "restamps", "fallbacks"}
        # An uncached run really solved, so this run's own delta shows
        # template traffic (a first-ever structure compiles; a repeat
        # structure re-stamps).
        assert templates["compiles"] + templates["restamps"] > 0

        run_campaign(
            tiny_spec(),
            cache_dir=tmp_path / "cache",
            artifacts_dir=tmp_path / "runs",
        )
        replay = run_campaign(  # warm replay: all hits, no solver
            tiny_spec(),
            cache_dir=tmp_path / "cache",
            artifacts_dir=tmp_path / "runs",
        )
        warm_manifest = json.loads(
            replay.artifacts.manifest_path.read_text()
        )
        assert warm_manifest["templates"]["compiles"] == 0
        assert warm_manifest["templates"]["restamps"] == 0

    def test_run_dirs_never_collide(self, tmp_path):
        a = run_campaign(tiny_spec(), artifacts_dir=tmp_path)
        b = run_campaign(tiny_spec(), artifacts_dir=tmp_path)
        assert a.artifacts.run_dir != b.artifacts.run_dir

    def test_code_version_nonempty(self):
        assert code_version()


class TestResultShape:
    def test_outcomes_follow_plan_order(self):
        result = run_campaign(tiny_spec())
        assert [o.task.index for o in result.outcomes] == [0, 1]
        assert result.solver_seconds > 0
        assert result.tasks_computed == 2

    def test_sweep_assembly_sorted_by_phi_order(self):
        spec = CampaignSpec(
            name="two-curves",
            curves=(
                CurveSpec(
                    label="a", params=PAPER_TABLE3, phis=(0.0, 5000.0)
                ),
                CurveSpec(
                    label="b",
                    params=PAPER_TABLE3.with_overrides(coverage=0.5),
                    phis=(10_000.0,),
                ),
            ),
        )
        result = run_campaign(spec)
        assert [s.label for s in result.sweeps] == ["a", "b"]
        assert result.sweeps[0].phis == [0.0, 5000.0]
        assert result.sweeps[1].phis == [10_000.0]


class TestTieredManifest:
    def test_plain_cache_has_no_tier_block(self, tmp_path):
        result = run_campaign(
            tiny_spec(),
            cache_dir=tmp_path / "cache",
            artifacts_dir=tmp_path / "runs",
        )
        manifest = json.loads(result.artifacts.manifest_path.read_text())
        assert "tiers" not in manifest["cache"]
