"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.runtime.spec import default_grid


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_parameter_overrides_parsed(self):
        args = build_parser().parse_args(
            ["evaluate", "--phi", "100", "--mu-new", "5e-5", "--theta", "5000"]
        )
        assert args.mu_new == 5e-5
        assert args.theta == 5000.0


class TestEvaluate:
    def test_prints_index_and_constituents(self, capsys):
        assert main(["evaluate", "--phi", "7000"]) == 0
        out = capsys.readouterr().out
        assert "Y(7000) = 1.5364" in out
        assert "int_h" in out
        assert "rho1" in out

    def test_override_changes_result(self, capsys):
        main(["evaluate", "--phi", "5000", "--mu-new", "5e-5"])
        out = capsys.readouterr().out
        assert "Y(5000) = 1.336" in out


class TestSweepAndOptimal:
    def test_sweep_table_and_chart(self, capsys):
        assert main(["sweep", "--step", "2500"]) == 0
        out = capsys.readouterr().out
        assert "Y(phi)" in out
        assert "legend" in out

    def test_sweep_no_chart(self, capsys):
        main(["sweep", "--step", "2500", "--no-chart"])
        assert "legend" not in capsys.readouterr().out

    def test_optimal_matches_paper(self, capsys):
        assert main(["optimal"]) == 0
        out = capsys.readouterr().out
        assert "optimal phi = 7000" in out
        assert "beneficial" in out


class TestExperiment:
    def test_tab3_runs(self, capsys):
        assert main(["experiment", "TAB3"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out

    def test_unknown_id_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "FIG99"])

    def test_runtime_flags_accepted(self, capsys, tmp_path):
        assert main([
            "experiment", "TAB3",
            "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
        ]) == 0


class TestCampaign:
    def test_runtime_flags_parsed(self):
        args = build_parser().parse_args(
            ["campaign", "FIG9", "--jobs", "4", "--backend", "thread",
             "--cache-dir", "/tmp/c", "--run-dir", "/tmp/r"]
        )
        assert args.jobs == 4
        assert args.backend == "thread"
        assert args.cache_dir == "/tmp/c"

    def test_requires_target_or_spec(self, capsys):
        assert main(["campaign"]) == 2
        assert "figure id" in capsys.readouterr().err

    def test_figure_campaign_with_cache_and_manifest(self, capsys, tmp_path):
        argv = [
            "campaign", "FIG9", "--step", "5000", "--no-chart",
            "--cache-dir", str(tmp_path / "cache"),
            "--run-dir", str(tmp_path / "runs"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Campaign FIG9" in out
        assert "6 points (6 solved)" in out
        assert "manifest:" in out

        # Warm rerun: everything served from the cache.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "6 points (0 solved)" in out
        assert "hit rate 100%" in out

    def test_bad_spec_file_errors_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["campaign", "--spec", str(bad)]) == 2
        assert "bad campaign spec" in capsys.readouterr().err

    def test_spec_file_campaign(self, capsys, tmp_path):
        from repro.runtime.spec import figure_campaign

        spec_path = tmp_path / "campaign.json"
        spec_path.write_text(figure_campaign("FIG12", step=2500.0).to_json())
        assert main(["campaign", "--spec", str(spec_path), "--no-chart"]) == 0
        out = capsys.readouterr().out
        assert "Campaign FIG12" in out

    def test_campaign_matches_experiment_numbers(self, capsys):
        """`repro campaign FIG9` equals the experiment path's numbers."""
        from repro.analysis.experiments import run_experiment
        from repro.runtime.campaign import run_campaign
        from repro.runtime.spec import figure_campaign

        campaign = run_campaign(figure_campaign("FIG9"))
        outcome = run_experiment("FIG9")
        for camp_sweep, exp_sweep in zip(campaign.sweeps, outcome.sweeps):
            assert camp_sweep.values == exp_sweep.values  # beats 1e-12


class TestVerify:
    def test_scaled_smoke_with_artifacts(self, capsys, tmp_path):
        argv = [
            "verify", "--profile", "scaled", "--replications", "64",
            "--cache-dir", str(tmp_path / "cache"),
            "--run-dir", str(tmp_path / "runs"),
        ]
        assert main(argv) == 0  # the pinned profile seed conforms
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert "verdicts:" in out
        runs = list((tmp_path / "runs").iterdir())
        assert len(runs) == 1
        verdicts = json.loads((runs[0] / "verdicts.json").read_text())
        assert verdicts["passed"] is True

        # Warm rerun reuses every simulated block.
        assert main(argv) == 0
        assert "0 misses" in capsys.readouterr().out

    def test_phi_grid_override(self, capsys):
        assert main([
            "verify", "--profile", "scaled", "--phis", "4,9",
            "--replications", "48", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_unknown_profile_errors_cleanly(self, capsys):
        assert main(["verify", "--profile", "nope"]) == 2
        assert "unknown verify profile" in capsys.readouterr().err


class TestValidateAndHybrid:
    def test_validate_scaled(self, capsys):
        status = main(
            ["validate", "--phi", "5", "--replications", "120", "--seed", "2"]
        )
        out = capsys.readouterr().out
        assert "Validation at phi=5" in out
        assert status in (0, 1)  # statistical outcome, printed either way

    def test_hybrid_prints_interval(self, capsys):
        assert main(
            ["hybrid", "--phi", "5", "--replications", "100", "--seed", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "95% CI" in out
        assert "simulated" in out and "analytic" in out


class TestExportModel:
    def test_dot_export(self, capsys):
        assert main(["export-model", "rmgd"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "P1Nmsg" in out

    def test_json_export_parses(self, capsys):
        main(["export-model", "rmgp", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "RMGp"

    def test_states_export(self, capsys):
        main(["export-model", "rmnd", "--format", "states", "--rate", "old"])
        data = json.loads(capsys.readouterr().out)
        assert data["num_tangible"] >= 5


class TestMeasure:
    def test_instant_measure_matches_solver(self, capsys):
        status = main([
            "measure", "rmgd",
            "--predicate", "MARK(detected)==1 && MARK(failure)==0",
            "--at", "7000",
        ])
        assert status == 0
        out = capsys.readouterr().out
        assert "0.478" in out

    def test_accumulated_with_signed_rates(self, capsys):
        main([
            "measure", "rmgd",
            "--predicate", "MARK(detected)==0:1",
            "--predicate", "MARK(detected)==0 && MARK(failure)==1:-1",
            "--solution", "accumulated", "--at", "7000",
        ])
        out = capsys.readouterr().out
        assert "5033.99" in out

    def test_steady_measure(self, capsys):
        main([
            "measure", "rmgp",
            "--predicate", "MARK(P1nExt)==1",
            "--solution", "steady",
        ])
        assert "0.0196" in capsys.readouterr().out

    def test_missing_at_errors(self, capsys):
        status = main([
            "measure", "rmgd", "--predicate", "MARK(failure)==1",
        ])
        assert status == 2
        assert "--at" in capsys.readouterr().err

    def test_steady_without_unique_stationary_errors(self, capsys):
        # RMGd has 18 absorbing states, so no unique stationary law.
        status = main([
            "measure", "rmgd", "--predicate", "MARK(failure)==1",
            "--solution", "steady",
        ])
        assert status == 2
        captured = capsys.readouterr()
        assert "no unique stationary distribution" in captured.err
        assert "nan" not in captured.out


class TestSolve:
    @pytest.fixture
    def model_file(self, tmp_path):
        spec = {
            "name": "repairable",
            "places": [{"name": "up", "initial": 1}, {"name": "down"}],
            "activities": [
                {"name": "fail", "rate": 0.01, "consumes": ["up"],
                 "cases": [{"produces": ["down"]}]},
                {"name": "repair", "rate": 0.5, "consumes": ["down"],
                 "cases": [{"produces": ["up"]}]},
            ],
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_steady_solution(self, capsys, model_file):
        assert main([
            "solve", model_file, "--predicate", "MARK(up)==1",
        ]) == 0
        out = capsys.readouterr().out
        # Availability = 0.5 / 0.51.
        assert "0.98039216" in out

    def test_instant_solution(self, capsys, model_file):
        assert main([
            "solve", model_file, "--predicate", "MARK(up)==1",
            "--solution", "instant", "--at", "24",
        ]) == 0
        assert "instant-of-time" in capsys.readouterr().out

    def test_missing_at_errors(self, capsys, model_file):
        assert main([
            "solve", model_file, "--predicate", "MARK(up)==1",
            "--solution", "accumulated",
        ]) == 2

    def test_steady_without_unique_stationary_errors(self, capsys, tmp_path):
        # Two competing failure modes, each absorbing.
        spec = {
            "name": "two_ways_down",
            "places": [
                {"name": "up", "initial": 1}, {"name": "crashed"},
                {"name": "hung"},
            ],
            "activities": [
                {"name": "crash", "rate": 0.01, "consumes": ["up"],
                 "cases": [{"produces": ["crashed"]}]},
                {"name": "hang", "rate": 0.02, "consumes": ["up"],
                 "cases": [{"produces": ["hung"]}]},
            ],
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(spec))
        assert main(["solve", str(path), "--predicate", "MARK(up)==1"]) == 2
        assert "no unique stationary distribution" in capsys.readouterr().err


class TestRuntimeFlagValidation:
    def test_jobs_zero_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "FIG9", "--jobs", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_jobs_non_integer_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "FIG9", "--jobs", "two"])
        assert "expected an integer >= 1" in capsys.readouterr().err

    def test_cache_dir_with_missing_parent_rejected(self, capsys, tmp_path):
        missing = tmp_path / "no" / "such" / "cache"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "FIG9", "--cache-dir", str(missing)]
            )
        assert "does not exist" in capsys.readouterr().err

    def test_cache_dir_with_existing_parent_accepted(self, tmp_path):
        target = tmp_path / "cache"
        args = build_parser().parse_args(
            ["campaign", "FIG9", "--cache-dir", str(target)]
        )
        assert args.cache_dir == str(target)

    def test_existing_cache_dir_accepted(self, tmp_path):
        args = build_parser().parse_args(
            ["campaign", "FIG9", "--cache-dir", str(tmp_path)]
        )
        assert args.cache_dir == str(tmp_path)

    @pytest.mark.parametrize(
        "flag", ["--no-batch", "--no-parametric", "--memory-cache=64"]
    )
    def test_second_solve_path_flags_are_gone(self, capsys, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "FIG9", flag])
        assert "unrecognized arguments" in capsys.readouterr().err


class TestServeCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8351
        assert args.jobs == 2
        assert args.memory_cache == 4096
        assert args.queue_limit == 1024

    def test_parser_rejects_bad_jobs(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--jobs", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_parser_rejects_bad_cache_dir(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--cache-dir", str(tmp_path / "a" / "b" / "c")]
            )
        assert "does not exist" in capsys.readouterr().err


class TestFleetCli:
    def test_step_grid_is_the_shared_default_grid(self, capsys):
        # The CLI and POST /fleet build a --step grid the same way, so
        # they agree on the phis and share cache entries.
        argv = [
            "fleet", "--processes", "2", "--theta", "1", "--step", "0.1",
            "--json", "--no-cache",
        ]
        assert main(argv) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["phi"] for r in records] == default_grid(1.0, step=0.1)

    def test_non_positive_step_rejected(self, capsys):
        assert main(["fleet", "--processes", "2", "--step", "0"]) == 2
        assert "step must be positive" in capsys.readouterr().err

    def test_mode_flag_removed(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--mode", "flat"])


#: Bad input across the verbs; each must exit 2 with a clean message.
BAD_INPUT = [
    ["evaluate", "--phi", "20000"],
    ["evaluate", "--phi", "100", "--coverage", "2"],
    ["sweep", "--step", "2500", "--mu-new", "-1"],
    ["sweep", "--step", "0"],
    ["optimal", "--step", "-5"],
    ["campaign", "FIG9", "--step", "0"],
    ["export-model", "rmgd", "--theta", "-1"],
    ["validate", "--replications", "0"],
    ["hybrid", "--replications", "0"],
    ["validate", "--phi", "1e9"],
    ["measure", "rmgd", "--predicate", "MARK(nope)==1", "--at", "1"],
    ["measure", "rmgd", "--predicate", "MARK(detected)==1", "--at", "-5"],
    ["solve", "/nonexistent.json", "--predicate", "MARK(up)==1"],
]


def exit_status(argv):
    """``main``'s status, counting argparse's ``SystemExit`` as one."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestBadInput:
    @pytest.mark.parametrize("argv", BAD_INPUT, ids=" ".join)
    def test_exits_2_with_clean_message(self, argv, capsys):
        assert exit_status(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err
