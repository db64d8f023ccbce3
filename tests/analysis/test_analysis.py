"""Tests for the analysis harness: sweeps, tables, plotting."""

import pytest

from repro.analysis.plotting import ascii_curves
from repro.analysis.sweep import default_grid, run_sweep
from repro.analysis.tables import format_table, optimum_table, sweep_table
from repro.gsu.parameters import PAPER_TABLE3


@pytest.fixture(scope="module")
def quick_sweep():
    return run_sweep(PAPER_TABLE3, label="base", step=2500.0)


class TestGrid:
    def test_default_grid_spans_zero_to_theta(self):
        grid = default_grid(10_000.0)
        assert grid[0] == 0.0
        assert grid[-1] == 10_000.0
        assert len(grid) == 11

    def test_non_divisible_step(self):
        grid = default_grid(10.0, step=3.0)
        assert grid == [0.0, 3.0, 6.0, 9.0, 10.0]

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            default_grid(10.0, step=-1.0)

    def test_no_accumulated_drift_near_theta(self):
        # value += 0.1 drifts to 0.9999999999999999 after ten steps and
        # used to emit a near-duplicate of theta; integer multiples and
        # the endpoint guard must not.
        grid = default_grid(1.0, step=0.1)
        assert grid[-1] == 1.0
        assert len(grid) == 11
        assert min(b - a for a, b in zip(grid, grid[1:])) > 0.05

    def test_interior_points_are_integer_multiples(self):
        grid = default_grid(50_000.0, step=1000.0)
        assert grid == [float(i * 1000) for i in range(51)]


class TestSweep:
    def test_points_ordered(self, quick_sweep):
        assert quick_sweep.phis == sorted(quick_sweep.phis)

    def test_optimum(self, quick_sweep):
        best = quick_sweep.optimum()
        assert best.y == max(quick_sweep.values)

    def test_value_at(self, quick_sweep):
        assert quick_sweep.value_at(0.0) == pytest.approx(1.0)
        with pytest.raises(KeyError):
            quick_sweep.value_at(1234.5)

    def test_value_at_tolerates_float_noise(self, quick_sweep):
        # A phi reconstructed by arithmetic need not be bit-identical to
        # the grid point; value_at matches within documented tolerance.
        reconstructed = 7500.0 * (1.0 + 1e-12)
        assert reconstructed != 7500.0
        assert quick_sweep.value_at(reconstructed) == quick_sweep.value_at(
            7500.0
        )

    def test_value_at_still_rejects_off_grid(self, quick_sweep):
        with pytest.raises(KeyError):
            quick_sweep.value_at(7500.0 + 1.0)

    def test_default_label_summarises_parameters(self):
        sweep = run_sweep(PAPER_TABLE3, step=5000.0)
        assert "mu_new" in sweep.label

    def test_explicit_grid(self):
        sweep = run_sweep(PAPER_TABLE3, phis=[0.0, 5000.0])
        assert sweep.phis == [0.0, 5000.0]


class TestTables:
    def test_format_table_aligns(self):
        text = format_table(
            ["name", "value"], [["x", 1.0], ["longer", 2.5]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len(lines) == 5

    def test_sweep_table_contains_all_phis(self, quick_sweep):
        text = sweep_table([quick_sweep])
        for phi in quick_sweep.phis:
            assert f"{phi:g}" in text

    def test_sweep_table_rejects_mismatched_grids(self, quick_sweep):
        other = run_sweep(PAPER_TABLE3, phis=[0.0, 10_000.0], label="other")
        with pytest.raises(ValueError):
            sweep_table([quick_sweep, other])

    def test_sweep_table_rejects_empty(self):
        with pytest.raises(ValueError):
            sweep_table([])

    def test_optimum_table(self, quick_sweep):
        text = optimum_table([quick_sweep])
        assert "base" in text
        assert "yes" in text  # beneficial


class TestAsciiCurves:
    def test_renders_with_legend(self, quick_sweep):
        chart = ascii_curves([quick_sweep], title="Y(phi)")
        assert "Y(phi)" in chart
        assert "legend: o base" in chart
        assert "phi" in chart

    def test_reference_line_at_one(self, quick_sweep):
        chart = ascii_curves([quick_sweep])
        assert "." in chart  # Y=1 reference inside the data range

    def test_size_guard(self, quick_sweep):
        with pytest.raises(ValueError):
            ascii_curves([quick_sweep], width=5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ascii_curves([])

    def test_rejects_mismatched_grids(self, quick_sweep):
        other = run_sweep(PAPER_TABLE3, phis=[0.0, 10_000.0], label="other")
        with pytest.raises(ValueError):
            ascii_curves([quick_sweep, other])


class TestReport:
    def test_report_restricted_to_tables_is_fast_and_complete(self):
        from repro.analysis.report import generate_report

        text = generate_report(
            include_extensions=False, artifact_ids=["TAB3", "TAB2"]
        )
        assert "# Reproduction report" in text
        assert "## TAB3" in text and "## TAB2" in text
        assert "FIG9" not in text
        assert "every paper claim checked by the harness holds" in text

    def test_unknown_artifact_rejected(self):
        from repro.analysis.report import generate_report

        with pytest.raises(KeyError):
            generate_report(artifact_ids=["FIG99"])
