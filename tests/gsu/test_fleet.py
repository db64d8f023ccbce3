"""Tests for the fleet parameter family and solver."""

import numpy as np
import pytest

from repro.gsu.fleet import FLEET_MODES, FleetParameters, FleetSolver
from repro.gsu.parameters import PAPER_TABLE3


class TestFleetParameters:
    def test_defaults_reach_benchmark_scale(self):
        params = FleetParameters()
        assert params.flat_states == 4**9 == 262_144
        assert params.flat_states >= 100_000
        assert params.lumped_states == 220

    def test_from_gsu_maps_table3(self):
        params = FleetParameters.from_gsu(
            PAPER_TABLE3, n_processes=5, repair_servers=3, repair_rate=1.5
        )
        assert params.n_processes == 5
        assert params.repair_servers == 3
        assert params.repair_rate == 1.5
        assert params.lam == PAPER_TABLE3.lam
        assert params.mu == PAPER_TABLE3.mu_new
        assert params.coverage == PAPER_TABLE3.coverage
        assert params.p_ext == PAPER_TABLE3.p_ext
        assert params.theta == PAPER_TABLE3.theta

    def test_rates_derivation(self):
        params = FleetParameters(
            lam=100.0, p_ext=0.2, coverage=0.9, mu=0.5, repair_rate=3.0
        )
        rates = params.rates()
        assert rates.contaminate == 0.5
        assert rates.detect == pytest.approx(100.0 * 0.2 * 0.9)
        assert rates.fail == pytest.approx(100.0 * 0.2 * 0.1)
        assert rates.repair == 3.0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_processes", 0),
            ("repair_servers", 0),
            ("repair_rate", 0.0),
            ("lam", -1.0),
            ("mu", 0.0),
            ("coverage", 1.5),
            ("p_ext", 0.0),
            ("theta", -10.0),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            FleetParameters(**{field: value})

    def test_dict_round_trip(self):
        params = FleetParameters(n_processes=4, repair_rate=1.25)
        assert FleetParameters.from_dict(params.to_dict()) == params

    def test_from_dict_rejects_unknown_keys(self):
        payload = FleetParameters().to_dict()
        payload["bogus"] = 1
        with pytest.raises(TypeError):
            FleetParameters.from_dict(payload)

    def test_with_overrides(self):
        params = FleetParameters()
        assert params.with_overrides(n_processes=3).n_processes == 3
        assert params.n_processes == 9

    def test_validate_phi_bounds(self):
        params = FleetParameters(theta=100.0)
        assert params.validate_phi(50.0) == 50.0
        with pytest.raises(ValueError):
            params.validate_phi(101.0)
        with pytest.raises(ValueError):
            params.validate_phi(-1.0)


class TestFleetSolver:
    def test_default_mode_is_lumped(self):
        solver = FleetSolver(FleetParameters(n_processes=3))
        assert solver.mode == "lumped"
        assert solver.chain().num_states == 20

    def test_unknown_mode_rejected(self):
        assert FLEET_MODES == ("lumped", "flat")
        for mode in ("dense", "auto"):
            with pytest.raises(ValueError, match="mode"):
                FleetSolver(FleetParameters(), mode=mode)

    def test_curve_starts_at_one_and_decreases(self):
        solver = FleetSolver(FleetParameters(n_processes=4))
        phis = [0.0, 100.0, 1000.0, 5000.0, 10000.0]
        curve = solver.curve(phis)
        assert curve[0] == pytest.approx(1.0)
        assert np.all(np.diff(curve) < 0)
        assert np.all((curve >= 0.0) & (curve <= 1.0))

    def test_flat_and_lumped_agree(self):
        params = FleetParameters(n_processes=3)
        phis = [0.0, 500.0, 2000.0]
        lumped = FleetSolver(params, mode="lumped").curve(phis)
        flat = FleetSolver(params, mode="flat").curve(phis)
        assert np.allclose(lumped, flat, atol=1e-9)

    def test_duplicate_phis_share_one_solve(self):
        solver = FleetSolver(FleetParameters(n_processes=3))
        curve = solver.curve([1000.0, 0.0, 1000.0])
        assert curve[0] == curve[2]
        assert curve[1] == pytest.approx(1.0)

    def test_value_matches_curve(self):
        solver = FleetSolver(FleetParameters(n_processes=3))
        assert solver.value(2000.0) == solver.curve([2000.0])[0]

    def test_operational_time_bounded_by_phi(self):
        solver = FleetSolver(FleetParameters(n_processes=4))
        phis = [100.0, 1000.0, 10000.0]
        acc = solver.operational_time_curve(phis)
        for phi, value in zip(phis, acc):
            assert 0.0 < value <= phi

    def test_batch_combines_both_measures(self):
        solver = FleetSolver(FleetParameters(n_processes=3))
        phis = [0.0, 1000.0]
        batch = solver.batch(phis)
        assert [entry["Y"] for entry in batch] == list(solver.curve(phis))
        assert [entry["operational_time"] for entry in batch] == list(
            solver.operational_time_curve(phis)
        )

    def test_empty_grid_rejected(self):
        solver = FleetSolver(FleetParameters(n_processes=3))
        with pytest.raises(ValueError):
            solver.curve([])

    def test_phi_outside_theta_rejected(self):
        solver = FleetSolver(FleetParameters(n_processes=3, theta=100.0))
        with pytest.raises(ValueError):
            solver.curve([200.0])

    def test_rewards_match_representation(self):
        params = FleetParameters(n_processes=3)
        lumped = FleetSolver(params, mode="lumped")
        flat = FleetSolver(params, mode="flat")
        assert lumped.operational_rewards().shape == (20,)
        assert flat.operational_rewards().shape == (64,)
        for rewards in (lumped.operational_rewards(), flat.operational_rewards()):
            assert np.all((rewards >= 0.0) & (rewards <= 1.0))
