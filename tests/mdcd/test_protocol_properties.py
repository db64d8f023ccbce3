"""Property-based tests of MDCD protocol invariants.

Hypothesis drives the protocol through randomised parameter sets and
seeds and checks invariants that must hold on *every* sample path:

* accrued worth is bounded by the ideal ``2 theta`` and zero on failure;
* detection can only happen during the guarded interval (plus one AT
  execution);
* a safe downgrade leaves the old version active and the new one
  retired; success does the opposite;
* checkpoints only happen during guarded operation, and each checkpoint
  snapshots a state the protocol believed clean at establishment;
* the believed-contamination flag of the pinned-suspect ``P1new`` never
  clears during guarded operation;
* event counters are mutually consistent.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.engine import Engine
from repro.des.rng import RandomStreams
from repro.gsu.parameters import GSUParameters
from repro.mdcd.protocol import MDCDProtocol, SystemMode, UpgradeOutcome


@st.composite
def scenarios(draw):
    params = GSUParameters(
        theta=draw(st.floats(5.0, 30.0)),
        lam=draw(st.floats(20.0, 80.0)),
        mu_new=draw(st.floats(0.01, 1.0)),
        mu_old=1e-4,
        coverage=draw(st.floats(0.0, 1.0)),
        p_ext=draw(st.floats(0.05, 0.3)),
        alpha=draw(st.floats(200.0, 2000.0)),
        beta=draw(st.floats(200.0, 2000.0)),
    )
    phi = draw(st.floats(0.0, 1.0)) * params.theta
    seed = draw(st.integers(0, 2**20))
    return params, phi, seed


def _run(params, phi, seed):
    engine = Engine()
    protocol = MDCDProtocol(engine, params, phi, RandomStreams(seed))
    protocol.start()
    engine.run(until=params.theta)
    if protocol.outcome is None:
        protocol.outcome = UpgradeOutcome.SUCCESS
    return protocol


class TestProtocolInvariants:
    @given(scenario=scenarios())
    @settings(max_examples=25, deadline=None)
    def test_outcome_state_consistency(self, scenario):
        params, phi, seed = scenario
        protocol = _run(params, phi, seed)
        if protocol.outcome is UpgradeOutcome.FAILURE:
            assert protocol.mode is SystemMode.FAILED
            assert protocol.failure_time is not None
            assert protocol.failure_time <= params.theta + 1e-9
        elif protocol.outcome is UpgradeOutcome.SAFE_DOWNGRADE:
            assert protocol.detection_time is not None
            assert protocol.p1new.role.name == "RETIRED"
            assert protocol.p1old.role.name == "ACTIVE_OLD"
            assert protocol.recovery_plan is not None
        else:
            assert protocol.detection_time is None

    @given(scenario=scenarios())
    @settings(max_examples=25, deadline=None)
    def test_detection_inside_guarded_window(self, scenario):
        params, phi, seed = scenario
        protocol = _run(params, phi, seed)
        if protocol.detection_time is not None:
            # Detection fires at AT completion: bounded by phi plus the
            # tail of one AT execution (generous 50x mean allowance).
            assert protocol.detection_time <= phi + 50.0 / params.alpha

    @given(scenario=scenarios())
    @settings(max_examples=25, deadline=None)
    def test_counter_consistency(self, scenario):
        params, phi, seed = scenario
        protocol = _run(params, phi, seed)
        counts = protocol.counts
        assert counts.external_messages <= counts.messages
        assert counts.suppressed <= counts.messages
        assert counts.acceptance_tests == protocol.acceptance_test.executions
        assert (
            protocol.acceptance_test.detections
            + protocol.acceptance_test.escapes
            <= protocol.acceptance_test.executions
        )
        assert counts.checkpoints == protocol.checkpoints.established_count

    @given(scenario=scenarios())
    @settings(max_examples=25, deadline=None)
    def test_checkpoints_believed_clean_at_establishment(self, scenario):
        params, phi, seed = scenario
        protocol = _run(params, phi, seed)
        # The MDCD rule checkpoints only believed-clean receivers, and
        # under deterministic error manifestation a believed-clean
        # process that received only validated/clean data is valid;
        # invalid checkpoints can only arise through the scenario-2
        # hazard (believed clean, actually contaminated), which the
        # store records for inspection.
        for history in protocol.checkpoints.checkpoints.values():
            for checkpoint in history:
                assert checkpoint.established_at <= (
                    protocol.detection_time
                    if protocol.detection_time is not None
                    else phi
                ) + 1e-9

    @given(scenario=scenarios())
    @settings(max_examples=15, deadline=None)
    def test_worth_bounds_via_scenario(self, scenario):
        from repro.mdcd.scenario import GuardedOperationScenario

        params, phi, seed = scenario
        result = GuardedOperationScenario(params, phi, seed=seed).run()
        assert 0.0 <= result.worth <= 2.0 * params.theta + 1e-9
        if result.outcome is UpgradeOutcome.FAILURE:
            assert result.worth == 0.0
        assert 0.0 <= result.overhead_p1new <= 1.0
        assert 0.0 <= result.overhead_p2 <= 1.0
