"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import sqlite3
import sys
from contextlib import closing

import numpy as np
import pytest
from hypothesis import settings

# Pinned Hypothesis profiles.  "ci" is the default everywhere: fully
# derandomized (fixed example database seed) with no per-example
# deadline, so property tests cannot flake on shared runners or differ
# between local and CI runs.  Export HYPOTHESIS_PROFILE=dev to explore
# with fresh random examples locally.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

from repro.ctmc.chain import CTMC
from repro.gsu.parameters import PAPER_TABLE3, GSUParameters
from repro.runtime.cache import STORE_NAME
from repro.san.activities import Case, TimedActivity
from repro.san.gates import InputGate
from repro.san.model import SANModel
from repro.san.places import Place


@pytest.fixture(autouse=True)
def _no_warm_pool_across_tests():
    """Shut the executor's warm process pool down after every test.

    A pool forked in one test would carry that test's monkeypatches and
    environment into the next, and workers that exit before the session
    ends let coverage tools collect their data.
    """
    yield
    executor = sys.modules.get("repro.runtime.executor")
    if executor is not None:
        executor.shutdown_pool()


@pytest.fixture
def paper_params() -> GSUParameters:
    """The paper's Table 3 parameter assignment."""
    return PAPER_TABLE3


@pytest.fixture
def scaled_params() -> GSUParameters:
    """Fast parameters for simulation-backed tests."""
    return GSUParameters(
        theta=20.0,
        lam=60.0,
        mu_new=0.2,
        mu_old=1e-4,
        coverage=0.9,
        p_ext=0.1,
        alpha=600.0,
        beta=600.0,
    )


@pytest.fixture
def two_state_chain() -> CTMC:
    """up -> down at rate 0.5 (closed-form survival exp(-0.5 t))."""
    return CTMC.two_state_failure(0.5)


@pytest.fixture
def birth_death_chain() -> CTMC:
    """An M/M/1/3 queue CTMC (arrival 2, service 3) for analytic checks."""
    return CTMC.from_rates(
        4,
        {
            (0, 1): 2.0,
            (1, 2): 2.0,
            (2, 3): 2.0,
            (1, 0): 3.0,
            (2, 1): 3.0,
            (3, 2): 3.0,
        },
    )


def mm1k_stationary(arrival: float, service: float, capacity: int) -> np.ndarray:
    """Closed-form stationary distribution of an M/M/1/K queue."""
    rho = arrival / service
    weights = np.array([rho**k for k in range(capacity + 1)])
    return weights / weights.sum()


@pytest.fixture
def mm13_stationary() -> np.ndarray:
    """Stationary distribution matching ``birth_death_chain``."""
    return mm1k_stationary(2.0, 3.0, 3)


# ----------------------------------------------------------------------
# Randomized-chain generators (shared by the cross-solver differential
# harness and the property tests).  Seeded: the same (num_states, seed,
# density, rate_scale) always yields the same chain, so differential
# failures reproduce exactly from the printed parameters.
# ----------------------------------------------------------------------


def make_random_chain(
    num_states: int,
    seed: int,
    density: float = 0.4,
    rate_scale: float = 1.0,
) -> CTMC:
    """A random irreducible-ish CTMC with seeded structure and rates.

    Off-diagonal rates are uniform on ``(0, rate_scale]`` over a random
    sparsity mask; a cyclic backbone guarantees every state has an exit
    so no accidental absorbing states distort solver comparisons.  The
    initial distribution is a random stochastic vector.
    """
    rng = np.random.default_rng(seed)
    mask = rng.random((num_states, num_states)) < density
    np.fill_diagonal(mask, False)
    q = np.where(mask, rng.uniform(0.1, 1.0, mask.shape), 0.0) * rate_scale
    for i in range(num_states):  # the cyclic backbone
        q[i, (i + 1) % num_states] = rng.uniform(0.1, 1.0) * rate_scale
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    initial = rng.random(num_states)
    return CTMC(q, initial=initial / initial.sum())


def make_random_rewards(num_states: int, seed: int) -> np.ndarray:
    """A seeded reward vector on ``[-1, 1]`` (signed — exercises the
    ``max|r|`` term of the accrual certificates)."""
    rng = np.random.default_rng(seed + 7919)
    return rng.uniform(-1.0, 1.0, num_states)


def make_small_fleet(
    n: int,
    seed: int,
    repair_servers: int = 1,
    heterogeneous: bool = False,
):
    """A small MDCD fleet for differential tests: ``(flat, lumped,
    rewards)`` with seeded rates.

    ``heterogeneous=True`` splits the fleet into two rate groups
    (staged upgrade), in which case ``lumped`` is the grouped partial
    quotient.  ``rewards`` is the flat-space operational fraction;
    ``lumped_rewards`` its image on the quotient's states.
    """
    from repro.san.composition import FLEET_FAILED, FleetRates, fleet_chain, fleet_digits
    from repro.san.symmetry import (
        fleet_group_states,
        fleet_grouped_lumped_chain,
        fleet_rate_groups,
    )

    rng = np.random.default_rng(seed + 104729)

    def _rates() -> FleetRates:
        return FleetRates(
            contaminate=rng.uniform(0.01, 0.2),
            detect=rng.uniform(1.0, 4.0),
            fail=rng.uniform(0.1, 1.0),
            repair=rng.uniform(0.5, 3.0),
        )

    if heterogeneous and n >= 2:
        upgraded = int(rng.integers(1, n))
        first, second = _rates(), _rates()
        rates = [first] * upgraded + [second] * (n - upgraded)
    else:
        rates = [_rates()] * n
    flat = fleet_chain(n, rates, repair_servers=repair_servers)
    lumped = fleet_grouped_lumped_chain(rates, repair_servers=repair_servers)
    digits = fleet_digits(n)
    rewards = (digits != FLEET_FAILED).sum(axis=1).astype(np.float64) / n
    sizes = [len(m) for m, _ in fleet_rate_groups(rates)]
    lumped_rewards = np.array(
        [
            (n - sum(vec[3] for vec in state)) / n
            for state in fleet_group_states(sizes)
        ]
    )
    return flat, lumped, rewards, lumped_rewards


@pytest.fixture
def random_chain_factory():
    """The seeded random-chain builder, as a fixture for discoverability."""
    return make_random_chain


@pytest.fixture
def simple_san() -> SANModel:
    """A two-place SAN cycling one token (rates 1 and 2)."""
    places = [Place("a", initial=1, capacity=1), Place("b", capacity=1)]
    forward = TimedActivity(
        "forward", rate=1.0, input_arcs=[("a", 1)],
        cases=[Case(output_arcs=(("b", 1),))],
    )
    backward = TimedActivity(
        "backward", rate=2.0, input_arcs=[("b", 1)],
        cases=[Case(output_arcs=(("a", 1),))],
    )
    return SANModel("cycle", places, [forward, backward])


@pytest.fixture
def absorbing_san() -> SANModel:
    """A SAN with an absorbing failure marking (work -> fail at 0.1)."""
    places = [Place("working", initial=1, capacity=1), Place("failed", capacity=1)]
    fail = TimedActivity(
        "fail",
        rate=0.1,
        input_arcs=[("working", 1)],
        cases=[Case(output_arcs=(("failed", 1),))],
        input_gates=[InputGate("ig_alive", predicate=lambda m: m["failed"] == 0)],
    )
    return SANModel("failure", places, [fail])


def store_rows(root) -> dict[str, str]:
    """Every ``key -> body`` row of the result-cache store under ``root``."""
    with closing(sqlite3.connect(root / STORE_NAME)) as connection:
        return dict(connection.execute("SELECT key, body FROM entries"))


def set_store_body(root, key: str, body) -> None:
    """Overwrite one stored row's body (damages it for fault tests)."""
    with closing(sqlite3.connect(root / STORE_NAME)) as connection:
        with connection:
            updated = connection.execute(
                "UPDATE entries SET body = ? WHERE key = ?", (body, key)
            ).rowcount
    assert updated == 1, f"no stored row for {key}"
