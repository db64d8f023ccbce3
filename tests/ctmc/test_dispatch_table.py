"""The ``auto`` dispatch table: which backend each solve kind records.

Every row is a chain class the solvers meet in practice — the paper's
reward models (7, 24 and 42 states), lumped fleets, a chain above
``DENSE_STATE_LIMIT``, a chain of exactly the dense limit, and small
non-stiff chains — at a horizon that puts it on one side of the
stiffness threshold.  For each row, a one-point and an 11-point grid of
each solve kind (transient, accumulated, fused), and the two scalar
calls, must record exactly the pinned ``config.dispatch_counts()``
delta.  Dense exponentials count one solve per unique grid point; every
other backend counts one pass per grid.

A ``t = 0`` scalar solve records no backend at all.

Rows whose real-cutoff version would take minutes (a stiff Krylov walk
on thousands of states, a dense exponential of the dense limit) lower
the cutoffs through their ``REPRO_`` overrides instead; the comparison
under test is the same.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ctmc import config
from repro.ctmc.accumulated import (
    accumulated_grid,
    accumulated_reward,
    transient_accumulated_grid,
)
from repro.ctmc.chain import CTMC
from repro.ctmc.config import DENSE_STATE_LIMIT
from repro.ctmc.transient import transient_distribution, transient_grid

GRID_POINTS = 11

#: Backends that count one solve per unique grid point.
PER_POINT = ("dense-expm", "augmented-expm")


def _paper(kind: str) -> CTMC:
    from repro.gsu.parameters import PAPER_TABLE3
    from repro.gsu.templates import shared_cache

    return shared_cache().compiled(kind, PAPER_TABLE3).chain


def _fleet(processes: int) -> CTMC:
    from repro.gsu.fleet import FleetParameters
    from repro.san.symmetry import fleet_lumped_chain

    params = FleetParameters(n_processes=processes)
    return fleet_lumped_chain(
        processes, params.rates(), repair_servers=params.repair_servers
    )


def _birth_death(n: int) -> CTMC:
    rates = {}
    for i in range(n - 1):
        rates[(i, i + 1)] = 1.0
        rates[(i + 1, i)] = 0.5
    return CTMC.from_rates(n, rates)


LOW_STIFFNESS = {"REPRO_AUTO_STIFFNESS_THRESHOLD": "10"}

#: (id, chain, horizon, env overrides, transient backend, accumulated
#: backend).  The fused solver records the accumulated backend.
ROWS = [
    ("RMNd-7-stiff", lambda: _paper("RMNd_new"), 1e4, {},
     "spectral", "augmented-expm"),
    ("RMGp-24-stiff", lambda: _paper("RMGp"), 1e4, {},
     "spectral", "augmented-expm"),
    ("RMGd-42-stiff", lambda: _paper("RMGd"), 1e4, {},
     "dense-expm", "augmented-expm"),
    ("RMGd-42-nonstiff", lambda: _paper("RMGd"), 1e-3, {},
     "uniformization", "uniformization"),
    ("fleet-84-stiff", lambda: _fleet(6), 1e4, {},
     "dense-expm", "augmented-expm"),
    ("fleet-220-stiff", lambda: _fleet(9), 1e4, {},
     "dense-expm", "augmented-expm"),
    ("fleet-220-nonstiff", lambda: _fleet(9), 1e-3, {},
     "uniformization", "uniformization"),
    ("above-dense-nonstiff", lambda: _birth_death(DENSE_STATE_LIMIT + 10),
     10.0, {}, "uniformization", "uniformization"),
    ("above-dense-stiff", lambda: _birth_death(DENSE_STATE_LIMIT + 10),
     100.0, LOW_STIFFNESS, "krylov", "augmented-krylov"),
    ("at-dense-limit-stiff", lambda: _birth_death(40), 100.0,
     {**LOW_STIFFNESS, "REPRO_DENSE_STATE_LIMIT": "40"},
     "dense-expm", "augmented-expm"),
    ("small-nonstiff", lambda: _birth_death(4), 1.0, {},
     "uniformization", "uniformization"),
]


def _delta(solve) -> dict[str, int]:
    before = config.dispatch_counts()
    solve()
    after = config.dispatch_counts()
    return {
        name: count - before.get(name, 0)
        for name, count in after.items()
        if count != before.get(name, 0)
    }


def _expected(backend: str, points: int) -> dict[str, int]:
    return {backend: points if backend in PER_POINT else 1}


@pytest.mark.parametrize(
    "build, horizon, env, transient, accumulated",
    [row[1:] for row in ROWS],
    ids=[row[0] for row in ROWS],
)
def test_dispatch_table(monkeypatch, build, horizon, env, transient, accumulated):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    chain = build()
    rewards = np.linspace(0.0, 1.0, chain.num_states)
    curve = np.linspace(0.0, horizon, GRID_POINTS)

    assert _delta(
        lambda: transient_distribution(chain, horizon, method="auto")
    ) == _expected(transient, 1)
    assert _delta(
        lambda: accumulated_reward(chain, rewards, horizon, method="auto")
    ) == _expected(accumulated, 1)
    for grid, points in (([horizon], 1), (curve, GRID_POINTS)):
        assert _delta(lambda: transient_grid(chain, grid)) == _expected(
            transient, points
        )
        assert _delta(
            lambda: accumulated_grid(chain, rewards, grid)
        ) == _expected(accumulated, points)
        assert _delta(
            lambda: transient_accumulated_grid(chain, rewards, grid)
        ) == _expected(accumulated, points)

    # t = 0 is answered without a solve.
    assert _delta(
        lambda: transient_distribution(chain, 0.0, method="auto")
    ) == {}
    assert _delta(
        lambda: accumulated_reward(chain, rewards, 0.0, method="auto")
    ) == {}
