"""Backend size ladder: every ``ctmc`` grid backend timed on every rung.

Rungs are the paper's three reward-model chains (7, 24 and 42 states,
Table 3 parameters) and lumped fleets of 84, 220 and 455 states (6, 9
and 12 processes).  On each chain the transient backends run through
:func:`repro.ctmc.transient_grid` and the accumulated ones through
:func:`repro.ctmc.accumulated_grid`, each with an explicit ``method=``,
over the same 11-point grid ``[0, T]``.  ``T`` puts ``Lambda * T`` at
2e3, well below the ``auto`` stiffness threshold (5e4), so every backend —
uniformization included — is legal and finishes; the figures are the
measured crossovers that ``repro/ctmc/config.py``'s cutoffs can cite.
Metrics are ``ladder.<backend>.ms.n<states>`` (median milliseconds per
grid solve).
"""

from __future__ import annotations

import time

import numpy as np

#: Lambda * T on every rung.
UNIFORMIZED_TERMS = 2e3
GRID_POINTS = 11
#: Repeat a solve until this much time is spent (at most ``MAX_REPEATS``).
MIN_SECONDS = 0.2
MAX_REPEATS = 5

TRANSIENT = ("spectral", "dense-expm", "krylov", "uniformization")
ACCUMULATED = ("augmented-expm", "augmented-krylov")


def chains() -> list:
    from repro.gsu.fleet import FleetParameters
    from repro.gsu.parameters import PAPER_TABLE3
    from repro.gsu.templates import shared_cache
    from repro.san.symmetry import fleet_lumped_chain

    result = [
        shared_cache().compiled(kind, PAPER_TABLE3).chain
        for kind in ("RMNd_new", "RMGp", "RMGd")
    ]
    for processes in (6, 9, 12):
        params = FleetParameters(n_processes=processes)
        result.append(
            fleet_lumped_chain(processes, params.rates(),
                               repair_servers=params.repair_servers)
        )
    return result


def _time(solve) -> float:
    solve()  # untimed: first-call imports and allocations
    samples, spent = [], 0.0
    while len(samples) < MAX_REPEATS and (not samples or spent < MIN_SECONDS):
        start = time.perf_counter()
        solve()
        elapsed = time.perf_counter() - start
        samples.append(elapsed)
        spent += elapsed
    return float(np.median(samples)) * 1e3


def run() -> dict[str, float]:
    from repro.ctmc import accumulated_grid, transient_grid
    from repro.ctmc.config import limits

    spectral_limit = limits().spectral_state_limit
    metrics = {}
    for chain in chains():
        n = chain.num_states
        horizon = UNIFORMIZED_TERMS / float(np.max(chain.exit_rates()))
        grid = np.linspace(0.0, horizon, GRID_POINTS)
        rewards = np.linspace(0.0, 1.0, n)
        for method in TRANSIENT:
            if method == "spectral" and n > spectral_limit:
                continue
            metrics[f"ladder.{method}.ms.n{n}"] = _time(
                lambda: transient_grid(chain, grid, method=method)
            )
        for method in ACCUMULATED:
            metrics[f"ladder.{method}.ms.n{n}"] = _time(
                lambda: accumulated_grid(chain, rewards, grid, method=method)
            )
    return metrics


if __name__ == "__main__":
    import sys

    import common

    common.require_program()
    start = time.perf_counter()
    for name, value in run().items():
        print(f"{name} = {value:.4g} ms")
    print(f"ladder wall {time.perf_counter() - start:.1f}s", file=sys.stderr)
