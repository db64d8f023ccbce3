"""Fleet performability: N guarded MDCD processes, shared repair.

The paper analyses a *single* process pair under guarded operation; this
module scales the same MDCD semantics to a fleet of ``N`` processes
upgraded together, with a bounded repair facility shared across the
fleet.  Each process walks the four-state local chain of
:mod:`repro.san.composition` (ok → contaminated → detected/failed, with
shared-repair recovery), rates derived from the Table 3 parameters:

* contamination at the fault-manifestation rate ``mu``;
* detection at ``lam * p_ext * coverage`` — the guard's acceptance test
  catches an erroneous external message;
* failure at ``lam * p_ext * (1 - coverage)`` — the error escapes;
* repair at ``repair_rate`` per server, ``repair_servers`` servers
  shared fleet-wide (the coupling that breaks product form).

The fleet measure is ``Y(phi)``: the expected fraction of processes
still operational (not failed) at the end of a guarded operation of
duration ``phi``.  A second measure, the expected cumulative
operational fraction ``int_0^phi E[frac_op(u)] du / phi``, exercises the
accumulated-reward solvers.

Both measures are symmetric in the processes, so the exact quotient
answers them:

``lumped``
    The default and the only representation a user surface reaches:
    the exact symmetry quotient over per-rate-group occupancy counts —
    one group of ``C(N + 3, 3)`` states for a homogeneous fleet, two
    for a staged upgrade.
``flat``
    The full ``4**N``-state product chain, assembled directly in CSR.
    It is the oracle that verifies the lumping, and the scale workload
    of the sparse-solver benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

# accumulated_reward, transient_distribution and fleet_lumped_chain are
# unused here, but perfbench/tracing.py wraps them on this module until
# request-scoped traces replace it (ROADMAP item 3).
from repro.ctmc.accumulated import (
    accumulated_reward,  # noqa: F401  (perfbench/tracing.py, ROADMAP item 3)
    transient_accumulated_grid,
)
from repro.ctmc.chain import CTMC
from repro.ctmc.transient import (
    transient_distribution,  # noqa: F401  (perfbench/tracing.py, ROADMAP item 3)
)
from repro.gsu.parameters import GSUParameters
from repro.san.composition import (
    FLEET_FAILED,
    FleetRates,
    fleet_chain,
    fleet_digits,
)
from repro.san.symmetry import (
    fleet_group_states,
    fleet_grouped_lumped_chain,
    fleet_lumped_chain,  # noqa: F401  (perfbench/tracing.py, ROADMAP item 3)
    fleet_rate_groups,
)

#: Supported solver representations (see module docstring).
FLEET_MODES = ("lumped", "flat")


@dataclass(frozen=True)
class FleetParameters:
    """Parameters of an N-process guarded fleet.

    The per-process rate knobs mirror :class:`GSUParameters` (same Table
    3 semantics, hours everywhere); the fleet-level knobs size the
    composition.

    Attributes
    ----------
    n_processes:
        Fleet size ``N`` (flat state space is ``4**N``).
    repair_servers:
        Concurrent repairs the shared facility sustains.
    repair_rate:
        Per-server repair completion rate (per hour).
    lam / mu / coverage / p_ext / theta:
        As in :class:`GSUParameters` (``mu`` is the new-version
        fault-manifestation rate ``mu_new``).
    n_upgraded / mu_legacy:
        The staged-upgrade scenario.  Both ``None`` (the default) means
        the whole fleet runs the new version.  Otherwise the first
        ``n_upgraded`` processes run at ``mu`` and the remaining
        ``n_processes - n_upgraded`` still run the old version at
        ``mu_legacy`` — a heterogeneous fleet that only *partially*
        lumps (per-group count vectors instead of one count vector).
    """

    n_processes: int = 9
    repair_servers: int = 2
    repair_rate: float = 2.0
    lam: float = 1_200.0
    mu: float = 1e-4
    coverage: float = 0.95
    p_ext: float = 0.1
    theta: float = 10_000.0
    n_upgraded: int | None = None
    mu_legacy: float | None = None

    def __post_init__(self):
        if self.n_processes < 1:
            raise ValueError(
                f"n_processes must be >= 1, got {self.n_processes}"
            )
        if self.repair_servers < 1:
            raise ValueError(
                f"repair_servers must be >= 1, got {self.repair_servers}"
            )
        for name in ("repair_rate", "lam", "mu", "theta"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError(
                f"coverage must be in [0, 1], got {self.coverage}"
            )
        if not 0.0 < self.p_ext <= 1.0:
            raise ValueError(f"p_ext must be in (0, 1], got {self.p_ext}")
        if (self.n_upgraded is None) != (self.mu_legacy is None):
            raise ValueError(
                "staged upgrades need both n_upgraded and mu_legacy "
                "(or neither)"
            )
        if self.n_upgraded is not None:
            if not 0 <= self.n_upgraded <= self.n_processes:
                raise ValueError(
                    f"n_upgraded must lie in [0, n_processes="
                    f"{self.n_processes}], got {self.n_upgraded}"
                )
            if self.mu_legacy <= 0:
                raise ValueError(
                    f"mu_legacy must be positive, got {self.mu_legacy}"
                )

    @classmethod
    def from_gsu(
        cls,
        params: GSUParameters,
        n_processes: int = 9,
        repair_servers: int = 2,
        repair_rate: float = 2.0,
    ) -> "FleetParameters":
        """Derive fleet parameters from a Table 3 parameter set."""
        return cls(
            n_processes=n_processes,
            repair_servers=repair_servers,
            repair_rate=repair_rate,
            lam=params.lam,
            mu=params.mu_new,
            coverage=params.coverage,
            p_ext=params.p_ext,
            theta=params.theta,
        )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def flat_states(self) -> int:
        """Flat product-space size ``4**N``."""
        return 4**self.n_processes

    @property
    def staged(self) -> bool:
        """Whether this is a staged-upgrade (heterogeneous) scenario."""
        return self.n_upgraded is not None

    @property
    def lumped_states(self) -> int:
        """Quotient size: ``C(N + 3, 3)`` for a homogeneous fleet,
        the product of per-rate-group counts for a staged one."""
        groups = fleet_rate_groups(self.rates_sequence())
        return math.prod(
            math.comb(len(members) + 3, 3) for members, _ in groups
        )

    def rates(self) -> FleetRates:
        """The new-version per-process transition-class rates."""
        external = self.lam * self.p_ext
        return FleetRates(
            contaminate=self.mu,
            detect=external * self.coverage,
            fail=external * (1.0 - self.coverage),
            repair=self.repair_rate,
        )

    def rates_sequence(self) -> tuple[FleetRates, ...]:
        """Per-process rates, in process order.

        Homogeneous fleets repeat :meth:`rates`; staged fleets put the
        ``n_upgraded`` new-version processes first, then the legacy
        stragglers — same guard (detect/fail derive from ``lam``,
        ``p_ext``, ``coverage``) but the old fault-manifestation rate
        ``mu_legacy``.
        """
        new = self.rates()
        if not self.staged:
            return (new,) * self.n_processes
        legacy = FleetRates(
            contaminate=self.mu_legacy,
            detect=new.detect,
            fail=new.fail,
            repair=new.repair,
        )
        return (new,) * self.n_upgraded + (legacy,) * (
            self.n_processes - self.n_upgraded
        )

    def validate_phi(self, phi: float) -> float:
        """Check a guarded-operation duration against ``[0, theta]``."""
        if not 0.0 <= phi <= self.theta:
            raise ValueError(
                f"phi must lie in [0, theta={self.theta}], got {phi}"
            )
        return float(phi)

    def to_dict(self) -> dict:
        """Plain-data form (cache keys, manifests, HTTP payloads)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "FleetParameters":
        """Rebuild from :meth:`to_dict` output (extra keys rejected)."""
        return cls(**payload)

    def with_overrides(self, **changes) -> "FleetParameters":
        """A copy with some parameters replaced."""
        return replace(self, **changes)


class FleetSolver:
    """Solves fleet ``Y(phi)`` curves for one parameter set.

    The chain (lumped or flat, per ``mode``) is built lazily on first
    use and reused across queries.  ``mode="lumped"``, the exact
    quotient, answers every production query; ``mode="flat"`` is the
    oracle for the lumping and the scaling benchmark's workload.

    Every curve is one fused transient+accumulated grid solve over its
    unique phis: on the stiff chains fleets produce, one chain of
    squarings of the augmented generator serves the whole curve and
    both measures (:meth:`_measures`).  :meth:`curve`,
    :meth:`operational_time_curve` and :meth:`batch` all read that one
    solve, so their ``Y`` agree bitwise.
    """

    def __init__(self, params: FleetParameters, mode: str = "lumped"):
        if mode not in FLEET_MODES:
            raise ValueError(
                f"unknown fleet mode {mode!r}; choose from {FLEET_MODES}"
            )
        self.params = params
        self.mode = mode
        self._chain: CTMC | None = None
        self._rewards: np.ndarray | None = None

    def chain(self) -> CTMC:
        """The (lazily built, cached) fleet CTMC.

        The flat chain takes per-process rates; the lumped one is the
        grouped count quotient over the same rates (one group for a
        homogeneous fleet, two for a staged upgrade).
        """
        if self._chain is None:
            p = self.params
            if self.mode == "flat":
                self._chain = fleet_chain(
                    p.n_processes,
                    p.rates_sequence(),
                    repair_servers=p.repair_servers,
                )
            else:
                self._chain = fleet_grouped_lumped_chain(
                    p.rates_sequence(), repair_servers=p.repair_servers
                )
        return self._chain

    def operational_rewards(self) -> np.ndarray:
        """Per-state fraction of processes that are not failed."""
        if self._rewards is None:
            p = self.params
            n = p.n_processes
            if self.mode == "flat":
                digits = fleet_digits(n)
                self._rewards = (
                    (digits != FLEET_FAILED).sum(axis=1).astype(np.float64)
                    / n
                )
            else:
                groups = fleet_rate_groups(p.rates_sequence())
                sizes = [len(members) for members, _ in groups]
                self._rewards = np.array(
                    [
                        (n - sum(vec[3] for vec in state)) / n
                        for state in fleet_group_states(sizes)
                    ]
                )
        return self._rewards

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------
    def curve(self, phis: Sequence[float], method: str = "auto") -> np.ndarray:
        """``Y(phi)`` at every requested duration.

        ``Y(phi) = E[fraction of operational processes at time phi]``,
        the instant half of :meth:`_measures`; ``method`` is a method of
        :func:`~repro.ctmc.accumulated.transient_accumulated_grid`.
        """
        return self._measures(phis, method)[0]

    def value(self, phi: float, method: str = "auto") -> float:
        """``Y(phi)`` at a single duration."""
        return float(self.curve([phi], method=method)[0])

    def operational_time_curve(
        self, phis: Sequence[float], method: str = "auto"
    ) -> np.ndarray:
        """Expected cumulative operational fraction ``int_0^phi ... du``,
        the accumulated half of :meth:`_measures`."""
        return self._measures(phis, method)[1]

    def _measures(
        self, phis: Sequence[float], method: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(Y, operational_time)`` at every requested duration.

        One fused :func:`~repro.ctmc.accumulated.transient_accumulated_grid`
        call over the unique phis (``method`` is one of its methods)
        serves both measures, broadcast back to duplicates.  On the
        stiff chains fleets produce, ``auto`` picks ``augmented-expm``:
        one chain of squarings serves every phi, yet each row depends
        only on its own phi, so a value never depends on which other
        durations ride along — the property that keeps campaign
        results bitwise identical across job counts and chunk sizes.
        ``Y`` is a per-row dot product for the same reason.  A
        non-stiff fleet (short ``theta``) takes the uniformization
        walk, whose rows can differ in the last bits from grid to grid.
        """
        grid = self._validated_grid(phis)
        unique, inverse = np.unique(grid, return_inverse=True)
        rewards = self.operational_rewards()
        rows, acc = transient_accumulated_grid(
            self.chain(), rewards, unique, method=method
        )
        y = np.array([float(row @ rewards) for row in rows])
        return y[inverse], acc[inverse]

    def batch(self, phis: Sequence[float]) -> list[dict[str, float]]:
        """Both fleet measures for many durations at once.

        Returns one ``{"Y": ..., "operational_time": ...}`` dict per
        requested phi, in request order.
        """
        y, op_time = self._measures(phis, "auto")
        return [
            {"Y": float(a), "operational_time": float(b)}
            for a, b in zip(y, op_time)
        ]

    def _validated_grid(self, phis: Sequence[float]) -> np.ndarray:
        grid = np.asarray([self.params.validate_phi(p) for p in phis])
        if grid.size == 0:
            raise ValueError("need at least one phi")
        return grid
