"""The nine constituent measures and their SAN reward structures.

This module is the executable form of the paper's Tables 1 and 2 plus the
``RMNd`` reward structure of Section 5.2.3.  Each reward structure is a
predicate-rate pair list exactly as specified (UltraSAN style), written
against the markings of :mod:`repro.gsu.models`.

==================  =======  =============================================
measure             model    reward variable
==================  =======  =============================================
``int_h``           RMGd     instant at ``phi``; ``detected==1 && failure==0`` rate 1
``int_tau_h``       RMGd     accumulated over ``[0, phi]``; ``detected==0``
                             rate 1, ``detected==0 && failure==1`` rate -1
``int_hf``          RMGd     instant at ``phi``; ``detected==1 && failure==1`` rate 1
``p_gd_phi_a1``     RMGd     instant at ``phi``; ``detected==0 && failure==0`` rate 1
``rho1``            RMGp     1 - steady state of ``MARK(P1nExt)==1`` rate 1
``rho2``            RMGp     1 - steady state of P2's checkpoint/AT busy states
``p_nd_theta``      RMNd     instant at ``theta``; ``failure==0`` rate 1 (``mu_new``)
``p_nd_theta_phi``  RMNd     instant at ``theta - phi``; same structure (``mu_new``)
``int_f``           RMNd     1 - instant at ``theta - phi``; same structure (``mu_old``)
==================  =======  =============================================
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from repro.gsu.parameters import GSUParameters
from repro.san.ctmc_builder import CompiledSAN, build_ctmc
from repro.san.rewards import (
    DEFAULT_METHOD,
    PredicateRatePair,
    RewardStructure,
    instant_and_interval_many,
    instant_of_time,
    instant_of_time_many,
    interval_of_time,
    steady_state,
    steady_state_many,
)

# ----------------------------------------------------------------------
# Reward structures (Table 1 — RMGd)
# ----------------------------------------------------------------------
#: ``int_0^phi h(tau) dtau`` — P(error detected and no failure by phi).
RS_INT_H = RewardStructure(
    name="int_h",
    rate_rewards=(
        PredicateRatePair(
            predicate=lambda m: m["detected"] == 1 and m["failure"] == 0,
            rate=1.0,
            label="MARK(detected)==1 && MARK(failure)==0",
        ),
    ),
)

#: ``int_0^phi tau h(tau) dtau`` — mean time to error detection, as the
#: accumulated reward the paper specifies (+1 on A2', -1 on A4').
RS_INT_TAU_H = RewardStructure(
    name="int_tau_h",
    rate_rewards=(
        PredicateRatePair(
            predicate=lambda m: m["detected"] == 0,
            rate=1.0,
            label="MARK(detected)==0",
        ),
        PredicateRatePair(
            predicate=lambda m: m["detected"] == 0 and m["failure"] == 1,
            rate=-1.0,
            label="MARK(detected)==0 && MARK(failure)==1",
        ),
    ),
)

#: ``int_0^phi int_tau^phi h(tau) f(x) dx dtau`` — P(detected during G-OP
#: and the recovered system fails by phi).
RS_INT_HF = RewardStructure(
    name="int_hf",
    rate_rewards=(
        PredicateRatePair(
            predicate=lambda m: m["detected"] == 1 and m["failure"] == 1,
            rate=1.0,
            label="MARK(detected)==1 && MARK(failure)==1",
        ),
    ),
)

#: ``P(X'_phi in A1')`` — no error occurred through the G-OP interval.
RS_A1_GOP = RewardStructure(
    name="p_a1_gop",
    rate_rewards=(
        PredicateRatePair(
            predicate=lambda m: m["detected"] == 0 and m["failure"] == 0,
            rate=1.0,
            label="MARK(detected)==0 && MARK(failure)==0",
        ),
    ),
)

# ----------------------------------------------------------------------
# Reward structures (Table 2 — RMGp); solved as 1 - rho.
# ----------------------------------------------------------------------
#: ``1 - rho1`` — fraction of time P1new is not making forward progress.
RS_OVERHEAD_1 = RewardStructure(
    name="overhead_p1n",
    rate_rewards=(
        PredicateRatePair(
            predicate=lambda m: m["P1nExt"] == 1,
            rate=1.0,
            label="MARK(P1nExt)==1",
        ),
    ),
)

#: ``1 - rho2`` — fraction of time P2 is checkpointing or running an AT.
RS_OVERHEAD_2 = RewardStructure(
    name="overhead_p2",
    rate_rewards=(
        PredicateRatePair(
            predicate=lambda m: m["P2Check"] == 1,
            rate=1.0,
            label="MARK(P2Check)==1 (checkpoint establishment)",
        ),
        PredicateRatePair(
            predicate=lambda m: m["P2Ext"] == 1 and m["P2DB"] == 1,
            rate=1.0,
            label="MARK(P2Ext)==1 && MARK(P2DB)==1 (AT validation)",
        ),
    ),
)

# ----------------------------------------------------------------------
# Reward structure (Section 5.2.3 — RMNd)
# ----------------------------------------------------------------------
#: ``P(no failure by t)`` in the normal mode.
RS_ND_ALIVE = RewardStructure(
    name="nd_alive",
    rate_rewards=(
        PredicateRatePair(
            predicate=lambda m: m["failure"] == 0,
            rate=1.0,
            label="MARK(failure)==0",
        ),
    ),
)


class ConstituentSolver:
    """Solves the nine constituent measures for one parameter set.

    Base models are compiled lazily and cached; in a ``phi`` sweep the
    same compiled models serve every sweep point.

    With ``parametric=True`` (the default) models come from the
    process-wide template cache of :mod:`repro.gsu.templates`: the state
    space is explored once per model structure and each parameter set is
    a cheap rate re-stamp, bitwise identical to a fresh build.  Every
    campaign, sweep and verification run solves this way.
    ``parametric=False`` forces fresh ``build_ctmc`` compiles — the
    reference the oracles and tests hold the re-stamp path to (see
    :func:`repro.verify.oracles.constituent_paths_disagreement`).
    """

    def __init__(self, params: GSUParameters, parametric: bool = True):
        self.params = params
        self.parametric = bool(parametric)

    # ------------------------------------------------------------------
    # Compiled base models
    # ------------------------------------------------------------------
    def _compiled(self, kind: str) -> CompiledSAN:
        # Imported lazily so the template machinery stays off the import
        # path of callers that never compile a model.
        from repro.gsu import templates

        if self.parametric:
            return templates.shared_cache().compiled(kind, self.params)
        return build_ctmc(templates.model_builder(kind)(self.params))

    @cached_property
    def rm_gd(self) -> CompiledSAN:
        """``RMGd`` compiled to a CTMC."""
        return self._compiled("RMGd")

    @cached_property
    def rm_gp(self) -> CompiledSAN:
        """``RMGp`` compiled to a CTMC."""
        return self._compiled("RMGp")

    @cached_property
    def rm_nd_new(self) -> CompiledSAN:
        """``RMNd`` with the first component at ``mu_new``."""
        return self._compiled("RMNd_new")

    @cached_property
    def rm_nd_old(self) -> CompiledSAN:
        """``RMNd`` with the first component at ``mu_old``."""
        return self._compiled("RMNd_old")

    def models(self) -> dict[str, CompiledSAN]:
        """All compiled base models, keyed for the evaluation context."""
        return {
            "RMGd": self.rm_gd,
            "RMGp": self.rm_gp,
            "RMNd_new": self.rm_nd_new,
            "RMNd_old": self.rm_nd_old,
        }

    # ------------------------------------------------------------------
    # Table 1 measures (RMGd)
    # ------------------------------------------------------------------
    def int_h(self, phi: float) -> float:
        """``int_0^phi h(tau) dtau`` — P(detected & recovered alive at phi)."""
        phi = self.params.validate_phi(phi)
        return instant_of_time(self.rm_gd, RS_INT_H, phi, method=DEFAULT_METHOD)

    def int_tau_h(self, phi: float) -> float:
        """``int_0^phi tau h(tau) dtau`` per the Table 1 structure."""
        phi = self.params.validate_phi(phi)
        return interval_of_time(self.rm_gd, RS_INT_TAU_H, phi, method=DEFAULT_METHOD)

    def int_hf(self, phi: float) -> float:
        """``int_0^phi int_tau^phi h f`` — detected then failed by phi."""
        phi = self.params.validate_phi(phi)
        return instant_of_time(self.rm_gd, RS_INT_HF, phi, method=DEFAULT_METHOD)

    def p_gop_no_error(self, phi: float) -> float:
        """``P(X'_phi in A1')`` — survived G-OP with no error."""
        phi = self.params.validate_phi(phi)
        return instant_of_time(self.rm_gd, RS_A1_GOP, phi, method=DEFAULT_METHOD)

    def mean_detection_time_exact(self, phi: float) -> float:
        """Exact ``E[tau * 1{detected by phi}]`` (ablation alternative).

        The Table 1 accumulated structure equals
        ``E[min(tau_detect, tau_undetected_failure, phi)]``, which also
        accrues reward on sample paths that never see an error.  The
        exact detection-time moment admits its own reward solution:
        ``phi * P(detected at phi) - int_0^phi P(detected at t) dt``.
        See the ``eq18`` ablation benchmark.
        """
        phi = self.params.validate_phi(phi)
        detected_now = RewardStructure(
            name="detected_any",
            rate_rewards=(
                PredicateRatePair(
                    predicate=lambda m: m["detected"] == 1, rate=1.0
                ),
            ),
        )
        at_phi = instant_of_time(self.rm_gd, detected_now, phi, method=DEFAULT_METHOD)
        integral = interval_of_time(self.rm_gd, detected_now, phi, method=DEFAULT_METHOD)
        return phi * at_phi - integral

    # ------------------------------------------------------------------
    # Table 2 measures (RMGp)
    # ------------------------------------------------------------------
    def rho1(self) -> float:
        """Steady-state forward-progress fraction of ``P1new``."""
        return 1.0 - steady_state(self.rm_gp, RS_OVERHEAD_1)

    def rho2(self) -> float:
        """Steady-state forward-progress fraction of ``P2``."""
        return 1.0 - steady_state(self.rm_gp, RS_OVERHEAD_2)

    # ------------------------------------------------------------------
    # RMNd measures (Section 5.2.3)
    # ------------------------------------------------------------------
    def p_normal_no_failure(self, t: float, which: str = "new") -> float:
        """``P(X''_t in A1'')`` — normal mode survives ``t`` hours.

        ``which`` selects the first component's fault rate: ``"new"``
        (upgraded software) or ``"old"`` (post-recovery system).
        """
        if t < 0:
            raise ValueError(f"time must be non-negative, got {t}")
        model = self.rm_nd_new if which == "new" else self.rm_nd_old
        return instant_of_time(model, RS_ND_ALIVE, t, method=DEFAULT_METHOD)

    def int_f(self, phi: float) -> float:
        """``int_phi^theta f(x) dx`` — recovered system fails in the rest
        of the mission (complement of survival over ``theta - phi``)."""
        phi = self.params.validate_phi(phi)
        return 1.0 - self.p_normal_no_failure(self.params.theta - phi, "old")

    # ------------------------------------------------------------------
    # Batched evaluation (one solver pass per model / reward structure)
    # ------------------------------------------------------------------
    def batch(self, phis: Sequence[float]) -> list[dict[str, float]]:
        """All nine constituent measures for many durations at once.

        Returns one ``{measure_name: value}`` dict per requested ``phi``
        (input order preserved; duplicates and unsorted inputs are fine),
        with the same nine keys the translation pipeline produces.  The
        economy over calling the scalar measures point by point:

        * ``rho1``, ``rho2`` and ``p_nd_theta`` are phi-independent and
          solved exactly once instead of once per point, ``rho1`` and
          ``rho2`` from one shared RMGp steady-state solve;
        * the three RMGd instant measures (``int_h``, ``int_hf``,
          ``p_gd_phi_a1``) share a *single* transient grid solve —
          one pass over the phi grid instead of three;
        * ``int_tau_h`` shares one accumulated-grid pass;
        * the two RMNd survival curves each share one grid over the
          remaining horizons ``{theta - phi} ∪ {theta}``.

        Values match the scalar measures to well under 1e-10 (for stiff
        parameter sets the RMGd grids use arithmetic identical to the
        scalar dense/augmented matrix-exponential branches).
        """
        validated = [self.params.validate_phi(phi) for phi in phis]
        if not validated:
            return []
        theta = self.params.theta

        # Phi-independent measures: Table 2 steady states, both from one
        # stationary distribution of RMGp.
        overhead1, overhead2 = steady_state_many(
            self.rm_gp, (RS_OVERHEAD_1, RS_OVERHEAD_2)
        )
        rho1 = 1.0 - overhead1
        rho2 = 1.0 - overhead2

        # Table 1 (RMGd): one fused grid pass serves all three instant
        # measures and the accumulated measure together.
        phi_grid = sorted(set(validated))
        instants, int_tau_h = instant_and_interval_many(
            self.rm_gd, (RS_INT_H, RS_INT_HF, RS_A1_GOP), RS_INT_TAU_H, phi_grid
        )

        # RMNd survival over the remaining horizons, with theta riding
        # along so phi-independent p_nd_theta comes from the same pass.
        # The default dispatch keeps every unique time an *independent*
        # solve with scalar-identical arithmetic, so batch results do
        # not depend on how a sweep was chunked across workers.
        remaining = sorted({theta - phi for phi in validated} | {theta})
        nd_new = instant_of_time_many(self.rm_nd_new, RS_ND_ALIVE, remaining)
        nd_old = instant_of_time_many(self.rm_nd_old, RS_ND_ALIVE, remaining)

        int_h_at = dict(zip(phi_grid, instants[RS_INT_H.name]))
        int_hf_at = dict(zip(phi_grid, instants[RS_INT_HF.name]))
        a1_at = dict(zip(phi_grid, instants[RS_A1_GOP.name]))
        tau_at = dict(zip(phi_grid, int_tau_h))
        new_at = dict(zip(remaining, nd_new))
        old_at = dict(zip(remaining, nd_old))
        p_nd_theta = float(new_at[theta])

        return [
            {
                "p_nd_theta": p_nd_theta,
                "p_gd_phi_a1": float(a1_at[phi]),
                "p_nd_theta_minus_phi": float(new_at[theta - phi]),
                "rho1": rho1,
                "rho2": rho2,
                "int_h": float(int_h_at[phi]),
                "int_tau_h": float(tau_at[phi]),
                "int_hf": float(int_hf_at[phi]),
                "int_f": 1.0 - float(old_at[theta - phi]),
            }
            for phi in validated
        ]
