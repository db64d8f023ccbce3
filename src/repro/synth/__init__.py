"""Design synthesis over the guarded-operation parameter space.

Everything the paper's Table 3 treats as a what-if lever — duration
``phi``, fault rates, coverage, acceptance-test and checkpoint rates —
becomes a joint optimization variable here: projected-gradient ascent
on ``Y`` over a lever box, optionally constrained by a steady-state
overhead budget, with distribution-level measures (quantiles and
exceedance probabilities of accumulated reward) computed analytically
and validated against trajectory simulation.

The package does not import :mod:`repro.synth.validate`: that check runs
the simulation column (:mod:`repro.verify`), which a synthesis without
``--validate`` never needs.  Import it by module path.
"""

from repro.synth.distribution import (
    AccumulatedRewardDistribution,
    UniformizationBudgetError,
    accumulated_distribution,
    accumulated_moments,
)
from repro.synth.driver import SynthesisResult, run_synthesis
from repro.synth.levers import (
    LEVER_FIELDS,
    LeverSpec,
    apply_point,
    default_bounds,
    resolve_levers,
)
from repro.synth.objective import (
    ObjectiveEvaluator,
    SynthesisProblem,
    local_evaluate_fn,
    overhead_from_constituents,
)
from repro.synth.optimizer import SynthesisConfig, compute_step, starting_points

__all__ = [
    "AccumulatedRewardDistribution",
    "UniformizationBudgetError",
    "accumulated_distribution",
    "accumulated_moments",
    "SynthesisResult",
    "run_synthesis",
    "LEVER_FIELDS",
    "LeverSpec",
    "apply_point",
    "default_bounds",
    "resolve_levers",
    "ObjectiveEvaluator",
    "SynthesisProblem",
    "local_evaluate_fn",
    "overhead_from_constituents",
    "SynthesisConfig",
    "compute_step",
    "starting_points",
]
