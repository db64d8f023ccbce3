"""The guarded-software-upgrading (GSU) case study.

Reproduces the paper's analysis end-to-end:

* :class:`~repro.gsu.parameters.GSUParameters` — the parameter set of
  Table 3.
* :mod:`~repro.gsu.models` — the three SAN reward models ``RMGd``
  (Fig. 6), ``RMGp`` (Fig. 7) and ``RMNd`` (Fig. 8).
* :class:`~repro.gsu.measures.ConstituentSolver` — the nine constituent
  measures with their Table 1 / Table 2 reward structures.
* :mod:`~repro.gsu.performability` — the translation pipeline computing
  the performability index ``Y(phi)``.
* :mod:`~repro.gsu.optimizer` — optimal guarded-operation duration
  search.
* :mod:`~repro.gsu.analytic` — closed-form cross-checks.
* :mod:`~repro.gsu.validation` — protocol-simulation cross-validation.
"""

from repro.gsu.parameters import PAPER_TABLE3, GSUParameters
from repro.gsu.measures import ConstituentSolver
from repro.gsu.performability import (
    PerformabilityEvaluation,
    build_translation_pipeline,
    evaluate_batch,
    evaluate_index,
)
from repro.gsu.optimizer import OptimalDuration, find_optimal_phi
from repro.gsu.hybrid import HybridEvaluation, hybrid_evaluate
from repro.gsu.validation import ValidationReport, validate_constituents

__all__ = [
    "PAPER_TABLE3",
    "ConstituentSolver",
    "GSUParameters",
    "HybridEvaluation",
    "OptimalDuration",
    "PerformabilityEvaluation",
    "ValidationReport",
    "build_translation_pipeline",
    "evaluate_batch",
    "evaluate_index",
    "find_optimal_phi",
    "hybrid_evaluate",
    "validate_constituents",
]
