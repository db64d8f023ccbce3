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
* :mod:`~repro.gsu.fleet` — ``N`` guarded processes sharing a repair
  facility, solved on the exact count-vector quotient.
* :mod:`~repro.gsu.analytic` — closed-form cross-checks (a reference
  the tests compare ``Y`` against, not a solve path).
* :mod:`~repro.gsu.validation` and :mod:`~repro.gsu.hybrid` —
  protocol-simulation cross-validation and hybrid evaluation.  They run
  the discrete-event MDCD simulation (:mod:`repro.mdcd`, :mod:`repro.des`),
  so the package does not import them: import them by module path.
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

__all__ = [
    "PAPER_TABLE3",
    "ConstituentSolver",
    "GSUParameters",
    "OptimalDuration",
    "PerformabilityEvaluation",
    "build_translation_pipeline",
    "evaluate_batch",
    "evaluate_index",
    "find_optimal_phi",
]
