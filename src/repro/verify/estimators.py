"""The nine-measure estimator map and per-model simulation blocks.

One *block* is the schedulable unit of conformance simulation: a batch
of independent replications of one base model (``RMGd`` / ``RMGp`` /
``RMNd_new`` / ``RMNd_old``), reduced to mergeable moment summaries per
raw estimand.  A single ``RMGd`` block serves four constituent measures
at every ``phi`` from one trajectory pass; the two ``RMNd`` blocks serve
the survival probabilities; the ``RMGp`` block serves both steady-state
overheads.  Blocks from different seeds merge exactly (Chan et al.
pairwise moment combination), so replication counts scale by adding
blocks — which is what makes them cacheable and parallelisable through
the campaign runtime.

:data:`MEASURE_SPECS` maps each constituent measure (the names produced
by :meth:`repro.gsu.measures.ConstituentSolver.batch`) onto the raw
simulated estimand and the transform connecting them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy import stats as sps

from repro.des.rng import RandomStreams
from repro.des.stats import ConfidenceInterval
from repro.gsu.measures import (
    RS_A1_GOP,
    RS_INT_H,
    RS_INT_HF,
    RS_INT_TAU_H,
    RS_ND_ALIVE,
    RS_OVERHEAD_1,
    RS_OVERHEAD_2,
    ConstituentSolver,
)
from repro.gsu.parameters import GSUParameters
from repro.verify.simulate import simulate_time_average, simulate_transient

#: The simulated base models, in block-planning order.
MODEL_KEYS = ("RMGd", "RMGp", "RMNd_new", "RMNd_old")

#: Record kind tag for verification blocks (see :mod:`repro.runtime.records`).
VERIFY_BLOCK_KIND = "verify.block"


@dataclass(frozen=True)
class MomentSummary:
    """Mergeable first/second moments of one estimand's samples.

    ``m2`` is the sum of squared deviations from the mean (Welford's
    aggregate), so summaries from independent blocks combine exactly via
    :meth:`merge` regardless of merge order.
    """

    count: int
    mean: float
    m2: float

    @classmethod
    def from_samples(cls, samples) -> "MomentSummary":
        arr = np.asarray(samples, dtype=np.float64)
        if arr.size == 0:
            raise ValueError("no samples supplied")
        mean = float(arr.mean())
        return cls(count=int(arr.size), mean=mean, m2=float(((arr - mean) ** 2).sum()))

    def merge(self, other: "MomentSummary") -> "MomentSummary":
        """Combine with an independent summary (Chan et al. update)."""
        total = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * other.count / total
        m2 = self.m2 + other.m2 + delta * delta * self.count * other.count / total
        return MomentSummary(count=total, mean=mean, m2=m2)

    def interval(self, confidence: float = 0.95) -> ConfidenceInterval:
        """Student-t confidence interval over the pooled replications."""
        if self.count < 1:
            raise ValueError("empty summary")
        if self.count == 1:
            return ConfidenceInterval(self.mean, float("inf"), confidence, 1)
        sem = math.sqrt(self.m2 / (self.count - 1) / self.count)
        t_crit = float(sps.t.ppf(0.5 + confidence / 2.0, df=self.count - 1))
        return ConfidenceInterval(self.mean, t_crit * sem, confidence, self.count)

    def to_dict(self) -> dict:
        return {"count": self.count, "mean": self.mean, "m2": self.m2}

    @classmethod
    def from_dict(cls, data: Mapping) -> "MomentSummary":
        return cls(
            count=int(data["count"]),
            mean=float(data["mean"]),
            m2=float(data["m2"]),
        )


@dataclass(frozen=True)
class MeasureSpec:
    """How one constituent measure is estimated by simulation.

    Attributes
    ----------
    name:
        The constituent measure name (as produced by
        :meth:`ConstituentSolver.batch`).
    model_key:
        The base model whose block provides the samples.
    sample:
        The raw estimand name inside that model's block record.
    kind:
        ``instant`` / ``interval`` / ``steady`` — which estimator shape
        produced the samples.
    time:
        How the observation time depends on ``phi``: ``"phi"``,
        ``"theta"``, ``"theta_minus_phi"``, or ``None`` for steady state.
    complement:
        The constituent equals ``1 - raw`` (``rho1``, ``rho2``, ``int_f``).
    indicator:
        Raw samples are 0/1 indicators — eligible for the rare-event
        (rule-of-three) bound when every replication agrees.
    """

    name: str
    model_key: str
    sample: str
    kind: str
    time: str | None
    complement: bool = False
    indicator: bool = False

    def observation_time(self, phi: float, theta: float) -> float | None:
        """The simulated observation time for this measure at ``phi``."""
        if self.time is None:
            return None
        if self.time == "phi":
            return float(phi)
        if self.time == "theta":
            return float(theta)
        if self.time == "theta_minus_phi":
            return float(theta - phi)
        raise ValueError(f"unknown time spec {self.time!r}")

    def transform(self, raw: float) -> float:
        """Map a raw estimate into the constituent's domain."""
        return 1.0 - raw if self.complement else raw


#: The nine constituent measures (paper Tables 1-2 and Section 5.2.3)
#: mapped onto simulated estimands.
MEASURE_SPECS: tuple[MeasureSpec, ...] = (
    MeasureSpec("p_nd_theta", "RMNd_new", "survival", "instant", "theta", indicator=True),
    MeasureSpec("p_gd_phi_a1", "RMGd", "p_gd_phi_a1", "instant", "phi", indicator=True),
    MeasureSpec(
        "p_nd_theta_minus_phi",
        "RMNd_new",
        "survival",
        "instant",
        "theta_minus_phi",
        indicator=True,
    ),
    MeasureSpec("rho1", "RMGp", "overhead1", "steady", None, complement=True),
    MeasureSpec("rho2", "RMGp", "overhead2", "steady", None, complement=True),
    MeasureSpec("int_h", "RMGd", "int_h", "instant", "phi", indicator=True),
    MeasureSpec("int_tau_h", "RMGd", "int_tau_h", "interval", "phi"),
    MeasureSpec("int_hf", "RMGd", "int_hf", "instant", "phi", indicator=True),
    MeasureSpec(
        "int_f",
        "RMNd_old",
        "survival",
        "instant",
        "theta_minus_phi",
        complement=True,
        indicator=True,
    ),
)


def checkpoints_for(model_key: str, phis: Sequence[float], theta: float) -> tuple[float, ...]:
    """The observation-time grid one model's block must record."""
    times: set[float] = set()
    for spec in MEASURE_SPECS:
        if spec.model_key != model_key or spec.time is None:
            continue
        for phi in phis:
            times.add(spec.observation_time(float(phi), theta))
    return tuple(sorted(times))


def block_rng(seed: int, model_key: str, block: int) -> np.random.Generator:
    """The dedicated RNG stream of one (model, block) pair.

    Routed through :meth:`repro.des.rng.RandomStreams.replication`, so
    blocks are independent across indices and across models, and the
    draws do not depend on which worker executes the block.
    """
    return RandomStreams(seed).replication(f"verify.{model_key}", block)


def simulate_block(
    params: GSUParameters,
    model_key: str,
    phis: Sequence[float],
    replications: int,
    seed: int,
    block: int,
    steady_horizon: float | None = None,
    steady_warmup: float | None = None,
) -> dict:
    """Simulate one replication block of one base model.

    Returns a plain-data record (the unit the verification cache and the
    process backend ship around)::

        {
          "kind": "verify.block",
          "model": "<model_key>",
          "samples": {"<estimand>": [{"t": float|None, "count": ..,
                                      "mean": .., "m2": ..}, ...]},
        }

    Raw estimands per model: ``RMGd`` yields ``int_h`` / ``int_hf`` /
    ``p_gd_phi_a1`` (instant indicators) and ``int_tau_h`` (accumulated
    integral) at every ``phi``; ``RMNd_new`` / ``RMNd_old`` yield
    ``survival`` at every observation time; ``RMGp`` yields the two
    steady-state ``overhead`` time averages.
    """
    if model_key not in MODEL_KEYS:
        raise ValueError(f"unknown model {model_key!r}; expected one of {MODEL_KEYS}")
    solver = ConstituentSolver(params)
    rng = block_rng(seed, model_key, block)
    theta = params.theta
    samples: dict[str, list[dict]] = {}

    def add(name: str, t: float | None, values) -> None:
        entry = {"t": None if t is None else float(t)}
        entry.update(MomentSummary.from_samples(values).to_dict())
        samples.setdefault(name, []).append(entry)

    if model_key == "RMGp":
        if steady_horizon is None or steady_warmup is None:
            raise ValueError("RMGp blocks need steady_horizon and steady_warmup")
        compiled = solver.rm_gp
        averages = simulate_time_average(
            compiled.chain,
            {
                "overhead1": RS_OVERHEAD_1.rate_vector(compiled),
                "overhead2": RS_OVERHEAD_2.rate_vector(compiled),
            },
            horizon=steady_horizon,
            warmup=steady_warmup,
            replications=replications,
            rng=rng,
        )
        for name, values in averages.items():
            add(name, None, values)
    elif model_key == "RMGd":
        compiled = solver.rm_gd
        grid = checkpoints_for(model_key, phis, theta)
        sample = simulate_transient(
            compiled.chain,
            grid,
            replications,
            rng,
            reward_vectors={"int_tau_h": RS_INT_TAU_H.rate_vector(compiled)},
        )
        instant_vectors = {
            "int_h": RS_INT_H.rate_vector(compiled),
            "int_hf": RS_INT_HF.rate_vector(compiled),
            "p_gd_phi_a1": RS_A1_GOP.rate_vector(compiled),
        }
        for t in sample.checkpoints:
            for name, vector in instant_vectors.items():
                add(name, t, sample.indicator_samples(vector, t))
            add("int_tau_h", t, sample.integral_samples("int_tau_h", t))
    else:  # RMNd_new / RMNd_old
        compiled = solver.rm_nd_new if model_key == "RMNd_new" else solver.rm_nd_old
        grid = checkpoints_for(model_key, phis, theta)
        sample = simulate_transient(compiled.chain, grid, replications, rng)
        alive = RS_ND_ALIVE.rate_vector(compiled)
        for t in sample.checkpoints:
            add("survival", t, sample.indicator_samples(alive, t))

    return {"kind": VERIFY_BLOCK_KIND, "model": model_key, "samples": samples}


def merge_block_records(records: Sequence[Mapping]) -> dict[tuple[str, str, float | None], MomentSummary]:
    """Pool block records into one summary per (model, estimand, time)."""
    merged: dict[tuple[str, str, float | None], MomentSummary] = {}
    for record in records:
        model = record["model"]
        for name, entries in record["samples"].items():
            for entry in entries:
                t = entry["t"]
                key = (model, name, None if t is None else float(t))
                summary = MomentSummary.from_dict(entry)
                merged[key] = merged[key].merge(summary) if key in merged else summary
    return merged
