#!/usr/bin/env python3
"""Build a custom stochastic activity network with the framework.

Models a repairable two-server cluster with a shared repair crew — a
classic dependability SAN — and solves availability and productivity
reward variables numerically and by simulation.  Demonstrates the
general-purpose SAN API the GSU reward models are built on.

Run:  python examples/custom_san_model.py
"""

from repro.san import (
    Case,
    InputGate,
    OutputGate,
    Place,
    RewardStructure,
    SANModel,
    SANSimulator,
    TimedActivity,
    build_ctmc,
    instant_of_time,
    interval_of_time,
    steady_state,
)

FAILURE_RATE = 0.02  # per hour, per running server
REPAIR_RATE = 0.5  # per hour, single repair crew
COVERAGE = 0.9  # failures caught without taking down the partner


def build_cluster() -> SANModel:
    """Two servers (`up` tokens), one repair crew, imperfect coverage."""
    places = [
        Place("up", initial=2, capacity=2),
        Place("down", capacity=2),
    ]
    # Marking-dependent rate: each running server can fail.
    fail = TimedActivity(
        "fail",
        rate=lambda m: FAILURE_RATE * m["up"],
        input_arcs=[("up", 1)],
        cases=[
            # Covered failure: only the failing server goes down.
            Case(probability=COVERAGE, output_arcs=(("down", 1),),
                 label="covered"),
            # Uncovered failure: it takes the partner with it (if any).
            # Token conservation: everything still running moves to down.
            Case(
                probability=1.0 - COVERAGE,
                output_gates=(OutputGate(
                    "og_uncovered",
                    lambda m: m.update(
                        {"up": 0, "down": m["down"] + m["up"] + 1}
                    ),
                ),),
                label="uncovered",
            ),
        ],
    )
    repair = TimedActivity(
        "repair",
        rate=REPAIR_RATE,
        input_arcs=[("down", 1)],
        cases=[Case(output_arcs=(("up", 1),))],
        input_gates=[
            InputGate("ig_crew", predicate=lambda m: m["down"] >= 1)
        ],
    )
    return SANModel("cluster", places, [fail, repair])


def main() -> None:
    model = build_cluster()
    compiled = build_ctmc(model)
    print(f"State space: {compiled.num_states} tangible markings")
    assert all(m["up"] + m["down"] == 2 for m in compiled.graph.markings), \
        "token conservation violated"

    availability = RewardStructure.from_pairs(
        "availability", [(lambda m: m["up"] >= 1, 1.0)]
    )
    # Note the k=k default argument: a bare closure over the loop
    # variable would late-bind and make both predicates test k == 2.
    productivity = RewardStructure.from_pairs(
        "productivity",
        [(lambda m, k=k: m["up"] == k, k / 2.0) for k in (1, 2)],
    )

    print(f"Steady-state availability:  "
          f"{steady_state(compiled, availability):.6f}")
    print(f"Steady-state productivity:  "
          f"{steady_state(compiled, productivity):.6f}")
    print(f"Availability at t=24 h:     "
          f"{instant_of_time(compiled, availability, 24.0):.6f}")
    print(f"Expected productive hours in first week: "
          f"{interval_of_time(compiled, productivity, 168.0):.2f} / 168")

    # Cross-check by simulation.
    simulator = SANSimulator(model, seed=2002)
    estimate = simulator.estimate_instant_of_time(
        availability, t=24.0, replications=4000
    )
    low, high = estimate.confidence_interval()
    print(f"Simulated availability at t=24 h: {estimate.mean:.4f} "
          f"(95% CI [{low:.4f}, {high:.4f}])")


if __name__ == "__main__":
    main()
