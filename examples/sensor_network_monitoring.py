#!/usr/bin/env python3
"""Sensor-network monitoring with an adaptive optimizer in the loop.

The paper's motivating setting (Section 1): long-running continuous queries
over sensor streams whose rates and value distributions drift, so the
initially chosen join order becomes suboptimal mid-flight.

This example correlates four sensor feeds of a building — badge readers,
motion detectors, HVAC controllers and door actuators — on a shared zone
id.  The workload *drifts*: at first the motion stream rarely matches
(most selective, so it belongs at the bottom of the plan); later the badge
stream becomes the selective one.  An :class:`AdaptiveEngine` closes the
loop: its telemetry hub polls the joins' probe tallies, a hysteresis
trigger (two confirming evaluations, a cooldown against flapping) turns
the measured selectivities into plan transitions, and JISC carries them
out without halting the output.

Run:  python examples/sensor_network_monitoring.py
"""

import random

from repro import JISCStrategy, Schema, StaticPlanExecutor
from repro.optimizer import AdaptiveEngine, HysteresisTrigger
from repro.streams.tuples import StreamTuple

STREAMS = ("badge", "motion", "hvac", "door")
ZONES = 120


def drifting_workload(n_tuples: int, seed: int = 0):
    """Two phases: 'motion' keys are scattered first, 'badge' keys later.

    Scattering a stream's keys over a larger domain makes probes against it
    miss more often — i.e. makes its join more selective.
    """
    rng = random.Random(seed)
    tuples = []
    for seq in range(n_tuples):
        stream = STREAMS[seq % len(STREAMS)]
        drifted = "motion" if seq < n_tuples // 2 else "badge"
        if stream == drifted:
            zone = rng.randrange(ZONES * 8)  # mostly unmatched zone ids
        else:
            zone = rng.randrange(ZONES)
        tuples.append(StreamTuple(stream, seq, zone))
    return tuples


def main() -> None:
    schema = Schema.uniform(STREAMS, window=150)
    initial = ("hvac", "motion", "door", "badge")
    jisc = JISCStrategy(schema, initial)
    reference = StaticPlanExecutor(schema, initial)
    # Estimator windows must be much shorter than a workload phase (6000
    # arrivals here), or the loop averages the two phases away.
    engine = AdaptiveEngine(
        jisc,
        policy=HysteresisTrigger(min_improvement=0.15, confirm=2, cooldown=1000),
        evaluate_every=250,
        min_samples=200,
        hub_options={"selectivity_window": 1000},
    )

    for tup in drifting_workload(12_000, seed=42):
        engine.process(tup)
        reference.process(tup)

    transitions = engine.migrations
    for decision in transitions:
        print(f"[tuple {decision.at:6d}] optimizer: {decision.order} -> "
              f"{decision.best_order} (cost {decision.current_cost:.2f} -> "
              f"{decision.best_cost:.2f})")

    same = sorted(jisc.output_lineages()) == sorted(reference.output_lineages())
    print(f"\ntransitions performed: {len(transitions)}")
    print(f"matches emitted: {len(jisc.outputs)} (reference {len(reference.outputs)}, "
          f"identical={same})")
    print(f"incomplete states at end: {jisc.incomplete_state_count()}")
    if not same:
        raise SystemExit("outputs diverged — this is a bug")


if __name__ == "__main__":
    main()
