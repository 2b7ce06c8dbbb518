#!/usr/bin/env python3
"""Operations tour: rate-driven streams, monitoring, and checkpointing.

The production-flavoured workflow around a long-running JISC query:

1. simulate bursty sources with Poisson arrival processes (one stream's
   rate jumps 10x mid-run — the paper's "changes in arrival rates");
2. watch the query with a telemetry hub — periodic snapshots, recorded
   as trace events, carry state sizes, incomplete states and output
   counts, and the snapshot folds answer "did output stall?", "which
   state is biggest?" — and render the plan with live annotations;
3. checkpoint the strategy mid-migration, "crash", restore from the JSON
   blob, and verify the continuation agrees with the uninterrupted run.

Run:  python examples/operations_tour.py
"""

import json

from repro import JISCStrategy, Schema
from repro.engine.checkpoint import checkpoint_strategy, restore_strategy
from repro.obs import RecordingTracer
from repro.plans.printer import render_tree
from repro.streams.arrivals import PoissonArrivals
from repro.telemetry import TelemetryTracer, summary

STREAMS = ("orders", "payments", "shipments", "alerts")


def main() -> None:
    arrivals = PoissonArrivals(
        {
            "orders": 4.0,
            "payments": 4.0,
            "shipments": 2.0,
            # alerts are rare... until an incident at t=500
            "alerts": [(0.0, 0.5), (500.0, 5.0)],
        },
        n_tuples=12_000,
        key_domain=150,
        seed=13,
    )
    tuples = arrivals.materialize()
    print("simulated rates:", {k: round(v, 2) for k, v in
                               arrivals.observed_rates(tuples).items()})

    schema = Schema.uniform(STREAMS, window=250)
    query = JISCStrategy(schema, STREAMS)
    recorder = RecordingTracer()
    hub = TelemetryTracer(strategy=query.name, inner=recorder, snapshot_every=500)
    hub.attach(query)

    # phase 1: run (a snapshot every 500 arrivals), migrate
    for tup in tuples[:6_000]:
        query.process(tup)

    print("\nplan before migration:")
    print(render_tree(query.plan.spec, query.plan))
    query.transition(("alerts", "orders", "payments", "shipments"))
    print("\nplan right after migration (incomplete states visible):")
    print(render_tree(query.plan.spec, query.plan))

    for tup in tuples[6_000:6_200]:
        query.process(tup)
    hub.take_snapshot()

    # phase 2: checkpoint mid-migration, crash, restore
    blob = json.dumps(checkpoint_strategy(query))
    print(f"\ncheckpoint captured: {len(blob):,} bytes "
          f"({query.incomplete_state_count()} states still incomplete)")
    restored = restore_strategy(json.loads(blob))

    emitted_before = len(query.outputs)
    for tup in tuples[6_200:]:
        query.process(tup)
        restored.process(tup)
    original_tail = sorted(t.lineage for t in query.outputs[emitted_before:])
    restored_tail = sorted(t.lineage for t in restored.outputs)
    print(f"continuation outputs: original={len(original_tail)} "
          f"restored={len(restored_tail)} identical={original_tail == restored_tail}")

    print("\nsnapshot summary:", summary(recorder.as_trace()))
    if original_tail != restored_tail:
        raise SystemExit("restored continuation diverged — this is a bug")


if __name__ == "__main__":
    main()
