#!/usr/bin/env python3
"""The high-level API: ContinuousQuery with the adaptive loop built in.

A payment-fraud correlation: card swipes, geolocation pings, device
logins and risk scores joined on account id, over time-based sliding
windows.  The facade runs the repo's one adaptive loop (an
``AdaptiveEngine``, reachable as ``query.engine``): the telemetry hub polls
the joins' probe tallies and the plan is re-ordered (via JISC) when the
observed selectivities contradict it — no manual transition calls.

Run:  python examples/adaptive_continuous_query.py
"""

import random

from repro import ContinuousQuery, Schema
from repro.streams.schema import StreamDescriptor

STREAMS = ("swipes", "geo", "logins", "risk")


def main() -> None:
    # Time-based windows: each stream retains the last 2000 time units
    # (the arrival sequence doubles as logical time).
    schema = Schema(
        tuple(StreamDescriptor(name, 2000, window_kind="time") for name in STREAMS)
    )
    query = ContinuousQuery(
        schema,
        ("swipes", "geo", "logins", "risk"),
        strategy="jisc",
        reoptimize_every=800,
    )

    rng = random.Random(11)
    alerts = 0
    for i in range(12_000):
        stream = STREAMS[i % len(STREAMS)]
        # 'risk' entries exist for few accounts (selective); 'geo' pings
        # are everywhere (unselective) — the initial order above is wrong.
        if stream == "risk":
            account = rng.randrange(2_000)
        elif stream == "geo":
            account = rng.randrange(60)
        else:
            account = rng.randrange(300)
        for result in query.push(stream, account):
            alerts += 1
            if alerts <= 3:
                parts = ", ".join(f"{p.stream}#{p.seq}" for p in result.parts)
                print(f"ALERT account={result.key}: {parts}")

    print(f"\n{alerts} full correlations emitted")
    print("observed selectivities:",
          {s: round(query.selectivity_of(s) or 0.0, 3) for s in STREAMS})
    print("plan transitions:", query.transition_log)
    for decision in query.engine.migrations:
        print(f"  at arrival {decision.at}: cost {decision.current_cost:.3f} -> "
              f"{decision.best_cost:.3f} ({decision.improvement:.0%} better)")
    print("final join order:", query.order)


if __name__ == "__main__":
    main()
