"""Telemetry-overhead gate: certify that live telemetry is (nearly) free.

docs/TELEMETRY.md promises two properties of attaching a
:class:`~repro.telemetry.hub.TelemetryTracer` to an engine:

1. **Identity** — it changes *nothing* the engine computes: op counters
   and emitted outputs are byte-identical with and without the hub.
   Telemetry observes; it never steers.
2. **Cheapness** — it costs < 5% wall-clock on realistic runs.  The hub's
   design carries the budget (operators tally probes natively, the hub
   polls deltas every :data:`~repro.telemetry.hub.PROBE_POLL_EVERY`
   arrivals); this gate *measures* it.

Both are checked on the two committed gate shapes — a fig9-style normal-
operation run and a fig7-style migration run (see
:mod:`repro.perf.regress`) — by running a plain and a telemetry-attached
engine over the *same* tuple sequence in interleaved chunks.

Measurement protocol
--------------------
Wall-clock comparisons on shared machines drown in ±10% noise if the two
runs are timed back-to-back.  The gate instead alternates 250-tuple
chunks between the two engines (swapping which goes first each chunk, so
cache-warming favours neither) and compares the **summed totals**.  Load
spikes then hit both engines nearly equally and cancel in the ratio.

One protocol trap, documented here because it cost a day: the *median of
per-chunk ratios* looks like a robust estimator but is badly biased on
this workload — per-chunk times are skewed and chunk-local effects
(allocator, GC credit) land asymmetrically, so the chunk-ratio median
reads 10-20% "overhead" even when the totals (and direct in-hook timing)
agree the true cost is under 2%.  Only total-time ratios are meaningful
at this granularity.

Verdict
-------
One total ratio still moves by tens of percent between trials on a shared
box (−13 %…+29 % seen against the 5 % limit), and the faster the engine
gets the larger the same hub cost reads as a ratio.  The gate therefore
runs :data:`TRIALS` paired trials, reports the median **and the
interquartile interval** of their total ratios next to the hub's absolute
cost in µs per arrival, and fails only when the *whole* interval lies
above the limit: a verdict that one noisy trial can flip is not a verdict.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Tuple

from repro.perf.wallclock import measure
from repro.telemetry.hub import TelemetryTracer

#: Tuples per interleaved timing chunk.  Small enough that load spikes
#: hit both engines, large enough that per-chunk timer overhead (~1us)
#: vanishes against ~10ms of work.
CHUNK = 250

#: Default wall-clock overhead budget (ratio - 1) for the attached hub.
MAX_OVERHEAD = 0.05

#: Paired trials per workload; quartiles of fewer are not worth the name.
TRIALS = 9

#: Gate workload shapes.  Mirrors of the perf-regression scenarios
#: (fig9 normal operation, fig7 best-case migration) — same generators,
#: same seeds — but driven chunk-interleaved so telemetry can be timed
#: against a plain twin.  ``transition_at`` must be CHUNK-aligned so the
#: plan swap happens between timed chunks for both engines.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "fig9_normal_operation": {
        "n_joins": 20,
        "n_tuples": 12_000,
        "window": 80,
        "key_domain": 80,
        "seed": 9,
        "transition_at": None,
    },
    "fig7_migration": {
        # measure_migration_stage(12, window=80, case="best", seed=7)
        # geometry: 13 streams, warmup 3*window*streams, equal post slack.
        "n_joins": 12,
        "n_tuples": 6_250,
        "window": 80,
        "key_domain": 80,
        "seed": 7,
        "transition_at": 3_250,
        "case": "best",
    },
}


def _drain(engine: Any, chunk: List[Any]) -> None:
    """Feed ``chunk`` through ``engine`` — the timed unit of the gate."""
    process = engine.process
    for tup in chunk:
        process(tup)


def _build(spec: Dict[str, Any]) -> Tuple[Any, Any, Optional[List[str]]]:
    """Scenario, a fresh-strategy factory, and the post-transition order."""
    from repro.engine.query import STRATEGIES
    from repro.workloads.scenarios import chain_scenario, swap_for_case

    scenario = chain_scenario(
        spec["n_joins"],
        spec["n_tuples"],
        spec["window"],
        key_domain=spec["key_domain"],
        seed=spec["seed"],
    )
    new_order = (
        swap_for_case(scenario.order, spec["case"])
        if spec["transition_at"] is not None
        else None
    )

    def make() -> Any:
        return STRATEGIES["jisc"](scenario.schema, scenario.order, join="hash")

    return scenario, make, new_order


def run_workload(name: str) -> Dict[str, Any]:
    """One interleaved plain-vs-telemetry run of a gate workload.

    Returns identity evidence (op-count and output equality, both
    engines' op totals) alongside the timing totals and the attached
    hub's registry size — everything both the regress gate and the
    committed benchmark payload need, from a single run.
    """
    spec = WORKLOADS[name]
    scenario, make, new_order = _build(spec)
    plain = make()
    tele = make()
    tracer = TelemetryTracer(strategy="jisc")
    tracer.attach(tele)

    transition_at = spec["transition_at"]
    tuples = scenario.tuples
    plain_seconds = 0.0
    tele_seconds = 0.0
    for ci, c0 in enumerate(range(0, len(tuples), CHUNK)):
        if transition_at is not None and c0 == transition_at:
            plain.transition(new_order)
            tele.transition(new_order)
        chunk = tuples[c0 : c0 + CHUNK]
        first_plain = ci % 2 == 0
        pair = ((plain, True), (tele, False)) if first_plain else ((tele, False), (plain, True))
        for engine, is_plain in pair:
            dt, _ = measure(lambda: _drain(engine, chunk))
            if is_plain:
                plain_seconds += dt
            else:
                tele_seconds += dt

    plain_ops = dict(plain.metrics.snapshot())
    tele_ops = dict(tele.metrics.snapshot())
    outputs_identical = [repr(t) for t in plain.outputs] == [
        repr(t) for t in tele.outputs
    ]
    return {
        "name": name,
        "arrivals": len(tuples),
        "ops": {str(k): v for k, v in sorted(tele_ops.items(), key=lambda kv: str(kv[0]))},
        "outputs": len(tele.outputs),
        "ops_identical": plain_ops == tele_ops,
        "outputs_identical": outputs_identical,
        "series": len(tracer.registry),
        "plain_seconds": plain_seconds,
        "tele_seconds": tele_seconds,
        "overhead": tele_seconds / plain_seconds - 1.0 if plain_seconds > 0 else 0.0,
    }


def identity_payload() -> Dict[str, Any]:
    """The deterministic slice of the gate — the committed BENCH payload.

    Everything here is a pure function of the workload seeds: op counts,
    output counts, identity verdicts, registry size.  Wall-clock numbers
    are deliberately excluded; they belong to the (machine-dependent)
    regress timing check, not to a committed baseline.
    """
    workloads = {}
    for name in WORKLOADS:
        res = run_workload(name)
        workloads[name] = {
            "arrivals": res["arrivals"],
            "ops": res["ops"],
            "outputs": res["outputs"],
            "ops_identical": res["ops_identical"],
            "outputs_identical": res["outputs_identical"],
            "series": res["series"],
        }
    return {"max_overhead": MAX_OVERHEAD, "workloads": workloads}


def measure_overhead(name: str) -> Dict[str, Any]:
    """Identity verdicts plus the spread of the total-ratio overhead of ``name``.

    ``overhead`` is the median of the trials' total ratios, ``overhead_q1``
    / ``overhead_q3`` the interquartile interval around it, and
    ``hub_us_per_arrival`` the median absolute cost (telemetry seconds
    minus plain seconds, per arrival) — the number that stays put when the
    engine underneath gets faster.
    """
    runs = [run_workload(name) for _ in range(TRIALS)]
    overheads = sorted(r["overhead"] for r in runs)
    q1, median, q3 = statistics.quantiles(overheads, n=4)
    hub_us = statistics.median(
        (r["tele_seconds"] - r["plain_seconds"]) / r["arrivals"] * 1e6 for r in runs
    )
    return {
        "name": name,
        "ops_identical": all(r["ops_identical"] for r in runs),
        "outputs_identical": all(r["outputs_identical"] for r in runs),
        "series": runs[0]["series"],
        "overheads": [round(o, 4) for o in overheads],
        "overhead": round(median, 4),
        "overhead_q1": round(q1, 4),
        "overhead_q3": round(q3, 4),
        "hub_us_per_arrival": round(hub_us, 3),
    }
