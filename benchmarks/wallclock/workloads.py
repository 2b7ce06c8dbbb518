"""The five fixed workloads and how each one builds its engine.

A workload is a seeded event schedule (arrivals interleaved with forced
transitions or rebalances) plus the engine it runs on.  ``--seed`` is the
only source of randomness; the engine receives only the generated events.
Sizes scale with ``--seconds`` (``N = arrivals_per_second * seconds``) so a
run measures for about that long on the reference 2-core box; the open-loop
``rate`` is a fixed offered load, pinned at roughly 40-50 % of the
closed-loop capacity measured when the benchmark was defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.executor import run_events
from repro.migration.jisc import JISCStrategy
from repro.optimizer.adaptive import AdaptiveEngine
from repro.optimizer.triggers import HysteresisTrigger
from repro.perf.intern import INTERNER
from repro.shard import (
    RebalanceEvent,
    ShardedExecutor,
    balanced_assignment,
    skewed_assignment,
)
from repro.streams.generators import ZipfWorkload
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.workloads.drift import SelectivityDriftWorkload
from repro.workloads.scenarios import chain_scenario, frequency_events

Event = Any  # StreamTuple | TransitionEvent | RebalanceEvent


@dataclass
class Built:
    """One workload instance, ready for its first arrival."""

    events: List[Event]
    engine: Any
    #: The engine's own driver over a run of arrivals and transitions.
    run: Callable[[Sequence[Event]], Any]
    #: The oracle runs ``StaticPlanExecutor(schema, order)`` on the arrivals.
    schema: Schema
    order: Tuple[str, ...]
    #: Counts read through public attributes after a pass (``ops.*`` etc.).
    sizes: Callable[[], Dict[str, int]]
    #: Crash and rebuild one shard from its command log (sharded engines).
    recover: Optional[Callable[[], None]] = None

    @property
    def arrivals(self) -> List[StreamTuple]:
        return [e for e in self.events if isinstance(e, StreamTuple)]


@dataclass(frozen=True)
class Workload:
    name: str
    what: str
    #: ``N = arrivals_per_second * --seconds``.
    arrivals_per_second: int
    #: Offered load of the open loop, arrivals per (reference) second.
    rate: int
    build: Callable[[int, int], Built]

    @property
    def why(self) -> str:
        """The one line BENCHMARK.json carries for this workload."""
        return (
            f"{self.what}; N = {self.arrivals_per_second} x --seconds, "
            f"open loop at {self.rate}/s"
        )


def _common_sizes(engine: Any) -> Dict[str, int]:
    return {"state.outputs_retained": len(engine.outputs), "state.interner_size": len(INTERNER)}


def _ops(counts: Dict[str, int]) -> Dict[str, int]:
    return {f"ops.{op}": n for op, n in counts.items()}


def _single(scenario: Any, events: List[Event]) -> Built:
    engine = JISCStrategy(scenario.schema, scenario.order)
    return Built(
        events,
        engine,
        lambda chunk: run_events(engine, chunk),
        scenario.schema,
        scenario.order,
        lambda: {**_common_sizes(engine), **_ops(engine.metrics.snapshot())},
    )


def _sharded(
    schema: Schema, order: Tuple[str, ...], events: List[Event], **options: Any
) -> Built:
    engine = ShardedExecutor(schema, order, num_shards=4, strategy="jisc", **options)

    def sizes() -> Dict[str, int]:
        moves = engine.moves
        return {
            **_common_sizes(engine),
            **_ops(engine.merged_counts()),
            "shard.log_length": sum(engine.log_length(s) for s in range(engine.num_shards)),
            "shard.keys_moved": sum(1 for m in moves if not m.retired),
            "shard.tuples_replayed": sum(m.tuples_replayed for m in moves),
        }

    return Built(
        events, engine, engine.run, schema, order, sizes, lambda: engine.crash_and_recover(1)
    )


def steady_join(seed: int, n: int) -> Built:
    scenario = chain_scenario(4, n, 80, key_domain=80, seed=seed)
    return _single(scenario, list(scenario.tuples))


def migrate_churn(seed: int, n: int) -> Built:
    scenario = chain_scenario(6, n, 200, key_domain=250, seed=seed)
    return _single(scenario, frequency_events(scenario, 100, case="worst"))


def sharded_steady(seed: int, n: int) -> Built:
    scenario = chain_scenario(4, n, 80, key_domain=80, seed=seed)
    return _sharded(scenario.schema, scenario.order, list(scenario.tuples))


def rebalance_churn(seed: int, n: int) -> Built:
    names = ("A", "B", "C")
    tuples = ZipfWorkload(names, n, 2000, skew=0.7, seed=seed).materialize()
    targets = (balanced_assignment(64, 4), skewed_assignment(64, 0))
    events: List[Event] = []
    for i, tup in enumerate(tuples):
        if i and i % 500 == 0:
            k = i // 500 - 1
            # target flips every rebalance, mode every second one, so all
            # four (target, mode) pairs occur
            mode = ("lazy", "eager")[(k // 2) % 2]
            events.append(RebalanceEvent(targets[k % 2], mode, batch_keys=4))
        events.append(tup)
    return _sharded(
        Schema.uniform(names, 200), names, events, assignment=skewed_assignment(64, 0)
    )


def adaptive_drift(seed: int, n: int) -> Built:
    names = ("S0", "S1", "S2", "S3")
    schema = Schema.uniform(names, 64)
    phases = [(n // 12, names[1 + i % 3]) for i in range(12)]
    events = SelectivityDriftWorkload(
        names, phases, base_domain=24, scatter=32, seed=seed
    ).materialize()
    strategy = JISCStrategy(schema, names)
    engine = AdaptiveEngine(
        strategy,
        policy=HysteresisTrigger(min_improvement=0.08, confirm=2, cooldown=256),
        evaluate_every=32,
        min_samples=96,
        hub_options={"selectivity_window": 256, "drift_block": 32, "drift_min_samples": 96},
    )
    return Built(
        list(events),
        engine,
        engine.run,
        schema,
        names,
        lambda: {
            **_common_sizes(engine),
            **_ops(strategy.metrics.snapshot()),
            "optimizer.fires": engine.fire_count,
            "optimizer.decisions": len(engine.decisions),
        },
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "steady_join",
            "5 streams / 4 hash joins, window 80, no transitions: the normal-operation "
            "path (operators + streams + metrics); core, shard, telemetry idle",
            1700,
            18000,
            steady_join,
        ),
        Workload(
            "migrate_churn",
            "7 streams / 6 joins, window 200, a worst-case forced JISC transition every "
            "100 arrivals: plan rebuild and on-demand state completion dominate",
            1800,
            13000,
            migrate_churn,
        ),
        Workload(
            "sharded_steady",
            "the exact tuples of steady_join through a 4-shard coordinator, no rebalance: "
            "the gap to steady_join is the route/window/log/merge cost",
            1700,
            12000,
            sharded_steady,
        ),
        Workload(
            "rebalance_churn",
            "3 streams, Zipf(0.7) keys, 4 shards, a fluid rebalance every 500 arrivals "
            "alternating target and lazy/eager: shard state movement, uneven partitions",
            800,
            6000,
            rebalance_churn,
        ),
        Workload(
            "adaptive_drift",
            "4 streams with the selective stream rotating over 12 phases under "
            "AdaptiveEngine: telemetry + optimizer on every arrival, self-fired transitions",
            3200,
            26000,
            adaptive_drift,
        ),
    )
}
