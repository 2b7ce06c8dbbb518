"""Crash-point sweep and seeded fault soak (``python -m repro.faults.sweep``).

Parameter sets of :func:`~repro.faults.certify.certify`, over a uniform
chain query with one forced mid-run plan transition (Section 6.1 of the
paper):

* **sweep** (default) — per strategy, a crash at every arrival index (and
  crash point) under a :class:`~repro.faults.recovery.RecoveryManager`;
  the index ranges over the whole run, so the migration window is covered.
* **soak** (``--soak N``) — N randomized schedules from
  :meth:`~repro.faults.plan.FaultPlan.from_seed` (crashes, checkpoint
  corruption and, for buffered strategies, queue duplicates/reorders).
  Every failure line prints the seed, so the schedule replays exactly.
* **during rebalance** (``--during-rebalance``) — each shard of a
  coordinator crashed and recovered at each arrival inside an in-flight
  fluid resize plan.

With ``--trace DIR`` every failing cell's JSONL trace is exported for
``python -m repro.obs.report``.
"""

from __future__ import annotations

import argparse
import random
from typing import List, Optional, Sequence, Tuple, cast, get_args

from repro.engine.checkpoint import strategy_kinds
from repro.engine.executor import Event
from repro.faults.certify import Cell, Verdict, certify, failure_lines
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import CRASH_POINTS, CrashFault, FaultInjector, FaultPlan
from repro.faults.queue_faults import BufferedStrategy, install_faulty_scheduler
from repro.faults.recovery import RecoveryManager
from repro.faults.store import DurableStore
from repro.migration.base import MigrationStrategy
from repro.obs.tracer import EVENT_REBALANCE_END, RecordingTracer, Tracer
from repro.shard.executor import ResizeEvent, ShardedExecutor
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.workloads.scenarios import ChainScenario, chain_scenario, migration_stage_events

#: Strategies with a queue scheduler (queue anomalies only apply to these).
BUFFERED = tuple(
    name for name, cls in strategy_kinds().items() if issubclass(cls, get_args(BufferedStrategy))
)

#: (runs, failure lines) of one parameter set.
Failures = Tuple[int, List[str]]


def _certify_engine(
    name: str,
    scenario: ChainScenario,
    events: Sequence[Event],
    cells: List[Cell],
    checkpoint_every: int,
    trace_dir: Optional[str],
) -> List[Verdict]:
    """``cells`` on managed incarnations of strategy ``name``; a buffered
    one's queue consults the injector, so it misbehaves where the plan says."""
    cls = strategy_kinds()[name]

    def factory(plan: FaultPlan, store: Optional[DurableStore], tracer: Tracer) -> RecoveryManager:
        injector = FaultInjector(plan, tracer)

        def on_strategy(strategy: MigrationStrategy) -> None:
            if name in BUFFERED:
                install_faulty_scheduler(cast(BufferedStrategy, strategy), injector)

        return RecoveryManager(
            lambda: cls(scenario.schema, scenario.order),
            store, checkpoint_every, injector, tracer, on_strategy,
        )  # fmt: skip

    checker = InvariantChecker(scenario.schema, scenario.order)
    return certify(factory, events, lambda _: cells, checker, trace_dir=trace_dir)


def _arrivals(events: Sequence[Event]) -> int:
    return sum(isinstance(e, StreamTuple) for e in events)


def crash_sweep(
    name: str,
    scenario: ChainScenario,
    events: Sequence[Event],
    wheres: Sequence[str],
    checkpoint_every: int,
    trace_dir: Optional[str],
) -> Failures:
    """A crash at every arrival index and crash point."""
    cells = [
        Cell(f"{name}/crash@{index}/{where}", FaultPlan(crashes=(CrashFault(index, where),)))
        for index in range(_arrivals(events))
        for where in wheres
    ]
    verdicts = _certify_engine(name, scenario, events, cells, checkpoint_every, trace_dir)
    return len(verdicts), failure_lines(verdicts, trace_dir)


def fault_soak(
    name: str,
    scenario: ChainScenario,
    events: Sequence[Event],
    seeds: Sequence[int],
    args: argparse.Namespace,
) -> Failures:
    """One randomized fault schedule per seed."""
    queue = 1 if name in BUFFERED else 0
    cells = [
        Cell(
            f"{name}/soak-seed={seed}",
            FaultPlan.from_seed(
                seed, _arrivals(events), args.soak_crashes, queue * args.soak_duplicates,
                queue * args.soak_reorders, checkpoint_corruptions=args.soak_corruptions,
            ),
        )  # fmt: skip
        for seed in seeds
    ]
    verdicts = _certify_engine(name, scenario, events, cells, args.checkpoint_every, args.trace)
    return len(verdicts), [
        f"{line} (replay with --soak-seeds {seed})"
        for seed, verdict in zip(seeds, verdicts)
        for line in failure_lines([verdict], args.trace)
    ]


# -- crashes during a fluid rebalance ----------------------------------------------

#: (label, shards before the resize, shards after) for ``--during-rebalance``.
REBALANCE_SHAPES: Tuple[Tuple[str, int, int], ...] = (("2to4", 2, 4), ("4to2", 4, 2))

_SHARD_STREAMS = ("A", "B", "C")
_INTER_ARRIVAL = 2.0


def _sharded_workload(
    n: int, n_keys: int, window: int, seed: int
) -> Tuple[Schema, List[StreamTuple]]:
    rng = random.Random(seed)
    seqs = {name: 0 for name in _SHARD_STREAMS}
    tuples = []
    for _ in range(n):
        stream = rng.choice(_SHARD_STREAMS)
        tuples.append(StreamTuple(stream, seqs[stream], rng.randrange(n_keys)))
        seqs[stream] += 1
    return Schema.uniform(_SHARD_STREAMS, window), tuples


def rebalance_crash_sweep(
    strategy: str,
    mode: str,
    n_from: int,
    n_to: int,
    batch_keys: int,
    n_tuples: int = 48,
    resize_at: int = 20,
    seed: int = 5,
    trace_dir: Optional[str] = None,
) -> Failures:
    """Crash each shard at each arrival inside an in-flight resize plan.

    The plan resizes ``n_from``→``n_to`` in ``batch_keys``-key batches from
    arrival ``resize_at``; one shard crashes and recovers at one arrival,
    from the resize until just past where the baseline's plan drained.
    Right after recovery the distributed-state invariants must hold (key
    locality is judged against the batch-by-batch routing table), and the
    run must end with the crash-free run's routing table and output.
    """
    schema, tuples = _sharded_workload(n_tuples, n_keys=8, window=10, seed=seed)
    events: List[object] = list(tuples)
    events.insert(resize_at, ResizeEvent(n_to, mode, batch_keys))
    label = f"{strategy}/{mode}/resize-{n_from}to{n_to}/bk={batch_keys}"

    def factory(plan: FaultPlan, store: Optional[DurableStore], tracer: Tracer) -> ShardedExecutor:
        executor = ShardedExecutor(
            schema, _SHARD_STREAMS, n_from, strategy, inter_arrival=_INTER_ARRIVAL
        )
        tracer.attach(executor)
        return executor

    def schedule(baseline: ShardedExecutor) -> List[Cell]:
        trace = cast(RecordingTracer, baseline.metrics.tracer).events
        ends = [int(e.ts / _INTER_ARRIVAL) for e in trace if e.kind == EVENT_REBALANCE_END]
        plan_end = max(resize_at, min(ends, default=n_tuples - 1))
        return [
            Cell(f"{label}/crash@{index}/shard={shard}", at=index, shard=shard)
            for index in range(resize_at, min(plan_end + 2, n_tuples))
            for shard in range(max(n_from, n_to))
        ]

    def same_table(
        cell: Cell, engines: Sequence[ShardedExecutor], base: ShardedExecutor
    ) -> List[str]:
        same = engines[-1].partitioner.assignment == base.partitioner.assignment
        return [] if same else ["final routing table differs"]

    checker = InvariantChecker(schema, _SHARD_STREAMS)
    verdicts = certify(factory, events, schedule, checker, same_table, trace_dir)
    return len(verdicts), failure_lines(verdicts, trace_dir)


def run_rebalance_family(args: argparse.Namespace) -> Failures:
    """The full ``--during-rebalance`` matrix."""
    total, failures = 0, []
    for strategy in ("jisc", "moving_state"):
        for mode in ("lazy", "eager"):
            for _label, n_from, n_to in REBALANCE_SHAPES:
                runs, fails = rebalance_crash_sweep(
                    strategy, mode, n_from, n_to, batch_keys=2, trace_dir=args.trace
                )
                total += runs
                failures.extend(fails)
    return total, failures


def build_workload(args: argparse.Namespace) -> Tuple[ChainScenario, List[Event]]:
    scenario = chain_scenario(args.streams - 1, args.tuples, args.window, seed=args.seed)
    warmup = args.warmup if args.warmup is not None else max(1, args.tuples // 3)
    return scenario, migration_stage_events(scenario, warmup, args.case)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.sweep",
        description="Crash-point sweep and seeded fault soak over the "
        "fault-injection subsystem (see docs/FAULT_INJECTION.md).",
    )
    add = parser.add_argument
    names = ",".join(sorted(strategy_kinds()))
    add("--strategies", default="jisc,moving_state,jisc_buffered",
        help=f"comma-separated strategy names ({names})")  # fmt: skip
    add("--streams", type=int, default=4, help="streams in the chain")
    add("--tuples", type=int, default=36, help="arrivals in the run")
    add("--window", type=int, default=4, help="window size (tuples)")
    add("--seed", type=int, default=0, help="workload seed")
    add("--warmup", type=int, default=None, help="transition point (default: tuples/3)")
    add("--case", choices=("best", "worst"), default="best", help="transition case")
    add("--checkpoint-every", type=int, default=6, help="checkpoint cadence (log records)")
    add("--where", choices=("all",) + CRASH_POINTS, default="after_log",
        help="crash point(s) to sweep")  # fmt: skip
    add("--no-sweep", action="store_true", help="skip the exhaustive crash sweep")
    add("--soak", type=int, default=0, help="number of randomized soak seeds")
    add("--soak-seeds", type=int, nargs="*", default=None,
        help="explicit soak seeds (overrides --soak)")  # fmt: skip
    add("--soak-crashes", type=int, default=2)
    add("--soak-duplicates", type=int, default=2)
    add("--soak-reorders", type=int, default=2)
    add("--soak-corruptions", type=int, default=1)
    add("--during-rebalance", action="store_true",
        help="also crash each shard at each arrival inside an in-flight "
        "fluid resize plan (2→4 and 4→2, lazy and eager)")  # fmt: skip
    add("--trace", default=None, metavar="DIR", help="export failing runs' JSONL traces")
    args = parser.parse_args(argv)

    strategies = [n.strip() for n in args.strategies.split(",") if n.strip()]
    for name in strategies:
        if name not in strategy_kinds():
            parser.error(f"unknown strategy {name!r}")
    wheres = CRASH_POINTS if args.where == "all" else (args.where,)
    scenario, events = build_workload(args)
    print(
        f"workload: {args.streams} streams, {_arrivals(events)} arrivals, "
        f"window {args.window}, transition at {args.warmup or max(1, args.tuples // 3)} "
        f"({args.case} case), checkpoint every {args.checkpoint_every}"
    )
    all_failures: List[str] = []

    def report(line: str, result: Failures) -> None:
        runs, failures = result
        print(line.format(runs=runs, status="OK" if not failures else f"{len(failures)} FAILED"))
        all_failures.extend(failures)

    seeds = args.soak_seeds if args.soak_seeds is not None else list(range(args.soak))
    for name in strategies:
        if not args.no_sweep:
            report(
                f"sweep {name}: {{runs}} crash run(s): {{status}}",
                crash_sweep(name, scenario, events, wheres, args.checkpoint_every, args.trace),
            )
        if seeds:
            report(
                f"soak  {name}: {{runs}} seeded run(s): {{status}}",
                fault_soak(name, scenario, events, seeds, args),
            )
    if args.during_rebalance:
        report("rebalance-crash family: {runs} crash run(s): {status}", run_rebalance_family(args))
    for line in all_failures:
        print(f"FAIL {line}")
    return 1 if all_failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
