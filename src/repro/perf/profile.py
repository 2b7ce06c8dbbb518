"""Hot-path profiler: ``python -m repro.perf.profile``.

Runs one of the benchmark-shaped scenarios under :mod:`cProfile` and
prints the top functions by cumulative time — the tool that found (and
keeps finding) the engine's wall-clock hot spots (docs/PERFORMANCE.md).

Scenarios mirror the committed figures so a profile reads directly onto
the numbers the regression gate tracks:

* ``fig9``  — normal operation, 20 joins, no transitions (throughput);
* ``fig7``  — best-case migration stages across plan sizes (migration);
* ``fig10`` — transition-to-first-output latency, hash and NL joins;
* ``steady`` — ``benchmarks/wallclock``'s ``steady_join`` shape under one
  strategy (JISC from the command line), generated before profiling starts:
  the ``calls / arrival`` printed under the table is the number ROADMAP tracks;
* ``migrate`` — ``migrate_churn``'s shape (7 streams, window 200, a worst-case
  transition every 100 arrivals), same protocol; also prints the collections
  per generation and the objects they found (a transition should leave none);
* ``sharded`` / ``rebalance`` — ``sharded_steady``'s and ``rebalance_churn``'s
  shapes through a 4-shard coordinator, driven as the harness's closed pass
  drives them (``drain_rebalance()`` before each ``fluid_rebalance``);
* ``adaptive`` — ``adaptive_drift``'s shape under an ``AdaptiveEngine``;
  ``fig9_shape`` / ``fig7_shape`` — the two shapes the telemetry hub's
  identity is certified on (20 joins, no transition; 12 joins, one best-case).

The last seven take a strategy (:class:`EngineRun`); ``benchmarks/bench_calls.py``
builds ``BENCH_calls.json`` from them with :func:`count_calls`.

Under the table of every single-engine-shaped run: ``calls / arrival``, and the
Python-level calls into ``repro/`` per arrival by file (:func:`repro_calls`),
with the ``StreamTuple.__eq__`` and ``deque.remove`` counts — counts repeat
exactly where timings do not.  ``--bytecodes`` counts instead the bytecodes run
in frames under ``repro/`` (:func:`count_bytecodes`), in total and per function
— the work inside a frame that a call count misses.

``--scale`` shrinks the tuple volume for quick iteration; the default
(1.0) matches the committed benchmark shapes.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import os
import pstats
import sys
from collections import Counter
from dataclasses import dataclass
from types import CodeType, FrameType
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, TypeVar

from repro.engine.executor import run_events
from repro.experiments.common import (
    measure_latency,
    measure_migration_stage,
    measure_normal_operation,
)
from repro.optimizer.adaptive import AdaptiveEngine
from repro.optimizer.triggers import HysteresisTrigger
from repro.shard import (
    ShardedExecutor,
    balanced_assignment,
    make_strategy,
    skewed_assignment,
)
from repro.streams.generators import ZipfWorkload
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.telemetry.hub import ShardTelemetry, TelemetryTracer
from repro.workloads.drift import SelectivityDriftWorkload
from repro.workloads.scenarios import chain_scenario, frequency_events

T = TypeVar("T")

_PACKAGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep
DEQUE_REMOVE = ("", "deque.remove")


def run_fig9(scale: float) -> Callable[[], Any]:
    return lambda: measure_normal_operation(
        n_joins=20,
        window=80,
        n_tuples=max(500, int(20_000 * scale)),
        checkpoints=1,
        seed=9,
        key_domain=120,
    )


def run_fig7(scale: float) -> Callable[[], Any]:
    sizes = (4, 8, 12) if scale >= 1.0 else (4,)
    return lambda: [
        measure_migration_stage(n, window=max(20, int(80 * scale)), case="best", seed=7)
        for n in sizes
    ]


def run_fig10(scale: float) -> Callable[[], Any]:
    window = max(20, int(80 * scale))
    return lambda: [
        measure_latency(window=window, n_joins=5, join=join, case="worst", seed=5)
        for join in ("hash", "nl")
    ]


@dataclass
class EngineRun:
    """One engine and the events it is about to be fed, generated before anything
    is counted; calling it feeds them and returns how many arrivals that was."""

    engine: Any
    arrivals: int
    drive: Callable[[], Any]
    #: The op counters of the engine(s) underneath.
    ops: Callable[[], Mapping[Any, int]]
    #: ``feed(lo, hi)`` feeds arrivals ``lo`` to ``hi`` of the same events the way
    #: ``drive`` does: a window of a run (:func:`count_bytecodes` traces one).
    feed: Callable[[int, int], Any]
    #: Attach a live hub from outside and return it (``None``: the hub is part
    #: of the engine); its ``series()`` is the view at the end of the run.
    attach_hub: Optional[Callable[[], Any]] = None

    def __call__(self) -> int:
        self.drive()
        return self.arrivals


Scenario = Callable[..., Callable[[], Any]]


def engine_run(
    n_joins: int, n: int, window: int, key_domain: int, period: int = 0,
    case: str = "worst", seed: int = 1,
) -> Scenario:  # fmt: skip
    """A single-engine shape under one strategy; ``period``: a ``case``
    transition every that many arrivals."""

    def scenario(scale: float, strategy: str = "jisc") -> EngineRun:
        n_tuples = max(500, int(n * scale))
        chain = chain_scenario(n_joins, n_tuples, window, key_domain=key_domain, seed=seed)
        events = frequency_events(chain, period, case=case) if period else chain.tuples
        engine = make_strategy(strategy, chain.schema, chain.order)

        def attach_hub() -> TelemetryTracer:
            hub = TelemetryTracer(strategy=strategy)
            hub.attach(engine)
            return hub

        cuts = [i for i, e in enumerate(events) if isinstance(e, StreamTuple)] + [len(events)]
        return EngineRun(
            engine,
            n_tuples,
            lambda: run_events(engine, events),
            engine.metrics.snapshot,
            lambda lo, hi: run_events(engine, events[cuts[lo] : cuts[hi]]),
            attach_hub,
        )

    return scenario


def shard_run(n: int, rebalance_every: int = 0) -> Scenario:
    """``sharded_steady``'s shape or, with a fluid rebalance every that many
    arrivals (target and lazy / eager alternating), ``rebalance_churn``'s."""

    def scenario(scale: float, strategy: str = "jisc") -> EngineRun:
        n_tuples = max(500, int(n * scale))
        if rebalance_every:
            names = ("A", "B", "C")
            tuples = ZipfWorkload(names, n_tuples, 2000, skew=0.7, seed=1).materialize()
            targets = (balanced_assignment(64, 4), skewed_assignment(64, 0))
            engine = ShardedExecutor(
                Schema.uniform(names, 200),
                names,
                num_shards=4,
                strategy=strategy,
                assignment=targets[1],
            )
        else:
            chain = chain_scenario(4, n_tuples, 80, key_domain=80, seed=1)
            tuples = chain.tuples
            engine = ShardedExecutor(chain.schema, chain.order, num_shards=4, strategy=strategy)
        step = rebalance_every or n_tuples

        def feed(start: int = 0, stop: int = n_tuples) -> None:
            for k, lo in enumerate(range(0, n_tuples, step), -1):
                if stop <= lo or lo + step <= start:
                    continue
                if start <= lo and lo:
                    engine.drain_rebalance()
                    mode = ("lazy", "eager")[(k // 2) % 2]
                    engine.fluid_rebalance(targets[k % 2], mode, batch_keys=4)
                engine.run(tuples[max(lo, start) : min(lo + step, stop)])
            if stop == n_tuples:
                engine.drain_rebalance()
                _ = engine.outputs  # the merged read a closed pass ends with

        return EngineRun(
            engine,
            n_tuples,
            feed,
            engine.merged_counts,
            feed,
            lambda: ShardTelemetry(engine),
        )

    return scenario


def adaptive_run(scale: float, strategy: str = "jisc") -> EngineRun:
    """``adaptive_drift``'s shape: the selective stream rotates over 12 phases
    under an :class:`AdaptiveEngine`, which fires its own transitions."""
    names = ("S0", "S1", "S2", "S3")
    n_tuples = max(600, int(48_000 * scale))
    phases = [(n_tuples // 12, names[1 + i % 3]) for i in range(12)]
    events = SelectivityDriftWorkload(
        names, phases, base_domain=24, scatter=32, seed=1
    ).materialize()
    target = make_strategy(strategy, Schema.uniform(names, 64), names)
    engine = AdaptiveEngine(
        target,
        policy=HysteresisTrigger(min_improvement=0.08, confirm=2, cooldown=256),
        evaluate_every=32,
        min_samples=96,
        hub_options={"selectivity_window": 256, "drift_block": 32, "drift_min_samples": 96},
    )
    return EngineRun(
        engine,
        len(events),
        lambda: engine.run(events),
        target.metrics.snapshot,
        lambda lo, hi: engine.run(events[lo:hi]),
    )


def repro_calls(profiler: cProfile.Profile) -> "Counter[Tuple[str, str]]":
    """``(file under repro/, function) -> calls`` of a finished profile, every
    ``deque.remove`` under :data:`DEQUE_REMOVE`.  Named functions only: what a
    comprehension, lambda or generator expression is compiled to differs between
    Python minors (3.12 inlines comprehensions), what the code calls by name
    does not."""
    calls: "Counter[Tuple[str, str]]" = Counter()
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    for (path, _line, name), (_cc, n, *_rest) in stats.items():
        if path.startswith(_PACKAGE):
            if not name.startswith("<"):
                calls[path[len(_PACKAGE) :], name] += n
        elif "'remove' of 'collections.deque'" in name:
            calls[DEQUE_REMOVE] += n
    return calls


def count_calls(run: Callable[[], T]) -> "Tuple[T, Counter[Tuple[str, str]]]":
    """``run()`` under :mod:`cProfile`: its result and its :func:`repro_calls`.
    Frames outside ``repro/`` are not counted at all — test tooling registers a
    ``gc.callbacks`` entry that runs whenever a collection happens to start."""
    profiler = cProfile.Profile()
    result = profiler.runcall(run)
    return result, repro_calls(profiler)


def count_bytecodes(run: Callable[[], T]) -> "Tuple[T, Counter[Tuple[str, str]]]":
    """``run()`` under an opcode trace: its result and ``(file under repro/,
    function) -> bytecodes run`` — comprehensions and lambdas by their code
    names, which Python minors compile differently, so a count is for the minor
    it was taken on.  Frames outside ``repro/`` are not traced; a traced
    bytecode costs about a microsecond, so trace short runs."""
    by_code: "Counter[CodeType]" = Counter()

    def opcode(frame: FrameType, event: str, arg: Any) -> Any:
        if event == "opcode":
            by_code[frame.f_code] += 1
        return opcode

    def enter(frame: FrameType, event: str, arg: Any) -> Any:
        if not frame.f_code.co_filename.startswith(_PACKAGE):
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return opcode

    previous = sys.gettrace()  # a coverage tracer, say: back after the run
    sys.settrace(enter)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    counts: "Counter[Tuple[str, str]]" = Counter()
    for code, n in by_code.items():
        counts[code.co_filename[len(_PACKAGE) :], code.co_name] += n
    return result, counts


#: ``scenario(scale)`` sets up and returns what is profiled; an :class:`EngineRun`
#: (every scenario that takes a strategy) fed that many arrivals to one engine.
SCENARIOS: Dict[str, Scenario] = {
    "fig9": run_fig9,
    "fig7": run_fig7,
    "fig10": run_fig10,
    "steady": engine_run(4, 25_500, 80, 80),
    "migrate": engine_run(6, 27_000, 200, 250, period=100),
    "sharded": shard_run(25_500),
    "rebalance": shard_run(12_000, rebalance_every=500),
    "adaptive": adaptive_run,
    # the hub's identity shapes: fig9's plan size, and fig7's with its one
    # best-case transition (``measure_migration_stage(12, window=80)``'s geometry)
    "fig9_shape": engine_run(20, 12_000, 80, 80, seed=9),
    "fig7_shape": engine_run(12, 6_250, 80, 80, period=3_250, case="best", seed=7),
}


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.profile",
        description="cProfile one benchmark-shaped scenario, top-N by cumtime",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        default="fig9",
        choices=sorted(SCENARIOS),
        help="which figure-shaped workload to profile (default: fig9)",
    )
    parser.add_argument(
        "-n",
        "--top",
        type=int,
        default=25,
        help="number of functions to print (default: 25)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale factor, <1 for quick iteration (default: 1.0)",
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=("cumulative", "tottime", "calls"),
        help="pstats sort key (default: cumulative)",
    )
    parser.add_argument(
        "--bytecodes",
        action="store_true",
        help="count bytecodes run under repro/ instead of profiling calls",
    )
    args = parser.parse_args(argv)

    run = SCENARIOS[args.scenario](args.scale)
    if args.bytecodes:
        fed, counts = count_bytecodes(run)
        n = fed if isinstance(fed, int) else 1
        print(f"== {args.scenario} (scale={args.scale}) — bytecodes under repro/ ==")
        print(f"bytecodes / arrival: {sum(counts.values()) / n:.1f} ({sum(counts.values())} / {n})")
        for (path, name), count in counts.most_common(args.top):
            print(f"  {count / n:9.2f}  {path}::{name}")
        return 0
    before = gc.get_stats()
    profiler = cProfile.Profile()
    fed = profiler.runcall(run)
    collections = [
        (now["collections"] - was["collections"], now["collected"] - was["collected"])
        for was, now in zip(before, gc.get_stats())
    ]

    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort)
    print(f"== {args.scenario} (scale={args.scale}) — top {args.top} by {args.sort} ==")
    stats.print_stats(args.top)
    if isinstance(fed, int):
        print(f"calls / arrival: {stats.total_calls / fed:.1f} ({stats.total_calls} / {fed})")
        print(
            "collections (objects found): "
            + ", ".join(f"gen{g} {n} ({found})" for g, (n, found) in enumerate(collections))
        )
        calls = repro_calls(profiler)
        by_file: "Counter[str]" = Counter()
        for (path, _name), n in calls.items():
            if path:
                by_file[path] += n
        print(f"Python calls into repro/ per arrival: {sum(by_file.values()) / fed:.2f}")
        for path, n in by_file.most_common():
            print(f"  {n / fed:7.2f}  {path}")
        eq = calls[os.path.join("streams", "tuples.py"), "__eq__"]
        print(f"StreamTuple.__eq__ calls: {eq}; deque.remove calls: {calls[DEQUE_REMOVE]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
