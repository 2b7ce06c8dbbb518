"""Shared measurement harnesses for the Section 6 experiments.

The measurement protocol follows Section 6.1 precisely:

    "We force a plan transition while executing the queries after
     processing [the warm-up] tuples.  To have a consistent comparison
     among the strategies, we process tuples until the old plan of the
     Parallel Track Strategy is discarded, i.e., the migration stage ends.
     Then, we process the same tuples using both JISC and CACQ.  Then, we
     measure the execution time each strategy takes to process these
     tuples."

``measure_migration_stage`` therefore first runs the Parallel Track
strategy to discover how many post-transition tuples the migration stage
spans, then charges every strategy for exactly that segment.  Execution
time is *virtual time* from the deterministic cost model (see
``engine.cost``); wall-clock timing is layered on by pytest-benchmark in
``benchmarks/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.eddy.cacq import CACQExecutor
from repro.migration.base import StaticPlanExecutor
from repro.migration.jisc import JISCStrategy
from repro.migration.moving_state import MovingStateStrategy
from repro.migration.parallel_track import ParallelTrackStrategy
from repro.obs.tracer import RecordingTracer
from repro.workloads.scenarios import ChainScenario, chain_scenario, swap_for_case

StrategyFactory = Callable[[ChainScenario], object]

#: Default strategy line-up of Figures 7, 8, 11 and 12.  Parallel Track
#: polls for old entries every 4 tuples — the aggressive discard detection
#: whose cost the paper calls "significant overhead" (Section 3.3); the
#: bench_ablation_pt_purge ablation quantifies the knob.
DEFAULT_FACTORIES: Dict[str, StrategyFactory] = {
    "jisc": lambda sc: JISCStrategy(sc.schema, sc.order),
    "cacq": lambda sc: CACQExecutor(sc.schema, sc.order),
    "parallel_track": lambda sc: ParallelTrackStrategy(
        sc.schema, sc.order, purge_check_interval=4
    ),
}


@dataclass
class StageResult:
    """One measured series point.

    ``phases`` (per-phase op counters) and ``latency`` (per-phase
    arrival->emit percentile summaries) are filled when the measurement
    ran with a :class:`~repro.obs.tracer.RecordingTracer` attached.
    """

    strategy: str
    n_joins: int
    tuples: int
    virtual_time: float
    ops: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)
    outputs: int = 0
    phases: Dict[str, Dict[str, int]] = field(default_factory=dict)
    latency: Dict[str, Dict[str, float]] = field(default_factory=dict)


def _observe(strategy: Any) -> RecordingTracer:
    """Attach a fresh recording tracer to ``strategy`` and return it."""
    tracer = RecordingTracer()
    tracer.attach(strategy)
    return tracer


def _tracer_summaries(
    tracer: RecordingTracer,
) -> Tuple[Dict[str, Dict[str, int]], Dict[str, Dict[str, float]]]:
    phases = {p: dict(c) for p, c in tracer.phase_counts.items()}
    latency = {p: h.summary() for p, h in tracer.latency.items()}
    return phases, latency


def default_key_domain(window: int, n_joins: int) -> int:
    """A key domain that keeps n-way result multiplicities bounded.

    With ``domain == window`` every key appears ~once per stream window and
    a single hot key can explode the n-way cross product (multiplicity m in
    k streams yields m**k results).  A domain of twice the window halves
    the expected multiplicity, which makes intermediate result sizes decay
    geometrically with plan depth while keeping matches frequent enough
    that the paper's density-sensitive ratios (CACQ overhead, completion
    amortization) stay in their reported regimes.
    """
    return 2 * window


def measure_migration_stage(
    n_joins: int,
    window: int = 100,
    warmup_per_stream: int = 3,
    case: str = "best",
    seed: int = 0,
    factories: Optional[Dict[str, StrategyFactory]] = None,
    key_domain: Optional[int] = None,
) -> List[StageResult]:
    """Figures 7 and 8: execution time during the plan-migration stage.

    ``warmup_per_stream`` scales the warm-up to ``warmup_per_stream *
    window * n_streams`` tuples so every window is full before the
    transition, independent of the join count.
    """
    n_streams = n_joins + 1
    warmup = warmup_per_stream * window * n_streams
    # The migration stage of Parallel Track ends when every old-plan window
    # has fully turned over: at most ~window tuples per stream afterwards.
    # Generate enough slack to cover detection granularity.
    post = 3 * window * n_streams
    # Figures 7/8 run at the paper's density (~1 expected match per probe:
    # domain == window); the stage length bounds state growth, so the
    # deep-plan multiplicity blow-up of unbounded runs does not apply here.
    domain = key_domain or window
    scenario = chain_scenario(n_joins, warmup + post, window, key_domain=domain, seed=seed)
    new_order = swap_for_case(scenario.order, case)
    factories = factories or DEFAULT_FACTORIES

    # Pass 1: Parallel Track defines the length of the migration stage.
    pt = factories.get("parallel_track", DEFAULT_FACTORIES["parallel_track"])(scenario)
    pt_tracer = _observe(pt)
    pt.process_batch(scenario.tuples[:warmup])
    start_vt = pt.now()
    start_ops = pt.metrics.snapshot()
    pt.transition(new_order)
    stage_len = 0
    for tup in scenario.tuples[warmup:]:
        pt.process(tup)
        stage_len += 1
        if not pt.in_migration():
            break
    if pt.in_migration():
        raise RuntimeError(
            "migration stage did not end within the generated workload; "
            "increase the post-transition slack"
        )
    phases, latency = _tracer_summaries(pt_tracer)
    results = [
        StageResult(
            "parallel_track",
            n_joins,
            stage_len,
            pt.now() - start_vt,
            pt.metrics.diff(start_ops),
            outputs=len(pt.outputs),
            phases=phases,
            latency=latency,
        )
    ]

    # Pass 2: everyone else processes exactly the same stage tuples.
    stage_tuples = scenario.tuples[warmup : warmup + stage_len]
    for name, factory in factories.items():
        if name == "parallel_track":
            continue
        strategy = factory(scenario)
        tracer = _observe(strategy)
        strategy.process_batch(scenario.tuples[:warmup])
        start_vt = strategy.metrics.clock.now
        start_ops = strategy.metrics.snapshot()
        strategy.transition(new_order)
        strategy.process_batch(stage_tuples)
        phases, latency = _tracer_summaries(tracer)
        results.append(
            StageResult(
                name,
                n_joins,
                stage_len,
                strategy.metrics.clock.now - start_vt,
                strategy.metrics.diff(start_ops),
                outputs=len(strategy.outputs),
                phases=phases,
                latency=latency,
            )
        )
    return results


def measure_normal_operation(
    n_joins: int = 20,
    window: int = 100,
    n_tuples: int = 20_000,
    checkpoints: int = 5,
    seed: int = 0,
    key_domain: Optional[int] = None,
) -> Dict[str, List[StageResult]]:
    """Figure 9: overhead during normal operation (no transitions).

    Returns cumulative virtual-time series for JISC, a pure symmetric-
    hash-join plan (the Parallel Track strategy outside migration), and
    CACQ, sampled at ``checkpoints`` evenly spaced points.
    """
    domain = key_domain or default_key_domain(window, n_joins)
    scenario = chain_scenario(n_joins, n_tuples, window, key_domain=domain, seed=seed)
    strategies = {
        "jisc": JISCStrategy(scenario.schema, scenario.order),
        "symmetric_hash": StaticPlanExecutor(scenario.schema, scenario.order),
        "cacq": CACQExecutor(scenario.schema, scenario.order),
    }
    step = n_tuples // checkpoints
    series: Dict[str, List[StageResult]] = {name: [] for name in strategies}
    for name, strategy in strategies.items():
        done = 0
        for i in range(checkpoints):
            chunk = scenario.tuples[done : done + step]
            strategy.process_batch(chunk)
            done += len(chunk)
            series[name].append(
                StageResult(
                    name,
                    n_joins,
                    done,
                    strategy.metrics.clock.now,
                    ops=strategy.metrics.snapshot(),
                    outputs=len(strategy.outputs),
                )
            )
    return series


def measure_latency(
    window: int,
    n_joins: int = 5,
    join: str = "hash",
    case: str = "worst",
    seed: int = 0,
) -> Dict[str, float]:
    """Figure 10: output latency from transition trigger to first output.

    Returns virtual-time latencies for JISC and the Moving State Strategy.
    """
    n_streams = n_joins + 1
    warmup = 2 * window * n_streams
    post = 2 * window * n_streams
    scenario = chain_scenario(n_joins, warmup + post, window, seed=seed)
    new_order = swap_for_case(scenario.order, case)
    latencies: Dict[str, float] = {}
    for name, cls in (("jisc", JISCStrategy), ("moving_state", MovingStateStrategy)):
        strategy = cls(scenario.schema, scenario.order, join=join)
        strategy.process_batch(scenario.tuples[:warmup])
        trigger = strategy.now()
        strategy.transition(new_order)
        sink = strategy.plan.sink
        first: Optional[float] = None
        for tup in scenario.tuples[warmup:]:
            strategy.process(tup)
            first = sink.first_output_at_or_after(trigger)
            if first is not None:
                break
        if first is None:
            raise RuntimeError("no output produced after the transition")
        latencies[name] = first - trigger
    return latencies


def measure_frequency_sweep(
    n_joins: int,
    periods: Sequence[int],
    window: int = 100,
    n_tuples: int = 20_000,
    case: str = "worst",
    seed: int = 0,
    factories: Optional[Dict[str, StrategyFactory]] = None,
    key_domain: Optional[int] = None,
) -> List[StageResult]:
    """Figures 11 and 12: total execution time vs. transition frequency."""
    from repro.engine.executor import run_events
    from repro.workloads.scenarios import frequency_events

    factories = factories or DEFAULT_FACTORIES
    results: List[StageResult] = []
    domain = key_domain or default_key_domain(window, n_joins)
    scenario = chain_scenario(n_joins, n_tuples, window, key_domain=domain, seed=seed)
    for period in periods:
        events = frequency_events(scenario, period, case=case)
        for name, factory in factories.items():
            strategy = factory(scenario)
            run_events(strategy, events)
            results.append(
                StageResult(
                    name,
                    n_joins,
                    n_tuples,
                    strategy.metrics.clock.now,
                    ops=strategy.metrics.snapshot(),
                    extra={"period": float(period)},
                    outputs=len(strategy.outputs),
                )
            )
    return results


def format_rows(results: Sequence[StageResult], extra_key: str = "") -> str:
    """Plain-text table of a result list (benchmarks print these)."""
    lines = []
    header = f"{'strategy':>16} {'joins':>6} {'tuples':>8} {'virtual_time':>14}"
    if extra_key:
        header += f" {extra_key:>10}"
    lines.append(header)
    for row in results:
        line = (
            f"{row.strategy:>16} {row.n_joins:>6d} {row.tuples:>8d} "
            f"{row.virtual_time:>14.1f}"
        )
        if extra_key:
            line += f" {row.extra.get(extra_key, float('nan')):>10.0f}"
        lines.append(line)
    return "\n".join(lines)
