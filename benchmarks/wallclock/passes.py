"""One pass of one workload in this process; prints one JSON object.

The harness (``cli.py``) starts a fresh interpreter per pass, strictly one
at a time: the process-wide lineage interner and the GC heap then start
identical in every pass — re-feeding the same tuples in one process would
turn interning into cache hits real streams never get.  GC stays on.

Modes: ``oracle`` runs the Section 2.2 reference (``StaticPlanExecutor`` on
the initial order) and stores its output-lineage multiset; ``closed`` feeds
the whole schedule back-to-back through the engine's own driver; ``open``
offers arrivals on a fixed schedule and records sojourn from the *due*
time; ``traced`` is the per-event driver unpaced, under ``trace.py``.
Every engine pass is checked against the stored oracle multiset.

All times are *reference seconds* (:class:`ReferenceClock`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: An open-loop pass whose last arrival returns later than this behind its
#: due time did not keep up with the offered rate.
UNSUSTAINABLE_BACKLOG_S = 0.250

#: A pass is cut into slices of this many arrivals (10-100 ms of work), each
#: bracketed by a calibration probe.
SLICE_ARRIVALS = 1000
#: What :func:`probe` takes (both loops together) on the 2-core box the
#: benchmark was defined on, in the fastest of its speed states.  One
#: reference second is one real second on a machine that fast.
REFERENCE_PROBE_S = 0.000445

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: 64 Ki int keys: about 5 MB, more than the box's private caches hold.
_SCATTERED = dict.fromkeys(range(1 << 16), 0)
HOT_OPS = 4000
COLD_OPS = 1800


def _dict_loop(table: Dict[int, int], ops: int, stride: int, mask: int) -> float:
    t0 = time.perf_counter()
    for i in range(ops):
        key = (i * stride) & mask
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - t0


def probe() -> Tuple[float, float]:
    """``(hot, cold)``: seconds two fixed pure-Python dict loops take right now.

    The hot loop stays in a 1 Ki-key table (cache-resident); the cold one
    scatters over ``_SCATTERED`` (cache-missing) and is sized to take about
    as long.  Each is the best of three, which drops a preempted loop, and
    allocates nothing the garbage collector tracks, so probing between
    slices does not move the engine's collections.
    """
    hot = min(_dict_loop({}, HOT_OPS, 7, 1023) for _ in range(3))
    cold = min(_dict_loop(_SCATTERED, COLD_OPS, 40503, 0xFFFF) for _ in range(3))
    return hot, cold


class ReferenceClock:
    """Times the sections of a pass in *reference seconds*.

    The box this benchmark was defined on moves, every 50 ms to tens of
    seconds, between CPU speeds up to 2x apart (CPU time moves with wall
    time: it is the host, not preemption), and one speed can outlast a
    whole run, so no median over passes removes it.  Every timed section is
    therefore bracketed by :func:`probe`, and its times are multiplied by a
    scale: what the reference machine's probe takes / what the probes
    around the section took.

    The host's slow states slow memory more than arithmetic, and the engine
    sits between the probe's two loops: measured on same-seed closed passes
    of ``migrate_churn``, times scaled by either loop alone ranged over
    x1.22, by their sum over x1.14 (unscaled: x1.5-2.0).  But the cold loop
    also reads what the engine just left in the caches, which is noise in a
    single slice (it doubled the spread of the tail latency), so a section
    is scaled by *its own* hot loops and the *pass's* median cold/hot ratio.
    """

    def __init__(self) -> None:
        #: Probes at the section boundaries: one more than there are sections.
        self.probes = [probe()]
        #: Unscaled ``(wall seconds, CPU seconds)`` per section.
        self.sections: List[Tuple[float, float]] = []
        self._wall = self._cpu = 0.0

    def start(self) -> None:
        self._cpu = time.process_time()
        self._wall = time.perf_counter()

    def stop(self) -> int:
        """End the section begun by :meth:`start`; returns its index."""
        wall = time.perf_counter() - self._wall
        cpu = time.process_time() - self._cpu
        self.probes.append(probe())
        self.sections.append((wall, cpu))
        return len(self.sections) - 1

    def slowdown(self) -> float:
        """Real seconds per reference second as last probed (paces the open loop)."""
        return sum(self.probes[-1]) / REFERENCE_PROBE_S

    def scales(self) -> List[float]:
        """Reference seconds per real second, for every section so far."""
        ratio = statistics.median(cold / hot for hot, cold in self.probes)
        return [
            2.0 * REFERENCE_PROBE_S / ((before[0] + after[0]) * (1.0 + ratio))
            for before, after in zip(self.probes, self.probes[1:])
        ]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (``q`` in (0, 1])."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def lineage_counts(lineages: Iterable[Tuple[Tuple[str, int], ...]]) -> Counter:
    """Output multiset keyed by a JSON-safe rendering of each lineage."""
    return Counter("|".join(f"{s}:{q}" for s, q in lineage) for lineage in lineages)


def compare_lineages(got: Counter, want: Counter) -> Tuple[int, int]:
    """``(missing, spurious)`` output counts of ``got`` against the oracle."""
    return sum((want - got).values()), sum((got - want).values())


def oracle_path(workload: str) -> str:
    return os.path.join(OUT_DIR, f"oracle_{workload}.json")


def slices(events: Sequence[Any]) -> List[List[Any]]:
    """The schedule cut after every ``SLICE_ARRIVALS``-th arrival."""
    from repro.streams.tuples import StreamTuple

    out: List[List[Any]] = [[]]
    arrivals = 0
    for event in events:
        if arrivals == SLICE_ARRIVALS:
            out.append([])
            arrivals = 0
        out[-1].append(event)
        arrivals += isinstance(event, StreamTuple)
    return out


def split_at_rebalances(events: Sequence[Any]) -> List[Tuple[List[Any], Any]]:
    """``[(run of arrivals/transitions, rebalance that follows or None)]``."""
    from repro.shard import RebalanceEvent

    steps: List[Tuple[List[Any], Any]] = []
    chunk: List[Any] = []
    for event in events:
        if isinstance(event, RebalanceEvent):
            steps.append((chunk, event))
            chunk = []
        else:
            chunk.append(event)
    steps.append((chunk, None))
    return steps


def apply_rebalance(engine: Any, event: Any) -> None:
    engine.drain_rebalance()
    engine.fluid_rebalance(event.assignment, event.mode, batch_keys=event.batch_keys)


def run_closed(built: Any, clock: ReferenceClock) -> Dict[str, Any]:
    """Back-to-back through the engine's own driver; reads ``outputs`` once."""
    engine, run = built.engine, built.run
    plan = [split_at_rebalances(events) for events in slices(built.events)]
    rebalanced = any(rebalance is not None for steps in plan for _, rebalance in steps)
    first = len(clock.sections)
    for steps in plan:
        clock.start()
        for chunk, rebalance in steps:
            run(chunk)
            if rebalance is not None:
                apply_rebalance(engine, rebalance)
        clock.stop()
    clock.start()
    if rebalanced:
        engine.drain_rebalance()
    outputs = len(engine.outputs)
    clock.stop()
    timed = list(zip(clock.sections, clock.scales()))[first:]
    return {
        "outputs": outputs,
        "raw_wall_s": sum(wall for (wall, _), _ in timed),
        "wall_s": sum(wall * scale for (wall, _), scale in timed),
        "cpu_s": sum(cpu * scale for (_, cpu), scale in timed),
    }


def run_paced(
    built: Any,
    rate: float,
    clock: ReferenceClock,
    process: Optional[Callable[[Any], None]] = None,
) -> Dict[str, Any]:
    """Per-event driver: arrival ``i`` is due ``1 / rate`` after arrival ``i - 1``.

    The driver busy-waits until the due time, so a stall is charged to
    every arrival it delays (sojourn = return - due).  A transition or
    rebalance shares the due time of the arrival it precedes.  ``rate`` is
    in arrivals per *reference* second: the schedule of each slice is
    stretched by the slowdown probed just before it, the schedule stands
    still during a probe, and the slice's times are scaled like any other
    section.  With an infinite ``rate`` nothing waits (the traced pass).
    """
    from repro.engine.executor import TransitionEvent
    from repro.streams.tuples import StreamTuple

    engine = built.engine
    if process is None:
        process = engine.process
    now = time.perf_counter
    #: Per slice: ``(section, sojourns, service times, transition times)``.
    measured: List[Tuple[int, List[float], List[float], List[float]]] = []
    lag: List[float] = []
    raised = 0
    rebalanced = False
    due = free_at = paused_at = now()
    for events in slices(built.events):
        gap = 0.0 if math.isinf(rate) else clock.slowdown() / rate
        sojourns: List[float] = []
        services: List[float] = []
        switches: List[float] = []
        clock.start()
        due += now() - paused_at
        for event in events:
            began = now()
            while began < due:
                began = now()
            if isinstance(event, StreamTuple):
                try:
                    process(event)
                except Exception:  # the pass must go on: count it, show the first
                    if not raised:
                        traceback.print_exc()
                    raised += 1
                done = now()
                lag.append(began - max(due, free_at))
                services.append(done - began)
                sojourns.append(done - due)
                free_at = done
                due += gap
            elif isinstance(event, TransitionEvent):
                engine.transition(event.new_spec)
                free_at = now()
                switches.append(free_at - began)
            else:
                apply_rebalance(engine, event)
                rebalanced = True
                free_at = now()
        paused_at = now()
        measured.append((clock.stop(), sojourns, services, switches))
    if rebalanced:
        engine.drain_rebalance()
    outputs = len(engine.outputs)

    scales = clock.scales()
    raw_s = wall_s = 0.0
    sojourn: List[float] = []
    service: List[float] = []
    transitions: List[float] = []
    for section, sojourns, services, switches in measured:
        scale = scales[section]
        raw_s += clock.sections[section][0]
        wall_s += clock.sections[section][0] * scale
        sojourn += [v * scale for v in sojourns]
        service += [v * scale for v in services]
        transitions += [v * scale for v in switches]
    backlog_end = sojourn[-1]
    sojourn.sort()
    service.sort()
    lag.sort()
    transitions.sort()
    return {
        "outputs": outputs,
        "raw_wall_s": raw_s,
        "wall_s": wall_s,
        "raised": raised,
        "unsustainable": backlog_end > UNSUSTAINABLE_BACKLOG_S,
        "latency_p99_ms": percentile(sojourn, 0.99) * 1e3,
        "latency_p999_ms": percentile(sojourn, 0.999) * 1e3,
        "latency_max_ms": sojourn[-1] * 1e3,
        "engine.service_p50_us": percentile(service, 0.5) * 1e6,
        "generator.lag_p99_us": percentile(lag, 0.99) * 1e6,
        "generator.backlog_end_ms": backlog_end * 1e3,
        "migration.transition_p99_ms": (
            percentile(transitions, 0.99) * 1e3 if transitions else 0.0
        ),
    }


def check_outputs(engine: Any, workload: str) -> Dict[str, int]:
    with open(oracle_path(workload)) as fh:
        want = Counter(json.load(fh))
    missing, spurious = compare_lineages(lineage_counts(engine.output_lineages()), want)
    return {"oracle_outputs": sum(want.values()), "missing": missing, "spurious": spurious}


def run_pass(workload_name: str, mode: str, seed: int, n: int, rate: float) -> Dict[str, Any]:
    t0 = time.perf_counter()
    from benchmarks.wallclock.workloads import WORKLOADS

    import_s = time.perf_counter() - t0
    workload = WORKLOADS[workload_name]
    tracer = None
    if mode == "traced":
        # installed before any engine exists, so bound methods taken at
        # construction already see the wrappers
        from benchmarks.wallclock.trace import SpanTracer

        tracer = SpanTracer()
        tracer.install()

    clock = ReferenceClock()
    clock.start()
    built = workload.build(seed, n)
    setup = clock.stop()
    result: Dict[str, Any] = {
        "mode": mode,
        "arrivals": len(built.arrivals),
        "import_s": import_s,
        "raw_setup_s": clock.sections[setup][0],
    }

    if mode == "oracle":
        from repro.engine.executor import run_events
        from repro.migration.base import StaticPlanExecutor

        static = StaticPlanExecutor(built.schema, built.order)
        run_events(static, built.arrivals)
        counts = lineage_counts(static.output_lineages())
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(oracle_path(workload_name), "w") as fh:
            json.dump(counts, fh)
        result["oracle_outputs"] = sum(counts.values())
        return result

    if mode == "closed":
        result.update(run_closed(built, clock))
    elif mode == "open":
        result.update(run_paced(built, rate, clock))
    else:
        root = tracer.root("driver.process", built.engine.process)
        paced = run_paced(built, math.inf, clock, root)
        # unpaced, so the schedule-relative numbers mean nothing here
        result.update({k: paced[k] for k in ("outputs", "raw_wall_s", "wall_s", "raised")})
    # before the oracle multiset is loaded, which would inflate the peak
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["sizes"] = built.sizes()
    result.update(check_outputs(built.engine, workload_name))
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.report(result["wall_s"] / result["raw_wall_s"])
        tracer.write_records(os.path.join(OUT_DIR, f"trace_{workload_name}.jsonl"))
        if built.recover is not None:
            # after the wrappers are gone, so the replay is not counted as
            # layer work of the pass
            clock.start()
            built.recover()
            recover = clock.stop()
            result["trace"]["shard.recover_s"] = (
                clock.sections[recover][0] * clock.scales()[recover]
            )
    result["setup_s"] = clock.sections[setup][0] * clock.scales()[setup]
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", required=True, choices=("oracle", "closed", "open", "traced"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--rate", type=float, required=True)
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.mode, args.seed, args.n, args.rate)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
