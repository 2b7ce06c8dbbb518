"""One crash certifier: every cell of a crash schedule ends in one verdict.

Recovery must be as invisible in the output as migration (Section 3 of the
paper): a crashed and recovered run delivers what the uninterrupted run
delivers — the same multiset, each result once — and ends in sane state.
:func:`certify` checks that for every engine the repo recovers: a
:class:`~repro.faults.recovery.RecoveryManager` over a strategy (its faults
fire inside it), an :class:`~repro.optimizer.adaptive.AdaptiveEngine` over
one (which may also restart over the manager's store), and a
:class:`~repro.shard.executor.ShardedExecutor` (a shard crash is a schedule
entry applied between runs through ``crash_and_recover``).

It runs the uninterrupted baseline once, then each :class:`Cell`, and ends
every cell in exactly one :class:`Verdict`, also when the engine raises — the
one-terminal-outcome rule of tinypipe's kernel (SNIPPETS.md).  Per cell:
delivery equals the baseline's as a multiset with no duplicate;
:class:`~repro.faults.invariants.InvariantChecker` certifies the output
against the naive oracle and the state (``check_states``, or
``check_sharded`` for a coordinator); then the family's ``extra``
comparisons.  ``python -m repro.faults.sweep`` and ``python -m
repro.optimizer.soak`` are parameter sets of it.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple

from repro.faults.invariants import InvariantChecker, Lineage, OracleRun
from repro.faults.plan import FaultPlan
from repro.faults.recovery import RecoveryManager
from repro.faults.store import DurableStore
from repro.obs.tracer import NULL_TRACER, RecordingTracer, Tracer
from repro.optimizer.adaptive import AdaptiveEngine
from repro.shard.executor import ShardedExecutor
from repro.streams.tuples import StreamTuple


class Cell(NamedTuple):
    """One run under a crash schedule.

    ``plan``'s faults fire inside the engine.  ``at`` places an entry
    between runs, after arrival ``at`` is consumed: with ``shard``, that
    shard crashes and recovers and the distributed state is certified on
    the spot (a shard not live then has nothing to lose); without, the
    process restarts — a fresh engine over the same store takes the rest.
    """

    name: str
    plan: FaultPlan = FaultPlan()
    at: Optional[int] = None
    shard: Optional[int] = None


class Verdict(NamedTuple):
    """A cell's one terminal record: ``ok`` iff there is no reason."""

    cell: str
    ok: bool
    reasons: Tuple[str, ...]


#: ``(plan, store, tracer) -> engine``: fresh, under ``plan``'s faults, over
#: ``store`` when given (a restart), observed by ``tracer``.
Factory = Callable[[FaultPlan, Optional[DurableStore], Tracer], Any]
#: ``(cell, the cell's engines in order, baseline) -> failure reasons``.
Extra = Callable[[Cell, Sequence[Any], Any], List[str]]


def certify(
    factory: Factory,
    events: Sequence[Any],
    schedule: Callable[[Any], Sequence[Cell]],
    checker: InvariantChecker,
    extra: Optional[Extra] = None,
    trace_dir: Optional[str] = None,
) -> List[Verdict]:
    """Run the baseline once, then each cell ``schedule(baseline)`` places.

    The baseline is traced by a :class:`RecordingTracer`, so a schedule may
    read its events.  With ``trace_dir`` every cell is traced, and a failing
    cell's trace is exported to :func:`trace_file`.
    """
    baseline = _finish(factory(FaultPlan(), None, RecordingTracer()), events)
    expected = Counter(delivered(baseline))
    arrivals = [e for e in events if isinstance(e, StreamTuple)]
    oracle = checker.oracle(arrivals)  # once: each check reads its prefix
    verdicts = []
    for cell in schedule(baseline):
        tracer = RecordingTracer() if trace_dir is not None else NULL_TRACER
        engines = [factory(cell.plan, None, tracer)]
        try:
            reasons = _run(cell, engines, events, arrivals, factory, tracer, checker, oracle)
            if not reasons:
                got = delivered(engines[-1])
                if Counter(got) != expected:
                    reasons.append(
                        f"delivery diverged from the uninterrupted run "
                        f"(got {len(got)}, expected {sum(expected.values())} outputs)"
                    )
                if len(got) != len(set(got)):
                    reasons.append(f"duplicate delivery ({len(got) - len(set(got))} extra)")
                reasons += check(checker, oracle, engines[-1], arrivals, got)
                reasons += extra(cell, engines, baseline) if extra is not None else []
        except Exception as exc:  # the cell's outcome, not the sweep's
            reasons = [f"raised {type(exc).__name__}: {exc}"]
        if reasons and trace_dir is not None and isinstance(tracer, RecordingTracer):
            os.makedirs(trace_dir, exist_ok=True)
            tracer.export_jsonl(trace_file(trace_dir, cell.name))
        verdicts.append(Verdict(cell.name, not reasons, tuple(reasons)))
    return verdicts


def _run(
    cell: Cell,
    engines: List[Any],
    events: Sequence[Any],
    arrivals: Sequence[StreamTuple],
    factory: Factory,
    tracer: Tracer,
    checker: InvariantChecker,
    oracle: OracleRun,
) -> List[str]:
    """Drive one cell, applying its between-run entry; returns what a
    mid-run check found (the cell then ends there)."""
    engine = engines[0]
    if cell.at is None:
        _finish(engine, events)
        return []
    cut = [i for i, e in enumerate(events) if isinstance(e, StreamTuple)][cell.at] + 1
    engine.run(events[:cut])
    if cell.shard is None:
        engine = factory(FaultPlan(), _manager(engine).store, tracer)
        engines.append(engine)
    elif cell.shard < len(engine.workers) and engine.workers[cell.shard] is not None:
        engine.crash_and_recover(cell.shard)
        mid = check(checker, oracle, engine, arrivals[: cell.at + 1], delivered(engine))
        if mid:
            return [f"{reason} (mid-plan)" for reason in mid]
    _finish(engine, events[cut:])
    return []


def _finish(engine: Any, events: Sequence[Any]) -> Any:
    """Drive ``events``; a coordinator then drains its open rebalance plan,
    so final routing tables compare."""
    engine.run(events)
    if isinstance(engine, ShardedExecutor):
        engine.drain_rebalance()
    return engine


def _manager(engine: Any) -> Any:
    """The layer that recovers: an adaptive engine's target, else the engine."""
    return engine.target if isinstance(engine, AdaptiveEngine) else engine


def delivered(engine: Any) -> List[Lineage]:
    """What ``engine`` delivered downstream, each lineage sorted."""
    inner = _manager(engine)
    out = inner.delivered if isinstance(inner, RecoveryManager) else inner.output_lineages()
    return [tuple(sorted(lineage)) for lineage in out]


def check(
    checker: InvariantChecker,
    oracle: OracleRun,
    engine: Any,
    arrivals: Sequence[StreamTuple],
    got: Sequence[Lineage],
) -> List[str]:
    """The checker's violations for ``got`` (against ``oracle``'s output for
    ``arrivals``, a prefix of its run) and the state of the engine that
    recovers (a manager's live strategy, or a coordinator)."""
    inner = _manager(engine)
    state = inner.strategy if isinstance(inner, RecoveryManager) else inner
    expected = oracle.expected(len(arrivals))
    return checker.check(state, arrivals, got, expected).violations


def trace_file(trace_dir: str, cell: str) -> str:
    """Where a failing cell's JSONL trace goes."""
    name = cell.replace("/", "-").replace("=", "").replace(" ", "")
    return os.path.join(trace_dir, name + ".jsonl")


def failure_lines(verdicts: Sequence[Verdict], trace_dir: Optional[str] = None) -> List[str]:
    """One line per failed cell: its name, its reasons, its trace file."""
    return [
        f"{v.cell}: {'; '.join(v.reasons)}"
        + (f" [trace: {trace_file(trace_dir, v.cell)}]" if trace_dir is not None else "")
        for v in verdicts
        if not v.ok
    ]
