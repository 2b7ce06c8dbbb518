"""Output and state invariants a recovered run must satisfy.

Migration — and, here, crash recovery — must be invisible in the output
(Section 3 of the paper): the result stream stays **complete** (every join
result the windows imply), **closed** (nothing else) and
**duplicate-free**.  :class:`InvariantChecker` certifies all three against
the brute-force :class:`~repro.testing.naive.NaiveJoinOracle`, which shares
no code with the engine, plus the sanity of the state: a state marked
*complete* must hold exactly the entries the current windows imply, an
*incomplete* one may only lag behind (a checkpoint that restored an
incomplete state as complete is caught here), and a coordinator's workers
hold exactly its windows, each key at its owner.

Violations are collected in an :class:`InvariantReport` and raised as
:class:`InvariantViolation` — a ``RuntimeError``, so the checker works
outside pytest and under ``python -O``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.migration.base import MigrationStrategy
from repro.shard.executor import ShardedExecutor
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.streams.window import window_contents
from repro.testing.naive import NaiveJoinOracle

Part = Tuple[str, int]
Lineage = Tuple[Part, ...]


class InvariantViolation(RuntimeError):
    """A recovered run broke completeness, closedness or duplicate-freeness."""


@dataclass
class InvariantReport:
    """One line per broken invariant in ``violations`` (none: certified)."""

    expected_outputs: int = 0
    delivered_outputs: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _preview(lineages: Sequence[Lineage], limit: int = 3) -> str:
    shown = ", ".join(repr(l) for l in sorted(lineages)[:limit])
    more = len(lineages) - limit
    return shown + (f", ... +{more}" if more > 0 else "")


class OracleRun:
    """:class:`NaiveJoinOracle` fed ``arrivals`` once: the oracle emits on each
    arrival, so what any prefix implies is a prefix of its output log."""

    def __init__(self, schema: Schema, streams: Sequence[str], arrivals: Sequence[StreamTuple]):
        oracle = NaiveJoinOracle(schema, streams)
        #: Outputs after each prefix: ``marks[n]`` for the first ``n`` arrivals.
        self.marks = [0]
        for tup in arrivals:
            oracle.process(tup)
            self.marks.append(len(oracle.outputs))
        self.outputs = oracle.output_lineages()

    def expected(self, n: int) -> "Counter[Lineage]":
        """The lineages the first ``n`` arrivals imply, with their multiplicities."""
        return Counter(self.outputs[: self.marks[n]])


class InvariantChecker:
    """Certify a (possibly crashed-and-recovered) run against the oracle."""

    def __init__(self, schema: Schema, streams: Sequence[str]):
        self.schema = schema
        self.streams = tuple(streams)

    def oracle(self, arrivals: Sequence[StreamTuple]) -> OracleRun:
        """The oracle fed ``arrivals``, to read every prefix's ``expected`` from."""
        return OracleRun(self.schema, self.streams, arrivals)

    def check_output(
        self,
        arrivals: Sequence[StreamTuple],
        delivered: Sequence[Lineage],
        expected: "Optional[Counter[Lineage]]" = None,
    ) -> InvariantReport:
        """The delivered lineages against the oracle's (``expected``, when the
        caller read it from an :class:`OracleRun` of a longer run): none missing
        (complete), none it did not produce (closed), none delivered more
        often than it produced them (duplicate-free)."""
        if expected is None:
            expected = self.oracle(arrivals).expected(len(arrivals))
        got = Counter(tuple(sorted(lineage)) for lineage in delivered)
        report = InvariantReport(sum(expected.values()), sum(got.values()))
        missing = expected - got
        if missing:
            report.violations.append(
                f"incomplete: {sum(missing.values())} expected result(s) "
                f"missing ({_preview(list(missing))})"
            )
        spurious = got - expected
        if spurious:
            report.violations.append(
                f"not closed: {sum(spurious.values())} result(s) the windows "
                f"do not imply ({_preview(list(spurious))})"
            )
        duplicated = [l for l, n in got.items() if n > max(1, expected.get(l, 1))]
        if duplicated:
            report.violations.append(
                f"duplicates: {len(duplicated)} lineage(s) delivered more "
                f"than once ({_preview(duplicated)})"
            )
        return report

    def check_states(self, strategy: MigrationStrategy) -> InvariantReport:
        """Every internal join state against the entries the scan windows
        imply (the per-key cross product of its member streams): a complete
        state holds exactly those, an incomplete one a subset.  Meaningful
        at quiescence only — mid-drain, a buffered strategy's state lags."""
        report = InvariantReport()
        plan = strategy.plan
        windows = {name: window_contents(scan) for name, scan in plan.scans.items()}
        for op in plan.internal:
            members = sorted(op.membership)
            expected = _implied_lineages(windows, members)
            actual = {tuple(sorted(e.lineage)) for e in op.state.entries()}
            label = "+".join(members)
            extra = actual - expected
            if op.state.status.complete and actual != expected:
                missing = expected - actual
                detail = [f"missing {_preview(list(missing))}"] if missing else []
                detail += [f"extra {_preview(list(extra))}"] if extra else []
                report.violations.append(
                    f"state {label} marked complete but does not match "
                    f"the windows ({'; '.join(detail)})"
                )
            elif not op.state.status.complete and extra:
                report.violations.append(
                    f"incomplete state {label} holds entries the windows "
                    f"do not imply ({_preview(list(extra))})"
                )
        return report

    def check_sharded(self, executor: ShardedExecutor) -> InvariantReport:
        """A coordinator's distributed state (docs/SHARDING.md): *key
        locality* — every tuple a worker holds belongs to a key whose state
        it owns (``state_owner`` accounts for pending lazy moves) — and
        *window agreement* — per stream, the workers' tuples are exactly the
        coordinator's global window: nothing leaked past an eviction,
        nothing lost in a move or a crash and recovery."""
        report = InvariantReport()
        global_live = executor.live_tuples()
        union: Dict[str, "Counter[StreamTuple]"] = {name: Counter() for name in global_live}
        for shard, worker in enumerate(executor.workers):
            if worker is None:
                # A scale-in drained and collected a retired slot: no state.
                if shard not in executor.retired_shards:
                    report.violations.append(
                        f"crashed shard {shard} still down: recover before certifying"
                    )
                continue
            for name, tuples in worker.live_tuples().items():
                union[name].update(tuples)
                misplaced = [t for t in tuples if executor.state_owner(t.key) != worker.shard_id]
                if misplaced:
                    report.violations.append(
                        f"shard {worker.shard_id} holds {len(misplaced)} "
                        f"tuple(s) of stream {name} it does not own "
                        f"({_preview([(t.stream, t.seq) for t in misplaced])})"
                    )
        for name, tuples in global_live.items():
            expected, got = Counter(tuples), union.get(name, Counter())
            leaked, lost = got - expected, expected - got
            if leaked:
                report.violations.append(
                    f"stream {name}: {sum(leaked.values())} worker-held "
                    f"tuple(s) already evicted from the global window"
                )
            if lost:
                report.violations.append(
                    f"stream {name}: {sum(lost.values())} live tuple(s) held by no worker"
                )
        return report

    def check(
        self,
        engine: Union[MigrationStrategy, ShardedExecutor],
        arrivals: Sequence[StreamTuple],
        delivered: Optional[Sequence[Lineage]] = None,
        expected: "Optional[Counter[Lineage]]" = None,
    ) -> InvariantReport:
        """:meth:`check_output` on ``delivered`` (default: the engine's own
        output) plus :meth:`check_sharded` for a coordinator, else
        :meth:`check_states`."""
        got = engine.output_lineages() if delivered is None else delivered
        report = self.check_output(arrivals, got, expected)
        if isinstance(engine, ShardedExecutor):
            report.violations += self.check_sharded(engine).violations
        else:
            report.violations += self.check_states(engine).violations
        return report

    def certify(
        self,
        engine: Union[MigrationStrategy, ShardedExecutor],
        arrivals: Sequence[StreamTuple],
        delivered: Optional[Sequence[Lineage]] = None,
        context: str = "",
    ) -> InvariantReport:
        """:meth:`check`, raising :class:`InvariantViolation` on any failure."""
        report = self.check(engine, arrivals, delivered)
        if report.violations:
            prefix = f"{context}: " if context else ""
            raise InvariantViolation(prefix + "; ".join(report.violations))
        return report


def _implied_lineages(
    windows: Dict[str, List[StreamTuple]], members: Sequence[str]
) -> Set[Lineage]:
    """The lineages a join over ``members`` holds given the windows' contents."""
    by_key: Dict[str, Dict[object, List[StreamTuple]]] = {name: {} for name in members}
    for name in members:
        for tup in windows[name]:
            by_key[name].setdefault(tup.key, []).append(tup)
    shared = set.intersection(*(set(by_key[name]) for name in members))
    return {
        tuple(sorted((t.stream, t.seq) for t in combo))
        for key in shared
        for combo in product(*(by_key[name][key] for name in members))
    }
