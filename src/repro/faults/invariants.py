"""Output and state invariants a recovered run must satisfy.

The JISC correctness contract (Section 3 of the paper) is that migration —
and, here, crash recovery — must be invisible in the output: the result
stream stays **complete** (every join result the windows imply), **closed**
(nothing the windows do not imply) and **duplicate-free**.  The
:class:`InvariantChecker` certifies all three against the brute-force
:class:`~repro.testing.naive.NaiveJoinOracle`, which shares no code with
the engine, plus a structural sanity check over the live strategy: a state
marked *complete* must hold exactly the entries the current windows imply,
and an *incomplete* one may only lag behind — a checkpoint that restored an
incomplete state as complete is caught here.

Violations are reported as an :class:`InvariantReport` and raised as
:class:`InvariantViolation` (a ``RuntimeError``, not an ``AssertionError``:
the checker is a runtime certifier, usable outside pytest and under
``python -O``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.migration.base import MigrationStrategy
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.streams.window import window_contents
from repro.testing.naive import NaiveJoinOracle

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.shard.executor import ShardedExecutor

Part = Tuple[str, int]
Lineage = Tuple[Part, ...]


class InvariantViolation(RuntimeError):
    """A recovered run broke completeness, closedness or duplicate-freeness."""


@dataclass
class InvariantReport:
    """Outcome of one certification pass.

    ``violations`` holds one human-readable line per broken invariant
    (empty means the run is certified); the counts summarize the
    comparison for sweep output.
    """

    arrivals: int = 0
    expected_outputs: int = 0
    delivered_outputs: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_violated(self, context: str = "") -> None:
        if self.ok:
            return
        prefix = f"{context}: " if context else ""
        raise InvariantViolation(prefix + "; ".join(self.violations))


def _preview(lineages: Sequence[Lineage], limit: int = 3) -> str:
    shown = ", ".join(repr(l) for l in sorted(lineages)[:limit])
    more = len(lineages) - limit
    return shown + (f", ... +{more}" if more > 0 else "")


class InvariantChecker:
    """Certify a (possibly crashed-and-recovered) run against the oracle."""

    def __init__(self, schema: Schema, streams: Sequence[str]):
        self.schema = schema
        self.streams = tuple(streams)

    # -- output invariants -----------------------------------------------------------

    def check_output(
        self, arrivals: Sequence[StreamTuple], delivered: Sequence[Lineage]
    ) -> InvariantReport:
        """Compare the delivered-output log against the naive oracle.

        Certifies the three guarantees over output *lineages*:
        completeness (no oracle result missing), closedness (no result the
        oracle did not produce) and duplicate-freeness (no lineage
        delivered more often than the oracle produced it).
        """
        oracle = NaiveJoinOracle(self.schema, self.streams)
        for tup in arrivals:
            oracle.process(tup)
        expected = Counter(oracle.output_lineages())
        got = Counter(tuple(sorted(lineage)) for lineage in delivered)
        report = InvariantReport(
            arrivals=len(arrivals),
            expected_outputs=sum(expected.values()),
            delivered_outputs=sum(got.values()),
        )
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

    # -- state invariants ------------------------------------------------------------

    def check_states(self, strategy: MigrationStrategy) -> InvariantReport:
        """Structural sanity of the live strategy's intermediate states.

        For every internal join operator, the entries the current scan
        windows imply (per-key cross product over the operator's member
        streams) bound the actual state: a *complete* state must hold
        exactly that set — so an incomplete state restored as complete is
        detected — and an *incomplete* one at most a subset of it.

        Only meaningful at quiescence (buffered backlog drained): a
        legitimately lagging state is indistinguishable from a broken one
        mid-drain.
        """
        report = InvariantReport()
        plan = strategy.plan
        windows: Dict[str, List[StreamTuple]] = {
            name: window_contents(scan) for name, scan in plan.scans.items()
        }
        for op in plan.internal:
            members = sorted(op.membership)
            expected = self._implied_lineages(windows, members)
            actual = {tuple(sorted(e.lineage)) for e in op.state.entries()}
            label = "+".join(members)
            if op.state.status.complete:
                if actual != expected:
                    missing = expected - actual
                    extra = actual - expected
                    detail = []
                    if missing:
                        detail.append(f"missing {_preview(list(missing))}")
                    if extra:
                        detail.append(f"extra {_preview(list(extra))}")
                    report.violations.append(
                        f"state {label} marked complete but does not match "
                        f"the windows ({'; '.join(detail)})"
                    )
            else:
                extra = actual - expected
                if extra:
                    report.violations.append(
                        f"incomplete state {label} holds entries the windows "
                        f"do not imply ({_preview(list(extra))})"
                    )
        return report

    def _implied_lineages(
        self, windows: Dict[str, List[StreamTuple]], members: Sequence[str]
    ) -> set:
        by_key: Dict[str, Dict[object, List[StreamTuple]]] = {}
        for name in members:
            grouped: Dict[object, List[StreamTuple]] = {}
            for tup in windows[name]:
                grouped.setdefault(tup.key, []).append(tup)
            by_key[name] = grouped
        shared = set(by_key[members[0]])
        for name in members[1:]:
            shared &= set(by_key[name])
        implied: set = set()
        for key in shared:
            for combo in product(*(by_key[name][key] for name in members)):
                implied.add(tuple(sorted((t.stream, t.seq) for t in combo)))
        return implied

    # -- sharded-run invariants ------------------------------------------------------

    def check_sharded(self, executor: "ShardedExecutor") -> InvariantReport:
        """Structural sanity of a sharded run's distributed state.

        Two invariants over the coordinator/worker split
        (docs/SHARDING.md):

        * **Key locality** — every tuple a worker's windows hold belongs
          to a key whose state that worker currently owns
          (:meth:`~repro.shard.executor.ShardedExecutor.state_owner`,
          which accounts for pending lazy moves).

        * **Window agreement** — per stream, the union of worker-held
          tuples equals the coordinator's global window exactly: nothing
          leaked past an eviction, nothing vanished in a move or a
          crash/recovery.
        """
        report = InvariantReport()
        global_live = executor.live_tuples()
        union: Dict[str, "Counter[StreamTuple]"] = {
            name: Counter() for name in global_live
        }
        retired = executor.retired_shards
        for shard, worker in enumerate(executor.workers):
            if worker is None:
                if shard in retired:
                    # A scale-in drained and collected this shard; its slot
                    # stays None by design and holds no state to certify.
                    continue
                report.violations.append(
                    f"crashed shard {shard} still down: recover before certifying"
                )
                continue
            for name, tuples in worker.live_tuples().items():
                union[name].update(tuples)
                misplaced = [
                    t for t in tuples if executor.state_owner(t.key) != worker.shard_id
                ]
                if misplaced:
                    report.violations.append(
                        f"shard {worker.shard_id} holds {len(misplaced)} "
                        f"tuple(s) of stream {name} it does not own "
                        f"({_preview([(t.stream, t.seq) for t in misplaced])})"
                    )
        for name, tuples in global_live.items():
            expected = Counter(tuples)
            got = union.get(name, Counter())
            leaked = got - expected
            if leaked:
                report.violations.append(
                    f"stream {name}: {sum(leaked.values())} worker-held "
                    f"tuple(s) already evicted from the global window"
                )
            lost = expected - got
            if lost:
                report.violations.append(
                    f"stream {name}: {sum(lost.values())} live tuple(s) "
                    f"held by no worker"
                )
        return report

    # -- one-shot certification ------------------------------------------------------

    def certify(
        self,
        strategy: MigrationStrategy,
        arrivals: Sequence[StreamTuple],
        delivered: Sequence[Lineage],
        context: str = "",
    ) -> InvariantReport:
        """Run all checks; raise :class:`InvariantViolation` on any failure."""
        report = self.check_output(arrivals, delivered)
        report.violations.extend(self.check_states(strategy).violations)
        report.raise_if_violated(context)
        return report

    def certify_sharded(
        self,
        executor: "ShardedExecutor",
        arrivals: Sequence[StreamTuple],
        context: str = "",
    ) -> InvariantReport:
        """Certify a sharded run: merged output vs. the oracle, plus the
        distributed-state invariants.  Raises on any failure."""
        report = self.check_output(arrivals, executor.output_lineages())
        report.violations.extend(self.check_sharded(executor).violations)
        report.raise_if_violated(context)
        return report
