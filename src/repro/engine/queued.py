"""Explicit input queues and the safe-transition buffer-clearing phase.

Section 2.1 assumes push-based operators with an input queue each;
Section 4.1 builds the *safe plan transition* on top of that: a transition
may only discard old states after every queued tuple has been processed
through the old plan ("buffer-clearing phase"), otherwise queued tuples
lose the states they need and correctness breaks.

The default executors push synchronously (queues are trivially empty
between arrivals), which is observationally equivalent.  This module makes
the queues explicit so that the safe-transition requirement can be
demonstrated and tested.  Only *data* tuples are queued: window-expiry
removals always propagate synchronously (see
``operators.base.Operator.emit_removal`` — a queued removal can lose the
race against a probe from another subtree and let an arrival join with
expired state; fuzzing found exactly that).

* :class:`QueueScheduler` — one global FIFO of pending operator work,
  preserving arrival order (each hop counts a QUEUE_OP);
* :class:`BufferedJISCStrategy` / :class:`BufferedStaticExecutor` — variants
  of the pipelined strategies whose operators enqueue instead of pushing;
  ``process_batch`` drains the queue after each arrival unless
  ``auto_drain`` is off, and ``transition`` always drains first — exactly
  the paper's buffer-clearing phase.  Turning ``auto_drain`` off and
  skipping the drain before a transition reproduces the corruption
  scenario of Section 4.1 (see tests/test_queued.py).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Sequence, Tuple

from repro.engine.metrics import Counter, Metrics
from repro.migration.base import SpecLike, StaticPlanExecutor
from repro.migration.jisc import JISCStrategy
from repro.operators.base import Operator
from repro.streams.schema import Schema
from repro.streams.tuples import AnyTuple, StreamTuple

#: One queued unit of work: ``("process", target, tup, child)`` or
#: ``("remove", target, part, child, fresh)``.
QueueItem = Tuple[Any, ...]

class QueueScheduler:
    """Global FIFO of pending pipeline work.

    One queue (rather than one deque per operator) keeps the arrival order
    of inter-operator messages intact, which models per-operator FIFO
    queues drained fairly.
    """

    def __init__(self, metrics: Metrics):
        self.metrics = metrics
        self._queue: Deque[QueueItem] = deque()

    def enqueue_process(
        self, target: Operator, tup: AnyTuple, child: Optional[Operator]
    ) -> None:
        self.metrics.count(Counter.QUEUE_OP)
        self._queue.append(("process", target, tup, child))

    def enqueue_removal(
        self, target: Operator, part: Tuple[str, int], child: Operator, fresh: bool
    ) -> None:
        # Not called by the operators (removals are synchronous, see the
        # module docstring); kept so custom sources can schedule
        # retractions through the same FIFO (exercised by
        # tests/test_queued.py::test_enqueue_removal_custom_source).
        self.metrics.count(Counter.QUEUE_OP)
        self._queue.append(("remove", target, part, child, fresh))

    def drain(self) -> int:
        """Process queued work until empty; returns the number of items.

        Dequeues are counted one QUEUE_OP per item, exactly as before, but
        paid in one ``count_n`` per *wave* (everything queued when the wave
        starts); work enqueued by a wave is drained — and counted — by the
        next.  Totals are unchanged; only the clock's position between the
        items of one wave moves (by at most the wave's own dequeue cost).
        """
        n = 0
        queue = self._queue
        count_n = self.metrics.count_n
        while queue:
            wave = len(queue)
            count_n(Counter.QUEUE_OP, wave)
            for _ in range(wave):
                item = queue.popleft()
                if item[0] == "process":
                    _, target, tup, child = item
                    target.process(tup, child)
                else:
                    _, target, part, child, fresh = item
                    target.remove(part, child, fresh)
            n += wave
        return n

    def pending(self) -> int:
        return len(self._queue)

    def snapshot(self) -> List[QueueItem]:
        """The queued work items, oldest first (checkpoint serialization)."""
        return list(self._queue)

    def requeue(self, items: List[QueueItem]) -> None:
        """Re-enqueue previously snapshotted items (checkpoint restore)."""
        for item in items:
            self.metrics.count(Counter.QUEUE_OP)
            self._queue.append(item)

    def discard_all(self) -> int:
        """Drop queued work unprocessed (the *unsafe* path of Section 4.1)."""
        n = len(self._queue)
        self._queue.clear()
        return n


class _BufferedMixin:
    """Shared queue wiring for buffered strategy variants."""

    auto_drain: bool
    scheduler: QueueScheduler

    def _wire_queues(self) -> None:
        for op in self.plan.operators():
            op.scheduler = self.scheduler

    def install_scheduler(self, scheduler: QueueScheduler) -> None:
        """Swap in a replacement scheduler, carrying over pending work.

        Fault injection uses this to substitute an anomaly-injecting
        scheduler (``repro.faults.queue_faults``) after construction or
        after a checkpoint restore.
        """
        pending = self.scheduler.snapshot()
        self.scheduler.discard_all()
        if pending:
            scheduler.requeue(pending)
        self.scheduler = scheduler
        self._wire_queues()

    def process_batch(self, tuples: Sequence[StreamTuple]) -> None:  # type: ignore[override]
        # Arrival by arrival on purpose: each one must drain before the next
        # is admitted (the queues model per-arrival pipeline hops).
        admit = super().process_batch
        for tup in tuples:
            admit((tup,))
            if self.auto_drain:
                self.scheduler.drain()

    def drain(self) -> int:
        """Explicit buffer-clearing phase (Section 4.1)."""
        return self.scheduler.drain()

    def transition(self, new_spec: SpecLike, unsafe_skip_drain: bool = False) -> None:  # type: ignore[override]
        if unsafe_skip_drain:
            # Deliberately violate Section 4.1: queued tuples lose the
            # states of the plan they were meant for.  Only for tests.
            self.scheduler.discard_all()
        else:
            self.drain()
        super().transition(new_spec)
        self._wire_queues()


class BufferedStaticExecutor(_BufferedMixin, StaticPlanExecutor):
    """Static plan with explicit operator queues."""

    name = "static_buffered"

    def __init__(
        self,
        schema: Schema,
        initial_spec: SpecLike,
        metrics: Optional[Metrics] = None,
        join: str = "hash",
        auto_drain: bool = True,
    ):
        super().__init__(schema, initial_spec, metrics, join)
        self.scheduler = QueueScheduler(self.metrics)
        self.auto_drain = auto_drain
        self._wire_queues()


class BufferedJISCStrategy(_BufferedMixin, JISCStrategy):
    """JISC with explicit operator queues and the buffer-clearing phase."""

    name = "jisc_buffered"

    def __init__(
        self,
        schema: Schema,
        initial_spec: SpecLike,
        metrics: Optional[Metrics] = None,
        join: str = "hash",
        auto_drain: bool = True,
    ):
        super().__init__(schema, initial_spec, metrics, join)
        self.scheduler = QueueScheduler(self.metrics)
        self.auto_drain = auto_drain
        self._wire_queues()

    def drain(self) -> int:
        """Drain with conservative freshness.

        A manually drained backlog can interleave cascades of several
        arrivals, which cannot share the single fresh/attempted flag of the
        driving-tuple model; treating them all as fresh only triggers
        (idempotent) extra completion checks and is always sound.
        """
        self.controller.current_fresh = True
        return self.scheduler.drain()
