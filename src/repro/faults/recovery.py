"""Crash recovery: checkpoint cadence, write-ahead log, replay, dedupe.

The :class:`RecoveryManager` wraps one strategy the way a supervisor wraps
a worker process:

* every consumed event is appended to the durable **arrival log** before
  it is processed (write-ahead);
* every ``checkpoint_every`` log records a **checkpoint** is cut with
  :func:`~repro.engine.checkpoint.checkpoint_strategy` and written to the
  store (possibly damaged by an injected fault — the store keeps what was
  written, recovery discovers the damage);
* every output the strategy emits is **delivered** to the durable output
  log, deduplicated by lineage, so downstream sees each join result
  exactly once no matter how often a replay or an at-least-once queue
  regenerates it.

On a :class:`~repro.faults.plan.SimulatedCrash` the manager restores the
newest checkpoint that parses and passes validation — falling back to
older ones on corruption, and to a cold start when none survive — then
replays the arrival log from the checkpoint's position.  Replayed work
runs in the ``"recovering"`` tracer phase, and every recovery step emits
an ``EVENT_RECOVERY`` trace event, so a trace tells the full story of a
faulted run.

The end-to-end contract (exercised exhaustively by
``python -m repro.faults.sweep``): the delivered output log of a crashed
and recovered run equals that of an uninterrupted run.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.engine.checkpoint import (
    key_from_json,
    key_to_json,
    spec_from_json,
    spec_to_json,
    checkpoint_strategy,
    restore_strategy,
)
from repro.engine.executor import Event, TransitionEvent
from repro.faults.plan import (
    CRASH_AFTER_LOG,
    CRASH_AFTER_PROCESS,
    CRASH_BEFORE_LOG,
    FaultInjector,
    FaultPlan,
    SimulatedCrash,
)
from repro.faults.store import DurableStore, Lineage, LogRecord, MemoryStore
from repro.migration.base import MigrationStrategy, SpecLike, as_spec, unknown_stream
from repro.obs.tracer import NULL_TRACER, PHASE_RECOVERING, Tracer
from repro.streams.tuples import StreamTuple

StrategyFactory = Callable[[], MigrationStrategy]
StrategyHook = Callable[[MigrationStrategy], None]


class RecoveryManager:
    """Durable supervision of one migration strategy.

    It takes arrivals and transitions through the strategy's own
    ``process`` / ``transition`` / ``state_sizes``, so an
    :class:`~repro.optimizer.adaptive.AdaptiveEngine` can drive it.

    Parameters
    ----------
    factory:
        Builds a fresh strategy (initial start and cold-start recovery).
    store:
        Durable storage; an in-memory store when omitted.
    checkpoint_every:
        Checkpoint cadence in log records; ``0`` disables checkpointing
        (recovery then always cold-starts and replays the whole log).
    injector:
        Fault schedule to run under; nothing is injected when omitted.
    tracer:
        Attached to every strategy incarnation; records fault/recovery
        events and attributes replay work to the ``"recovering"`` phase.
    on_strategy:
        Called with every new strategy incarnation (initial, restored,
        cold-started) — e.g. to install a faulty queue scheduler.
    """

    def __init__(
        self,
        factory: StrategyFactory,
        store: Optional[DurableStore] = None,
        checkpoint_every: int = 20,
        injector: Optional[FaultInjector] = None,
        tracer: Tracer = NULL_TRACER,
        on_strategy: Optional[StrategyHook] = None,
    ):
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.factory = factory
        self.store: DurableStore = store if store is not None else MemoryStore()
        self.checkpoint_every = checkpoint_every
        self.injector = injector if injector is not None else FaultInjector(FaultPlan())
        self.tracer = tracer
        self.on_strategy = on_strategy
        self.strategy: Optional[MigrationStrategy] = None
        self.recoveries = 0
        self._arrivals_consumed = 0
        self._outputs_seen = 0
        self._log_len = len(self.store.log())
        self._last_checkpoint_pos = max(
            (c.log_pos for c in self.store.checkpoints()), default=0
        )
        self._delivered_seen: Set[Lineage] = set(self.store.delivered())

    # -- driving ---------------------------------------------------------------------

    def run(self, events: Iterable[Event]) -> List[Lineage]:
        """Drive all ``events`` through the managed strategy.

        Returns the durable delivered-output log (lineages, in delivery
        order).  Scheduled crashes are recovered from transparently.
        """
        for event in events:
            if isinstance(event, TransitionEvent):
                self.transition(event.new_spec)
            else:
                self.process(event)
        return self.store.delivered()

    def process(self, tup: StreamTuple) -> None:
        """Consume one arrival, surviving any crash scheduled inside it.

        An arrival that crashed before reaching the log is redelivered by
        the source (at-least-once input), so no arrival is ever lost.
        """
        strategy = self._ensure_strategy()
        # Rejected as the strategy's own door would, before the log takes it:
        # a logged arrival that cannot be processed fails every later replay.
        scans = strategy.plan.scans
        if tup.stream not in scans:
            raise unknown_stream(tup.stream, scans)
        record = _arrival_record(tup)  # ``TypeError`` for a key the log cannot hold
        index = self._arrivals_consumed
        self._arrivals_consumed += 1
        logged = False
        try:
            self.injector.crash_point(index, CRASH_BEFORE_LOG)
            self._append_log(record)
            logged = True
            self.injector.crash_point(index, CRASH_AFTER_LOG)
            strategy.process(tup)
            self.injector.crash_point(index, CRASH_AFTER_PROCESS)
        except SimulatedCrash:
            self._recover()
            if not logged:
                # The crash hit before the write-ahead append: the arrival
                # is not in the log, so replay cannot cover it — the
                # redelivered copy goes through the normal path now.
                self._append_log(record)
                self._live_strategy().process(tup)
        self._deliver_new()
        self._maybe_checkpoint()

    def process_batch(self, tuples: Sequence[StreamTuple]) -> None:
        """Arrival by arrival: each is logged, maybe crashed, and delivered."""
        for tup in tuples:
            self.process(tup)

    def transition(self, new_spec: SpecLike) -> None:
        """Journal a plan transition, then apply it: replay after any later
        crash re-applies it like any other logged event."""
        strategy = self._ensure_strategy()
        self._append_log({"type": "transition", "spec": spec_to_json(as_spec(new_spec))})
        strategy.transition(new_spec)
        self._deliver_new()
        self._maybe_checkpoint()

    def state_sizes(self) -> Dict[str, int]:
        """The live incarnation's entries per operator; ``{}`` before the
        first event."""
        return self.strategy.state_sizes() if self.strategy is not None else {}

    @property
    def delivered(self) -> List[Lineage]:
        return self.store.delivered()

    # -- internals -------------------------------------------------------------------

    def _live_strategy(self) -> MigrationStrategy:
        if self.strategy is None:
            raise RuntimeError("no live strategy")
        return self.strategy

    def _ensure_strategy(self) -> MigrationStrategy:
        if self.strategy is not None:
            return self.strategy
        if self.store.log() or self.store.checkpoints():
            # Restarting over a non-empty store (e.g. a DirectoryStore
            # from a previous process): recover rather than start fresh.
            self._recover()
            return self._live_strategy()
        strategy = self.factory()
        self._adopt(strategy)
        return strategy

    def _adopt(self, strategy: MigrationStrategy) -> None:
        if self.tracer.enabled:
            self.tracer.attach(strategy)
        if self.on_strategy is not None:
            self.on_strategy(strategy)
        self.strategy = strategy
        self._outputs_seen = len(strategy.outputs)

    def _append_log(self, record: LogRecord) -> None:
        self.store.append_log(record)
        self._log_len += 1

    def _deliver_new(self) -> None:
        strategy = self._live_strategy()
        outputs = strategy.outputs
        while self._outputs_seen < len(outputs):
            tup = outputs[self._outputs_seen]
            self._outputs_seen += 1
            lineage: Lineage = tup.lineage
            if lineage in self._delivered_seen:
                if self.tracer.enabled:
                    self.tracer.recovery(
                        "duplicate_suppressed", lineage=[list(p) for p in lineage]
                    )
                continue
            self._delivered_seen.add(lineage)
            self.store.append_delivered(lineage)

    def _maybe_checkpoint(self) -> None:
        if self.checkpoint_every <= 0:
            return
        if self._log_len - self._last_checkpoint_pos < self.checkpoint_every:
            return
        blob = json.dumps(checkpoint_strategy(self._live_strategy()), sort_keys=True)
        blob = self.injector.filter_checkpoint(blob)
        self.store.put_checkpoint(blob, self._log_len)
        self._last_checkpoint_pos = self._log_len

    def _recover(self) -> None:
        """Restore the newest good checkpoint and replay the log tail."""
        self.recoveries += 1
        self.strategy = None
        if self.tracer.enabled:
            self.tracer.recovery("crash", arrivals_consumed=self._arrivals_consumed)
        restored: Optional[MigrationStrategy] = None
        log_pos = 0
        for record in reversed(self.store.checkpoints()):
            try:
                restored = restore_strategy(json.loads(record.blob))
            except (ValueError, KeyError, TypeError) as exc:
                # Damaged write (truncation -> JSONDecodeError, semantic
                # corruption -> ValueError): fall back to the previous one.
                if self.tracer.enabled:
                    self.tracer.recovery(
                        "checkpoint_rejected",
                        checkpoint=record.checkpoint_id,
                        error=type(exc).__name__,
                    )
                continue
            log_pos = record.log_pos
            if self.tracer.enabled:
                self.tracer.recovery(
                    "restored", checkpoint=record.checkpoint_id, log_pos=log_pos
                )
            break
        if restored is None:
            restored = self.factory()
            log_pos = 0
            if self.tracer.enabled:
                self.tracer.recovery("cold_start")
        self._adopt(restored)
        tail = self.store.log()[log_pos:]
        previous_phase = self.tracer.set_phase(PHASE_RECOVERING)
        try:
            for record_row in tail:
                if record_row["type"] == "transition":
                    restored.transition(spec_from_json(record_row["spec"]))
                else:
                    restored.process(
                        StreamTuple(
                            record_row["stream"],
                            record_row["seq"],
                            key_from_json(record_row["key"]),
                            record_row.get("payload"),
                        )
                    )
                self._deliver_new()
        finally:
            self.tracer.set_phase(previous_phase)
        if self.tracer.enabled:
            self.tracer.recovery("replayed", records=len(tail), log_pos=log_pos)


def _arrival_record(tup: StreamTuple) -> LogRecord:
    return {
        "type": "arrival",
        "stream": tup.stream,
        "seq": tup.seq,
        "key": key_to_json(tup.key),
        "payload": tup.payload,
    }
