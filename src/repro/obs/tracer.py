"""Migration-aware tracing: spans, phase-attributed counters, JSONL traces.

The repo's counters (:class:`~repro.engine.metrics.Metrics`) say *how much*
work a strategy performed; they cannot say *when* or *why* — whether a
``hash_probe`` belongs to normal operation, to Moving State's halting
rebuild, or to JISC completing one pending value.  The tracer closes that
gap:

* Every :class:`~repro.engine.metrics.Metrics` carries a tracer (the
  shared no-op :data:`NULL_TRACER` by default); see :class:`Tracer` for
  the seam every observer goes through.

* A :class:`RecordingTracer` keeps structured :class:`TraceEvent`\\ s —
  transition start/end, per-value completions, promote/demote, checkpoint,
  per-output virtual latency — in a bounded ring buffer, and splits every
  counted operation into per-*phase* counter maps.  Phases are
  context-scoped tags: ``"steady"`` (normal operation), ``"migrating"``
  (inside a transition call, or while Parallel Track runs multiple
  tracks), ``"completing"`` (inside JISC's just-in-time completion).  The
  per-phase totals always sum exactly to ``Metrics.counts``.

* Traces export to JSONL (one header object, then one object per event)
  and load back with :func:`load_trace`; ``python -m repro.obs.report
  trace.jsonl`` renders the migration timeline (see ``repro.obs.report``).
"""

from __future__ import annotations

import json
from collections import deque
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.histogram import LatencyHistogram

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.engine.cost import VirtualClock
    from repro.engine.metrics import Metrics
    from repro.streams.tuples import AnyTuple, StreamTuple

FORMAT_VERSION = 1

PHASE_STEADY = "steady"
PHASE_MIGRATING = "migrating"
PHASE_COMPLETING = "completing"
PHASE_RECOVERING = "recovering"
PHASE_REBALANCING = "rebalancing"
PHASES = (
    PHASE_STEADY,
    PHASE_MIGRATING,
    PHASE_COMPLETING,
    PHASE_RECOVERING,
    PHASE_REBALANCING,
)

EVENT_TRANSITION_START = "transition_start"
EVENT_TRANSITION_END = "transition_end"
EVENT_MIGRATION_END = "migration_end"
EVENT_COMPLETION = "completion"
EVENT_PROMOTE = "promote"
EVENT_DEMOTE = "demote"
EVENT_CHECKPOINT = "checkpoint"
EVENT_OUTPUT = "output"
EVENT_NOTE = "note"
EVENT_FAULT = "fault"
EVENT_RECOVERY = "recovery"
EVENT_REBALANCE_START = "rebalance_start"
EVENT_REBALANCE_END = "rebalance_end"
EVENT_REBALANCE_BATCH_START = "rebalance_batch_start"
EVENT_REBALANCE_BATCH_END = "rebalance_batch_end"
EVENT_SHARD_MOVE = "shard_move"
EVENT_TRIGGER = "trigger"

#: Trigger-decision actions (see ``repro.optimizer.triggers``): every
#: evaluation of a transition trigger lands in a trace as one of these.
TRIGGER_EVALUATED = "evaluated"
TRIGGER_FIRED = "fired"
TRIGGER_SUPPRESSED = "suppressed"


class TraceEvent:
    """One structured observation: virtual timestamp, kind, phase, payload."""

    __slots__ = ("ts", "kind", "phase", "data")

    def __init__(self, ts: float, kind: str, phase: str, data: Dict[str, Any]):
        self.ts = ts
        self.kind = kind
        self.phase = phase
        self.data = data

    def to_json(self) -> Dict[str, Any]:
        out = {"ts": self.ts, "kind": self.kind, "phase": self.phase}
        out.update(self.data)
        return out

    @classmethod
    def from_json(cls, obj: Dict[str, Any]) -> "TraceEvent":
        data = {k: v for k, v in obj.items() if k not in ("ts", "kind", "phase")}
        return cls(obj["ts"], obj["kind"], obj.get("phase", PHASE_STEADY), data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TraceEvent({self.kind}@{self.ts:.1f}, {self.phase}, {self.data})"


class Trace:
    """A loaded (or in-memory) trace: header metadata plus the event list."""

    __slots__ = ("header", "events")

    def __init__(self, header: Dict[str, Any], events: List[TraceEvent]):
        self.header = header
        self.events = events

    @property
    def phase_counts(self) -> Dict[str, Dict[str, int]]:
        return self.header.get("phase_counts", {})

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [ev for ev in self.events if ev.kind == kind]


class Tracer:
    """The observation seam: attach, phase scoping, per-phase attribution, ``event``.

    The base class records nothing (``enabled`` is false; the shared
    :data:`NULL_TRACER` is every ``Metrics``' default) but owns what its two
    subclasses share.  Instrumentation sites guard on ``tracer.enabled``
    before telling a tracer anything, and nothing reads a tracer to decide
    *how* to run: an observed engine executes what an unobserved one does.

    **Attribution** is by boundary deltas.  ``Metrics.counts`` is monotone,
    so what a phase counted is the difference between two reads of it;
    :meth:`_settle` credits that difference to the current phase at
    :meth:`attach`, at every :meth:`set_phase` that changes the phase and
    whenever :attr:`phase_counts` is read — never per operation.  Exact,
    because the fused kernels hand their tallies to ``Metrics`` before every
    hook, hand-off and ``output`` call (docs/OBSERVABILITY.md).  A tracer
    follows one ``Metrics`` at a time: attaching to a second settles the first.

    **Events** take one path: each typed hook names its leading fields and
    calls :meth:`event`; subclasses override ``event`` (plus ``arrival`` /
    ``output``), not the hooks.  State lives in class-level defaults until
    written, so a subclass need not call ``super().__init__()``.
    """

    enabled = False
    phase = PHASE_STEADY
    _metrics: Optional["Metrics"] = None
    _clock: Optional["VirtualClock"] = None
    #: ``Metrics.counts`` as of the last settle (set by ``attach``).
    _base: Dict[str, int]
    _phase_counts: Optional[Dict[str, Dict[str, int]]] = None

    # -- wiring -----------------------------------------------------------------------

    def attach(self, target: Any) -> Any:
        """Attach to a strategy (anything with ``.metrics``) or a Metrics.

        Counters accumulated *before* attaching are credited to the current
        phase, once, preserving the sum-to-``Metrics.counts`` invariant; the
        virtual clock is adopted.  Returns ``target`` for chaining.
        """
        if not self.enabled:
            return target
        metrics = getattr(target, "metrics", target)
        self._settle()  # the Metrics followed until now, if any
        self._metrics = metrics
        self._clock = metrics.clock
        self._base = {}
        self._settle()  # the new one's backlog
        metrics.tracer = self
        return target

    # -- phase scoping and attribution ------------------------------------------------

    def set_phase(self, phase: str) -> str:
        """Switch the attribution phase; returns the previous phase."""
        prev = self.phase
        if phase != prev and self.enabled:
            self._settle()
            self.phase = phase
        return prev

    def _settle(self) -> None:
        """Credit what ``Metrics`` counted since the last boundary to the
        current phase."""
        metrics = self._metrics
        if metrics is None:
            return
        base = self._base
        for op, n in metrics.counts.items():
            delta = n - base.get(op, 0)
            if delta:
                base[op] = n
                self.on_count(op, delta)

    def on_count(self, op: str, n: int) -> None:
        """Credit ``n`` of ``op`` to the current phase: the one writer of the
        per-phase counts, called per op that moved between two boundaries
        (never per operation).  A phase that counts nothing never appears."""
        if self._phase_counts is None:
            self._phase_counts = {}
        by = self._phase_counts.setdefault(self.phase, {})
        by[op] = by.get(op, 0) + n

    @property
    def phase_counts(self) -> Dict[str, Dict[str, int]]:
        """Phase -> op -> count, settled; sums to ``Metrics.counts``."""
        self._settle()
        return self._phase_counts or {}

    # -- the event path -----------------------------------------------------------------

    def event(self, kind: str, data: Dict[str, Any]) -> None:
        """Every typed hook below ends here; ``data`` is the event's payload."""

    def arrival(self, tup: "StreamTuple") -> None:
        pass

    def output(self, tup: "AnyTuple", when: float) -> None:
        pass

    def transition_start(self, strategy: str, seq: int, **data: Any) -> None:
        self.event(EVENT_TRANSITION_START, {"strategy": strategy, "seq": seq, **data})

    def transition_end(self, strategy: str, seq: int, **data: Any) -> None:
        self.event(EVENT_TRANSITION_END, {"strategy": strategy, "seq": seq, **data})

    def migration_end(self, strategy: str, **data: Any) -> None:
        self.event(EVENT_MIGRATION_END, {"strategy": strategy, **data})

    def completion(self, op_label: str, key: Any, **data: Any) -> None:
        self.event(EVENT_COMPLETION, {"op": op_label, "key": key, **data})

    def promote(self, n: int, **data: Any) -> None:
        self.event(EVENT_PROMOTE, {"n": n, **data})

    def demote(self, n: int, **data: Any) -> None:
        self.event(EVENT_DEMOTE, {"n": n, **data})

    def checkpoint(self, strategy: str, **data: Any) -> None:
        self.event(EVENT_CHECKPOINT, {"strategy": strategy, **data})

    def note(self, what: str, **data: Any) -> None:
        self.event(EVENT_NOTE, {"what": what, **data})

    def fault(self, kind: str, **data: Any) -> None:
        self.event(EVENT_FAULT, {"fault": kind, **data})

    def recovery(self, what: str, **data: Any) -> None:
        self.event(EVENT_RECOVERY, {"what": what, **data})

    def rebalance_start(self, mode: str, **data: Any) -> None:
        self.event(EVENT_REBALANCE_START, {"mode": mode, **data})

    def rebalance_end(self, mode: str, **data: Any) -> None:
        self.event(EVENT_REBALANCE_END, {"mode": mode, **data})

    def rebalance_batch_start(self, index: int, total: int, **data: Any) -> None:
        """One batch of a fluid rebalance plan opened (assignment flipped)."""
        self.event(EVENT_REBALANCE_BATCH_START, {"index": index, "total": total, **data})

    def rebalance_batch_end(self, index: int, total: int, **data: Any) -> None:
        """The open batch's last key settled or retired."""
        self.event(EVENT_REBALANCE_BATCH_END, {"index": index, "total": total, **data})

    def shard_move(self, key: Any, src: int, dst: int, **data: Any) -> None:
        self.event(EVENT_SHARD_MOVE, {"key": key, "src": src, "dst": dst, **data})

    def trigger(self, action: str, **data: Any) -> None:
        """One re-optimization trigger decision (evaluated/fired/suppressed).

        ``data`` carries the decision's cost evidence — current vs best
        plan cost, improvement, migration cost — so a trace explains *why*
        a migration happened (or was held back)."""
        self.event(EVENT_TRIGGER, {"action": action, **data})


#: Shared no-op tracer; the default of every Metrics instance.
NULL_TRACER = Tracer()


class RecordingTracer(Tracer):
    """Tracer that records events, per-phase counters, and latencies.

    Parameters
    ----------
    capacity:
        Ring-buffer bound on retained events.  When full, the oldest
        events are evicted and ``dropped`` counts them — aggregates
        (per-phase counters, latency histograms) are unaffected by
        eviction.
    clock:
        Virtual clock to timestamp events with; normally bound by
        :meth:`attach` from the strategy's metrics.
    """

    enabled = True

    def __init__(self, capacity: int = 100_000, clock: Optional["VirtualClock"] = None):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.events: "deque[TraceEvent]" = deque(maxlen=capacity)
        self.dropped = 0
        self.latency: Dict[str, LatencyHistogram] = {}
        self._clock = clock
        self._arrival_vt: Dict[Tuple[str, int], float] = {}

    def _now(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    def event(self, kind: str, data: Dict[str, Any]) -> None:
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(TraceEvent(self._now(), kind, self.phase, data))

    def arrival(self, tup: "StreamTuple") -> None:
        self._arrival_vt[(tup.stream, tup.seq)] = self._now()

    def output(self, tup: "AnyTuple", when: float) -> None:
        born = max(
            (
                self._arrival_vt[ref]
                for ref in tup.lineage
                if ref in self._arrival_vt
            ),
            default=when,
        )
        latency = max(0.0, when - born)
        hist = self.latency.get(self.phase)
        if hist is None:
            hist = self.latency[self.phase] = LatencyHistogram()
        hist.add(latency)
        self.event(EVENT_OUTPUT, {"tuple_id": list(tup.lineage), "latency": latency})

    # -- aggregates --------------------------------------------------------------------

    def counts_total(self) -> Dict[str, int]:
        """Sum of the per-phase counters (equals ``Metrics.counts``)."""
        total: Dict[str, int] = {}
        for by in self.phase_counts.values():
            for op, n in by.items():
                total[op] = total.get(op, 0) + n
        return total

    def overall_latency(self) -> LatencyHistogram:
        merged = LatencyHistogram()
        for hist in self.latency.values():
            merged.merge(hist)
        return merged

    def header(self) -> Dict[str, Any]:
        return {
            "kind": "header",
            "version": FORMAT_VERSION,
            "events": len(self.events),
            "dropped": self.dropped,
            "capacity": self.capacity,
            "phase_counts": {p: dict(c) for p, c in self.phase_counts.items()},
            "latency": {p: h.to_json() for p, h in self.latency.items()},
        }

    def as_trace(self) -> Trace:
        """In-memory :class:`Trace` view (no serialization round-trip)."""
        return Trace(self.header(), list(self.events))

    # -- JSONL -------------------------------------------------------------------------

    def to_jsonl(self) -> str:
        lines = [json.dumps(self.header(), sort_keys=True, default=str)]
        lines.extend(
            json.dumps(ev.to_json(), sort_keys=True, default=str)
            for ev in self.events
        )
        return "\n".join(lines) + "\n"

    def export_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())


def parse_jsonl(lines: Iterable[str]) -> Trace:
    """Build a :class:`Trace` from JSONL lines (header optional).

    A header says how many events follow it: fewer parsed — the last lines
    missing, or one cut short — raises ``ValueError`` instead of returning
    a silently short trace.  Header-less input is taken as it comes.
    """
    header: Dict[str, Any] = {}
    events: List[TraceEvent] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            if not header:
                raise
            break  # a cut line ends the trace; the count below reports it
        if obj.get("kind") == "header":
            header = obj
        else:
            events.append(TraceEvent.from_json(obj))
    expected = header.get("events")
    if expected is not None and expected != len(events):
        raise ValueError(
            f"truncated trace: the header announces {expected} events, "
            f"{len(events)} could be read"
        )
    return Trace(header, events)


def load_trace(path: str) -> Trace:
    """Load a JSONL trace written by :meth:`RecordingTracer.export_jsonl`."""
    with open(path) as fh:
        return parse_jsonl(fh)
