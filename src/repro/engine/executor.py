"""Event-driven execution of a strategy over a workload.

A workload is a sequence of *events*: arriving :class:`StreamTuple`\\ s
interleaved with :class:`TransitionEvent`\\ s (forced plan transitions, as
in every experiment of Section 6).  ``run_events`` drives any migration
strategy through such a sequence.

``StrategyExecutor`` is the interface every strategy implements — what the
drivers here, the telemetry hub, the optimizer and the shard worker use of
an engine, so that none of them probes it for its shape; strategies live in
:mod:`repro.migration` and :mod:`repro.eddy`.  An engine writes its
arrival path once: ``process_batch`` (a plain loop where arrivals share no
prologue), and ``process`` is a run of one.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

from repro.obs.tracer import Tracer

from repro.plans.spec import PlanSpec
from repro.streams.tuples import Lineage, StreamTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.engine.metrics import Metrics
    from repro.operators.fused import Kernel
    from repro.plans.build import PhysicalPlan


class TransitionEvent:
    """A forced plan transition to ``new_spec`` (or a left-deep order)."""

    __slots__ = ("new_spec",)

    def __init__(self, new_spec: PlanSpec):
        self.new_spec = new_spec

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TransitionEvent({self.new_spec!r})"


Event = Union[StreamTuple, TransitionEvent]


class ProbeSource(Protocol):
    """A plan operator or a SteM: what is probed keeps two native tallies."""

    probes: int
    hits: int


class StrategyExecutor(Protocol):
    """What every migration strategy / execution framework exposes."""

    name: str
    metrics: "Metrics"

    def process(self, tup: StreamTuple) -> None:
        """One arriving tuple: ``process_batch`` of a run of one."""
        ...

    def process_batch(self, tuples: Sequence[StreamTuple]) -> None:
        """A run of arrivals, back to back: any cut into runs is the same run;
        a rejected arrival raises with the run's earlier ones taken."""
        ...

    def transition(self, new_spec: PlanSpec) -> None:
        """Switch to ``new_spec`` using the strategy's migration policy."""
        ...

    @property
    def outputs(self) -> List[Any]:
        """Append-only log of emitted results."""
        ...

    def current_order(self) -> Tuple[str, ...]:
        """The bottom-up probe order arrivals run in now: the newest plan's
        (``ValueError`` if it is bushy), an eddy's routing; ``TypeError``
        where there is none to name (MJoin)."""
        ...

    def live_plans(self) -> List["PhysicalPlan"]:
        """Every physical plan arrivals are currently fed through, oldest
        first (``[]`` on the plan-less eddy / MJoin executors)."""
        ...

    def probe_sources(self) -> Sequence[Tuple[str, ProbeSource]]:
        """``(label, source)``: the live plans' operators, an eddy's SteMs."""
        ...

    def state_sizes(self) -> Dict[str, int]:
        """Entries held by label: join states by sorted membership, scans /
        SteMs / MJoin tables by stream name."""
        ...


class ShardableExecutor(StrategyExecutor, Protocol):
    """What a :class:`~repro.shard.worker.ShardWorker` needs on top: the
    coordinator owns the global windows and the merge order."""

    @property
    def output_times(self) -> List[float]:
        """Virtual emission time of each output, aligned with ``outputs``."""
        ...

    def output_lineages(self) -> List[Lineage]: ...

    def evict(self, tup: StreamTuple) -> bool:
        """Expire ``tup`` from whatever holds it; ``False`` if nothing did."""
        ...

    def kernel(self, stream: str) -> Optional["Kernel"]:
        """``stream``'s compiled doors, driven by the owner of the windows
        (``operators.fused.Kernel``: ``enter(t)``, ``arrive`` / ``expire``,
        ``leave()``), or ``None`` where ``process_batch`` / ``evict`` must run."""
        ...

    def carried(self, last_seq: int) -> None:
        """``Kernel.leave``'s answer: the newest seq carried through the doors."""
        ...

    def live_tuples(self) -> Dict[str, List[StreamTuple]]:
        """Per-stream window contents, in arrival order."""
        ...

    def extract(self, key: Any) -> Any:
        """Take every entry of ``key`` out, complete: a parcel for ``install``."""
        ...

    def install(self, key: Any, parcel: Any) -> int:
        """Adopt another engine's ``extract``; returns the entries adopted."""
        ...


def run_events(
    strategy: StrategyExecutor,
    events: Iterable[Event],
    tracer: Optional[Tracer] = None,
) -> StrategyExecutor:
    """Drive ``strategy`` through ``events``; returns the strategy.

    Pass a :class:`~repro.obs.tracer.RecordingTracer` as ``tracer`` to
    attach it to the strategy's metrics before the first event — every
    span, phase-attributed counter and output latency of the run is then
    captured (see :mod:`repro.obs`).

    Consecutive arrivals are handed to the strategy's ``process_batch`` as
    one run, flushed before every transition — so a run never spans a
    transition and strategies hoist per-plan lookups out of their arrival
    loops.
    """
    if tracer is not None:
        tracer.attach(strategy)
    batch: List[StreamTuple] = []
    for event in events:
        if isinstance(event, TransitionEvent):
            if batch:
                strategy.process_batch(batch)
                batch = []
            strategy.transition(event.new_spec)
        else:
            batch.append(event)
    if batch:
        strategy.process_batch(batch)
    return strategy


def interleave_transitions(
    tuples: Sequence[StreamTuple],
    transitions: Sequence[tuple],
) -> List[Event]:
    """Insert transitions into a tuple sequence.

    ``transitions`` is a list of ``(position, spec)`` pairs: the transition
    fires just before the tuple at index ``position``.  Positions may repeat
    (overlapped transitions) and may equal ``len(tuples)`` (fire at the end).
    """
    by_pos: dict = {}
    for pos, spec in transitions:
        if not 0 <= pos <= len(tuples):
            raise ValueError(f"transition position {pos} out of range")
        by_pos.setdefault(pos, []).append(spec)
    events: List[Event] = []
    for i, tup in enumerate(tuples):
        for spec in by_pos.get(i, ()):
            events.append(TransitionEvent(spec))
        events.append(tup)
    for spec in by_pos.get(len(tuples), ()):
        events.append(TransitionEvent(spec))
    return events
