"""Per-shard worker: one unmodified single-engine strategy behind a
uniform feed / evict / replay / transition surface.

A worker *is* a single engine: it runs any existing strategy (JISC,
Moving State, Parallel Track, STAIRs, CACQ) over the sub-stream of keys
it owns, with its own metrics and virtual clock.  The strategy never
learns it is sharded — two deviations from a standalone run are imposed
from outside (docs/SHARDING.md):

* **Workers own no window.**  Count/time windows are global per stream,
  so the coordinator owns them; workers are built against the *driven*
  schema (:func:`driven_schema`), whose scans and SteMs build no window
  object — their state is the window's contents — and every eviction is
  delivered explicitly through the strategy's ``evict`` door.

* **Replayed tuples are muted.**  Cross-shard key moves re-feed a key's
  live tuples through the destination worker's normal ``process`` path;
  every output that replay produces is a duplicate of something the
  source worker already emitted (the coordinated windows guarantee it),
  so :meth:`ShardWorker.replay` truncates them from the output log.

:class:`CommandLog` is the journal of everything the coordinator told one
worker to do; replaying it into a fresh worker rebuilds the crashed one.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.cost import CostModel
from repro.obs.tracer import PHASE_REBALANCING
from repro.streams.schema import Schema, StreamDescriptor
from repro.streams.tuples import StreamTuple

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.engine.executor import ShardableExecutor
    from repro.migration.base import SpecLike

#: Strategy names accepted by :func:`make_strategy`.
STRATEGY_NAMES = (
    "static",
    "jisc",
    "moving_state",
    "parallel_track",
    "stairs",
    "cacq",
)


def driven_schema(schema: Schema) -> Schema:
    """The worker-side schema: same streams and extents, every window the caller's."""
    return Schema(
        tuple(StreamDescriptor(d.name, d.window, "driven") for d in schema.streams),
        schema.key,
    )


def make_strategy(
    name: str,
    schema: Schema,
    initial_spec: "SpecLike",
    cost_model: Optional[CostModel] = None,
    join: str = "hash",
) -> "ShardableExecutor":
    """Construct a fresh single-engine strategy by name."""
    if name == "static":
        from repro.migration.base import StaticPlanExecutor

        return StaticPlanExecutor(schema, initial_spec, join=join, cost_model=cost_model)
    if name == "jisc":
        from repro.migration.jisc import JISCStrategy

        return JISCStrategy(schema, initial_spec, join=join, cost_model=cost_model)
    if name == "moving_state":
        from repro.migration.moving_state import MovingStateStrategy

        return MovingStateStrategy(
            schema, initial_spec, join=join, cost_model=cost_model
        )
    if name == "parallel_track":
        from repro.migration.parallel_track import ParallelTrackStrategy

        return ParallelTrackStrategy(
            schema, initial_spec, join=join, cost_model=cost_model
        )
    if name == "stairs":
        from repro.eddy.stairs import STAIRSExecutor

        return STAIRSExecutor(schema, initial_spec, join=join, cost_model=cost_model)
    if name == "cacq":
        from repro.eddy.cacq import CACQExecutor

        return CACQExecutor(schema, initial_spec, cost_model=cost_model)
    raise ValueError(
        f"unknown strategy {name!r} (expected one of {', '.join(STRATEGY_NAMES)})"
    )


class CommandLog:
    """One shard's journal of worker-bound commands, as aligned columns.

    Entry ``i`` is ``(kinds[i], payloads[i], times[i])``: the command
    (``feed`` / ``evict`` / ``replay`` / ``transition``, or a fluid plan's
    ``batch`` marker), its argument, and the external time it was
    delivered at.  The journal grows by two entries per arrival in steady
    state and lives as long as the shard, so an entry is three column
    slots — a shared kind string, a reference to a tuple that exists
    anyway, an unboxed double — and never an object of its own: nothing
    here adds to what a full garbage collection has to walk
    (docs/PERFORMANCE.md).  Iterating yields ``(kind, payload, time)``.
    """

    __slots__ = ("kinds", "payloads", "times")

    def __init__(self) -> None:
        self.kinds: List[str] = []
        self.payloads: List[Any] = []
        self.times = array("d")

    def append(self, kind: str, payload: Any, t: float) -> None:
        self.kinds.append(kind)
        self.payloads.append(payload)
        self.times.append(t)

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self) -> Iterator[Tuple[str, Any, float]]:
        return zip(self.kinds, self.payloads, self.times)


class ShardWorker:
    """One shard's engine plus the coordinator-facing adapters.

    Where the per-stream windows live — one plan, one plan per live track,
    per-stream SteMs — is the strategy's own business: :meth:`evict` and
    :meth:`live_tuples` ask it (:class:`~repro.engine.executor.ShardableExecutor`).

    ``clock``, ``process`` and ``expire`` are the strategy's clock and its
    two doors, bound once: a worker never changes strategy (a recovered or
    respawned worker is a new object), and the coordinator's arrival loop
    calls them directly.  :meth:`catch_up`, :meth:`feed` and :meth:`evict`
    are their definition, for every caller off that loop.
    """

    __slots__ = ("shard_id", "strategy", "metrics", "clock", "process", "expire")

    def __init__(self, shard_id: int, strategy: "ShardableExecutor"):
        self.shard_id = shard_id
        self.strategy = strategy
        #: The strategy's own metrics (it never rebinds them, nor their clock).
        self.metrics = strategy.metrics
        self.clock = strategy.metrics.clock
        self.process = strategy.process
        self.expire = strategy.evict

    # -- uniform strategy access -------------------------------------------------------

    @property
    def outputs(self) -> List[Any]:
        return self.strategy.outputs

    @property
    def output_times(self) -> List[float]:
        return self.strategy.output_times

    def output_lineages(self) -> List[Tuple[Tuple[str, int], ...]]:
        return self.strategy.output_lineages()

    def catch_up(self, t: float) -> None:
        """Advance the worker's virtual clock to external time ``t``.

        External arrival times model the input queue: work for an event
        cannot start before the event exists.  A worker that finished its
        previous work early idles (clock jumps forward); one that is
        behind keeps its later clock — exactly the queueing behaviour the
        rebalance latency benchmark measures.
        """
        clock = self.clock
        if clock is not None and clock.now < t:
            clock.now = t

    # -- coordinator-driven operations -------------------------------------------------

    def feed(self, tup: StreamTuple) -> None:
        """Process one owned arrival through the strategy's normal path."""
        self.process(tup)

    def evict(self, tup: StreamTuple) -> bool:
        """Deliver a global-window eviction for an owned tuple.

        Returns ``True`` if any structure held the tuple (a Parallel
        Track plan born after the tuple arrived legitimately does not).
        """
        return self.expire(tup)

    def transition(self, new_spec: "SpecLike") -> None:
        """Apply a plan transition (broadcast by the coordinator)."""
        self.strategy.transition(new_spec)  # type: ignore[arg-type]

    def live_tuples(self) -> Dict[str, List[StreamTuple]]:
        """Per-stream window contents this worker currently holds."""
        return self.strategy.live_tuples()

    def replay(self, tuples: Sequence[StreamTuple]) -> int:
        """Re-feed moved-in tuples with their outputs muted.

        The tuples are a key's live set in arrival order; processing them
        through the normal path rebuilds exactly the state the strategy
        would hold had it owned the key all along (the worker owns no
        window, so no eviction interleaves).  Every output produced here
        is a duplicate of a source-shard emission, so the log is truncated
        back — also when the strategy raises part-way, or the merger would
        deliver the duplicates; returns how many outputs were muted.  Runs
        in the ``rebalancing`` phase when this worker is traced.
        """
        process = self.process
        outs = self.strategy.outputs
        times = self.output_times
        mark = len(outs)
        tracer = self.metrics.tracer
        prev = tracer.set_phase(PHASE_REBALANCING) if tracer.enabled else None
        try:
            for tup in tuples:
                process(tup)
        finally:
            if prev is not None:
                tracer.set_phase(prev)
            muted = len(outs) - mark
            del outs[mark:]
            del times[mark:]
        return muted
