"""MJoin: a single n-ary symmetric join operator (after [11, 1]).

The paper's Section 2.1 sets MJoin aside; it is provided here as an extra
baseline because it is the other classic "no intermediate state" design:
one hash table per stream, and each arriving tuple probes the other
streams' tables in a per-stream *probe order*, re-deriving all
intermediate results on the fly.  Like CACQ it migrates nothing on a plan
transition (only the probe orders change) and pays for that with
recomputation during normal operation — but without the eddy's per-hop
routing overhead, it sits between CACQ and the pipelined plans.

The probe order for a tuple of stream X defaults to the current left-deep
order with X removed, exactly how an optimizer would order MJoin probes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine.cost import CostModel, VirtualClock
from repro.engine.metrics import Counter, Metrics
from repro.migration.base import SpecLike, as_spec, unknown_stream
from repro.plans.spec import leaves
from repro.streams.schema import Schema
from repro.streams.tuples import CompositeTuple, Lineage, StreamTuple
from repro.streams.window import SlidingWindow, TimeSlidingWindow
from repro.operators.state import HashState


class MJoinExecutor:
    """One n-ary symmetric hash join over all streams."""

    name = "mjoin"

    def __init__(
        self,
        schema: Schema,
        initial_spec: SpecLike,
        metrics: Optional[Metrics] = None,
        cost_model: Optional[CostModel] = None,
    ):
        self.schema = schema
        self.metrics = metrics or Metrics(clock=VirtualClock(cost_model))
        order = tuple(leaves(as_spec(initial_spec)))
        if len(order) < 2:
            raise ValueError("an MJoin needs at least two streams")
        self.order: Tuple[str, ...] = order
        self.windows: Dict[str, Any] = {}
        self.tables: Dict[str, HashState] = {}
        for name in order:
            desc = schema.descriptor(name)
            if desc.window_kind == "time":
                self.windows[name] = TimeSlidingWindow(desc.window)
            elif desc.window_kind == "count":
                self.windows[name] = SlidingWindow(desc.window)
            else:  # "driven": nobody could evict, an MJoin has no such door
                raise ValueError(f"an MJoin owns its windows, got {desc.window_kind!r}")
            self.tables[name] = HashState()
        self.outputs: List[Any] = []
        self.output_times: List[float] = []

    # -- strategy interface -----------------------------------------------------

    def process(self, tup: StreamTuple) -> None:
        if tup.stream not in self.windows:
            raise unknown_stream(tup.stream, self.windows)
        hash(tup.key)
        tracer = self.metrics.tracer
        if tracer.enabled:
            tracer.arrival(tup)
        window = self.windows[tup.stream]
        table = self.tables[tup.stream]
        for evicted in window.push_all(tup):
            table.remove_entry(evicted)
            self.metrics.count(Counter.STATE_REMOVE)
        table.add(tup)
        self.metrics.count(Counter.HASH_INSERT)

        partials: List = [tup]
        for stream in self.probe_order(tup.stream):
            self.metrics.count(Counter.HASH_PROBE)
            matches = self.tables[stream].get(tup.key)
            if not matches:
                return
            partials = [
                CompositeTuple.of(partial, match)
                for partial in partials
                for match in matches
            ]
            # Intermediate results are transient but not free: each one is
            # constructed and handed to the next probe stage.
            self.metrics.count_n(Counter.TUPLE_EMIT, len(partials))
        clock = self.metrics.clock
        for result in partials:
            self.metrics.count(Counter.OUTPUT)
            self.outputs.append(result)
            when = clock.now if clock is not None else float(len(self.outputs))
            self.output_times.append(when)
            if tracer.enabled:
                tracer.output(result, when)

    def process_batch(self, tuples: Sequence[StreamTuple]) -> None:
        for tup in tuples:
            self.process(tup)

    def probe_order(self, stream: str) -> Tuple[str, ...]:
        """The other streams, in the current plan's bottom-up order."""
        return tuple(name for name in self.order if name != stream)

    def transition(self, new_spec: SpecLike) -> None:
        """Only the probe orders change; no state moves."""
        new_order = tuple(leaves(as_spec(new_spec)))
        if set(new_order) != set(self.order):
            raise ValueError("transition must preserve the stream set")
        tracer = self.metrics.tracer
        if tracer.enabled:
            tracer.transition_start(self.name, -1, order=list(new_order))
        self.order = new_order
        if tracer.enabled:
            tracer.transition_end(self.name, -1, cost=0.0)

    def current_order(self) -> Tuple[str, ...]:
        # every stream probes the others in its own order: callers pass ``order=``
        raise TypeError(f"cannot derive a probe order from {type(self).__name__}")

    def live_plans(self) -> List[Any]:
        return []  # one n-ary operator, no physical plan

    def probe_sources(self) -> List[Tuple[str, Any]]:
        return []  # the tables keep no probe tallies

    def state_sizes(self) -> Dict[str, int]:
        return {name: len(table) for name, table in self.tables.items()}

    def output_lineages(self) -> List[Lineage]:
        return [tup.lineage for tup in self.outputs]
