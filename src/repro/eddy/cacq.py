"""CACQ: continuously adaptive continuous queries (Section 3.1, after [3]).

Execution keeps no intermediate join state.  Each arriving tuple is
inserted into its stream's SteM and then routed by the eddy through the
SteMs of all other streams (in the current routing order); every partial
result returns to the eddy before its next probe — the per-tuple overhead
the paper measures in Figure 9(b).  A partial covering all streams emerges
as output.

A plan transition is just a routing-order change: no state to migrate, no
cost at transition time (Figures 7/8/11/12 include CACQ as the
zero-migration-cost / expensive-normal-operation baseline).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine.cost import CostModel, VirtualClock
from repro.engine.metrics import Counter, Metrics
from repro.eddy.routing import FixedOrderRouting, RoutingPolicy
from repro.eddy.stem import SteM
from repro.migration.base import SpecLike, as_spec, unknown_stream
from repro.plans.spec import leaves
from repro.streams.schema import Schema
from repro.streams.tuples import CompositeTuple, StreamTuple
from repro.streams.window import window_contents


class CACQExecutor:
    """Eddy + SteMs, stateless intermediate results."""

    name = "cacq"

    def __init__(
        self,
        schema: Schema,
        initial_spec: "SpecLike",
        metrics: Optional[Metrics] = None,
        cost_model: Optional[CostModel] = None,
        routing_policy: Optional[RoutingPolicy] = None,
    ):
        self.schema = schema
        self.metrics = metrics or Metrics(clock=VirtualClock(cost_model))
        self.routing: Tuple[str, ...] = tuple(leaves(as_spec(initial_spec)))
        if len(self.routing) < 2:
            raise ValueError("a CACQ query needs at least two streams")
        self.policy: RoutingPolicy = routing_policy or FixedOrderRouting(self.routing)
        self.stems: Dict[str, SteM] = {
            name: SteM(
                name,
                schema.window_of(name),
                self.metrics,
                schema.descriptor(name).window_kind,
            )
            for name in self.routing
        }
        self.outputs: List[Any] = []
        self.output_times: List[float] = []
        # Per-source-stream probe order, valid until the next transition.
        # Only populated for non-adaptive policies (FixedOrderRouting):
        # their order depends solely on (source, routing), so recomputing
        # it per arrival is pure overhead.
        self._routes: Dict[str, Tuple[str, ...]] = {}

    # -- strategy interface ------------------------------------------------------

    def _route_for(self, source: str) -> Tuple[str, ...]:
        if self.policy.adaptive:
            candidates = [s for s in self.routing if s != source]
            return self.policy.order_for(source, candidates)
        route = self._routes.get(source)
        if route is None:
            candidates = [s for s in self.routing if s != source]
            route = self._routes[source] = self.policy.order_for(source, candidates)
        return route

    def process(self, tup: StreamTuple) -> None:
        if tup.stream not in self.stems:
            raise unknown_stream(tup.stream, self.stems)
        metrics = self.metrics
        tracer = metrics.tracer
        if tracer.enabled:
            tracer.arrival(tup)
        self.stems[tup.stream].insert(tup)
        # The arriving tuple enters the eddy once; each partial produced by
        # a SteM probe returns to the eddy for its next routing decision.
        # Per-stage probes and visits are each counted in one count_n:
        # same totals as one count per probe / per partial, and no clock
        # reads happen between the grouped counts.
        metrics.count(Counter.EDDY_VISIT)
        adaptive = self.policy.adaptive
        of = CompositeTuple.of
        count_n = metrics.count_n
        partials: List = [tup]
        for stream in self._route_for(tup.stream):
            stem = self.stems[stream]
            get_view = stem.state.get_view
            next_partials: List = []
            append = next_partials.append
            hits = 0
            for partial in partials:
                before = len(next_partials)
                for match in get_view(partial.key):
                    append(of(partial, match))
                if len(next_partials) > before:
                    hits += 1
            stem.probes += len(partials)
            stem.hits += hits
            count_n(Counter.HASH_PROBE, len(partials))
            count_n(Counter.EDDY_VISIT, len(next_partials))
            if adaptive:
                self.policy.observe(stream, bool(next_partials))
            partials = next_partials
            if not partials:
                return
        clock = metrics.clock
        for result in partials:
            metrics.count(Counter.OUTPUT)
            self.outputs.append(result)
            when = clock.now if clock is not None else float(len(self.outputs))
            self.output_times.append(when)
            if tracer.enabled:
                tracer.output(result, when)

    def process_batch(self, tuples: Sequence[StreamTuple]) -> None:
        """Process a run of arrivals back-to-back (executor batching)."""
        process = self.process
        for tup in tuples:
            process(tup)

    def transition(self, new_spec: "SpecLike") -> None:
        """Adopt a new routing order; CACQ migrates no state."""
        new_routing = tuple(leaves(as_spec(new_spec)))
        if set(new_routing) != set(self.routing):
            raise ValueError("transition must preserve the stream set")
        tracer = self.metrics.tracer
        if tracer.enabled:
            # CACQ tracks no arrival sequence of its own; -1 marks "n/a".
            tracer.transition_start(self.name, -1, routing=list(new_routing))
        self.routing = new_routing
        self._routes.clear()
        self.policy.on_transition(new_routing)
        if tracer.enabled:
            tracer.transition_end(self.name, -1, cost=0.0)

    def current_order(self) -> Tuple[str, ...]:
        return self.routing

    def live_plans(self) -> List[Any]:
        return []  # no physical plans: the SteMs carry the state

    def probe_sources(self) -> List[Tuple[str, SteM]]:
        return [(name, self.stems[name]) for name in sorted(self.stems)]

    def state_sizes(self) -> Dict[str, int]:
        return {name: len(stem) for name, stem in self.stems.items()}

    def evict(self, tup: StreamTuple) -> bool:
        return self.stems[tup.stream].evict(tup)

    def live_tuples(self) -> Dict[str, List[StreamTuple]]:
        return {name: window_contents(stem) for name, stem in self.stems.items()}

    def output_lineages(self) -> List[Tuple]:
        return [tup.lineage for tup in self.outputs]
