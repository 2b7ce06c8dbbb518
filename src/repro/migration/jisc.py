"""The JISC strategy: lazy, on-demand state completion (Section 4).

This is the thin runtime wrapper that wires :mod:`repro.core` into the
strategy interface: classify arrivals as fresh/attempted before feeding
them (Definition 2), and delegate transitions to
:func:`repro.core.transition.perform_jisc_transition` (state adoption,
counter initialization, overlapped-transition handling).

The transition itself performs no state computation whatsoever — adopted
states are pointer moves — which is why JISC keeps a steady output
(Section 5.1.1) and why its only migration cost appears lazily, as
completion work on the first fresh probe of each pending value.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence, Set

from repro.core.controller import JISCController
from repro.core.transition import perform_jisc_transition
from repro.engine.cost import CostModel
from repro.engine.metrics import Metrics
from repro.migration.base import (
    MigrationStrategy,
    SpecLike,
    TopFactory,
    as_spec,
    unknown_stream,
)
from repro.operators.fused import Kernel
from repro.operators.state import Parcel
from repro.plans.build import OpFactory
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple


class JISCStrategy(MigrationStrategy):
    """Just-In-Time State Completion."""

    name = "jisc"

    def __init__(
        self,
        schema: Schema,
        initial_spec: SpecLike,
        metrics: Optional[Metrics] = None,
        join: str = "hash",
        cost_model: Optional[CostModel] = None,
        force_recursive: bool = False,
        naive_recheck: bool = False,
        op_factory: Optional[OpFactory] = None,
        expiry_optimization: bool = True,
        top_factories: Optional[Sequence[TopFactory]] = None,
    ):
        super().__init__(
            schema, initial_spec, metrics, join, cost_model, op_factory, top_factories
        )
        self.controller = JISCController(
            self.metrics,
            force_recursive=force_recursive,
            naive_recheck=naive_recheck,
            expiry_optimization=expiry_optimization,
        )
        self.controller.attach(self.plan)

    def process_batch(self, tuples: Sequence[StreamTuple]) -> None:
        """:meth:`MigrationStrategy.process_batch` plus Definition 2 around ``feed``.

        An arrival is classified (``FreshnessRegistry.check``) before its cascade
        and recorded after it, on the registry's per-stream dict, only while a
        state is incomplete: nothing reads the verdict otherwise, and no record
        outlives a transition (PERFORMANCE.md).  ``incomplete_ops`` is read per
        arrival: the last state can complete part-way through a run.
        """
        controller = self.controller
        tracer = self.metrics.tracer
        traced = tracer.enabled
        scans = self.plan.scans
        feed = self.plan.feed
        for tup in tuples:
            if tup.stream not in scans:
                raise unknown_stream(tup.stream, scans)
            hash(tup.key)
            migrating = controller.incomplete_ops
            if migrating:
                registry = controller.freshness
                seen = registry.last_seen.get(tup.stream)
                prev = None if seen is None else seen.get(tup.key)
                controller.current_fresh = prev is None or prev < registry.last_transition_seq
                # The part of the tuple whose cascade is in flight; completion must
                # not pre-add results containing it (the cascade emits them itself).
                controller.current_part = (tup.stream, tup.seq)
            if tup.seq > self._last_seq:
                self._last_seq = tup.seq
            if traced:
                tracer.arrival(tup)
            feed(tup)
            if migrating:
                if seen is None:
                    seen = registry.last_seen[tup.stream] = {}
                seen[tup.key] = tup.seq

    def kernel(self, stream: str) -> Optional[Kernel]:
        """``None`` while a state is incomplete: an arrival is classified and
        recorded around its cascade then, which only :meth:`process_batch` does."""
        if self.controller.incomplete_ops:
            return None
        return super().kernel(stream)

    def extract(self, key: Any) -> Parcel:
        """Complete ``key`` where a state misses it, then hand it over (whole)."""
        if self.controller.incomplete_ops:
            self.controller.complete_key(key, self.plan)
        return super().extract(key)

    def _do_transition(self, new_spec: SpecLike) -> None:
        old_plan = self.plan
        self.plan = perform_jisc_transition(
            old_plan,
            as_spec(new_spec),
            self.schema,
            self.metrics,
            self.controller,
            transition_seq=self.next_seq,
            op_factory=self.op_factory,
        )
        self._release(old_plan)
        self._install_tops()

    # -- introspection (used by tests and benchmarks) ---------------------------------

    def incomplete_state_count(self) -> int:
        """Number of currently incomplete states."""
        return len(self.controller.incomplete_ops)

    def pending_values(self, names: Iterable[str]) -> Optional[Set[Any]]:
        """Pending completion values of the state covering ``names``."""
        state = self.plan.state_of(names)
        return None if state.status.pending is None else set(state.status.pending)
