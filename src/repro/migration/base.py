"""Strategy base class and the static (no-migration) reference executor."""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.engine.cost import CostModel, VirtualClock
from repro.engine.metrics import Metrics
from repro.obs.tracer import PHASE_MIGRATING
from repro.operators.base import Operator
from repro.operators.joins import NestedLoopsJoin, SymmetricHashJoin
from repro.operators.unary import UnaryOperator
from repro.plans.build import OpFactory, PhysicalPlan, build_plan
from repro.plans.spec import PlanSpec, SpecOrOrder, left_deep, left_deep_order

#: What ``as_spec`` accepts: a nested spec, a flat left-deep stream order,
#: or infix plan text.
SpecLike = Union[str, SpecOrOrder]

#: Factory for one persistent unary operator stacked above the join root.
TopFactory = Callable[[Operator, Metrics], UnaryOperator]

#: Theta predicate over two join-attribute values.
Predicate = Callable[[Any, Any], bool]
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.streams.window import window_contents


def join_factory(join: str = "hash", predicate: Optional[Predicate] = None) -> OpFactory:
    """Operator factory for ``"hash"`` (symmetric hash) or ``"nl"`` joins."""
    if join == "hash":
        return lambda l, r, m: SymmetricHashJoin(l, r, m)
    if join == "nl":
        return lambda l, r, m: NestedLoopsJoin(l, r, m, predicate=predicate)
    raise ValueError(f"unknown join kind {join!r} (expected 'hash' or 'nl')")


def hybrid_join_factory(
    theta_streams: Iterable[str], predicate: Optional[Predicate] = None
) -> OpFactory:
    """Mixed plans (Section 2.1): hash joins for equi-join streams,
    nested-loops joins where a general theta predicate is involved.

    A join node is evaluated by nested loops when the stream it brings into
    the plan (its right child in a left-deep chain, or either side of a
    leaf join) belongs to ``theta_streams``; every other node uses a
    symmetric hash join.  ``predicate`` is the theta condition over the two
    join-attribute values (equality when omitted, which keeps the plan
    equivalent to an all-hash one — useful for testing).
    """
    theta = frozenset(theta_streams)

    def factory(left: Operator, right: Operator, metrics: Metrics) -> Operator:
        brings_theta = bool(right.membership & theta) or (
            len(left.membership) == 1 and bool(left.membership & theta)
        )
        if brings_theta:
            return NestedLoopsJoin(left, right, metrics, predicate=predicate)
        return SymmetricHashJoin(left, right, metrics)

    return factory


def unknown_stream(stream: str, known: Iterable[str]) -> ValueError:
    """The error every arrival path raises, before touching any state, for
    a tuple of a stream its plan does not cover."""
    return ValueError(
        f"tuple from unknown stream {stream!r} (plan has {', '.join(known)})"
    )


def as_spec(spec_or_order: SpecLike) -> PlanSpec:
    """Accept a nested spec, a flat left-deep stream order, or plan text.

    Strings are parsed as infix plan expressions (``"(R ⋈ S) ⋈ T"``,
    ``"R * S * T"`` — see :mod:`repro.plans.printer`).
    """
    if isinstance(spec_or_order, str):
        from repro.plans.printer import parse_plan

        spec = parse_plan(spec_or_order)
        if isinstance(spec, str):
            raise ValueError("a plan needs at least two streams")
        return spec
    if isinstance(spec_or_order, (list, tuple)) and all(
        isinstance(x, str) for x in spec_or_order
    ):
        return left_deep(tuple(spec_or_order))
    return spec_or_order


class MigrationStrategy:
    """Common scaffolding for all pipelined migration strategies.

    Parameters
    ----------
    schema:
        Participating streams and their window sizes.
    initial_spec:
        Starting plan: a nested spec or a flat left-deep stream order.
    metrics:
        Shared metrics bag; a fresh one (with a virtual clock) is created
        when omitted.
    join:
        ``"hash"`` for symmetric hash joins, ``"nl"`` for nested-loops.
    """

    name = "abstract"

    def __init__(
        self,
        schema: Schema,
        initial_spec: SpecLike,
        metrics: Optional[Metrics] = None,
        join: str = "hash",
        cost_model: Optional[CostModel] = None,
        op_factory: Optional[OpFactory] = None,
        top_factories: Optional[Sequence[TopFactory]] = None,
    ):
        self.schema = schema
        self.join = join
        self.op_factory = op_factory or join_factory(join)
        self.metrics = metrics or Metrics(clock=VirtualClock(cost_model))
        self.plan: PhysicalPlan = build_plan(
            as_spec(initial_spec), schema, self.metrics, op_factory=self.op_factory
        )
        self._last_seq = -1
        # Unary operators stacked between the join root and the sink
        # (Section 4.7: aggregates etc. are unaffected by plan transitions).
        # Created once; re-attached to each new plan's root so their state
        # (e.g. group-by counters) survives every migration.
        self.tops = [
            factory(self.plan.root, self.metrics) for factory in (top_factories or ())
        ]
        self._install_tops()

    def _install_tops(self) -> None:
        """Re-attach the persistent unary top chain above the current root."""
        if not self.tops:
            return
        below = self.plan.root
        for top in self.tops:
            top.child = below
            below.parent = top
            below = top
        self.plan.sink.attach(below)

    # -- interface -----------------------------------------------------------------

    def process(self, tup: StreamTuple) -> None:
        if tup.stream not in self.plan.scans:
            raise unknown_stream(tup.stream, self.plan.scans)
        self._last_seq = max(self._last_seq, tup.seq)
        tracer = self.metrics.tracer
        if tracer.enabled:
            tracer.arrival(tup)
        self.plan.feed(tup)

    def process_batch(self, tuples: Sequence[StreamTuple]) -> None:
        """Process a run of arrivals back-to-back (executor batching).

        Semantically identical to calling :meth:`process` per tuple — and
        implemented exactly that way here, binding the (subclass's)
        ``process`` once.  Subclasses whose per-arrival scaffolding can be
        hoisted out of the loop override this; batches never span a
        transition (the executor flushes first), so per-batch hoisting of
        plan internals is safe there.
        """
        process = self.process
        for tup in tuples:
            process(tup)

    def transition(self, new_spec: SpecLike) -> None:
        """Switch to ``new_spec`` via the strategy's ``_do_transition``.

        The wrapper owns the observability contract shared by every
        strategy: the transition call is a traced span
        (``transition_start`` / ``transition_end`` carrying its virtual
        cost) and everything inside runs in the ``"migrating"`` phase.
        """
        tracer = self.metrics.tracer
        if not tracer.enabled:
            self._do_transition(new_spec)
            return
        seq = self.next_seq
        start = self.now()
        tracer.transition_start(self.name, seq)
        prev = tracer.set_phase(PHASE_MIGRATING)
        try:
            self._do_transition(new_spec)
        finally:
            tracer.set_phase(prev)
            tracer.transition_end(self.name, seq, cost=self.now() - start)

    def _do_transition(self, new_spec: SpecLike) -> None:
        """Strategy-specific migration policy (override in subclasses)."""
        raise NotImplementedError

    @staticmethod
    def _release(plan: PhysicalPlan) -> None:
        """Unlink a replaced plan's operators: ``parent`` <-> ``left`` is a cycle;
        cut, the plan and every state nobody adopted die by reference count."""
        for op in plan.internal:
            op.parent = None

    def current_order(self) -> Tuple[str, ...]:
        return left_deep_order(self.live_plans()[-1].spec)

    def live_plans(self) -> List[PhysicalPlan]:
        """Every physical plan arrivals are currently fed through, oldest
        first — the one answer telemetry and the optimizer share (``[]`` on
        the plan-less eddy / MJoin executors)."""
        return [self.plan]

    def probe_sources(self) -> List[Tuple[str, Operator]]:
        """Every operator of the live plans (which share none), with its label."""
        return [(op.label, op) for plan in self.live_plans() for op in plan.operators()]

    def state_sizes(self) -> Dict[str, int]:
        """Entries per operator label, summed over the live plans (a scan's
        entries are its window's contents)."""
        sizes: Dict[str, int] = {}
        for label, op in self.probe_sources():
            sizes[label] = sizes.get(label, 0) + len(op.state)
        return sizes

    def evict(self, tup: StreamTuple) -> bool:
        """Coordinator-driven eviction (sharded execution): expire ``tup``
        from its scan; ``False`` when the window does not hold it."""
        return self.plan.scans[tup.stream].evict(tup)

    def live_tuples(self) -> Dict[str, List[StreamTuple]]:
        """Per-stream window contents, in arrival order."""
        return {name: window_contents(scan) for name, scan in self.plan.scans.items()}

    @property
    def outputs(self) -> List[Any]:
        return self.plan.sink.outputs

    @property
    def output_times(self) -> List[float]:
        """Virtual emission time of each output, aligned with ``outputs``.

        The sink survives every transition (plans are rebuilt around it),
        so both lists are append-only across the whole run — the sharded
        merge sink (``repro.shard.merge``) relies on stable indices.
        """
        return self.plan.sink.output_times

    def output_lineages(self) -> List[Tuple[Tuple[str, int], ...]]:
        return self.plan.sink.output_lineages()

    # -- shared helpers --------------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """Sequence number the next arrival will carry (at least)."""
        return self._last_seq + 1

    @property
    def clock(self) -> Optional[VirtualClock]:
        return self.metrics.clock

    def now(self) -> float:
        """Current virtual time (0.0 when no clock is attached)."""
        return self.metrics.clock.now if self.metrics.clock else 0.0


class StaticPlanExecutor(MigrationStrategy):
    """Reference executor: runs the initial plan forever.

    ``transition`` is a no-op, making this the oracle of Section 2.2: a
    correct migration strategy must produce exactly the same output log as
    this executor fed the same events.
    """

    name = "static"

    def process_batch(self, tuples: Sequence[StreamTuple]) -> None:
        """Hoisted per-arrival scaffolding; same op order as :meth:`process`.

        The static plan never changes, so ``feed`` is stable for any batch.
        """
        tracer = self.metrics.tracer
        traced = tracer.enabled
        scans = self.plan.scans
        feed = self.plan.feed
        for tup in tuples:
            if tup.stream not in scans:
                raise unknown_stream(tup.stream, scans)
            if tup.seq > self._last_seq:
                self._last_seq = tup.seq
            if traced:
                tracer.arrival(tup)
            feed(tup)

    def _do_transition(self, new_spec: SpecLike) -> None:
        return None
