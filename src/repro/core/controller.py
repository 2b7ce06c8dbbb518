"""JISC runtime controller.

The controller owns everything Section 4 adds on top of a plain pipelined
plan:

* the freshness registry (Definition 2, Section 4.4);
* per-state completion bookkeeping: pending-value sets (the Section 4.3
  counters — ``counter == len(pending)``), the settled-value memo that
  makes completion happen at most once per (state, value), the reference
  child used for counter initialization (Cases 1-3), and the sequence
  number of the transition that made the state incomplete;
* the completion hook installed on every join operator (Procedure 1);
* the settle / retire / parent-notification cascades that detect when an
  incomplete state has become complete (Section 4.3);
* the window-expiry hooks: freshness-aware removal propagation
  (Sections 4.2 / 4.4) and pending-value retirement when the last
  pre-transition tuple for a value leaves the reference child's state.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple, TypeVar

from repro.core.bound import bind_left_deep
from repro.core.completion import complete_value_left_deep, complete_value_recursive
from repro.core.freshness import FreshnessRegistry
from repro.engine.metrics import Metrics
from repro.obs.tracer import PHASE_COMPLETING
from repro.operators.base import BinaryOperator, Operator
from repro.operators.joins import JoinOperator, SymmetricHashJoin
from repro.operators.state import HashState, StateStatus
from repro.plans.build import PhysicalPlan
from repro.streams.tuples import AnyTuple, StreamTuple


T = TypeVar("T")


class JISCStateInfo:
    """Per-operator completion bookkeeping (see module docstring)."""

    __slots__ = ("settled", "transition_seq", "reference_child")

    def __init__(self, transition_seq: int = 0):
        self.settled: Set[Any] = set()
        self.transition_seq = transition_seq
        self.reference_child: Optional[Operator] = None


class JISCController:
    """Coordinates state completion across one query's physical plan.

    ``current_fresh`` / ``current_part`` are defined only during an arrival that
    found a state incomplete (the engine calls the arrival hooks only then).
    """

    def __init__(
        self,
        metrics: Metrics,
        force_recursive: bool = False,
        naive_recheck: bool = False,
        expiry_optimization: bool = True,
    ):
        self.metrics = metrics
        self.freshness = FreshnessRegistry()
        self.info: Dict[Operator, JISCStateInfo] = {}
        # Sorted by membership and replaced, never mutated, on every change:
        # the expiry hook walks it in a run-independent order (a set's
        # varies with the hash seed) and may complete operators as it goes.
        self.incomplete_ops: List[BinaryOperator] = []
        self.plan: Optional[PhysicalPlan] = None
        self.current_fresh = True
        self.current_part: Optional[Tuple[str, int]] = None
        # Procedure 3 (left-deep walk) is used automatically for left-deep
        # plans unless forced off (useful for the Procedure-2/3 equivalence
        # tests).
        self.force_recursive = force_recursive
        # Section 4.4 ablation: with ``naive_recheck`` the fresh/attempted
        # classification and the settled-value memo are ignored, so every
        # probe of an incomplete state redoes the (idempotent) completion —
        # the "repeated computations" the paper's Definition 2 machinery
        # exists to avoid.  Output-equivalent, strictly more work.
        self.naive_recheck = naive_recheck
        # Section 4.4's window-slide optimization: attempted expiring tuples
        # stop propagating at the first state without a match.  Sound only
        # together with own-path completion on arrivals (see
        # JoinOperator.process); with the flag off, expiring tuples always
        # propagate through incomplete states (plain Section 4.2 rule) and
        # arrivals skip own-path completion.
        self.expiry_optimization = expiry_optimization
        self._use_left_deep = False

    # -- plan wiring -----------------------------------------------------------

    def attach(self, plan: PhysicalPlan) -> None:
        """Install hooks on ``plan``'s operators and adopt it as current.

        Idempotent; call again after changing statuses from outside (a
        checkpoint restore) so that :attr:`incomplete_ops` is re-derived.
        Binds, once, what completion and expiry would otherwise look up per
        value until the next transition (docs/PERFORMANCE.md).
        """
        self.plan = plan
        self._use_left_deep = plan.is_left_deep() and not self.force_recursive
        for op in plan.internal:
            if isinstance(op, JoinOperator):
                op.completion_hook = self._completion_hook
        self.incomplete_ops = sorted(
            (op for op in plan.internal if not op.state.status.complete),
            key=lambda op: sorted(op.membership),
        )
        # Procedure 3 as the kernels compiled from here on call it — chosen by what
        # the plan is: left-deep, symmetric hash joins only, counting on a plain
        # ``Metrics``.  Anything else completes through the hook.
        hash_joins = all(type(op) is SymmetricHashJoin for op in plan.internal)
        bindable = self._use_left_deep and hash_joins and type(self.metrics) is Metrics
        plan.completers = bind_left_deep(self, plan) if bindable else {}
        self._wire_expiry(plan)

    def _wire_expiry(self, plan: PhysicalPlan) -> None:
        """Install the window-slide hooks while some state is incomplete.

        Section 4.4's removal optimization: an expiring tuple is attempted
        iff its value arrived on its stream since the last transition, and
        may then stop at the first state without a match; a fresh one keeps
        clearing through incomplete states (Section 4.2).  Both hooks only
        ever act on incomplete states, so they come off with the last
        completion: between migrations an eviction pays for neither.
        """
        busy = bool(self.incomplete_ops)
        fresh_fn = self.freshness.check if busy and self.expiry_optimization else None
        expire_hook = self._bind_expiry() if busy else None
        for scan in plan.scans.values():
            scan.fresh_fn = fresh_fn
            scan.expire_hook = expire_hook

    # -- arrival path ----------------------------------------------------------

    def on_arrival(self, tup: StreamTuple) -> None:
        """Classify the arriving tuple as fresh/attempted (Definition 2).

        Must be called before feeding the tuple into the plan; the flag
        applies to the tuple's whole processing cascade (every composite
        produced while processing it carries the same join value).  Call
        :meth:`after_arrival` once the cascade has finished — the arrival
        is only *recorded* then, so the window eviction it may trigger is
        judged against the registry without the arrival itself.
        """
        self.current_fresh = self.freshness.check(tup)
        # The part of the tuple whose cascade is in flight; completion must
        # not pre-add results containing it (the cascade emits them itself).
        self.current_part = (tup.stream, tup.seq)

    def after_arrival(self, tup: StreamTuple) -> None:
        """Record the arrival once its processing cascade completed."""
        self.freshness.record(tup)

    def _completion_hook(
        self, tup: AnyTuple, join_node: Operator, opposite: Operator
    ) -> None:
        """Procedure 1, lines 5-6: complete on a fresh probe of a pending value.

        Called with ``opposite is join_node`` for own-path completion (the
        Section 4.4 soundness requirement), which is only needed when the
        window-slide optimization is active.
        """
        if opposite is join_node and not self.expiry_optimization:
            return
        if not self.current_fresh and not self.naive_recheck:
            return
        if not self.needs_completion(opposite, tup.key):
            return
        if self.metrics.tracer.enabled:
            self.observed_completion(
                opposite.label, tup.key, self._complete_value, opposite, tup.key
            )
        else:
            self._complete_value(opposite, tup.key)

    def _complete_value(self, op: Operator, key: Any) -> None:
        """Procedure 3 on a left-deep plan, Procedure 2 otherwise."""
        if self._use_left_deep:
            complete_value_left_deep(self, op, key)
        else:
            complete_value_recursive(self, op, key)

    def observed_completion(self, label: str, key: Any, run: Callable[..., T], *args: Any) -> T:
        """``run(*args)`` in the "completing" phase, as one span per (state, value) —
        the unit the paper's lazy migration cost is paid in.  The hook above and
        :func:`repro.core.bound.bind_left_deep`'s ``complete`` come here on their
        observed branch only."""
        tracer = self.metrics.tracer
        clock = self.metrics.clock
        start = clock.now if clock is not None else 0.0
        prev = tracer.set_phase(PHASE_COMPLETING)
        try:
            return run(*args)
        finally:
            cost = (clock.now if clock is not None else 0.0) - start
            tracer.completion(label, key, cost=cost)
            tracer.set_phase(prev)

    # -- completion bookkeeping --------------------------------------------------

    def needs_completion(self, op: Operator, key: Any) -> bool:
        """Does ``op``'s state possibly miss entries for ``key``?"""
        status = op.state.status
        if status.complete:
            return False
        if self.naive_recheck:
            return True
        info = self.info.get(op)
        if info is not None and key in info.settled:
            return False
        if status.pending is not None and key not in status.pending:
            # Never pending: the value was absent from the reference child at
            # transition time, so its entries are maintained incrementally
            # from the start (or it has been retired by window slides).
            return False
        return True

    def settle(self, op: BinaryOperator, key: Any) -> None:
        """Record that ``op``'s entries for ``key`` are now complete."""
        info = self.info.get(op)
        if info is None:
            info = self.info[op] = JISCStateInfo()
        info.settled.add(key)
        if op.state.status.settle_value(key):
            self._mark_complete(op)

    def _mark_complete(self, op: BinaryOperator) -> None:
        op.state.status.mark_complete()
        self.incomplete_ops = [o for o in self.incomplete_ops if o is not op]
        if not self.incomplete_ops and self.plan is not None:
            self._wire_expiry(self.plan)
        self.info.pop(op, None)
        self._notify_parent(op)

    def _notify_parent(self, op: Operator) -> None:
        """Section 4.3, Case 3: a child's completion may unlock the parent.

        When a Case-3 parent (both children were incomplete; no counter)
        sees a child complete, its counter can now be initialized (Case 1
        or 2); if nothing is pending the parent completes too, recursively.
        """
        parent = op.parent
        if parent is None or not isinstance(parent, BinaryOperator):
            return
        status = parent.state.status
        if status.complete or status.pending is not None:
            return
        self.init_pending(parent, at_transition=False)

    def init_pending(self, op: BinaryOperator, at_transition: bool = True) -> None:
        """(Re)initialize the completion counter of ``op`` (Cases 1-3).

        For joins:

        * Case 1 — both children complete: pending = distinct values of the
          smaller child's state (minus already-settled values).
        * Case 2 — one child complete: pending = distinct values of the
          complete child's state (minus settled).
        * Case 3 — neither complete: no counter (``pending = None``);
          completion is detected through child notifications.

        For set-difference the counter tracks the *old outer* values: the
        state misses exactly the pre-transition outer tuples, so pending is
        the (complete) outer child's distinct values at transition time.
        When the outer child completes later (``at_transition=False``), no
        pre-transition outer tuples remain in any window, so the state is
        complete outright.
        """
        info = self.info.get(op)
        if info is None:
            info = self.info[op] = JISCStateInfo()
        if op.kind == "setdiff":
            self._init_pending_setdiff(op, info, at_transition)
            return
        left, right = op.left, op.right
        left_ok = left.state.status.complete
        right_ok = right.state.status.complete
        if left_ok and right_ok:
            ref = (
                left
                if left.state.distinct_count() <= right.state.distinct_count()
                else right
            )
        elif left_ok:
            ref = left
        elif right_ok:
            ref = right
        else:
            op.state.status.complete = False
            op.state.status.pending = None
            info.reference_child = None
            return
        info.reference_child = ref
        pending = ref.state.distinct_values() - info.settled
        if pending:
            op.state.status.mark_incomplete(pending)
        else:
            self._mark_complete(op)

    def _init_pending_setdiff(
        self, op: BinaryOperator, info: JISCStateInfo, at_transition: bool
    ) -> None:
        left = op.left
        if not left.state.status.complete:
            op.state.status.complete = False
            op.state.status.pending = None
            info.reference_child = None
            return
        info.reference_child = left
        if not at_transition:
            # The outer child completed through retirement: every
            # pre-transition outer tuple has expired, nothing is missing.
            self._mark_complete(op)
            return
        pending = left.state.distinct_values() - info.settled
        if pending:
            op.state.status.mark_incomplete(pending)
        else:
            self._mark_complete(op)

    # -- window expiry ------------------------------------------------------------

    def _bind_expiry(self) -> Callable[[StreamTuple], None]:
        """This transition's expiry hook: retire pending values whose
        pre-transition support expired.

        Called after the removal cascade, so reference-child states already
        reflect the eviction.  When the reference child no longer holds any
        entry for ``tup.key`` that predates the state's transition, no
        missing pre-transition combination can remain, and the value's
        counter contribution is released (otherwise a never-probed value
        would keep the state incomplete forever).  The expired tuple lives
        under exactly one child, and the check is only valid against a
        *complete* child state (an incomplete one under-counts old entries,
        which would retire prematurely).  Which states an eviction on a
        stream concerns is looked up here, once, in :attr:`incomplete_ops`'
        run-independent order.
        """
        watchers: Dict[str, List[Tuple[BinaryOperator, StateStatus, HashState, int]]] = {}
        for op in self.incomplete_ops:
            info = self.info.get(op)
            if info is not None:
                for side in (op.left, op.right):
                    for stream in side.membership:
                        watchers.setdefault(stream, []).append(
                            (op, op.state.status, side.state, info.transition_seq)
                        )

        def on_expiry(tup: StreamTuple) -> None:
            key = tup.key
            for op, status, side, threshold in watchers.get(tup.stream, ()):
                if status.pending is None or key not in status.pending or not side.status.complete:
                    continue
                for entry in side.get_view(key):
                    if entry.max_seq() < threshold:
                        break  # pre-transition support is still in the window
                else:
                    if status.settle_value(key):
                        self._mark_complete(op)

        return on_expiry
