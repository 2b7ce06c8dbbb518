"""JISC plan-transition orchestration (Sections 4.1, 4.5).

``perform_jisc_transition`` switches a running query from its current plan
to ``new_spec``:

1. **Safe transition** (Section 4.1): the caller guarantees all input
   queues are drained before calling (the synchronous executor is always
   drained between arrivals; the queued executor exposes an explicit
   ``drain()`` — see ``engine.queued``).  Every tuple received before the
   transition has then been fully processed through the old plan, which is
   what makes JISC duplicate-free (Theorem 3).

2. **State adoption** (Definition 1): a new-plan state whose identity
   (operator kind + stream membership) exists in the old plan adopts the
   old state object — an O(1) pointer move, the reason JISC's transition
   itself costs nothing.  Old states with no new-plan counterpart are
   discarded.  Scans (windows) are reused as-is.

3. **Overlapped transitions** (Section 4.5): an adopted state that was
   still incomplete in the old plan *stays* incomplete; its pending set is
   re-derived from the current reference child and intersected with the
   previous pending set, and its original transition timestamp is kept.

4. **Counter initialization** (Section 4.3): brand-new (incomplete) states
   get their pending sets per Cases 1-3, bottom-up, so each node sees its
   children's final statuses.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core.controller import JISCController, JISCStateInfo
from repro.engine.metrics import Metrics
from repro.operators.state import HashState
from repro.plans.build import Identity, OpFactory, PhysicalPlan, build_plan
from repro.plans.spec import PlanSpec, validate_spec
from repro.streams.schema import Schema


def perform_jisc_transition(
    old_plan: PhysicalPlan,
    new_spec: PlanSpec,
    schema: Schema,
    metrics: Metrics,
    controller: JISCController,
    transition_seq: int,
    op_factory: Optional[OpFactory] = None,
) -> PhysicalPlan:
    """Migrate ``old_plan`` to ``new_spec`` under JISC; returns the new plan."""
    new_names = validate_spec(new_spec)
    old_names = frozenset(old_plan.scans)
    if new_names != old_names:
        raise ValueError(
            f"transition must preserve the stream set: {sorted(old_names)} "
            f"-> {sorted(new_names)}"
        )

    adopted: Set[Identity] = set()

    def provider(identity: Identity) -> Optional[HashState]:
        old_op = old_plan.by_identity.get(identity)
        if old_op is None:
            return None
        adopted.add(identity)
        return old_op.state

    new_plan = build_plan(
        new_spec,
        schema,
        metrics,
        op_factory=op_factory,
        scans=old_plan.scans,
        state_provider=provider,
        sink=old_plan.sink,
    )

    # Carry the controller bookkeeping from old operators to the new ones
    # that adopted their states (identity-preserving adoption).
    old_info = {}
    for op in old_plan.internal:
        info = controller.info.pop(op, None)
        if info is not None:
            old_info[op.identity] = info

    # Internal nodes are listed children-first (post-order), so counters can
    # be initialized bottom-up.
    for op in new_plan.internal:
        if op.identity in adopted:
            if op.state.status.complete:
                continue
            # Section 4.5: adopted but still incomplete from an earlier
            # transition.  Keep settled values and the original transition
            # timestamp; re-derive pending from the current children and
            # never widen it beyond what was already pending.
            prev = old_info.get(op.identity) or JISCStateInfo(transition_seq)
            controller.info[op] = prev
            prior_pending = (
                set(op.state.status.pending)
                if op.state.status.pending is not None
                else None
            )
            controller.init_pending(op)
            status = op.state.status
            if (
                not status.complete
                and status.pending is not None
                and prior_pending is not None
            ):
                status.pending &= prior_pending
                if not status.pending:
                    controller._mark_complete(op)
        else:
            # Brand-new state: incomplete by Definition 1.
            info = JISCStateInfo(transition_seq)
            controller.info[op] = info
            op.state.status.complete = False
            controller.init_pending(op)

    controller.attach(new_plan)
    controller.freshness.note_transition(transition_seq)
    tracer = metrics.tracer
    if tracer.enabled:
        tracer.note(
            "jisc_adoption",
            seq=transition_seq,
            adopted=len(adopted),
            new_states=len(new_plan.internal) - len(adopted),
            incomplete=len(controller.incomplete_ops),
        )
    return new_plan
