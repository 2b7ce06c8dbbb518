"""Moving State Strategy (Section 3.2, after [4]).

On a transition the execution halts; states of the new plan that also exist
in the old plan are moved over, and every missing state is *eagerly*
recomputed bottom-up from its children before execution resumes.  The
recomputation is the source of the strategy's output latency (Figure 10):
under hash joins it costs one probe per child entry, under nested-loops
joins it is quadratic in the window size.

The overall amount of work is close to JISC's (Section 5.1.1) — the
difference is *when* the work happens: all at once at the transition
(halting the output) versus on demand during execution.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.migration.base import MigrationStrategy, SpecLike, as_spec
from repro.operators.state import HashState
from repro.plans.build import Identity, build_plan


class MovingStateStrategy(MigrationStrategy):
    """Eager state migration: halt, recompute, resume."""

    name = "moving_state"

    def _do_transition(self, new_spec: SpecLike) -> None:
        old_plan = self.plan
        adopted: Set[Identity] = set()

        def provider(identity: Identity) -> Optional[HashState]:
            old_op = old_plan.by_identity.get(identity)
            if old_op is None:
                return None
            adopted.add(identity)
            return old_op.state

        new_plan = build_plan(
            as_spec(new_spec),
            self.schema,
            self.metrics,
            op_factory=self.op_factory,
            scans=old_plan.scans,
            state_provider=provider,
            sink=old_plan.sink,
        )
        # Eager recomputation of every missing state, bottom-up (the
        # builder lists internal nodes children-first).  This is the
        # halting phase: the virtual clock advances for every probe and
        # insert performed here, delaying the first post-transition output.
        rebuilt = 0
        for op in new_plan.internal:
            if op.identity not in adopted:
                op.build_state_full()
                rebuilt += 1
            # Moving State is *defined* by mutating states outside the lazy
            # pipeline: the halting rebuild leaves every state complete.
            op.state.status.mark_complete()  # jisclint: disable=JISC004
        tracer = self.metrics.tracer
        if tracer.enabled:
            tracer.note("eager_rebuild", states=rebuilt, adopted=len(adopted))
        self.plan = new_plan
        self._release(old_plan)
        self._install_tops()
