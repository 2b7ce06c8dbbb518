"""Deterministic cost model and virtual clock.

The paper's latency experiment (Figure 10) reports *seconds* on a specific
Java/Windows machine.  To reproduce the shape of those results in a
machine-independent way, every primitive operation is assigned a fixed cost
in abstract time units; a :class:`VirtualClock` accumulates them.  Output
latency is then "virtual time from transition trigger to first output",
which depends only on how much work a strategy performs — exactly the
quantity the paper's figure is about.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.engine.metrics import Counter

#: Default per-operation costs, in abstract time units.  Only the ratios
#: matter.  They model a main-memory DSMS: a probe walks a bucket and
#: materializes matches (1.0); hash-table maintenance (insert/remove) is a
#: cheap slot update (0.3); handing a tuple to the next pipeline operator is
#: a queue push (0.2), while an eddy visit additionally takes a routing
#: decision and updates the tuple's progress bit-vector (1.0 — the per-tuple
#: overhead Section 3.1 attributes to CACQ); a nested-loops step is a bare
#: predicate evaluation (0.25) but runs once per scanned entry; duplicate
#: elimination and purge polling are hash/memo lookups (0.5 / 0.25).
DEFAULT_COSTS: Dict[str, float] = {
    Counter.HASH_PROBE: 1.0,
    Counter.HASH_INSERT: 0.3,
    Counter.STATE_REMOVE: 0.3,
    Counter.NL_COMPARE: 0.25,
    Counter.TUPLE_EMIT: 0.2,
    Counter.OUTPUT: 0.5,
    Counter.EDDY_VISIT: 1.0,
    Counter.DEDUP_CHECK: 0.5,
    Counter.STATE_COPY: 0.5,
    Counter.COMPLETION_PROBE: 1.0,
    Counter.PURGE_CHECK: 0.25,
    Counter.QUEUE_OP: 0.1,
    Counter.PROMOTE: 1.0,
    Counter.DEMOTE: 0.5,
}


class CostModel:
    """Maps operation names to abstract time units.

    Unknown operations cost ``default`` units (1.0 unless overridden), so new
    counters degrade gracefully instead of silently costing zero.
    """

    __slots__ = ("_costs", "default")

    def __init__(self, overrides: Optional[Dict[str, float]] = None, default: float = 1.0):
        self._costs = dict(DEFAULT_COSTS)
        if overrides:
            self._costs.update(overrides)
        self.default = default

    def cost_of(self, op: str) -> float:
        return self._costs.get(op, self.default)

    def table(self) -> Dict[str, float]:
        """Copy of the full cost table (hot callers cache this dict)."""
        return dict(self._costs)


class VirtualClock:
    """Accumulates virtual time as operations are counted.

    Attach to a :class:`~repro.engine.metrics.Metrics`; every counted
    operation advances ``now`` by its cost.

    ``costs``/``default`` are a cached copy of the cost model's table so the
    per-count hot path (:meth:`~repro.engine.metrics.Metrics.count`) is one
    dict lookup with no method dispatch.  The cost model is therefore fixed
    at construction: build a new clock rather than mutating ``cost_model``
    afterwards.
    """

    __slots__ = ("cost_model", "costs", "default", "now")

    def __init__(self, cost_model: Optional[CostModel] = None):
        self.cost_model = cost_model or CostModel()
        self.costs = self.cost_model.table()
        self.default = self.cost_model.default
        self.now = 0.0

    def reset(self) -> None:
        self.now = 0.0
