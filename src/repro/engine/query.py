"""ContinuousQuery: the adaptive end-to-end facade.

Everything a user needs for a long-running continuous join query behind
``push``: a migration strategy (JISC by default) driven by the repo's one
adaptive loop, :class:`~repro.optimizer.adaptive.AdaptiveEngine` — the
telemetry hub polls the join operators' native probe tallies, a
:class:`~repro.optimizer.cost.PlanCostMaintainer` turns them into plan
costs, and a trigger policy requests a transition when the observed match
rates contradict the current join order (the optimize-at-runtime loop of
Sections 1 and 5.2; the *trigger* is what the paper treats as orthogonal).

The facade has one tuning value, ``reoptimize_every``; the estimator
extents are derived from it, because an estimator window must be much
shorter than a workload phase for the loop to see the phase at all: the
hub's selectivity window is one evaluation period and a stream needs a
quarter of a period of probe evidence before it counts.  Whoever wants
another policy, cadence or hub builds an ``AdaptiveEngine`` directly
(docs/ADAPTIVITY.md); the one the facade built is ``query.engine``.

Example::

    query = ContinuousQuery(Schema.uniform(["R", "S", "T"], 500),
                            ("R", "S", "T"))
    for stream, key in feed:
        for result in query.push(stream, key):
            handle(result)
    print(query.transition_log)
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.engine.cost import CostModel
from repro.engine.metrics import Metrics
from repro.migration.jisc import JISCStrategy
from repro.migration.moving_state import MovingStateStrategy
from repro.migration.parallel_track import ParallelTrackStrategy
from repro.optimizer.adaptive import AdaptiveEngine
from repro.optimizer.triggers import NeverTrigger, ThresholdTrigger
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple

STRATEGIES = {
    "jisc": JISCStrategy,
    "moving_state": MovingStateStrategy,
    "parallel_track": ParallelTrackStrategy,
}


class ContinuousQuery:
    """An adaptive continuous multi-way join query.

    Parameters
    ----------
    schema:
        Streams and window sizes.
    initial_order:
        Left-deep join order to start from.
    strategy:
        ``"jisc"`` (default), ``"moving_state"`` or ``"parallel_track"``.
    join:
        ``"hash"`` or ``"nl"``.
    reoptimize_every:
        How many arrivals between trigger evaluations (and the extent of
        the selectivity estimators, see the module docstring).
    adaptive:
        ``False`` keeps the initial order forever (the loop still
        observes, it never fires).
    """

    def __init__(
        self,
        schema: Schema,
        initial_order: Sequence[str],
        strategy: str = "jisc",
        join: str = "hash",
        reoptimize_every: int = 1_000,
        adaptive: bool = True,
        cost_model: Optional[CostModel] = None,
    ):
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; pick one of {sorted(STRATEGIES)}"
            )
        if reoptimize_every <= 0:
            raise ValueError("reoptimize_every must be positive")
        self.schema = schema
        self.strategy = STRATEGIES[strategy](
            schema, tuple(initial_order), join=join, cost_model=cost_model
        )
        self.engine = AdaptiveEngine(
            self.strategy,
            policy=ThresholdTrigger(0.1) if adaptive else NeverTrigger(),
            evaluate_every=reoptimize_every,
            min_samples=reoptimize_every // 4,
            hub_options={"selectivity_window": reoptimize_every},
        )
        self._next_seq = 0
        self._emitted_cursor = 0

    # -- ingestion ------------------------------------------------------------------

    def push(self, stream: str, key: Any, payload: Any = None) -> List:
        """Feed one tuple; returns the results it produced (possibly none)."""
        return self.push_tuple(StreamTuple(stream, self._next_seq, key, payload))

    def push_tuple(self, tup: StreamTuple) -> List:
        """Feed a pre-built tuple (its seq must be monotonically fresh).

        A tuple the strategy rejects (unknown stream) raises before the
        seq counter or the evaluation cadence has moved.
        """
        if tup.seq < self._next_seq:
            raise ValueError(
                f"tuple seq {tup.seq} is in the past (next is {self._next_seq})"
            )
        self.engine.process(tup)
        self._next_seq = tup.seq + 1
        outputs = self.strategy.outputs
        fresh = outputs[self._emitted_cursor :]
        self._emitted_cursor = len(outputs)
        return fresh

    # -- results / introspection ------------------------------------------------------

    @property
    def results(self) -> List:
        """All results emitted so far."""
        return self.strategy.outputs

    @property
    def metrics(self) -> Metrics:
        return self.strategy.metrics

    @property
    def order(self) -> Tuple[str, ...]:
        """The left-deep join order running now."""
        return self.engine.order

    @property
    def transition_log(self) -> List[Tuple[int, Tuple[str, ...]]]:
        """``(arrivals seen, new order)`` of every transition the loop fired."""
        return [(d.at, d.best_order) for d in self.engine.migrations]

    def selectivity_of(self, stream: str) -> Optional[float]:
        """Match rate of the recent probes against ``stream``'s window
        (over the last ``reoptimize_every`` of them; ``None`` before the
        first)."""
        hub = self.engine.telemetry
        hub.poll()
        return hub.selectivity_of(stream)

    def reoptimize_now(self) -> Optional[Tuple[str, ...]]:
        """Force a trigger evaluation; returns the new order if it fired."""
        decision = self.engine.evaluate()
        return decision.best_order if decision.fired else None
