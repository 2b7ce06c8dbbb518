"""Adaptive mode: the closed optimizer loop, end to end.

:class:`AdaptiveEngine` wraps any strategy (``process``/``transition``)
or a :class:`~repro.shard.executor.ShardedExecutor` and closes the loop
the paper leaves open: telemetry estimators feed a
:class:`~repro.optimizer.cost.PlanCostMaintainer`, a
:class:`~repro.optimizer.triggers.TriggerPolicy` turns cost snapshots
into decisions at a fixed arrival cadence, and a fired decision becomes
an ordinary JISC ``transition()`` — the migration machinery is exactly
the one forced schedules use, so every conformance guarantee carries
over unchanged.  On a drift workload the engine re-optimizes itself; no
schedule is supplied.

Every decision (fired or not) is published through the tracer seam as a
``trigger`` event with its cost evidence, so a recorded trace — and the
live dashboard — show *why* each migration happened (or didn't).

Determinism: evaluations happen at exact arrival counts, estimator state
is a pure function of the arrival prefix, and tie-breaks are lexicographic
— so the decision sequence is reproducible run-to-run and across
``PYTHONHASHSEED`` values (pinned by the property tests).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.engine.executor import TransitionEvent
from repro.migration.base import SpecLike, as_spec
from repro.optimizer.cost import (
    MIN_SAMPLES,
    CostSnapshot,
    PlanCostMaintainer,
    live_state_size,
)
from repro.optimizer.triggers import (
    HysteresisTrigger,
    RebalanceDecision,
    ShardImbalanceTrigger,
    TriggerDecision,
    TriggerPolicy,
)
from repro.plans.spec import left_deep_order
from repro.shard.executor import ShardedExecutor
from repro.shard.partition import weighted_assignment
from repro.streams.tuples import StreamTuple
from repro.telemetry.hub import ShardTelemetry, TelemetryTracer

#: Default trigger-evaluation cadence, in arrivals.  Aligned with the
#: hub's probe-poll interval so most evaluations read freshly polled
#: estimates; the maintainer polls explicitly anyway, so any cadence is
#: correct — this one just avoids redundant poll work.
EVALUATE_EVERY = 64


class AdaptiveEngine:
    """Self-driving wrapper around one strategy or sharded executor.

    Parameters
    ----------
    target:
        Anything with ``process(tuple)`` and ``transition(spec)`` — a
        migration strategy, a :class:`~repro.eddy.cacq.CACQExecutor`, or
        a :class:`~repro.shard.executor.ShardedExecutor`.
    policy:
        The :class:`TriggerPolicy`; hysteresis with defaults if omitted.
    evaluate_every:
        Trigger-evaluation cadence in arrivals.
    telemetry:
        An existing hub (:class:`TelemetryTracer`) or shard telemetry to
        reuse; one is created and attached when omitted (reusing
        ``target.telemetry`` on sharded executors that already have one).
    min_samples:
        Windowed probe evidence required per stream before the policy
        sees ``ready`` snapshots (see :class:`PlanCostMaintainer`).
    rebalance_policy:
        Optional :class:`ShardImbalanceTrigger` (sharded targets only):
        evaluated at the same cadence over per-shard arrival loads; a
        fire becomes a hot-key-sketch-weighted
        :meth:`~repro.shard.executor.ShardedExecutor.fluid_rebalance` at
        the policy's granularity.
    hub_options:
        Extra keyword options for hubs this engine creates (estimator
        windows, drift parameters — see :class:`TelemetryTracer`).
    """

    def __init__(
        self,
        target: Any,
        policy: Optional[TriggerPolicy] = None,
        order: Optional[Iterable[str]] = None,
        evaluate_every: int = EVALUATE_EVERY,
        telemetry: Optional[Any] = None,
        min_samples: int = MIN_SAMPLES,
        registry: Optional[Any] = None,
        rebalance_policy: Optional[ShardImbalanceTrigger] = None,
        hub_options: Optional[Dict[str, Any]] = None,
        inner: Optional[Any] = None,
    ):
        if evaluate_every < 1:
            raise ValueError("evaluate_every must be at least 1")
        self.target = target
        self.policy: TriggerPolicy = policy if policy is not None else HysteresisTrigger()
        self.evaluate_every = evaluate_every
        self.sharded = isinstance(target, ShardedExecutor)
        options = dict(hub_options or {})
        if telemetry is not None:
            self.telemetry = telemetry
        elif self.sharded:
            self.telemetry = target.telemetry or ShardTelemetry(
                target, registry=registry, inner=inner, **options
            )
        else:
            hub = TelemetryTracer(registry=registry, strategy=target.name, inner=inner, **options)
            hub.attach(target)
            self.telemetry = hub
        self.order: Tuple[str, ...] = (
            tuple(order) if order is not None else target.current_order()
        )
        self.maintainer = PlanCostMaintainer(
            self.order, self._hubs(), min_samples=min_samples
        )
        self.arrivals = 0
        self.decisions: List[TriggerDecision] = []
        self.migrations: List[TriggerDecision] = []
        if rebalance_policy is not None and not self.sharded:
            raise ValueError("rebalance_policy requires a sharded target")
        self.rebalance_policy = rebalance_policy
        self.rebalance_decisions: List[RebalanceDecision] = []
        self.rebalance_fires: List[RebalanceDecision] = []
        self._load_base: Dict[int, int] = {}
        self._until_eval = evaluate_every

    # -- plumbing --------------------------------------------------------------------

    def _hubs(self) -> List[TelemetryTracer]:
        if self.sharded:
            return [self.telemetry.workers[s] for s in sorted(self.telemetry.workers)]
        return [self.telemetry]

    def _decision_hub(self) -> TelemetryTracer:
        return self.telemetry.coordinator if self.sharded else self.telemetry

    def current_order(self) -> Tuple[str, ...]:
        return self.order

    @property
    def last_decision(self) -> Optional[TriggerDecision]:
        return self.decisions[-1] if self.decisions else None

    @property
    def fire_count(self) -> int:
        return len(self.migrations)

    # -- driving ---------------------------------------------------------------------

    def process(self, tup: Any) -> None:
        """One arrival through the target, then maybe a trigger evaluation."""
        self.target.process(tup)
        self.arrivals += 1
        left = self._until_eval = self._until_eval - 1
        if not left:
            self._until_eval = self.evaluate_every
            self.evaluate()

    def run(self, events: Iterable[Any]) -> "AdaptiveEngine":
        """Drive arrivals (and any forced transitions / rebalances).

        Arrivals and transitions pass through the loop's own bookkeeping;
        any other event is the sharded target's business (its ``run``
        dispatches rebalances and resizes, and rejects what it does not
        know).
        """
        for event in events:
            if isinstance(event, StreamTuple):
                self.process(event)
            elif isinstance(event, TransitionEvent):
                self.transition(event.new_spec)
            elif self.sharded:
                self.target.run((event,))
            else:
                raise TypeError(
                    f"{type(self.target).__name__} is not sharded and cannot "
                    f"take {event!r}"
                )
        return self

    def transition(self, new_spec: "SpecLike") -> None:
        """Forced transition (schedule-driven); adaptive bookkeeping follows."""
        order = left_deep_order(as_spec(new_spec))
        self.target.transition(new_spec)
        self.order = order
        self.maintainer.set_order(order)

    # -- the loop --------------------------------------------------------------------

    def evaluate(self) -> TriggerDecision:
        """Refresh costs, ask the policy, publish the decision, maybe fire."""
        # Workers are rebuilt on crash recovery and their hubs re-created;
        # re-resolve the hub set so the maintainer never reads a dead one.
        self.maintainer.set_hubs(self._hubs())
        snapshot = self.maintainer.refresh(
            self.arrivals, state_size=live_state_size(self.target)
        )
        decision = self.policy.decide(snapshot, at=self.arrivals)
        self.decisions.append(decision)
        self._decision_hub().trigger(
            decision.action,
            policy=self.policy.name,
            reason=decision.reason,
            at=decision.at,
            order=list(decision.order),
            best_order=list(decision.best_order),
            current_cost=decision.current_cost,
            best_cost=decision.best_cost,
            improvement=decision.improvement,
            migration_cost=decision.migration_cost,
            projected_savings=decision.projected_savings,
        )
        if decision.fired:
            self.target.transition(decision.best_order)
            self.order = decision.best_order
            self.maintainer.set_order(decision.best_order)
            self.migrations.append(decision)
        if self.rebalance_policy is not None:
            self._evaluate_rebalance()
        return decision

    def _evaluate_rebalance(self) -> Optional[RebalanceDecision]:
        """The placement half of the loop: shard loads -> fluid rebalance.

        Per-shard load is each worker hub's arrival count over the last
        evaluation window.  A fire builds a hot-key-weighted target from
        the union of the worker sketches and starts a fluid plan at the
        policy's granularity — never a stop-the-world rebalance.  While a
        plan is still draining the policy is not consulted (one active
        plan at a time; the executor would reject a second anyway).
        """
        policy = self.rebalance_policy
        target = self.target
        if policy is None or target.rebalance_in_progress:
            return None
        hubs = self.telemetry.workers
        shards = sorted(hubs)
        loads = [
            float(hubs[s].arrivals_seen - self._load_base.get(s, 0)) for s in shards
        ]
        decision = policy.decide(loads, at=self.arrivals)
        for s in shards:
            self._load_base[s] = hubs[s].arrivals_seen
        self.rebalance_decisions.append(decision)
        self._decision_hub().trigger(
            decision.action,
            kind="rebalance",
            policy=policy.name,
            reason=decision.reason,
            at=decision.at,
            shard_loads=list(decision.shard_loads),
            imbalance=decision.imbalance,
            batch_keys=decision.batch_keys,
        )
        if decision.fired:
            assignment = weighted_assignment(
                target.partitioner.num_buckets,
                target.num_shards,
                self._bucket_weights(),
            )
            target.fluid_rebalance(
                assignment, policy.mode, batch_keys=policy.batch_keys
            )
            self.rebalance_fires.append(decision)
        return decision

    def _bucket_weights(self) -> Dict[int, float]:
        """Per-bucket load evidence from the union of worker hot-key sketches."""
        weights: Dict[int, float] = {}
        partitioner = self.target.partitioner
        hubs = self.telemetry.workers
        for shard in sorted(hubs):
            hub = hubs[shard]
            hub.poll()
            for key, count, _err in hub.topk.top(len(hub.topk)):
                bucket = partitioner.bucket_of(key)
                weights[bucket] = weights.get(bucket, 0.0) + float(count)
        return weights

    # -- trigger-state durability (fault soak) ----------------------------------------

    def trigger_state(self) -> Dict[str, Any]:
        """JSON-serializable loop state (see the fault × adaptivity soak)."""
        return {
            "arrivals": self.arrivals,
            "order": list(self.order),
            "policy": self.policy.state_to_json(),
        }

    def restore_trigger_state(self, state: Dict[str, Any]) -> None:
        self.arrivals = int(state["arrivals"])
        self._until_eval = (
            self.evaluate_every - self.arrivals % self.evaluate_every
        )
        order = tuple(state["order"])
        self.order = order
        self.maintainer.set_order(order)
        self.policy.restore_state(state.get("policy", {}))

    # -- output passthrough ------------------------------------------------------------

    @property
    def outputs(self) -> List[Any]:
        outputs: List[Any] = self.target.outputs
        return outputs

    def output_lineages(self) -> List[Tuple]:
        return self.target.output_lineages()

    def last_snapshot(self) -> Optional[CostSnapshot]:
        return self.maintainer.last
