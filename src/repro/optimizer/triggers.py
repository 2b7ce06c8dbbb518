"""Pluggable re-optimization trigger policies.

A :class:`TriggerPolicy` turns a :class:`~repro.optimizer.cost.CostSnapshot`
into a :class:`TriggerDecision` — fire a JISC migration, suppress one, or
keep watching.  Policies are deliberately tiny pure state machines over
plain numbers:

* decisions depend only on the snapshot and the policy's own counters,
  never on wall time, object identity, or hash order, so the same input
  stream yields byte-identical decisions under any ``PYTHONHASHSEED``
  (pinned by the property tests);
* the mutable state is JSON-serializable (:meth:`TriggerPolicy.state_to_json`
  / :meth:`restore_state`) so crash recovery can restore a trigger
  mid-cooldown and certify no double-fire after replay.

========================  ====================================================
policy                    fires when
========================  ====================================================
:class:`NeverTrigger`     never (the forced-schedule / static baseline)
:class:`ThresholdTrigger` projected relative cost gain exceeds a threshold
:class:`HysteresisTrigger` the gain persists for ``confirm`` consecutive
                          evaluations and the cooldown since the last fire
                          has elapsed (flap damping)
:class:`CostAwareTrigger` additionally charges an estimated JISC completion
                          cost from live state size and only fires when the
                          projected savings over ``horizon`` arrivals exceed
                          it
========================  ====================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Protocol, Sequence, Tuple, runtime_checkable

from repro.obs.tracer import TRIGGER_EVALUATED, TRIGGER_FIRED, TRIGGER_SUPPRESSED
from repro.optimizer.cost import CostSnapshot


@dataclass(frozen=True)
class TriggerDecision:
    """One trigger evaluation, with the cost evidence it was based on."""

    action: str  # TRIGGER_EVALUATED | TRIGGER_FIRED | TRIGGER_SUPPRESSED
    reason: str
    at: int
    order: Tuple[str, ...]
    best_order: Tuple[str, ...]
    current_cost: float = 0.0
    best_cost: float = 0.0
    improvement: float = 0.0
    migration_cost: float = 0.0
    projected_savings: float = 0.0

    @property
    def fired(self) -> bool:
        return self.action == TRIGGER_FIRED

    def to_json(self) -> Dict[str, Any]:
        return {
            "action": self.action,
            "reason": self.reason,
            "at": self.at,
            "order": list(self.order),
            "best_order": list(self.best_order),
            "current_cost": self.current_cost,
            "best_cost": self.best_cost,
            "improvement": self.improvement,
            "migration_cost": self.migration_cost,
            "projected_savings": self.projected_savings,
        }

    def to_jsonl(self) -> str:
        """Canonical byte representation (sorted keys) for determinism checks."""
        return json.dumps(self.to_json(), sort_keys=True)


@runtime_checkable
class TriggerPolicy(Protocol):
    """Decides whether a cost snapshot justifies firing a migration."""

    name: str

    def decide(self, snapshot: CostSnapshot, at: int) -> TriggerDecision:
        """Evaluate once; mutates internal hysteresis/cooldown state."""
        ...

    def state_to_json(self) -> Dict[str, Any]:
        """Serializable mutable state (for WAL-backed crash recovery)."""
        ...

    def restore_state(self, state: Dict[str, Any]) -> None:
        ...


def _decision(
    action: str, reason: str, snapshot: CostSnapshot, at: int, **extra: float
) -> TriggerDecision:
    return TriggerDecision(
        action=action,
        reason=reason,
        at=at,
        order=snapshot.order,
        best_order=snapshot.best_order,
        current_cost=snapshot.current_cost,
        best_cost=snapshot.best_cost,
        improvement=snapshot.improvement,
        **extra,
    )


class NeverTrigger:
    """The never-migrate baseline: observes, reports, never fires."""

    name = "never"

    def decide(self, snapshot: CostSnapshot, at: int) -> TriggerDecision:
        return _decision(TRIGGER_EVALUATED, "never", snapshot, at)

    def state_to_json(self) -> Dict[str, Any]:
        return {}

    def restore_state(self, state: Dict[str, Any]) -> None:
        pass


class ThresholdTrigger:
    """Fire as soon as the projected relative gain exceeds ``min_improvement``.

    The simplest closed loop — and the jumpiest: on a noisy selectivity
    plateau it can fire on every evaluation the gain peeks over the
    threshold.  :class:`HysteresisTrigger` is the production default.
    """

    name = "threshold"

    def __init__(self, min_improvement: float = 0.1):
        if min_improvement < 0:
            raise ValueError("min_improvement must be non-negative")
        self.min_improvement = min_improvement

    def decide(self, snapshot: CostSnapshot, at: int) -> TriggerDecision:
        if not snapshot.ready:
            return _decision(TRIGGER_EVALUATED, "warming_up", snapshot, at)
        if snapshot.improvement <= self.min_improvement:
            return _decision(TRIGGER_EVALUATED, "below_threshold", snapshot, at)
        return _decision(TRIGGER_FIRED, "threshold", snapshot, at)

    def state_to_json(self) -> Dict[str, Any]:
        return {}

    def restore_state(self, state: Dict[str, Any]) -> None:
        pass


class HysteresisTrigger:
    """Threshold + confirmation streak + post-fire cooldown.

    Fires only when ``confirm`` *consecutive* evaluations clear the
    improvement threshold, and never within ``cooldown`` arrivals of the
    previous fire (qualifying evaluations inside the cooldown are
    reported as suppressed, with the evidence, so traces show the near
    misses).  Invariant pinned by the property tests: two fires are
    always at least ``cooldown`` arrivals apart.
    """

    name = "hysteresis"

    def __init__(
        self,
        min_improvement: float = 0.1,
        confirm: int = 2,
        cooldown: int = 256,
    ):
        if min_improvement < 0:
            raise ValueError("min_improvement must be non-negative")
        if confirm < 1:
            raise ValueError("confirm must be at least 1")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        self.min_improvement = min_improvement
        self.confirm = confirm
        self.cooldown = cooldown
        self.streak = 0
        self.last_fired_at: Optional[int] = None

    def decide(self, snapshot: CostSnapshot, at: int) -> TriggerDecision:
        if not snapshot.ready:
            self.streak = 0
            return _decision(TRIGGER_EVALUATED, "warming_up", snapshot, at)
        if snapshot.improvement <= self.min_improvement:
            self.streak = 0
            return _decision(TRIGGER_EVALUATED, "below_threshold", snapshot, at)
        self.streak += 1
        if self.streak < self.confirm:
            return _decision(TRIGGER_EVALUATED, "confirming", snapshot, at)
        if self.last_fired_at is not None and at - self.last_fired_at < self.cooldown:
            return _decision(TRIGGER_SUPPRESSED, "cooldown", snapshot, at)
        self.streak = 0
        self.last_fired_at = at
        return _decision(TRIGGER_FIRED, "hysteresis", snapshot, at)

    def state_to_json(self) -> Dict[str, Any]:
        return {"streak": self.streak, "last_fired_at": self.last_fired_at}

    def restore_state(self, state: Dict[str, Any]) -> None:
        self.streak = int(state.get("streak", 0))
        last = state.get("last_fired_at")
        self.last_fired_at = int(last) if last is not None else None


class CostAwareTrigger:
    """Hysteresis gated by an explicit migration-cost / savings trade-off.

    The JISC completion bill is charged *before* firing: migrating to a
    new plan forces lazy state completion of roughly the live state
    (``state_size`` probes-worth of work, scaled by ``completion_cost``
    per stored tuple).  Projected savings are the per-arrival cost gain
    times the ``horizon`` of future arrivals the new plan is assumed to
    serve.  Invariant pinned by the property tests: this policy never
    fires when ``migration_cost * safety >= projected_savings``.
    """

    name = "cost_aware"

    def __init__(
        self,
        min_improvement: float = 0.05,
        confirm: int = 2,
        cooldown: int = 256,
        horizon: int = 2000,
        completion_cost: float = 1.0,
        safety: float = 1.0,
    ):
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        if completion_cost < 0 or safety < 0:
            raise ValueError("completion_cost and safety must be non-negative")
        self._inner = HysteresisTrigger(
            min_improvement=min_improvement, confirm=confirm, cooldown=cooldown
        )
        self.horizon = horizon
        self.completion_cost = completion_cost
        self.safety = safety

    def decide(self, snapshot: CostSnapshot, at: int) -> TriggerDecision:
        migration_cost = snapshot.state_size * self.completion_cost
        projected = (snapshot.current_cost - snapshot.best_cost) * self.horizon
        if projected < 0:
            projected = 0.0
        inner = self._inner.decide(snapshot, at)
        if not inner.fired:
            return _decision(
                inner.action,
                inner.reason,
                snapshot,
                at,
                migration_cost=migration_cost,
                projected_savings=projected,
            )
        if projected <= migration_cost * self.safety:
            # Roll the fire back: the streak stays consumed (matching a
            # fire), but the cooldown clock must not start on a
            # suppression, or a genuinely worthwhile fire right after
            # would be cooldown-blocked by a migration that never ran.
            self._inner.last_fired_at = None
            return _decision(
                TRIGGER_SUPPRESSED,
                "migration_cost",
                snapshot,
                at,
                migration_cost=migration_cost,
                projected_savings=projected,
            )
        return _decision(
            TRIGGER_FIRED,
            "cost_aware",
            snapshot,
            at,
            migration_cost=migration_cost,
            projected_savings=projected,
        )

    def state_to_json(self) -> Dict[str, Any]:
        return self._inner.state_to_json()

    def restore_state(self, state: Dict[str, Any]) -> None:
        self._inner.restore_state(state)

    @property
    def last_fired_at(self) -> Optional[int]:
        return self._inner.last_fired_at


@dataclass(frozen=True)
class RebalanceDecision:
    """One shard-rebalance trigger evaluation, with its load evidence."""

    action: str  # TRIGGER_EVALUATED | TRIGGER_FIRED | TRIGGER_SUPPRESSED
    reason: str
    at: int
    shard_loads: Tuple[float, ...] = ()
    imbalance: float = 0.0
    batch_keys: int = 0
    mode: Optional[str] = None
    hot_keys: Tuple[Any, ...] = field(default=())

    @property
    def fired(self) -> bool:
        return self.action == TRIGGER_FIRED

    def to_json(self) -> Dict[str, Any]:
        return {
            "action": self.action,
            "reason": self.reason,
            "at": self.at,
            "shard_loads": list(self.shard_loads),
            "imbalance": self.imbalance,
            "batch_keys": self.batch_keys,
            "mode": self.mode,
            "hot_keys": list(self.hot_keys),
        }

    def to_jsonl(self) -> str:
        """Canonical byte representation (sorted keys) for determinism checks."""
        return json.dumps(self.to_json(), sort_keys=True, default=str)


class ShardImbalanceTrigger:
    """Fluid-rebalance trigger over per-shard load and hot-key evidence.

    The sharded analogue of :class:`HysteresisTrigger`: where the plan
    triggers watch *selectivity* drift, this one watches *placement*
    drift — the per-shard arrival shares the coordinator's hot-key
    sketches summarize.  It fires when the hottest shard's share of
    recent arrivals exceeds ``max_imbalance`` times its fair share for
    ``confirm`` consecutive evaluations (with a post-fire ``cooldown``,
    same flap-damping invariant as the plan triggers).  A fire is meant
    to become a :meth:`~repro.shard.executor.ShardedExecutor.fluid_rebalance`
    toward a sketch-weighted target (see
    :func:`~repro.shard.partition.weighted_assignment`), at this policy's
    ``batch_keys`` granularity — migration stays off the latency path
    even when the optimizer itself requests it.
    """

    name = "shard_imbalance"

    def __init__(
        self,
        max_imbalance: float = 1.5,
        confirm: int = 2,
        cooldown: int = 512,
        batch_keys: int = 4,
        mode: Optional[str] = None,
        min_load: float = 32.0,
    ):
        if max_imbalance < 1.0:
            raise ValueError("max_imbalance must be at least 1.0 (fair share)")
        if confirm < 1:
            raise ValueError("confirm must be at least 1")
        if cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        if min_load < 0:
            raise ValueError("min_load must be non-negative")
        self.max_imbalance = max_imbalance
        self.confirm = confirm
        self.cooldown = cooldown
        self.batch_keys = batch_keys
        self.mode = mode
        self.min_load = min_load
        self.streak = 0
        self.last_fired_at: Optional[int] = None

    def _decision(
        self, action: str, reason: str, at: int, loads: Sequence[float], imbalance: float
    ) -> RebalanceDecision:
        return RebalanceDecision(
            action=action,
            reason=reason,
            at=at,
            shard_loads=tuple(float(x) for x in loads),
            imbalance=imbalance,
            batch_keys=self.batch_keys,
            mode=self.mode,
        )

    def decide(self, loads: Sequence[float], at: int) -> RebalanceDecision:
        """Evaluate once against per-shard recent-arrival loads."""
        total = float(sum(loads))
        n = len(loads)
        if n < 2 or total < self.min_load:
            self.streak = 0
            return self._decision(TRIGGER_EVALUATED, "warming_up", at, loads, 0.0)
        fair = total / n
        imbalance = max(loads) / fair if fair > 0 else 0.0
        if imbalance <= self.max_imbalance:
            self.streak = 0
            return self._decision(TRIGGER_EVALUATED, "balanced", at, loads, imbalance)
        self.streak += 1
        if self.streak < self.confirm:
            return self._decision(TRIGGER_EVALUATED, "confirming", at, loads, imbalance)
        if self.last_fired_at is not None and at - self.last_fired_at < self.cooldown:
            return self._decision(TRIGGER_SUPPRESSED, "cooldown", at, loads, imbalance)
        self.streak = 0
        self.last_fired_at = at
        return self._decision(TRIGGER_FIRED, "shard_imbalance", at, loads, imbalance)

    def state_to_json(self) -> Dict[str, Any]:
        return {"streak": self.streak, "last_fired_at": self.last_fired_at}

    def restore_state(self, state: Dict[str, Any]) -> None:
        self.streak = int(state.get("streak", 0))
        last = state.get("last_fired_at")
        self.last_fired_at = int(last) if last is not None else None

