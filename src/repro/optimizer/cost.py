"""Incremental left-deep plan cost maintenance from live telemetry.

The cost model, stated explicitly: for a left-deep probe order
``(s0, s1, ..., sn)`` the expected per-arrival probe work is

    cost(order) = sum_{k=1..n}  prod_{j=1..k-1} sigma(s_j)

i.e. one probe into ``s1``'s state, ``sigma(s1)`` expected partials
probing ``s2``, and so on.  The anchor ``s0``'s selectivity never appears
— it is where arrivals enter, not a probe target — so the optimal order
keeps the anchor and sorts the remaining streams by ascending
selectivity (an adjacent-exchange argument: swapping a higher-sigma
stream ahead of a lower one can only grow every later prefix product).

:class:`PlanCostMaintainer` keeps ``cost(current)`` and ``cost(best)``
continuously up to date by reading the per-stream windowed selectivity
series that :class:`repro.telemetry.hub.TelemetryTracer` maintains from
the operators' native probe tallies.  A refresh is O(streams) — the
estimators already did the windowing incrementally per block — which is
the "O(1) per block" maintenance the adaptive trigger loop runs on.

This module deliberately imports nothing from the rest of ``repro``:
it operates on flat stream-name tuples and plain floats, so the adaptive
engine and the tests share it without import-cycle risk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Probe-sample floor below which a stream's selectivity estimate is not
#: yet trusted for triggering (the estimator may exist but be noise).
MIN_SAMPLES = 256


def order_cost(
    order: Sequence[str],
    selectivities: Mapping[str, float],
    probe_cost: float = 1.0,
) -> float:
    """Expected per-arrival probe work of a left-deep order.

    ``probe_cost`` scales the unit (useful when charging real per-probe
    cost-model units); the *ranking* of orders is scale-invariant.
    """
    total = 0.0
    carry = 1.0
    for name in order[1:]:
        total += carry
        carry *= selectivities[name]
    return total * probe_cost


def anchored_best_order(
    order: Sequence[str], selectivities: Mapping[str, float]
) -> Tuple[str, ...]:
    """Cost-minimal reordering of ``order`` keeping its anchor fixed.

    Ties break on the stream name so the result is deterministic across
    runs and hash seeds regardless of dict iteration order.
    """
    rest = sorted(order[1:], key=lambda name: (selectivities[name], name))
    return (order[0], *rest)


@dataclass(frozen=True)
class CostSnapshot:
    """One refresh of the maintainer: everything a trigger policy needs."""

    at: int
    order: Tuple[str, ...]
    selectivities: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    total_rate: float = 0.0
    current_cost: float = 0.0
    best_order: Tuple[str, ...] = ()
    best_cost: float = 0.0
    ready: bool = False
    state_size: int = 0

    @property
    def improvement(self) -> float:
        """Relative cost reduction of switching to ``best_order`` (0 when
        not ready or the current order is already optimal)."""
        if not self.ready or self.current_cost <= 0:
            return 0.0
        gain = self.current_cost - self.best_cost
        return gain / self.current_cost if gain > 0 else 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "at": self.at,
            "order": list(self.order),
            "selectivities": {k: self.selectivities[k] for k in sorted(self.selectivities)},
            "samples": {k: self.samples[k] for k in sorted(self.samples)},
            "total_rate": self.total_rate,
            "current_cost": self.current_cost,
            "best_order": list(self.best_order),
            "best_cost": self.best_cost,
            "ready": self.ready,
            "state_size": self.state_size,
            "improvement": self.improvement,
        }


class PlanCostMaintainer:
    """Keeps current-plan and best-alternative costs live from hub series.

    Parameters
    ----------
    order:
        The currently executing left-deep probe order (stream names).
    hubs:
        Telemetry hubs whose per-stream selectivity series feed the model
        — one for a single engine, one per worker for a sharded executor.
        Replaceable via :meth:`set_hubs` (workers are rebuilt on crash
        recovery).
    min_samples:
        Windowed probe count every *probed* stream must reach before a
        snapshot reports ``ready=True``.
    """

    def __init__(
        self,
        order: Sequence[str],
        hubs: Iterable[Any] = (),
        min_samples: int = MIN_SAMPLES,
    ):
        self.order: Tuple[str, ...] = tuple(order)
        if len(self.order) < 2:
            raise ValueError("a probe order needs at least two streams")
        self._hubs: List[Any] = list(hubs)
        self.min_samples = min_samples
        self.last: Optional[CostSnapshot] = None

    def set_hubs(self, hubs: Iterable[Any]) -> None:
        self._hubs = list(hubs)

    def set_order(self, order: Sequence[str]) -> None:
        """Adopt the order the engine just migrated to."""
        new = tuple(order)
        if set(new) != set(self.order):
            raise ValueError("order must preserve the stream set")
        self.order = new

    def _aggregate(self, name: str) -> Optional[Tuple[int, float]]:
        """Probe-weighted mean of one stream's series across the hubs."""
        weight = 0
        acc = 0.0
        for hub in self._hubs:
            sample = hub.selectivity_sample(name)
            if sample is None:
                continue
            count, estimate = sample
            weight += count
            acc += count * estimate
        if weight <= 0:
            return None
        return weight, acc / weight

    def refresh(self, at: int, state_size: int = 0) -> CostSnapshot:
        """Poll the hubs and rebuild the cost snapshot (O(streams))."""
        total_rate = 0.0
        for hub in self._hubs:
            hub.poll()
            for rate in hub.arrival_rates().values():
                total_rate += rate
        selectivities: Dict[str, float] = {}
        samples: Dict[str, int] = {}
        ready = True
        for name in self.order:
            agg = self._aggregate(name)
            if agg is None:
                samples[name] = 0
                ready = False
                continue
            samples[name], selectivities[name] = agg
        # Every stream can be probed under *some* anchored reordering, so
        # readiness requires evidence for the full stream set.
        if ready:
            ready = all(samples[name] >= self.min_samples for name in self.order)
        if ready:
            current_cost = order_cost(self.order, selectivities)
            best_order = anchored_best_order(self.order, selectivities)
            best_cost = order_cost(best_order, selectivities)
        else:
            current_cost = 0.0
            best_order = self.order
            best_cost = 0.0
        snap = CostSnapshot(
            at=at,
            order=self.order,
            selectivities=selectivities,
            samples=samples,
            total_rate=total_rate,
            current_cost=current_cost,
            best_order=best_order,
            best_cost=best_cost,
            ready=ready,
            state_size=state_size,
        )
        self.last = snap
        return snap


def live_state_size(target: Any) -> int:
    """Total entries an engine holds — the sum of its own ``state_sizes()``;
    the migration-cost-aware trigger charges a completion cost proportional
    to it."""
    return sum(target.state_sizes().values())
