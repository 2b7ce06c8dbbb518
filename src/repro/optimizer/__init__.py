"""repro.optimizer — the closed re-optimization loop.

Layered so the cost model is import-cycle-free:

* :mod:`repro.optimizer.cost` — the shared left-deep cost model and the
  incremental :class:`PlanCostMaintainer` (imports nothing from repro);
* :mod:`repro.optimizer.triggers` — pluggable :class:`TriggerPolicy`
  implementations (never / threshold / hysteresis / cost-aware);
* :mod:`repro.optimizer.adaptive` — :class:`AdaptiveEngine`, the
  end-to-end adaptive mode over engines and sharded executors (loaded
  lazily: it imports the engine and shard layers, and ``repro.engine``
  imports it back for the ``ContinuousQuery`` facade);
* :mod:`repro.optimizer.soak` — crash-recovery soak driver for the
  adaptive loop (lazy for the same reason).
"""

from typing import TYPE_CHECKING

from repro.optimizer.cost import (
    MIN_SAMPLES,
    CostSnapshot,
    PlanCostMaintainer,
    anchored_best_order,
    live_state_size,
    order_cost,
)
from repro.optimizer.triggers import (
    POLICIES,
    CostAwareTrigger,
    HysteresisTrigger,
    NeverTrigger,
    ThresholdTrigger,
    TriggerDecision,
    TriggerPolicy,
    make_policy,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.optimizer.adaptive import AdaptiveEngine
    from repro.optimizer.soak import AdaptiveRecoveryDriver

__all__ = [
    "MIN_SAMPLES",
    "CostSnapshot",
    "PlanCostMaintainer",
    "anchored_best_order",
    "live_state_size",
    "order_cost",
    "POLICIES",
    "CostAwareTrigger",
    "HysteresisTrigger",
    "NeverTrigger",
    "ThresholdTrigger",
    "TriggerDecision",
    "TriggerPolicy",
    "make_policy",
    "AdaptiveEngine",
    "AdaptiveRecoveryDriver",
]

_LAZY = {
    "AdaptiveEngine": ("repro.optimizer.adaptive", "AdaptiveEngine"),
    "AdaptiveRecoveryDriver": ("repro.optimizer.soak", "AdaptiveRecoveryDriver"),
}


def __getattr__(name: str):  # PEP 562: engine-layer exports load on first use
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value
