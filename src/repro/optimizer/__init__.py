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
* :mod:`repro.optimizer.soak` — the fault × adaptivity soak: the same
  :class:`AdaptiveEngine` over a crash-recovering target (a CLI, not
  re-exported here).
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
    CostAwareTrigger,
    HysteresisTrigger,
    NeverTrigger,
    ThresholdTrigger,
    TriggerDecision,
    TriggerPolicy,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.optimizer.adaptive import AdaptiveEngine

__all__ = [
    "MIN_SAMPLES",
    "CostSnapshot",
    "PlanCostMaintainer",
    "anchored_best_order",
    "live_state_size",
    "order_cost",
    "CostAwareTrigger",
    "HysteresisTrigger",
    "NeverTrigger",
    "ThresholdTrigger",
    "TriggerDecision",
    "TriggerPolicy",
    "AdaptiveEngine",
]

_LAZY = {
    "AdaptiveEngine": ("repro.optimizer.adaptive", "AdaptiveEngine"),
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
