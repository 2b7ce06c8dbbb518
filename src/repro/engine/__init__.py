"""Execution engine: metrics, deterministic cost model, and executors.

The paper measures wall-clock execution time of a Java implementation.  A
pure-Python reproduction cannot meaningfully compare absolute wall-clock
numbers, so the engine counts *primitive operations* (hash probes, state
insertions, nested-loops comparisons, eddy visits, ...) and converts them to
deterministic virtual time through a :class:`CostModel`.  Benchmarks report
both virtual time (primary, machine-independent) and wall-clock time
(secondary, via pytest-benchmark).
"""

from repro.engine.metrics import Metrics, Counter
from repro.engine.cost import CostModel, VirtualClock
from repro.engine.executor import StrategyExecutor, run_events, TransitionEvent
from repro.engine.query import ContinuousQuery
from repro.engine.checkpoint import checkpoint_strategy, restore_strategy

__all__ = [
    "Metrics",
    "Counter",
    "CostModel",
    "VirtualClock",
    "StrategyExecutor",
    "run_events",
    "TransitionEvent",
    "ContinuousQuery",
    "checkpoint_strategy",
    "restore_strategy",
]
