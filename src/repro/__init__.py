"""repro — a full reproduction of *JISC: Adaptive Stream Processing Using
Just-In-Time State Completion* (Aly, Aref, Ouzzani, Mahmoud; EDBT 2014).

Public API tour
---------------

Streams and workloads::

    from repro import Schema, StreamTuple, UniformWorkload

Strategies (all share the ``process`` / ``transition`` / ``outputs``
interface and can be driven by :func:`repro.run_events`)::

    from repro import (
        JISCStrategy, MovingStateStrategy, ParallelTrackStrategy,
        StaticPlanExecutor, CACQExecutor, STAIRSExecutor, JISCStairsExecutor,
    )

Plans and transitions::

    from repro import left_deep, best_case_transition, worst_case_transition

Observability (see docs/OBSERVABILITY.md)::

    from repro import RecordingTracer, load_trace, render_report

Fault injection & crash recovery (see docs/FAULT_INJECTION.md)::

    from repro import FaultPlan, FaultInjector, RecoveryManager, InvariantChecker

Section 5 analysis::

    from repro.analysis import expected_complete_states, monte_carlo_summary

See ``examples/quickstart.py`` for a complete end-to-end program.
"""

from typing import Any

from repro.streams import (
    StreamTuple,
    CompositeTuple,
    Schema,
    StreamDescriptor,
    SlidingWindow,
    UniformWorkload,
    ZipfWorkload,
)
from repro.engine import (
    Metrics,
    Counter,
    CostModel,
    VirtualClock,
    TransitionEvent,
    run_events,
)
from repro.engine.query import ContinuousQuery
from repro.plans import (
    left_deep,
    build_plan,
    classify_states,
    best_case_transition,
    worst_case_transition,
    pairwise_exchange,
)
from repro.migration import (
    StaticPlanExecutor,
    JISCStrategy,
    MovingStateStrategy,
    ParallelTrackStrategy,
    MJoinExecutor,
)
from repro.eddy import CACQExecutor, STAIRSExecutor, JISCStairsExecutor
from repro.faults import (
    FaultInjector,
    FaultPlan,
    InvariantChecker,
    RecoveryManager,
    SimulatedCrash,
)
from repro.obs import RecordingTracer, Tracer, load_trace
from repro.workloads import chain_scenario, migration_stage_events, frequency_events

__version__ = "1.0.0"

__all__ = [
    "StreamTuple",
    "CompositeTuple",
    "Schema",
    "StreamDescriptor",
    "SlidingWindow",
    "UniformWorkload",
    "ZipfWorkload",
    "Metrics",
    "Counter",
    "CostModel",
    "VirtualClock",
    "TransitionEvent",
    "run_events",
    "ContinuousQuery",
    "left_deep",
    "build_plan",
    "classify_states",
    "best_case_transition",
    "worst_case_transition",
    "pairwise_exchange",
    "StaticPlanExecutor",
    "JISCStrategy",
    "MovingStateStrategy",
    "ParallelTrackStrategy",
    "MJoinExecutor",
    "CACQExecutor",
    "STAIRSExecutor",
    "JISCStairsExecutor",
    "FaultInjector",
    "FaultPlan",
    "InvariantChecker",
    "RecoveryManager",
    "SimulatedCrash",
    "RecordingTracer",
    "Tracer",
    "load_trace",
    "render_report",
    "chain_scenario",
    "migration_stage_events",
    "frequency_events",
    "__version__",
]


def __getattr__(name: str) -> Any:
    # Lazy, mirroring repro.obs: keeps ``python -m repro.obs.report`` free
    # of the runpy already-imported RuntimeWarning.
    if name == "render_report":
        from repro.obs.report import render_report

        return render_report
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
