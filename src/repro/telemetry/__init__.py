"""Live telemetry: a metrics hub, streaming estimators, snapshot folds.

Traces (:mod:`repro.obs`) are post-hoc; telemetry is *live*.  Attach a
:class:`TelemetryTracer` to any strategy (or a :class:`ShardTelemetry`
over a sharded executor) and every instrumentation site the engine
already has — counters, arrivals, outputs, phases, transitions,
rebalances, faults — feeds the hub's counters, windowed selectivity
estimators, Page–Hinkley drift detectors, arrival-rate estimators and
per-shard hot-key sketches.  Read them back through the hub's series
view, as ``snapshot`` trace events, or on the terminal dashboard
(``python -m repro.telemetry.dash``).  See docs/TELEMETRY.md.
"""

from typing import TYPE_CHECKING

from repro.telemetry.estimators import (
    Ewma,
    PageHinkley,
    SampledRate,
    SelectivityDriftDetector,
    WindowedRatio,
)
from repro.telemetry.expo import diff_snapshots, summary

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.telemetry.hub import ShardTelemetry, TelemetryTracer, series_name
    from repro.telemetry.sketch import SpaceSavingSketch

# The hub (and the sketch it uses) reach into the shard and engine
# layers.  Loading them lazily keeps this package importable from there
# while `from repro.telemetry import TelemetryTracer` keeps working.
_LAZY = {
    "ShardTelemetry": ("repro.telemetry.hub", "ShardTelemetry"),
    "TelemetryTracer": ("repro.telemetry.hub", "TelemetryTracer"),
    "series_name": ("repro.telemetry.hub", "series_name"),
    "SpaceSavingSketch": ("repro.telemetry.sketch", "SpaceSavingSketch"),
}


def __getattr__(name: str):  # PEP 562
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value


__all__ = [
    "Ewma",
    "PageHinkley",
    "SampledRate",
    "SelectivityDriftDetector",
    "ShardTelemetry",
    "SpaceSavingSketch",
    "TelemetryTracer",
    "WindowedRatio",
    "diff_snapshots",
    "series_name",
    "summary",
]
