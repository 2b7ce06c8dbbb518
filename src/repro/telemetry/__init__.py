"""Live telemetry: labeled metrics registry, streaming estimators, exposition.

Traces (:mod:`repro.obs`) are post-hoc; telemetry is *live*.  Attach a
:class:`TelemetryTracer` to any strategy (or a :class:`ShardTelemetry`
over a sharded executor) and every instrumentation site the engine
already has — counters, arrivals, outputs, phases, transitions,
rebalances, faults — publishes into one labeled
:class:`MetricsRegistry`, alongside windowed selectivity estimators,
Page–Hinkley drift detectors, arrival-rate estimators and per-shard
hot-key sketches.  Read it back via Prometheus text exposition, JSONL
snapshots, or the terminal dashboard (``python -m repro.telemetry.dash``).
See docs/TELEMETRY.md.
"""

from typing import TYPE_CHECKING

from repro.telemetry.estimators import (
    Ewma,
    PageHinkley,
    SampledRate,
    SelectivityDriftDetector,
    WindowedRatio,
)
from repro.telemetry.expo import (
    SnapshotLog,
    diff_snapshots,
    load_snapshots,
    registry_snapshot,
    render_prometheus,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    Instrument,
    MetricsRegistry,
    canonical_labels,
    series_name,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.telemetry.hub import ShardTelemetry, TelemetryTracer
    from repro.telemetry.sketch import SpaceSavingSketch

# The hub (and the sketch it uses) reach into the shard and engine
# layers.  Loading them lazily keeps this package importable from there
# while `from repro.telemetry import TelemetryTracer` keeps working.
_LAZY = {
    "ShardTelemetry": ("repro.telemetry.hub", "ShardTelemetry"),
    "TelemetryTracer": ("repro.telemetry.hub", "TelemetryTracer"),
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
    "Counter",
    "Ewma",
    "Gauge",
    "Histogram",
    "Instrument",
    "MetricsRegistry",
    "PageHinkley",
    "SampledRate",
    "SelectivityDriftDetector",
    "ShardTelemetry",
    "SnapshotLog",
    "SpaceSavingSketch",
    "TelemetryTracer",
    "WindowedRatio",
    "canonical_labels",
    "diff_snapshots",
    "load_snapshots",
    "registry_snapshot",
    "render_prometheus",
    "series_name",
]
