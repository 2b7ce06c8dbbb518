"""Outside-in span tracing of ``repro``'s layers, from the benchmark's own files.

Span points are data: a metric name mapped to the public callables it
covers, as ``module:Class.attr`` paths.  :meth:`SpanTracer.install` rebinds
each callable **on its class** to a wrapper that pushes onto a span stack,
reads ``perf_counter`` on entry and exit and accumulates ``(calls, total,
self)`` per point, where self time is the span's duration minus the part
its child spans (and the garbage collector) cover.  A path that no longer
resolves costs one warning line and reports its point as ``None``; it never
aborts the run, so a refactor of ``repro`` cannot break the benchmark.

Only the traced pass imports this module; end-to-end numbers come from
untraced passes, and ``trace.overhead_ratio`` is the price of the wrappers.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

#: Full span records are kept for one arrival in this many.
SAMPLE_EVERY = 64

POINTS: Dict[str, Tuple[str, ...]] = {
    "streams.window_push": (
        "repro.streams.window:SlidingWindow.push",
        "repro.streams.window:SlidingWindow.push_all",
    ),
    "streams.window_discard": ("repro.streams.window:SlidingWindow.discard",),
    "streams.composite_of": ("repro.streams.tuples:CompositeTuple.of",),
    "operators.scan_insert": ("repro.operators.scan:StreamScan.insert",),
    "operators.scan_evict": ("repro.operators.scan:StreamScan.evict",),
    "operators.join_process": ("repro.operators.joins:JoinOperator.process",),
    "operators.join_build_state_for_key": (
        "repro.operators.joins:JoinOperator.build_state_for_key",
    ),
    "operators.state_add": ("repro.operators.state:HashState.add",),
    "operators.state_get_view": ("repro.operators.state:HashState.get_view",),
    "operators.state_remove_entry": ("repro.operators.state:HashState.remove_entry",),
    "operators.state_remove_with_part": (
        "repro.operators.state:HashState.remove_with_part",
    ),
    "operators.sink_process": ("repro.operators.sink:OutputSink.process",),
    "plans.feed": ("repro.plans.build:PhysicalPlan.feed",),
    "core.on_arrival": ("repro.core.controller:JISCController.on_arrival",),
    "core.after_arrival": ("repro.core.controller:JISCController.after_arrival",),
    "core.settle": ("repro.core.controller:JISCController.settle",),
    "core.init_pending": ("repro.core.controller:JISCController.init_pending",),
    "core.attach": ("repro.core.controller:JISCController.attach",),
    "migration.transition": ("repro.migration.base:MigrationStrategy.transition",),
    "engine.metrics_count": (
        "repro.engine.metrics:Metrics.count",
        "repro.engine.metrics:Metrics.count_n",
    ),
    # tuples.py binds INTERNER.id_of to a module global at import, which a
    # rebinding on the class cannot reach
    "perf.intern_id_of": (
        "repro.perf.intern:LineageInterner.id_of",
        "repro.streams.tuples:_intern",
    ),
    "shard.process": ("repro.shard.executor:ShardedExecutor.process",),
    "shard.partition_shard_of": ("repro.shard.partition:HashPartitioner.shard_of",),
    "shard.worker_catch_up": ("repro.shard.worker:ShardWorker.catch_up",),
    "shard.worker_feed": ("repro.shard.worker:ShardWorker.feed",),
    "shard.worker_evict": ("repro.shard.worker:ShardWorker.evict",),
    "shard.worker_replay": ("repro.shard.worker:ShardWorker.replay",),
    "shard.worker_live_tuples": ("repro.shard.worker:ShardWorker.live_tuples",),
    "shard.merge_collect": ("repro.shard.merge:ShardMerger.collect",),
    "shard.fluid_rebalance": ("repro.shard.executor:ShardedExecutor.fluid_rebalance",),
    "shard.drain_rebalance": ("repro.shard.executor:ShardedExecutor.drain_rebalance",),
    "telemetry.arrival": ("repro.telemetry.hub:TelemetryTracer.arrival",),
    "telemetry.output": ("repro.telemetry.hub:TelemetryTracer.output",),
    "telemetry.on_count": ("repro.telemetry.hub:TelemetryTracer.on_count",),
    "telemetry.poll": ("repro.telemetry.hub:TelemetryTracer.poll",),
    "optimizer.evaluate": ("repro.optimizer.adaptive:AdaptiveEngine.evaluate",),
    "optimizer.cost_refresh": ("repro.optimizer.cost:PlanCostMaintainer.refresh",),
}


def resolve(path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw entry of the owner's dict)`` of a span path.

    The owner is the class that defines the attribute (found along the MRO)
    or, for a path without a class, the module itself.
    """
    module_name, _, qualname = path.partition(":")
    obj: Any = importlib.import_module(module_name)
    *owners, attr = qualname.split(".")
    for part in owners:
        obj = getattr(obj, part)
    for owner in obj.__mro__ if isinstance(obj, type) else (obj,):
        if attr in vars(owner):
            return owner, attr, vars(owner)[attr]
    raise AttributeError(f"{qualname} not found in {module_name}")


class SpanTracer:
    """Span stack, per-point aggregates, sampled span records, GC pauses."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}
        self.unresolved: Set[str] = set()
        #: Open spans, innermost last: ``[seconds covered by children, record id]``.
        self.stack: List[List[float]] = []
        #: Sampled spans: ``[name, start, end, parent record id, arrival index]``.
        self.records: List[List[Any]] = []
        self.arrival = -1
        self.sampling = False
        self.gc_pause_s = 0.0
        self.gc_pause_max_s = 0.0
        self.gc_gen2_collections = 0
        self._gc_began = 0.0
        self._saved: List[Tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` timed as one span of point ``name``."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        records = self.records
        clock = time.perf_counter
        tracer = self

        def span(*args: Any, **kwargs: Any) -> Any:
            if tracer.sampling:
                rid = len(records)
                parent = stack[-1][1] if stack else -1
                records.append([name, 0.0, 0.0, parent, tracer.arrival])
            else:
                rid = -1
            frame = [0.0, rid]
            stack.append(frame)
            began = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                duration = ended - began
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if rid >= 0:
                    records[rid][1] = began
                    records[rid][2] = ended

        return span

    def root(self, name: str, process: Callable[[Any], None]) -> Callable[[Any], None]:
        """The driver's per-arrival call as the root span of each arrival."""
        span = self.wrap(name, process)

        def arrival(tup: Any) -> None:
            self.arrival += 1
            self.sampling = self.arrival % SAMPLE_EVERY == 0
            try:
                span(tup)
            finally:
                self.sampling = False

        return arrival

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_began = time.perf_counter()
            return
        pause = time.perf_counter() - self._gc_began
        self.gc_pause_s += pause
        self.gc_pause_max_s = max(self.gc_pause_max_s, pause)
        if info["generation"] == 2:
            self.gc_gen2_collections += 1
        if self.stack:
            # collector time is nobody's self time
            self.stack[-1][0] += pause

    def install(self) -> None:
        for name, paths in POINTS.items():
            self.stats[name] = [0, 0.0, 0.0]
            for path in paths:
                try:
                    owner, attr, raw = resolve(path)
                except (ImportError, AttributeError) as exc:
                    print(f"warning: span point {name}: {path}: {exc}", file=sys.stderr)
                    self.unresolved.add(name)
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped: Any = type(raw)(self.wrap(name, raw.__func__))
                else:
                    wrapped = self.wrap(name, raw)
                setattr(owner, attr, wrapped)
                self._saved.append((owner, attr, raw))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def report(self, scale: float) -> Dict[str, Optional[float]]:
        """``<point>.calls`` / ``<point>.self_s`` plus the ``runtime.gc_*`` numbers.

        ``scale`` turns the pass's seconds into reference seconds.
        """
        out: Dict[str, Optional[float]] = {}
        for name, (calls, _total, self_s) in self.stats.items():
            missing = name in self.unresolved
            out[f"{name}.calls"] = None if missing else calls
            out[f"{name}.self_s"] = None if missing else self_s * scale
        out["runtime.gc_pause_s"] = self.gc_pause_s * scale
        out["runtime.gc_pause_max_ms"] = self.gc_pause_max_s * scale * 1e3
        out["runtime.gc_gen2_collections"] = self.gc_gen2_collections
        return out

    def write_records(self, path: str) -> None:
        with open(path, "w") as fh:
            for rid, (name, began, ended, parent, arrival) in enumerate(self.records):
                record = {
                    "id": rid,
                    "name": name,
                    "start": began,
                    "end": ended,
                    "parent": parent,
                    "arrival": arrival,
                }
                fh.write(json.dumps(record) + "\n")
