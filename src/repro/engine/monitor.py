"""Runtime monitoring: state sizes, throughput, and memory pressure.

A :class:`QueryMonitor` samples a running strategy's observable state —
per-operator state sizes, window fill, output counts, virtual time,
incomplete-state count — into a history of :class:`Snapshot` rows.  It is
how an operator of the system answers "is state growing?", "did the
migration stall output?", or "which join holds the most memory?" without
touching engine internals.

The history is not a private buffer: it lives in a
:class:`~repro.telemetry.registry.Windowed` instrument inside a
:class:`~repro.telemetry.registry.MetricsRegistry` (pass one to share it
with a :class:`~repro.telemetry.hub.TelemetryTracer`; a fresh registry is
created otherwise).  Summary gauges — peak entries, incomplete states,
outputs, live plans — are registered once at construction and updated on
every :meth:`QueryMonitor.sample`, so exposition and the dashboard see
exactly what the monitor's own analysis methods see.

Works with any pipelined strategy: every plan in its ``live_plans()`` is
sampled (Parallel Track: all live tracks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional

from repro.telemetry.registry import MetricsRegistry, Windowed


@dataclass(frozen=True)
class Snapshot:
    """One observation of a running query."""

    at_tuple: int
    virtual_time: float
    outputs: int
    state_sizes: Dict[str, int]
    window_fill: Dict[str, int]
    incomplete_states: int
    live_plans: int

    @property
    def total_entries(self) -> int:
        return sum(self.state_sizes.values()) + sum(self.window_fill.values())


class _HistoryView:
    """Sequence view over the snapshots held by a ``Windowed`` instrument.

    Preserves the classic ``monitor.history`` surface — ``len``,
    iteration oldest-to-newest, and indexing (``history[-1]`` is the
    latest snapshot) — while the storage itself lives in the telemetry
    registry.
    """

    __slots__ = ("_windowed",)

    def __init__(self, windowed: Windowed):
        self._windowed = windowed

    def __len__(self) -> int:
        return len(self._windowed)

    def __iter__(self) -> Iterator[Snapshot]:
        for _, snap in self._windowed.samples:
            yield snap

    def __getitem__(self, index: int) -> Snapshot:
        snap: Snapshot = self._windowed.samples[index][1]
        return snap

    def __bool__(self) -> bool:
        return len(self._windowed) > 0


class QueryMonitor:
    """Samples a strategy's state into a registry-backed bounded history."""

    def __init__(
        self,
        strategy: Any,
        max_history: int = 10_000,
        registry: Optional[MetricsRegistry] = None,
        name: str = "engine",
    ):
        if max_history <= 0:
            raise ValueError("max_history must be positive")
        self.strategy = strategy
        self.max_history = max_history
        self.registry = registry if registry is not None else MetricsRegistry()
        # Bounded ring inside the registry: appending to a full window
        # evicts the oldest snapshot in O(1) and counts the eviction, so
        # the derived measures can report that their window was truncated.
        self._window = self.registry.windowed(
            "monitor_history", capacity=max_history, strategy=name
        )
        self.history = _HistoryView(self._window)
        labels = {"strategy": name}
        self._samples_total = self.registry.counter("monitor_samples_total", **labels)
        self._peak_gauge = self.registry.gauge("monitor_peak_entries", **labels)
        self._entries_gauge = self.registry.gauge("monitor_total_entries", **labels)
        self._incomplete_gauge = self.registry.gauge(
            "monitor_incomplete_states", **labels
        )
        self._outputs_gauge = self.registry.gauge("monitor_outputs", **labels)
        self._plans_gauge = self.registry.gauge("monitor_live_plans", **labels)
        self._tuples_seen = 0
        self._peak = 0

    @property
    def dropped(self) -> int:
        """Snapshots evicted from the bounded history ring."""
        return self._window.dropped

    # -- sampling -------------------------------------------------------------------

    def note_tuple(self) -> None:
        """Tell the monitor one more tuple was processed (for the x-axis)."""
        self._tuples_seen += 1

    def sample(self) -> Snapshot:
        """Take a snapshot of the strategy's current state."""
        plans = self.strategy.live_plans()
        state_sizes: Dict[str, int] = {}
        window_fill: Dict[str, int] = {}
        for plan in plans:
            for op in plan.internal:
                label = "".join(sorted(op.membership))
                state_sizes[label] = state_sizes.get(label, 0) + len(op.state)
            for name, scan in plan.scans.items():
                window_fill[name] = window_fill.get(name, 0) + len(scan.window)
        incomplete = sum(
            1
            for plan in plans
            for op in plan.internal
            if not op.state.status.complete
        )
        clock = self.strategy.metrics.clock
        snap = Snapshot(
            at_tuple=self._tuples_seen,
            virtual_time=clock.now if clock is not None else 0.0,
            outputs=len(self.strategy.outputs),
            state_sizes=state_sizes,
            window_fill=window_fill,
            incomplete_states=incomplete,
            live_plans=len(plans),
        )
        self._window.push(snap.virtual_time, snap)
        self._samples_total.inc()
        if snap.total_entries > self._peak:
            self._peak = snap.total_entries
        self._peak_gauge.set(self._peak)
        self._entries_gauge.set(snap.total_entries)
        self._incomplete_gauge.set(snap.incomplete_states)
        self._outputs_gauge.set(snap.outputs)
        self._plans_gauge.set(snap.live_plans)
        return snap

    # -- analysis -------------------------------------------------------------------

    def peak_entries(self) -> int:
        """Largest total state footprint seen so far (retained window)."""
        return max((s.total_entries for s in self.history), default=0)

    def largest_state(self) -> Optional[str]:
        """Label of the biggest operator state in the latest snapshot."""
        if not self.history:
            return None
        latest = self.history[-1]
        if not latest.state_sizes:
            return None
        return max(latest.state_sizes, key=latest.state_sizes.get)

    def throughput(self) -> float:
        """Outputs per unit of virtual time over the *retained* range.

        When snapshots have been evicted (``dropped > 0``) the range no
        longer starts at the beginning of the run — check
        ``window_truncated()`` before treating this as a whole-run rate.
        """
        if len(self.history) < 2:
            return 0.0
        first, last = self.history[0], self.history[-1]
        span = last.virtual_time - first.virtual_time
        if span <= 0:
            return 0.0
        return (last.outputs - first.outputs) / span

    def output_stall(self) -> float:
        """Longest virtual-time gap between retained snapshots without new
        output.

        A large stall around a transition is the Moving State signature;
        JISC keeps this near the inter-output spacing (Section 5.1.1).
        Stalls that happened before the oldest retained snapshot are
        invisible once the ring has wrapped (``window_truncated()``).
        """
        worst = 0.0
        prev: Optional[Snapshot] = None
        for cur in self.history:
            if prev is not None and cur.outputs == prev.outputs:
                worst = max(worst, cur.virtual_time - prev.virtual_time)
            prev = cur
        return worst

    def window_truncated(self) -> bool:
        """Has the bounded history evicted snapshots (shortened window)?"""
        return self.dropped > 0

    def summary(self) -> Dict[str, Any]:
        return {
            "samples": len(self.history),
            "dropped": self.dropped,
            "window_truncated": self.window_truncated(),
            "peak_entries": self.peak_entries(),
            "largest_state": self.largest_state(),
            "throughput": self.throughput(),
            "output_stall": self.output_stall(),
            "incomplete_states": (
                self.history[-1].incomplete_states if self.history else 0
            ),
        }
