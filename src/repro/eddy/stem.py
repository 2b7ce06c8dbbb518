"""SteMs — State Modules (Section 3.1, after [18]).

A SteM holds exactly one stream's sliding window, hashed on the join
attribute (on a ``"driven"`` stream the window is the caller's and the SteM
builds none: its state is the contents).  CACQ splits every binary join
into SteM probes, storing **no** intermediate results; a join tree over n+1
streams becomes n+1 SteMs.
"""

from __future__ import annotations

from typing import Any, Collection, List

from repro.engine.metrics import Counter, Metrics
from repro.operators.state import HashState
from repro.streams.tuples import StreamTuple
from repro.streams.window import SlidingWindow, TimeSlidingWindow


class SteM:
    """One stream's windowed hash state."""

    def __init__(
        self, stream: str, window: int, metrics: Metrics, window_kind: str = "count"
    ):
        self.stream = stream
        if window_kind == "count":
            self.window = SlidingWindow(window)
        elif window_kind == "time":
            self.window = TimeSlidingWindow(window)
        elif window_kind == "driven":
            self.window = None  # the caller evicts (see ``StreamScan.window``)
        else:
            raise ValueError(f"unknown window kind {window_kind!r}")
        self.state = HashState(complete=True)
        self.metrics = metrics
        # Native probe tallies, mirroring Operator.probes/.hits: the eddy
        # bumps them inline (two int adds) and the telemetry hub polls the
        # deltas, giving CACQ per-stream selectivity series without any
        # per-probe telemetry work.
        self.probes = 0
        self.hits = 0

    def insert(self, tup: StreamTuple) -> List[StreamTuple]:
        """Add an arriving tuple; returns the evicted tuples, if any.

        Eviction is local: CACQ keeps no intermediate state, so nothing has
        to be traced through a pipeline — the cheap-expiry flip side of
        recomputing every intermediate result per tuple.
        """
        if tup.stream != self.stream:
            raise ValueError(f"tuple from {tup.stream!r} fed to SteM of {self.stream!r}")
        evicted = self.window.push_all(tup) if self.window is not None else []
        for old in evicted:
            self.state.remove_entry(old)
            self.metrics.count(Counter.STATE_REMOVE)
        self.state.add(tup)
        self.metrics.count(Counter.HASH_INSERT)
        return evicted

    def evict(self, tup: StreamTuple) -> bool:
        """Expire ``tup`` on the caller's word (sharded execution, docs/SHARDING.md).

        Mirrors the local-eviction path of :meth:`insert` for a specific
        tuple: a shard worker's SteMs are driven and receive global-window
        evictions from the coordinator.  Returns ``False`` when the SteM
        does not hold the tuple (the state's answer when driven, O(1)).
        """
        if self.window is not None and not self.window.discard(tup):
            return False
        if not self.state.remove_entry(tup):
            return False
        self.metrics.count(Counter.STATE_REMOVE)
        return True

    def probe(self, key: Any) -> List[StreamTuple]:
        """All window tuples with join value ``key``, as a fresh list."""
        self.metrics.count(Counter.HASH_PROBE)
        return self.state.get(key)

    def probe_view(self, key: Any) -> Collection[StreamTuple]:
        """Zero-copy variant of :meth:`probe` for read-only callers.

        Same counting, but returns a live bucket view
        (:meth:`~repro.operators.state.HashState.get_view`): the caller must
        not insert into or evict from this SteM while iterating.  The eddy
        probes all SteMs strictly after inserting the arrival into its own,
        so its probes qualify.
        """
        self.metrics.count(Counter.HASH_PROBE)
        return self.state.get_view(key)

    def __len__(self) -> int:
        return len(self.state)  # the window's contents, whoever owns the window
