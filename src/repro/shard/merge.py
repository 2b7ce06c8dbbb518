"""Deterministic merge of per-shard output logs into one virtual sink.

Each worker's output log is append-only and time-ordered (the virtual
clock never runs backwards), so the merged view orders records by
``(emission time, shard id, per-shard index)`` — a total, deterministic
order that is independent of when the coordinator happened to collect.
Collection is cursor-based per shard: a record is delivered exactly once,
and a crashed-and-rebuilt worker (whose deterministic replay regenerates
the same log) resumes at the preserved cursor — the exactly-once
guarantee the shard fault tests certify.

Storage is columnar (docs/SHARDING.md): four aligned, append-only columns
in collection order — emission times, shard ids, per-shard indexes, output
tuples — plus a cached permutation that puts them in merge order.  A
collected output therefore costs no object of its own; a
:class:`MergedOutput` exists only while a caller that asked for records
(:meth:`ShardMerger.merged`, the tracer path) is looking at it.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Any, Dict, Iterable, List, Optional, Tuple

Lineage = Tuple[Tuple[str, int], ...]


class MergedOutput:
    """One result in the merged stream, with its provenance."""

    __slots__ = ("time", "shard", "index", "tup")

    def __init__(self, time: float, shard: int, index: int, tup: Any):
        self.time = time
        self.shard = shard
        self.index = index
        self.tup = tup

    @property
    def lineage(self) -> Lineage:
        return self.tup.lineage  # type: ignore[no-any-return]

    @property
    def sort_key(self) -> Tuple[float, int, int]:
        return (self.time, self.shard, self.index)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MergedOutput(t={self.time:.1f}, shard={self.shard}, #{self.index})"


class ShardMerger:
    """Cursor-based collector over any number of worker output logs."""

    __slots__ = ("_cursors", "_times", "_shards", "_indexes", "_tups", "_order")

    def __init__(self) -> None:
        self._cursors: Dict[int, int] = {}
        self._times = array("d")
        self._shards = array("q")
        self._indexes = array("q")
        self._tups: List[Any] = []
        #: Column positions in merge order; ``None`` after a collect added rows.
        self._order: Optional[List[int]] = None

    def collect(self, workers: Iterable[Any]) -> int:
        """Pull every not-yet-collected output; returns how many were new.

        ``workers`` need ``shard_id``, ``outputs`` and ``output_times``
        (aligned lists).  The new rows are the tail of the columns
        (``records(-new)``).  Muted replay outputs never reach the
        merger: the worker truncates them synchronously, before the
        coordinator collects again.
        """
        fresh = 0
        for worker in workers:
            shard = worker.shard_id
            outs = worker.outputs
            cursor = self._cursors.get(shard, 0)
            n = len(outs)
            if cursor < n:
                self._times.extend(worker.output_times[cursor:n])
                self._shards.extend(repeat(shard, n - cursor))
                self._indexes.extend(range(cursor, n))
                self._tups.extend(outs[cursor:n])
                fresh += n - cursor
            self._cursors[shard] = n
        if fresh:
            self._order = None
        return fresh

    def _merge_order(self) -> List[int]:
        order = self._order
        if order is None:
            keys = list(zip(self._times, self._shards, self._indexes))
            order = self._order = sorted(range(len(keys)), key=keys.__getitem__)
        return order

    def outputs(self) -> List[Any]:
        """All collected output tuples in the canonical merge order."""
        tups = self._tups
        return [tups[i] for i in self._merge_order()]

    def output_lineages(self) -> List[Lineage]:
        tups = self._tups
        return [tups[i].lineage for i in self._merge_order()]

    def records(self, start: int = 0) -> List[MergedOutput]:
        """Rows ``[start:]`` materialised as records, in *collection* order."""
        rows = zip(
            self._times[start:], self._shards[start:], self._indexes[start:], self._tups[start:]
        )
        return [MergedOutput(*row) for row in rows]

    def merged(self) -> List[MergedOutput]:
        """All collected records, materialised, in the canonical merge order."""
        records = self.records()
        return [records[i] for i in self._merge_order()]

    def cursor_of(self, shard: int) -> int:
        """Collected prefix length of one shard's log (for recovery tests)."""
        return self._cursors.get(shard, 0)

    def reset_cursor(self, shard: int) -> None:
        """Restart one shard's cursor for a fresh worker incarnation.

        Used when a scale-out re-occupies a shard id that an earlier
        scale-in retired: the old incarnation's outputs were collected
        before retirement and stay in the merged view; the new worker's
        log starts empty, so its cursor must start at zero — resuming at
        the old cursor would silently skip its first outputs.
        """
        self._cursors[shard] = 0
