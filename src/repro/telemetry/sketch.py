"""Space-saving top-k hot-key sketch (Metwally et al., deterministic).

The shard partitioner's skewed assignments concentrate hot keys on few
shards (docs/SHARDING.md); quantifying *which* keys are hot — per shard,
live, in bounded memory — is what lets a rebalance target the actual
hotspot instead of guessing.  The space-saving algorithm keeps exactly
``capacity`` monitored keys: a hit on a monitored key increments its
count; a miss evicts a current minimum-count key and inherits its count
as the newcomer's error bound.  Guarantees: every true top-k key with
frequency above ``min_count`` is monitored, and ``count - error`` is a
lower bound on the true frequency.

Determinism and speed both come from the slot layout: cells live in
parallel ``keys``/``counts``/``errors`` lists, and eviction takes the
*earliest slot* among the minimum-count cells (``min`` + ``index`` over a
plain int list — C speed, no per-cell comparison objects).  Slot
assignment is a pure function of the offered stream, so two runs over
the same stream produce identical sketches — the property every repro
structure must satisfy (DESIGN.md substitution table) — while ``offer``
stays cheap enough for the per-arrival hot path (the telemetry overhead
gate counts on it).  :meth:`top` additionally orders its *report* by
``(count desc, stable hash, repr)`` so rendered rankings are stable too.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

from repro.shard.partition import stable_hash


class SpaceSavingSketch:
    """Top-k frequent-key summary in ``capacity`` cells."""

    __slots__ = ("capacity", "total", "_slot", "_keys", "_counts", "_errors")

    def __init__(self, capacity: int = 32):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: Total observations offered.
        self.total = 0
        self._slot: Dict[Any, int] = {}
        self._keys: List[Any] = []
        self._counts: List[int] = []
        self._errors: List[int] = []

    def offer(self, key: Any, n: int = 1) -> None:
        """Record ``n`` occurrences of ``key``."""
        if n <= 0:
            return
        self.total += n
        slot = self._slot
        i = slot.get(key)
        counts = self._counts
        if i is not None:
            counts[i] += n
            return
        if len(counts) < self.capacity:
            slot[key] = len(counts)
            self._keys.append(key)
            counts.append(n)
            self._errors.append(0)
            return
        floor = min(counts)
        i = counts.index(floor)
        del slot[self._keys[i]]
        slot[key] = i
        self._keys[i] = key
        counts[i] = floor + n
        self._errors[i] = floor

    def offer_all(self, keys: Iterable[Any]) -> None:
        """Record one occurrence of every key in ``keys``.

        The batch entry point for callers that buffer keys on their hot
        path and drain periodically (the telemetry hub): the monitored
        fast path runs with hoisted locals, one pass over the buffer.
        """
        slot = self._slot
        counts = self._counts
        offer = self.offer
        total = 0
        for key in keys:
            i = slot.get(key)
            if i is not None:
                counts[i] += 1
                total += 1
            else:
                offer(key)
        self.total += total

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key: Any) -> bool:
        return key in self._slot

    def count_of(self, key: Any) -> int:
        """Estimated count (upper bound) of ``key``; 0 if unmonitored."""
        i = self._slot.get(key)
        return self._counts[i] if i is not None else 0

    def top(self, k: int) -> List[Tuple[Any, int, int]]:
        """The ``k`` heaviest monitored keys as ``(key, count, error)``.

        Sorted by descending count with deterministic tie-breaking
        (stable hash, then repr — platform- and hash-seed-independent).
        """
        if k <= 0:
            return []
        ranked = sorted(
            zip(self._keys, self._counts, self._errors),
            key=lambda cell: (-cell[1], stable_hash(cell[0]), repr(cell[0])),
        )
        return ranked[:k]

    def to_json(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "total": self.total,
            "top": [
                {"key": repr(key), "count": count, "error": error}
                for key, count, error in self.top(self.capacity)
            ],
        }
