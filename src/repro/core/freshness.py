"""Fresh vs. attempted tuples (Definition 2, Section 4.4).

A received tuple is *fresh* if no other tuple with its join-attribute value
has been received **on its stream** since the most recent plan transition;
otherwise it is *attempted*.  Fresh tuples trigger state completion;
attempted tuples are guaranteed to find completed entries (the fresh tuple
with the same value got there first), so they skip the completion check —
this is what bounds completion work to at most once per value.

The registry stores, per stream, the arrival sequence of the last tuple
recorded for each join-attribute value since the most recent plan
transition — exactly the "hash table of that stream" lookup the paper
describes (O(1) CPU time) — plus that transition's sequence number.
:meth:`FreshnessRegistry.check` and :meth:`FreshnessRegistry.record` are the
definition; ``JISCStrategy.process_batch`` does both on ``last_seen`` itself.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.streams.tuples import StreamTuple


#: What a stream nothing arrived on yet has seen (a miss allocates nothing).
_NEVER_SEEN: Dict[Any, int] = {}


class FreshnessRegistry:
    """Per-stream last-arrival tracking against the latest transition."""

    def __init__(self):
        # stream -> {join value -> seq of last arrival with that value}; the
        # per-stream dicts are replaced at every transition, never kept across one
        self.last_seen: Dict[str, Dict[Any, int]] = {}
        self.last_transition_seq: int = -1

    def note_transition(self, seq: int) -> None:
        """Record that a plan transition took effect just before ``seq``.

        Tuples with arrival sequence >= ``seq`` count as received after the
        transition; older records read as absent from here on (:meth:`check`)
        and are dropped instead of kept, one per value ever seen.
        """
        self.last_transition_seq = seq
        for stream, seen in self.last_seen.items():
            self.last_seen[stream] = {key: at for key, at in seen.items() if at >= seq}

    def check(self, tup: StreamTuple) -> bool:
        """Is ``tup`` fresh? (No registry update.)

        Fresh means: no earlier tuple with the same value arrived on the
        same stream at or after the last transition.  Definition 2 counts
        "other" tuples only, so an arrival must be *checked* before it is
        *recorded* — in particular, the window eviction it causes is
        evaluated against the registry without the arrival itself (see
        tests/test_expiry_optimization_soundness.py for why this ordering
        is load-bearing).
        """
        prev = self.last_seen.get(tup.stream, _NEVER_SEEN).get(tup.key)
        return prev is None or prev < self.last_transition_seq

    def record(self, tup: StreamTuple) -> None:
        """Register ``tup``'s arrival (after its processing cascade ended)."""
        seen = self.last_seen.get(tup.stream)
        if seen is None:
            seen = self.last_seen[tup.stream] = {}
        seen[tup.key] = tup.seq
