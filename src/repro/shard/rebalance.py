"""Rebalance bookkeeping: JISC-style lazy completion of cross-shard moves.

A rebalance reassigns buckets; the *keys* live in the buckets, and each
affected key's state must move from its old owner to its new one.  Two
modes (docs/SHARDING.md):

* **eager** — the Megaphone-like / Moving-State-like baseline: every
  affected key moves at rebalance time, all at once.  One big stall,
  exactly the latency signature of Figure 10's eager migration.

* **lazy** — the JISC discipline applied to shard state: the assignment
  flips immediately, but a key's state moves **just in time**, on the
  key's first post-rebalance arrival.  Until then the key is *pending*
  and its state (and evictions) stay at the source shard.  A pending key
  whose last live tuple expires is *retired* — nothing is left to move,
  mirroring :meth:`repro.core.controller.JISCController._bind_expiry`.

The per-key ledger reuses :class:`~repro.operators.state.StateStatus`
verbatim: ``pending`` is the set of keys not yet moved, ``settle_value``
records a completed move or an expired key, and the
session is *complete* when the set drains — the same counter semantics
the paper defines for operator states (Section 4.3), applied to the
coordinator's view of shard state.  This module is the sanctioned caller
(see JISC004 in :mod:`repro.lint.rules`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Set, Tuple

from repro.operators.state import StateStatus

#: One planned key move: key -> (source shard, destination shard).
KeyRoute = Tuple[int, int]

#: One bucket move inside a plan: (bucket, source shard, destination shard).
BucketMove = Tuple[int, int, int]


def check_mode(mode: str) -> None:
    if mode not in ("lazy", "eager"):
        raise ValueError(f"rebalance mode must be 'lazy' or 'eager', got {mode!r}")


def check_batch_keys(batch_keys: int) -> None:
    if batch_keys < 0:
        raise ValueError(
            f"batch_keys must be non-negative (0 = all-at-once), got {batch_keys}"
        )


class ShardMove:
    """Record of one completed (or retired) key move."""

    __slots__ = ("key", "src", "dst", "tuples_replayed", "at", "retired")

    def __init__(
        self,
        key: Any,
        src: int,
        dst: int,
        tuples_replayed: int,
        at: float,
        retired: bool = False,
    ):
        self.key = key
        self.src = src
        self.dst = dst
        self.tuples_replayed = tuples_replayed
        self.at = at
        self.retired = retired

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        verb = "retired" if self.retired else "moved"
        return (
            f"ShardMove({self.key!r} {verb} {self.src}->{self.dst}, "
            f"{self.tuples_replayed} tuple(s) @ {self.at:.1f})"
        )


class RebalanceSession:
    """The live-key ledger of one rebalance, from trigger to completion."""

    __slots__ = ("mode", "routes", "status", "started_at", "retired")

    def __init__(self, mode: str, routes: Dict[Any, KeyRoute], started_at: float):
        check_mode(mode)
        self.mode = mode
        self.routes = dict(routes)
        self.started_at = started_at
        #: Routed keys that expired before they moved (the rest settle).
        self.retired = 0
        self.status = StateStatus(complete=True)
        if routes:
            self.status.mark_incomplete(routes)

    # -- queries -----------------------------------------------------------------------

    @property
    def pending(self) -> Set[Any]:
        """Keys whose state still resides at their pre-rebalance owner."""
        return self.status.pending if self.status.pending is not None else set()

    @property
    def complete(self) -> bool:
        return self.status.complete

    def is_pending(self, key: Any) -> bool:
        pending = self.status.pending
        return pending is not None and key in pending

    def route_of(self, key: Any) -> KeyRoute:
        return self.routes[key]

    # -- transitions -------------------------------------------------------------------

    def settle(self, key: Any) -> bool:
        """The key's state reached its destination; ``True`` if that was
        the last pending key (the session just completed)."""
        done = self.status.settle_value(key)
        if done:
            self.status.mark_complete()
        return done

    def retire(self, key: Any) -> bool:
        """The key's last live tuple expired before its first
        post-rebalance arrival — nothing remains to move.  Same return
        convention as :meth:`settle`."""
        if self.is_pending(key):
            self.retired += 1
        done = self.status.settle_value(key)
        if done:
            self.status.mark_complete()
        return done


class FluidRebalancePlan:
    """A partitioner diff decomposed into ordered batches of bucket moves.

    Megaphone's observation (PAPERS.md, arxiv 1812.01371) is that
    migration granularity is a *knob*: moving everything at once stalls
    the stream for the whole reconfiguration, while splitting the same
    diff into small batches interleaved with normal processing bounds the
    worst-case per-arrival latency by the batch size.  ``batch_keys``
    names that knob in live-key units:

    * ``1`` — per-key moves (finest; longest reconfiguration),
    * ``n`` — batch-of-n key groups,
    * ``0`` — all-at-once (one batch; what
      :meth:`~repro.shard.executor.ShardedExecutor.rebalance` runs).

    Buckets are atomic — a bucket's keys always travel together, so a
    batch is a run of consecutive moved buckets whose *live* key count
    reaches ``batch_keys`` (a single oversized bucket still forms its own
    batch; empty buckets ride along for free).  Each batch becomes one
    :class:`RebalanceSession`, individually lazy or eager, driven by the
    executor's ``RebalanceScheduler`` so at most one batch is ever in
    ``PHASE_REBALANCING``.
    """

    __slots__ = ("target", "mode", "batch_keys", "batches", "started_at")

    def __init__(
        self,
        target: Mapping[int, int],
        mode: str,
        batch_keys: int,
        batches: List[List[BucketMove]],
        started_at: float,
    ):
        check_mode(mode)
        check_batch_keys(batch_keys)
        self.target = dict(target)
        self.mode = mode
        self.batch_keys = batch_keys
        self.batches: Tuple[Tuple[BucketMove, ...], ...] = tuple(
            tuple(batch) for batch in batches
        )
        self.started_at = started_at

    @classmethod
    def build(
        cls,
        moved: List[BucketMove],
        live_keys_per_bucket: Mapping[int, int],
        target: Mapping[int, int],
        mode: str,
        batch_keys: int,
        started_at: float,
    ) -> "FluidRebalancePlan":
        """Group a bucket-move diff (in bucket order) into batches.

        ``live_keys_per_bucket`` sizes batches by the keys that actually
        have state to move; the executor recomputes the concrete routes
        at each batch's open time, so these counts only shape the
        decomposition, never correctness.
        """
        batches: List[List[BucketMove]] = []
        current: List[BucketMove] = []
        current_keys = 0
        for move in moved:
            n = int(live_keys_per_bucket.get(move[0], 0))
            # batch_keys 0 never splits: all-at-once is the unbounded batch.
            if batch_keys and current_keys > 0 and current_keys + n > batch_keys:
                batches.append(current)
                current = []
                current_keys = 0
            current.append(move)
            current_keys += n
        if current:
            batches.append(current)
        return cls(target, mode, batch_keys, batches, started_at)

    # -- queries -----------------------------------------------------------------------

    @property
    def total_batches(self) -> int:
        return len(self.batches)

    def batch(self, index: int) -> Tuple[BucketMove, ...]:
        return self.batches[index]

    def moved_buckets(self) -> List[int]:
        """Every bucket the plan touches, in schedule order."""
        return [move[0] for batch in self.batches for move in batch]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        grain = self.batch_keys if self.batch_keys else "all"
        return (
            f"FluidRebalancePlan(mode={self.mode!r}, batch_keys={grain}, "
            f"batches={self.total_batches}, buckets={len(self.moved_buckets())})"
        )


def plan_key_routes(
    moved_buckets: List[Tuple[int, int, int]],
    live_keys_by_bucket: Mapping[int, Iterable[Any]],
) -> Dict[Any, KeyRoute]:
    """Key -> (src, dst) routes for every *live* key in a moved bucket.

    Keys with no live tuples need no route: their state is empty on both
    sides, and the flipped assignment alone is correct for them.
    """
    routes: Dict[Any, KeyRoute] = {}
    for bucket, src, dst in moved_buckets:
        for key in live_keys_by_bucket.get(bucket, ()):
            routes[key] = (src, dst)
    return routes
