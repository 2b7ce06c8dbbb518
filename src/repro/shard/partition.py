"""Deterministic hash partitioning of the join-key space across shards.

The common-key model (PAPER.md, Section 5.2) makes sharding semantically
clean: every constituent of a join result carries the same join-attribute
value, so partitioning the *key space* partitions the output space — a
result is produced entirely within the shard that owns its key, and the
union of per-shard outputs is exactly the single-engine output
(docs/SHARDING.md).

Keys hash into a fixed ring of **buckets** (``stable_hash``, seeded
content hashing — never Python's ``hash``, which varies per process);
buckets map to shards through an explicit, mutable **assignment** table.
Rebalancing moves buckets, not keys: :meth:`HashPartitioner.moves_to`
diffs two assignments into the bucket moves a coordinator must perform.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: One bucket move: (bucket, source shard, destination shard).
BucketMove = Tuple[int, int, int]


def stable_hash(key: Any) -> int:
    """Process-independent 64-bit hash of a join-attribute value.

    Built-in ``hash`` is salted per process (``PYTHONHASHSEED``), which
    would make shard placement — and therefore per-shard op counts and
    merged output order — nondeterministic across runs.  Hashing the
    canonical ``repr`` through blake2b is stable everywhere Python is.
    Keys must have a deterministic ``repr`` (ints, strings, and tuples
    thereof all qualify; the engine's workloads use ints).
    """
    data = repr(key).encode("utf-8", "backslashreplace")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


class HashPartitioner:
    """Key -> bucket -> shard routing with an explicit assignment table.

    Parameters
    ----------
    num_shards:
        Number of workers; shard ids are ``0 .. num_shards - 1``.
    num_buckets:
        Size of the hash ring.  More buckets mean finer-grained
        rebalancing; the default (64) keeps bucket moves small relative
        to the key domain of the repo's workloads.
    assignment:
        Optional initial bucket -> shard table (defaults to round-robin,
        ``bucket % num_shards``).  Must cover every bucket.
    """

    __slots__ = ("num_shards", "num_buckets", "assignment")

    def __init__(
        self,
        num_shards: int,
        num_buckets: int = 64,
        assignment: "Mapping[int, int] | None" = None,
    ):
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if num_buckets < num_shards:
            raise ValueError(
                f"need at least one bucket per shard "
                f"({num_buckets} buckets < {num_shards} shards)"
            )
        self.num_shards = num_shards
        self.num_buckets = num_buckets
        if assignment is None:
            self.assignment: Dict[int, int] = {
                b: b % num_shards for b in range(num_buckets)
            }
        else:
            self.assignment = self.validated(assignment)

    def validated(
        self, assignment: Mapping[int, int], num_shards: Optional[int] = None
    ) -> Dict[int, int]:
        """A checked copy of ``assignment``; changes nothing.  ``num_shards``
        checks against a pool other than the current one (the one a
        scale-in still in flight will leave behind)."""
        if num_shards is None:
            num_shards = self.num_shards
        if set(assignment) != set(range(self.num_buckets)):
            raise ValueError(
                f"assignment must cover buckets 0..{self.num_buckets - 1} exactly"
            )
        for bucket, shard in assignment.items():
            if not 0 <= shard < num_shards:
                raise ValueError(
                    f"bucket {bucket} assigned to shard {shard}, outside "
                    f"0..{num_shards - 1}"
                )
        return dict(assignment)

    # -- routing ---------------------------------------------------------------------

    def bucket_of(self, key: Any) -> int:
        return stable_hash(key) % self.num_buckets

    def shard_of(self, key: Any) -> int:
        return self.assignment[stable_hash(key) % self.num_buckets]

    # -- rebalancing -----------------------------------------------------------------

    def moves_to(self, new_assignment: Mapping[int, int]) -> List[BucketMove]:
        """Bucket moves turning the current assignment into the new one.

        Returns ``(bucket, src, dst)`` triples for every bucket whose
        owner changes, in bucket order (deterministic).  Does **not**
        apply the new assignment — the coordinator applies it once the
        moves are scheduled (:meth:`apply`).
        """
        validated = self.validated(new_assignment)
        return [
            (bucket, src, validated[bucket])
            for bucket, src in sorted(self.assignment.items())
            if validated[bucket] != src
        ]

    def apply(self, new_assignment: Mapping[int, int]) -> None:
        """Adopt ``new_assignment`` as the current routing table."""
        self.assignment = self.validated(new_assignment)

    def snapshot(self) -> Dict[int, int]:
        """Copy of the current bucket -> shard table."""
        return dict(self.assignment)

    # -- resizing --------------------------------------------------------------------

    def grow(self, num_shards: int) -> None:
        """Widen the shard-id range (scale-out).

        The assignment is untouched: new shards own no buckets until a
        rebalance routes some to them.  Growing first lets the coordinator
        validate an M-shard target assignment while buckets still point at
        the original N shards.
        """
        if num_shards < self.num_shards:
            raise ValueError(
                f"grow cannot shrink ({self.num_shards} -> {num_shards}); use shrink"
            )
        self.num_shards = num_shards

    def shrink(self, num_shards: int) -> None:
        """Narrow the shard-id range (scale-in), after buckets drained.

        Every bucket must already point below ``num_shards`` — i.e. the
        rebalance plan that emptied the retiring shards has completed.
        """
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        if num_shards > self.num_shards:
            raise ValueError(
                f"shrink cannot grow ({self.num_shards} -> {num_shards}); use grow"
            )
        stragglers = sorted(
            {s for s in self.assignment.values() if s >= num_shards}
        )
        if stragglers:
            raise ValueError(
                f"cannot shrink to {num_shards} shard(s): buckets still "
                f"assigned to shard(s) {stragglers}"
            )
        self.num_shards = num_shards


def balanced_assignment(num_buckets: int, num_shards: int) -> Dict[int, int]:
    """Round-robin bucket -> shard table (the default placement)."""
    return {b: b % num_shards for b in range(num_buckets)}


def skewed_assignment(num_buckets: int, shard: int = 0) -> Dict[int, int]:
    """All buckets on one shard — the hotspot the rebalance benchmarks fix."""
    return {b: shard for b in range(num_buckets)}


def weighted_assignment(
    num_buckets: int, num_shards: int, weights: Mapping[int, float]
) -> Dict[int, int]:
    """Load-aware bucket placement from per-bucket weights (LPT greedy).

    ``weights`` maps bucket -> observed load (e.g. hot-key counts from a
    Space-Saving sketch, summed per bucket); missing buckets weigh zero.
    Buckets are placed heaviest-first onto the least-loaded shard, ties
    broken by shard id then bucket id, so the table is deterministic for
    a given weight map.  This is the target the optimizer's sketch-driven
    rebalance trigger hands to :meth:`ShardedExecutor.fluid_rebalance`.
    """
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    loads = [0.0] * num_shards
    counts = [0] * num_shards
    assignment: Dict[int, int] = {}
    order = sorted(
        range(num_buckets), key=lambda b: (-float(weights.get(b, 0.0)), b)
    )
    for bucket in order:
        shard = min(range(num_shards), key=lambda s: (loads[s], counts[s], s))
        assignment[bucket] = shard
        loads[shard] += float(weights.get(bucket, 0.0))
        counts[shard] += 1
    return assignment
