"""Sharded multi-engine execution with JISC-lazy rebalancing.

The shard layer scales any single-engine strategy out across N
deterministic workers by hash-partitioning the join-key space, and
applies the paper's just-in-time completion discipline to *shard state*:
a rebalance flips the routing table immediately and moves each key's
state lazily, on the key's first post-rebalance arrival.  See
docs/SHARDING.md for the design and its correctness argument.
"""

from repro.shard.executor import (
    RebalanceEvent,
    RebalanceScheduler,
    ResizeEvent,
    ShardedExecutor,
)
from repro.shard.merge import MergedOutput, ShardMerger
from repro.shard.partition import (
    HashPartitioner,
    balanced_assignment,
    skewed_assignment,
    stable_hash,
    weighted_assignment,
)
from repro.shard.rebalance import (
    FluidRebalancePlan,
    RebalanceSession,
    ShardMove,
    plan_key_routes,
)
from repro.shard.worker import (
    STRATEGY_NAMES,
    ShardWorker,
    driven_schema,
    make_strategy,
)

__all__ = [
    "FluidRebalancePlan",
    "HashPartitioner",
    "MergedOutput",
    "RebalanceEvent",
    "RebalanceScheduler",
    "RebalanceSession",
    "ResizeEvent",
    "STRATEGY_NAMES",
    "ShardMerger",
    "ShardMove",
    "ShardWorker",
    "ShardedExecutor",
    "balanced_assignment",
    "driven_schema",
    "make_strategy",
    "plan_key_routes",
    "skewed_assignment",
    "stable_hash",
    "weighted_assignment",
]
