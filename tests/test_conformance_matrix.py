"""Differential conformance matrix: every strategy, sharded and not,
against the brute-force oracle.

The matrix is {JISC, Moving State, Parallel Track, STAIRs, CACQ} x
{uniform, skewed, bursty} x {migration on/off} x {1, 2, 4 shards}.  For
every cell, the sharded run must produce exactly the oracle's output —
the same lineage multiset, the same lineage *set*, and no duplicates —
and (for multi-shard cells) survive two mid-stream rebalances, one lazy
and one eager, without a trace in the output.  This is the acceptance
bar of the shard layer: sharding, like migration, must be invisible.
"""

import random
from collections import Counter as MultiSet

import pytest

from repro.engine.executor import TransitionEvent
from repro.optimizer.adaptive import AdaptiveEngine
from repro.optimizer.triggers import HysteresisTrigger
from repro.shard import (
    RebalanceEvent,
    ResizeEvent,
    ShardedExecutor,
    balanced_assignment,
    skewed_assignment,
)
from repro.shard.worker import make_strategy
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.testing.naive import NaiveJoinOracle
from repro.workloads.drift import SelectivityDriftWorkload

pytestmark = pytest.mark.hashseed

NAMES = ("A", "B", "C")
STRATEGIES = ("jisc", "moving_state", "parallel_track", "stairs", "cacq")
WINDOW = 12
N_TUPLES = 150


def _tuples(keygen, seed):
    rng = random.Random(seed)
    seqs = {name: 0 for name in NAMES}
    out = []
    for i in range(N_TUPLES):
        stream = rng.choice(NAMES)
        out.append(StreamTuple(stream, seqs[stream], keygen(rng, i)))
        seqs[stream] += 1
    return out


def _uniform(rng, i):
    return rng.randrange(10)


def _skewed(rng, i):
    # ~half the arrivals hit one hot key, the rest spread out
    return 0 if rng.random() < 0.5 else rng.randrange(1, 12)


def _bursty(rng, i):
    # the key population drifts in phases — exercises window turnover
    return rng.randrange(5) + 5 * (i // 50)


WORKLOADS = {
    "uniform": _tuples(_uniform, seed=101),
    "skewed": _tuples(_skewed, seed=102),
    "bursty": _tuples(_bursty, seed=103),
}

SCHEMA = Schema.uniform(NAMES, WINDOW)

_ORACLE_CACHE = {}


def oracle_multiset(workload_name):
    if workload_name not in _ORACLE_CACHE:
        oracle = NaiveJoinOracle(SCHEMA, NAMES)
        for tup in WORKLOADS[workload_name]:
            oracle.process(tup)
        _ORACLE_CACHE[workload_name] = MultiSet(oracle.output_lineages())
    return _ORACLE_CACHE[workload_name]


def build_events(workload_name, migration, num_shards):
    """The event schedule for one matrix cell.

    Multi-shard cells get two mid-stream rebalances — a lazy hotspot
    consolidation and an eager spread-back — so every conformance check
    covers cross-shard state movement in both modes.
    """
    events = list(WORKLOADS[workload_name])
    if num_shards > 1:
        events.insert(100, RebalanceEvent(balanced_assignment(64, num_shards), "eager"))
        events.insert(50, RebalanceEvent(skewed_assignment(64, 0), "lazy"))
    if migration:
        events.insert(110, TransitionEvent(("C", "B", "A")))
        events.insert(40, TransitionEvent(("B", "C", "A")))
    return events


@pytest.mark.parametrize("num_shards", [1, 2, 4])
@pytest.mark.parametrize("migration", [False, True], ids=["steady", "migrating"])
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sharded_output_matches_oracle(strategy, workload_name, migration, num_shards):
    expected = oracle_multiset(workload_name)
    ex = ShardedExecutor(SCHEMA, NAMES, num_shards=num_shards, strategy=strategy)
    ex.run(build_events(workload_name, migration, num_shards))
    lineages = ex.output_lineages()
    got = MultiSet(tuple(sorted(lineage)) for lineage in lineages)
    # multiset equality covers completeness and closedness at once
    assert got == expected, (
        f"{strategy}/{workload_name}/migration={migration}/shards={num_shards}: "
        f"missing={dict(list((expected - got).items())[:3])} "
        f"spurious={dict(list((got - expected).items())[:3])}"
    )
    # lineage sets match and nothing is delivered twice
    assert set(got) == set(expected)
    assert len(lineages) == len(set(lineages))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sharding_is_invisible_relative_to_single_engine(strategy):
    """2- and 4-shard runs agree with the 1-shard run of the same
    strategy, event for event (modulo rebalances, which only exist
    sharded) — the differential half of the conformance argument."""
    events_1 = build_events("uniform", True, 1)
    single = ShardedExecutor(SCHEMA, NAMES, num_shards=1, strategy=strategy)
    single.run(events_1)
    reference = MultiSet(single.output_lineages())
    for num_shards in (2, 4):
        ex = ShardedExecutor(SCHEMA, NAMES, num_shards=num_shards, strategy=strategy)
        ex.run(build_events("uniform", True, num_shards))
        assert MultiSet(ex.output_lineages()) == reference, (
            f"{strategy} with {num_shards} shards diverged from single-engine"
        )


# ---------------------------------------------------------------------------
# Fluid-rebalancing rows: strategy x granularity x completion mode x shape.
#
# Every strategy must survive a *fluid* plan — the rebalance decomposed
# into batches interleaved with arrivals — at every granularity (per-key,
# batch-of-4, all-at-once), with each batch completed lazily or eagerly,
# across three plan shapes: a stay-at-N hotspot fix, a 2->4 scale-out and
# a 4->2 scale-in, both mid-stream via ResizeEvent.  Fluid rebalancing,
# like everything else in this matrix, must be invisible in the output.

FLUID_STRATEGIES = STRATEGIES + ("static",)

#: shape -> (initial shard count, initial assignment, mid-stream event factory)
FLUID_SHAPES = {
    "stay": (
        2,
        skewed_assignment(64, 0),
        lambda mode, bk: RebalanceEvent(balanced_assignment(64, 2), mode, batch_keys=bk),
    ),
    "grow": (2, None, lambda mode, bk: ResizeEvent(4, mode, batch_keys=bk)),
    "shrink": (4, None, lambda mode, bk: ResizeEvent(2, mode, batch_keys=bk)),
}


@pytest.mark.parametrize("shape", sorted(FLUID_SHAPES))
@pytest.mark.parametrize("mode", ["lazy", "eager"])
@pytest.mark.parametrize("batch_keys", [1, 4, 0], ids=["per-key", "batch-of-4", "all"])
@pytest.mark.parametrize("strategy", FLUID_STRATEGIES)
def test_fluid_rebalance_matches_oracle(strategy, batch_keys, mode, shape):
    expected = oracle_multiset("uniform")
    num_shards, assignment, make_event = FLUID_SHAPES[shape]
    events = list(WORKLOADS["uniform"])
    events.insert(75, make_event(mode, batch_keys))
    ex = ShardedExecutor(
        SCHEMA, NAMES, num_shards=num_shards, strategy=strategy, assignment=assignment
    )
    ex.run(events)
    ex.drain_rebalance()  # a lazy tail batch may still be pending at EOS
    lineages = ex.output_lineages()
    got = MultiSet(tuple(sorted(lineage)) for lineage in lineages)
    assert got == expected, (
        f"{strategy}/{shape}/{mode}/batch_keys={batch_keys}: "
        f"missing={dict(list((expected - got).items())[:3])} "
        f"spurious={dict(list((got - expected).items())[:3])}"
    )
    assert set(got) == set(expected)
    assert len(lineages) == len(set(lineages))


# ---------------------------------------------------------------------------
# Adaptive-mode rows: strategy x drift workload x {single-engine, 2-shard}.
#
# No schedule is supplied: the AdaptiveEngine must discover the drift from
# its own telemetry and fire a JISC migration by itself — and the output
# must STILL be exactly the oracle's.  Adaptivity, like sharding and
# migration, must be invisible in the output.

# Two drift workloads: the selective stream moves B->C (initial order
# (A,B,C) starts optimal, degrades) and C->B (starts suboptimal, so the
# trigger fires early, then fires back after the flip).
DRIFT_WORKLOADS = {
    "drift_bc": SelectivityDriftWorkload(
        NAMES, [(140, "B"), (280, "C")], base_domain=6, scatter=24, seed=201
    ),
    "drift_cb": SelectivityDriftWorkload(
        NAMES, [(140, "C"), (280, "B")], base_domain=6, scatter=24, seed=202
    ),
}

#: Estimator extents sized to the 420-tuple workloads (windows must be
#: much shorter than a phase, or the phases' evidence blends).
ADAPTIVE_HUB_OPTIONS = {
    "selectivity_window": 96,
    "drift_block": 16,
    "drift_min_samples": 32,
}

_DRIFT_ORACLE_CACHE = {}


def drift_oracle_multiset(workload_name):
    if workload_name not in _DRIFT_ORACLE_CACHE:
        oracle = NaiveJoinOracle(SCHEMA, NAMES)
        for tup in DRIFT_WORKLOADS[workload_name].materialize():
            oracle.process(tup)
        _DRIFT_ORACLE_CACHE[workload_name] = MultiSet(oracle.output_lineages())
    return _DRIFT_ORACLE_CACHE[workload_name]


def adaptive_engine_over(target):
    return AdaptiveEngine(
        target,
        policy=HysteresisTrigger(min_improvement=0.08, confirm=2, cooldown=64),
        evaluate_every=16,
        min_samples=32,
        hub_options=ADAPTIVE_HUB_OPTIONS,
    )


@pytest.mark.parametrize("topology", ["single", "2shard"])
@pytest.mark.parametrize("workload_name", sorted(DRIFT_WORKLOADS))
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_adaptive_output_matches_oracle(strategy, workload_name, topology):
    expected = drift_oracle_multiset(workload_name)
    if topology == "single":
        target = make_strategy(strategy, SCHEMA, NAMES)
    else:
        target = ShardedExecutor(SCHEMA, NAMES, num_shards=2, strategy=strategy)
    engine = adaptive_engine_over(target)
    engine.run(DRIFT_WORKLOADS[workload_name].materialize())
    lineages = engine.output_lineages()
    got = MultiSet(tuple(sorted(lineage)) for lineage in lineages)
    assert got == expected, (
        f"{strategy}/{workload_name}/{topology}: "
        f"missing={dict(list((expected - got).items())[:3])} "
        f"spurious={dict(list((got - expected).items())[:3])}"
    )
    assert len(lineages) == len(set(lineages))
    # The loop actually closed: at least one self-triggered migration.
    assert engine.fire_count >= 1, (
        f"{strategy}/{workload_name}/{topology}: no adaptive migration fired "
        f"(decisions: {[(d.at, d.action, d.reason) for d in engine.decisions[-6:]]})"
    )
