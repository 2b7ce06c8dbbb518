"""Crash/recovery of individual shards, certified against the oracle.

A shard crash loses one worker's entire in-memory state; recovery must
rebuild it deterministically from the per-shard command log, and the
merged output must stay exactly-once — complete, closed, duplicate-free
— which :meth:`InvariantChecker.certify_sharded` checks against the
brute-force oracle plus the distributed-state invariants.
"""

import random
from collections import Counter as MultiSet

import pytest

from repro.engine.cost import VirtualClock
from repro.engine.metrics import Metrics
from repro.faults.invariants import InvariantChecker, InvariantViolation
from repro.obs.tracer import EVENT_FAULT, EVENT_RECOVERY, RecordingTracer
from repro.shard import ShardedExecutor, skewed_assignment
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple

NAMES = ("A", "B", "C")


def workload(n=200, n_keys=8, window=14, seed=31):
    rng = random.Random(seed)
    schema = Schema.uniform(NAMES, window)
    seqs = {name: 0 for name in NAMES}
    tuples = []
    for _ in range(n):
        stream = rng.choice(NAMES)
        tuples.append(StreamTuple(stream, seqs[stream], rng.randrange(n_keys)))
        seqs[stream] += 1
    return schema, tuples


def test_crashed_shard_blocks_feeding_until_recovered():
    schema, tuples = workload()
    ex = ShardedExecutor(schema, NAMES, num_shards=2)
    ex.process_batch(tuples[:50])
    ex.crash_shard(0)
    with pytest.raises(RuntimeError, match="crashed"):
        ex.process(tuples[50])
    with pytest.raises(RuntimeError, match="crashed"):
        ex.transition(("C", "B", "A"))
    with pytest.raises(RuntimeError, match="crashed"):
        ex.rebalance(skewed_assignment(64, 1))
    with pytest.raises(RuntimeError):
        ex.crash_shard(0)  # already down
    ex.recover_shard(0)
    with pytest.raises(RuntimeError, match="not crashed"):
        ex.recover_shard(0)
    ex.process(tuples[50])  # feeding works again


@pytest.mark.parametrize("strategy", ["jisc", "moving_state", "cacq", "parallel_track"])
def test_crash_recover_is_invisible_in_the_output(strategy):
    schema, tuples = workload()
    checker = InvariantChecker(schema, NAMES)
    ex = ShardedExecutor(schema, NAMES, num_shards=2, strategy=strategy)
    for i, tup in enumerate(tuples):
        ex.process(tup)
        if i == 60:
            ex.crash_and_recover(0)
        if i == 130:
            ex.crash_and_recover(1)
    report = checker.certify_sharded(ex, tuples, context=strategy)
    assert report.ok
    assert report.delivered_outputs == report.expected_outputs


def test_recovery_preserves_exactly_once_across_collections():
    """Outputs collected *before* the crash must not be re-delivered by
    the rebuilt worker, whose replay regenerates its whole output log."""
    schema, tuples = workload()
    ex = ShardedExecutor(schema, NAMES, num_shards=2)
    ex.process_batch(tuples[:100])
    collected_before = len(ex.outputs)  # advances the merge cursors
    log_len = ex.log_length(0)
    ex.crash_shard(0)
    ex.recover_shard(0)
    assert ex.log_length(0) == log_len  # recovery does not journal itself
    ex.process_batch(tuples[100:])
    lineages = ex.output_lineages()
    assert len(lineages) >= collected_before
    assert len(lineages) == len(set(lineages))  # duplicate-free
    checker = InvariantChecker(schema, NAMES)
    checker.certify_sharded(ex, tuples, context="mid-collection crash")


def test_crash_during_pending_lazy_rebalance():
    """Recovery must reproduce moved-in state: the log replays muted
    cross-shard moves exactly as they originally happened."""
    schema, tuples = workload(n=240)
    ex = ShardedExecutor(schema, NAMES, num_shards=2, inter_arrival=1.0)
    ex.process_batch(tuples[:120])
    ex.rebalance(skewed_assignment(64, 1), "lazy")
    ex.process_batch(tuples[120:140])  # some keys settled, some pending
    ex.crash_and_recover(1)
    if ex.pending_keys():
        ex.crash_and_recover(0)  # the src side of the pending moves too
    ex.process_batch(tuples[140:])
    checker = InvariantChecker(schema, NAMES)
    checker.certify_sharded(ex, tuples, context="crash during lazy session")


def test_crash_and_recovery_are_traced():
    schema, tuples = workload()
    clock = VirtualClock(None)
    tracer = RecordingTracer(clock=clock)
    ex = ShardedExecutor(
        schema, NAMES, num_shards=2, metrics=Metrics(clock=clock, tracer=tracer)
    )
    ex.process_batch(tuples[:80])
    ex.crash_and_recover(1)
    trace = tracer.as_trace()
    faults = trace.of_kind(EVENT_FAULT)
    recoveries = trace.of_kind(EVENT_RECOVERY)
    assert len(faults) == 1
    assert faults[0].data == {
        "fault": "shard_crash",
        "shard": 1,
        "log_entries": ex.log_length(1),
    }
    assert len(recoveries) == 1
    assert recoveries[0].data["what"] == "shard_rebuilt"
    assert recoveries[0].data["entries"] == ex.log_length(1)


def test_check_sharded_detects_lost_and_misplaced_state():
    schema, tuples = workload()
    checker = InvariantChecker(schema, NAMES)
    ex = ShardedExecutor(schema, NAMES, num_shards=2)
    ex.process_batch(tuples)
    assert checker.check_sharded(ex).ok
    # sabotage: silently drop a live tuple from its worker (whose scan state
    # is its window: the worker owns no other)
    victim = None
    for worker in ex.workers:
        for name, held in worker.live_tuples().items():
            if held:
                victim = (worker, held[0])
                break
        if victim:
            break
    worker, tup = victim
    assert worker.strategy.plan.scans[tup.stream].state.remove_entry(tup)
    report = checker.check_sharded(ex)
    assert not report.ok
    assert any("held by no worker" in v for v in report.violations)
    with pytest.raises(InvariantViolation):
        checker.certify_sharded(ex, tuples)


def test_check_sharded_flags_unrecovered_shard():
    schema, tuples = workload()
    checker = InvariantChecker(schema, NAMES)
    ex = ShardedExecutor(schema, NAMES, num_shards=2)
    ex.process_batch(tuples[:80])
    ex.crash_shard(0)
    report = checker.check_sharded(ex)
    assert not report.ok
    assert any("crashed shard" in v for v in report.violations)
