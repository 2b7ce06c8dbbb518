"""The shard coordinator's arrival path: what it must leave behind (nothing
that a full garbage collection walks), what it must not recompute (the hash
of a live key), and that it still is the same arrival path — same journal,
same merge order, same recovery — however it is driven.
"""

import gc
import random
from collections import Counter as MultiSet

import pytest

import repro.shard.partition as partition
from repro.engine.cost import VirtualClock
from repro.engine.executor import TransitionEvent, run_events
from repro.engine.metrics import Metrics
from repro.migration.jisc import JISCStrategy
from repro.obs.tracer import EVENT_REBALANCE_END, RecordingTracer
from repro.shard import (
    RebalanceEvent,
    ShardedExecutor,
    ShardWorker,
    balanced_assignment,
    make_strategy,
    skewed_assignment,
)
from repro.shard.worker import STRATEGY_NAMES
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.streams.window import SlidingWindow, TimeSlidingWindow

NAMES = ("A", "B", "C")


def workload(n=240, n_keys=8, window=16, seed=21, seq_base=0):
    rng = random.Random(seed)
    schema = Schema.uniform(NAMES, window)
    seqs = {name: seq_base for name in NAMES}
    tuples = []
    for _ in range(n):
        stream = rng.choice(NAMES)
        tuples.append(StreamTuple(stream, seqs[stream], rng.randrange(n_keys)))
        seqs[stream] += 1
    return schema, tuples


def journal(ex):
    """Every shard's command log, column by column."""
    return [
        (list(log.kinds), list(log.payloads), list(log.times)) for log in ex._logs
    ]


# -- bad input fails before touching state -----------------------------------------


def observable_state(ex):
    return (
        ex._arrivals,
        [ex.log_length(s) for s in range(ex.num_shards)],
        ex.live_tuples(),
        dict(ex._live_by_key),
        ex.output_latencies(),
    )


def test_unknown_stream_is_rejected_before_any_state_changes():
    schema = Schema.uniform(NAMES, 4)
    ex = ShardedExecutor(schema, NAMES, num_shards=2, inter_arrival=1.0)
    twin = ShardedExecutor(schema, NAMES, num_shards=2, inter_arrival=1.0)
    ex.process(StreamTuple("A", 0, 7))
    twin.process(StreamTuple("A", 0, 7))
    before = observable_state(ex)
    with pytest.raises(ValueError, match="unknown stream 'Z'"):
        ex.process(StreamTuple("Z", 0, 7))
    assert observable_state(ex) == before
    # a bad tuple inside a run stops the run there, with the same guarantee
    with pytest.raises(ValueError, match="unknown stream 'Z'"):
        ex.process_batch([StreamTuple("B", 0, 7), StreamTuple("Z", 1, 7), StreamTuple("C", 0, 7)])
    twin.process(StreamTuple("B", 0, 7))
    assert observable_state(ex) == observable_state(twin)
    # ... so later arrivals keep their external time and their latency
    ex.process(StreamTuple("C", 0, 7))
    twin.process(StreamTuple("C", 0, 7))
    assert ex._arrivals == 3
    assert len(ex.outputs) == 1
    assert ex.output_latencies() == twin.output_latencies()


# -- rebalance_end reports its own session -----------------------------------------


def traced_executor(schema, **options):
    clock = VirtualClock(None)
    tracer = RecordingTracer(clock=clock)
    ex = ShardedExecutor(
        schema, NAMES, num_shards=2, metrics=Metrics(clock=clock, tracer=tracer), **options
    )
    return ex, tracer


#: The all-at-once call, and the fluid call at two granularities.
PLAN_CALLS = {
    "rebalance": lambda ex, target: ex.rebalance(target, "eager"),
    "fluid-all": lambda ex, target: ex.fluid_rebalance(target, "eager", batch_keys=0),
    "fluid-per-key": lambda ex, target: ex.fluid_rebalance(target, "eager", batch_keys=1),
}


def check_rebalance_end_counts_settled_keys(call):
    schema = Schema.uniform(NAMES, 8)
    ex, tracer = traced_executor(schema, assignment=skewed_assignment(64, 0))
    for seq, key in enumerate((1, 2, 3)):
        ex.process(StreamTuple("A", seq, key))
    PLAN_CALLS[call](ex, skewed_assignment(64, 1))
    ex.drain_rebalance()
    PLAN_CALLS[call](ex, skewed_assignment(64, 0))
    ex.drain_rebalance()
    ends = tracer.as_trace().of_kind(EVENT_REBALANCE_END)
    assert [(ev.data["keys"], ev.data["settled"]) for ev in ends] == [(3, 3), (3, 3)]
    # one event shape, whichever call started the plan
    batches = 3 if call == "fluid-per-key" else 1
    assert [(ev.data["batches"], ev.data["batch_keys"]) for ev in ends] == [
        (batches, batches // 3)
    ] * 2


def test_rebalance_end_counts_settled_keys_per_session():
    check_rebalance_end_counts_settled_keys("rebalance")


@pytest.mark.parametrize("call", ["fluid-all", "fluid-per-key"])
def test_fluid_rebalance_end_counts_settled_keys_the_same_way(call):
    check_rebalance_end_counts_settled_keys(call)


def test_rebalance_end_excludes_retired_keys_from_settled():
    schema = Schema.uniform(NAMES, 2)
    ex, tracer = traced_executor(schema, assignment=skewed_assignment(64, 0))
    ex.process(StreamTuple("A", 0, 1))
    ex.process(StreamTuple("A", 1, 2))
    ex.rebalance(skewed_assignment(64, 1), "lazy")
    ex.process(StreamTuple("A", 2, 2))  # key 2 settles just in time; A#0 (key 1) expires
    (end,) = tracer.as_trace().of_kind(EVENT_REBALANCE_END)
    assert (end.data["keys"], end.data["settled"]) == (2, 1)
    assert [m.retired for m in ex.moves] == [True, False]


# -- a bad rebalance call fails before touching state ---------------------------------

BAD_PLAN_CALLS = {
    "rebalance-mode": lambda ex: ex.rebalance(skewed_assignment(64, 0), "bogus"),
    "fluid-mode": lambda ex: ex.fluid_rebalance(skewed_assignment(64, 0), "bogus"),
    "resize-mode": lambda ex: ex.resize(4, "bogus"),
    "fluid-batch-keys": lambda ex: ex.fluid_rebalance(skewed_assignment(64, 0), batch_keys=-3),
    "resize-batch-keys": lambda ex: ex.resize(4, batch_keys=-1),
    "rebalance-assignment": lambda ex: ex.rebalance({0: 9}),
}


@pytest.mark.parametrize("call", sorted(BAD_PLAN_CALLS))
def test_bad_rebalance_call_fails_before_touching_state(call):
    """Mode, granularity and assignment are checked before the first
    mutation — including the force-drain of the lazy plan that is still
    pending here — and the run stays oracle-equal afterwards."""
    from repro.testing.naive import NaiveJoinOracle

    schema, tuples = workload()
    oracle = NaiveJoinOracle(schema, NAMES)
    for tup in tuples:
        oracle.process(tup)
    ex, tracer = traced_executor(schema)
    ex.process_batch(tuples[:100])
    pending = ex.rebalance(skewed_assignment(64, 1), "lazy")
    assert not pending.complete

    def plan_state():
        return (
            ex.partitioner.snapshot(),
            ex.num_shards,
            len(ex.workers),
            ex.rebalances,
            ex.session,
            ex.pending_keys(),
            journal(ex),
            len(ex.moves),
            len(tracer.events),
        )

    before = plan_state()
    with pytest.raises(ValueError):
        BAD_PLAN_CALLS[call](ex)
    assert plan_state() == before
    assert ex.session is pending
    ex.process_batch(tuples[100:])
    ex.drain_rebalance()
    got = MultiSet(tuple(sorted(lineage)) for lineage in ex.output_lineages())
    assert got == MultiSet(oracle.output_lineages())


def test_rebalance_event_rejects_a_negative_granularity():
    with pytest.raises(ValueError, match="batch_keys"):
        RebalanceEvent(skewed_assignment(64, 0), batch_keys=-1)
    assert RebalanceEvent(skewed_assignment(64, 0)).batch_keys == 0  # all-at-once


# -- nothing long-lived per arrival --------------------------------------------------


def tracked_growth(engine, drive, tuples):
    """GC-tracked objects a whole pass leaves behind (outputs read, as a
    benchmark pass does)."""
    gc.collect()
    gc.collect()  # nested all-atomic tuples untrack over two collections
    before = len(gc.get_objects())
    drive(tuples)
    retained = len(engine.outputs)
    gc.collect()
    gc.collect()
    return len(gc.get_objects()) - before, retained


def test_sharded_pass_leaves_no_more_tracked_objects_than_one_engine():
    """The journal and the merged sink cost no object per entry: a 4-shard
    pass may retain at most 1.15x the GC-tracked objects of the single
    engine on an equivalent stream (same streams and keys; disjoint seq
    ranges, because the lineage interner is process-wide)."""
    n = 4000
    schema, single_tuples = workload(n, n_keys=16, window=32, seed=5, seq_base=10_000_000)
    _, sharded_tuples = workload(n, n_keys=16, window=32, seed=5, seq_base=20_000_000)
    single = JISCStrategy(schema, NAMES)
    single_growth, single_outputs = tracked_growth(
        single, lambda tuples: run_events(single, tuples), single_tuples
    )
    sharded = ShardedExecutor(schema, NAMES, num_shards=4, strategy="jisc")
    sharded_growth, sharded_outputs = tracked_growth(sharded, sharded.run, sharded_tuples)
    assert sharded_outputs == single_outputs > n
    assert sum(sharded.log_length(s) for s in range(4)) > n  # the journal is there
    assert sharded_growth <= 1.15 * single_growth, (sharded_growth, single_growth)


# -- the routing memo ------------------------------------------------------------------


def assert_memo_is_exact(ex):
    assert list(ex._live_bucket) == list(ex._live_by_key)
    # the memo read the other way is what filtering it per bucket gave — in that
    # order, which is the order a batch's routes, moves and trace events come out in
    by_bucket = {}
    for key, bucket in ex._live_bucket.items():
        by_bucket.setdefault(bucket, []).append(key)
    assert {b: list(keys) for b, keys in ex._bucket_keys.items() if keys} == by_bucket
    assert sorted(ex._bucket_keys) == list(range(ex.partitioner.num_buckets))
    for key, bucket in ex._live_bucket.items():
        assert bucket == ex.partitioner.bucket_of(key)
        if ex.session is None or not ex.session.is_pending(key):
            assert ex.state_owner(key) == ex.partitioner.shard_of(key)
        else:
            assert ex.state_owner(key) == ex.session.route_of(key)[0]


@pytest.mark.parametrize("mode", ["lazy", "eager"])
def test_routing_memo_follows_mid_plan_assignment_flips(mode):
    """The memo stores buckets, so each batch's table flip is seen at once:
    at every arrival inside a per-key plan the memoised owner of every live
    key is what a fresh hash would say (or the pre-rebalance owner while
    the key is pending), and outputs match the plan-free run."""
    schema, tuples = workload()
    ex = ShardedExecutor(
        schema, NAMES, num_shards=4, rebalance_mode=mode, assignment=skewed_assignment(64, 0)
    )
    flips = set()
    for i, tup in enumerate(tuples):
        if i == 100:
            ex.fluid_rebalance(balanced_assignment(64, 4), batch_keys=1)
        ex.process(tup)
        assert_memo_is_exact(ex)
        flips.add(tuple(sorted(ex.partitioner.assignment.items())))
    assert len(flips) > 2  # the table really did change batch by batch
    assert ex.partitioner.assignment == balanced_assignment(64, 4)
    plain = ShardedExecutor(schema, NAMES, num_shards=4)
    plain.process_batch(tuples)
    assert MultiSet(ex.output_lineages()) == MultiSet(plain.output_lineages())


def test_routing_memo_is_bounded_by_live_keys_and_hashes_once_per_liveness(monkeypatch):
    hashed = []
    real = partition.stable_hash

    def counting(key):
        hashed.append(key)
        return real(key)

    monkeypatch.setattr(partition, "stable_hash", counting)
    schema = Schema.uniform(NAMES, 4)
    ex = ShardedExecutor(schema, NAMES, num_shards=4)
    # 30 keys pass through a 4-tuple window; then two keys alternate forever
    early = [StreamTuple("A", seq, 100 + seq) for seq in range(30)]
    late = [StreamTuple("A", 30 + i, i % 2) for i in range(200)]
    ex.process_batch(early)
    assert len(ex._live_bucket) == len(ex._live_by_key) == 4
    ex.process_batch(late)
    assert sorted(ex._live_bucket) == sorted(ex._live_by_key) == [0, 1]
    # one hash per liveness start: 30 one-shot keys, then keys 0 and 1 once
    # each — none for the 198 arrivals and ~230 evictions of live keys
    assert hashed == [t.key for t in early] + [0, 1]


# -- head-first discard ------------------------------------------------------------------


@pytest.mark.parametrize(
    "make", [lambda: SlidingWindow(8), lambda: TimeSlidingWindow(100)], ids=["count", "time"]
)
def test_discard_head_identity_equal_middle_and_absent(make):
    window = make()
    tuples = [StreamTuple("A", seq, seq) for seq in range(5)]
    for tup in tuples:
        window.push_all(tup)
    # the head, as the very object that was pushed
    assert window.discard(tuples[0])
    assert window.snapshot() == tuples[1:]
    # the head, as an equal tuple that is a different object
    assert window.discard(StreamTuple("A", 1, 1))
    assert window.snapshot() == tuples[2:]
    # from the middle, by identity and by equality
    assert window.discard(tuples[3])
    assert window.snapshot() == [tuples[2], tuples[4]]
    assert window.discard(StreamTuple("A", 4, 4))
    assert window.snapshot() == [tuples[2]]
    # absent: already gone, never there, and from an empty window
    assert not window.discard(tuples[0])
    assert not window.discard(StreamTuple("B", 2, 2))
    assert window.discard(tuples[2])
    assert not window.discard(tuples[2])
    assert len(window) == 0


# -- merge order -----------------------------------------------------------------------


def respawn_run(tuples, schema, collect_every=None, inter_arrival=0.0):
    """4 -> 2 -> 4 shards: slots 2 and 3 are retired and re-spawned, so their
    merge cursors restart and ``(shard, index)`` pairs repeat."""
    ex = ShardedExecutor(schema, NAMES, num_shards=4, inter_arrival=inter_arrival)
    for i, tup in enumerate(tuples):
        if i == 80:
            ex.resize(2, "eager", batch_keys=0)
        if i == 160:
            ex.resize(4, "eager", batch_keys=0)
        ex.process(tup)
        if collect_every and i % collect_every == 0:
            ex.outputs
    return ex


@pytest.mark.parametrize("inter_arrival", [0.0, 3.0])
def test_merged_order_is_the_sorted_key_even_across_a_respawn(inter_arrival):
    schema, tuples = workload()
    ex = respawn_run(tuples, schema, inter_arrival=inter_arrival)
    records = ex.merged_records()
    keys = [(rec.time, rec.shard, rec.index) for rec in records]
    assert keys == sorted(keys)
    assert len({(shard, index) for _, shard, index in keys}) < len(keys)  # cursors restarted
    assert ex.outputs == [rec.tup for rec in records]
    assert ex.output_lineages() == [rec.lineage for rec in records]
    # the order does not depend on when the coordinator collected
    often = respawn_run(tuples, schema, collect_every=7, inter_arrival=inter_arrival)
    assert [(r.time, r.shard, r.index, r.lineage) for r in often.merged_records()] == [
        (r.time, r.shard, r.index, r.lineage) for r in records
    ]
    plain = ShardedExecutor(schema, NAMES, num_shards=4)
    plain.process_batch(tuples)
    assert MultiSet(ex.output_lineages()) == MultiSet(plain.output_lineages())


# -- one arrival path, however it is driven ------------------------------------------------


def test_process_process_batch_and_run_write_the_same_journal():
    schema, tuples = workload()
    spec = ("C", "A", "B")
    target = balanced_assignment(64, 3)

    def fresh():
        return ShardedExecutor(
            schema, NAMES, num_shards=3, inter_arrival=2.0, assignment=skewed_assignment(64, 0)
        )

    per_tuple, batched, driven = fresh(), fresh(), fresh()
    for ex, feed in ((per_tuple, None), (batched, "batch")):
        for lo, hi in ((0, 90), (90, 150), (150, len(tuples))):
            if lo == 90:
                ex.transition(spec)
            if lo == 150:
                ex.fluid_rebalance(target, "lazy", batch_keys=2)
            if feed is None:
                for tup in tuples[lo:hi]:
                    ex.process(tup)
            else:
                ex.process_batch(tuples[lo:hi])
    events = list(tuples)
    events.insert(150, RebalanceEvent(target, "lazy", batch_keys=2))
    events.insert(90, TransitionEvent(spec))
    assert driven.run(events) is driven
    assert journal(per_tuple) == journal(batched) == journal(driven)
    assert per_tuple.output_lineages() == batched.output_lineages() == driven.output_lineages()
    assert per_tuple.output_latencies() == batched.output_latencies() == driven.output_latencies()
    with pytest.raises(TypeError, match="not a shard event"):
        driven.run([tuples[0], "flush"])


# -- recovery from the columnar journal --------------------------------------------------


@pytest.mark.parametrize("mode", ["lazy", "eager"])
def test_crash_and_recover_inside_a_fluid_batch_reads_the_columnar_log(mode):
    schema, tuples = workload()

    def run(crash):
        ex = ShardedExecutor(
            schema, NAMES, num_shards=4, inter_arrival=1.0, assignment=skewed_assignment(64, 0)
        )
        ex.process_batch(tuples[:100])
        ex.fluid_rebalance(balanced_assignment(64, 4), mode, batch_keys=1)
        ex.process_batch(tuples[100:103])
        if crash:
            assert ex.rebalance_in_progress
            for shard in range(4):
                held = ex.workers[shard].live_tuples()
                before = journal(ex)[shard]
                ex.crash_and_recover(shard)
                assert ex.workers[shard].live_tuples() == held
                assert journal(ex)[shard] == before  # replaying appends nothing
        ex.process_batch(tuples[103:])
        ex.drain_rebalance()
        return ex

    clean, crashed = run(False), run(True)
    assert journal(crashed) == journal(clean)
    assert crashed.output_lineages() == clean.output_lineages()
    assert crashed.output_latencies() == clean.output_latencies()
    for kinds, payloads, times in journal(crashed):
        assert len(kinds) == len(payloads) == len(times)
        assert times == sorted(times)
    kinds = {kind for log in crashed._logs for kind in log.kinds}
    assert kinds == {"feed", "evict", "extract", "install", "batch"}
    # the shard the plan drains saw every batch marker; markers rebuild nothing
    assert crashed._logs[0].kinds.count("batch") > 2


# -- where the windows live is the strategy's answer, not the worker's guess -----------------


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_worker_resolves_its_strategy_shape_at_construction(strategy):
    """One plan, one plan per track or per-stream SteMs: every shardable
    strategy implements ``evict`` / ``live_tuples`` itself, so the worker
    keeps no shape tag and probes no attribute (it used to, at construction)."""
    schema = Schema.uniform(NAMES, 8)
    engine = make_strategy(strategy, schema, NAMES)
    worker = ShardWorker(0, engine)
    # ... beyond the strategy's clock and its two doors, bound once
    assert ShardWorker.__slots__ == (
        "shard_id", "strategy", "metrics", "clock", "process_batch", "expire"
    )
    assert worker.clock is engine.metrics.clock
    assert (worker.process_batch, worker.expire) == (engine.process_batch, engine.evict)
    tup = StreamTuple("A", 0, 1)
    worker.feed(tup)
    assert worker.live_tuples() == engine.live_tuples()
    assert worker.live_tuples()["A"] == [tup]
    assert worker.evict(tup)
    assert not any(worker.live_tuples().values())
    assert not worker.evict(tup)
