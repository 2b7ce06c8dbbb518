"""Unit tests for the sharded coordinator, workers, and merge layer."""

import random
from collections import Counter as MultiSet

import pytest

from repro.engine.cost import VirtualClock
from repro.engine.executor import TransitionEvent
from repro.engine.metrics import Counter, Metrics
from repro.migration.base import StaticPlanExecutor
from repro.obs.tracer import (
    EVENT_REBALANCE_END,
    EVENT_REBALANCE_START,
    EVENT_SHARD_MOVE,
    RecordingTracer,
)
from repro.plans.spec import left_deep
from repro.shard import (
    RebalanceEvent,
    ShardMerger,
    ShardedExecutor,
    balanced_assignment,
    driven_schema,
    make_strategy,
    skewed_assignment,
)
from repro.shard.worker import STRATEGY_NAMES
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple

NAMES = ("A", "B", "C")


def workload(n=200, n_keys=10, window=16, seed=9):
    rng = random.Random(seed)
    schema = Schema.uniform(NAMES, window)
    seqs = {name: 0 for name in NAMES}
    tuples = []
    for _ in range(n):
        stream = rng.choice(NAMES)
        tuples.append(StreamTuple(stream, seqs[stream], rng.randrange(n_keys)))
        seqs[stream] += 1
    return schema, tuples


# -- worker-side schema and factory --------------------------------------------


@pytest.mark.parametrize("kind", ["count", "time"])
def test_driven_schema_preserves_names_and_extents(kind):
    """The worker-side schema keeps what the query says and changes who
    enforces it: no extent "no run can reach", no window object built."""
    schema = Schema.uniform(NAMES, 7, window_kind=kind)
    driven = driven_schema(schema)
    assert driven.names == schema.names
    for d in driven.streams:
        assert d.window == 7
        assert d.window_kind == "driven"
    assert driven.key == schema.key
    for name in STRATEGY_NAMES:
        engine = make_strategy(name, driven, NAMES)
        leaves = engine.stems if name == "cacq" else engine.plan.scans
        assert [leaf.window for leaf in leaves.values()] == [None] * len(NAMES)


def test_make_strategy_rejects_unknown_name():
    schema = Schema.uniform(NAMES, 8)
    with pytest.raises(ValueError, match="unknown strategy"):
        make_strategy("megaphone", schema, NAMES)


def test_executor_rejects_bad_mode_and_strategy():
    schema = Schema.uniform(NAMES, 8)
    with pytest.raises(ValueError):
        ShardedExecutor(schema, NAMES, rebalance_mode="hopeful")
    with pytest.raises(ValueError):
        ShardedExecutor(schema, NAMES, strategy="megaphone")


# -- single-shard degeneracy ---------------------------------------------------


def test_single_shard_matches_unsharded_engine():
    """With one shard the layer must be a pure pass-through."""
    schema, tuples = workload()
    ref = StaticPlanExecutor(schema, NAMES)
    for tup in tuples:
        ref.process(tup)
    sharded = ShardedExecutor(schema, NAMES, num_shards=1, strategy="static")
    sharded.process_batch(tuples)
    assert MultiSet(sharded.output_lineages()) == MultiSet(ref.output_lineages())
    assert sharded.merged_counts() == ref.metrics.counts


# -- deterministic merge -------------------------------------------------------


def test_merge_order_is_independent_of_collection_schedule():
    schema, tuples = workload()
    eager_collect = ShardedExecutor(schema, NAMES, num_shards=2, strategy="static")
    lazy_collect = ShardedExecutor(schema, NAMES, num_shards=2, strategy="static")
    for i, tup in enumerate(tuples):
        eager_collect.process(tup)
        lazy_collect.process(tup)
        if i % 7 == 0:
            eager_collect.outputs  # force frequent collection on one side
    a = [(rec.time, rec.shard, rec.index) for rec in eager_collect.merged_records()]
    b = [(rec.time, rec.shard, rec.index) for rec in lazy_collect.merged_records()]
    assert a == b
    assert a == sorted(a)


def test_merger_delivers_each_output_exactly_once():
    class FakeWorker:
        def __init__(self, shard_id, outputs, output_times):
            self.shard_id = shard_id
            self.outputs = outputs
            self.output_times = output_times

    merger = ShardMerger()
    w = FakeWorker(0, ["x"], [1.0])
    assert merger.collect([w]) == 1
    assert merger.collect([w]) == 0
    w.outputs.append("y")
    w.output_times.append(2.0)
    assert merger.collect([w]) == 1
    assert merger.outputs() == ["x", "y"]
    assert [rec.tup for rec in merger.merged()] == ["x", "y"]
    assert merger.cursor_of(0) == 2


# -- time, latency and accounting ---------------------------------------------


def test_latency_and_accounting_are_sane():
    schema, tuples = workload()
    ex = ShardedExecutor(schema, NAMES, num_shards=2, inter_arrival=1.0)
    ex.process_batch(tuples)
    latencies = ex.output_latencies()
    assert len(latencies) == len(ex.outputs)
    assert all(lat >= 0.0 for lat in latencies)
    assert ex.max_output_latency() == max(latencies)
    counts = ex.merged_counts()
    assert counts[Counter.OUTPUT] == len(ex.outputs)
    assert ex.total_work() == sum(counts.values())  # unit cost model
    assert ex.makespan() > 0.0
    # per-worker clocks never lag external time at the last arrival
    assert ex.makespan() >= float(len(tuples) - 1)


# -- event-driven runs ---------------------------------------------------------


def test_run_handles_transitions_and_rebalances():
    schema, tuples = workload()
    ref = ShardedExecutor(schema, NAMES, num_shards=2, strategy="jisc")
    ref.process_batch(tuples)
    events = list(tuples)
    events.insert(140, RebalanceEvent(balanced_assignment(64, 2), "lazy"))
    events.insert(100, TransitionEvent(left_deep(("C", "B", "A"))))
    events.insert(60, RebalanceEvent(skewed_assignment(64, 0), "eager"))
    ex = ShardedExecutor(schema, NAMES, num_shards=2, strategy="jisc")
    assert ex.run(events) is ex
    assert MultiSet(ex.output_lineages()) == MultiSet(ref.output_lineages())
    assert ex.rebalances == 2


# -- ownership during a lazy session -------------------------------------------


def test_state_owner_tracks_pending_keys():
    schema, tuples = workload(n_keys=6)
    ex = ShardedExecutor(schema, NAMES, num_shards=2, inter_arrival=1.0)
    ex.process_batch(tuples[:120])
    before = {key: ex.state_owner(key) for key in ex.pending_keys() or range(6)}
    session = ex.rebalance(skewed_assignment(64, 1), "lazy")
    pending = ex.pending_keys()
    assert pending  # the workload keeps several keys live
    for key in pending:
        # routing already points at the destination...
        assert ex.partitioner.shard_of(key) == 1
        # ...but the state is still where it was
        assert ex.state_owner(key) == session.route_of(key)[0] == before[key]
    ex.process_batch(tuples[120:])
    assert not ex.pending_keys()
    for key in pending:
        assert ex.state_owner(key) == 1


def test_rebalance_with_no_live_keys_completes_immediately():
    schema = Schema.uniform(NAMES, 8)
    ex = ShardedExecutor(schema, NAMES, num_shards=2)
    session = ex.rebalance(skewed_assignment(64, 0), "lazy")
    assert session.complete
    assert ex.session is None
    assert ex.moves == []


# -- tracing -------------------------------------------------------------------


def test_tracer_records_rebalance_events():
    schema, tuples = workload()
    clock = VirtualClock(None)
    tracer = RecordingTracer(clock=clock)
    ex = ShardedExecutor(
        schema,
        NAMES,
        num_shards=2,
        inter_arrival=1.0,
        metrics=Metrics(clock=clock, tracer=tracer),
    )
    ex.process_batch(tuples[:100])
    ex.rebalance(skewed_assignment(64, 0), "lazy")
    ex.process_batch(tuples[100:])
    trace = tracer.as_trace()
    starts = trace.of_kind(EVENT_REBALANCE_START)
    ends = trace.of_kind(EVENT_REBALANCE_END)
    moves = trace.of_kind(EVENT_SHARD_MOVE)
    assert len(starts) == 1 and starts[0].data["mode"] == "lazy"
    assert len(ends) == 1
    assert len(moves) == len(ex.moves) > 0
    settled = [ev for ev in moves if not ev.data.get("retired")]
    assert all(ev.data["tuples"] > 0 for ev in settled)
    # lazy completion: the session drains strictly after the trigger
    assert ends[0].ts > starts[0].ts
