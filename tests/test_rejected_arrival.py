"""A rejected arrival leaves the engine as if it never arrived.

Every door — the six strategies, the sharded coordinator and the recovery
manager — rejects a tuple of an unknown stream (``ValueError``) or with an
unhashable key (``TypeError``) before it touches the window, the arrival
sequence, the tracer, the write-ahead log or the crash index.  So a run that
met a rejected tuple is, afterwards, the run that never saw it.
"""

import pytest

from repro.faults.plan import CrashFault, FaultInjector, FaultPlan
from repro.faults.recovery import RecoveryManager
from repro.obs.tracer import RecordingTracer
from repro.shard.executor import ShardedExecutor
from repro.shard.worker import STRATEGY_NAMES, make_strategy
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple

NAMES = ("R", "S", "T")
SCHEMA = Schema.uniform(NAMES, 3)
ROUNDS = 40
BAD_AFTER = 10  # the rejected tuple comes after this round

BAD = {
    "unhashable_key": (lambda seq: StreamTuple("R", seq, [1]), TypeError),
    "unknown_stream": (lambda seq: StreamTuple("X", seq, 1), ValueError),
}


def arrivals(bad):
    """40 rounds of R, S, T with key ``round % 5``; ``bad(seq)`` after round 10."""
    seq = 0
    out = []
    for i in range(ROUNDS):
        for stream in NAMES:
            out.append(StreamTuple(stream, seq, i % 5))
            seq += 1
        if i == BAD_AFTER:
            out.append(bad(seq))
            seq += 1
    return out


def strategy_door(name):
    def build():
        engine = make_strategy(name, SCHEMA, NAMES)
        RecordingTracer().attach(engine)
        return engine

    def observed(engine):
        return (
            engine.output_lineages(),
            list(engine.output_times),
            dict(engine.metrics.counts),
            engine.metrics.clock.now,
            engine.state_sizes(),
            engine.metrics.tracer.to_jsonl(),
        )

    return build, observed


def sharded_door():
    def observed(ex):
        counts = dict(ex.metrics.counts)
        ex.crash_and_recover(0)  # replays shard 0's journal from t = 0
        return ex.output_lineages(), ex.output_latencies(), counts, ex.state_sizes()

    return (lambda: ShardedExecutor(SCHEMA, NAMES, num_shards=2)), observed


def recovery_door():
    def build():
        # No checkpoints: the crash after the rejected tuple replays the whole
        # log, so an arrival the log took would fail the recovery.
        plan = FaultPlan(crashes=(CrashFault(3 * ROUNDS - 20),))
        return RecoveryManager(
            lambda: make_strategy("jisc", SCHEMA, NAMES),
            checkpoint_every=0,
            injector=FaultInjector(plan),
        )

    def observed(manager):
        assert manager.recoveries == 1
        return (
            manager.delivered,
            manager._arrivals_consumed,
            len(manager.store.log()),
            manager._live_strategy().state_sizes(),
        )

    return build, observed


DOORS = {name: strategy_door(name) for name in STRATEGY_NAMES}
DOORS["sharded"] = sharded_door()
DOORS["recovery"] = recovery_door()


@pytest.mark.parametrize("bad_kind", sorted(BAD))
@pytest.mark.parametrize("door", list(DOORS))
def test_rejected_arrival_leaves_no_trace(door, bad_kind):
    build, observed = DOORS[door]
    make_bad, error = BAD[bad_kind]
    events = arrivals(make_bad)
    bad = events[3 * (BAD_AFTER + 1)]
    reference = build()
    for tup in events:
        if tup is not bad:
            reference.process(tup)
    engine = build()
    for tup in events:
        if tup is bad:
            with pytest.raises(error):
                engine.process(tup)
        else:
            engine.process(tup)
    assert observed(engine) == observed(reference)
