"""A rejected arrival leaves the engine as if it never arrived.

Every door — the six strategies, the sharded coordinator, the recovery
manager and the adaptive loop over JISC or over a coordinator — rejects a
tuple of an unknown stream (``ValueError``) or with an unhashable key
(``TypeError``) before it touches the window, the arrival sequence, the
tracer, the write-ahead log, the crash index or the evaluation cadence.  So
a run that met a rejected tuple is, afterwards, the run that never saw it —
whether the tuple came alone or inside a ``process_batch`` run, whose
arrivals before it are taken and whose rest the caller feeds again.
"""

import pytest

from repro.faults.plan import CrashFault, FaultInjector, FaultPlan
from repro.faults.recovery import RecoveryManager
from repro.obs.tracer import RecordingTracer
from repro.optimizer.adaptive import AdaptiveEngine
from repro.shard.executor import ShardedExecutor
from repro.shard.worker import STRATEGY_NAMES, make_strategy
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from tests.helpers import RotatingTrigger

pytestmark = pytest.mark.hashseed

NAMES = ("R", "S", "T")
SCHEMA = Schema.uniform(NAMES, 3)
ROUNDS = 40
BAD_AFTER = 10  # the rejected tuple comes after this round
RUN = 5  # fed as runs, the rejected tuple is the fourth of its run

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


def adaptive_door(sharded):
    def build():
        if sharded:
            target = ShardedExecutor(SCHEMA, NAMES, num_shards=2)
        else:
            target = make_strategy("jisc", SCHEMA, NAMES)
        # An evaluation every 8 arrivals, a migration every second one: the
        # rejected tuple (after 33 arrivals) comes right after the fourth.
        return AdaptiveEngine(target, policy=RotatingTrigger(), evaluate_every=8)

    def observed(engine):
        target = engine.target
        assert len(engine.migrations) == 7
        return (
            engine.output_lineages(),
            engine.arrivals,
            engine.decisions,
            engine.migrations,
            engine.last_snapshot(),
            dict(target.metrics.counts),
            target.state_sizes(),
        )

    return build, observed


DOORS = {name: strategy_door(name) for name in STRATEGY_NAMES}
DOORS["sharded"] = sharded_door()
DOORS["recovery"] = recovery_door()
DOORS["adaptive"] = adaptive_door(sharded=False)
DOORS["adaptive-sharded"] = adaptive_door(sharded=True)


def assert_as_if_never_arrived(door, bad_kind, feed):
    """``feed(engine, events, bad, error)`` leaves the door's engine equal to
    the reference that never saw the rejected tuple ``bad``."""
    build, observed = DOORS[door]
    make_bad, error = BAD[bad_kind]
    events = arrivals(make_bad)
    bad = events[3 * (BAD_AFTER + 1)]
    reference = build()
    for tup in events:
        if tup is not bad:
            reference.process(tup)
    engine = build()
    feed(engine, events, bad, error)
    assert observed(engine) == observed(reference)


@pytest.mark.parametrize("bad_kind", sorted(BAD))
@pytest.mark.parametrize("door", list(DOORS))
def test_rejected_arrival_leaves_no_trace(door, bad_kind):
    def one_by_one(engine, events, bad, error):
        for tup in events:
            if tup is bad:
                with pytest.raises(error):
                    engine.process(tup)
            else:
                engine.process(tup)

    assert_as_if_never_arrived(door, bad_kind, one_by_one)


@pytest.mark.parametrize("bad_kind", sorted(BAD))
@pytest.mark.parametrize("door", list(DOORS))
def test_a_run_takes_the_arrivals_before_its_rejected_tuple(door, bad_kind):
    """Fed as ``process_batch`` runs of ``RUN``, the run holding the rejected
    tuple raises having taken the arrivals before it; the caller feeds the
    arrivals after it as the next run."""

    def in_runs(engine, events, bad, error):
        assert events.index(bad) % RUN == 3
        for start in range(0, len(events), RUN):
            run = events[start : start + RUN]
            if bad in run:
                with pytest.raises(error):
                    engine.process_batch(run)
                run = run[run.index(bad) + 1 :]
            engine.process_batch(run)

    assert_as_if_never_arrived(door, bad_kind, in_runs)
