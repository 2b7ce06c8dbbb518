"""Shard workers own no window: a *driven* engine — its scans and SteMs build
no window object, their state is the window's contents and the caller evicts
through the ``evict`` door — is the windowed engine, event for event; and the
coordinator's arrival loop calls a worker's two doors directly.

The last section holds two counts that repeat exactly (ROADMAP item 8's kind):
what the second window used to cost on ``rebalance_churn``'s shape, and how many
Python-level calls an arrival makes on ``sharded_steady``'s.
"""

import json
import os
import random

import pytest

from repro.eddy.stem import SteM
from repro.engine.checkpoint import checkpoint_strategy, restore_strategy
from repro.engine.executor import TransitionEvent
from repro.engine.metrics import Metrics
from repro.migration.mjoin import MJoinExecutor
from repro.obs.tracer import PHASE_REBALANCING, PHASE_STEADY, RecordingTracer
from repro.operators.scan import StreamScan
from repro.perf.profile import DEQUE_REMOVE, SCENARIOS, count_calls
from repro.shard import ShardWorker, driven_schema, make_strategy
from repro.shard.worker import STRATEGY_NAMES
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.streams.window import SlidingWindow, TimeSlidingWindow, window_contents

pytestmark = pytest.mark.hashseed

NAMES = ("A", "B", "C")
SPECS = (("C", "A", "B"), ("B", "C", "A"))


def arrivals(n=260, n_keys=7, seed=3):
    rng = random.Random(seed)
    seqs = dict.fromkeys(NAMES, 0)
    tuples = []
    for _ in range(n):
        stream = rng.choice(NAMES)
        tuples.append(StreamTuple(stream, seqs[stream], rng.randrange(n_keys)))
        seqs[stream] += 1
    return tuples


def schedule(tuples, at=(90, 170)):
    """The arrivals with a forced transition before the ones at ``at``."""
    events = list(tuples)
    for position, spec in reversed(list(zip(at, SPECS))):
        events.insert(position, TransitionEvent(spec))
    return events


class Coordinator:
    """The windows of a schema, owned outside the engine, as ``ShardedExecutor``
    owns them: push, deliver what slid out, then feed."""

    def __init__(self, schema, engine):
        self.engine = engine
        self.windows = {
            d.name: (SlidingWindow if d.window_kind == "count" else TimeSlidingWindow)(d.window)
            for d in schema.streams
        }

    def process(self, tup):
        for old in self.windows[tup.stream].push_all(tup):
            assert self.engine.evict(old)
        self.engine.process(tup)


def observed(engine):
    return (
        engine.output_lineages(),
        list(engine.output_times),
        dict(engine.metrics.counts),
        engine.metrics.clock.now,
    )


# -- a driven engine is the windowed engine -------------------------------------------------


@pytest.mark.parametrize("kind", ["count", "time"])
@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_driven_engine_equals_the_windowed_engine_after_every_event(strategy, kind):
    """Outputs, their stamps, every count and the clock, after every event.  One
    thing the door cannot reproduce: while Parallel Track runs two plans, a windowed
    engine evicts and inserts plan by plan, and the door delivers an eviction to
    every plan before any sees the arrival — the same work in another order, so
    outputs of those arrivals are stamped a few units apart (counts and the clock
    after the event agree)."""
    schema = Schema.uniform(NAMES, 9 if kind == "count" else 25, window_kind=kind)
    windowed = make_strategy(strategy, schema, NAMES)
    driven = make_strategy(strategy, driven_schema(schema), NAMES)
    coordinator = Coordinator(schema, driven)
    stamped_apart = set()
    for event in schedule(arrivals()):
        if isinstance(event, TransitionEvent):
            windowed.transition(event.new_spec)
            driven.transition(event.new_spec)
        else:
            two_plans = len(getattr(windowed, "tracks", ())) > 1
            before = len(windowed.outputs)
            windowed.process(event)
            coordinator.process(event)
            if two_plans:
                stamped_apart.update(range(before, len(windowed.outputs)))
        got, want = observed(driven), observed(windowed)
        assert (got[0], got[2], got[3]) == (want[0], want[2], want[3])
        assert [t for i, t in enumerate(got[1]) if i not in stamped_apart] == [
            t for i, t in enumerate(want[1]) if i not in stamped_apart
        ]
        assert driven.live_tuples() == windowed.live_tuples()
        assert driven.state_sizes() == windowed.state_sizes()
    assert len(driven.outputs) > 100
    assert bool(stamped_apart) == (strategy == "parallel_track")
    assert driven.live_tuples() == {
        name: window.snapshot() for name, window in coordinator.windows.items()
    }


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_evicting_an_absent_tuple_is_false_and_counts_nothing(strategy):
    schema = driven_schema(Schema.uniform(NAMES, 8))
    engine = make_strategy(strategy, schema, NAMES)
    held = [StreamTuple("A", 0, 1), StreamTuple("B", 0, 1), StreamTuple("A", 1, 2)]
    for tup in held:
        engine.process(tup)
    before = observed(engine), engine.live_tuples()
    # never fed; fed on another stream under the same seq; already evicted
    assert not engine.evict(StreamTuple("A", 7, 1))
    assert not engine.evict(StreamTuple("C", 0, 1))
    assert (observed(engine), engine.live_tuples()) == before
    assert engine.evict(StreamTuple("A", 0, 1))  # by value: not the object that was fed
    after = observed(engine), engine.live_tuples()
    assert not engine.evict(held[0])
    assert (observed(engine), engine.live_tuples()) == after
    assert engine.live_tuples() == {"A": [held[2]], "B": [held[1]], "C": []}


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_live_tuples_are_in_arrival_order_after_a_replay_in_and_an_evict_out(strategy):
    """What a worker holds is ordered by arrival *at that worker* — a moved-in key's
    tuples come after what was there, as they did in the window it used to own —
    and an eviction from the middle (the global order is not the worker's) leaves
    the rest in place."""
    worker = ShardWorker(0, make_strategy(strategy, driven_schema(Schema.uniform(NAMES, 8)), NAMES))
    own = [StreamTuple("A", 4, 1), StreamTuple("B", 2, 1), StreamTuple("A", 6, 1)]
    moved_in = [StreamTuple("A", 3, 2), StreamTuple("A", 5, 2), StreamTuple("B", 1, 2)]
    for tup in own:
        worker.feed(tup)
    outputs = len(worker.outputs)
    worker.replay(moved_in)
    assert len(worker.outputs) == len(worker.output_times) == outputs
    assert worker.live_tuples() == {
        "A": [own[0], own[2], moved_in[0], moved_in[1]],
        "B": [own[1], moved_in[2]],
        "C": [],
    }
    assert worker.evict(own[2]) and worker.evict(moved_in[0])  # neither is a head
    assert worker.live_tuples() == {"A": [own[0], moved_in[1]], "B": [own[1], moved_in[2]], "C": []}
    worker.feed(StreamTuple("A", 7, 2))
    assert [t.seq for t in worker.live_tuples()["A"]] == [4, 5, 7]


@pytest.mark.parametrize("strategy", ["static", "jisc", "moving_state"])
def test_a_driven_engine_round_trips_a_checkpoint(strategy):
    schema = driven_schema(Schema.uniform(NAMES, 9))
    events = schedule(arrivals(200), at=(60, 110))
    original = make_strategy(strategy, schema, NAMES)
    coordinator = Coordinator(Schema.uniform(NAMES, 9), original)
    for event in events[:130]:  # 20 arrivals into the second migration
        if isinstance(event, TransitionEvent):
            original.transition(event.new_spec)
        else:
            coordinator.process(event)
    restored = restore_strategy(json.loads(json.dumps(checkpoint_strategy(original))))
    assert restored.schema == schema
    assert all(scan.window is None for scan in restored.plan.scans.values())
    assert restored.live_tuples() == original.live_tuples()
    assert any(restored.live_tuples().values())
    twin = Coordinator(Schema.uniform(NAMES, 9), restored)
    twin.windows = {
        name: type(window)(window.size) for name, window in coordinator.windows.items()
    }
    for name, window in coordinator.windows.items():
        for tup in window:
            twin.windows[name].push(tup)
    mark = len(original.outputs)
    for event in events[130:]:
        coordinator.process(event)
        twin.process(event)
    assert len(original.outputs) > mark
    assert restored.output_lineages() == original.output_lineages()[mark:]
    assert restored.live_tuples() == original.live_tuples()


def test_window_contents_reads_a_window_or_a_driven_leafs_state():
    tuples = [StreamTuple("A", seq, seq % 2) for seq in range(5)]
    for leaf_type in (StreamScan, SteM):
        for kind in ("count", "time", "driven"):
            leaf = leaf_type("A", 3, Metrics(), kind)
            assert (leaf.window is None) == (kind == "driven")
            for tup in tuples:
                leaf.insert(tup)
            want = tuples if kind == "driven" else tuples[2:]
            assert window_contents(leaf) == want == list(leaf.state.entries())
        with pytest.raises(ValueError, match="unknown window kind"):
            leaf_type("A", 3, Metrics(), "tumbling")


def test_an_mjoin_cannot_run_a_driven_stream():
    with pytest.raises(ValueError, match="owns its windows"):
        MJoinExecutor(driven_schema(Schema.uniform(NAMES, 4)), NAMES)


# -- replay mutes what it produced, also when it fails ----------------------------------------


def test_a_replay_that_raises_still_mutes_its_outputs_and_restores_the_phase():
    """The merger delivers whatever sits in a worker's log past its cursor, and the
    paced harness catches a per-arrival exception and goes on: duplicates left behind
    by a replay that raised on its k-th tuple would be delivered."""
    engine = make_strategy("jisc", driven_schema(Schema.uniform(NAMES, 8)), NAMES)
    tracer = RecordingTracer(clock=engine.metrics.clock)
    tracer.attach(engine)
    worker = ShardWorker(0, engine)
    for tup in (StreamTuple("A", 0, 1), StreamTuple("B", 0, 1), StreamTuple("C", 0, 1)):
        worker.feed(tup)
    mark = len(worker.outputs)
    assert mark == 1 and tracer.phase == PHASE_STEADY
    moved_in = [StreamTuple("A", 1, 1), StreamTuple("B", 1, 1), StreamTuple("Z", 0, 1)]
    phases = []
    real = tracer.arrival
    tracer.arrival = lambda tup: (phases.append(tracer.phase), real(tup))
    with pytest.raises(ValueError, match="unknown stream 'Z'"):
        worker.replay(moved_in)  # the first two each produce a duplicate of a source output
    assert phases == [PHASE_REBALANCING] * 2
    assert len(worker.outputs) == len(worker.output_times) == mark
    assert tracer.phase == PHASE_STEADY
    assert [t.seq for t in worker.live_tuples()["A"]] == [0, 1]  # state is not rolled back
    assert worker.replay([StreamTuple("C", 1, 1)]) == 4  # and a clean replay says what it muted
    assert len(worker.outputs) == len(worker.output_times) == mark


# -- two counts that repeat exactly ------------------------------------------------------------


def profiled(scenario, scale):
    return count_calls(SCENARIOS[scenario](scale))


def test_rebalance_churn_compares_no_tuples_and_scans_no_deque():
    """At the parent 15 660 of this run's 21 570 worker evictions missed the
    window's head and ran 570 081 ``StreamTuple.__eq__`` (47 per arrival) inside
    ``deque.remove``; a worker that owns no window has nothing to scan."""
    fed, calls = profiled("rebalance", 1.0)
    assert fed == 12_000
    assert calls[os.path.join("shard", "worker.py"), "install"] > 1000  # keys did move,
    assert calls[os.path.join("operators", "state.py"), "put_key"] > 1000  # as state,
    assert calls[os.path.join("shard", "worker.py"), "replay"] == 0  # not by replay
    assert calls[os.path.join("streams", "tuples.py"), "__eq__"] == 0
    assert calls[DEQUE_REMOVE] == 0
    assert calls[os.path.join("streams", "window.py"), "discard"] == 0


def test_a_sharded_steady_arrival_makes_at_most_25_python_calls():
    """32.7 at the parent, 19.8 for the bare engine on the same tuples: the arrival
    loop calls the two doors, so no frame of ``shard/`` is left on the path."""
    fed, calls = profiled("sharded", 0.2)
    into_repro = sum(n for (path, _), n in calls.items() if path)
    assert into_repro <= 25 * fed, into_repro / fed
    per_arrival = [
        n for (path, name), n in calls.items() if path.startswith("shard") and n >= fed // 2
    ]
    assert not per_arrival
    assert calls[os.path.join("streams", "window.py"), "push"] == fed  # the one window
    assert calls[os.path.join("streams", "window.py"), "push_all"] == 0
