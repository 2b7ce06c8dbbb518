"""Join-attribute values through the JSON of checkpoints and durable logs.

A key is written by ``engine/checkpoint.py::key_to_json`` wherever a checkpoint
or an arrival record holds one, and read back by ``key_from_json``: a scalar
as itself, a tuple — nested ones too — as a list.  A key that would not come
back equal and hashable is refused at ``RecoveryManager.process`` before the
log takes it.
"""

import json

import pytest

from repro.engine.checkpoint import (
    checkpoint_strategy,
    key_from_json,
    key_to_json,
    restore_strategy,
)
from repro.engine.executor import TransitionEvent, run_events
from repro.faults.recovery import RecoveryManager
from repro.faults.store import DirectoryStore, MemoryStore
from repro.migration.jisc import JISCStrategy
from repro.obs.tracer import EVENT_RECOVERY, RecordingTracer
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple

NAMES = ("R", "S", "T")
SCHEMA = Schema.uniform(list(NAMES), 3)

KEYS = {
    "int": lambda i: i % 4,
    "tuple": lambda i: ("k", i % 4),
    "nested": lambda i: ("k", (i % 4, ("x", 0.5)), None),
}


def arrivals(key_of, rounds=30):
    """``rounds`` rounds of R, S, T; round ``i`` carries ``key_of(i)``."""
    return [
        StreamTuple(stream, 3 * i + j, key_of(i))
        for i in range(rounds)
        for j, stream in enumerate(NAMES)
    ]


def factory():
    return JISCStrategy(SCHEMA, NAMES)


def crash_free(events):
    return sorted(t.lineage for t in run_events(factory(), events).outputs)


def recovery_events(tracer):
    return [e.data for e in tracer.as_trace().of_kind(EVENT_RECOVERY)]


@pytest.mark.parametrize("migrating", [False, True], ids=["steady", "migrating"])
@pytest.mark.parametrize("kind", sorted(KEYS))
def test_recovery_restores_the_newest_checkpoint(kind, migrating):
    """All checkpoints restore; recovery starts from the newest, not from 0."""
    events = arrivals(KEYS[kind])
    if migrating:  # a worst-case transition: pending and settled keys in the blobs
        events.insert(30, TransitionEvent(("T", "S", "R")))
    tracer = RecordingTracer()
    manager = RecoveryManager(factory, MemoryStore(), checkpoint_every=10, tracer=tracer)
    manager.run(events[:60])
    assert len(manager.store.checkpoints()) == 6
    manager._recover()
    whats = recovery_events(tracer)
    assert [e["what"] for e in whats] == ["crash", "restored", "replayed"]
    assert whats[1]["log_pos"] == 60 and whats[2]["records"] == 0
    manager.run(events[60:])
    assert sorted(manager.delivered) == crash_free(events)
    assert len(manager.delivered) > 20


@pytest.mark.parametrize("kind", sorted(KEYS))
def test_a_restarted_process_continues_over_a_directory_store(tmp_path, kind):
    events = arrivals(KEYS[kind])
    path = str(tmp_path / "durable")
    first = RecoveryManager(factory, DirectoryStore(path), checkpoint_every=10)
    first.run(events[:45])
    tracer = RecordingTracer()
    second = RecoveryManager(factory, DirectoryStore(path), checkpoint_every=10, tracer=tracer)
    second.run(events[45:])
    assert second.recoveries == 1
    assert "checkpoint_rejected" not in [e["what"] for e in recovery_events(tracer)]
    assert sorted(second.delivered) == crash_free(events)


@pytest.mark.parametrize("kind", sorted(KEYS))
def test_a_checkpoint_round_trips_through_json(kind):
    events = arrivals(KEYS[kind], rounds=12)
    events.insert(20, TransitionEvent(("T", "S", "R")))
    engine = run_events(factory(), events[:25])
    assert engine.incomplete_state_count() > 0
    saved = json.loads(json.dumps(checkpoint_strategy(engine)))
    restored = restore_strategy(saved)
    again = json.loads(json.dumps(checkpoint_strategy(restored)))
    assert again.pop("outputs_emitted") == 0 and saved.pop("outputs_emitted") > 0
    assert again == saved
    before = len(engine.outputs)
    run_events(restored, events[25:])
    run_events(engine, events[25:])
    assert restored.output_lineages() == engine.output_lineages()[before:] != []


def test_scalar_keys_encode_as_themselves():
    """Blobs and logs written before tuples were encoded read unchanged."""
    for key in (0, -3, 2.5, "k", True, None):
        assert key_to_json(key) is key and key_from_json(key) is key
    assert key_to_json(("a", (1, 2.0), ())) == ["a", [1, 2.0], []]
    assert key_from_json(json.loads(json.dumps(["a", [1, 2.0], []]))) == ("a", (1, 2.0), ())


@pytest.mark.parametrize("key", [frozenset({1}), b"k", ("k", frozenset({1})), ("k", [1])])
def test_a_key_the_log_cannot_hold_is_refused_before_the_log(key):
    manager = RecoveryManager(factory, MemoryStore(), checkpoint_every=10)
    good = arrivals(KEYS["tuple"], rounds=4)
    manager.run(good[:6])
    with pytest.raises(TypeError):
        manager.process(StreamTuple("R", 100, key))
    assert len(manager.store.log()) == 6 and manager._arrivals_consumed == 6
    manager.run(good[6:])
    assert sorted(manager.delivered) == crash_free(good)
