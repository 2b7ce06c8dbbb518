"""Checkpoint error paths: clean ``ValueError``\\ s, never silent corruption.

Satellite of the fault-injection subsystem: every way a checkpoint can be
unusable — damaged bytes, an unknown format version, a strategy or plan
kind the format does not cover — must surface as a clean, typed error that
the :class:`~repro.faults.recovery.RecoveryManager` can catch and fall
back on, not as garbage state.
"""

import json

import pytest

from tests.helpers import make_tuples
from repro.engine.checkpoint import (
    SUPPORTED_VERSIONS,
    checkpoint_strategy,
    restore_strategy,
)
from repro.faults.plan import _corrupt, _truncate
from repro.faults.recovery import RecoveryManager
from repro.faults.store import MemoryStore
from repro.migration.jisc import JISCStrategy
from repro.obs.tracer import EVENT_RECOVERY, RecordingTracer
from repro.operators.setdiff import SetDifference
from repro.streams.schema import Schema

ORDER = ("R", "S", "T", "U")


@pytest.fixture
def schema():
    return Schema.uniform(ORDER, window=8)


@pytest.fixture
def good_blob(schema):
    st = JISCStrategy(schema, ORDER)
    for tup in make_tuples([(s, k % 3) for k in range(6) for s in ORDER]):
        st.process(tup)
    return json.dumps(checkpoint_strategy(st))


def test_truncated_blob_fails_at_parse(good_blob):
    with pytest.raises(json.JSONDecodeError):
        json.loads(_truncate(good_blob))


def test_corrupted_blob_fails_restore_with_value_error(good_blob):
    data = json.loads(_corrupt(good_blob))
    with pytest.raises(ValueError, match="checkpoint version"):
        restore_strategy(data)


@pytest.mark.parametrize("version", [0, 1, 3, 999, None, "2"])
def test_unknown_versions_rejected(good_blob, version):
    assert version not in SUPPORTED_VERSIONS
    data = json.loads(good_blob)
    data["version"] = version
    with pytest.raises(ValueError, match="unsupported checkpoint version"):
        restore_strategy(data)


def test_unknown_strategy_name_rejected(good_blob):
    data = json.loads(good_blob)
    data["strategy"] = "time_travel"
    with pytest.raises(ValueError, match="unsupported checkpoint strategy"):
        restore_strategy(data)


def test_parallel_track_strategy_rejected(schema):
    from repro.migration.parallel_track import ParallelTrackStrategy

    with pytest.raises(ValueError, match="not supported"):
        checkpoint_strategy(ParallelTrackStrategy(schema, ORDER))


def test_cacq_executor_rejected(schema):
    from repro.eddy.cacq import CACQExecutor

    with pytest.raises(ValueError, match="not supported"):
        checkpoint_strategy(CACQExecutor(schema, ORDER))


def test_setdiff_plan_rejected(schema):
    st = JISCStrategy(
        schema,
        ORDER,
        op_factory=lambda l, r, m: SetDifference(
            l, r, m, reappear_on_inner_expiry=False
        ),
    )
    with pytest.raises(ValueError, match="joins only"):
        checkpoint_strategy(st)


def test_recovery_manager_survives_damaged_newest_checkpoint(schema, good_blob):
    # Both damage modes stacked newest-first: recovery walks past the
    # truncated and the semantically corrupted write to the good one.
    store = MemoryStore()
    store.put_checkpoint(good_blob, 0)
    store.put_checkpoint(_corrupt(good_blob), 0)
    store.put_checkpoint(_truncate(good_blob), 0)
    tracer = RecordingTracer()
    manager = RecoveryManager(
        lambda: JISCStrategy(schema, ORDER), store=store, tracer=tracer
    )
    restored = manager._ensure_strategy()
    assert manager.recoveries == 1
    rejected = [
        e.data["checkpoint"]
        for e in tracer.as_trace().of_kind(EVENT_RECOVERY)
        if e.data["what"] == "checkpoint_rejected"
    ]
    assert rejected == [2, 1]
    original = restore_strategy(json.loads(good_blob))
    for name in ORDER:
        assert [t.seq for t in restored.plan.scans[name].window] == [
            t.seq for t in original.plan.scans[name].window
        ]
