"""Checkpoint/restore round-trip tests.

The gold standard: a strategy checkpointed at any point — including in the
middle of a migration, with incomplete states and settled-value memos in
flight — must, after a restore (through a real JSON round trip), produce
exactly the same continuation output as the uninterrupted original.
"""

import json

import pytest

from tests.helpers import make_tuples
from repro.engine.checkpoint import checkpoint_strategy, restore_strategy
from repro.migration.base import StaticPlanExecutor
from repro.migration.jisc import JISCStrategy
from repro.migration.moving_state import MovingStateStrategy
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.workloads.scenarios import chain_scenario, swap_for_case


@pytest.fixture
def schema():
    return Schema.uniform(["R", "S", "T", "U"], window=12)


ORDER = ("R", "S", "T", "U")


def feed(strategy, tuples):
    for tup in tuples:
        strategy.process(tup)


def roundtrip(strategy):
    blob = json.dumps(checkpoint_strategy(strategy))
    return restore_strategy(json.loads(blob))


def continuation_outputs(strategy, tuples):
    before = len(strategy.outputs)
    feed(strategy, tuples)
    return sorted(t.lineage for t in strategy.outputs[before:])


def test_roundtrip_preserves_windows_and_states(schema):
    st = JISCStrategy(schema, ORDER)
    feed(st, make_tuples([(s, k % 3) for k in range(6) for s in ORDER]))
    restored = roundtrip(st)
    for name in ORDER:
        assert [t.seq for t in restored.plan.scans[name].window] == [
            t.seq for t in st.plan.scans[name].window
        ]
    for op in st.plan.internal:
        other = restored.plan.state_of(op.membership)
        assert sorted(e.lineage for e in other.entries()) == sorted(
            e.lineage for e in op.state.entries()
        )


def test_continuation_matches_uninterrupted_run(schema):
    tuples = make_tuples([(s, k % 4) for k in range(20) for s in ORDER])
    head, tail = tuples[:48], tuples[48:]

    original = JISCStrategy(schema, ORDER)
    feed(original, head)
    restored = roundtrip(original)

    assert continuation_outputs(original, tail) == continuation_outputs(
        restored, tail
    )


def test_mid_migration_checkpoint(schema):
    tuples = make_tuples([(s, k % 4) for k in range(20) for s in ORDER])
    head, tail = tuples[:40], tuples[40:]

    original = JISCStrategy(schema, ORDER)
    feed(original, head)
    original.transition(swap_for_case(ORDER, "worst"))
    feed(original, tail[:8])  # some values completed, others still pending
    assert original.incomplete_state_count() > 0

    restored = roundtrip(original)
    assert restored.incomplete_state_count() == original.incomplete_state_count()
    # pending sets survive exactly
    for op in original.plan.internal:
        other = restored.plan.state_of(op.membership)
        assert other.status.complete == op.state.status.complete
        assert other.status.pending == op.state.status.pending

    rest = tail[8:]
    assert continuation_outputs(original, rest) == continuation_outputs(
        restored, rest
    )


def test_mid_migration_continuation_equals_static_oracle(schema):
    sc = chain_scenario(3, 1200, 15, seed=44)
    swapped = swap_for_case(sc.order, "worst")
    ref = StaticPlanExecutor(sc.schema, sc.order)
    feed(ref, sc.tuples)

    st = JISCStrategy(sc.schema, sc.order)
    feed(st, sc.tuples[:500])
    st.transition(swapped)
    feed(st, sc.tuples[500:560])
    restored = roundtrip(st)
    pre_checkpoint = len(st.outputs)
    feed(restored, sc.tuples[560:])
    feed(st, sc.tuples[560:])
    # The restored run reproduces the continuation exactly ...
    assert sorted(restored.output_lineages()) == sorted(
        t.lineage for t in st.outputs[pre_checkpoint:]
    )
    # ... and the original (checkpointed mid-migration) matches the
    # never-migrating oracle over the whole history.
    assert sorted(st.output_lineages()) == sorted(ref.output_lineages())


def test_freshness_survives_roundtrip(schema):
    """The records that matter: arrivals are classified and recorded only
    while some state is incomplete (nothing reads the verdict otherwise)."""
    st = JISCStrategy(schema, ORDER)
    feed(st, make_tuples([(name, key) for name in ORDER for key in (1, 2)]))
    st.transition(swap_for_case(ORDER, "worst"))
    assert st.incomplete_state_count() > 0
    feed(st, [StreamTuple("R", 20, 1)])  # value 1 now attempted on R
    assert st.incomplete_state_count() > 0  # value 2 is still pending
    restored = roundtrip(st)
    assert restored.incomplete_state_count() == st.incomplete_state_count()
    assert restored.controller.freshness.check(StreamTuple("R", 21, 1)) is False
    assert restored.controller.freshness.check(StreamTuple("R", 21, 2)) is True


def test_settled_memo_survives_roundtrip(schema):
    st = JISCStrategy(schema, ORDER)
    feed(st, make_tuples([("S", 1), ("S", 2), ("T", 1), ("T", 2), ("U", 1), ("U", 2)]))
    st.transition(swap_for_case(ORDER, "worst"))
    feed(st, [StreamTuple("R", 20, 1)])
    restored = roundtrip(st)
    for op, info in st.controller.info.items():
        other_op = next(
            o for o in restored.plan.internal if o.membership == op.membership
        )
        assert restored.controller.info[other_op].settled == info.settled


@pytest.mark.parametrize("cls", [StaticPlanExecutor, MovingStateStrategy])
def test_other_strategies_roundtrip(schema, cls):
    tuples = make_tuples([(s, k % 3) for k in range(12) for s in ORDER])
    st = cls(schema, ORDER)
    feed(st, tuples[:30])
    restored = roundtrip(st)
    assert continuation_outputs(st, tuples[30:]) == continuation_outputs(
        restored, tuples[30:]
    )


def test_unsupported_strategy_rejected(schema):
    from repro.eddy.cacq import CACQExecutor

    with pytest.raises(ValueError):
        checkpoint_strategy(CACQExecutor(schema, ORDER))


def test_bad_version_rejected(schema):
    st = JISCStrategy(schema, ORDER)
    blob = checkpoint_strategy(st)
    blob["version"] = 999
    with pytest.raises(ValueError):
        restore_strategy(blob)


def test_time_window_strategy_roundtrip():
    schema = Schema.uniform(["R", "S", "T"], window=9, window_kind="time")
    tuples = make_tuples([(s, k % 3) for k in range(8) for s in ("R", "S", "T")])
    st = JISCStrategy(schema, ("R", "S", "T"))
    feed(st, tuples[:12])
    restored = roundtrip(st)
    assert continuation_outputs(st, tuples[12:]) == continuation_outputs(
        restored, tuples[12:]
    )


# -- format v2: buffered strategies and their pending backlog (regression) ------------
#
# Before v2, "jisc_buffered"/"static_buffered" were not registered as
# checkpointable at all, and a checkpoint cut between enqueue and drain
# would have silently dropped every queued tuple.


def _buffered_mid_backlog(cls, schema):
    from repro.engine.queued import BufferedJISCStrategy

    st = cls(schema, ORDER, auto_drain=False)
    feed(st, make_tuples([(s, k % 3) for k in range(5) for s in ORDER]))
    assert st.scheduler.pending() > 0
    return st


def test_buffered_backlog_survives_roundtrip(schema):
    from repro.engine.queued import BufferedJISCStrategy

    st = _buffered_mid_backlog(BufferedJISCStrategy, schema)
    pending = st.scheduler.pending()
    restored = roundtrip(st)
    assert restored.name == "jisc_buffered"
    assert restored.auto_drain is False
    assert restored.scheduler.pending() == pending
    # the backlog drains to the same outputs on both sides
    before_orig, before_rest = len(st.outputs), len(restored.outputs)
    st.drain()
    restored.drain()
    assert sorted(t.lineage for t in st.outputs[before_orig:]) == sorted(
        t.lineage for t in restored.outputs[before_rest:]
    )


@pytest.mark.parametrize("name", ["jisc_buffered", "static_buffered"])
def test_buffered_strategies_roundtrip(schema, name):
    from repro.engine.queued import BufferedJISCStrategy, BufferedStaticExecutor

    cls = {"jisc_buffered": BufferedJISCStrategy, "static_buffered": BufferedStaticExecutor}[name]
    tuples = make_tuples([(s, k % 3) for k in range(12) for s in ORDER])
    st = cls(schema, ORDER)
    feed(st, tuples[:30])
    restored = roundtrip(st)
    assert continuation_outputs(st, tuples[30:]) == continuation_outputs(
        restored, tuples[30:]
    )


def test_mid_backlog_continuation_matches_uninterrupted(schema):
    """A checkpoint cut with work still queued loses nothing (the v2 fix)."""
    from repro.engine.queued import BufferedJISCStrategy

    tuples = make_tuples([(s, k % 3) for k in range(10) for s in ORDER])
    st = BufferedJISCStrategy(schema, ORDER, auto_drain=False)
    feed(st, tuples[:20])
    restored = roundtrip(st)
    # finish both runs identically: remaining tuples, then a final drain
    for strategy in (st, restored):
        feed(strategy, tuples[20:])
        strategy.drain()
    assert sorted(st.output_lineages()) == sorted(restored.output_lineages())


def test_v1_checkpoint_still_restores(schema):
    """A pre-backlog (v1) checkpoint restores with an empty queue."""
    from repro.engine.queued import BufferedJISCStrategy

    st = BufferedJISCStrategy(schema, ORDER)
    feed(st, make_tuples([(s, k % 3) for k in range(6) for s in ORDER]))
    data = checkpoint_strategy(st)
    data.pop("queue")
    data.pop("auto_drain")
    data["version"] = 1
    restored = restore_strategy(json.loads(json.dumps(data)))
    assert restored.scheduler.pending() == 0
    assert restored.auto_drain is True
