"""Unit tests for the Parallel Track Strategy (Section 3.3)."""

import pytest

from tests.helpers import assert_same_output, make_tuples
from repro.engine.metrics import Counter
from repro.migration.base import StaticPlanExecutor
from repro.migration.parallel_track import ParallelTrackStrategy
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple


@pytest.fixture
def schema():
    return Schema.uniform(["R", "S", "T"], window=3)


ORDER = ("R", "S", "T")
SWAPPED = ("S", "T", "R")


def feed(strategy, tuples):
    for tup in tuples:
        strategy.process(tup)


def round_robin(n, key_fn=lambda i: i % 3, start=0):
    names = ["R", "S", "T"]
    return [
        StreamTuple(names[i % 3], start + i, key_fn(i)) for i in range(n)
    ]


def test_starts_with_single_track(schema):
    st = ParallelTrackStrategy(schema, ORDER)
    assert st.live_track_count() == 1
    assert not st.in_migration()


def test_transition_adds_a_track(schema):
    st = ParallelTrackStrategy(schema, ORDER)
    st.transition(SWAPPED)
    assert st.live_track_count() == 2
    assert st.in_migration()


def test_double_processing_during_migration(schema):
    st = ParallelTrackStrategy(schema, ORDER, purge_check_interval=1000)
    pre = make_tuples([("R", 1), ("S", 1)])
    feed(st, pre)
    probes_before = st.metrics.get(Counter.HASH_PROBE)
    st.transition(SWAPPED)
    feed(st, [StreamTuple("T", 10, 1)])
    # The T tuple probed states in both plans.
    assert st.metrics.get(Counter.HASH_PROBE) - probes_before >= 2


def test_duplicates_are_eliminated(schema):
    st = ParallelTrackStrategy(schema, ORDER, purge_check_interval=1000)
    st.transition(SWAPPED)
    # All-new tuples join in both plans -> both produce the result once.
    feed(st, make_tuples([("R", 5), ("S", 5), ("T", 5)]))
    assert len(st.outputs) == 1
    assert st.metrics.get(Counter.DEDUP_CHECK) >= 2


def test_old_plan_covers_pre_transition_combinations(schema):
    st = ParallelTrackStrategy(schema, ORDER)
    feed(st, make_tuples([("R", 9), ("S", 9)]))
    st.transition(SWAPPED)
    feed(st, [StreamTuple("T", 10, 9)])
    # only the old plan can produce (r, s, t): r and s predate the new plan
    assert len(st.outputs) == 1


def test_old_plan_discarded_after_windows_turn_over(schema):
    st = ParallelTrackStrategy(schema, ORDER, purge_check_interval=1)
    feed(st, round_robin(9))  # fill all windows (3 per stream)
    st.transition(SWAPPED)
    assert st.in_migration()
    # Window size 3 per stream: after 9 fresh arrivals per stream the old
    # entries are gone.  Use non-joining keys to keep it simple.
    feed(st, round_robin(30, key_fn=lambda i: 100 + i, start=100))
    assert not st.in_migration()
    assert st.live_track_count() == 1


def test_live_plans_are_the_tracks_and_nothing_else(schema):
    """One answer to "which plans are live" for telemetry, the monitor and
    the optimizer: a discarded plan stops counting as live state."""
    from repro.optimizer.cost import live_state_size

    st = ParallelTrackStrategy(schema, ORDER, purge_check_interval=1)
    feed(st, round_robin(9, key_fn=lambda i: 0))  # joining keys: states fill
    old = st.plan
    assert st.live_plans() == [old]
    st.transition(SWAPPED)
    assert st.live_plans() == [t.plan for t in st.tracks] and len(st.live_plans()) == 2
    feed(st, round_robin(30, key_fn=lambda i: 100 + i, start=100))
    (survivor,) = st.live_plans()
    assert survivor is not old
    assert sum(len(op.state) for op in old.operators()) > 0  # held, but dead
    assert live_state_size(st) == sum(len(op.state) for op in survivor.operators())


def test_purge_checks_are_counted(schema):
    st = ParallelTrackStrategy(schema, ORDER, purge_check_interval=1)
    feed(st, round_robin(6))
    st.transition(SWAPPED)
    feed(st, round_robin(6, start=50))
    assert st.metrics.get(Counter.PURGE_CHECK) > 0


def test_purge_early_exit_variant_checks_less(schema):
    def run(full):
        st = ParallelTrackStrategy(
            schema, ORDER, purge_check_interval=1, purge_scan_full=full
        )
        feed(st, round_robin(9))
        st.transition(SWAPPED)
        feed(st, round_robin(12, start=50))
        return st.metrics.get(Counter.PURGE_CHECK)

    assert run(False) < run(True)


def test_overlapped_transitions_stack_tracks(schema):
    st = ParallelTrackStrategy(schema, ORDER, purge_check_interval=1000)
    feed(st, round_robin(6))
    st.transition(SWAPPED)
    feed(st, round_robin(2, start=50))
    st.transition(ORDER)
    assert st.live_track_count() == 3


def test_output_equivalence_with_oracle(schema):
    events = round_robin(36, key_fn=lambda i: i % 2)
    ref = StaticPlanExecutor(schema, ORDER)
    feed(ref, events)
    st = ParallelTrackStrategy(schema, ORDER, purge_check_interval=4)
    feed(st, events[:12])
    st.transition(SWAPPED)
    feed(st, events[12:24])
    st.transition(ORDER)
    feed(st, events[24:])
    assert_same_output(ref, st)


def test_invalid_purge_interval(schema):
    with pytest.raises(ValueError):
        ParallelTrackStrategy(schema, ORDER, purge_check_interval=0)


def test_dedup_memo_cleared_after_migration(schema):
    st = ParallelTrackStrategy(schema, ORDER, purge_check_interval=1)
    feed(st, round_robin(9))
    st.transition(SWAPPED)
    feed(st, round_robin(30, key_fn=lambda i: 100 + i, start=100))
    assert not st.in_migration()
    assert len(st._seen) == 0
