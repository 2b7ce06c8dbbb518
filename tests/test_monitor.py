"""The query monitor's questions, answered by the telemetry hub.

``repro.engine.monitor`` — a pull-model sampler with a history ring of its
own — is folded into telemetry.  The hub publishes
``engine_state_entries{operator=…}``, ``engine_incomplete_states`` and
``engine_live_plans`` from the engine's ``state_sizes()`` / ``live_plans()``
at every ``sync()``; ``snapshot_every`` -> ``SnapshotLog`` is the history; the
monitor's analysis methods are folds over consecutive snapshots in
``repro.telemetry.expo``.  The scenarios and assertions below are the
monitor's own, re-expressed.

Where a sample sits: the monitor's ``sample()`` ran after ``process``
returned.  A *periodic* hub snapshot is cut inside ``arrival()``, before the
tuple is fed, so the one taken at arrival ``n`` shows the engine after
``n - 1`` tuples — one tuple earlier than the monitor's sample after the
``n``-th.  An explicit ``take_snapshot()`` sits exactly where ``sample()``
did.
"""

import pytest

from tests.helpers import make_tuples
from repro.migration.jisc import JISCStrategy
from repro.migration.moving_state import MovingStateStrategy
from repro.migration.parallel_track import ParallelTrackStrategy
from repro.streams.schema import Schema
from repro.telemetry import TelemetryTracer
from repro.telemetry.expo import (
    largest_state,
    output_stall,
    peak_entries,
    state_entries,
    throughput,
)


@pytest.fixture
def schema():
    return Schema.uniform(["R", "S", "T"], window=10)


ORDER = ("R", "S", "T")


def watch(strategy, snapshot_every=0):
    hub = TelemetryTracer(strategy=strategy.name, snapshot_every=snapshot_every)
    hub.attach(strategy)
    return hub


def series(snapshot, name, strategy="jisc"):
    return snapshot["series"][f'{name}{{strategy="{strategy}"}}']


def run_with_hub(strategy, tuples, every=4):
    hub = watch(strategy, snapshot_every=every)
    for tup in tuples:
        strategy.process(tup)
    hub.take_snapshot()
    return hub


@pytest.fixture
def history_of(monkeypatch):
    """A hub whose ``SnapshotLog`` keeps at most ``capacity`` snapshots (the
    bound is a constant of ``repro.telemetry.expo``, 10 000 — the monitor's
    old default; only a test sets another)."""

    def make(strategy, capacity):
        monkeypatch.setattr("repro.telemetry.expo.SNAPSHOT_CAPACITY", capacity)
        return watch(strategy)

    return make


def test_snapshot_captures_state_sizes(schema):
    st = JISCStrategy(schema, ORDER)
    hub = run_with_hub(st, make_tuples([("R", 1), ("S", 1), ("T", 1)]))
    snap = hub.snapshots.last()
    entries = state_entries(snap)
    assert {name: entries[name] for name in ORDER} == {"R": 1, "S": 1, "T": 1}
    assert entries["RS"] == 1
    assert entries["RST"] == 1
    assert series(snap, "engine_outputs_total") == 1
    assert sum(entries.values()) == 5


def test_incomplete_states_visible_after_transition(schema):
    st = JISCStrategy(schema, ORDER)
    for tup in make_tuples([("S", 1), ("T", 1)]):
        st.process(tup)
    st.transition(("S", "T", "R"))
    snap = watch(st).take_snapshot()
    assert series(snap, "engine_incomplete_states") == 1


def test_parallel_track_live_plans(schema):
    st = ParallelTrackStrategy(schema, ORDER, purge_check_interval=1000)
    st.transition(("S", "T", "R"))
    snap = watch(st).take_snapshot()
    assert series(snap, "engine_live_plans", "parallel_track") == 2


def test_peak_entries_and_largest_state(schema):
    """The monitor ranked join states only (windows were a separate map);
    the fold ranks every holder, so the old claim is made over the join
    labels and the overall answer — the full R window — is pinned too."""
    st = JISCStrategy(schema, ORDER)
    hub = run_with_hub(
        st, make_tuples([("R", k % 2) for k in range(8)] + [("S", 0), ("T", 0)])
    )
    assert peak_entries(hub.snapshots.snapshots) > 0
    entries = state_entries(hub.snapshots.last())
    joins = {label: n for label, n in entries.items() if label not in ORDER}
    assert max(joins, key=joins.get) in {"RS", "RST"}
    assert largest_state(hub.snapshots.last()) == "R" and entries["R"] == 8


def test_throughput_positive_when_producing(schema):
    st = JISCStrategy(schema, ORDER)
    tuples = make_tuples([(s, 1) for s in ORDER] * 4)
    hub = run_with_hub(st, tuples, every=2)
    assert throughput(hub.snapshots.snapshots) > 0


def test_output_stall_detects_moving_state_halt(schema):
    """Figure 10's signature.  The two explicit snapshots bracket the
    transition exactly as the monitor's two ``sample()`` calls did; the
    periodic ones sit before every 10th arrival is fed (the monitor's: after
    arrivals 1, 11, 21, …)."""
    wide = Schema.uniform(["R", "S", "T"], window=200)
    tuples = make_tuples([(s, k % 40) for k in range(200) for s in ORDER])

    def run(cls):
        st = cls(wide, ORDER)
        hub = watch(st, snapshot_every=10)
        for i, tup in enumerate(tuples):
            if i == 300:
                hub.take_snapshot()
                st.transition(("S", "T", "R"))
                hub.take_snapshot()
            st.process(tup)
        return hub

    jisc_stall = output_stall(run(JISCStrategy).snapshots.snapshots)
    ms_stall = output_stall(run(MovingStateStrategy).snapshots.snapshots)
    assert ms_stall > jisc_stall


def test_history_is_bounded(schema, history_of):
    hub = history_of(JISCStrategy(schema, ORDER), 5)
    for _ in range(12):
        hub.take_snapshot()
    assert len(hub.snapshots) == 5


def test_truncation_is_reported_not_silent(schema, history_of):
    hub = history_of(JISCStrategy(schema, ORDER), 5)
    for _ in range(4):
        hub.take_snapshot()
    assert hub.snapshots.dropped == 0 and not hub.snapshots.summary()["window_truncated"]
    for _ in range(8):
        hub.take_snapshot()
    assert hub.snapshots.dropped == 7
    summary = hub.snapshots.summary()
    assert summary["dropped"] == 7 and summary["window_truncated"] is True


def test_bounded_history_keeps_newest_snapshots(schema, history_of):
    st = JISCStrategy(schema, ORDER)
    hub = history_of(st, 3)
    for tup in make_tuples([("R", k) for k in range(6)]):
        st.process(tup)
        hub.take_snapshot()
    kept = [series(snap, "engine_arrivals_total") for snap in hub.snapshots.snapshots]
    assert kept == [4, 5, 6]


def test_summary_keys(schema):
    st = JISCStrategy(schema, ORDER)
    hub = run_with_hub(st, make_tuples([(s, 1) for s in ORDER]))
    summary = hub.snapshots.summary()
    assert set(summary) == {
        "samples",
        "dropped",
        "window_truncated",
        "peak_entries",
        "largest_state",
        "throughput",
        "output_stall",
        "incomplete_states",
    }
    assert summary["samples"] == 1 and summary["peak_entries"] == 5
