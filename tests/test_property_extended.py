"""Extended property-based tests: checkpointing, hybrids, time windows.

These complement tests/test_property_based.py with the features added on
top of the paper's core: checkpoint/restore fidelity under arbitrary
mid-run (including mid-migration) snapshots, hybrid hash/NL plans, and
time-based windows — all against the no-migration oracle or an
uninterrupted twin.
"""

import json

import hypothesis.strategies as hst
from hypothesis import given, settings

from tests.helpers import assert_same_output
from repro.engine.checkpoint import checkpoint_strategy, restore_strategy
from repro.engine.executor import interleave_transitions, run_events
from repro.migration.base import StaticPlanExecutor, hybrid_join_factory
from repro.migration.jisc import JISCStrategy
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple

NAMES = ("A", "B", "C", "D")


def permutations():
    return hst.permutations(list(NAMES)).map(tuple)


@hst.composite
def workload(draw, max_tuples=90, max_key=5, max_window=7):
    n = draw(hst.integers(min_value=8, max_value=max_tuples))
    tuples = [
        StreamTuple(
            draw(hst.sampled_from(NAMES)),
            seq,
            draw(hst.integers(min_value=0, max_value=max_key)),
        )
        for seq in range(n)
    ]
    window = draw(hst.integers(min_value=1, max_value=max_window))
    return tuples, window


@settings(max_examples=40, deadline=None)
@given(
    workload(),
    hst.integers(min_value=0, max_value=100),
    hst.booleans(),
    permutations(),
)
def test_checkpoint_restore_continuation_identical(wl, cut_pct, migrate, new_order):
    """Checkpoint anywhere (optionally mid-migration): the restored run's
    continuation must equal the uninterrupted one's, tuple for tuple."""
    tuples, window = wl
    schema = Schema.uniform(NAMES, window)
    cut = len(tuples) * cut_pct // 100
    st = JISCStrategy(schema, NAMES)
    for tup in tuples[:cut]:
        st.process(tup)
    if migrate:
        st.transition(new_order)
    blob = json.dumps(checkpoint_strategy(st))
    restored = restore_strategy(json.loads(blob))
    emitted = len(st.outputs)
    for tup in tuples[cut:]:
        st.process(tup)
        restored.process(tup)
    assert sorted(t.lineage for t in st.outputs[emitted:]) == sorted(
        restored.output_lineages()
    )


@settings(max_examples=40, deadline=None)
@given(
    workload(),
    hst.sets(hst.sampled_from(NAMES), max_size=3),
    hst.lists(
        hst.tuples(hst.integers(0, 90), permutations()), max_size=2
    ),
)
def test_hybrid_plans_match_oracle_under_transitions(wl, theta, transitions):
    tuples, window = wl
    schema = Schema.uniform(NAMES, window)
    factory = hybrid_join_factory(theta)
    transitions = sorted(
        ((min(pos, len(tuples)), spec) for pos, spec in transitions),
        key=lambda x: x[0],
    )
    events = interleave_transitions(tuples, transitions)
    ref = run_events(StaticPlanExecutor(schema, NAMES, op_factory=factory), events)
    st = run_events(JISCStrategy(schema, NAMES, op_factory=factory), events)
    assert_same_output(ref, st)


@settings(max_examples=40, deadline=None)
@given(
    workload(max_window=12),
    hst.lists(
        hst.tuples(hst.integers(0, 90), permutations()), max_size=3
    ),
)
def test_time_windows_match_oracle_under_transitions(wl, transitions):
    tuples, duration = wl
    schema = Schema.uniform(NAMES, duration, window_kind="time")
    transitions = sorted(
        ((min(pos, len(tuples)), spec) for pos, spec in transitions),
        key=lambda x: x[0],
    )
    events = interleave_transitions(tuples, transitions)
    ref = run_events(StaticPlanExecutor(schema, NAMES), events)
    st = run_events(JISCStrategy(schema, NAMES), events)
    assert_same_output(ref, st)


@settings(max_examples=30, deadline=None)
@given(workload(), hst.integers(min_value=0, max_value=10_000))
def test_lottery_routing_never_changes_results(wl, seed):
    from repro.eddy.cacq import CACQExecutor
    from repro.eddy.routing import LotteryRouting

    tuples, window = wl
    schema = Schema.uniform(NAMES, window)
    ref = StaticPlanExecutor(schema, NAMES)
    st = CACQExecutor(
        schema, NAMES, routing_policy=LotteryRouting(NAMES, seed=seed)
    )
    for tup in tuples:
        ref.process(tup)
        st.process(tup)
    assert_same_output(ref, st)


@settings(max_examples=30, deadline=None)
@given(workload())
def test_monitor_total_entries_consistent(wl):
    """The hub's ``engine_state_entries`` gauges (the query monitor's
    ``state_sizes`` / ``window_fill``, folded into telemetry) against a
    direct walk of the plan."""
    from repro.telemetry import TelemetryTracer
    from repro.telemetry.expo import state_entries

    tuples, window = wl
    schema = Schema.uniform(NAMES, window)
    st = JISCStrategy(schema, NAMES)
    hub = TelemetryTracer(strategy="jisc")
    hub.attach(st)
    for tup in tuples:
        st.process(tup)
    entries = state_entries(hub.take_snapshot())
    # window fill never exceeds the configured bound
    assert all(entries[name] <= window for name in NAMES)
    # state sizes agree with a direct walk of the plan
    direct = {op.label: len(op.state) for op in st.plan.internal}
    assert {label: n for label, n in entries.items() if label not in NAMES} == direct


@settings(max_examples=40, deadline=None)
@given(
    workload(max_key=3, max_window=6),
    hst.lists(hst.tuples(hst.integers(0, 90), permutations()), max_size=2),
)
def test_setdiff_chains_match_oracle_under_transitions(wl, transitions):
    """Section 4.7 under fuzzing: monotone set-difference chains migrating
    arbitrarily must match the static chain (stream A is the outer; only
    orders keeping A first are valid difference chains)."""
    from repro.operators.setdiff import SetDifference

    def factory(l, r, m):
        return SetDifference(l, r, m, reappear_on_inner_expiry=False)

    tuples, window = wl
    schema = Schema.uniform(NAMES, window)
    fixed = []
    for pos, perm in transitions:
        inners = [n for n in perm if n != "A"]
        fixed.append((min(pos, len(tuples)), ("A", *inners)))
    fixed.sort(key=lambda x: x[0])
    events = interleave_transitions(tuples, fixed)
    ref = run_events(
        StaticPlanExecutor(schema, NAMES, op_factory=factory), events
    )
    st = run_events(JISCStrategy(schema, NAMES, op_factory=factory), events)
    assert_same_output(ref, st)
