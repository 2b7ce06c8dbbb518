"""The kernels write ``HashState``'s indexes as its methods do, index for index.

``repro.operators.fused`` probes ``by_key`` and inserts into and unlinks from
``by_key`` / ``by_ident`` / ``part_index`` itself; the methods stay the
definition, reached on ``tests.helpers.reference_path``.  After every event,
each state of a fused run must equal the reference run's: the key buckets
(keys in order, each bucket's idents in order), the order of ``by_ident``, the
layout and every ``part_index`` dict — entry orders are what a replay, a
checkpoint and a key move read, so agreeing on contents alone is not enough.
The kernels' fallbacks to the methods are driven on purpose below.
"""

import pytest

from repro.engine.executor import TransitionEvent, interleave_transitions
from repro.migration.base import StaticPlanExecutor
from repro.migration.jisc import JISCStrategy
from repro.migration.moving_state import MovingStateStrategy
from repro.migration.parallel_track import ParallelTrackStrategy
from repro.operators.joins import SymmetricHashJoin
from repro.operators.setdiff import SetDifference
from repro.shard import RebalanceEvent, ShardedExecutor, skewed_assignment
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.workloads.scenarios import chain_scenario, frequency_events
from tests.helpers import reference_path
from tests.test_fused_path import arrivals, fused_leaves

NAMES = ("A", "B", "C", "D")


def index_view(state):
    """A state's four indexes as comparable values, orders included."""
    return (
        [(key, list(bucket)) for key, bucket in state.by_key.items()],
        list(state.by_ident),
        state.layout,
        [[(seq, list(owners)) for seq, owners in index.items()] for index in state.part_index],
    )


def states_of(strategy):
    return [
        {label: index_view(state) for label, state in plan.states().items()}
        for plan in strategy.live_plans()
    ]


def step(engine, event):
    if isinstance(event, TransitionEvent):
        engine.transition(event.new_spec)
    else:
        engine.process(event)


def trail(make, events, view=states_of, act=step):
    """The engine ``make()`` builds, and its states' view after every event."""
    engine = make()
    seen = []
    for event in events:
        act(engine, event)
        seen.append(view(engine))
    return engine, seen


def assert_same_states(make, events, **options):
    """Fused and reference runs of ``events`` agree after every event."""
    fused, got = trail(make, events, **options)
    with reference_path():
        reference, want = trail(make, events, **options)
    for i, (ours, theirs) in enumerate(zip(got, want)):
        assert ours == theirs, (i, events[i])
    return fused, reference


def churn(case):
    scenario = chain_scenario(3, 420, 12, key_domain=10, seed=2)
    return scenario.schema, scenario.order, frequency_events(scenario, 70, case=case)


def reshapes(n=360):
    """Arrivals over ``NAMES`` with a transition every 60, two of them back to back."""
    targets = [(60, ("D", "C", "B", "A")), (120, ("B", "D", "A", "C")), (120, NAMES),
               (240, ("C", "A", "D", "B"))]  # fmt: skip
    return interleave_transitions(arrivals(n, n_keys=5, seed=8), targets)


#: name -> (engine factory, events)
RUNS = {
    "static": (lambda: StaticPlanExecutor(Schema.uniform(NAMES, 7), NAMES), arrivals(300, seed=4)),
    "jisc_best": (lambda: JISCStrategy(*churn("best")[:2]), churn("best")[2]),
    "jisc_worst": (lambda: JISCStrategy(*churn("worst")[:2]), churn("worst")[2]),
    "moving_state": (lambda: MovingStateStrategy(Schema.uniform(NAMES, 7), NAMES), reshapes()),
    "parallel_track": (lambda: ParallelTrackStrategy(Schema.uniform(NAMES, 7), NAMES), reshapes()),
    "bushy": (
        lambda: JISCStrategy(Schema.uniform(NAMES, 7), (("A", "B"), ("C", "D"))),
        interleave_transitions(arrivals(300, seed=9), [(150, (("A", "C"), ("B", "D")))]),
    ),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_every_state_agrees_after_every_event(run):
    make, events = RUNS[run]
    fused, reference = assert_same_states(make, events)
    assert fused_leaves(fused) and not fused_leaves(reference)
    assert fused.output_lineages() == reference.output_lineages() != []


def test_sharded_extract_and_install_agree_after_every_event():
    """Keys leave and join a worker's states whole (``take_key`` / ``put_key``)
    between kernel arrivals; the coordinator evicts through the expiry door."""
    names = ("A", "B", "C")
    schema = Schema.uniform(names, 8)
    tuples = arrivals(240, names, n_keys=9, seed=11)
    events = (
        tuples[:90]
        + [RebalanceEvent(skewed_assignment(64, 1), "lazy", batch_keys=2)]
        + tuples[90:160]
        + [RebalanceEvent(skewed_assignment(64, 0), "eager")]
        + tuples[160:]
    )
    fused, reference = assert_same_states(
        lambda: ShardedExecutor(schema, names, num_shards=3, inter_arrival=1.0),
        events,
        view=lambda executor: [states_of(worker.strategy) for worker in executor.workers],
        act=lambda executor, event: executor.run([event]),
    )
    assert len(fused.moves) > 0
    assert fused.output_lineages() == reference.output_lineages() != []


def setdiff_under_root(left, right, metrics):
    """``((A - B) JOIN C) JOIN D``: the joins' entries are of unknown streams."""
    if left.membership | right.membership == {"A", "B"}:
        return SetDifference(left, right, metrics)
    return SymmetricHashJoin(left, right, metrics)


def test_joins_above_a_set_difference_remove_through_the_method():
    fused, reference = assert_same_states(
        lambda: StaticPlanExecutor(Schema.uniform(NAMES, 5), NAMES, op_factory=setdiff_under_root),
        arrivals(300, n_keys=6, seed=12),
    )
    assert fused.output_lineages() == reference.output_lineages() != []


# -- the fallbacks, on purpose ---------------------------------------------------------


def test_an_unfixed_layout_is_fixed_by_the_method():
    """A plan compiles after its first arrival: every other state still fixes
    its layout through ``HashState.add``, under a live kernel."""
    events = [StreamTuple("A", 0, 1), StreamTuple("B", 1, 1), StreamTuple("B", 2, 1)]
    make = lambda: StaticPlanExecutor(Schema.uniform(NAMES, 7), NAMES)  # noqa: E731
    engine = make()
    engine.process(events[0])
    states = engine.plan.states()
    assert fused_leaves(engine) and states["B"].layout == states["AB"].layout == ()
    engine.process(events[1])  # the scan's insert and the level's: ``add`` fixes both
    assert states["B"].layout == ("B",) and states["AB"].layout == ("A", "B")
    assert_same_states(make, events)


def test_an_equal_tuple_that_is_not_the_stored_one_is_removed_by_value():
    schema = Schema.uniform(NAMES, 1 << 40)
    tuples = arrivals(80, seed=13)

    def evict_copies(engine, tup):
        engine.process(tup)
        if tup.seq >= 12:
            old = tuples[tup.seq - 12]
            copy = StreamTuple(old.stream, old.seq, old.key)
            assert engine.plan.scans[old.stream].evict(copy) is True

    fused, reference = assert_same_states(lambda: JISCStrategy(schema, NAMES), tuples, act=evict_copies)
    assert fused_leaves(fused)
    assert sum(len(scan.state) for scan in fused.plan.scans.values()) == 12


def test_a_state_with_no_layout_removes_through_the_method():
    """Evictions that reach a join whose state never held an entry, and one
    whose state was cleared under a live kernel (``clear`` rebinds
    ``part_index``: the kernel reads it per call)."""
    schema = Schema.uniform(NAMES, 3)
    # A and B never share a key until seq 40: the A+B state has no layout
    tuples = [StreamTuple(NAMES[seq % 2], seq, seq % 2) for seq in range(40)]
    tuples += arrivals(120, seed=14)
    tuples = [StreamTuple(t.stream, seq, t.key) for seq, t in enumerate(tuples)]

    def clear_at_80(engine, tup):
        if tup.seq == 80:
            join = engine.plan.internal[-1]
            join.state.clear()
            assert join.state.part_index == ()
        engine.process(tup)

    make = lambda: StaticPlanExecutor(schema, NAMES)  # noqa: E731
    engine, found = trail(make, tuples[:40], view=lambda e: e.plan.states()["AB"].layout)
    assert fused_leaves(engine) and set(found) == {()}
    assert_same_states(make, tuples, act=clear_at_80)


def test_a_redelivered_arrival_inserts_and_emits_nothing_new():
    """Its results are already in every state: the level's duplicate check
    skips them, as ``add`` returning ``False`` does."""
    tuples = arrivals(200, seed=15)
    events = tuples[:100] + tuples[96:100] + tuples[100:]
    fused, reference = assert_same_states(lambda: JISCStrategy(Schema.uniform(NAMES, 9), NAMES), events)
    assert fused.output_lineages() == reference.output_lineages()
    assert len(set(fused.output_lineages())) == len(fused.output_lineages()) > 50
