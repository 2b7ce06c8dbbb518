"""The kernels write ``HashState``'s indexes as its methods do, index for index.

``repro.operators.fused`` probes ``by_key`` and inserts into and unlinks from
``by_key`` / ``by_ident`` / ``part_index`` itself, and so does the bound
completion of ``repro.core.bound`` (probes and inserts); the methods stay the
definition, reached on ``tests.helpers.reference_path``.  After every event,
each state of a fused run must equal the reference run's: the key buckets
(keys in order, each bucket's idents in order), the order of ``by_ident``, the
layout and every ``part_index`` dict — entry orders are what a replay, a
checkpoint and a key move read, so agreeing on contents alone is not enough.
The kernels' fallbacks to the methods are driven on purpose below.
"""

import sys

import pytest

from repro.engine.executor import TransitionEvent, interleave_transitions
from repro.migration.base import StaticPlanExecutor
from repro.migration.jisc import JISCStrategy
from repro.migration.moving_state import MovingStateStrategy
from repro.migration.parallel_track import ParallelTrackStrategy
from repro.operators.joins import JoinOperator, SymmetricHashJoin
from repro.operators.setdiff import SetDifference
from repro.operators.state import HashState
from repro.shard import RebalanceEvent, ShardedExecutor, skewed_assignment
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.workloads.scenarios import chain_scenario, frequency_events
from tests.helpers import reference_path
from tests.test_fused_path import arrivals, fused_leaves

pytestmark = pytest.mark.hashseed

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
    ``part_index``: the kernel reads it per call).  The method tests the
    evicted stream's membership and removes nothing; the kernel does not call
    it for a state with no layout, which holds nothing.  Both leave every
    index as the other does."""
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


# -- the bound completion's writes -------------------------------------------------------
#
# ``repro.core.bound`` probes, inserts and settles on the states' dicts itself.
# After every event its run must equal the generic procedures' (reached on the
# reference path) in every index, and in the counts and the clock, which are
# where a duplicate insert would show: it rewrites dict slots in place.


def completion_view(engine):
    statuses = [op.state.status for op in engine.plan.internal]
    return (
        states_of(engine),
        [None if s.pending is None else sorted(s.pending) for s in statuses],
        dict(engine.metrics.counts),
        engine.metrics.clock.now,
    )


def own_parts_skipped():
    """Where the reference run's completions left out the arriving tuple's own
    results: ``"right"`` (the arrival is the right scan's entry), ``"left"`` (the
    left child is its scan) and ``"composite left"`` (it is inside a left entry)."""
    skipped = set()
    build = JoinOperator.build_state_for_key

    def spy(join, key, exclude_part=None):
        if exclude_part is not None:
            for side in (join.left, join.right):
                if any(entry.has_part(exclude_part) for entry in side.state.get_view(key)):
                    where = "right" if side is join.right else "left"
                    skipped.add(where if len(side.membership) == 1 else "composite " + where)
        build(join, key, exclude_part)

    return skipped, spy


def assert_completion_agrees(make, events, act=step):
    """The fused run's bound completions equal the generic procedures' after every
    event; returns what the generic side skipped as the arrival's own."""

    def run():
        engine = make()
        seen = []
        bound = 0
        for event in events:
            bound += bool(engine.plan.completers)
            act(engine, event)
            seen.append(completion_view(engine))
        return engine, seen, bound

    fused, got, bound = run()
    skipped, spy = own_parts_skipped()
    with reference_path(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(JoinOperator, "build_state_for_key", spy)
        reference, want, _ = run()
    assert fused_leaves(fused) and not fused_leaves(reference) and bound > len(events) // 5
    for i, (ours, theirs) in enumerate(zip(got, want)):
        assert ours == theirs, (i, events[i])
    assert fused.output_lineages() == reference.output_lineages() != []
    return skipped


OWN_PARTS = {"right", "left", "composite left"}


#: name -> (transition period, strategy options)
CHURNS = {
    "worst_case": (70, {}),
    # 8 arrivals apart in a 12-tuple window: states are still incomplete when
    # the next transition adopts them
    "overlapped": (8, {}),
    # completions that meet entries already there: every probe of an incomplete
    # state re-runs one, and without own-path completion arrivals fill states
    # for values still pending
    "naive_recheck": (70, {"naive_recheck": True}),
    "no_expiry_optimization": (70, {"expiry_optimization": False}),
}


@pytest.mark.parametrize("case", sorted(CHURNS))
def test_bound_completion_writes_every_state_as_the_generic_procedures(case):
    period, options = CHURNS[case]
    # five streams: three joins under the root are new at a worst-case transition,
    # so one completes the next while that join's loop is still inserting the
    # arrival's results (the own part inside a composite left entry)
    scenario = chain_scenario(4, 420, 12, key_domain=10, seed=2)
    events = frequency_events(scenario, period, case="worst")
    skipped = assert_completion_agrees(
        lambda: JISCStrategy(scenario.schema, scenario.order, **options), events
    )
    # own-path completion, the only one with the arrival inside, is the
    # window-slide optimization's
    assert skipped == (set() if case == "no_expiry_optimization" else OWN_PARTS)


def test_a_completion_fixes_a_new_states_layout_and_one_cleared_under_it():
    """After a worst-case transition the new states D+C and D+C+B hold nothing.
    The plan's first arrival (generic) has a new key and completes nothing, so
    the bound completion makes D+C's first insert, through ``HashState.add``.
    A second transition adopts D+C still incomplete, and with a layout, before
    it is cleared (``clear`` rebinds ``part_index``: the completion reads it
    per insert, not once per transition); the next completion fixes its layout
    again."""
    schema = Schema.uniform(NAMES, 64)
    before = [
        StreamTuple(name, 4 * key + i, key) for key in range(1, 5) for i, name in enumerate(NAMES)
    ]
    first = [("A", 5), ("B", 1)]
    then = [("B", 6), ("A", 2), ("D", 4), ("C", 3), ("A", 3), ("B", 4)]
    first = [StreamTuple(name, 20 + i, key) for i, (name, key) in enumerate(first)]
    then = [StreamTuple(name, 30 + i, key) for i, (name, key) in enumerate(then)]
    events = (
        before
        + [TransitionEvent(("D", "C", "B", "A"))]
        + first
        + [TransitionEvent(("D", "C", "A", "B"))]
        + then
    )
    cleared = []

    def clear_dc_before_seq_31(engine, event):
        if isinstance(event, StreamTuple) and event.seq == 31:
            dc = engine.plan.state_of(("C", "D"))
            assert dc.layout == ("C", "D") and not dc.status.complete
            dc.clear()
            cleared.append(dc)
        step(engine, event)

    fixed_by_completion = []
    add = HashState.add

    def spy(state, entry):
        if not state.layout and sys._getframe(1).f_code.co_name == "build":
            fixed_by_completion.append(state)
        return add(state, entry)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(HashState, "add", spy)
        assert_completion_agrees(
            lambda: JISCStrategy(schema, NAMES), events, act=clear_dc_before_seq_31
        )
    # the fused run fixes D+C's layout in ``core.bound``, before and after the clear
    assert len(cleared) == 2 and fixed_by_completion == [cleared[0], cleared[0]]
