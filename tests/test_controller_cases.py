"""Controller-level tests for completion detection (Section 4.3, Cases 1-3)."""

import pytest

from tests.helpers import assert_same_output, make_tuples
from repro.migration.base import StaticPlanExecutor
from repro.migration.jisc import JISCStrategy
from repro.operators.joins import JoinOperator
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple


@pytest.fixture
def schema():
    return Schema.uniform(["A", "B", "C", "D"], window=10)


def feed(strategy, tuples):
    for tup in tuples:
        strategy.process(tup)


def op_of(strategy, names):
    return strategy.plan.by_identity[("join", frozenset(names))]


def test_case1_reference_is_smaller_side(schema):
    # CD is new in the bushy plan; its children are scans C (2 distinct
    # values) and D (1): the reference child is the smaller side, D.
    st = JISCStrategy(schema, ("A", "B", "C", "D"))
    feed(st, make_tuples([("A", 1), ("B", 1), ("C", 1), ("C", 2), ("D", 1)]))
    st.transition((("A", "B"), ("C", "D")))
    cd = op_of(st, "CD")
    info = st.controller.info[cd]
    assert info.reference_child is st.plan.scans["D"]
    assert st.pending_values("CD") == {1}
    # AB existed in the old left-deep plan: adopted, complete.
    assert op_of(st, "AB").state.status.complete


def test_case3_bushy_node_has_no_counter():
    # A bushy node over two incomplete children: pending is None (Case 3).
    # Needs 5 streams so that the Case-3 node is not the (always-adopted)
    # root membership.
    schema = Schema.uniform(["A", "B", "C", "D", "E"], window=10)
    st = JISCStrategy(schema, ("A", "B", "C", "D", "E"))
    feed(st, make_tuples([("A", 1), ("B", 1), ("C", 1), ("D", 1), ("E", 1)]))
    st.transition(((("A", "C"), ("B", "E")), "D"))
    ac = op_of(st, "AC")
    be = op_of(st, "BE")
    assert not ac.state.status.complete
    assert not be.state.status.complete
    acbe = op_of(st, "ABCE")
    assert not acbe.state.status.complete
    assert acbe.state.status.pending is None


def test_case3_parent_initializes_when_children_complete(schema):
    st = JISCStrategy(schema, ("A", "B", "C", "D"))
    feed(st, make_tuples([("A", 1), ("B", 1), ("C", 1), ("D", 1)]))
    st.transition((("A", "C"), ("B", "D")))
    root = op_of(st, "ABCD")
    assert root.state.status.pending is None
    # A fresh arrival on A probes BD (incomplete) at the root: completion
    # settles AC and BD for key 1, completing both; the root counter can
    # then be initialized, finds nothing left pending, and completes.
    feed(st, [StreamTuple("A", 10, 1)])
    assert op_of(st, "AC").state.status.complete
    assert op_of(st, "BD").state.status.complete
    assert root.state.status.complete


def test_case3_output_correct_despite_missing_counter(schema):
    pre = make_tuples([("A", 1), ("B", 1), ("C", 1), ("D", 1), ("A", 2), ("B", 2)])
    post = [StreamTuple("C", 10, 2), StreamTuple("D", 11, 2), StreamTuple("A", 12, 1)]
    ref = StaticPlanExecutor(schema, ("A", "B", "C", "D"))
    feed(ref, pre + post)
    st = JISCStrategy(schema, ("A", "B", "C", "D"))
    feed(st, pre)
    st.transition((("A", "C"), ("B", "D")))
    feed(st, post)
    assert_same_output(ref, st)


def test_counter_equals_len_pending(schema):
    st = JISCStrategy(schema, ("A", "B", "C", "D"))
    feed(st, make_tuples([("A", 1), ("A", 2), ("A", 3), ("B", 1), ("B", 2), ("C", 9), ("D", 9)]))
    st.transition(("B", "A", "C", "D"))
    ba = op_of(st, "AB")
    # AB membership survives -> complete; nothing pending there.
    assert ba.state.status.complete
    st.transition(("A", "C", "B", "D"))
    ac = op_of(st, "AC")
    assert ac.state.status.counter == len(ac.state.status.pending)


def test_needs_completion_respects_settled(schema):
    st = JISCStrategy(schema, ("A", "B", "C", "D"))
    feed(st, make_tuples([("A", 1), ("A", 2), ("C", 1), ("C", 2), ("B", 7), ("D", 7)]))
    st.transition(("A", "C", "B", "D"))
    ac = op_of(st, "AC")
    assert st.controller.needs_completion(ac, 1)
    feed(st, [StreamTuple("B", 10, 1)])  # fresh B probes AC -> completes key 1
    assert not st.controller.needs_completion(ac, 1)
    assert st.controller.needs_completion(ac, 2)
    # a value never present in the reference child is vacuously complete
    assert not st.controller.needs_completion(ac, 99)


def test_info_garbage_collected_on_completion(schema):
    st = JISCStrategy(schema, ("A", "B", "C", "D"))
    feed(st, make_tuples([("A", 1), ("C", 1), ("B", 7), ("D", 7)]))
    st.transition(("A", "C", "B", "D"))
    ac = op_of(st, "AC")
    assert ac in st.controller.info
    feed(st, [StreamTuple("B", 10, 1)])
    assert ac.state.status.complete
    assert ac not in st.controller.info
    assert ac not in st.controller.incomplete_ops


def test_retirement_via_either_complete_child():
    schema = Schema.uniform(["A", "B", "C", "D"], window=1)
    st = JISCStrategy(schema, ("A", "B", "C", "D"))
    feed(st, make_tuples([("A", 1), ("C", 1), ("B", 7), ("D", 7)]))
    st.transition(("A", "C", "B", "D"))
    assert st.pending_values("AC") == {1}
    # Expire the old C#1 via the NON-reference side (A side is ref when
    # equal; expiry through C must still retire the value).
    feed(st, [StreamTuple("C", 10, 5)])
    assert st.plan.state_of("AC").status.complete


def test_current_part_tracks_arrival(schema, monkeypatch):
    """``current_part`` is defined during an arrival that finds a state
    incomplete: it is that arrival's part, and completion leaves the results
    containing it to the live cascade (``build_state_for_key`` excludes it)."""
    order = ("A", "B", "C", "D")
    old = make_tuples([(name, 1) for name in order])
    st = JISCStrategy(schema, order)
    feed(st, old)
    st.transition(("A", "C", "B", "D"))
    assert st.incomplete_state_count() > 0
    seen = []
    build = JoinOperator.build_state_for_key

    def spy(self, key, exclude_part=None):
        seen.append((st.controller.current_part, exclude_part))
        build(self, key, exclude_part=exclude_part)

    monkeypatch.setattr(JoinOperator, "build_state_for_key", spy)
    arrival = StreamTuple("A", 10, 1)
    st.process(arrival)
    assert seen and set(seen) == {(("A", 10), ("A", 10))}
    # each result containing the arrival came out of the cascade exactly once
    ref = StaticPlanExecutor(schema, order)
    feed(ref, old + [arrival])
    assert_same_output(ref, st)


def test_expiry_hooks_are_installed_only_while_a_state_is_incomplete():
    """The window-slide hooks only ever act on incomplete states: they are
    on from a transition that leaves one until the last completion, and an
    eviction between migrations pays for neither."""
    schema = Schema.uniform(["A", "B", "C", "D"], window=1)
    st = JISCStrategy(schema, ("A", "B", "C", "D"))

    def hooks():
        return {(s.fresh_fn is not None, s.expire_hook is not None) for s in st.plan.scans.values()}

    assert hooks() == {(False, False)}
    feed(st, make_tuples([("A", 1), ("C", 1), ("B", 7), ("D", 7)]))
    st.transition(("A", "C", "B", "D"))
    assert st.incomplete_state_count() > 0 and hooks() == {(True, True)}
    # window 1: the next C evicts the only pre-transition support of value
    # 1, which retires it and completes AC, the last incomplete state
    feed(st, [StreamTuple("C", 10, 5), StreamTuple("A", 11, 6), StreamTuple("B", 12, 6)])
    assert st.incomplete_state_count() == 0 and hooks() == {(False, False)}
    # an overlapped transition puts them back
    st.transition(("D", "B", "A", "C"))
    assert st.incomplete_state_count() > 0 and hooks() == {(True, True)}
