"""Unit tests for HashState and StateStatus."""

from repro.operators.state import HashState, StateStatus
from repro.streams.tuples import CompositeTuple, StreamTuple


def t(stream, seq, key):
    return StreamTuple(stream, seq, key)


def test_add_and_get_by_key():
    s = HashState()
    a, b = t("R", 0, 5), t("R", 1, 5)
    s.add(a)
    s.add(b)
    assert sorted(x.seq for x in s.get(5)) == [0, 1]
    assert s.get(6) == []
    assert len(s) == 2


def test_add_is_idempotent_by_lineage():
    s = HashState()
    a = t("R", 0, 5)
    assert s.add(a) is True
    assert s.add(a) is False
    assert len(s) == 1


def test_contains_key_and_membership():
    s = HashState()
    a = t("R", 0, 5)
    s.add(a)
    assert s.contains_key(5)
    assert not s.contains_key(6)
    assert a in s
    assert t("R", 1, 5) not in s


def test_remove_entry():
    s = HashState()
    a = t("R", 0, 5)
    s.add(a)
    assert s.remove_entry(a) is True
    assert s.remove_entry(a) is False
    assert len(s) == 0
    assert not s.contains_key(5)


def test_remove_with_part_removes_all_composites_containing_it():
    s = HashState()
    r = t("R", 0, 5)
    s1, s2 = t("S", 1, 5), t("S", 2, 5)
    c1, c2 = CompositeTuple.of(r, s1), CompositeTuple.of(r, s2)
    s.add(c1)
    s.add(c2)
    removed = s.remove_with_part(("R", 0))
    assert len(removed) == 2
    assert len(s) == 0


def test_remove_with_part_leaves_unrelated_entries():
    s = HashState()
    r1, r2, s1 = t("R", 0, 5), t("R", 1, 5), t("S", 2, 5)
    c1, c2 = CompositeTuple.of(r1, s1), CompositeTuple.of(r2, s1)
    s.add(c1)
    s.add(c2)
    s.remove_with_part(("R", 0))
    assert len(s) == 1
    assert c2 in s


def test_remove_with_part_unknown_part():
    s = HashState()
    assert s.remove_with_part(("X", 99)) == []


def test_distinct_values_and_count():
    s = HashState()
    s.add(t("R", 0, 1))
    s.add(t("R", 1, 1))
    s.add(t("R", 2, 2))
    assert s.distinct_values() == {1, 2}
    assert s.distinct_count() == 2
    s.remove_entry(t("R", 2, 2))
    assert s.distinct_values() == {1}


def test_entries_iteration():
    s = HashState()
    for i in range(5):
        s.add(t("R", i, i % 2))
    assert len(list(s.entries())) == 5


def test_clear():
    s = HashState()
    s.add(t("R", 0, 1))
    s.clear()
    assert len(s) == 0
    assert s.distinct_count() == 0
    assert s.remove_with_part(("R", 0)) == []


def test_status_default_complete():
    assert HashState().status.complete is True
    assert HashState(complete=False).status.complete is False


def test_status_mark_incomplete_and_counter():
    st = StateStatus()
    st.mark_incomplete({1, 2, 3})
    assert st.complete is False
    assert st.counter == 3


def test_status_settle_value_returns_true_on_last():
    st = StateStatus()
    st.mark_incomplete({1, 2})
    assert st.settle_value(1) is False
    assert st.settle_value(2) is True
    assert st.counter == 0


def test_status_settle_on_complete_is_noop():
    st = StateStatus()
    assert st.settle_value(1) is False


def test_status_case3_pending_none():
    st = StateStatus()
    st.mark_incomplete(None)
    assert st.pending is None
    assert st.counter is None
    assert st.settle_value(1) is False


def test_status_mark_complete_clears_pending():
    st = StateStatus()
    st.mark_incomplete({1})
    st.mark_complete()
    assert st.complete and st.pending is None
