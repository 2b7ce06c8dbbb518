"""Tests for the hot-path representations (docs/PERFORMANCE.md).

The performance work must be observationally invisible: seq-tuple
identity, merged composite construction, zero-copy probe views, batched
arrival loops and grouped counting all have to produce the same outputs,
the same op counters and the same virtual times as the straightforward
forms.  That every strategy still equals the first-principles oracle
(``repro.testing.naive``) is held by ``tests/test_conformance_matrix.py``;
these tests pin the pieces.
"""

import pytest

from tests.helpers import assert_same_output, make_tuples
from repro.engine.executor import interleave_transitions, run_events
from repro.engine.metrics import Metrics
from repro.engine.queued import BufferedJISCStrategy
from repro.eddy.cacq import CACQExecutor
from repro.migration.base import StaticPlanExecutor
from repro.migration.jisc import JISCStrategy
from repro.operators.sink import OutputSink
from repro.operators.state import HashState
from repro.perf.intern import INTERNER, LineageInterner
from repro.streams.schema import Schema
from repro.streams.tuples import CompositeTuple, StreamTuple


# ---------------------------------------------------------------------------
# Interner


def test_interner_is_bijective_and_stable():
    interner = LineageInterner()
    a = (("R", 1),)
    b = (("R", 1), ("S", 2))
    ia, ib = interner.id_of(a), interner.id_of(b)
    assert ia != ib
    assert interner.id_of(a) == ia  # stable on re-intern
    assert interner.id_of((("R", 1),)) == ia  # keyed by value, not identity
    assert interner.lineage_of(ia) == a
    assert interner.lineage_of(ib) == b
    assert len(interner) == 2
    assert a in interner and (("T", 9),) not in interner


def test_lineage_id_matches_process_interner():
    t = StreamTuple("R", 41, "k")
    assert INTERNER.lineage_of(t.lineage_id) == t.lineage
    c = CompositeTuple.of(t, StreamTuple("S", 42, "k"))
    assert INTERNER.lineage_of(c.lineage_id) == c.lineage


# ---------------------------------------------------------------------------
# CompositeTuple.of: the merge/insertion paths must agree with plain
# concatenate-and-sort on every input shape.


def _sorted_of(*tuples):
    parts = []
    for t in tuples:
        parts.extend(t.parts if isinstance(t, CompositeTuple) else (t,))
    return tuple(sorted(parts, key=lambda p: p.stream))


@pytest.mark.parametrize(
    "streams_a,streams_b",
    [
        (("R",), ("S",)),
        (("S",), ("R",)),
        (("B", "D"), ("C",)),
        (("C",), ("B", "D")),
        (("A", "C", "E"), ("B", "D")),
        (("B", "D"), ("A", "C", "E")),
        (("A", "B"), ("C", "D")),
        (("C", "D"), ("A", "B")),
    ],
)
def test_of_matches_sort_for_binary_shapes(streams_a, streams_b):
    def build(streams, base_seq):
        parts = tuple(
            StreamTuple(s, base_seq + i, "k") for i, s in enumerate(streams)
        )
        return parts[0] if len(parts) == 1 else CompositeTuple("k", parts)

    a, b = build(streams_a, 0), build(streams_b, 10)
    result = CompositeTuple.of(a, b)
    assert result.parts == _sorted_of(a, b)
    assert result.lineage == tuple((p.stream, p.seq) for p in result.parts)
    assert result.key == "k"


def test_of_three_plus_inputs_sorts():
    r, s, t = (StreamTuple(n, i, "k") for i, n in enumerate("TRS"))
    c = CompositeTuple.of(r, s, t)
    assert [p.stream for p in c.parts] == ["R", "S", "T"]
    d = CompositeTuple.of(c, StreamTuple("A", 9, "k"))
    assert [p.stream for p in d.parts] == ["A", "R", "S", "T"]


def test_composite_equality_and_hash_by_lineage():
    a = CompositeTuple.of(StreamTuple("R", 1, "k"), StreamTuple("S", 2, "k"))
    b = CompositeTuple.of(StreamTuple("S", 2, "k"), StreamTuple("R", 1, "k"))
    assert a == b and hash(a) == hash(b)
    c = CompositeTuple.of(StreamTuple("R", 1, "k"), StreamTuple("S", 3, "k"))
    assert a != c


# ---------------------------------------------------------------------------
# HashState: views, removal determinism.


def _entry(stream, seq, key="k"):
    return StreamTuple(stream, seq, key)


def test_get_view_is_zero_copy_and_reiterable():
    state = HashState()
    empty = state.get_view("k")
    assert len(empty) == 0
    state.add(_entry("R", 1))
    state.add(_entry("R", 2))
    view = state.get_view("k")
    assert sorted(e.seq for e in view) == [1, 2]
    assert sorted(e.seq for e in view) == [1, 2]  # re-iterable
    state.add(_entry("R", 3))
    assert len(view) == 3  # live: reflects the insert
    copy = state.get(u"k")
    state.add(_entry("R", 4))
    assert len(copy) == 3  # get() is a snapshot


def test_remove_with_part_removes_in_insertion_order():
    state = HashState()
    shared = _entry("R", 5)
    composites = [
        CompositeTuple.of(shared, _entry("S", seq)) for seq in (9, 3, 7, 1)
    ]
    for c in composites:
        state.add(c)
    removed = state.remove_with_part(("R", 5))
    # Removal order is the order of insertion into this state — every
    # container on the path is an insertion-ordered dict over ints, hence
    # reproducible across processes regardless of PYTHONHASHSEED.
    assert all(got is want for got, want in zip(removed, composites))
    assert len(removed) == len(composites)
    assert len(state) == 0
    assert state.part_index == ({}, {})
    assert not state.contains_key("k")


def test_sink_first_output_binary_search_matches_linear():
    sink = OutputSink(Metrics())
    sink.output_times = [1.0, 1.0, 2.5, 2.5, 2.5, 7.0]

    def linear(t):
        for when in sink.output_times:
            if when >= t:
                return when
        return None

    for t in (0.0, 1.0, 1.5, 2.5, 3.0, 7.0, 7.5):
        assert sink.first_output_at_or_after(t) == linear(t)


# ---------------------------------------------------------------------------
# Batched arrival execution must match per-tuple processing exactly.

ORDER = ("R", "S", "T", "U")


def _workload():
    return make_tuples([(s, k % 3) for k in range(8) for s in ORDER])


@pytest.mark.parametrize(
    "factory",
    [JISCStrategy, StaticPlanExecutor, CACQExecutor, BufferedJISCStrategy],
    ids=lambda f: f.__name__,
)
def test_process_batch_matches_per_tuple(factory):
    schema = Schema.uniform(ORDER, window=6)
    tuples = _workload()
    one = factory(schema, ORDER)
    for tup in tuples:
        one.process(tup)
    batched = factory(schema, ORDER)
    batched.process_batch(tuples)
    assert one.output_lineages() == batched.output_lineages()
    assert one.metrics.counts == batched.metrics.counts
    assert one.metrics.clock.now == batched.metrics.clock.now


def test_run_events_batches_across_transitions():
    schema = Schema.uniform(ORDER, window=6)
    tuples = _workload()
    events = interleave_transitions(tuples, [(10, ("S", "T", "U", "R")), (20, ORDER)])
    per_tuple = JISCStrategy(schema, ORDER)
    for ev in events:
        if isinstance(ev, StreamTuple):
            per_tuple.process(ev)
        else:
            per_tuple.transition(ev.new_spec)
    batched = JISCStrategy(schema, ORDER)
    run_events(batched, events)
    assert per_tuple.output_lineages() == batched.output_lineages()
    assert per_tuple.metrics.counts == batched.metrics.counts


def test_profile_prints_calls_per_arrival_for_the_steady_scenario(capsys):
    """The number ROADMAP tracks, printed instead of worked out by hand: the
    workload is generated before profiling starts, so it counts the engine."""
    import re

    from repro.perf import profile

    assert profile.main(["steady", "--scale", "0.04", "-n", "1"]) == 0
    found = re.search(r"^calls / arrival: (\d+\.\d) \((\d+) / 1020\)$", capsys.readouterr().out, re.M)
    assert found and 40 < float(found.group(1)) < 100
    assert int(found.group(2)) < 100 * 1020
    assert profile.main(["fig10", "--scale", "0.25", "-n", "1"]) == 0
    assert "calls / arrival" not in capsys.readouterr().out  # two engines, unequal runs


def test_profile_migrate_prints_calls_per_arrival_and_what_the_collector_found(capsys):
    """``migrate_churn``'s shape: the migration stage gets its ``steady``, plus
    the number that says whether transitions leave garbage (they leave none)."""
    import re

    from repro.perf import profile

    assert profile.main(["migrate", "--scale", "0.1", "-n", "1"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^calls / arrival: \d+\.\d \(\d+ / 2700\)$", out, re.M)
    found = re.search(
        r"^collections \(objects found\): gen0 (\d+) \((\d+)\), gen1 \d+ \(\d+\), gen2 \d+ \(\d+\)$",
        out,
        re.M,
    )
    # 27 transitions: ~790 objects each until PR 21 (tests/test_transition_garbage.py
    # pins the engine's share at exactly 0; this process has other tenants)
    assert found and int(found.group(1)) > 0 and int(found.group(2)) < 2000
