"""Unit tests for metrics counters and the cost model / virtual clock."""

import pytest

from repro.engine.cost import DEFAULT_COSTS, CostModel, VirtualClock
from repro.engine.metrics import Counter, Metrics, work_units


def test_count_and_get():
    m = Metrics()
    m.count(Counter.HASH_PROBE)
    m.count(Counter.HASH_PROBE)
    m.count(Counter.OUTPUT)
    assert m.get(Counter.HASH_PROBE) == 2
    assert m.get(Counter.OUTPUT) == 1
    assert m.get(Counter.NL_COMPARE) == 0


def test_count_n_and_total():
    m = Metrics()
    m.count_n(Counter.NL_COMPARE, 10)
    m.count_n(Counter.NL_COMPARE, 0)  # no-op
    m.count_n(Counter.NL_COMPARE, -3)  # no-op
    assert m.get(Counter.NL_COMPARE) == 10
    assert m.total() == 10


def test_count_n_nonpositive_skips_clock_and_tracer():
    from repro.obs.tracer import RecordingTracer

    clock = VirtualClock()
    m = Metrics(clock=clock)
    tracer = RecordingTracer()
    tracer.attach(m)
    m.count_n(Counter.HASH_PROBE, 0)
    m.count_n(Counter.HASH_PROBE, -7)
    assert m.total() == 0
    assert clock.now == 0.0
    assert tracer.counts_total() == {}


def test_snapshot_and_diff():
    m = Metrics()
    m.count(Counter.HASH_PROBE)
    snap = m.snapshot()
    m.count(Counter.HASH_PROBE)
    m.count(Counter.OUTPUT)
    delta = m.diff(snap)
    assert delta == {Counter.HASH_PROBE: 1, Counter.OUTPUT: 1}
    # snapshot is detached from future counting
    assert snap == {Counter.HASH_PROBE: 1}


def test_diff_drops_zero_deltas():
    m = Metrics()
    m.count_n(Counter.HASH_PROBE, 4)
    m.count(Counter.OUTPUT)
    snap = m.snapshot()
    m.count(Counter.OUTPUT)
    assert m.diff(snap) == {Counter.OUTPUT: 1}
    assert m.diff(m.snapshot()) == {}


def test_diff_against_empty_snapshot_is_identity():
    m = Metrics()
    m.count_n(Counter.NL_COMPARE, 3)
    assert m.diff({}) == {Counter.NL_COMPARE: 3}


def test_reset_clears_counts_and_clock():
    clock = VirtualClock()
    m = Metrics(clock=clock)
    m.count(Counter.HASH_PROBE)
    assert clock.now > 0
    m.reset()
    assert m.total() == 0
    assert clock.now == 0.0


def test_reset_without_clock_and_counting_resumes():
    m = Metrics()
    m.count_n(Counter.TUPLE_EMIT, 5)
    m.reset()
    assert m.snapshot() == {}
    m.count(Counter.TUPLE_EMIT)
    assert m.get(Counter.TUPLE_EMIT) == 1


def test_clock_advances_by_cost():
    clock = VirtualClock(CostModel({Counter.HASH_PROBE: 2.0}))
    m = Metrics(clock=clock)
    m.count(Counter.HASH_PROBE)
    m.count_n(Counter.HASH_PROBE, 3)
    assert clock.now == pytest.approx(8.0)


def test_cost_model_default_for_unknown_ops():
    cm = CostModel(default=5.0)
    assert cm.cost_of("never_heard_of_it") == 5.0


def test_cost_model_overrides():
    cm = CostModel({Counter.OUTPUT: 9.0})
    assert cm.cost_of(Counter.OUTPUT) == 9.0
    assert cm.cost_of(Counter.HASH_PROBE) == DEFAULT_COSTS[Counter.HASH_PROBE]


def test_cost_model_work_units():
    cm = CostModel()
    counts = {Counter.HASH_PROBE: 2, Counter.TUPLE_EMIT: 10}
    expected = 2 * cm.cost_of(Counter.HASH_PROBE) + 10 * cm.cost_of(Counter.TUPLE_EMIT)
    assert work_units(counts, cm) == pytest.approx(expected)


def test_work_units_without_model_counts_everything_once():
    assert work_units({"a": 3, "b": 2}) == 5.0


def test_work_units_with_real_cost_model_matches_clock():
    """work_units over a snapshot reproduces the clock's virtual time."""
    cm = CostModel(DEFAULT_COSTS)
    clock = VirtualClock(cm)
    m = Metrics(clock=clock)
    m.count_n(Counter.HASH_PROBE, 7)
    m.count_n(Counter.TUPLE_EMIT, 4)
    m.count(Counter.OUTPUT)
    assert work_units(m.snapshot(), cm) == pytest.approx(clock.now)
    assert work_units(m.counts, cm) == pytest.approx(clock.now)


def test_work_units_weights_ops_differently():
    cm = CostModel({Counter.HASH_PROBE: 2.0, Counter.NL_COMPARE: 0.5})
    counts = {Counter.HASH_PROBE: 3, Counter.NL_COMPARE: 4}
    assert work_units(counts, cm) == pytest.approx(3 * 2.0 + 4 * 0.5)
    assert work_units({}, cm) == 0.0


def test_all_counters_have_default_costs():
    for op in Counter.ALL:
        assert op in DEFAULT_COSTS
