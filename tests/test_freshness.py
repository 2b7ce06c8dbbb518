"""Unit tests for the fresh/attempted registry (Definition 2), and for how
little of it an engine keeps: arrivals are classified and recorded only while
a state is incomplete, and a transition drops every record it makes stale."""

import random

import hypothesis.strategies as hst
from hypothesis import given, settings

from repro.core.freshness import FreshnessRegistry
from repro.engine.executor import TransitionEvent, interleave_transitions
from repro.migration.base import StaticPlanExecutor
from repro.migration.jisc import JISCStrategy
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple


def t(stream, seq, key):
    return StreamTuple(stream, seq, key)


def test_first_tuple_after_transition_is_fresh():
    reg = FreshnessRegistry()
    reg.note_transition(10)
    assert reg.observe(t("R", 10, 5)) is True


def test_second_tuple_same_stream_same_value_is_attempted():
    reg = FreshnessRegistry()
    reg.note_transition(10)
    reg.observe(t("R", 10, 5))
    assert reg.observe(t("R", 11, 5)) is False


def test_same_value_other_stream_is_independently_fresh():
    # Section 4.4 keys freshness on the *stream's* hash table.
    reg = FreshnessRegistry()
    reg.note_transition(10)
    reg.observe(t("R", 10, 5))
    assert reg.observe(t("S", 11, 5)) is True


def test_different_value_is_fresh():
    reg = FreshnessRegistry()
    reg.note_transition(10)
    reg.observe(t("R", 10, 5))
    assert reg.observe(t("R", 11, 6)) is True


def test_pre_transition_arrival_does_not_mark_attempted():
    reg = FreshnessRegistry()
    reg.observe(t("R", 3, 5))  # before any transition is noted
    reg.note_transition(10)
    assert reg.observe(t("R", 12, 5)) is True


def test_new_transition_resets_freshness():
    reg = FreshnessRegistry()
    reg.note_transition(0)
    reg.observe(t("R", 1, 5))
    assert reg.observe(t("R", 2, 5)) is False
    reg.note_transition(10)
    assert reg.observe(t("R", 10, 5)) is True


def records(reg):
    return sum(len(seen) for seen in reg._last_seen.values())


def test_transition_drops_the_records_it_makes_stale():
    reg = FreshnessRegistry()
    for seq in range(10):
        reg.record(t("R", seq, seq % 5))
        reg.record(t("S", 100 + seq, seq))
    assert records(reg) == 15
    reg.note_transition(105)  # a caller may pass less than its next seq
    assert records(reg) == 5
    assert reg.check(t("S", 200, 4)) is True and reg.check(t("S", 200, 5)) is False
    reg.note_transition(110)
    assert records(reg) == 0
    assert reg.check(t("S", 200, 5)) is True


NAMES = ("A", "B", "C", "D")


def test_no_transition_no_records():
    """ROADMAP item 4: the registry does not grow with the key domain."""
    rng = random.Random(7)
    engine = JISCStrategy(Schema.uniform(NAMES, 8), NAMES)
    engine.process_batch(
        [StreamTuple(rng.choice(NAMES), seq, rng.randrange(5000)) for seq in range(20_000)]
    )
    assert records(engine.controller.freshness) == 0


def test_registry_is_bounded_by_the_pairs_seen_since_the_last_transition():
    rng = random.Random(11)
    orders = [("D", "C", "B", "A"), ("B", "D", "A", "C"), NAMES]
    engine = JISCStrategy(Schema.uniform(NAMES, 8), NAMES)
    since, recorded = set(), set()
    peak = 0
    for seq in range(6000):
        if seq % 500 == 250:
            engine.transition(orders[(seq // 500) % len(orders)])
            since.clear()
            recorded.clear()
            assert records(engine.controller.freshness) == 0
        tup = StreamTuple(rng.choice(NAMES), seq, rng.randrange(40))
        if engine.incomplete_state_count() > 0:  # recorded iff classified
            recorded.add((tup.stream, tup.key))
        engine.process(tup)
        since.add((tup.stream, tup.key))
        held = records(engine.controller.freshness)
        assert held == len(recorded) <= len(since)
        peak = max(peak, held)
    assert 0 < peak < len(since) <= len(NAMES) * 40


class KeepEverything(FreshnessRegistry):
    """The registry as it was: a transition only moves the threshold."""

    def note_transition(self, seq):
        self.last_transition_seq = seq


class AlwaysRecording(JISCStrategy):
    """The arrival path as it was: every arrival classified and recorded."""

    def __init__(self, schema, spec):
        super().__init__(schema, spec)
        self.controller.freshness = KeepEverything()

    def process(self, tup):
        self.controller.on_arrival(tup)
        self._last_seq = max(self._last_seq, tup.seq)
        self.plan.feed(tup)
        self.controller.after_arrival(tup)

    def process_batch(self, tuples):
        for tup in tuples:
            self.process(tup)


@hst.composite
def schedules(draw):
    n = draw(hst.integers(min_value=20, max_value=150))
    tuples = [
        StreamTuple(draw(hst.sampled_from(NAMES)), seq, draw(hst.integers(0, 5)))
        for seq in range(n)
    ]
    transitions = sorted(
        (
            (draw(hst.integers(0, n)), tuple(draw(hst.permutations(NAMES))))
            for _ in range(draw(hst.integers(1, 5)))
        ),
        key=lambda pair: pair[0],
    )
    return draw(hst.integers(1, 6)), interleave_transitions(tuples, transitions)


@settings(max_examples=80, deadline=None)
@given(schedules(), hst.booleans())
def test_verdicts_equal_an_engine_that_always_records(schedule, batched):
    """Skipping the classification while every state is complete, and dropping
    stale records at a transition, changes no verdict anything reads: the
    same ``current_fresh`` at every arrival that finds a state incomplete,
    hence the same completion work and the same output."""
    window, events = schedule
    schema = Schema.uniform(NAMES, window)
    reference, engine = AlwaysRecording(schema, NAMES), JISCStrategy(schema, NAMES)
    compared = 0
    for event in events:
        if isinstance(event, TransitionEvent):
            reference.transition(event.new_spec)
            engine.transition(event.new_spec)
            continue
        incomplete = engine.incomplete_state_count() > 0
        assert incomplete == (reference.incomplete_state_count() > 0)
        reference.process(event)
        if batched:
            engine.process_batch([event])
        else:
            engine.process(event)
        if incomplete:
            compared += 1
            assert engine.controller.current_fresh == reference.controller.current_fresh
            assert engine.controller.current_part == reference.controller.current_part
        assert records(engine.controller.freshness) <= records(reference.controller.freshness)
    assert engine.metrics.counts == reference.metrics.counts
    assert engine.output_lineages() == reference.output_lineages()
    assert engine.output_times == reference.output_times
    static = StaticPlanExecutor(schema, NAMES)
    for event in events:
        if not isinstance(event, TransitionEvent):
            static.process(event)
    assert sorted(engine.output_lineages()) == sorted(static.output_lineages())
