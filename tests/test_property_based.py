"""Property-based tests (hypothesis).

The central property is the paper's correctness contract (Section 2.2 and
the appendix): for *any* interleaving of arrivals and plan transitions, a
migration strategy must produce exactly the output of the never-migrating
plan — complete, closed, and duplicate-free.  Hypothesis drives random
stream contents, window sizes, plan shapes, and transition schedules.

Smaller properties cover the data structures: window FIFO discipline,
HashState against a plain list model, and the triangular-distribution
sampler.
"""

from collections import Counter as MultiSet

import hypothesis.strategies as hst
from hypothesis import given, settings

from tests.helpers import assert_same_output
from repro.engine.executor import interleave_transitions, run_events
from repro.eddy.cacq import CACQExecutor
from repro.migration.base import StaticPlanExecutor
from repro.migration.jisc import JISCStrategy
from repro.migration.moving_state import MovingStateStrategy
from repro.migration.parallel_track import ParallelTrackStrategy
from repro.operators.state import HashState
from repro.shard import RebalanceEvent, ShardedExecutor
from repro.streams.schema import Schema
from repro.streams.tuples import CompositeTuple, StreamTuple
from repro.streams.window import SlidingWindow

# -- workload strategies -------------------------------------------------------

STREAMS_4 = ("A", "B", "C", "D")


def permutations_of(names):
    return hst.permutations(list(names)).map(tuple)


@hst.composite
def workload(draw, names=STREAMS_4, max_tuples=120, max_key=6, max_window=8):
    """A random tuple sequence, window size, and transition schedule."""
    n = draw(hst.integers(min_value=10, max_value=max_tuples))
    tuples = [
        StreamTuple(
            draw(hst.sampled_from(names)),
            seq,
            draw(hst.integers(min_value=0, max_value=max_key)),
        )
        for seq in range(n)
    ]
    window = draw(hst.integers(min_value=1, max_value=max_window))
    n_transitions = draw(hst.integers(min_value=0, max_value=3))
    transitions = [
        (draw(hst.integers(min_value=0, max_value=n)), draw(permutations_of(names)))
        for _ in range(n_transitions)
    ]
    return Schema.uniform(names, window), tuples, sorted(transitions, key=lambda x: x[0])


# -- the main correctness property ----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(workload())
def test_jisc_equals_oracle(wl):
    schema, tuples, transitions = wl
    events = interleave_transitions(tuples, transitions)
    ref = run_events(StaticPlanExecutor(schema, STREAMS_4), events)
    jisc = run_events(JISCStrategy(schema, STREAMS_4), events)
    assert_same_output(ref, jisc)


@settings(max_examples=25, deadline=None)
@given(workload())
def test_moving_state_equals_oracle(wl):
    schema, tuples, transitions = wl
    events = interleave_transitions(tuples, transitions)
    ref = run_events(StaticPlanExecutor(schema, STREAMS_4), events)
    ms = run_events(MovingStateStrategy(schema, STREAMS_4), events)
    assert_same_output(ref, ms)


@settings(max_examples=25, deadline=None)
@given(workload())
def test_parallel_track_equals_oracle(wl):
    schema, tuples, transitions = wl
    events = interleave_transitions(tuples, transitions)
    ref = run_events(StaticPlanExecutor(schema, STREAMS_4), events)
    pt = run_events(
        ParallelTrackStrategy(schema, STREAMS_4, purge_check_interval=3), events
    )
    assert_same_output(ref, pt)


@settings(max_examples=25, deadline=None)
@given(workload())
def test_cacq_equals_oracle(wl):
    schema, tuples, transitions = wl
    events = interleave_transitions(tuples, transitions)
    ref = run_events(StaticPlanExecutor(schema, STREAMS_4), events)
    cq = run_events(CACQExecutor(schema, STREAMS_4), events)
    assert_same_output(ref, cq)


@hst.composite
def bushy_spec(draw, names=STREAMS_4):
    """A random binary tree over a permutation of the streams."""
    perm = list(draw(permutations_of(names)))

    def build(parts):
        if len(parts) == 1:
            return parts[0]
        cut = draw(hst.integers(min_value=1, max_value=len(parts) - 1))
        return (build(parts[:cut]), build(parts[cut:]))

    return build(perm)


@settings(max_examples=40, deadline=None)
@given(workload(), bushy_spec(), bushy_spec())
def test_jisc_bushy_transitions_equal_oracle(wl, spec1, spec2):
    schema, tuples, _ = wl
    third = len(tuples) // 3
    events = interleave_transitions(
        tuples, [(third, spec1), (2 * third, spec2)]
    )
    ref = run_events(StaticPlanExecutor(schema, STREAMS_4), events)
    jisc = run_events(JISCStrategy(schema, STREAMS_4), events)
    assert_same_output(ref, jisc)


@settings(max_examples=30, deadline=None)
@given(workload())
def test_jisc_is_duplicate_free(wl):
    schema, tuples, transitions = wl
    events = interleave_transitions(tuples, transitions)
    jisc = run_events(JISCStrategy(schema, STREAMS_4), events)
    counts = MultiSet(jisc.output_lineages())
    assert all(v == 1 for v in counts.values())


# -- sharded execution ------------------------------------------------------------


@hst.composite
def sharded_workload(draw, names=STREAMS_4):
    """A workload plus a shard count and a random rebalance schedule."""
    schema, tuples, transitions = draw(workload(names=names))
    num_shards = draw(hst.sampled_from([1, 2, 4]))
    n_rebalances = draw(hst.integers(min_value=0, max_value=2))
    rebalances = [
        (
            draw(hst.integers(min_value=0, max_value=len(tuples))),
            draw(
                hst.lists(
                    hst.integers(min_value=0, max_value=num_shards - 1),
                    min_size=16,
                    max_size=16,
                ).map(lambda shards: dict(enumerate(shards)))
            ),
            draw(hst.sampled_from(["lazy", "eager"])),
        )
        for _ in range(n_rebalances)
    ]
    rebalances.sort(key=lambda r: r[0])
    return schema, tuples, transitions, num_shards, rebalances


@settings(max_examples=30, deadline=None)
@given(sharded_workload())
def test_sharded_jisc_equals_oracle(wl):
    """For any interleaving of arrivals, transitions and rebalances, the
    sharded run must produce exactly the never-sharded, never-migrating
    plan's output — the conformance matrix's property-based twin."""
    schema, tuples, transitions, num_shards, rebalances = wl
    ref = run_events(
        StaticPlanExecutor(schema, STREAMS_4),
        interleave_transitions(tuples, transitions),
    )
    events = interleave_transitions(tuples, transitions)
    # splice rebalances in at their tuple positions (later ones first so
    # earlier indices stay valid; transitions already inserted shift
    # positions, so locate by counting tuples)
    for pos, assignment, mode in reversed(rebalances):
        seen = 0
        at = len(events)
        for i, ev in enumerate(events):
            if seen == pos:
                at = i
                break
            if isinstance(ev, StreamTuple):
                seen += 1
        events.insert(at, RebalanceEvent(assignment, mode))
    sharded = ShardedExecutor(
        schema, STREAMS_4, num_shards=num_shards, strategy="jisc", num_buckets=16
    )
    sharded.run(events)
    assert_same_output(ref, sharded)


# -- data-structure invariants ---------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(hst.lists(hst.integers(min_value=0, max_value=9), max_size=60),
       hst.integers(min_value=1, max_value=10))
def test_window_keeps_last_k(keys, size):
    w = SlidingWindow(size)
    tuples = [StreamTuple("R", i, k) for i, k in enumerate(keys)]
    for t in tuples:
        w.push(t)
    assert list(w) == tuples[-size:]


MODEL_STREAMS = ("A", "B", "C", "D")
MODEL_SEQS = hst.integers(min_value=0, max_value=3)


@hst.composite
def state_ops(draw):
    """A membership of 1-4 streams and an operation mix over its entries.

    Seqs come from a range small enough that duplicates, shared parts and
    removals of absent entries all occur.
    """
    arity = draw(hst.integers(min_value=1, max_value=4))
    seqs = hst.tuples(*[MODEL_SEQS] * arity)
    op = hst.one_of(
        hst.tuples(hst.just("add"), seqs),
        hst.tuples(hst.just("remove_entry"), seqs),
        hst.tuples(
            hst.just("remove_with_part"),
            hst.tuples(hst.integers(min_value=0, max_value=arity - 1), MODEL_SEQS),
        ),
    )
    return arity, draw(hst.lists(op, max_size=60))


def model_entry(seqs):
    """A fresh entry (never the stored object) with the given part seqs."""
    parts = [StreamTuple(s, seq, sum(seqs) % 3) for s, seq in zip(MODEL_STREAMS, seqs)]
    return parts[0] if len(parts) == 1 else CompositeTuple.of(*parts)


@settings(max_examples=200, deadline=None)
@given(state_ops())
def test_hash_state_matches_list_model(case):
    """``HashState`` is a deduplicating list, whatever the membership.

    The model is a plain list of seq tuples in insertion order; after every
    operation the state must agree with it on the return value, on
    ``entries()`` order, on every key bucket's order, on membership and on
    length.  Expiring every part afterwards must leave every internal
    container empty.
    """
    arity, ops = case
    state = HashState()
    model = []
    for action, arg in ops:
        if action == "add":
            assert state.add(model_entry(arg)) == (arg not in model)
            if arg not in model:
                model.append(arg)
        elif action == "remove_entry":
            assert state.remove_entry(model_entry(arg)) == (arg in model)
            if arg in model:
                model.remove(arg)
        else:
            position, seq = arg
            expected = [seqs for seqs in model if seqs[position] == seq]
            removed = state.remove_with_part((MODEL_STREAMS[position], seq))
            assert [model_entry(seqs) for seqs in expected] == removed
            model = [seqs for seqs in model if seqs[position] != seq]
        assert len(state) == len(model)
        assert list(state.entries()) == [model_entry(seqs) for seqs in model]
        for key in range(3):
            assert state.get(key) == [
                model_entry(seqs) for seqs in model if sum(seqs) % 3 == key
            ]
            assert state.contains_key(key) == bool(state.get(key))
        assert all(model_entry(seqs) in state for seqs in model)
    for position in range(arity):
        for seq in range(4):
            state.remove_with_part((MODEL_STREAMS[position], seq))
    assert len(state) == 0
    assert state.by_key == {} and state.by_ident == {}
    assert all(index == {} for index in state.part_index)


@settings(max_examples=100, deadline=None)
@given(hst.lists(hst.integers(0, 20), min_size=1, max_size=50))
def test_hash_state_remove_with_part_is_exhaustive(seqs):
    state = HashState()
    for seq in seqs:
        key = seq % 5
        other = StreamTuple("S", seq, key)
        state.add(CompositeTuple.of(StreamTuple("R", 999, key), other))
    removed = state.remove_with_part(("R", 999))
    assert len(state) == 0
    assert len(removed) == len(set(seqs))


@settings(max_examples=50, deadline=None)
@given(hst.integers(min_value=2, max_value=40), hst.integers(min_value=0, max_value=10_000))
def test_exchange_sampler_stays_in_support(n, seed):
    import random

    from repro.analysis.concentration import sample_exchange_distance

    rng = random.Random(seed)
    d = sample_exchange_distance(n, rng)
    assert 1 <= d <= n - 1
