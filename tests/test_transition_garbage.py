"""A transition leaves nothing behind: garbage as a count that repeats exactly.

A discarded plan must die by reference count.  Until PR 21 every transition
left about 790 objects in reference cycles (``build_plan``'s recursive closure
pinned the old plan; the old joins' ``parent`` <-> ``left`` links were a second
cycle), so five dead ``HashState``s per transition sat in the young generations
until a collection found them — a fifth of ``migrate_churn``'s wall time.  With
the collector off, ``gc.collect()`` afterwards returns exactly what the run left
in cycles: 0, for every plan-replacing strategy.
"""

import gc
import weakref

import pytest

from repro.engine.executor import TransitionEvent, run_events
from repro.migration.jisc import JISCStrategy
from repro.migration.moving_state import MovingStateStrategy
from repro.migration.parallel_track import ParallelTrackStrategy
from repro.workloads.scenarios import chain_scenario, frequency_events

pytestmark = pytest.mark.hashseed

STRATEGIES = [JISCStrategy, MovingStateStrategy, ParallelTrackStrategy]
TRANSITIONS = 50
PERIOD = 100


def live_objects(strategy):
    """Tracked objects once what a run legitimately keeps — its output log —
    is emptied in place and a collection has untracked what it can."""
    for plan in strategy.live_plans():
        del plan.sink.outputs[:], plan.sink.output_times[:], plan.sink.retractions[:]
    del strategy.outputs[:], strategy.output_times[:]
    gc.collect()
    return len(gc.get_objects())


@pytest.mark.parametrize("cls", STRATEGIES, ids=lambda cls: cls.name)
def test_fifty_worst_case_transitions_leave_no_cyclic_garbage(cls):
    # 5 streams x window 15: a Parallel Track plan is purged within one period
    scenario = chain_scenario(4, (TRANSITIONS + 1) * PERIOD, 15, key_domain=20, seed=3)
    events = frequency_events(scenario, PERIOD, case="worst")
    second = [i for i, e in enumerate(events) if isinstance(e, TransitionEvent)][1]
    strategy = cls(scenario.schema, scenario.order)
    run_events(strategy, events[:second])  # the first transition and its completion wave
    baseline = live_objects(strategy)
    gc.disable()
    try:
        run_events(strategy, events[second:])
        collected = gc.collect()
    finally:
        gc.enable()
    assert sum(isinstance(e, TransitionEvent) for e in events[second:]) == TRANSITIONS - 1
    assert strategy.metrics.counts["hash_insert"] > 2 * len(scenario.tuples)  # states had content
    assert collected == 0
    # ... and nothing reachable piles up either: no dead plan is still referenced
    assert live_objects(strategy) <= baseline


@pytest.mark.parametrize("cls", [JISCStrategy, MovingStateStrategy], ids=lambda cls: cls.name)
def test_a_replaced_plan_is_dead_when_transition_returns(cls):
    scenario = chain_scenario(4, 600, 15, key_domain=20, seed=3)
    strategy = cls(scenario.schema, scenario.order)
    run_events(strategy, scenario.tuples)
    target = frequency_events(scenario, 300, case="worst")[300].new_spec
    kept = {op.identity for op in strategy.plan.internal}
    old = [(op.identity, weakref.ref(op), len(op.state)) for op in strategy.plan.internal]
    assert all(size > 0 for _, _, size in old)
    gc.collect()
    gc.disable()
    try:
        strategy.transition(target)
        alive = [identity for identity, ref, _ in old if ref() is not None]
    finally:
        gc.enable()
    kept &= {op.identity for op in strategy.plan.internal}
    assert len(kept) < len(old), "the transition adopted every state"
    # adopted or not, no old operator — and with it no state nobody adopted — is left
    assert alive == []
