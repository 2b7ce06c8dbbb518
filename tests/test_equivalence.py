"""Integration tests: every strategy's output equals the no-transition oracle.

These enforce the appendix theorems across realistic randomized workloads:

* **Complete** (Thm 1) — nothing missing vs. the oracle;
* **Closed** (Thm 2) — nothing spurious vs. the oracle;
* **Duplicate-free** (Thm 3) — multiset equality catches double emissions.
"""

import pytest

from tests.helpers import assert_same_output, output_multiset
from repro.eddy.cacq import CACQExecutor
from repro.eddy.stairs import JISCStairsExecutor, STAIRSExecutor
from repro.engine.executor import interleave_transitions, run_events
from repro.engine.queued import BufferedJISCStrategy
from repro.migration.base import StaticPlanExecutor
from repro.migration.jisc import JISCStrategy
from repro.migration.mjoin import MJoinExecutor
from repro.migration.moving_state import MovingStateStrategy
from repro.migration.parallel_track import ParallelTrackStrategy
from repro.plans.transitions import pairwise_exchange
from repro.workloads.scenarios import chain_scenario, frequency_events, swap_for_case

ALL_STRATEGIES = [
    JISCStrategy,
    MovingStateStrategy,
    ParallelTrackStrategy,
    CACQExecutor,
    STAIRSExecutor,
    JISCStairsExecutor,
    BufferedJISCStrategy,
    MJoinExecutor,
]


def run_all(scenario, events):
    ref = StaticPlanExecutor(scenario.schema, scenario.order)
    run_events(ref, events)
    expected = output_multiset(ref)  # once, for every strategy compared to it
    for cls in ALL_STRATEGIES:
        strategy = cls(scenario.schema, scenario.order)
        run_events(strategy, events)
        assert_same_output(ref, strategy, expected)
    return ref


@pytest.mark.parametrize("case", ["best", "worst"])
def test_single_transition_all_strategies(case):
    sc = chain_scenario(n_joins=4, n_tuples=1500, window=40, seed=11)
    swapped = swap_for_case(sc.order, case)
    events = interleave_transitions(list(sc.tuples), [(700, swapped)])
    ref = run_all(sc, events)
    assert len(ref.outputs) > 0  # the workload actually joins


@pytest.mark.parametrize("period", [150, 400])
def test_repeated_transitions_all_strategies(period):
    sc = chain_scenario(n_joins=3, n_tuples=2000, window=30, seed=23)
    events = frequency_events(sc, period=period, case="worst")
    run_all(sc, events)


def test_overlapping_transitions_same_position():
    sc = chain_scenario(n_joins=4, n_tuples=1200, window=30, seed=5)
    worst = swap_for_case(sc.order, "worst")
    best_of_worst = swap_for_case(worst, "best")
    events = interleave_transitions(
        list(sc.tuples), [(400, worst), (430, best_of_worst), (460, sc.order)]
    )
    run_all(sc, events)


def test_transition_before_any_tuple():
    sc = chain_scenario(n_joins=3, n_tuples=800, window=25, seed=2)
    events = interleave_transitions(
        list(sc.tuples), [(0, swap_for_case(sc.order, "worst"))]
    )
    run_all(sc, events)


def test_transition_after_last_tuple_is_harmless():
    sc = chain_scenario(n_joins=3, n_tuples=600, window=25, seed=3)
    events = interleave_transitions(
        list(sc.tuples), [(600, swap_for_case(sc.order, "best"))]
    )
    run_all(sc, events)


def test_arbitrary_pairwise_exchanges():
    sc = chain_scenario(n_joins=5, n_tuples=1500, window=25, seed=17)
    o1 = pairwise_exchange(sc.order, 1, 4)
    o2 = pairwise_exchange(o1, 2, 3)
    o3 = pairwise_exchange(o2, 0, 5)
    events = interleave_transitions(
        list(sc.tuples), [(400, o1), (700, o2), (1000, o3)]
    )
    run_all(sc, events)


def test_bushy_plan_transitions_jisc():
    """Bushy specs exercise Procedure 2 (recursive completion) and the
    Case-3 counter logic of Section 4.3."""
    sc = chain_scenario(n_joins=3, n_tuples=1500, window=30, seed=31)
    a, b, c, d = sc.order
    bushy1 = ((a, b), (c, d))
    bushy2 = ((a, c), (b, d))
    bushy3 = (((a, d), b), c)
    events = interleave_transitions(
        list(sc.tuples), [(400, bushy1), (700, bushy2), (1100, bushy3)]
    )
    ref = StaticPlanExecutor(sc.schema, sc.order)
    run_events(ref, events)
    for cls in (JISCStrategy, MovingStateStrategy):
        strategy = cls(sc.schema, sc.order)
        run_events(strategy, events)
        assert_same_output(ref, strategy)


def test_left_deep_to_bushy_and_back_jisc():
    sc = chain_scenario(n_joins=4, n_tuples=1500, window=25, seed=37)
    a, b, c, d, e = sc.order
    bushy = (((a, b), (c, d)), e)
    events = interleave_transitions(
        list(sc.tuples), [(500, bushy), (900, sc.order)]
    )
    ref = StaticPlanExecutor(sc.schema, sc.order)
    run_events(ref, events)
    st = JISCStrategy(sc.schema, sc.order)
    run_events(st, events)
    assert_same_output(ref, st)


def test_nested_loops_strategies_match_oracle():
    sc = chain_scenario(n_joins=3, n_tuples=700, window=20, seed=41)
    swapped = swap_for_case(sc.order, "worst")
    events = interleave_transitions(list(sc.tuples), [(300, swapped)])
    ref = StaticPlanExecutor(sc.schema, sc.order, join="nl")
    run_events(ref, events)
    for cls in (JISCStrategy, MovingStateStrategy, ParallelTrackStrategy):
        strategy = cls(sc.schema, sc.order, join="nl")
        run_events(strategy, events)
        assert_same_output(ref, strategy)


def test_duplicate_freedom_explicitly():
    """Theorem 3: no lineage may appear twice in any strategy's output."""
    sc = chain_scenario(n_joins=3, n_tuples=1200, window=30, seed=53)
    events = frequency_events(sc, period=200, case="worst")
    for cls in ALL_STRATEGIES:
        strategy = cls(sc.schema, sc.order)
        run_events(strategy, events)
        counts = output_multiset(strategy)
        dupes = {k: v for k, v in counts.items() if v > 1}
        assert not dupes, f"{strategy.name} produced duplicates: {list(dupes)[:3]}"


def test_skewed_keys_all_strategies():
    from repro.streams.generators import ZipfWorkload
    from repro.streams.schema import Schema
    from repro.workloads.scenarios import ChainScenario

    names = ("S0", "S1", "S2", "S3")
    tuples = tuple(ZipfWorkload(names, 1200, 30, skew=1.2, seed=7))
    sc = ChainScenario(Schema.uniform(names, 25), names, tuples)
    events = interleave_transitions(
        list(sc.tuples), [(500, swap_for_case(names, "worst"))]
    )
    run_all(sc, events)
