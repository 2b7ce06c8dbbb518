"""The fused arrival path against the generic one, with no knob to pick a side.

Every engine — observed or not — feeds and evicts through the kernels of
``repro.operators.fused``; the operator classes' ``insert`` / ``process`` /
``remove`` are the definition the kernels were derived from and stay the
reference.  The product has no switch that selects them:
``tests.helpers.reference_path`` keeps kernels from compiling for the
duration of a ``with`` block, in tests and nowhere else.  The same events through both must leave the same
outputs in the same order, ``output_times`` bit for bit, ``Metrics.counts``,
``clock.now``, probe tallies and state contents — for every plan-building
strategy, every plan shape and forced transitions in mid-stream — and a run
with a ``RecordingTracer`` attached must be the fused run, value for value.
Join plans are also checked against ``NaiveJoinOracle``, which shares no code
with either path.
"""

import os
import random
from collections import Counter as MultiSet

import hypothesis.strategies as hst
import pytest
from hypothesis import given, settings

from repro.engine.checkpoint import checkpoint_strategy, restore_strategy
from repro.engine.cost import CostModel, VirtualClock
from repro.engine.executor import TransitionEvent, interleave_transitions, run_events
from repro.engine.metrics import Counter, Metrics
from repro.eddy.stairs import JISCStairsExecutor, STAIRSExecutor
from repro.engine.queued import BufferedJISCStrategy, QueueScheduler
from repro.migration.base import StaticPlanExecutor, hybrid_join_factory
from repro.migration.jisc import JISCStrategy
from repro.migration.moving_state import MovingStateStrategy
from repro.migration.parallel_track import ParallelTrackStrategy
from repro.obs.tracer import NULL_TRACER, RecordingTracer, Tracer
from repro.operators.fused import compile_plan
from repro.operators.joins import JoinOperator, SymmetricHashJoin
from repro.operators.scan import StreamScan
from repro.operators.setdiff import SetDifference
from repro.operators.sink import OutputSink
from repro.operators.unary import GroupByCount, Select
from repro.perf.profile import count_calls
from repro.optimizer import AdaptiveEngine, HysteresisTrigger
from repro.plans.build import PhysicalPlan, build_plan
from repro.plans.spec import left_deep
from repro.shard import RebalanceEvent, ShardedExecutor, skewed_assignment
from repro.shard.worker import ShardWorker
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.streams.window import window_contents
from repro.testing.naive import join_oracle_lineages
from repro.workloads.drift import SelectivityDriftWorkload
from repro.workloads.scenarios import chain_scenario, frequency_events, swap_for_case
from tests.helpers import reference_path

NAMES = ("A", "B", "C", "D")
BUSHY = (("A", "B"), ("C", "D"))


def arrivals(n, names=NAMES, n_keys=4, seed=3):
    rng = random.Random(seed)
    return [StreamTuple(rng.choice(names), seq, rng.randrange(n_keys)) for seq in range(n)]


def monotone_setdiff(left, right, metrics):
    return SetDifference(left, right, metrics, reappear_on_inner_expiry=False)


def setdiff_under_root(left, right, metrics):
    """``((A - B) JOIN C) JOIN D``: a set-difference below two hash joins."""
    if left.membership | right.membership == {"A", "B"}:
        return SetDifference(left, right, metrics)
    return SymmetricHashJoin(left, right, metrics)


def tops():
    return [
        lambda child, metrics: Select(child, lambda tup: tup.key != 1, metrics),
        lambda child, metrics: GroupByCount(child, metrics),
    ]


def fused_leaves(strategy):
    return [
        scan
        for plan in strategy.live_plans()
        for scan in plan.scans.values()
        if scan.fused is not None
    ]


def observe(strategy):
    """Everything the two paths must agree on."""
    metrics = strategy.metrics
    plans = []
    for plan in strategy.live_plans():
        ops = {}
        for op in plan.operators():
            status = op.state.status
            ops["".join(sorted(op.membership)) + ":" + op.kind] = (
                op.probes,
                op.hits,
                [entry.lineage for entry in op.state.entries()],
                status.complete,
                None if status.pending is None else sorted(status.pending),
            )
        windows = {
            name: [t.seq for t in window_contents(scan)] for name, scan in plan.scans.items()
        }
        plans.append((ops, windows, list(plan.sink.retractions)))
    return {
        "outputs": strategy.output_lineages(),
        "output_times": list(strategy.output_times),
        "counts": dict(metrics.counts),
        "now": metrics.clock.now if metrics.clock is not None else None,
        "plans": plans,
        "tops": [
            (top.counts if isinstance(top, GroupByCount) else None, len(top.state))
            for top in getattr(strategy, "tops", ())
        ],
    }


def drive(strategy, events, per_tuple):
    if not per_tuple:
        run_events(strategy, events)
        return
    for event in events:
        if isinstance(event, TransitionEvent):
            strategy.transition(event.new_spec)
        else:
            strategy.process(event)


def on_both_paths(run):
    """``(run(False), run(True))``, the second on the reference path; ``run``
    is told which side it is on so it can assert it."""
    fused = run(False)
    with reference_path():
        reference = run(True)
    return fused, reference


def run_both(make, events, per_tuple=False):
    """``(fused strategy, reference strategy)`` after the same ``events``."""

    def run(reference):
        strategy = make()
        drive(strategy, events, per_tuple)
        return strategy

    fused, reference = on_both_paths(run)
    if isinstance(events[-1], StreamTuple):  # a new plan has no kernel before its first feed
        assert fused_leaves(fused), "the engine never compiled a kernel"
    assert not fused_leaves(reference), "the reference side compiled a kernel"
    return fused, reference


def run_traced(make, events, per_tuple=False):
    """A ``RecordingTracer``-attached strategy after ``events``: fused like
    any other, its per-phase counts summing to ``Metrics.counts``."""
    traced = make()
    tracer = RecordingTracer()
    tracer.attach(traced)
    drive(traced, events, per_tuple)
    if isinstance(events[-1], StreamTuple):
        assert fused_leaves(traced), "an observer kept the engine off the fused path"
    assert tracer.counts_total() == traced.metrics.counts
    return traced


def assert_agree(fused, reference):
    want = observe(reference)
    got = observe(fused)
    for what in want:
        assert got[what] == want[what], what


# -- the matrix ------------------------------------------------------------------

#: name -> (schema, initial spec, strategy keyword options, transition targets)
SHAPES = {
    "left_deep": (Schema.uniform(NAMES, 6), NAMES, {}, [("D", "C", "B", "A"), ("B", "D", "A", "C")]),
    "bushy": (Schema.uniform(NAMES, 6), BUSHY, {}, [(("A", "C"), ("B", "D")), NAMES]),
    "hybrid_nl": (
        Schema.uniform(NAMES, 6),
        NAMES,
        {"op_factory": hybrid_join_factory({"C"})},
        [("C", "A", "B", "D"), ("A", "B", "D", "C")],
    ),
    "unary_tops": (
        Schema.uniform(NAMES, 6),
        NAMES,
        {"top_factories": tops()},
        [("C", "D", "A", "B"), ("B", "A", "D", "C")],
    ),
    "time_windows": (
        Schema.uniform(NAMES, 9, window_kind="time"),
        NAMES,
        {},
        [("D", "B", "A", "C"), ("C", "A", "D", "B")],
    ),
    "setdiff_chain": (
        Schema.uniform(NAMES, 6),
        NAMES,
        {"op_factory": monotone_setdiff},
        [("A", "D", "B", "C"), ("A", "C", "D", "B")],
    ),
    "setdiff_under_root": (
        Schema.uniform(NAMES, 6),
        NAMES,
        {"op_factory": setdiff_under_root},
        [],
    ),
}

#: Every engine of the conformance matrix that builds plans.  The two eddy
#: flavours count on ``EddyMetrics``: their kernels fuse no join level.
STRATEGIES = {
    "static": StaticPlanExecutor,
    "jisc": JISCStrategy,
    "moving_state": MovingStateStrategy,
    "parallel_track": ParallelTrackStrategy,
    "stairs": STAIRSExecutor,
    "jisc_stairs": JISCStairsExecutor,
}


def applicable(strategy, shape):
    if strategy in ("parallel_track", "stairs", "jisc_stairs"):
        # their constructors take neither an operator factory nor tops
        return not SHAPES[shape][2]
    if strategy == "moving_state":
        # the eager rebuild is defined for joins only
        return not shape.startswith("setdiff")
    return True


CASES = [
    (strategy, shape)
    for strategy in sorted(STRATEGIES)
    for shape in sorted(SHAPES)
    if applicable(strategy, shape)
]


def schedule(shape, tuples):
    """Forced transitions mid-stream; the second and third overlap (the
    states the second left incomplete are still incomplete at the third)."""
    _, initial, _, targets = SHAPES[shape]
    if not targets:
        return list(tuples)
    n = len(tuples)
    return interleave_transitions(
        tuples,
        [(n // 4, targets[0]), (n // 2, targets[1]), (n // 2 + 2, initial), (n // 2 + 2, targets[0])],
    )


@pytest.mark.parametrize("per_tuple", [False, True], ids=["batch", "per_tuple"])
@pytest.mark.parametrize("strategy,shape", CASES)
def test_fused_and_traced_paths_agree(strategy, shape, per_tuple):
    schema, initial, options, _ = SHAPES[shape]
    tuples = arrivals(160)
    events = schedule(shape, tuples)

    def make():
        return STRATEGIES[strategy](schema, initial, **options)

    fused, reference = run_both(make, events, per_tuple)
    assert_agree(fused, reference)
    assert_agree(run_traced(make, events, per_tuple), fused)
    if shape in ("left_deep", "bushy", "hybrid_nl"):
        assert MultiSet(fused.output_lineages()) == MultiSet(
            join_oracle_lineages(schema, NAMES, tuples)
        )


def test_static_executor_is_fused_for_hash_joins_only():
    """The fused prefix ends at the first ancestor that is not exactly a
    symmetric hash join; the leaf below it still has a kernel."""
    strategy = StaticPlanExecutor(
        Schema.uniform(NAMES, 6), NAMES, op_factory=hybrid_join_factory({"C"})
    )
    run_events(strategy, arrivals(40))
    assert len(fused_leaves(strategy)) == 4
    assert strategy.metrics.get(Counter.NL_COMPARE) > 0


@hst.composite
def random_run(draw):
    names = NAMES[: draw(hst.integers(min_value=2, max_value=4))]

    def spec():
        perm = list(draw(hst.permutations(list(names))))

        def build(parts):
            if len(parts) == 1:
                return parts[0]
            cut = draw(hst.integers(min_value=1, max_value=len(parts) - 1))
            return (build(parts[:cut]), build(parts[cut:]))

        return build(perm)

    n = draw(hst.integers(min_value=10, max_value=90))
    tuples = [
        StreamTuple(draw(hst.sampled_from(names)), seq, draw(hst.integers(0, 4)))
        for seq in range(n)
    ]
    transitions = sorted(
        ((draw(hst.integers(0, n)), spec()) for _ in range(draw(hst.integers(0, 4)))),
        key=lambda pair: pair[0],
    )
    window = draw(hst.integers(min_value=1, max_value=7))
    strategy = draw(hst.sampled_from(sorted(STRATEGIES)))
    return names, spec(), window, tuples, transitions, strategy


@settings(max_examples=60, deadline=None)
@given(random_run())
def test_random_plans_and_schedules_agree(run):
    names, initial, window, tuples, transitions, strategy = run
    schema = Schema.uniform(names, window)
    events = interleave_transitions(tuples, transitions)
    fused, reference = run_both(lambda: STRATEGIES[strategy](schema, initial), events)
    assert_agree(fused, reference)
    assert MultiSet(fused.output_lineages()) == MultiSet(
        join_oracle_lineages(schema, names, tuples)
    )


# -- the sharded path --------------------------------------------------------------


def test_sharded_executor_fused_and_traced_agree():
    """Workers feed and evict through the same two doors; a fluid rebalance
    replays moved keys (truncating the sink lists) in between."""
    names = ("A", "B", "C")
    schema = Schema.uniform(names, 8)
    tuples = arrivals(300, names, n_keys=9, seed=11)
    events = (
        tuples[:120]
        + [RebalanceEvent(skewed_assignment(64, 1), "lazy", batch_keys=2)]
        + tuples[120:200]
        + [TransitionEvent(("C", "A", "B"))]
        + tuples[200:]
    )

    def make(reference, traced=False):
        executor = ShardedExecutor(schema, names, num_shards=3, inter_arrival=1.0)
        if traced:
            for worker in executor.workers:
                RecordingTracer().attach(worker.metrics)
        executor.run(events)
        executor.drain_rebalance()
        return executor

    fused, reference = on_both_paths(make)
    traced = make(False, traced=True)
    assert fused.output_lineages() == reference.output_lineages() == traced.output_lineages()
    assert any(m.tuples_replayed for m in fused.moves)
    # every key ends up on shard 1: only its new plan is fed after the transition
    assert fused_leaves(fused.workers[1].strategy) and fused_leaves(traced.workers[1].strategy)
    for ours, theirs, observed in zip(fused.workers, reference.workers, traced.workers):
        assert not fused_leaves(theirs.strategy)
        assert_agree(ours.strategy, theirs.strategy)
        assert_agree(observed.strategy, ours.strategy)
    assert MultiSet(fused.output_lineages()) == MultiSet(
        join_oracle_lineages(schema, names, tuples)
    )


def test_coordinator_driven_evict_uses_the_compiled_expiry():
    schema = Schema.uniform(NAMES, 1 << 40)
    tuples = arrivals(60)

    def make(reference):
        strategy = JISCStrategy(schema, NAMES)
        for i, tup in enumerate(tuples):
            strategy.process(tup)
            if i >= 12:
                old = tuples[i - 12]
                assert strategy.plan.scans[old.stream].evict(old) is True
        assert strategy.plan.scans["A"].evict(tuples[0]) is False
        assert bool(fused_leaves(strategy)) is not reference
        return strategy

    assert_agree(*on_both_paths(make))


# -- attaching a tracer mid-run ------------------------------------------------------


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_tracer_attached_mid_run_keeps_phase_counts_exact(strategy):
    """docs/OBSERVABILITY.md's zero-perturbation guarantee: whatever was
    counted before the tracer came is credited on attach, once, and from then
    on boundary deltas keep the per-phase sums exact — on the same kernels."""
    schema = Schema.uniform(NAMES, 6)
    tuples = arrivals(160)
    events = interleave_transitions(
        tuples, [(40, ("D", "C", "B", "A")), (110, ("B", "D", "A", "C"))]
    )
    with reference_path():
        reference = run_events(STRATEGIES[strategy](schema, NAMES), events)

    late = STRATEGIES[strategy](schema, NAMES)
    run_events(late, events[:70])
    kernels = {scan: scan.fused for scan in fused_leaves(late)}
    assert kernels
    tracer = RecordingTracer()
    tracer.attach(late)
    assert tracer.phase_counts == {"steady": late.metrics.counts}
    run_events(late, events[70:80])  # no transition in here
    assert all(scan.fused is kernel for scan, kernel in kernels.items())
    run_events(late, events[80:])
    assert tracer.counts_total() == late.metrics.counts
    assert_agree(late, reference)


# -- which leaves get a kernel ---------------------------------------------------------


def test_buffered_strategy_never_compiles_a_kernel():
    schema = Schema.uniform(NAMES, 6)
    strategy = BufferedJISCStrategy(schema, NAMES)
    events = interleave_transitions(arrivals(80), [(30, ("D", "C", "B", "A"))])
    run_events(strategy, events)
    strategy.plan.scans["A"].evict(next(iter(strategy.plan.scans["A"].window)))
    assert not fused_leaves(strategy)
    assert strategy.metrics.get(Counter.QUEUE_OP) > 0
    reference = run_events(StaticPlanExecutor(schema, NAMES), events)
    assert MultiSet(strategy.output_lineages()) == MultiSet(reference.output_lineages())


def test_install_scheduler_after_first_feed_goes_back_to_the_queues():
    """A buffered strategy is wired in its constructor; one that is re-wired
    by hand after it ran unqueued must not keep feeding past its queues
    (both doors read ``scan.scheduler`` per call)."""
    schema = Schema.uniform(NAMES, 6)
    tuples = arrivals(80)
    strategy = BufferedJISCStrategy(schema, NAMES)
    for op in strategy.plan.operators():
        op.scheduler = None
    for tup in tuples[:40]:
        strategy.process(tup)
    assert len(fused_leaves(strategy)) == len(NAMES)
    assert strategy.metrics.get(Counter.QUEUE_OP) == 0
    strategy.install_scheduler(QueueScheduler(strategy.metrics))
    for tup in tuples[40:]:
        strategy.process(tup)
    strategy.plan.scans["A"].evict(next(iter(strategy.plan.scans["A"].window)))
    # every hop of the second half went through a queue: none ran a kernel
    buffered = BufferedJISCStrategy(schema, NAMES)
    for tup in tuples[40:]:
        buffered.process(tup)
    assert strategy.metrics.get(Counter.QUEUE_OP) >= buffered.metrics.get(Counter.QUEUE_OP) > 0
    reference = run_events(StaticPlanExecutor(schema, NAMES), tuples)
    assert MultiSet(strategy.output_lineages()) == MultiSet(reference.output_lineages())


def test_install_tops_after_first_feed_reaches_the_new_tops():
    """The kernels leave the prefix through ``emit`` / ``emit_removal``, which
    read ``parent`` per call: tops installed over a fed plan see what follows."""

    def run(reference):
        strategy = JISCStrategy(Schema.uniform(NAMES, 6), NAMES)
        tuples = arrivals(80)
        run_events(strategy, tuples[:40])
        strategy.tops = [GroupByCount(strategy.plan.root, strategy.metrics)]
        strategy._install_tops()
        run_events(strategy, tuples[40:])
        return strategy

    fused, reference = on_both_paths(run)
    assert len(fused_leaves(fused)) == len(NAMES) and not fused_leaves(reference)
    assert sum(fused.tops[0].counts.values()) > 0
    assert_agree(fused, reference)


def test_a_plans_first_arrival_runs_the_operators_and_the_rest_the_kernel(monkeypatch):
    """``PhysicalPlan.feed``: every leaf's kernel is compiled after the plan's
    first arrival, which ``StreamScan.insert`` handles itself (until PR 21 each
    leaf's first arrival did: four generic arrivals here, and four compiles)."""
    seen = []
    generic = JoinOperator.process

    def spy(self, tup, child):
        seen.append(tup)
        generic(self, tup, child)

    monkeypatch.setattr(JoinOperator, "process", spy)
    strategy = StaticPlanExecutor(Schema.uniform(NAMES, 6), NAMES)
    tuples = arrivals(80)
    strategy.process(tuples[0])
    assert seen == [tuples[0]] and len(fused_leaves(strategy)) == len(NAMES)
    run_events(strategy, tuples[1:])
    assert seen == [tuples[0]] and len(strategy.outputs) > 0


def test_transition_compiles_new_kernels_around_adopted_states():
    schema = Schema.uniform(NAMES, 6)
    strategy = JISCStrategy(schema, NAMES)
    run_events(strategy, arrivals(40))
    before = {scan.stream: scan.fused for scan in fused_leaves(strategy)}
    strategy.transition(("D", "C", "B", "A"))
    assert not fused_leaves(strategy)
    strategy.process(StreamTuple("A", 1000, 1))
    # one compile for the plan (until PR 21: leaf A's alone, the others' later)
    assert {scan.stream for scan in fused_leaves(strategy)} == set(NAMES)
    assert all(scan.fused is not before[scan.stream] for scan in fused_leaves(strategy))


# -- fail-loud edges ---------------------------------------------------------------------


def test_wrong_stream_raises_before_touching_the_window(metrics):
    plan = build_plan(("A", "B"), Schema.uniform(("A", "B"), 2), metrics)
    plan.feed(StreamTuple("A", 0, 1))
    scan = plan.scans["A"]
    stranger = StreamTuple("B", 1, 1)
    with pytest.raises(ValueError) as generic:
        scan.insert(stranger)
    with pytest.raises(ValueError) as fused:
        scan.fused.arrive(stranger)
    assert str(fused.value) == str(generic.value)
    assert [t.seq for t in scan.window] == [0]
    assert metrics.counts == {Counter.HASH_INSERT: 1, Counter.TUPLE_EMIT: 1, Counter.HASH_PROBE: 1}


class Boom(Exception):
    pass


def run_until_hook_raises(reference):
    """A completion hook that raises in the middle of an arrival's cascade,
    once every leaf of the new plan had its first arrival (the one that runs
    the operators themselves on either side)."""
    schema = Schema.uniform(NAMES, 6)
    strategy = JISCStrategy(schema, NAMES)
    run_events(strategy, arrivals(60, n_keys=12))
    strategy.transition(("D", "C", "B", "A"))
    calls = []
    raise_at = [None]

    def hook(tup, join, opposite):
        calls.append("".join(sorted(opposite.membership)))
        if len(calls) == raise_at[0]:
            raise Boom()
        strategy.controller._completion_hook(tup, join, opposite)

    for op in strategy.plan.internal:
        op.completion_hook = hook
    # a hook installed by hand is the generic seam: nothing is bound for it
    # (the kernels call what the controller bound at ``attach`` otherwise)
    strategy.plan.completers.clear()
    tuples = arrivals(40, n_keys=12, seed=9)
    warm = next(n for n in range(40) if {t.stream for t in tuples[:n]} == set(NAMES))
    run_events(strategy, tuples[:warm])
    raise_at[0] = len(calls) + 5
    with pytest.raises(Boom):
        run_events(strategy, tuples[warm:])
    return strategy, calls


def test_hook_raising_mid_cascade_leaves_the_generic_paths_accounting():
    (fused, fused_calls), (reference, reference_calls) = on_both_paths(run_until_hook_raises)
    assert fused_calls == reference_calls and len(fused_calls) > 5
    assert len(fused_leaves(fused)) == len(NAMES) and not fused_leaves(reference)
    assert_agree(fused, reference)


def test_expire_hook_raising_after_advancing_the_clock_is_not_overwritten():
    """The kernel's clock copy is stale once a hook it called counted
    something and raised; leaving through the eviction door must not write
    it back over what the hook left."""

    def run(reference):
        strategy = StaticPlanExecutor(Schema.uniform(NAMES, 1 << 40), NAMES)
        tuples = arrivals(40)
        run_events(strategy, tuples)

        def hook(evicted):
            strategy.metrics.count(Counter.PURGE_CHECK)
            raise Boom()

        victim = tuples[5]
        scan = strategy.plan.scans[victim.stream]
        scan.expire_hook = hook
        with pytest.raises(Boom):
            scan.evict(victim)
        return strategy

    fused, reference = on_both_paths(run)
    assert fused_leaves(fused) and not fused_leaves(reference)
    assert fused.metrics.get(Counter.PURGE_CHECK) == 1
    assert_agree(fused, reference)


def test_arity_error_from_state_add_leaves_the_generic_paths_accounting():
    def run(reference):
        metrics = Metrics(clock=VirtualClock())
        plan = build_plan(left_deep(NAMES), Schema.uniform(NAMES, 6), metrics)
        for tup in arrivals(50):
            plan.feed(tup)
        # an entry of another membership: the next result does not fit
        plan.state_of("ABC").clear()
        plan.state_of("ABC").add(StreamTuple("A", 999, 0))
        with pytest.raises(ValueError, match="does not fit"):
            for tup in arrivals(50, seed=4):
                plan.feed(StreamTuple(tup.stream, 100 + tup.seq, tup.key))
        return metrics, plan

    (fused, fused_plan), (reference, reference_plan) = on_both_paths(run)
    assert any(scan.fused for scan in fused_plan.scans.values())
    assert not any(scan.fused for scan in reference_plan.scans.values())
    assert fused.counts == reference.counts
    assert fused.clock.now == reference.clock.now
    assert fused_plan.sink.output_times == reference_plan.sink.output_times


def test_metrics_without_a_clock_tally_only():
    def run(reference):
        metrics = Metrics(clock=None)
        plan = build_plan(left_deep(NAMES), Schema.uniform(NAMES, 6), metrics)
        for tup in arrivals(120):
            plan.feed(tup)
        return metrics, plan

    (fused, fused_plan), (reference, reference_plan) = on_both_paths(run)
    assert all(scan.fused for scan in fused_plan.scans.values())
    assert not any(scan.fused for scan in reference_plan.scans.values())
    assert fused.clock is None and fused.counts == reference.counts
    assert fused_plan.sink.output_times == reference_plan.sink.output_times
    assert fused_plan.sink.output_lineages() == reference_plan.sink.output_lineages()


def test_op_missing_from_the_cost_table_costs_the_default():
    class Sparse(CostModel):
        """A model whose table lacks the pipeline's ops: they cost ``default``."""

        def table(self):
            return {Counter.OUTPUT: 0.5, Counter.HASH_PROBE: 1.0}

    def run(reference):
        metrics = Metrics(clock=VirtualClock(Sparse(default=0.7)))
        plan = build_plan(left_deep(NAMES), Schema.uniform(NAMES, 6), metrics)
        for tup in arrivals(120):
            plan.feed(tup)
        return metrics, plan

    (fused, fused_plan), (reference, reference_plan) = on_both_paths(run)
    assert all(scan.fused for scan in fused_plan.scans.values())
    assert not any(scan.fused for scan in reference_plan.scans.values())
    assert fused.counts == reference.counts
    assert fused.clock.now == reference.clock.now
    assert fused_plan.sink.output_times == reference_plan.sink.output_times
    inserts = fused.get(Counter.HASH_INSERT)
    assert inserts and fused.clock.now > 0.7 * inserts


def test_hand_built_operators_on_other_metrics_are_not_fused():
    """A join counting on a different ``Metrics`` ends the fused prefix."""
    ours, theirs = Metrics(clock=VirtualClock()), Metrics(clock=VirtualClock())
    a, b = StreamScan("A", 4, ours), StreamScan("B", 4, ours)
    join = SymmetricHashJoin(a, b, theirs)
    sink = OutputSink(theirs)
    sink.attach(join)
    compile_plan(PhysicalPlan(("A", "B"), join, sink, {"A": a, "B": b}, [join]))
    for scan, tup in ((a, StreamTuple("A", 0, 1)), (b, StreamTuple("B", 1, 1))):
        scan.fused.arrive(tup)
    assert ours.counts == {Counter.HASH_INSERT: 2, Counter.TUPLE_EMIT: 2}
    assert theirs.counts == {
        Counter.HASH_PROBE: 2,
        Counter.HASH_INSERT: 1,
        Counter.TUPLE_EMIT: 1,
        Counter.OUTPUT: 1,
    }


# -- the sink hop ------------------------------------------------------------------------
#
# A plain ``OutputSink`` right above the fused prefix is written by the last
# level itself (``emit`` + ``OutputSink.process`` in their order, one OUTPUT
# tally) and retractions are appended by the cascade.  Same rule as above: no
# knob — every engine is the fused side, ``reference_path`` the generic one.


def plan_view(metrics, plan):
    sink = plan.sink
    return {
        "outputs": [tup.lineage for tup in sink.outputs],
        "output_times": list(sink.output_times),
        "retractions": list(sink.retractions),
        "counts": dict(metrics.counts),
        "now": metrics.clock.now if metrics.clock is not None else None,
    }


class NoOutputCost(CostModel):
    """A table without ``output`` (and without ``tuple_emit``): both cost ``default``."""

    def table(self):
        return {Counter.HASH_PROBE: 1.0, Counter.HASH_INSERT: 0.3, Counter.STATE_REMOVE: 0.3}


SINK_METRICS = {
    "default_costs": lambda: Metrics(clock=VirtualClock()),
    "no_clock": lambda: Metrics(clock=None),
    "output_not_in_cost_table": lambda: Metrics(clock=VirtualClock(NoOutputCost(default=0.7))),
}


@pytest.mark.parametrize("kind", sorted(SINK_METRICS))
def test_sink_inside_the_kernel_agrees_with_emit_and_sink_process(kind, monkeypatch):
    sink_calls = []
    generic = OutputSink.process

    def spy(self, tup, child):
        sink_calls.append(tup)
        generic(self, tup, child)

    monkeypatch.setattr(OutputSink, "process", spy)

    def run(reference):
        metrics = SINK_METRICS[kind]()
        plan = build_plan(left_deep(NAMES), Schema.uniform(NAMES, 6), metrics)
        del sink_calls[:]
        for tup in arrivals(200):
            plan.feed(tup)
        return plan_view(metrics, plan), len(sink_calls)

    (fused, fused_calls), (reference, reference_calls) = on_both_paths(run)
    assert fused == reference
    assert len(fused["outputs"]) > 20 and len(fused["retractions"]) > 20
    assert fused["counts"][Counter.OUTPUT] == len(fused["outputs"])
    # the generic path calls the sink once per output, the kernels only on
    # the plan's first arrival (which, alone in its window, outputs nothing)
    assert reference_calls == len(reference["outputs"]) and fused_calls == 0
    if kind == "no_clock":
        assert fused["output_times"] == [float(i + 1) for i in range(len(fused["outputs"]))]
    if kind == "output_not_in_cost_table":
        # 0.7 (emit) + 0.7 (output) after the insert that made the result
        assert fused["now"] > 1.4 * len(fused["outputs"])


class OutputSpy(Tracer):
    """``enabled``, like the recorder and the telemetry hub (and, like many a
    subclass, with an ``__init__`` that never calls the base's).  ``output``
    notes what it can see of ``Metrics`` at the moment it is called, then
    counts an op of its own: whatever runs outside the kernel may advance the
    clock."""

    enabled = True

    def __init__(self, metrics, raise_at=None):
        self.metrics = metrics
        self.raise_at = raise_at
        self.seen = []
        metrics.tracer = self

    def output(self, tup, when):
        metrics = self.metrics
        self.seen.append((tup.lineage, when, dict(metrics.counts), metrics.clock.now))
        metrics.count(Counter.DEDUP_CHECK)
        if len(self.seen) == self.raise_at:
            raise Boom()


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_enabled_tracer_sees_everything_handed_over_at_each_output(strategy):
    schema = Schema.uniform(NAMES, 6)
    events = schedule("left_deep", arrivals(200))

    def run(reference):
        engine = STRATEGIES[strategy](schema, NAMES)
        spy = OutputSpy(engine.metrics)
        run_events(engine, events)
        return engine, spy

    (fused, fused_spy), (generic, generic_spy) = on_both_paths(run)
    assert fused_leaves(fused) and not fused_leaves(generic)
    assert fused_spy.seen == generic_spy.seen and len(fused_spy.seen) > 20
    sink_times = sorted(t for plan in fused.live_plans() for t in plan.sink.output_times)
    if strategy != "parallel_track":  # a discarded track takes its sink along
        assert [when for _, when, _, _ in fused_spy.seen] == sink_times
    for i, (_, when, counts, now) in enumerate(fused_spy.seen):
        # the output is counted and the clock stands where the sink stamped it
        assert when == now and counts[Counter.OUTPUT] == i + 1
    assert fused.metrics.get(Counter.DEDUP_CHECK) >= len(fused_spy.seen)
    assert_agree(fused, generic)


def test_enabled_tracer_attached_and_detached_under_live_kernels():
    """``metrics.tracer.enabled`` is read per output, not at compile time."""
    engine = StaticPlanExecutor(Schema.uniform(NAMES, 6), NAMES)
    tuples = arrivals(240)
    run_events(engine, tuples[:80])
    kernels = [scan.fused for scan in fused_leaves(engine)]
    assert len(kernels) == len(NAMES)
    start = len(engine.outputs)
    spy = OutputSpy(engine.metrics)
    run_events(engine, tuples[80:160])
    stop = len(engine.outputs)
    engine.metrics.tracer = NULL_TRACER
    run_events(engine, tuples[160:])
    assert [scan.fused for scan in fused_leaves(engine)] == kernels
    assert start < stop < len(engine.outputs)
    assert [lineage for lineage, *_ in spy.seen] == engine.output_lineages()[start:stop]
    assert [when for _, when, *_ in spy.seen] == engine.output_times[start:stop]
    with reference_path():
        reference = run_events(StaticPlanExecutor(Schema.uniform(NAMES, 6), NAMES), tuples)
    assert engine.output_lineages() == reference.output_lineages()
    assert engine.metrics.counts == {
        **reference.metrics.counts,
        Counter.DEDUP_CHECK: len(spy.seen),
    }
    assert engine.metrics.clock.now == pytest.approx(
        reference.metrics.clock.now + 0.5 * len(spy.seen)
    )


def test_expire_hook_that_counts_is_not_overwritten_by_the_arrival_that_evicted():
    """The eviction an arrival causes shares the arrival's clock copy: it is
    reloaded after a hook that returns, too (the eviction door just leaves)."""

    def run(reference):
        strategy = StaticPlanExecutor(Schema.uniform(NAMES, 6), NAMES)
        tuples = arrivals(160)
        run_events(strategy, tuples[:40])
        for scan in strategy.plan.scans.values():
            scan.expire_hook = lambda evicted: strategy.metrics.count(Counter.PURGE_CHECK)
        run_events(strategy, tuples[40:])
        return strategy

    fused, reference = on_both_paths(run)
    assert fused_leaves(fused) and not fused_leaves(reference)
    assert fused.metrics.get(Counter.PURGE_CHECK) > 100
    assert_agree(fused, reference)


def test_tracer_output_raising_mid_cascade_leaves_the_generic_paths_accounting():
    schema = Schema.uniform(NAMES, 6)

    def run(reference):
        engine = JISCStrategy(schema, NAMES)
        OutputSpy(engine.metrics, raise_at=25)
        with pytest.raises(Boom):
            run_events(engine, arrivals(200))
        return engine

    fused, generic = on_both_paths(run)
    assert len(fused_leaves(fused)) == len(NAMES) and not fused_leaves(generic)
    assert len(fused.outputs) == 25
    assert_agree(fused, generic)


def test_hub_series_are_the_same_on_the_fused_and_the_generic_path():
    """A hub-driven adaptive engine is fused — with an inner recording tracer
    too — and publishes the very series it does on the reference path."""
    schema = Schema.uniform(NAMES, 12)
    tuples = SelectivityDriftWorkload(
        NAMES, [(140, "B"), (280, "C")], base_domain=6, scatter=24, seed=201
    ).materialize()

    def run(reference, inner=None):
        engine = AdaptiveEngine(
            JISCStrategy(schema, NAMES),
            policy=HysteresisTrigger(min_improvement=0.08, confirm=2, cooldown=64),
            evaluate_every=16,
            min_samples=32,
            hub_options={"selectivity_window": 96, "drift_block": 16, "drift_min_samples": 32},
            inner=inner,
        )
        engine.run(tuples)
        return engine

    fused, generic = on_both_paths(run)
    recorded = run(False, inner=RecordingTracer())
    assert fused_leaves(fused.target) and fused_leaves(recorded.target)
    assert not fused_leaves(generic.target)
    assert fused.fire_count == generic.fire_count == recorded.fire_count >= 1
    snapshot = fused.telemetry.take_snapshot()
    assert snapshot == generic.telemetry.take_snapshot() == recorded.telemetry.take_snapshot()
    assert_agree(fused.target, generic.target)
    assert_agree(recorded.target, fused.target)


def test_install_tops_after_first_feed_stops_the_kernel_writing_the_sink():
    """``_install_tops`` re-parents the root under live kernels: from then on
    results and retractions reach the sink through the tops or not at all."""

    def run(reference):
        strategy = JISCStrategy(Schema.uniform(NAMES, 6), NAMES)
        tuples = arrivals(200)
        run_events(strategy, tuples[:80])
        kernels = [scan.fused for scan in strategy.plan.scans.values()]
        strategy.tops = [factory(strategy.plan.root, strategy.metrics) for factory in tops()]
        strategy._install_tops()
        mark = len(strategy.outputs), len(strategy.plan.sink.retractions)
        run_events(strategy, tuples[80:])
        assert [scan.fused for scan in strategy.plan.scans.values()] == kernels
        return strategy, mark

    (fused, mark), (reference, _) = on_both_paths(run)
    assert len(fused_leaves(fused)) == len(NAMES) and not fused_leaves(reference)
    late = fused.outputs[mark[0]:]
    assert late and all(tup.key != 1 for tup in late)  # the Select dropped key 1
    assert len(fused.plan.sink.retractions) > mark[1]
    assert_agree(fused, reference)


def test_parallel_track_with_two_live_tracks_writes_each_tracks_own_sink():
    schema = Schema.uniform(NAMES, 6)
    tuples = arrivals(120)

    def run(reference):
        strategy = ParallelTrackStrategy(schema, NAMES, purge_check_interval=4)
        run_events(strategy, tuples[:60])
        strategy.transition(("D", "C", "B", "A"))
        both_live = kernels = 0
        for tup in tuples[60:]:
            strategy.process(tup)
            if strategy.live_track_count() == 2:
                both_live += 1
                kernels = max(kernels, len(fused_leaves(strategy)))
            for track in strategy.tracks:  # the dedup cursor follows each sink
                assert track.cursor == len(track.plan.sink.outputs)
        assert both_live > len(NAMES) and strategy.live_track_count() == 1
        # kernels of both tracks were live at once, each over its own sink
        assert kernels == (0 if reference else 2 * len(NAMES))
        return strategy

    fused, reference = on_both_paths(run)
    lineages = fused.output_lineages()
    assert len(lineages) == len(set(lineages))
    assert_agree(fused, reference)
    assert MultiSet(lineages) == MultiSet(join_oracle_lineages(schema, NAMES, tuples))


def test_replay_truncates_the_sink_lists_under_a_compiled_kernel():
    """``ShardWorker.replay`` mutes its outputs with ``del outs[mark:]``: the
    kernels hold those very lists, so what follows lands at the right index."""
    schema = Schema.uniform(NAMES, 1 << 40)
    tuples = arrivals(200, n_keys=6)

    def run(reference):
        worker = ShardWorker(0, JISCStrategy(schema, NAMES))
        sink = worker.strategy.plan.sink
        lists = sink.outputs, sink.output_times, sink.retractions
        for tup in tuples[:80]:
            worker.feed(tup)
        assert len(fused_leaves(worker.strategy)) == (0 if reference else len(NAMES))
        before = len(worker.outputs)
        muted = worker.replay(tuples[80:120])
        assert muted > 0 and len(worker.outputs) == len(worker.output_times) == before
        for i, tup in enumerate(tuples[120:]):
            worker.feed(tup)
            assert worker.evict(tuples[i]) is True
        current = sink.outputs, sink.output_times, sink.retractions
        assert all(ours is theirs for ours, theirs in zip(current, lists))
        assert len(sink.retractions) > 0 and len(worker.outputs) > before
        return worker.strategy

    assert_agree(*on_both_paths(run))


# -- a ``Metrics`` subclass is not fused ---------------------------------------------------


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("cls", [STAIRSExecutor, JISCStairsExecutor], ids=["stairs", "jisc_stairs"])
def test_the_eddy_charges_every_hop_whoever_watches(cls, traced):
    """``EddyMetrics.count`` adds an eddy visit per emit, moving the clock in
    between: no tally reproduces that, so under a ``Metrics`` subclass the
    kernels fuse no join level and every emit is counted by the subclass.
    (PRs 18-19 fused them; an untraced STAIRs run lost all but a handful of
    its eddy visits and a third of its virtual time.)"""
    scenario = chain_scenario(3, 2000, 40, key_domain=40, seed=1)
    events = interleave_transitions(
        scenario.tuples, [(1000, swap_for_case(scenario.order, "worst"))]
    )

    def run(reference):
        strategy = cls(scenario.schema, scenario.order)
        if traced:
            RecordingTracer().attach(strategy)
        return run_events(strategy, events)

    ours, reference = on_both_paths(run)
    assert len(fused_leaves(ours)) == len(scenario.order) and not fused_leaves(reference)
    counts = ours.metrics.counts
    assert counts[Counter.EDDY_VISIT] == counts[Counter.TUPLE_EMIT] > 2000
    assert_agree(ours, reference)


@pytest.mark.parametrize("strategy", ["jisc", "moving_state", "static"])
def test_sink_lists_keep_their_identity(strategy):
    """``OutputSink`` documents it and the kernels rely on it: the three lists
    are mutated in place, never rebound — not by a transition (the sink moves
    to the new plan), not by a checkpoint restore followed by more arrivals."""
    schema = Schema.uniform(NAMES, 6)
    events = schedule("left_deep", arrivals(160))

    def lists_of(engine):
        sink = engine.plan.sink
        return sink.outputs, sink.output_times, sink.retractions

    engine = STRATEGIES[strategy](schema, NAMES)
    held = lists_of(engine)
    for event in events[:100]:
        if isinstance(event, TransitionEvent):
            engine.transition(event.new_spec)
        else:
            engine.process(event)
        assert all(a is b for a, b in zip(lists_of(engine), held))
    assert engine.outputs is held[0] and engine.output_times is held[1]

    restored = restore_strategy(checkpoint_strategy(engine))
    held = lists_of(restored)
    run_events(restored, events[100:])
    run_events(engine, events[100:])
    assert all(a is b for a, b in zip(lists_of(restored), held))
    assert fused_leaves(restored) and len(held[0]) > 0
    assert [t.lineage for t in held[0]] == engine.output_lineages()[-len(held[0]):]


# -- Figure 9 a as a count ---------------------------------------------------------------
#
# Between transitions JISC is the static pipeline: the same Python-level calls
# per arrival, none of them into ``repro/core``.  Calls are counts, not timings —
# they repeat exactly, and they are counted the way ``python -m repro.perf.regress``
# counts ``BENCH_calls.json``'s.

CORE = "core" + os.sep


def python_calls(run, under=""):
    """How many calls ``run()`` makes into named functions of ``repro/`` files
    whose path below the package starts with ``under``."""
    _, calls = count_calls(run)
    return sum(n for (path, _), n in calls.items() if path and path.startswith(under))


FIVE = ("A", "B", "C", "D", "E")


@pytest.mark.parametrize("per_tuple", [False, True], ids=["batch", "per_tuple"])
def test_between_transitions_jisc_makes_the_static_pipelines_calls(per_tuple):
    schema = Schema.uniform(FIVE, 20)
    tuples = arrivals(2000, FIVE, n_keys=20, seed=5)
    totals = {}
    for cls in (StaticPlanExecutor, JISCStrategy):
        engine = cls(schema, FIVE)
        totals[cls.name] = python_calls(lambda: drive(engine, tuples, per_tuple))
        assert len(fused_leaves(engine)) == len(FIVE) and len(engine.outputs) > 100
        # One generic arrival per plan — the first, after which every leaf has its
        # kernel (five until PR 21: a leaf compiled its root path after its own
        # first arrival): the rest never enters the operator classes' joins.
        engine = cls(schema, FIVE)
        engine.process(tuples[0])
        assert len(fused_leaves(engine)) == len(FIVE)
        rest = python_calls(
            lambda: drive(engine, tuples[1:], per_tuple), under=os.path.join("operators", "joins.py")
        )
        assert rest == 0
    assert totals["jisc"] == totals["static"] > 2000


@pytest.mark.parametrize("cls", [StaticPlanExecutor, JISCStrategy], ids=["static", "jisc"])
def test_one_hand_over_per_arrival_between_transitions(cls):
    """Once every leaf has its kernel, ``Metrics`` is entered exactly once per
    arrival — ``count_pipeline`` on the way out — whatever the arrival evicted
    and however many outputs it made."""
    engine = cls(Schema.uniform(FIVE, 20), FIVE)
    tuples = arrivals(2000, FIVE, n_keys=20, seed=5)
    run_events(engine, tuples[:200])
    assert len(fused_leaves(engine)) == len(FIVE)
    before = len(engine.outputs), len(engine.plan.sink.retractions)
    into_metrics = os.path.join("engine", "metrics.py")
    assert python_calls(lambda: run_events(engine, tuples[200:]), under=into_metrics) == 1800
    assert len(engine.outputs) > before[0] + 100
    assert len(engine.plan.sink.retractions) > before[1] + 100


def test_the_controller_is_called_only_while_a_state_is_incomplete():
    schema = Schema.uniform(FIVE, 20)
    tuples = arrivals(1200, FIVE, n_keys=20, seed=5)
    engine = JISCStrategy(schema, FIVE)
    assert python_calls(lambda: run_events(engine, tuples[:600]), under=CORE) == 0
    engine.transition(("A", "E", "C", "D", "B"))  # worst case: every state but the root
    assert engine.incomplete_state_count() == 3
    migrating = settled = 0
    for tup in tuples[600:]:
        incomplete = engine.incomplete_state_count() > 0
        calls = python_calls(lambda: engine.process(tup), under=CORE)
        if incomplete:
            migrating += 1
            assert calls > 0, tup
        else:
            settled += 1
            assert calls == 0, tup
        assert settled == 0 or not incomplete  # once complete, complete until a transition
    assert migrating > 20 and settled > 200
    reference = run_events(StaticPlanExecutor(schema, FIVE), tuples)
    assert MultiSet(engine.output_lineages()) == MultiSet(reference.output_lineages())


def test_a_batch_stops_calling_the_controller_when_the_last_state_completes():
    """``process_batch`` reads ``incomplete_ops`` per arrival, as ``process``
    does: one batch across the completion calls the controller as often as
    the same arrivals fed one by one."""
    schema = Schema.uniform(FIVE, 20)
    tuples = arrivals(1200, FIVE, n_keys=20, seed=5)

    def core_calls_after_the_transition(per_tuple):
        engine = JISCStrategy(schema, FIVE)
        run_events(engine, tuples[:600])
        engine.transition(("A", "E", "C", "D", "B"))
        calls = python_calls(lambda: drive(engine, tuples[600:], per_tuple), under=CORE)
        assert engine.incomplete_state_count() == 0
        return calls

    assert core_calls_after_the_transition(False) == core_calls_after_the_transition(True) > 0


# -- the completion path -----------------------------------------------------------------
#
# From a plan's second arrival on, a state the controller bound a procedure for
# at ``attach`` (``repro.core.bound``: left-deep, symmetric hash joins only, a
# plain ``Metrics``) is completed by that procedure; on the reference path, and
# for every other plan on either path, by ``complete_value_*`` through the hook.
# Both sides are compared after *every* event, not at the end of the run.


class OddCosts(CostModel):
    def table(self):
        return {Counter.HASH_PROBE: 0.1, Counter.COMPLETION_PROBE: 1.3, Counter.HASH_INSERT: 0.3}


def churn(case, period, n=900, window=30):
    scenario = chain_scenario(3, n, window, key_domain=40, seed=2)
    return scenario.schema, scenario.order, frequency_events(scenario, period, case=case)


def reshapes(first, second, n=600, period=40):
    """Arrivals over ``NAMES``, alternating between two plans every ``period``."""
    return interleave_transitions(
        arrivals(n, n_keys=9, seed=6),
        [(at, second if (at // period) % 2 else first) for at in range(period, n, period)],
    )


#: name -> (schema, initial spec, events, strategy options, bound procedure expected)
COMPLETION_CASES = {
    "best_case": (*churn("best", 150), {}, True),
    "worst_case": (*churn("worst", 150), {}, True),
    "overlapped": (*churn("worst", 20), {}, True),  # period 20 < window 30
    "naive_recheck": (*churn("worst", 150), {"naive_recheck": True}, True),
    "no_expiry_optimization": (*churn("worst", 150), {"expiry_optimization": False}, True),
    # probe, completion probe and insert costs whose sums depend on the order added in
    "odd_costs": (*churn("worst", 150), {"cost_model": OddCosts(default=0.7)}, True),
    "force_recursive": (*churn("worst", 150), {"force_recursive": True}, False),
    "bushy": (
        Schema.uniform(NAMES, 8),
        BUSHY,
        reshapes((("A", "C"), ("B", "D")), BUSHY),
        {},
        False,
    ),
    "nested_loops": (*churn("worst", 50, n=400, window=12), {"join": "nl"}, False),
    # a set-difference passes on base tuples only: the chain is set-differences throughout
    "setdiff": (
        Schema.uniform(NAMES, 8),
        NAMES,
        reshapes(("A", "D", "B", "C"), ("A", "C", "D", "B")),
        {"op_factory": monotone_setdiff},
        False,
    ),
}


def completion_trail(schema, initial, events, options, traced):
    """What a JISC run looks like after each event, and the strategy."""
    strategy = JISCStrategy(schema, initial, **options)
    if traced:
        RecordingTracer().attach(strategy)
    trail = []
    migrating = bound = 0
    for event in events:
        if isinstance(event, TransitionEvent):
            strategy.transition(event.new_spec)
        else:
            migrating += strategy.incomplete_state_count() > 0
            bound += bool(strategy.plan.completers)
            strategy.process(event)
        status = [op.state.status for op in strategy.plan.internal]
        trail.append(
            (
                len(strategy.outputs),
                strategy.output_times[-1] if strategy.outputs else None,
                dict(strategy.metrics.counts),
                strategy.metrics.clock.now,
                [None if s.pending is None else sorted(s.pending) for s in status],
                strategy.incomplete_state_count(),
            )
        )
    return strategy, trail, migrating, bound


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("case", sorted(COMPLETION_CASES))
def test_bound_completion_agrees_with_the_generic_procedures_after_every_event(case, traced):
    schema, initial, events, options, expect_bound = COMPLETION_CASES[case]

    def run(reference):
        return completion_trail(schema, initial, events, options, traced)

    (fused, trail, migrating, bound), (reference, want, *_) = on_both_paths(run)
    assert fused_leaves(fused) and not fused_leaves(reference)
    # the run is about completion: many arrivals find a state incomplete ...
    assert migrating > len(events) // 5
    if case != "setdiff":  # whose completion counts probes like any other
        assert fused.metrics.get(Counter.COMPLETION_PROBE) > 20
    # ... and the plan says which procedure completes it
    assert (bound > 0) is expect_bound
    for i, (got, expected) in enumerate(zip(trail, want)):
        assert got == expected, (i, events[i])
    assert_agree(fused, reference)
    if case != "setdiff":
        tuples = [e for e in events if isinstance(e, StreamTuple)]
        assert MultiSet(fused.output_lineages()) == MultiSet(
            join_oracle_lineages(schema, sorted(fused.plan.scans), tuples)
        )


def test_the_bound_procedure_is_chosen_by_what_the_plan_is():
    """Left-deep, exactly symmetric hash joins, a plain ``Metrics``, and not
    forced onto Procedure 2 — nothing an observer or an option can add."""
    schema = Schema.uniform(NAMES, 6)
    target = ("D", "C", "B", "A")

    def completers(strategy):
        run_events(strategy, arrivals(60))
        strategy.transition(target)
        assert strategy.incomplete_state_count() > 0
        return strategy.plan.completers

    plain = completers(JISCStrategy(schema, NAMES))
    assert plain
    traced = JISCStrategy(schema, NAMES)
    RecordingTracer().attach(traced)
    assert sorted(map(repr, completers(traced))) == sorted(map(repr, plain))
    assert not completers(JISCStrategy(schema, NAMES, force_recursive=True))
    assert not completers(JISCStrategy(schema, NAMES, join="nl"))
    assert not completers(JISCStrategy(schema, NAMES, op_factory=hybrid_join_factory({"C"})))
    assert not completers(JISCStairsExecutor(schema, NAMES))  # counts on ``EddyMetrics``
    bushy = JISCStrategy(schema, BUSHY)
    run_events(bushy, arrivals(60))
    bushy.transition((("A", "C"), ("B", "D")))
    assert bushy.incomplete_state_count() > 0 and not bushy.plan.completers
    # own-path completion is the window-slide optimization's: bound only with it
    without = completers(JISCStrategy(schema, NAMES, expiry_optimization=False))
    assert without and all(join is not state for join, state in without)
    assert any(join is state for join, state in plain)


# -- the migration stage as a count ----------------------------------------------------------
#
# ``migrate_churn``'s shape (``python -m repro.perf.profile migrate``): 7 streams,
# window 200, a worst-case transition every 100 arrivals — some state is incomplete
# at every arrival.  At PR 20 an arrival there made 61 Python calls into
# ``repro/`` and entered ``engine/metrics.py`` 9 times (a hand-over around every
# hook call, a ``count`` per completion step); what a transition costs is now
# bound once (``repro.core.bound``, ``JISCController._bind_expiry``), a plan
# compiles once, and the budget below is what is left: the exit hand-over, one
# around the expiry hook, one per completion.


def migrate_shape(n):
    scenario = chain_scenario(6, n, 200, key_domain=250, seed=1)
    return scenario, frequency_events(scenario, 100, case="worst")


def test_calls_per_arrival_while_migrating():
    scenario, events = migrate_shape(6000)

    def count(under):
        engine = JISCStrategy(scenario.schema, scenario.order)
        calls = python_calls(lambda: run_events(engine, events), under=under)
        assert engine.incomplete_state_count() > 0 and len(engine.outputs) > 500
        return calls / len(scenario.tuples)

    into_repro = count("")
    assert into_repro == count("")  # a count: it repeats exactly
    assert 30 < into_repro <= 42  # 40.06 on 3.11; 61.21 at PR 20
    assert 2 < count(os.path.join("engine", "metrics.py")) <= 2.5  # 2.28; 8.80 at PR 20


def test_a_transition_compiles_one_level_per_join_side_and_runs_one_generic_arrival(monkeypatch):
    """27 ``fuse`` closures and seven generic arrivals per transition on seven
    streams until PR 21 (each leaf compiled its own root path after its own
    first arrival); 12 and one since: a level per (join, side), shared by the
    leaves below it, compiled after the plan's first arrival."""
    scenario, events = migrate_shape(1500)
    generic = []
    process = JoinOperator.process

    def spy(self, tup, child):
        if isinstance(tup, StreamTuple):
            generic.append(tup)
        process(self, tup, child)

    monkeypatch.setattr(JoinOperator, "process", spy)
    engine = JISCStrategy(scenario.schema, scenario.order)
    run_events(engine, events)
    transitions = sum(isinstance(e, TransitionEvent) for e in events)
    assert transitions == 14 and len(generic) == transitions + 1
    levels = {
        id(cell.cell_contents)
        for scan in engine.plan.scans.values()
        for cell in scan.fused.arrive.__closure__
        if callable(cell.cell_contents) and cell.cell_contents.__name__ == "level"
    }
    assert len(levels) == len(engine.plan.scans) == 7  # each leaf enters at its own ...
    seen, todo = set(), [scan.fused.arrive for scan in engine.plan.scans.values()]
    while todo:  # ... and they share the ones above: 2 per join, not 27
        fn = todo.pop()
        for cell in fn.__closure__ or ():
            inner = cell.cell_contents
            if callable(inner) and getattr(inner, "__name__", "") == "level" and inner not in seen:
                seen.add(inner)
                todo.append(inner)
    assert len(seen) == 2 * len(engine.plan.internal) == 12
