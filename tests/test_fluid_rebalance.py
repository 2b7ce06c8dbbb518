"""Property suite for fluid, latency-bounded rebalancing (hypothesis).

Three properties pin down the fluid-plan contract
(:class:`~repro.shard.rebalance.FluidRebalancePlan` +
:class:`~repro.shard.executor.RebalanceScheduler`):

* **(a) interleaving-invisibility** — wherever the plan's batch
  boundaries fall between arrivals (any trigger point, any granularity,
  lazy or eager, stay/grow/shrink), the merged output is exactly the
  naive oracle's multiset.

* **(b) granularity bounds the stall** — on an unsaturated hotspot
  workload with equal per-key volumes, the observed max per-output
  latency is monotonically non-increasing as the batch size shrinks:
  each eager batch's bulk move hides behind a single arrival, so a
  smaller batch means a smaller worst-case stall.

* **(c) crash-inside-a-batch invisibility** — a shard crash and
  recovery at any arrival while a plan is in flight must leave both the
  final routing table and the output multiset identical to the
  crash-free run.

Plus deterministic rows: crash-during-batch across all six strategies
and both resize directions, the one-plan-at-a-time rule (a plan with
unopened batches rejects the next call, a plan down to its open batch is
force-drained by it — whichever call started either), ``rebalance()`` as
the one-batch plan, resizes under a mid-stream plan transition, and the
telemetry/obs surface of a plan.
"""

import random
from collections import Counter as MultiSet

import hypothesis.strategies as hst
import pytest
from hypothesis import given, settings

from repro.faults.invariants import InvariantChecker
from repro.shard import (
    ShardedExecutor,
    balanced_assignment,
    skewed_assignment,
)
from repro.shard.rebalance import FluidRebalancePlan
from repro.shard.worker import STRATEGY_NAMES
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.telemetry import ShardTelemetry
from repro.testing.naive import NaiveJoinOracle

NAMES = ("A", "B", "C")
WINDOW = 12
N_TUPLES = 150

SCHEMA = Schema.uniform(NAMES, WINDOW)


def _tuples(seed, n=N_TUPLES, n_keys=10):
    rng = random.Random(seed)
    seqs = {name: 0 for name in NAMES}
    out = []
    for _ in range(n):
        stream = rng.choice(NAMES)
        out.append(StreamTuple(stream, seqs[stream], rng.randrange(n_keys)))
        seqs[stream] += 1
    return out


_ORACLE_CACHE = {}


def oracle_multiset(seed):
    if seed not in _ORACLE_CACHE:
        oracle = NaiveJoinOracle(SCHEMA, NAMES)
        for tup in _tuples(seed):
            oracle.process(tup)
        _ORACLE_CACHE[seed] = MultiSet(oracle.output_lineages())
    return _ORACLE_CACHE[seed]


#: shape -> (initial shards, initial assignment, plan trigger)
SHAPES = {
    "stay": (
        2,
        skewed_assignment(64, 0),
        lambda ex, mode, bk: ex.fluid_rebalance(
            balanced_assignment(64, 2), mode, batch_keys=bk
        ),
    ),
    "grow": (2, None, lambda ex, mode, bk: ex.resize(4, mode, batch_keys=bk)),
    "shrink": (4, None, lambda ex, mode, bk: ex.resize(2, mode, batch_keys=bk)),
}


def run_with_plan(strategy, shape, mode, batch_keys, trigger_at, seed, crash_at=None):
    """One sharded run with the plan triggered mid-stream.

    ``crash_at`` is ``(arrival index, shard)``: crash-and-recover that
    shard right after that arrival (skipped silently if the slot is
    retired or not yet spawned — the caller draws blind).
    """
    num_shards, assignment, trigger = SHAPES[shape]
    ex = ShardedExecutor(
        SCHEMA, NAMES, num_shards=num_shards, strategy=strategy, assignment=assignment
    )
    for i, tup in enumerate(_tuples(seed)):
        if i == trigger_at:
            trigger(ex, mode, batch_keys)
        ex.process(tup)
        if crash_at is not None and i == crash_at[0]:
            shard = crash_at[1]
            if shard < len(ex.workers) and ex.workers[shard] is not None:
                ex.crash_and_recover(shard)
    ex.drain_rebalance()
    return ex


# -- (a) any interleaving of batch boundaries with arrivals ---------------------------


@settings(max_examples=40, deadline=None)
@given(
    shape=hst.sampled_from(sorted(SHAPES)),
    mode=hst.sampled_from(["lazy", "eager"]),
    batch_keys=hst.integers(min_value=0, max_value=5),
    trigger_at=hst.integers(min_value=0, max_value=N_TUPLES - 1),
    seed=hst.integers(min_value=0, max_value=3),
)
def test_any_interleaving_matches_oracle(shape, mode, batch_keys, trigger_at, seed):
    ex = run_with_plan("jisc", shape, mode, batch_keys, trigger_at, seed)
    lineages = ex.output_lineages()
    got = MultiSet(tuple(sorted(lineage)) for lineage in lineages)
    assert got == oracle_multiset(seed)
    assert len(lineages) == len(set(lineages))


# -- (b) smaller batches, smaller worst-case stall ------------------------------------


def _round_robin(n=900, n_keys=24, window=48):
    """Equal per-key, per-stream volumes: every 3 consecutive arrivals
    share one key, keys cycle — so each batch moves the same amount of
    state per key and the only variable is the batch size."""
    schema = Schema.uniform(NAMES, window)
    seqs = {s: 0 for s in NAMES}
    out = []
    for i in range(n):
        s = NAMES[i % 3]
        out.append(StreamTuple(s, seqs[s], (i // 3) % n_keys))
        seqs[s] += 1
    return schema, out


@pytest.mark.parametrize("inter_arrival", [20.0, 80.0])
def test_max_latency_monotone_in_batch_size(inter_arrival):
    """Eager hotspot fix, unsaturated regime: max per-output latency is
    non-increasing along the all -> 16 -> 8 -> 4 -> 2 -> 1 chain."""
    schema, tuples = _round_robin()
    cut = len(tuples) // 2
    maxima = []
    for batch_keys in (0, 16, 8, 4, 2, 1):
        ex = ShardedExecutor(
            schema,
            NAMES,
            num_shards=4,
            strategy="jisc",
            inter_arrival=inter_arrival,
            assignment=skewed_assignment(64, 0),
        )
        ex.process_batch(tuples[:cut])
        ex.fluid_rebalance(balanced_assignment(64, 4), "eager", batch_keys=batch_keys)
        ex.process_batch(tuples[cut:])
        ex.drain_rebalance()
        maxima.append(max(ex.output_latencies()))
    for coarser, finer in zip(maxima, maxima[1:]):
        assert finer <= coarser + 1e-9, (
            f"max latency grew as batches shrank: {maxima}"
        )
    assert maxima[-1] < maxima[0]  # per-key strictly beats all-at-once


# -- (c) crash inside any batch -------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    shape=hst.sampled_from(sorted(SHAPES)),
    mode=hst.sampled_from(["lazy", "eager"]),
    batch_keys=hst.integers(min_value=0, max_value=3),
    crash_offset=hst.integers(min_value=0, max_value=30),
    shard=hst.integers(min_value=0, max_value=3),
)
def test_crash_inside_any_batch_is_invisible(shape, mode, batch_keys, crash_offset, shard):
    trigger_at, seed = 75, 1
    clean = run_with_plan("jisc", shape, mode, batch_keys, trigger_at, seed)
    crashed = run_with_plan(
        "jisc", shape, mode, batch_keys, trigger_at, seed,
        crash_at=(trigger_at + crash_offset, shard),
    )
    assert crashed.partitioner.assignment == clean.partitioner.assignment
    assert MultiSet(crashed.output_lineages()) == MultiSet(clean.output_lineages())
    assert MultiSet(crashed.output_lineages()) == oracle_multiset(seed)


@pytest.mark.parametrize("shape", ["grow", "shrink"])
@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_crash_during_in_flight_batch_all_strategies(strategy, shape):
    """Acceptance row: every strategy survives a crash while a resize
    plan has a batch in flight, certified against the oracle."""
    seed, trigger_at = 2, 75
    ex = run_with_plan(
        strategy, shape, "lazy", 2, trigger_at, seed, crash_at=(trigger_at + 2, 0)
    )
    checker = InvariantChecker(SCHEMA, NAMES)
    report = checker.certify_sharded(ex, _tuples(seed), context=f"{strategy}/{shape}")
    assert report.ok
    assert MultiSet(ex.output_lineages()) == oracle_multiset(seed)


# -- one active plan at a time (satellite: overlap rejection + force-drain) -----------


def _mid_plan_executor():
    ex = ShardedExecutor(
        SCHEMA, NAMES, num_shards=2, strategy="jisc",
        assignment=skewed_assignment(64, 0),
    )
    ex.process_batch(_tuples(0)[:60])
    ex.fluid_rebalance(balanced_assignment(64, 2), "lazy", batch_keys=1)
    assert ex.rebalance_in_progress
    return ex


def test_overlapping_plans_are_rejected():
    ex = _mid_plan_executor()
    with pytest.raises(RuntimeError, match="one active plan at a time"):
        ex.rebalance(skewed_assignment(64, 1))
    with pytest.raises(RuntimeError, match="one active plan at a time"):
        ex.fluid_rebalance(skewed_assignment(64, 1), batch_keys=2)
    with pytest.raises(RuntimeError, match="one active plan at a time"):
        ex.resize(4)
    # the rejection left the plan intact and drainable
    ex.scheduler.drain(ex.makespan())
    assert not ex.rebalance_in_progress


def test_drained_plan_admits_the_next_one():
    ex = _mid_plan_executor()
    ex.drain_rebalance()
    ex.resize(4, "eager", batch_keys=0)  # no error once the plan settled
    assert ex.num_shards == 4


def test_classic_force_drain_path_stays_reachable():
    """Single-session callers keep the old semantics: a second classic
    ``rebalance()`` over a still-pending lazy session force-drains it
    rather than erroring — and the output stays oracle-exact."""
    tuples = _tuples(0)
    ex = ShardedExecutor(SCHEMA, NAMES, num_shards=2, strategy="jisc")
    ex.process_batch(tuples[:50])
    first = ex.rebalance(skewed_assignment(64, 0), "lazy")
    assert not first.complete
    ex.rebalance(balanced_assignment(64, 2), "lazy")  # drains, no error
    assert first.complete
    ex.process_batch(tuples[50:])
    got = MultiSet(tuple(sorted(l)) for l in ex.output_lineages())
    assert got == oracle_multiset(0)


def test_overlap_rule_reads_the_plan_not_the_call_that_started_it():
    """A fluid plan down to its open batch is in the same position as a
    pending ``rebalance()``: the next call force-drains it."""
    tuples = _tuples(0)
    # an all-at-once plan started through the fluid call
    ex = ShardedExecutor(SCHEMA, NAMES, num_shards=2, strategy="jisc")
    ex.process_batch(tuples[:50])
    ex.fluid_rebalance(skewed_assignment(64, 0), "lazy", batch_keys=0)
    first = ex.session
    assert not first.complete
    ex.rebalance(balanced_assignment(64, 2), "lazy")
    assert first.complete
    # a per-key plan, caught at the arrival that opens its last batch
    ex = _mid_plan_executor()
    last = None
    for i, tup in enumerate(tuples[60:], 61):
        ex.process(tup)
        scheduler = ex.scheduler
        if scheduler is not None and not scheduler.unopened_batches():
            last = ex.session
            break
        with pytest.raises(RuntimeError, match="one active plan at a time"):
            ex.resize(4)
    assert last is not None and not last.complete
    ex.resize(4, "eager")
    assert last.complete and ex.num_shards == 4
    ex.process_batch(tuples[i:])
    ex.drain_rebalance()
    got = MultiSet(tuple(sorted(l)) for l in ex.output_lineages())
    assert got == oracle_multiset(0)


def _pending_scale_in():
    """A 4-shard run with a lazy all-at-once scale-in to 2 still open."""
    ex = ShardedExecutor(SCHEMA, NAMES, num_shards=4, strategy="jisc")
    ex.process_batch(_tuples(0)[:60])
    ex.resize(2, "lazy", batch_keys=0)
    assert ex.session is not None and not ex.session.complete
    assert ex.num_shards == 4  # the retiring workers are still live
    return ex


def test_force_drained_scale_in_is_the_pool_the_next_plan_starts_from():
    """Draining a scale-in retires its shards, so the call that drains it
    is checked against — and built from — the pool that drain leaves."""
    tuples = _tuples(0)
    # scale-out over it: every slot above the drained pool is (re)spawned
    ex = _pending_scale_in()
    ex.resize(6, "lazy", batch_keys=0)
    assert ex.num_shards == 6 and ex.retired_shards == set()
    assert all(worker is not None for worker in ex.workers)
    ex.process_batch(tuples[60:])
    ex.drain_rebalance()
    got = MultiSet(tuple(sorted(l)) for l in ex.output_lineages())
    assert got == oracle_multiset(0)
    # a target over the retiring shards, or the pool the drain will leave,
    # is refused before the drain: nothing moved, the scale-in still open
    for bad in (
        lambda ex: ex.fluid_rebalance(balanced_assignment(64, 4)),
        lambda ex: ex.rebalance(balanced_assignment(64, 4)),
        lambda ex: ex.resize(2),
    ):
        ex = _pending_scale_in()
        session, rebalances, moves = ex.session, ex.rebalances, len(ex.moves)
        journals = [list(log) for log in ex._logs]
        with pytest.raises(ValueError):
            bad(ex)
        assert ex.session is session and not session.complete
        assert (ex.rebalances, len(ex.moves)) == (rebalances, moves)
        assert ex.num_shards == 4 and ex.retired_shards == set()
        assert [list(log) for log in ex._logs] == journals
        ex.process_batch(tuples[60:])
        ex.drain_rebalance()
        assert ex.num_shards == 2
        got = MultiSet(tuple(sorted(l)) for l in ex.output_lineages())
        assert got == oracle_multiset(0)
    # a target inside the drained pool is admitted and drains the scale-in
    ex = _pending_scale_in()
    ex.fluid_rebalance(skewed_assignment(64, 1), "eager", batch_keys=2)
    assert ex.num_shards == 2 and ex.retired_shards == {2, 3}
    ex.process_batch(tuples[60:])
    ex.drain_rebalance()
    got = MultiSet(tuple(sorted(l)) for l in ex.output_lineages())
    assert got == oracle_multiset(0)


@pytest.mark.parametrize("mode", ["lazy", "eager"])
def test_rebalance_is_the_one_batch_fluid_plan(mode):
    """``rebalance(a, m)`` and ``fluid_rebalance(a, m, batch_keys=0)`` leave
    identical journals, moves, merged outputs and trace events."""
    from repro.engine.cost import VirtualClock
    from repro.engine.metrics import Metrics
    from repro.obs.tracer import RecordingTracer

    tuples = _tuples(1)
    target = balanced_assignment(64, 2)
    runs = []
    for start in (
        lambda ex: ex.rebalance(target, mode),
        lambda ex: ex.fluid_rebalance(target, mode, batch_keys=0),
    ):
        clock = VirtualClock(None)
        tracer = RecordingTracer(clock=clock)
        ex = ShardedExecutor(
            SCHEMA, NAMES, num_shards=2, strategy="jisc", inter_arrival=1.0,
            assignment=skewed_assignment(64, 0),
            metrics=Metrics(clock=clock, tracer=tracer),
        )
        ex.process_batch(tuples[:75])
        start(ex)
        assert ex.rebalance_in_progress == (mode == "lazy")
        ex.process_batch(tuples[75:])
        ex.drain_rebalance()
        runs.append(
            {
                "journals": [list(log) for log in ex._logs],
                "moves": [
                    (m.key, m.src, m.dst, m.tuples_replayed, m.at, m.retired)
                    for m in ex.moves
                ],
                "merged": [(r.sort_key, r.lineage) for r in ex.merged_records()],
                "events": [ev.to_json() for ev in tracer.events],
            }
        )
    assert runs[0] == runs[1]
    assert any(kind == "batch" for log in runs[0]["journals"] for kind, _, _ in log)
    assert runs[0]["moves"] and runs[0]["merged"]


def test_fluid_plan_force_drains_pending_classic_session():
    tuples = _tuples(0)
    ex = ShardedExecutor(SCHEMA, NAMES, num_shards=2, strategy="jisc")
    ex.process_batch(tuples[:50])
    classic = ex.rebalance(skewed_assignment(64, 0), "lazy")
    assert not classic.complete
    ex.fluid_rebalance(balanced_assignment(64, 2), "eager", batch_keys=2)
    assert classic.complete
    ex.drain_rebalance()
    ex.process_batch(tuples[50:])
    got = MultiSet(tuple(sorted(l)) for l in ex.output_lineages())
    assert got == oracle_multiset(0)


# -- resize under a plan-spec transition ----------------------------------------------


def test_scale_out_workers_join_at_the_current_spec():
    """Workers spawned mid-stream must pick up the spec broadcast before
    the resize (and journal it, so recovery replays it too)."""
    tuples = _tuples(3)
    oracle = NaiveJoinOracle(SCHEMA, NAMES)
    for tup in tuples:
        oracle.process(tup)
    expected = MultiSet(oracle.output_lineages())
    ex = ShardedExecutor(SCHEMA, NAMES, num_shards=2, strategy="jisc")
    for i, tup in enumerate(tuples):
        if i == 40:
            ex.transition(("C", "B", "A"))
        if i == 75:
            ex.resize(4, "lazy", batch_keys=2)
        if i == 90:
            ex.crash_and_recover(3)  # replay includes the journaled spec
        if i == 110:
            ex.transition(("B", "C", "A"))
        ex.process(tup)
    ex.drain_rebalance()
    got = MultiSet(tuple(sorted(l)) for l in ex.output_lineages())
    assert got == expected


def test_retired_shard_slot_can_be_reused():
    """4 -> 2 -> 4: the re-spawned incarnation starts a fresh log and a
    reset merge cursor, and feeding a retired slot in between errors."""
    tuples = _tuples(0)
    ex = ShardedExecutor(SCHEMA, NAMES, num_shards=4, strategy="jisc")
    ex.process_batch(tuples[:60])
    ex.resize(2, "eager", batch_keys=0)
    assert ex.retired_shards == {2, 3}
    assert ex.workers[2] is None and ex.workers[3] is None
    assert ex.num_shards == 2
    ex.process_batch(tuples[60:90])
    ex.resize(4, "eager", batch_keys=0)
    assert ex.retired_shards == set()
    ex.process_batch(tuples[90:])
    got = MultiSet(tuple(sorted(l)) for l in ex.output_lineages())
    assert got == oracle_multiset(0)


# -- telemetry + obs surface of a plan ------------------------------------------------


def test_plan_telemetry_and_report_timeline():
    from repro.obs.report import rebalance_timeline
    from repro.obs.tracer import RecordingTracer

    tuples = _tuples(0)
    tracer = RecordingTracer()
    ex = ShardedExecutor(
        SCHEMA,
        NAMES,
        num_shards=2,
        strategy="jisc",
        assignment=skewed_assignment(64, 0),
    )
    telemetry = ShardTelemetry(ex, inner=tracer)
    ex.process_batch(tuples[:75])
    plan = ex.resize(4, "eager", batch_keys=2)
    assert isinstance(plan, FluidRebalancePlan)
    ex.process_batch(tuples[75:])
    ex.drain_rebalance()
    telemetry.sync()
    reg = telemetry.registry
    remaining = list(reg.with_name("shard_rebalance_batches_remaining"))
    assert len(remaining) == 1 and remaining[0].value == 0
    latency = list(reg.with_name("shard_batch_move_latency"))
    assert len(latency) == 1
    assert latency[0].summary()["count"] == plan.total_batches
    assert len(telemetry.workers) == 4  # on_worker_added wired the new shards
    rows = [r for r in rebalance_timeline(tracer.as_trace()) if "batches" in r]
    assert len(rows) == 1
    assert rows[0]["batch_keys"] == 2
    assert rows[0]["batches"] == rows[0]["batches_planned"] == plan.total_batches
    assert len(rows[0]["batch_durations"]) == plan.total_batches


def test_scale_in_detaches_retired_workers_from_telemetry():
    tuples = _tuples(0)
    ex = ShardedExecutor(SCHEMA, NAMES, num_shards=4, strategy="jisc")
    telemetry = ShardTelemetry(ex)
    ex.process_batch(tuples[:75])
    ex.resize(2, "eager", batch_keys=0)
    ex.process_batch(tuples[75:])
    assert sorted(telemetry.workers) == [0, 1]


# -- the sketch-driven rebalance trigger ----------------------------------------------


def test_shard_imbalance_trigger_mechanics():
    from repro.optimizer.triggers import ShardImbalanceTrigger, make_rebalance_policy

    policy = ShardImbalanceTrigger(
        max_imbalance=1.5, confirm=2, cooldown=100, min_load=10.0
    )
    assert policy.decide([1.0, 1.0], at=0).reason == "warming_up"  # below min_load
    assert policy.decide([20.0, 20.0], at=16).reason == "balanced"
    assert policy.decide([90.0, 10.0], at=32).reason == "confirming"
    fired = policy.decide([90.0, 10.0], at=48)
    assert fired.fired and fired.reason == "shard_imbalance"
    assert fired.imbalance == pytest.approx(1.8)
    # inside the cooldown the streak re-confirms, then is suppressed
    policy.decide([90.0, 10.0], at=64)
    assert policy.decide([90.0, 10.0], at=80).action == "suppressed"
    # state round-trips (the fault-soak contract shared with plan triggers)
    state = policy.state_to_json()
    fresh = make_rebalance_policy("shard_imbalance", cooldown=100)
    fresh.restore_state(state)
    assert fresh.last_fired_at == policy.last_fired_at
    assert fired.to_jsonl() == fired.to_jsonl()  # canonical line is stable


def test_adaptive_rebalance_policy_fires_a_fluid_plan():
    """Closed loop: hub loads -> imbalance trigger -> sketch-weighted
    fluid plan — and the output is still exactly the oracle's."""
    from repro.optimizer.adaptive import AdaptiveEngine
    from repro.optimizer.triggers import ShardImbalanceTrigger

    tuples = _tuples(0, n=600, n_keys=12)
    oracle = NaiveJoinOracle(SCHEMA, NAMES)
    for tup in tuples:
        oracle.process(tup)
    expected = MultiSet(oracle.output_lineages())
    ex = ShardedExecutor(
        SCHEMA, NAMES, num_shards=2, strategy="jisc",
        assignment=skewed_assignment(64, 0), inter_arrival=5.0,
    )
    engine = AdaptiveEngine(
        ex,
        rebalance_policy=ShardImbalanceTrigger(
            max_imbalance=1.3, confirm=2, cooldown=256, batch_keys=4
        ),
    )
    engine.run(tuples)
    ex.drain_rebalance()
    assert len(engine.rebalance_fires) >= 1
    assert ex.rebalances >= 1
    got = MultiSet(tuple(sorted(l)) for l in ex.output_lineages())
    assert got == expected
    # the fix actually moved load off the hot shard
    loads = [engine.telemetry.workers[s].arrivals_seen
             for s in sorted(engine.telemetry.workers)]
    assert min(loads) > 0


def test_rebalance_policy_requires_sharded_target():
    from repro.optimizer.adaptive import AdaptiveEngine
    from repro.optimizer.triggers import ShardImbalanceTrigger
    from repro.shard.worker import make_strategy

    single = make_strategy("jisc", SCHEMA, NAMES)
    with pytest.raises(ValueError, match="sharded"):
        AdaptiveEngine(single, rebalance_policy=ShardImbalanceTrigger())
