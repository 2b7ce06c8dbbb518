"""Unit tests for repro.optimizer: the cost maintainer and the adaptive
engine's plumbing (every engine's ``current_order()``, trigger-state round-trip,
forced transitions, shard aggregation).

The differential and property halves live in
tests/test_conformance_matrix.py and tests/test_trigger_policies.py; this
file pins the mechanics those suites drive end-to-end.
"""

import pytest

from repro.engine.executor import TransitionEvent
from repro.migration.jisc import JISCStrategy
from repro.migration.mjoin import MJoinExecutor
from repro.optimizer import (
    AdaptiveEngine,
    CostSnapshot,
    PlanCostMaintainer,
    live_state_size,
)
from repro.optimizer.triggers import NeverTrigger, ThresholdTrigger
from repro.shard import ShardedExecutor
from repro.shard.worker import STRATEGY_NAMES, make_strategy
from repro.streams.schema import Schema
from repro.workloads.drift import SelectivityDriftWorkload

NAMES = ("A", "B", "C")
SCHEMA = Schema.uniform(NAMES, 16)
SWAPPED = ("C", "A", "B")

HUB_OPTIONS = {"selectivity_window": 96, "drift_block": 16, "drift_min_samples": 32}


def drift_events(n=240, seed=31):
    return SelectivityDriftWorkload(
        NAMES, [(n // 2, "B"), (n - n // 2, "C")], base_domain=8, scatter=24, seed=seed
    ).materialize()


class FakeHub:
    """A hub double: fixed selectivity samples, countable polls."""

    def __init__(self, samples, rates=None):
        self.samples = samples
        self.rates = rates or {}
        self.polls = 0

    def poll(self):
        self.polls += 1

    def selectivity_sample(self, name):
        return self.samples.get(name)

    def arrival_rates(self):
        return dict(self.rates)


class TestPlanCostMaintainer:
    def test_not_ready_until_every_stream_has_samples(self):
        hub = FakeHub({"A": (500, 0.9), "B": (500, 0.5)})  # C missing
        m = PlanCostMaintainer(NAMES, [hub], min_samples=100)
        snap = m.refresh(at=10)
        assert not snap.ready
        assert snap.samples["C"] == 0
        assert snap.current_cost == 0.0 and snap.improvement == 0.0
        assert m.last is snap

    def test_not_ready_below_min_samples(self):
        hub = FakeHub({n: (50, 0.5) for n in NAMES})
        m = PlanCostMaintainer(NAMES, [hub], min_samples=100)
        assert not m.refresh(at=1).ready

    def test_ready_snapshot_costs_and_best_order(self):
        hub = FakeHub(
            {"A": (500, 0.9), "B": (500, 0.8), "C": (500, 0.2)},
            rates={"A": 1.0, "B": 2.0},
        )
        m = PlanCostMaintainer(NAMES, [hub], min_samples=100)
        snap = m.refresh(at=64, state_size=7)
        assert snap.ready
        assert snap.current_cost == pytest.approx(1.8)  # 1 + sigma(B)
        assert snap.best_order == ("A", "C", "B")
        assert snap.best_cost == pytest.approx(1.2)
        assert snap.improvement == pytest.approx(0.6 / 1.8)
        assert snap.total_rate == pytest.approx(3.0)
        assert snap.state_size == 7
        assert hub.polls == 1
        round_trip = snap.to_json()
        assert round_trip["best_order"] == ["A", "C", "B"]
        assert round_trip["improvement"] == pytest.approx(snap.improvement)

    def test_probe_weighted_aggregation_across_hubs(self):
        # 300 probes at 0.9 + 100 at 0.1 -> weighted mean 0.7, weight 400.
        hub_a = FakeHub({n: (300, 0.9) for n in NAMES})
        hub_b = FakeHub({n: (100, 0.1) for n in NAMES})
        m = PlanCostMaintainer(NAMES, [hub_a, hub_b], min_samples=256)
        snap = m.refresh(at=1)
        assert snap.ready
        assert snap.samples["B"] == 400
        assert snap.selectivities["B"] == pytest.approx(0.7)

    def test_set_order_preserves_stream_set(self):
        m = PlanCostMaintainer(NAMES, [])
        m.set_order(("A", "C", "B"))
        assert m.order == ("A", "C", "B")
        with pytest.raises(ValueError):
            m.set_order(("A", "B", "D"))
        with pytest.raises(ValueError):
            PlanCostMaintainer(("A",), [])


class TestLiveStateSize:
    def test_plan_strategy_counts_operator_state(self):
        strategy = JISCStrategy(SCHEMA, NAMES)
        assert live_state_size(strategy) == 0
        for tup in drift_events(60):
            strategy.process(tup)
        assert live_state_size(strategy) > 0

    def test_eddy_strategy_counts_stems(self):
        cacq = make_strategy("cacq", SCHEMA, NAMES)
        for tup in drift_events(60):
            cacq.process(tup)
        assert live_state_size(cacq) == sum(len(s) for s in cacq.stems.values())

    def test_plan_less_executors_have_no_live_plans(self):
        assert make_strategy("cacq", SCHEMA, NAMES).live_plans() == []
        mjoin = MJoinExecutor(SCHEMA, NAMES)
        assert mjoin.live_plans() == [] and live_state_size(mjoin) == 0

    def test_sharded_sums_workers(self):
        ex = ShardedExecutor(SCHEMA, NAMES, num_shards=2, strategy="jisc")
        events = list(drift_events(60))
        ex.process_batch(events)
        per_worker = sum(live_state_size(w.strategy) for w in ex.workers)
        assert live_state_size(ex) == per_worker > 0


class TestCurrentOrder:
    def test_all_target_shapes(self):
        assert JISCStrategy(SCHEMA, NAMES).current_order() == NAMES
        assert make_strategy("cacq", SCHEMA, NAMES).current_order() == NAMES
        assert make_strategy("stairs", SCHEMA, NAMES).current_order() == NAMES
        ex = ShardedExecutor(SCHEMA, NAMES, num_shards=2, strategy="jisc")
        assert ex.current_order() == NAMES
        assert AdaptiveEngine(ex, hub_options=HUB_OPTIONS).current_order() == NAMES
        # An MJoin probes in no single order: callers pass order=.
        with pytest.raises(TypeError):
            MJoinExecutor(SCHEMA, NAMES).current_order()
        assert AdaptiveEngine(MJoinExecutor(SCHEMA, NAMES), order=NAMES).order == NAMES

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_every_strategy_follows_its_transitions(self, name):
        engine = make_strategy(name, SCHEMA, NAMES)
        engine.process_batch(list(drift_events(12)))
        engine.transition(SWAPPED)
        assert engine.current_order() == (NAMES if name == "static" else SWAPPED)

    def test_parallel_track_answers_with_its_newest_plan(self):
        engine = make_strategy("parallel_track", SCHEMA, NAMES)
        engine.process_batch(list(drift_events(12)))
        engine.transition(SWAPPED)
        assert len(engine.live_plans()) == 2 and engine.current_order() == SWAPPED

    def test_a_bushy_plan_has_no_probe_order(self):
        four = ("A", "B", "C", "D")
        bushy = JISCStrategy(Schema.uniform(four, 4), (("A", "B"), ("C", "D")))
        with pytest.raises(ValueError, match="not left-deep"):
            bushy.current_order()

    def test_an_engine_built_on_a_transitioned_coordinator_costs_the_running_plan(self):
        """``initial_spec`` is what the coordinator was built with, not what its
        workers run: the loop read A-B-C while every worker ran C-A-B."""
        ex = ShardedExecutor(SCHEMA, NAMES, num_shards=2, strategy="jisc")
        ex.process_batch(list(drift_events(40)))
        ex.transition(SWAPPED)
        assert ex.current_order() == SWAPPED
        engine = AdaptiveEngine(ex, policy=NeverTrigger(), hub_options=HUB_OPTIONS)
        running = {worker.strategy.current_order() for worker in ex.workers}
        assert running == {SWAPPED} and engine.order == SWAPPED
        assert engine.maintainer.order == SWAPPED
        ex.crash_and_recover(1)  # a rebuilt worker is transitioned to the same spec
        assert ex.workers[1].strategy.current_order() == ex.current_order() == SWAPPED


class TestAdaptiveEngineMechanics:
    def test_evaluation_cadence(self):
        engine = AdaptiveEngine(
            JISCStrategy(SCHEMA, NAMES),
            policy=NeverTrigger(),
            evaluate_every=16,
            hub_options=HUB_OPTIONS,
        )
        events = list(drift_events(100))
        engine.run(events)
        assert engine.arrivals == 100
        assert len(engine.decisions) == 100 // 16
        assert engine.fire_count == 0
        assert engine.last_decision is engine.decisions[-1]
        assert engine.last_snapshot() is engine.maintainer.last
        with pytest.raises(ValueError):
            AdaptiveEngine(JISCStrategy(SCHEMA, NAMES), evaluate_every=0)

    def test_forced_transition_updates_loop_bookkeeping(self):
        engine = AdaptiveEngine(
            JISCStrategy(SCHEMA, NAMES), policy=NeverTrigger(), hub_options=HUB_OPTIONS
        )
        events = list(drift_events(40))
        events.insert(20, TransitionEvent(("A", "C", "B")))
        engine.run(events)
        assert engine.order == ("A", "C", "B")
        assert engine.maintainer.order == ("A", "C", "B")
        assert engine.fire_count == 0  # forced, not adaptive

    def test_run_leaves_shard_events_to_the_sharded_target(self):
        from repro.shard import RebalanceEvent, ResizeEvent, skewed_assignment

        events = list(drift_events(90))
        events.insert(60, ResizeEvent(3, "eager"))
        events.insert(30, RebalanceEvent(skewed_assignment(64, 1), "eager", batch_keys=2))
        ex = ShardedExecutor(SCHEMA, NAMES, num_shards=2, strategy="jisc")
        engine = AdaptiveEngine(ex, policy=NeverTrigger(), hub_options=HUB_OPTIONS)
        engine.run(events)
        assert (engine.arrivals, ex.rebalances, ex.num_shards) == (90, 2, 3)
        with pytest.raises(TypeError, match="not a shard event"):
            engine.run(["nonsense"])
        single = AdaptiveEngine(
            JISCStrategy(SCHEMA, NAMES), policy=NeverTrigger(), hub_options=HUB_OPTIONS
        )
        with pytest.raises(TypeError, match="JISCStrategy is not sharded.*RebalanceEvent"):
            single.run(events)
        assert single.arrivals == 30  # everything before the event went through

    def test_trigger_state_round_trip(self):
        engine = AdaptiveEngine(
            JISCStrategy(SCHEMA, NAMES),
            policy=ThresholdTrigger(min_improvement=0.01),
            evaluate_every=8,
            min_samples=32,
            hub_options=HUB_OPTIONS,
        )
        engine.run(drift_events(200))
        state = engine.trigger_state()
        clone = AdaptiveEngine(
            JISCStrategy(SCHEMA, NAMES),
            policy=ThresholdTrigger(min_improvement=0.01),
            evaluate_every=8,
            hub_options=HUB_OPTIONS,
        )
        clone.restore_trigger_state(state)
        assert clone.arrivals == engine.arrivals
        assert clone.order == engine.order
        assert clone.trigger_state() == state

    def test_outputs_passthrough(self):
        engine = AdaptiveEngine(
            JISCStrategy(SCHEMA, NAMES), policy=NeverTrigger(), hub_options=HUB_OPTIONS
        )
        engine.run(drift_events(60))
        assert engine.outputs == engine.target.outputs
        assert engine.output_lineages() == engine.target.output_lineages()
        sharded = AdaptiveEngine(
            ShardedExecutor(SCHEMA, NAMES, num_shards=2, strategy="jisc"),
            policy=NeverTrigger(),
            hub_options=HUB_OPTIONS,
        )
        sharded.run(drift_events(60))
        assert sharded.outputs == sharded.target.outputs
        with pytest.raises(AttributeError):
            AdaptiveEngine.outputs.fget(
                type("Bare", (), {"target": object()})()  # no outputs at all
            )

    def test_sharded_engine_reads_per_worker_hubs(self):
        ex = ShardedExecutor(SCHEMA, NAMES, num_shards=2, strategy="jisc")
        engine = AdaptiveEngine(
            ex,
            policy=NeverTrigger(),
            evaluate_every=32,
            min_samples=16,
            hub_options=HUB_OPTIONS,
        )
        engine.run(drift_events(200))
        assert engine.sharded
        snap = engine.last_snapshot()
        assert snap is not None
        # Per-worker evidence aggregated: weights exceed any single hub's.
        hubs = engine._hubs()
        assert len(hubs) == 2
        for name in NAMES:
            per_hub = [h.selectivity_sample(name) for h in hubs]
            counted = sum(s[0] for s in per_hub if s is not None)
            assert snap.samples[name] == counted

    def test_decisions_published_to_registry(self):
        engine = AdaptiveEngine(
            JISCStrategy(SCHEMA, NAMES),
            policy=NeverTrigger(),
            evaluate_every=16,
            hub_options=HUB_OPTIONS,
        )
        engine.run(drift_events(64))
        reg = engine.telemetry.registry
        evals = reg.with_name("optimizer_trigger_evaluations_total")
        assert sum(i.value for i in evals) == len(engine.decisions) == 4


def test_snapshot_improvement_guards():
    zero = CostSnapshot(at=0, order=NAMES)
    assert zero.improvement == 0.0
    worse = CostSnapshot(
        at=1,
        order=NAMES,
        current_cost=1.0,
        best_order=NAMES,
        best_cost=2.0,
        ready=True,
    )
    assert worse.improvement == 0.0
