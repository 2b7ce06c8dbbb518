"""The telemetry hub: identity (zero perturbation), live estimator
publishing, phase attribution, transitions, snapshots, and the per-shard
``ShardTelemetry`` wiring including crash recovery."""

import random

import pytest

from repro.engine.query import STRATEGIES
from repro.obs.tracer import RecordingTracer
from repro.shard import ShardedExecutor, skewed_assignment, balanced_assignment
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.telemetry import MetricsRegistry, ShardTelemetry, TelemetryTracer
from repro.workloads.scenarios import chain_scenario, swap_for_case


def small_scenario(n_joins=4, n_tuples=1500, window=40, seed=3):
    return chain_scenario(n_joins, n_tuples, window, key_domain=window, seed=seed)


def run_engine(scenario, tracer=None, transition_at=None, new_order=None):
    engine = STRATEGIES["jisc"](scenario.schema, scenario.order, join="hash")
    if tracer is not None:
        tracer.attach(engine)
    for i, tup in enumerate(scenario.tuples):
        if transition_at is not None and i == transition_at:
            engine.transition(new_order)
        engine.process(tup)
    return engine


class TestIdentity:
    def test_op_counts_and_outputs_unchanged(self):
        scenario = small_scenario()
        plain = run_engine(scenario)
        tele = run_engine(scenario, tracer=TelemetryTracer(strategy="jisc"))
        assert dict(plain.metrics.snapshot()) == dict(tele.metrics.snapshot())
        assert [repr(t) for t in plain.outputs] == [repr(t) for t in tele.outputs]

    def test_identity_holds_across_transition(self):
        scenario = small_scenario(n_tuples=2400)
        new_order = swap_for_case(scenario.order, "best")
        plain = run_engine(scenario, transition_at=1200, new_order=new_order)
        tele = run_engine(
            scenario,
            tracer=TelemetryTracer(strategy="jisc"),
            transition_at=1200,
            new_order=new_order,
        )
        assert dict(plain.metrics.snapshot()) == dict(tele.metrics.snapshot())
        assert [repr(t) for t in plain.outputs] == [repr(t) for t in tele.outputs]


class TestRegistryPublishing:
    def test_core_series_present_and_consistent(self):
        scenario = small_scenario()
        hub = TelemetryTracer(strategy="jisc")
        engine = run_engine(scenario, tracer=hub)
        hub.sync()
        reg = hub.registry
        arrivals = reg.get("engine_arrivals_total", strategy="jisc")
        assert arrivals is not None and arrivals.value == len(scenario.tuples)
        per_stream = reg.with_name("engine_stream_arrivals_total")
        assert sum(i.value for i in per_stream) == len(scenario.tuples)
        # per-phase op counters must sum exactly to the engine's totals
        ops = reg.with_name("engine_ops_total")
        assert sum(i.value for i in ops) == sum(engine.metrics.snapshot().values())
        outputs = reg.get("engine_outputs_total", strategy="jisc")
        assert outputs is not None and outputs.value == len(engine.outputs)

    def test_selectivity_series_labeled_by_operator(self):
        scenario = small_scenario()
        hub = TelemetryTracer(strategy="jisc")
        run_engine(scenario, tracer=hub)
        hub.sync()
        sels = hub.selectivities()
        # one estimator per probed operator state, labeled by membership
        assert "S0" in sels
        assert all(v is None or 0.0 <= v <= 1.0 for v in sels.values())
        series = hub.registry.with_name("engine_selectivity")
        labels = {dict(i.labels).get("operator") for i in series}
        assert "S0" in labels

    def test_arrival_rates_on_virtual_clock(self):
        scenario = small_scenario()
        hub = TelemetryTracer(strategy="jisc")
        run_engine(scenario, tracer=hub)
        rates = hub.arrival_rates()
        assert set(rates) == set(scenario.schema.names)
        assert all(r >= 0.0 for r in rates.values())

    def test_selectivity_keeps_accumulating_after_transition(self):
        scenario = small_scenario(n_tuples=2400)
        new_order = swap_for_case(scenario.order, "best")
        hub = TelemetryTracer(strategy="jisc")
        engine = STRATEGIES["jisc"](scenario.schema, scenario.order, join="hash")
        hub.attach(engine)
        for tup in scenario.tuples[:1200]:
            engine.process(tup)
        hub.sync()
        before = sum(
            e[0].total for e in hub._sel.values()  # lifetime probe count
        )
        engine.transition(new_order)
        for tup in scenario.tuples[1200:]:
            engine.process(tup)
        hub.sync()
        after = sum(e[0].total for e in hub._sel.values())
        assert after > before
        transitions = hub.registry.get("engine_transitions_total", strategy="jisc")
        assert transitions is not None and transitions.value == 1


class TestPhasesAndSnapshots:
    def test_phase_scoping_attributes_ops(self):
        scenario = small_scenario()
        hub = TelemetryTracer(strategy="jisc")
        engine = STRATEGIES["jisc"](scenario.schema, scenario.order, join="hash")
        hub.attach(engine)
        half = len(scenario.tuples) // 2
        for tup in scenario.tuples[:half]:
            engine.process(tup)
        previous = hub.set_phase("migration")
        for tup in scenario.tuples[half:]:
            engine.process(tup)
        hub.set_phase(previous)
        hub.sync()
        phases = {
            dict(i.labels)["phase"] for i in hub.registry.with_name("engine_ops_total")
        }
        assert {"steady", "migration"} <= phases
        total = sum(i.value for i in hub.registry.with_name("engine_ops_total"))
        assert total == sum(engine.metrics.snapshot().values())

    def test_periodic_snapshots_interleave_with_inner_trace(self):
        scenario = small_scenario()
        inner = RecordingTracer()
        hub = TelemetryTracer(strategy="jisc", inner=inner, snapshot_every=500)
        run_engine(scenario, tracer=hub)
        assert len(hub.snapshots) == len(scenario.tuples) // 500
        counter = hub.registry.get("telemetry_snapshots_total", strategy="jisc")
        assert counter is not None and counter.value == len(hub.snapshots)
        notes = [e for e in inner.events if e.kind == "note"]
        assert any(e.data.get("what") == "telemetry" for e in notes)

    def test_take_snapshot_and_sync_idempotent(self):
        scenario = small_scenario()
        hub = TelemetryTracer(strategy="jisc")
        run_engine(scenario, tracer=hub)
        snap_a = dict(hub.take_snapshot()["series"])
        snap_b = dict(hub.take_snapshot()["series"])
        # only the snapshot counter itself may move between back-to-back
        # snapshots; every engine-derived series must be stable
        key = 'telemetry_snapshots_total{strategy="jisc"}'
        assert snap_b.pop(key) == snap_a.pop(key) + 1
        assert snap_a == snap_b

    def test_hub_and_inner_recorder_agree_per_phase_on_a_fused_engine(self):
        """Both attribute by boundary deltas over the one ``Metrics``: same
        per-phase counts, summing to it — and no observer picks the path."""
        scenario = small_scenario(n_tuples=2400)
        inner = RecordingTracer()
        hub = TelemetryTracer(strategy="jisc", inner=inner)
        engine = run_engine(
            scenario,
            tracer=hub,
            transition_at=1200,
            new_order=swap_for_case(scenario.order, "worst"),
        )
        assert all(scan.fused is not None for scan in engine.plan.scans.values())
        assert engine.metrics.tracer is hub
        assert hub.phase_counts == inner.phase_counts
        assert set(hub.phase_counts) == {"steady", "completing"}
        assert inner.counts_total() == engine.metrics.counts


class TestOneEventPath:
    """Sixteen typed hooks, one ``event``: the hub acts on twelve kinds through
    its handler table and forwards every kind to ``inner``."""

    CALLS = [
        ("transition_start", ("jisc", 7), {}),
        ("transition_end", ("jisc", 7), {"cost": 1.5}),
        ("migration_end", ("parallel_track",), {}),
        ("completion", ("RS", 17), {"cost": 3.4}),
        ("promote", (5,), {}),
        ("demote", (6,), {}),
        ("checkpoint", ("jisc",), {"outputs": 3}),
        ("note", ("eager_rebuild",), {"states": 2}),
        ("fault", ("crash",), {"arrival": 4}),
        ("recovery", ("restored",), {"log_pos": 10}),
        ("rebalance_start", ("lazy",), {"keys": 8}),
        ("rebalance_batch_start", (0, 3), {"keys": 4}),
        ("shard_move", (11, 0, 2), {"tuples": 3}),
        ("shard_move", (12, 0, 2), {"tuples": 0, "retired": True}),
        ("rebalance_batch_end", (0, 3), {"duration": 2.5}),
        ("rebalance_end", ("lazy",), {}),
        ("trigger", ("suppressed",), {"current_cost": 3.0, "best_cost": 2.0}),
    ]

    def test_every_kind_is_forwarded_and_twelve_are_acted_on(self):
        inner = RecordingTracer()
        hub = TelemetryTracer(strategy="jisc", inner=inner)
        for name, args, data in self.CALLS:
            getattr(hub, name)(*args, **data)
        assert [ev.kind for ev in inner.events] == [name for name, _, _ in self.CALLS]
        assert inner.events[3].data == {"op": "RS", "key": 17, "cost": 3.4}
        assert set(TelemetryTracer._HANDLERS) == {name for name, _, _ in self.CALLS} - {
            "migration_end", "promote", "demote", "note"
        }
        value = lambda name: hub.registry.get(name, strategy="jisc").value_json()
        assert value("engine_transitions_total") == 1
        assert value("engine_completions_total") == 1
        assert value("engine_checkpoints_total") == 1
        assert value("engine_faults_total") == 1
        assert value("engine_recoveries_total") == 1
        assert value("shard_rebalances_total") == 1
        assert value("shard_keys_settled_total") == 1
        assert value("shard_keys_retired_total") == 1
        assert value("shard_moved_tuples_total") == 3
        assert value("shard_rebalance_batches_remaining") == 0
        assert value("shard_rebalance_pending") == 0
        assert value("shard_batch_move_latency")["count"] == 1
        assert value("optimizer_trigger_suppressions_total") == 1
        assert value("optimizer_cost_best") == 2.0


class TestStateGauges:
    """What the query monitor sampled by hand, published at ``sync()`` from
    the engine's own ``state_sizes()`` / ``live_plans()``."""

    def test_sizes_follow_the_live_plans(self):
        scenario = small_scenario(n_joins=3, n_tuples=900)
        hub = TelemetryTracer(strategy="jisc")
        engine = STRATEGIES["jisc"](scenario.schema, scenario.order, join="hash")
        hub.attach(engine)
        assert "engine_state_entries" not in hub.registry  # registered at the first sync
        for tup in scenario.tuples[:600]:
            engine.process(tup)
        hub.sync()

        def published():
            return {
                dict(i.labels)["operator"]: i.value
                for i in hub.registry.with_name("engine_state_entries")
            }

        assert published() == engine.state_sizes()
        assert set(scenario.order) < set(published())  # scans by stream name, joins by membership
        assert hub.registry.get("engine_live_plans", strategy="jisc").value == 1
        assert hub.registry.get("engine_incomplete_states", strategy="jisc").value == 0
        before = set(published())
        engine.transition(swap_for_case(scenario.order, "worst"))
        hub.sync()
        assert hub.registry.get("engine_incomplete_states", strategy="jisc").value == len(
            engine.controller.incomplete_ops
        ) > 0
        gone = before - set(engine.state_sizes())
        assert gone and all(published()[label] == 0 for label in gone)
        assert {k: v for k, v in published().items() if k not in gone} == engine.state_sizes()

    def test_a_hub_over_bare_metrics_publishes_no_state_series(self):
        ex = ShardedExecutor(Schema.uniform(("A", "B"), 4), ("A", "B"), num_shards=2)
        telemetry = ShardTelemetry(ex)
        ex.process_batch([StreamTuple("A", 0, 1), StreamTuple("B", 0, 1)])
        telemetry.sync()
        shards = {
            dict(i.labels).get("shard")
            for i in telemetry.registry.with_name("engine_live_plans")
        }
        assert shards == {"0", "1"}  # the workers' hubs; the coordinator follows a Metrics


def shard_workload(n=1200, n_keys=32, seed=17):
    names = ("A", "B", "C")
    rng = random.Random(seed)
    schema = Schema.uniform(names, 60)
    seqs = dict.fromkeys(names, 0)
    tuples = []
    for _ in range(n):
        stream = rng.choice(names)
        tuples.append(StreamTuple(stream, seqs[stream], rng.randrange(n_keys)))
        seqs[stream] += 1
    return schema, names, tuples


class TestShardTelemetry:
    def _executor(self, num_shards=4):
        schema, names, tuples = shard_workload()
        ex = ShardedExecutor(
            schema,
            names,
            num_shards=num_shards,
            strategy="jisc",
            inter_arrival=80.0,
            assignment=skewed_assignment(64, 0),
        )
        return ex, tuples

    def test_per_shard_series_in_one_registry(self):
        ex, tuples = self._executor()
        telemetry = ShardTelemetry(ex)
        ex.process_batch(tuples)
        telemetry.sync()
        shards = {
            dict(i.labels).get("shard")
            for i in telemetry.registry.with_name("engine_arrivals_total")
        }
        assert {"0", "1", "2", "3"} <= shards
        per_shard = [
            telemetry.registry.get(
                "engine_arrivals_total", strategy=ex.strategy_name, shard=s
            )
            for s in range(4)
        ]
        assert sum(i.value for i in per_shard if i is not None) == len(tuples)
        assert len(telemetry.workers) == 4

    def test_rebalance_series_and_hot_keys(self):
        ex, tuples = self._executor()
        telemetry = ShardTelemetry(ex)
        cut = len(tuples) // 2
        ex.process_batch(tuples[:cut])
        ex.rebalance(balanced_assignment(64, 4), "lazy")
        ex.process_batch(tuples[cut:])
        telemetry.sync()
        reg = telemetry.registry
        rebalances = reg.get("shard_rebalances_total", strategy=ex.name)
        assert rebalances is not None and rebalances.value == 1
        moved = reg.with_name("shard_keys_settled_total")
        assert sum(i.value for i in moved) > 0
        hot = telemetry.hot_keys(0, k=5)
        assert hot and all(count >= 1 for _, count, _ in hot)

    def test_recovery_reattaches_and_reregisters(self):
        ex, tuples = self._executor()
        telemetry = ShardTelemetry(ex)
        cut = len(tuples) // 2
        ex.process_batch(tuples[:cut])
        old_tracer = telemetry.workers[0]
        ex.crash_shard(0)
        ex.recover_shard(0)
        assert telemetry.workers[0] is not old_tracer
        ex.process_batch(tuples[cut:])
        telemetry.sync()
        arrivals = telemetry.registry.get(
            "engine_arrivals_total", strategy=ex.strategy_name, shard=0
        )
        assert arrivals is not None and arrivals.value > 0
        recoveries = telemetry.registry.get("engine_recoveries_total", strategy=ex.name)
        assert recoveries is not None and recoveries.value == 1

    def test_shared_registry_injection(self):
        reg = MetricsRegistry()
        ex, tuples = self._executor(num_shards=2)
        telemetry = ShardTelemetry(ex, registry=reg)
        ex.process_batch(tuples[:100])
        telemetry.sync()
        assert telemetry.registry is reg
        assert len(reg) > 0


class TestOptimizerFacingSurface:
    """The hooks the adaptive loop consumes: off-cadence poll(), weighted
    selectivity samples, and the optimizer_trigger_* series."""

    def test_poll_makes_pending_probes_visible(self):
        scenario = small_scenario()
        hub = TelemetryTracer(strategy="jisc")
        engine = STRATEGIES["jisc"](scenario.schema, scenario.order, join="hash")
        hub.attach(engine)
        # Fewer arrivals than the 64-arrival poll cadence: nothing polled.
        for tup in scenario.tuples[:50]:
            engine.process(tup)
        before = sum(e[0].total for e in hub._sel.values())
        hub.poll()
        after = sum(e[0].total for e in hub._sel.values())
        assert after > before
        # Idempotent: a second poll with no new probes changes nothing.
        hub.poll()
        assert sum(e[0].total for e in hub._sel.values()) == after

    def test_selectivity_sample_weight_and_estimate(self):
        scenario = small_scenario()
        hub = TelemetryTracer(strategy="jisc")
        run_engine(scenario, tracer=hub)
        hub.poll()
        sample = hub.selectivity_sample("S0")
        assert sample is not None
        count, estimate = sample
        assert count > 0 and 0.0 <= estimate <= 1.0
        assert estimate == pytest.approx(hub.selectivities()["S0"])
        assert hub.selectivity_sample("no-such-operator") is None

    def test_trigger_events_publish_counters_and_gauges(self):
        inner = RecordingTracer()
        hub = TelemetryTracer(strategy="jisc", inner=inner)
        hub.trigger("evaluated", reason="warming_up")
        hub.trigger("fired", reason="hysteresis", current_cost=3.0, best_cost=2.0)
        hub.trigger("suppressed", reason="cooldown", current_cost=3.5, best_cost=2.5)
        reg = hub.registry
        assert reg.get("optimizer_trigger_evaluations_total", strategy="jisc").value == 3
        assert reg.get("optimizer_trigger_fires_total", strategy="jisc").value == 1
        assert reg.get("optimizer_trigger_suppressions_total", strategy="jisc").value == 1
        assert reg.get("optimizer_cost_current", strategy="jisc").value == 3.5
        assert reg.get("optimizer_cost_best", strategy="jisc").value == 2.5
        # ... and the decision stream reaches the inner trace.
        triggers = [e for e in inner.events if e.kind == "trigger"]
        assert [e.data["action"] for e in triggers] == [
            "evaluated",
            "fired",
            "suppressed",
        ]

    def test_cacq_stems_get_selectivity_series(self):
        # SteMs carry native probes/hits tallies now; the hub must poll
        # them like plan operators so CACQ runs are adaptable too.
        from repro.shard.worker import make_strategy

        scenario = small_scenario()
        hub = TelemetryTracer(strategy="cacq")
        engine = make_strategy("cacq", scenario.schema, scenario.order)
        hub.attach(engine)
        for tup in scenario.tuples:
            engine.process(tup)
        hub.poll()
        sels = hub.selectivities()
        assert set(scenario.order) <= set(sels)
        assert any(v is not None for v in sels.values())
