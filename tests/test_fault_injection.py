"""Fault plans and their injector: determinism, once-only firing, damage modes."""

import json

import pytest

from repro.engine.executor import run_events
from repro.faults.plan import (
    CKPT_CORRUPT,
    CKPT_TRUNCATE,
    CRASH_AFTER_LOG,
    CRASH_POINTS,
    CheckpointFault,
    CrashFault,
    FaultInjector,
    FaultPlan,
    QueueFault,
    SimulatedCrash,
    _corrupt,
    _truncate,
)
from repro.faults.recovery import RecoveryManager
from repro.engine.checkpoint import checkpoint_strategy, restore_strategy
from repro.migration.jisc import JISCStrategy
from repro.obs.tracer import EVENT_FAULT, RecordingTracer
from repro.streams.schema import Schema
from repro.workloads.scenarios import chain_scenario, migration_stage_events


def seeded_plan(seed=7):
    return FaultPlan.from_seed(
        seed,
        n_arrivals=40,
        crashes=2,
        queue_duplicates=2,
        queue_reorders=1,
        queue_drops=1,
        checkpoint_corruptions=2,
    )


def test_from_seed_is_deterministic():
    assert seeded_plan() == seeded_plan()


def test_from_seed_varies_with_seed():
    assert seeded_plan(1) != seeded_plan(2)


def test_plan_records_its_seed():
    assert seeded_plan(9).seed == 9


def test_fault_validation():
    with pytest.raises(ValueError):
        CrashFault(3, where="mid_flight")
    with pytest.raises(ValueError):
        QueueFault("scramble", 0)
    with pytest.raises(ValueError):
        QueueFault("reorder", 0, span=0)
    with pytest.raises(ValueError):
        CheckpointFault(0, mode="shred")


def test_crash_fires_exactly_once():
    injector = FaultInjector(FaultPlan(crashes=(CrashFault(3, CRASH_AFTER_LOG),)))
    injector.crash_point(2, CRASH_AFTER_LOG)  # not scheduled here
    with pytest.raises(SimulatedCrash):
        injector.crash_point(3, CRASH_AFTER_LOG)
    # replayed work must not re-trigger the spent fault
    injector.crash_point(3, CRASH_AFTER_LOG)


def test_queue_action_follows_the_schedule():
    plan = FaultPlan(queue_faults=(QueueFault("duplicate", 1), QueueFault("drop", 3)))
    injector = FaultInjector(plan)
    kinds = [getattr(injector.queue_action(), "kind", None) for _ in range(5)]
    assert kinds == [None, "duplicate", None, "drop", None]
    assert injector.queue_faults_fired == 2


def test_truncated_checkpoint_is_unparseable():
    blob = json.dumps({"version": 2, "windows": {"R": [1, 2, 3]}})
    with pytest.raises(json.JSONDecodeError):
        json.loads(_truncate(blob))


def test_corrupted_checkpoint_parses_but_fails_restore():
    st = JISCStrategy(Schema.uniform(["R", "S", "T"], window=4), ("R", "S", "T"))
    blob = json.dumps(checkpoint_strategy(st))
    damaged = _corrupt(blob)
    data = json.loads(damaged)  # still valid JSON: the damage is semantic
    with pytest.raises(ValueError):
        restore_strategy(data)


def test_filter_checkpoint_damages_the_scheduled_write():
    plan = FaultPlan(
        checkpoint_faults=(
            CheckpointFault(0, CKPT_TRUNCATE),
            CheckpointFault(2, CKPT_CORRUPT),
        )
    )
    injector = FaultInjector(plan)
    blob = json.dumps({"version": 2})
    assert injector.filter_checkpoint(blob) != blob  # truncated
    assert injector.filter_checkpoint(blob) == blob  # untouched
    corrupted = injector.filter_checkpoint(blob)
    assert corrupted != blob and json.loads(corrupted)  # damaged but parseable


def test_injected_faults_are_traced():
    tracer = RecordingTracer()
    injector = FaultInjector(
        FaultPlan(crashes=(CrashFault(0, CRASH_AFTER_LOG),)), tracer
    )
    with pytest.raises(SimulatedCrash):
        injector.crash_point(0, CRASH_AFTER_LOG)
    events = tracer.as_trace().of_kind(EVENT_FAULT)
    assert [e.data["fault"] for e in events] == ["crash"]
    assert events[0].data["arrival"] == 0


def _managed_run(seed):
    scenario = chain_scenario(3, 24, 4, seed=3)
    events = migration_stage_events(scenario, 8)
    plan = FaultPlan.from_seed(seed, n_arrivals=24, crashes=2)
    tracer = RecordingTracer()
    manager = RecoveryManager(
        lambda: JISCStrategy(scenario.schema, scenario.order),
        checkpoint_every=5,
        injector=FaultInjector(plan, tracer),
        tracer=tracer,
    )
    delivered = manager.run(events)
    return delivered, tracer.to_jsonl()


@pytest.mark.parametrize("seed", [0, 11])
def test_faulted_runs_rerun_byte_identically(seed):
    """Seeded faults end to end: same seed, same delivered log, same trace bytes."""
    first_delivered, first_trace = _managed_run(seed)
    second_delivered, second_trace = _managed_run(seed)
    assert first_delivered == second_delivered
    assert first_trace == second_trace


def test_uninterrupted_managed_run_equals_plain_run():
    """The recovery harness itself is output-invisible when nothing faults."""
    scenario = chain_scenario(3, 24, 4, seed=3)
    events = migration_stage_events(scenario, 8)
    plain = run_events(JISCStrategy(scenario.schema, scenario.order), events)
    manager = RecoveryManager(
        lambda: JISCStrategy(scenario.schema, scenario.order), checkpoint_every=5
    )
    delivered = manager.run(events)
    assert delivered == [t.lineage for t in plain.outputs]
    assert manager.recoveries == 0
