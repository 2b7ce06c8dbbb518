"""RecoveryManager: crash points, checkpoint fallback, replay, dedupe, restarts."""

import json

import pytest

from repro.engine.checkpoint import checkpoint_strategy
from repro.engine.executor import run_events
from repro.engine.queued import BufferedJISCStrategy
from repro.faults.plan import (
    CRASH_POINTS,
    CheckpointFault,
    CrashFault,
    FaultInjector,
    FaultPlan,
    QueueFault,
    _corrupt,
)
from repro.faults.queue_faults import install_faulty_scheduler
from repro.faults.recovery import RecoveryManager
from repro.faults.store import DirectoryStore, MemoryStore
from repro.migration.jisc import JISCStrategy
from repro.obs.tracer import EVENT_RECOVERY, PHASE_RECOVERING, RecordingTracer
from repro.streams.tuples import StreamTuple
from repro.workloads.scenarios import chain_scenario, migration_stage_events

WARMUP = 12


@pytest.fixture(scope="module")
def workload():
    scenario = chain_scenario(3, 36, 4, seed=1)
    events = migration_stage_events(scenario, WARMUP)
    return scenario, events


@pytest.fixture(scope="module")
def baseline(workload):
    scenario, events = workload
    plain = run_events(JISCStrategy(scenario.schema, scenario.order), events)
    return sorted(t.lineage for t in plain.outputs)


def factory_for(scenario):
    return lambda: JISCStrategy(scenario.schema, scenario.order)


def recovery_events(tracer):
    return [e.data["what"] for e in tracer.as_trace().of_kind(EVENT_RECOVERY)]


@pytest.mark.parametrize("where", CRASH_POINTS)
def test_crash_at_each_point_is_invisible(workload, baseline, where):
    scenario, events = workload
    manager = RecoveryManager(
        factory_for(scenario),
        checkpoint_every=6,
        injector=FaultInjector(FaultPlan(crashes=(CrashFault(WARMUP + 1, where),))),
    )
    delivered = manager.run(events)
    assert manager.recoveries == 1
    assert sorted(delivered) == baseline


def test_corrupted_checkpoints_fall_back_to_older_one(workload, baseline):
    scenario, events = workload
    tracer = RecordingTracer()
    plan = FaultPlan(
        crashes=(CrashFault(20),),
        # damage every checkpoint write after the first: recovery has to
        # walk back to checkpoint 0
        checkpoint_faults=tuple(CheckpointFault(i) for i in range(1, 12)),
    )
    manager = RecoveryManager(
        factory_for(scenario),
        checkpoint_every=6,
        injector=FaultInjector(plan, tracer),
        tracer=tracer,
    )
    delivered = manager.run(events)
    assert sorted(delivered) == baseline
    whats = recovery_events(tracer)
    assert "checkpoint_rejected" in whats
    restored = [
        e
        for e in tracer.as_trace().of_kind(EVENT_RECOVERY)
        if e.data["what"] == "restored"
    ]
    assert restored and restored[0].data["checkpoint"] == 0


def test_all_checkpoints_damaged_cold_starts(workload, baseline):
    scenario, events = workload
    tracer = RecordingTracer()
    plan = FaultPlan(
        crashes=(CrashFault(20),),
        checkpoint_faults=tuple(CheckpointFault(i) for i in range(12)),
    )
    manager = RecoveryManager(
        factory_for(scenario),
        checkpoint_every=6,
        injector=FaultInjector(plan, tracer),
        tracer=tracer,
    )
    delivered = manager.run(events)
    assert sorted(delivered) == baseline
    assert "cold_start" in recovery_events(tracer)


def test_disabled_checkpointing_replays_whole_log(workload, baseline):
    scenario, events = workload
    manager = RecoveryManager(
        factory_for(scenario),
        checkpoint_every=0,
        injector=FaultInjector(FaultPlan(crashes=(CrashFault(25),))),
    )
    delivered = manager.run(events)
    assert sorted(delivered) == baseline


def test_crash_on_first_arrival_of_the_run(workload, baseline):
    scenario, events = workload
    manager = RecoveryManager(
        factory_for(scenario),
        checkpoint_every=6,
        injector=FaultInjector(FaultPlan(crashes=(CrashFault(0, "before_log"),))),
    )
    assert sorted(manager.run(events)) == baseline


def test_transition_is_logged_and_replayed(workload, baseline):
    # Crash on the first arrival after the forced transition, with no
    # checkpoint in between: replay must re-apply the transition from the
    # write-ahead log to land in the right plan.
    scenario, events = workload
    manager = RecoveryManager(
        factory_for(scenario),
        checkpoint_every=1000,
        injector=FaultInjector(FaultPlan(crashes=(CrashFault(WARMUP, "after_log"),))),
    )
    delivered = manager.run(events)
    assert sorted(delivered) == baseline
    assert manager._live_strategy().plan.spec != scenario.order


def test_replay_duplicates_are_suppressed(workload, baseline):
    scenario, events = workload
    tracer = RecordingTracer()
    manager = RecoveryManager(
        factory_for(scenario),
        checkpoint_every=6,
        injector=FaultInjector(
            FaultPlan(crashes=(CrashFault(WARMUP + 2, "after_process"),)), tracer
        ),
        tracer=tracer,
    )
    delivered = manager.run(events)
    assert sorted(delivered) == baseline
    assert len(set(delivered)) == len(delivered)  # exactly-once delivery
    # the crash hit *after* processing, so the replay regenerated outputs
    # that had already been delivered — those were suppressed, not re-sent
    assert "duplicate_suppressed" in recovery_events(tracer)


def test_queue_duplicates_are_deduped_end_to_end():
    scenario = chain_scenario(3, 30, 4, seed=5)
    events = migration_stage_events(scenario, 10)
    plain = run_events(BufferedJISCStrategy(scenario.schema, scenario.order), events)
    baseline = sorted(t.lineage for t in plain.outputs)
    injector = FaultInjector(
        FaultPlan(queue_faults=tuple(QueueFault("duplicate", i) for i in (4, 9, 17)))
    )
    manager = RecoveryManager(
        lambda: BufferedJISCStrategy(scenario.schema, scenario.order),
        checkpoint_every=6,
        injector=injector,
        on_strategy=lambda s: install_faulty_scheduler(s, injector),
    )
    delivered = manager.run(events)
    assert injector.queue_faults_fired == 3
    # raw strategy outputs contain the duplicated emissions ...
    assert len(manager._live_strategy().outputs) > len(delivered)
    # ... but the delivered log equals the clean run, each result once
    assert sorted(delivered) == baseline
    assert len(set(delivered)) == len(delivered)


def test_replay_runs_in_recovering_phase(workload, baseline):
    scenario, events = workload
    tracer = RecordingTracer()
    manager = RecoveryManager(
        factory_for(scenario),
        checkpoint_every=6,
        injector=FaultInjector(FaultPlan(crashes=(CrashFault(20),)), tracer),
        tracer=tracer,
    )
    manager.run(events)
    counts = tracer.as_trace().phase_counts
    assert PHASE_RECOVERING in counts
    assert sum(counts[PHASE_RECOVERING].values()) > 0
    whats = recovery_events(tracer)
    assert "crash" in whats and "replayed" in whats


def test_directory_store_survives_process_restart(tmp_path, workload, baseline):
    scenario, events = workload
    store_path = str(tmp_path / "durable")
    first = RecoveryManager(
        factory_for(scenario), store=DirectoryStore(store_path), checkpoint_every=6
    )
    first.run(events[:30])
    # a brand-new manager over the same directory models a new process:
    # it must recover (checkpoint + log replay) before consuming more
    second = RecoveryManager(
        factory_for(scenario), store=DirectoryStore(store_path), checkpoint_every=6
    )
    second.run(events[30:])
    assert second.recoveries == 1
    assert sorted(second.delivered) == baseline


def test_restart_recovers_from_prepared_store(workload):
    # Direct fallback check over a hand-built store: newest checkpoint is
    # corrupt, the older one is good; no log tail.
    scenario, _ = workload
    st = JISCStrategy(scenario.schema, scenario.order)
    for tup in scenario.tuples[:12]:
        st.process(tup)
    good = json.dumps(checkpoint_strategy(st))
    store = MemoryStore()
    for tup in scenario.tuples[:12]:
        store.append_log(
            {
                "type": "arrival",
                "stream": tup.stream,
                "seq": tup.seq,
                "key": tup.key,
                "payload": tup.payload,
            }
        )
    store.put_checkpoint(good, 12)
    store.put_checkpoint(_corrupt(good), 12)
    manager = RecoveryManager(factory_for(scenario), store=store)
    restored = manager._ensure_strategy()
    assert manager.recoveries == 1
    for name in scenario.order:
        assert [t.seq for t in restored.plan.scans[name].window] == [
            t.seq for t in st.plan.scans[name].window
        ]
