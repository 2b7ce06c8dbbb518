"""Fault × adaptivity: crashes mid-adaptive-migration stay exactly-once.

Pytest face of ``python -m repro.optimizer.soak`` (the CI faults job runs
the CLI across its seed matrix; these tests pin the same contract in the
tier-1 suite at one seed, plus the restart-state reconstruction pieces
the CLI only exercises implicitly).  The loop under test is the
production :class:`AdaptiveEngine`, driving a :class:`RecoveryManager`.
"""

import pytest

from repro.faults.plan import CRASH_POINTS, CrashFault, FaultInjector, FaultPlan
from repro.optimizer.soak import (
    RESTART_OFFSETS,
    _fresh_engine,
    soak_one_seed,
    soak_workload,
    trigger_state_from_log,
)


def _fires(engine):
    return [d.at for d in engine.migrations]


def _crashed(where, events, first_fire):
    schema, order, _ = soak_workload()
    plan = FaultPlan(crashes=(CrashFault(at_arrival=first_fire + 1, where=where),))
    return _fresh_engine(schema, order, injector=FaultInjector(plan)).run(events)


@pytest.fixture(scope="module")
def oracle():
    schema, order, events = soak_workload()
    return _fresh_engine(schema, order).run(events), events


def test_soak_certification_seed_zero():
    """The full certification for one seed: every crash point delivers the
    oracle's outputs exactly once with the oracle's fire schedule, and so
    does a restart just before or just after the first fire."""
    assert soak_one_seed(0) == []


def test_oracle_run_fires_and_journals_the_migration(oracle):
    engine, _ = oracle
    _, order, _ = soak_workload()
    delivered = engine.target.delivered
    assert engine.migrations, "drift workload must provoke >= 1 adaptive fire"
    assert len(delivered) == len(set(delivered))
    # The fired migration is in the WAL (journal-then-apply), and the log
    # alone reconstructs the engine's own trigger state.
    restored = trigger_state_from_log(engine.target.store.log(), order)
    state = engine.trigger_state()
    assert restored["arrivals"] == state["arrivals"] == len(engine.decisions) * engine.evaluate_every
    assert restored["order"] == state["order"] == list(engine.order)
    assert restored["policy"]["last_fired_at"] == engine.migrations[-1].at
    assert state["policy"]["last_fired_at"] == engine.migrations[-1].at


@pytest.mark.parametrize("where", CRASH_POINTS)
def test_crashed_run_matches_oracle(where, oracle):
    reference, events = oracle
    engine = _crashed(where, events, _fires(reference)[0])
    delivered = engine.target.delivered

    assert engine.target.recoveries == 1
    assert sorted(delivered) == sorted(reference.target.delivered)
    assert len(delivered) == len(set(delivered))
    assert _fires(engine) == _fires(reference)


def test_restart_restores_trigger_state_no_double_fire(oracle):
    """A fresh engine over a crashed store resumes with the journaled
    migration applied and the cooldown clock running — replay must never
    re-decide, so the fire count stays exactly the oracle's."""
    reference, events = oracle
    engine = _crashed(CRASH_POINTS[0], events, _fires(reference)[0])

    schema, order, _ = soak_workload()
    resumed = _fresh_engine(schema, order, store=engine.target.store)
    state = resumed.trigger_state()
    assert state["arrivals"] == engine.arrivals
    assert state["order"] == list(engine.order)
    assert state["policy"]["last_fired_at"] == engine.migrations[-1].at
    # A warmed cooldown clock means the very next evaluation cannot
    # re-fire the journaled migration.
    assert resumed.policy.state_to_json()["streak"] == 0


@pytest.mark.parametrize("offset", RESTART_OFFSETS)
def test_restart_and_continue_matches_oracle(offset, oracle):
    """One process runs to arrival k, a fresh one over the same store runs
    the rest: exactly-once delivery, every arrival counted, and no fire
    beyond the oracle's — after the fire, the oracle's exact schedule."""
    reference, events = oracle
    k = _fires(reference)[0] + offset
    schema, order, _ = soak_workload()
    first = _fresh_engine(schema, order).run(events[:k])
    resumed = _fresh_engine(schema, order, store=first.target.store).run(events[k:])
    delivered = resumed.target.delivered
    fires = _fires(first) + _fires(resumed)

    assert resumed.target.recoveries == 1
    assert sorted(delivered) == sorted(reference.target.delivered)
    assert len(delivered) == len(set(delivered))
    assert resumed.arrivals == len(events)
    if offset > 0:
        assert fires == _fires(reference)
    else:
        # Estimator evidence is not journaled: the restarted engine warms
        # up again and fires later, never more often.
        assert len(fires) <= len(_fires(reference))


def test_trigger_state_from_empty_log():
    assert trigger_state_from_log([], ("S0", "S1", "S2")) == {
        "arrivals": 0,
        "order": ["S0", "S1", "S2"],
        "policy": {"streak": 0, "last_fired_at": None},
    }


def test_driver_evaluations_never_run_during_replay(oracle):
    """Replay happens inside the manager's process(); decisions only accrue
    from the engine's own cadence, so a crashed run evaluates exactly as
    often as the oracle (same arrivals, same evaluate_every)."""
    reference, events = oracle
    engine = _crashed(CRASH_POINTS[1], events, _fires(reference)[0])
    assert engine.target.recoveries == 1
    assert len(engine.decisions) == len(reference.decisions)
