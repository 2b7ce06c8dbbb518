"""Fault × adaptivity soak: crash the closed loop mid-migration.

The adaptive loop adds one durability question on top of the recovery
contract :mod:`repro.faults` already certifies: after a crash and
replay, does the *trigger* come back in the right state — same plan,
same cooldown clock — so it neither loses a migration nor fires the same
one twice?

The soak runs :class:`AdaptiveEngine` over a :class:`RecoveryManager`
whose tracer is the engine's telemetry hub; the answer is by construction:

* a fired migration is the engine's ``target.transition(spec)``, which
  the manager journals in the write-ahead log *before* applying it —
  replay re-applies it like any other event;
* trigger evaluations run only between the manager's ``process`` calls,
  never inside replay (replay happens inside ``process``), so recovery
  cannot re-decide;
* on a restart over an existing store, the trigger state is
  reconstructed from the log alone (:func:`trigger_state_from_log`) and
  handed to :meth:`AdaptiveEngine.restore_trigger_state`: arrivals
  consumed, the current order, and the cooldown clock of the last fire.
  Estimator evidence is not journaled; a restarted engine gathers it
  afresh.

``python -m repro.optimizer.soak`` runs the certification the CI faults
job executes: per seed, a fault-free oracle run, three crashes around the
first adaptive fire (before-log, after-log, after-process) and a process
restart just before and just after it.  Every run delivers exactly the
oracle's outputs; a crash or restart after the fire keeps the oracle's
fire schedule, a restart before it may fire later but never more often.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine.checkpoint import spec_from_json
from repro.engine.executor import Event
from repro.faults.plan import CRASH_POINTS, CrashFault, FaultInjector, FaultPlan
from repro.faults.recovery import RecoveryManager
from repro.faults.store import DurableStore, Lineage
from repro.migration.jisc import JISCStrategy
from repro.optimizer.adaptive import AdaptiveEngine
from repro.optimizer.triggers import HysteresisTrigger
from repro.plans.spec import left_deep_order
from repro.streams.schema import Schema
from repro.telemetry.hub import TelemetryTracer
from repro.workloads.drift import SelectivityDriftWorkload

#: Restart-and-continue cells: arrivals consumed before the restart,
#: relative to the oracle's first fire.
RESTART_OFFSETS = (-5, 1)


def trigger_state_from_log(log: Sequence[Dict[str, Any]], order: Sequence[str]) -> Dict[str, Any]:
    """Reconstruct :meth:`AdaptiveEngine.trigger_state` from a WAL.

    ``order`` is the initial probe order, current until the first
    journaled transition.  Each transition record marks a fire at the
    arrival count preceding it.  (Forced transitions would be
    indistinguishable; the soak journals only adaptive fires, so the
    reading is exact here.)
    """
    arrivals = 0
    current = list(order)
    last_fired_at: Optional[int] = None
    for record in log:
        if record["type"] == "arrival":
            arrivals += 1
        elif record["type"] == "transition":
            current = list(left_deep_order(spec_from_json(record["spec"])))
            last_fired_at = arrivals
    policy = {"streak": 0, "last_fired_at": last_fired_at}
    return {"arrivals": arrivals, "order": current, "policy": policy}


# -- the CLI certification (CI faults job) ----------------------------------------------


def soak_workload(
    n_tuples: int = 360, window: int = 16, seed: int = 0
) -> Tuple[Schema, Tuple[str, ...], List[Event]]:
    """A three-stream drift workload that provokes ≥1 adaptive fire.

    Phase one keeps the initial order (S0, S1, S2) optimal (S1 is the
    selective stream, already probed first); phase two — two thirds of
    the run, so the drifted evidence dominates the estimator windows —
    moves the scatter to S2, making the initial order worst and a
    warmed-up trigger fire.
    """
    names = ("S0", "S1", "S2")
    schema = Schema.uniform(names, window)
    phases = [(n_tuples // 3, "S1"), (n_tuples - n_tuples // 3, "S2")]
    workload = SelectivityDriftWorkload(
        names, phases, base_domain=8, scatter=24, seed=seed
    )
    return schema, names, list(workload.materialize())


def _fresh_engine(
    schema: Schema,
    order: Tuple[str, ...],
    injector: Optional[FaultInjector] = None,
    store: Optional[DurableStore] = None,
) -> AdaptiveEngine:
    """One process's adaptive loop over a crash-recovering JISC strategy;
    over a non-empty ``store`` it resumes the logged trigger state."""
    # The workload is a few hundred tuples: estimator windows must be
    # much smaller than a phase, or the two phases' evidence blends and
    # no drift is ever visible.
    hub = TelemetryTracer(
        strategy="adaptive", selectivity_window=96, drift_block=16, drift_min_samples=32
    )
    manager = RecoveryManager(
        lambda: JISCStrategy(schema, order),
        store=store,
        checkpoint_every=10,
        injector=injector,
        tracer=hub,
    )
    engine = AdaptiveEngine(
        manager,
        policy=HysteresisTrigger(min_improvement=0.08, confirm=2, cooldown=64),
        order=order,
        evaluate_every=8,
        telemetry=hub,
        min_samples=32,
    )
    log = manager.store.log()
    if log:
        engine.restore_trigger_state(trigger_state_from_log(log, order))
    return engine


def _delivery_failures(cell: str, delivered: List[Lineage], oracle: List[Lineage]) -> List[str]:
    failures = []
    if sorted(delivered) != sorted(oracle):
        failures.append(f"{cell}: delivery diverged ({len(delivered)} vs {len(oracle)} outputs)")
    if len(delivered) != len(set(delivered)):
        failures.append(f"{cell}: duplicate delivery")
    return failures


def soak_one_seed(seed: int, n_tuples: int = 360, window: int = 16) -> List[str]:
    """Certify one seed; returns failure descriptions (empty = pass)."""
    schema, order, events = soak_workload(n_tuples, window, seed)
    oracle = _fresh_engine(schema, order)
    oracle_delivered = oracle.run(events).target.delivered
    failures: List[str] = []
    if not oracle.migrations:
        return [f"seed {seed}: the drift workload provoked no adaptive fire"]
    oracle_fires = [d.at for d in oracle.migrations]
    first_fire = oracle_fires[0]
    # Crash around the first migration: the arrival consumed right after
    # the fire lands mid-JISC-completion (lazy state completion is still
    # outstanding for migrated keys).
    for where in CRASH_POINTS:
        cell = f"seed {seed}/{where}"
        plan = FaultPlan(crashes=(CrashFault(at_arrival=first_fire + 1, where=where),))
        engine = _fresh_engine(schema, order, injector=FaultInjector(plan))
        manager = engine.run(events).target
        fires = [d.at for d in engine.migrations]
        if manager.recoveries != 1:
            failures.append(f"{cell}: expected exactly 1 recovery, saw {manager.recoveries}")
        failures.extend(_delivery_failures(cell, manager.delivered, oracle_delivered))
        if fires != oracle_fires:
            failures.append(
                f"{cell}: fire schedule diverged (crashed={fires}, oracle={oracle_fires})"
            )
        # Restart certification: a fresh engine over the crashed store
        # must resume with the fired migration visible and the cooldown
        # clock running — no second fire of an already-journaled one.
        state = _fresh_engine(schema, order, store=manager.store).trigger_state()
        if state["order"] != list(engine.order):
            failures.append(
                f"{cell}: restart restored order {state['order']} "
                f"!= live order {list(engine.order)}"
            )
        if state["policy"]["last_fired_at"] != (fires[-1] if fires else None):
            failures.append(f"{cell}: restart lost the cooldown clock ({state['policy']})")
    # Restart and continue: one process runs to arrival k, a fresh one
    # over the same store runs the rest of the stream.
    for offset in RESTART_OFFSETS:
        k = first_fire + offset
        cell = f"seed {seed}/restart@{k}"
        first = _fresh_engine(schema, order).run(events[:k])
        resumed = _fresh_engine(schema, order, store=first.target.store).run(events[k:])
        fires = [d.at for d in first.migrations + resumed.migrations]
        failures.extend(_delivery_failures(cell, resumed.target.delivered, oracle_delivered))
        if resumed.arrivals != len(events):
            failures.append(f"{cell}: resumed at {resumed.arrivals} arrivals, not {len(events)}")
        if offset > 0 and fires != oracle_fires:
            failures.append(f"{cell}: fire schedule diverged ({fires} vs {oracle_fires})")
        if len(fires) > len(oracle_fires):
            failures.append(f"{cell}: more fires than the oracle ({fires} vs {oracle_fires})")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="fault x adaptivity soak: crash mid-adaptive-migration"
    )
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--tuples", type=int, default=360)
    parser.add_argument("--window", type=int, default=16)
    args = parser.parse_args(argv)
    failures: List[str] = []
    for seed in args.seeds:
        failures.extend(soak_one_seed(seed, args.tuples, args.window))
    cells = len(args.seeds) * (len(CRASH_POINTS) + len(RESTART_OFFSETS))
    if failures:
        print(f"ADAPTIVE SOAK: FAIL ({len(failures)} failures over {cells} cells)")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"ADAPTIVE SOAK: OK — {cells} cells "
        f"(seeds {args.seeds} x {list(CRASH_POINTS)} + restart at first fire "
        f"{', '.join(f'{o:+d}' for o in RESTART_OFFSETS)}), "
        "exactly-once delivery and trigger state preserved"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
