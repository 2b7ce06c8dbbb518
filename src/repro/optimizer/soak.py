"""Fault × adaptivity soak: crash the closed loop mid-migration.

On top of the recovery contract, the adaptive loop must come back from a
crash or a restart with its *trigger* state — same plan, same cooldown
clock — so it neither loses a migration nor fires one twice.  The soak runs
:class:`AdaptiveEngine` over a :class:`RecoveryManager` whose tracer is the
engine's hub, and that holds by construction: a fired migration is
``target.transition(spec)``, journaled before it is applied, so replay
re-applies it; evaluations run between the manager's ``process`` calls,
never inside replay, so recovery cannot re-decide; and a restart over an
existing store rebuilds the trigger state from the log alone
(:func:`trigger_state_from_log`: arrivals, order, last fire) — estimator
evidence is not journaled, a restarted engine gathers it afresh.

``python -m repro.optimizer.soak`` is the CI faults job's parameter set of
:func:`~repro.faults.certify.certify`: per seed, three crashes right after
the first adaptive fire (one per crash point), one crash the oracle's log
says must replay a delivered output, and a restart just before and just
after the fire.  Every cell delivers exactly the oracle's outputs; after
the fire the oracle's fire schedule holds, a restart before it may fire
later but never more often.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple, cast

from repro.engine.checkpoint import spec_from_json
from repro.engine.executor import Event
from repro.faults.certify import Cell, certify, failure_lines
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import CRASH_POINTS, CrashFault, FaultInjector, FaultPlan
from repro.faults.recovery import RecoveryManager
from repro.faults.store import DurableStore
from repro.migration.jisc import JISCStrategy
from repro.obs.tracer import Tracer
from repro.optimizer.adaptive import AdaptiveEngine
from repro.optimizer.triggers import HysteresisTrigger
from repro.plans.spec import left_deep_order
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.telemetry.hub import TelemetryTracer, series_name
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
    manager = RecoveryManager(lambda: JISCStrategy(schema, order), store, 10, injector, hub)
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


def replaying_arrival(oracle: AdaptiveEngine, arrivals: Sequence[StreamTuple], after: int) -> int:
    """The first arrival past ``after`` whose crash (after its log append)
    replays an arrival that delivered output — read off the oracle's log,
    checkpoints and deliveries: a recovery there must suppress a duplicate."""
    store = oracle.target.store
    index = {(t.stream, t.seq): i for i, t in enumerate(arrivals)}
    producers = {max(index[part] for part in lineage) for lineage in store.delivered()}
    position = [p for p, record in enumerate(store.log()) if record["type"] == "arrival"]
    checkpoints = [c.log_pos for c in store.checkpoints()]
    for i in range(after + 1, len(arrivals)):
        restored = max((c for c in checkpoints if c <= position[i]), default=0)
        if any(restored <= position[j] for j in producers if j < i):
            return i
    raise ValueError(f"no crash after arrival {after} replays a delivered output")


def _emitted(engine: AdaptiveEngine) -> int:
    """Outputs the engine's incarnations emitted, replays included."""
    hub = cast(TelemetryTracer, engine.telemetry)
    return int(hub.series()[series_name("engine_outputs_total", strategy="adaptive")])


def soak_one_seed(seed: int, n_tuples: int = 360, window: int = 16) -> List[str]:
    """Certify one seed; returns failure descriptions (empty = pass)."""
    schema, order, events = soak_workload(n_tuples, window, seed)

    def factory(plan: FaultPlan, store: Optional[DurableStore], tracer: Tracer) -> AdaptiveEngine:
        return _fresh_engine(schema, order, FaultInjector(plan, tracer), store)

    def schedule(oracle: AdaptiveEngine) -> List[Cell]:
        if not oracle.migrations:
            raise ValueError(f"seed {seed}: the drift workload provoked no adaptive fire")
        # The arrival right after the fire lands mid-JISC-completion: lazy
        # completion is still outstanding for migrated keys.
        first = oracle.migrations[0].at
        replay = replaying_arrival(oracle, cast(List[StreamTuple], events), first + 1)
        crashes = [(where, CrashFault(first + 1, where)) for where in CRASH_POINTS]
        crashes.append((f"dedup@{replay}", CrashFault(replay)))
        return [Cell(f"seed {seed}/{name}", FaultPlan(crashes=(f,))) for name, f in crashes] + [
            Cell(f"seed {seed}/restart@{first + offset}", at=first + offset - 1)
            for offset in RESTART_OFFSETS
        ]

    def extra(cell: Cell, engines: Sequence[AdaptiveEngine], oracle: AdaptiveEngine) -> List[str]:
        oracle_fires = [d.at for d in oracle.migrations]
        fires = [d.at for engine in engines for d in engine.migrations]
        last = engines[-1]
        # A fresh engine over the final store must resume with the fired
        # migration visible and the cooldown clock running.
        state = _fresh_engine(schema, order, store=last.target.store).trigger_state()
        checks = [
            (last.target.recoveries == 1,
             f"expected exactly 1 recovery, saw {last.target.recoveries}"),
            ((cell.at is not None and cell.at < oracle_fires[0]) or fires == oracle_fires,
             f"fire schedule diverged ({fires} vs oracle {oracle_fires})"),
            (len(fires) <= len(oracle_fires),
             f"more fires than the oracle ({fires} vs {oracle_fires})"),
            (last.arrivals == len(events),
             f"resumed at {last.arrivals} arrivals, not {len(events)}"),
            (state["order"] == list(last.order),
             f"restart restored order {state['order']} != live order {list(last.order)}"),
            (state["policy"]["last_fired_at"] == (fires[-1] if fires else None),
             f"restart lost the cooldown clock ({state['policy']})"),
            ("/dedup@" not in cell.name or sum(map(_emitted, engines)) > _emitted(oracle),
             "the replay re-emitted no delivered output: the dedup went unexercised"),
        ]  # fmt: skip
        return [reason for held, reason in checks if not held]

    try:
        verdicts = certify(factory, events, schedule, InvariantChecker(schema, order), extra)
    except ValueError as exc:
        return [str(exc)]
    return failure_lines(verdicts)


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
    cells = len(args.seeds) * (len(CRASH_POINTS) + 1 + len(RESTART_OFFSETS))
    if failures:
        print(f"ADAPTIVE SOAK: FAIL ({len(failures)} failures over {cells} cells)")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"ADAPTIVE SOAK: OK — {cells} cells "
        f"(seeds {args.seeds} x {list(CRASH_POINTS)} + a replaying crash + restart at "
        f"first fire {', '.join(f'{o:+d}' for o in RESTART_OFFSETS)}), "
        "exactly-once delivery and trigger state preserved"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
