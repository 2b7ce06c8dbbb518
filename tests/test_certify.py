"""One crash certifier: every cell ends in one verdict, and a planted fault
fails each family it must.

The planted faults are one-line product mutations (``helpers.plant``), the
table in docs/FAULT_INJECTION.md: each must fail the parameter sets the CI
faults job runs — the crash sweep, the seeded soak, the rebalance family and
the adaptive soak — where the table says it does.
"""

import pytest

from tests.helpers import plant
from repro.faults import sweep
from repro.faults.certify import Cell, certify, failure_lines, trace_file
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import CrashFault, FaultInjector, FaultPlan
from repro.faults.recovery import RecoveryManager
from repro.migration.jisc import JISCStrategy
from repro.obs.tracer import EVENT_FAULT, load_trace
from repro.optimizer import soak
from repro.shard.executor import ShardedExecutor
from repro.workloads.scenarios import chain_scenario, migration_stage_events

pytestmark = pytest.mark.hashseed

DROP_DEDUP = ("if lineage in self._delivered_seen:", "if False:")
SKIP_FIRST_REPLAYED = ("tail = self.store.log()[log_pos:]", "tail = self.store.log()[log_pos + 1:]")
SKIP_INSTALL = (
    'elif kind == "install":  # rebuild the parcel, then adopt it\n',
    'elif kind == "install":  # rebuild the parcel, then adopt it\n'
    "                    continue\n",
)
SKIP_TRIGGER_RESTORE = (
    "engine.restore_trigger_state(trigger_state_from_log(log, order))",
    "pass",
)


def _fails(capsys, argv):
    code = sweep.main(argv)
    lines = capsys.readouterr().out.splitlines()
    return code, [line for line in lines if line.startswith("FAIL ")], lines


def _managed_jisc(scenario):
    def factory(plan, store, tracer):
        return RecoveryManager(
            lambda: JISCStrategy(scenario.schema, scenario.order),
            store,
            checkpoint_every=4,
            injector=FaultInjector(plan, tracer),
            tracer=tracer,
        )

    return factory


def test_every_cell_ends_in_one_verdict_and_a_raise_is_a_failed_cell(monkeypatch):
    scenario = chain_scenario(3, 16, 4, seed=2)
    events = migration_stage_events(scenario, 6, "worst")
    cells = [Cell(f"crash@{i}", FaultPlan(crashes=(CrashFault(i, "after_log"),))) for i in (3, 9)]
    checker = InvariantChecker(scenario.schema, scenario.order)
    ok = certify(_managed_jisc(scenario), events, lambda _: cells, checker)
    assert [(v.cell, v.ok, v.reasons) for v in ok] == [("crash@3", True, ()), ("crash@9", True, ())]

    def broken(self):
        raise RuntimeError("no checkpoint survives")

    monkeypatch.setattr(RecoveryManager, "_recover", broken)
    failed = certify(_managed_jisc(scenario), events, lambda _: cells, checker)
    assert [v.cell for v in failed] == ["crash@3", "crash@9"]
    assert all(v.reasons == ("raised RuntimeError: no checkpoint survives",) for v in failed)
    assert failure_lines(failed)[0] == "crash@3: raised RuntimeError: no checkpoint survives"


def test_a_restart_cell_continues_over_the_same_store():
    scenario = chain_scenario(3, 16, 4, seed=2)
    events = migration_stage_events(scenario, 6, "worst")
    runs = []

    def extra(cell, engines, baseline):
        runs.append((len(engines), engines[0].store is engines[1].store, engines[1].recoveries))
        return []

    checker = InvariantChecker(scenario.schema, scenario.order)
    verdicts = certify(
        _managed_jisc(scenario), events, lambda _: [Cell("restart@7", at=7)], checker, extra
    )
    assert verdicts[0].ok and runs == [(2, True, 1)]


def test_a_shard_entry_crashes_between_runs_and_a_dead_slot_is_skipped(monkeypatch):
    crashed = []
    monkeypatch.setattr(
        ShardedExecutor, "crash_and_recover", lambda self, shard: crashed.append(shard)
    )
    runs, failures = sweep.rebalance_crash_sweep(
        "jisc", "eager", 4, 2, batch_keys=2, n_tuples=36, resize_at=15
    )
    assert failures == []
    # 4→2 retires shards 2 and 3 once the plan drains: their late cells crash nothing.
    assert runs == 8 and len(crashed) < runs


def test_dropping_the_dedup_fails_the_sweep_the_soak_and_the_adaptive_soak(monkeypatch, capsys):
    plant(monkeypatch, RecoveryManager, "_deliver_new", *DROP_DEDUP)
    code, fails, lines = _fails(capsys, ["--tuples", "24", "--checkpoint-every", "5"])
    assert code == 1 and len(fails) == 9
    assert "sweep jisc: 24 crash run(s): 3 FAILED" in lines
    assert all("duplicate delivery" in line for line in fails)
    code, fails, _ = _fails(capsys, ["--no-sweep", "--tuples", "32", "--soak-seeds", "0", "1", "2"])
    assert code == 1 and len(fails) == 6
    assert all("(replay with --soak-seeds" in line for line in fails)
    # Seed 0's crashes right after the fire replay no delivered output; the
    # replaying crash the oracle's log places is what catches it.
    failures = soak.soak_one_seed(0)
    assert [f.split(":")[0] for f in failures] == ["seed 0/dedup@263"]
    assert "duplicate delivery" in failures[0]


def test_skipping_the_first_replayed_record_fails_the_sweep_and_the_adaptive_soak(
    monkeypatch, capsys
):
    plant(monkeypatch, RecoveryManager, "_recover", *SKIP_FIRST_REPLAYED)
    code, fails, _ = _fails(capsys, ["--tuples", "24", "--checkpoint-every", "5"])
    assert code == 1 and len(fails) == 15
    assert soak.soak_one_seed(0)


def test_recovery_that_skips_installs_fails_the_rebalance_family_and_exports_traces(
    monkeypatch, capsys, tmp_path
):
    plant(monkeypatch, ShardedExecutor, "recover_shard", *SKIP_INSTALL)
    argv = ["--no-sweep", "--during-rebalance", "--trace", str(tmp_path)]
    code, fails, lines = _fails(capsys, argv)
    assert code == 1
    assert "rebalance-crash family: 480 crash run(s): 72 FAILED" in lines
    cell = fails[0][len("FAIL ") :].split(":")[0]
    assert fails[0].endswith(f"[trace: {trace_file(str(tmp_path), cell)}]")
    assert len(list(tmp_path.glob("*.jsonl"))) == 72
    trace = load_trace(trace_file(str(tmp_path), cell))
    assert any(e.kind == EVENT_FAULT and e.data["fault"] == "shard_crash" for e in trace.events)


def test_a_restart_that_skips_the_trigger_state_fails_the_adaptive_soak(monkeypatch):
    plant(monkeypatch, soak, "_fresh_engine", *SKIP_TRIGGER_RESTORE)
    failures = soak.soak_one_seed(0)
    assert any("restart restored order" in f for f in failures)
    assert any("restart lost the cooldown clock" in f for f in failures)


@pytest.mark.parametrize(
    "name", ["jisc", "moving_state", "static", "jisc_buffered", "static_buffered"]
)
def test_the_sweep_reads_the_checkpoint_table(name):
    assert name in sweep.strategy_kinds()
    assert (name in sweep.BUFFERED) == name.endswith("_buffered")
