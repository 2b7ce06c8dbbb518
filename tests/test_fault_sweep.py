"""Crash-point sweep: a crash at *every* arrival index is output-invisible.

Satellite of the fault-injection subsystem: a four-stream workload with a
forced mid-run plan transition is checkpointed, crashed and restored at
each arrival index — including inside the migration window — and the
continuation must be output-identical to the uninterrupted run for every
strategy under test.
"""

import pytest

from tests.helpers import plant
from repro.faults import sweep
from repro.faults.recovery import RecoveryManager
from repro.faults.plan import CRASH_POINTS
from repro.workloads.scenarios import chain_scenario, migration_stage_events

STRATEGIES = ("jisc", "moving_state", "jisc_buffered")
WARMUP = 8


@pytest.fixture(scope="module")
def workload():
    scenario = chain_scenario(3, 24, 4, seed=2)
    events = migration_stage_events(scenario, WARMUP, "best")
    return scenario, events


@pytest.mark.parametrize("name", STRATEGIES)
def test_crash_at_every_arrival_index(workload, name):
    scenario, events = workload
    runs, failures = sweep.crash_sweep(
        name,
        scenario,
        events,
        wheres=("after_log",),
        checkpoint_every=5,
        trace_dir=None,
    )
    assert runs == 24
    assert failures == []


def test_all_crash_points_during_migration_window():
    # Dense coverage of the migration window itself, at all three crash
    # boundaries (the full-index sweep above fixes one boundary).
    scenario = chain_scenario(3, 16, 4, seed=2)
    events = migration_stage_events(scenario, 6, "worst")
    runs, failures = sweep.crash_sweep(
        "jisc", scenario, events, wheres=CRASH_POINTS, checkpoint_every=4, trace_dir=None
    )
    assert runs == 16 * len(CRASH_POINTS)
    assert failures == []


@pytest.mark.parametrize("mode", ["lazy", "eager"])
@pytest.mark.parametrize("n_from,n_to", [(2, 4), (4, 2)])
def test_crash_inside_a_resize_plan(mode, n_from, n_to):
    """The ``--during-rebalance`` family, scaled down: every shard is
    crashed at every arrival inside an in-flight fluid resize plan, and
    the run must end with the crash-free routing table and output."""
    runs, failures = sweep.rebalance_crash_sweep(
        "jisc", mode, n_from, n_to, batch_keys=2, n_tuples=36, resize_at=15
    )
    assert runs > 0
    assert failures == []


def test_cli_sweep_smoke(capsys):
    code = sweep.main(
        ["--strategies", "jisc", "--tuples", "12", "--checkpoint-every", "4"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "sweep jisc" in out and "OK" in out and "FAIL" not in out


def test_cli_soak_smoke(capsys):
    code = sweep.main(
        [
            "--strategies",
            "jisc_buffered",
            "--tuples",
            "16",
            "--no-sweep",
            "--soak",
            "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "soak  jisc_buffered: 2 seeded run(s): OK" in out


def test_cli_rejects_unknown_strategy():
    with pytest.raises(SystemExit):
        sweep.main(["--strategies", "warp_drive"])


def test_failure_exports_trace(tmp_path, capsys, monkeypatch):
    # Force a failure by dropping the recovery's dedup: the sweep must report
    # it, exit nonzero, and export a JSONL trace of each failing run.
    drop_dedup = ("if lineage in self._delivered_seen:", "if False:")
    plant(monkeypatch, RecoveryManager, "_deliver_new", *drop_dedup)
    code = sweep.main(
        [
            "--strategies",
            "jisc",
            "--tuples",
            "20",
            "--checkpoint-every",
            "3",
            "--trace",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    assert list(tmp_path.glob("*.jsonl"))
