"""Smoke test of the wall-clock benchmark (run by path; not part of tier-1).

    python -m pytest benchmarks/wallclock/test_wallclock_smoke.py

Drives ``--quick`` end to end and checks the harness's own promises: every
metric of BENCHMARK.json is printed with its unit, counts repeat exactly for
a seed, a planted output fault and an absurd offered rate are both caught,
and the tracer leaves ``repro``'s classes as it found them.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchmarks.wallclock import cli, passes, trace  # noqa: E402
from benchmarks.wallclock.workloads import WORKLOADS  # noqa: E402

SPEC = cli.load_spec()


def run_quick(seed, *extra):
    """One ``--quick --trace 1`` run of the whole set: (stdout, report)."""
    cmd = [sys.executable, os.path.join(HERE, "__main__.py"), "--quick", "--trace", "1"]
    proc = subprocess.run(
        cmd + ["--seed", str(seed), *extra], stdout=subprocess.PIPE, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout
    with open(os.path.join(HERE, "out", "report.json")) as fh:
        return proc.stdout, json.load(fh)


def counts(report):
    """The ``ops.*`` and ``state.*`` counts of every pass of every workload."""
    return {
        name: [
            {k: v for k, v in p["sizes"].items() if k.startswith(("ops.", "state."))}
            for p in entry["passes"]
        ]
        for name, entry in report["workloads"].items()
    }


@pytest.fixture(scope="module")
def quick_run():
    return run_quick(1)


def test_quick_prints_every_metric_and_counts_repeat(quick_run):
    stdout, report = quick_run
    assert set(report["workloads"]) == set(WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
        line = re.compile(rf"^\s+{re.escape(metric['name'])}\s+\S+\s+{re.escape(metric['unit'])}\b", re.M)
        assert len(line.findall(stdout)) == len(WORKLOADS), metric["name"]
    for entry in report["workloads"].values():
        assert entry["correct"] and entry["failed"] == 0 and entry["failed_share"] == 0
        assert entry["unsustainable_passes"] == 0
        assert entry["per_layer"]["trace.unresolved_points"] == 0
        # closed, open and traced passes of one seed count the same work
        sizes = [p["sizes"] for p in entry["passes"]]
        assert all(s == sizes[0] for s in sizes)
    for key in ("python", "machine", "nproc", "calibration_score"):
        assert report["fingerprint"][key]

    _, again = run_quick(1)
    _, other = run_quick(2)
    assert counts(again) == counts(report)
    for name in WORKLOADS:
        assert counts(other)[name] != counts(report)[name]


def test_each_workload_exercises_its_layer_and_bypasses_the_others(quick_run):
    _, report = quick_run
    layers = {name: entry["per_layer"] for name, entry in report["workloads"].items()}
    idle = ("core.settle", "shard.", "telemetry.", "optimizer.evaluate", "optimizer.cost_refresh")
    for key, value in layers["steady_join"].items():
        if key.endswith(".calls") and key.startswith(idle):
            assert value == 0, key
    assert layers["migrate_churn"]["migration.transition.calls"] > 0
    assert layers["rebalance_churn"]["shard.worker_replay.calls"] > 0
    assert layers["adaptive_drift"]["optimizer.evaluate.calls"] > 0
    assert layers["sharded_steady"]["shard.worker_replay.calls"] == 0


def test_single_workload_result_line():
    for flag, metrics in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
        cmd = [sys.executable, os.path.join(HERE, "__main__.py"), "--quick"]
        cmd += ["--workload", "migrate_churn", "--trace", flag]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120)
        assert proc.returncode == 0
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 < result["attempted"]
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in metrics
        }
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_planted_output_fault_is_a_failure():
    n = 1500
    built = WORKLOADS["steady_join"].build(1, n)
    passes.run_closed(built, passes.ReferenceClock())
    got = list(built.engine.output_lineages())
    want = passes.lineage_counts(got)
    assert passes.compare_lineages(passes.lineage_counts(got), want) == (0, 0)
    faulty = got[1:] + [got[-1]]  # drop one lineage, duplicate another
    missing, spurious = passes.compare_lineages(passes.lineage_counts(faulty), want)
    assert (missing, spurious) == (1, 1)
    good = {"arrivals": n, "missing": 0, "spurious": 0}
    bad = {"arrivals": n, "missing": missing, "spurious": spurious}
    assert cli.tally([good, good], n, len(got)) == (2 * (n + len(got)), 0)
    attempted, failed = cli.tally([good, bad], n, len(got))
    assert failed == 2 and failed / attempted > 0
    # a crashed pass fails everything it attempted
    assert cli.tally([good, None], n, len(got))[1] == n + len(got)


def test_absurd_rate_is_flagged_unsustainable():
    n = 20_000
    assert cli.run_child("steady_join", "oracle", 1, n, 1) is not None
    result = cli.run_child("steady_join", "open", 1, n, 10_000_000)
    assert result["unsustainable"] and result["missing"] == result["spurious"] == 0
    assert cli.tally([result], n, result["oracle_outputs"])[1] == n


def test_tracer_restores_every_class_attribute(capsys):
    paths = [path for group in trace.POINTS.values() for path in group]
    before = [trace.resolve(path) for path in paths]
    tracer = trace.SpanTracer()
    tracer.install()
    assert all(trace.resolve(path)[2] is not raw for path, (_, _, raw) in zip(paths, before))
    tracer.uninstall()
    assert [trace.resolve(path) for path in paths] == before
    assert not tracer.unresolved and capsys.readouterr().err == ""


def test_unresolvable_span_point_reads_null_and_never_aborts(monkeypatch, capsys):
    points = dict(trace.POINTS)
    points["operators.state_add"] = ("repro.operators.state:HashStateRenamed.add",)
    points["plans.feed"] = ("repro.plans.gone:PhysicalPlan.feed",)
    monkeypatch.setattr(trace, "POINTS", points)
    tracer = trace.SpanTracer()
    tracer.install()
    try:
        built = WORKLOADS["steady_join"].build(1, 300)
        root = tracer.root("driver.process", built.engine.process)
        passes.run_paced(built, float("inf"), passes.ReferenceClock(), root)
    finally:
        tracer.uninstall()
    report = tracer.report(1.0)
    assert report["operators.state_add.calls"] is None and report["plans.feed.self_s"] is None
    assert report["operators.join_process.calls"] > 0
    assert capsys.readouterr().err.count("warning: span point") == 2
