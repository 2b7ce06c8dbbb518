"""Snapshots are trace events over a series view that is never stale: a
sharded snapshot carries every shard's current counts, a recovered shard's
series are its new hub's, and one JSONL format carries traces and
snapshots from ``dash --export`` through ``load_trace``, the report CLI and
``dash --diff``."""

import json
import random

import pytest

from repro.engine.query import STRATEGIES
from repro.obs.report import main as report_main
from repro.obs.tracer import RecordingTracer, load_trace
from repro.shard import ShardedExecutor, balanced_assignment
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.telemetry import ShardTelemetry, TelemetryTracer, diff_snapshots, series_name
from repro.telemetry.dash import main as dash_main
from repro.workloads.scenarios import chain_scenario

pytestmark = pytest.mark.hashseed

NAMES = ("A", "B", "C")


def routed(n=1200, seed=17):
    rng = random.Random(seed)
    seqs = dict.fromkeys(NAMES, 0)
    tuples = []
    for _ in range(n):
        stream = rng.choice(NAMES)
        tuples.append(StreamTuple(stream, seqs[stream], rng.randrange(32)))
        seqs[stream] += 1
    return tuples


def executor(num_shards=4):
    return ShardedExecutor(
        Schema.uniform(NAMES, 60),
        NAMES,
        num_shards=num_shards,
        strategy="jisc",
        inter_arrival=80.0,
        assignment=balanced_assignment(64, num_shards),
    )


def shard_arrivals(series, ex, shards=range(4)):
    return [series[series_name("engine_arrivals_total", strategy=ex.strategy_name, shard=s)]
            for s in shards]


def test_sharded_snapshots_are_not_stale():
    ex = executor()
    telemetry = ShardTelemetry(ex)
    tuples = routed()
    for lo in range(0, len(tuples), 300):
        ex.process_batch(tuples[lo : lo + 300])
        snapshot = telemetry.coordinator.take_snapshot()
        per_shard = shard_arrivals(snapshot.data["series"], ex)
        assert sum(per_shard) == lo + len(tuples[lo : lo + 300])
        assert all(n > 0 for n in per_shard)


def test_a_periodic_sharded_snapshot_is_current():
    """``snapshot_every`` cuts inside the coordinator's ``arrival``, before
    the tuple is routed: the shards hold every arrival but that one."""
    ex = executor()
    recorder = RecordingTracer()
    ShardTelemetry(ex, inner=recorder, snapshot_every=250)
    ex.process_batch(routed())
    snapshots = recorder.as_trace().of_kind("snapshot")
    assert len(snapshots) == 1200 // 250
    for k, snapshot in enumerate(snapshots, 1):
        series = snapshot.data["series"]
        assert series[series_name("engine_arrivals_total", strategy=ex.name)] == 250 * k
        assert sum(shard_arrivals(series, ex)) == 250 * k - 1


def test_recovery_restarts_every_series_of_the_shard():
    """After ``recover_shard`` a shard's series are its new hub's counts:
    transitions and completions counted before the crash are gone with the
    old hub, like its arrivals."""
    ex = executor(num_shards=2)
    telemetry = ShardTelemetry(ex)
    tuples = routed(900)
    ex.process_batch(tuples[:300])
    ex.transition(("C", "B", "A"))
    ex.process_batch(tuples[300:600])

    def shard0(series, name):
        return series[series_name(name, strategy=ex.strategy_name, shard=0)]

    before = telemetry.series()
    assert shard0(before, "engine_transitions_total") == 1
    assert shard0(before, "engine_completions_total") > 0
    ex.crash_shard(0)
    ex.recover_shard(0)
    hub = telemetry.workers[0]
    ex.process_batch(tuples[600:])
    after = telemetry.series()
    own = hub.series()
    shard_keys = [k for k in after if 'shard="0"' in k]
    assert shard_keys and {k: after[k] for k in shard_keys} == own
    assert shard0(after, "engine_transitions_total") == 0
    assert shard0(after, "engine_arrivals_total") == hub.arrivals_seen > 0
    assert after[series_name("engine_recoveries_total", strategy=ex.name)] == 1


def test_snapshot_and_diff():
    hub = TelemetryTracer(strategy="jisc")
    sc = chain_scenario(2, 60, 10, key_domain=10, seed=1)
    engine = STRATEGIES["jisc"](sc.schema, sc.order, join="hash")
    hub.attach(engine)
    a = hub.take_snapshot()
    for tup in sc.tuples:
        engine.process(tup)
    b = hub.take_snapshot()
    changes = diff_snapshots(a, b)
    assert '~ engine_arrivals_total{strategy="jisc"}: 0 -> 60' in changes
    assert any(line.startswith("+ engine_ops_total") for line in changes)
    assert not diff_snapshots(b, b)


def test_snapshot_jsonl_round_trip(tmp_path):
    recorder = RecordingTracer()
    hub = TelemetryTracer(strategy="jisc", inner=recorder)
    first = hub.take_snapshot()
    hub.fault("crash")
    second = hub.take_snapshot()
    path = str(tmp_path / "trace.jsonl")
    recorder.export_jsonl(path)
    loaded = load_trace(path)
    assert loaded.header["events"] == 3 == len(loaded.events)
    assert [ev.kind for ev in loaded.events] == ["snapshot", "fault", "snapshot"]
    assert [ev.data for ev in loaded.of_kind("snapshot")] == [first.data, second.data]
    with open(path) as fh:  # every line is standalone JSON
        for line in fh:
            json.loads(line)


def test_one_format_from_export_to_report_and_diff(tmp_path, capsys):
    path = str(tmp_path / "p.jsonl")
    assert dash_main(["--tuples", "600", "--snapshot-every", "200", "--export", path]) == 0
    trace = load_trace(path)
    assert trace.header["events"] == len(trace.events) > 0
    capsys.readouterr()
    assert report_main([path]) == 0
    assert "migration timeline" in capsys.readouterr().out
    assert dash_main(["--diff", path]) == 0
    out = capsys.readouterr().out
    snapshots = trace.of_kind("snapshot")
    assert out.count("== snapshot ") == len(snapshots) - 1 >= 2
    assert "~ engine_arrivals_total" in out
