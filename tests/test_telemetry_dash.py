"""Dashboard smoke tests: the CLI's final frame, frame rendering, the
demo scenario's drift + rebalance, the exported trace, and the
snapshot-diff report."""

import json

from repro.obs.tracer import load_trace
from repro.shard.executor import RebalanceEvent
from repro.telemetry.dash import _run_diff, demo_events, main, run_dashboard


class TestDemoScenario:
    def test_shapes_and_determinism(self):
        schema, events = demo_events(shards=4, tuples=400, window=48, seed=0)
        assert set(schema.names) == {"S0", "S1", "S2"}
        rebalances = [e for e in events if isinstance(e, RebalanceEvent)]
        assert len(rebalances) == 1
        arrivals = [e for e in events if not isinstance(e, RebalanceEvent)]
        assert len(arrivals) == 400
        _, again = demo_events(shards=4, tuples=400, window=48, seed=0)
        assert [repr(e) for e in again] == [repr(e) for e in events]


class TestFrames:
    def test_once_renders_per_shard_state(self):
        frame, telemetry = run_dashboard(shards=4, tuples=1200, window=48, seed=0)
        lines = frame.splitlines()
        assert "repro telemetry — sharded-jisc — 1200/1200 arrivals" in lines[0]
        # one table row per shard, each carrying phase + counts
        rows = [ln for ln in lines if ln.strip().startswith(("0", "1", "2", "3"))]
        assert len(rows) == 4
        assert all("steady" in row for row in rows)
        # the demo's mid-run flip must show up as a drift flag somewhere
        assert "DRIFT" in frame
        assert telemetry.executor.rebalances == 1


class TestCli:
    def test_once_smoke(self, capsys):
        assert main(["--tuples", "600", "--snapshot-every", "0"]) == 0
        out = capsys.readouterr().out
        assert "arrivals" in out and "hot keys" in out
        for shard in range(4):
            assert f"\n{shard:>5}  " in out

    def test_export_artifact_is_a_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["--tuples", "600", "--snapshot-every", "200", "--export", str(path)]) == 0
        with open(path) as fh:
            rows = [json.loads(line) for line in fh]
        assert rows[0]["kind"] == "header" and all("ts" in r for r in rows[1:])
        trace = load_trace(str(path))  # the announced count is checked on load
        snapshots = trace.of_kind("snapshot")
        assert len(snapshots) == 600 // 200 + 1  # periodic, and one at the end
        assert all("engine_arrivals_total" in "".join(s.data["series"]) for s in snapshots)

    def test_diff_report_single_file(self, tmp_path, capsys):
        snaps = tmp_path / "snaps.jsonl"
        assert main(["--tuples", "600", "--snapshot-every", "200", "--export", str(snaps)]) == 0
        capsys.readouterr()
        assert _run_diff([str(snaps)]) == 0
        out = capsys.readouterr().out
        assert "snapshot" in out and "engine_arrivals_total" in out

    def test_diff_needs_snapshots(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert _run_diff([str(empty)]) == 2


class TestAdaptiveLine:
    def test_frame_shows_trigger_tallies_when_loop_attached(self):
        from repro.optimizer import AdaptiveEngine
        from repro.optimizer.triggers import NeverTrigger
        from repro.shard import ShardedExecutor
        from repro.telemetry.dash import render_frame

        schema, events = demo_events(shards=2, tuples=400, window=48, seed=0)
        ex = ShardedExecutor(schema, schema.names, num_shards=2, strategy="jisc")
        engine = AdaptiveEngine(
            ex,
            policy=NeverTrigger(),
            evaluate_every=64,
            hub_options={"selectivity_window": 96, "drift_block": 16},
        )
        engine.run(events)
        frame = render_frame(engine.telemetry, 400, 400)
        assert "adaptive:" in frame
        assert f"{len(engine.decisions)} evaluations, 0 fired" in frame

    def test_frame_has_no_adaptive_line_without_a_loop(self):
        frame, _ = run_dashboard(shards=2, tuples=200, window=48, seed=0)
        assert "adaptive:" not in frame
