"""Terminal dashboard over the live telemetry hubs.

``python -m repro.telemetry.dash`` drives a deterministic 4-shard demo
scenario — a selectivity-drift workload with a mid-run rebalance — and
prints its final frame: per-shard phase, arrivals, outputs, arrival rate,
drift flags, hottest keys, and rebalance progress.  Everything rendered
comes from :class:`~repro.telemetry.hub.ShardTelemetry`; the dashboard
holds no state of its own, so what it shows is what a snapshot carries.

``--export PATH`` writes the run's trace — every coordinator event, the
periodic ``snapshot`` events among them — as JSONL
(``python -m repro.obs.report PATH`` reads it).  ``--diff A [B]`` is the
snapshot-diff report over such traces: with two files, diff the last
snapshot of each; with one file holding several snapshots, print the
consecutive diffs.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence, Tuple

from repro.obs.tracer import EVENT_SNAPSHOT, RecordingTracer, TraceEvent, load_trace
from repro.shard.executor import RebalanceEvent, ShardedExecutor, ShardEvent
from repro.shard.partition import balanced_assignment
from repro.streams.schema import Schema
from repro.telemetry.expo import diff_snapshots
from repro.telemetry.hub import ShardTelemetry, TelemetryTracer
from repro.workloads.drift import SelectivityDriftWorkload


def demo_events(
    shards: int,
    tuples: int,
    window: int,
    seed: int,
) -> Tuple[Schema, List[ShardEvent]]:
    """The dashboard's deterministic scenario: drift plus one rebalance.

    Three streams, two drift phases (the selective stream flips at the
    midpoint, firing the drift detectors), and a bucket-rotation
    rebalance scheduled just after the flip so the rebalance-progress
    column has something to show.
    """
    streams = ("S0", "S1", "S2")
    half = max(1, tuples // 2)
    workload = SelectivityDriftWorkload(
        streams,
        phases=[(half, "S1"), (tuples - half, "S2")],
        base_domain=24,
        scatter=8,
        seed=seed,
    )
    schema = Schema.uniform(streams, window)
    events: List[ShardEvent] = list(workload.materialize())
    # Rotate every bucket one shard to the right shortly after the drift
    # point: plenty of live keys are mid-window, so the lazy session stays
    # visibly pending for a stretch of the second phase.
    rotation = {
        bucket: (shard + 1) % shards
        for bucket, shard in balanced_assignment(64, shards).items()
    }
    events.insert(half + window, RebalanceEvent(rotation))
    return schema, events


def _fmt_rate(value: float) -> str:
    return f"{value:8.3f}"


def _drift_cell(tracer: TelemetryTracer) -> str:
    flagged = sorted(
        label for label, detector in tracer._sel.items() if detector.drifted
    )
    if not flagged:
        return "-"
    return "DRIFT " + ",".join(flagged)


def _hot_cell(tracer: TelemetryTracer, k: int = 3) -> str:
    top = tracer.topk.top(k)
    if not top:
        return "-"
    return " ".join(f"{key!r}x{count}" for key, count, _ in top)


def render_frame(telemetry: ShardTelemetry, processed: int, total: int) -> str:
    """One dashboard frame (plain text, trailing newline)."""
    series = telemetry.series()
    executor = telemetry.executor
    coord = telemetry.coordinator
    lines: List[str] = []
    lines.append(
        f"repro telemetry — {executor.name} — "
        f"{processed}/{total} arrivals — {len(series)} series"
    )
    pending = executor.pending_keys()
    session = executor.session
    rebalance = (
        f"rebalance: {session.mode} session, {len(pending)} keys pending"
        if session is not None
        else f"rebalance: idle ({executor.rebalances} completed)"
    )
    settled = sum(1 for m in executor.moves if not m.retired)
    retired = sum(1 for m in executor.moves if m.retired)
    lines.append(f"{rebalance}; moves settled={settled} retired={retired}")
    drifts = sum(
        tracer.drift_events() for tracer in telemetry.workers.values()
    ) + coord.drift_events()
    lines.append(
        f"outputs: {len(executor.outputs)} merged; "
        f"drift events: {drifts}; virtual makespan: {executor.makespan():.1f}"
    )

    def values(name: str) -> List[float]:
        return [v for k, v in series.items() if k.partition("{")[0] == name]

    evaluations = sum(values("optimizer_trigger_evaluations_total"))
    if evaluations:
        # An adaptive loop is attached: show its decision tallies and the
        # live cost gap it is watching (docs/ADAPTIVITY.md).
        fires = sum(values("optimizer_trigger_fires_total"))
        suppressed = sum(values("optimizer_trigger_suppressions_total"))
        current = max(values("optimizer_cost_current"), default=0.0)
        best = max(values("optimizer_cost_best"), default=0.0)
        lines.append(
            f"adaptive: {evaluations} evaluations, {fires} fired, "
            f"{suppressed} suppressed; cost current={current:.3f} best={best:.3f}"
        )
    lines.append("")
    header = (
        f"{'shard':>5}  {'phase':<11} {'arrivals':>8} {'outputs':>8} "
        f"{'rate':>8}  {'drift':<22} hot keys"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for shard in sorted(telemetry.workers):
        tracer = telemetry.workers[shard]
        rate = sum(tracer.arrival_rates().values())
        lines.append(
            f"{shard:>5}  {tracer.phase:<11} {tracer._arrivals:>8} "
            f"{tracer._outputs:>8} {_fmt_rate(rate)}  "
            f"{_drift_cell(tracer):<22} {_hot_cell(tracer)}"
        )
    return "\n".join(lines) + "\n"


def run_dashboard(
    shards: int = 4,
    tuples: int = 2000,
    window: int = 48,
    seed: int = 0,
    strategy: str = "jisc",
    snapshot_every: int = 0,
    inner: Optional[RecordingTracer] = None,
) -> Tuple[str, ShardTelemetry]:
    """Drive the demo scenario; return its final frame and the telemetry.

    ``inner`` records the coordinator's events, a ``snapshot`` every
    ``snapshot_every`` arrivals among them.
    """
    schema, events = demo_events(shards, tuples, window, seed)
    executor = ShardedExecutor(
        schema,
        schema.names,
        num_shards=shards,
        strategy=strategy,
        inter_arrival=1.0,
    )
    telemetry = ShardTelemetry(executor, inner=inner, snapshot_every=snapshot_every)
    total = 0
    for event in events:
        if isinstance(event, RebalanceEvent):
            executor.rebalance(event.assignment, event.mode)
        else:
            executor.process(event)
            total += 1
    return render_frame(telemetry, total, total), telemetry


def _snapshots(path: str) -> List[TraceEvent]:
    return load_trace(path).of_kind(EVENT_SNAPSHOT)


def _run_diff(paths: Sequence[str]) -> int:
    if len(paths) == 2:
        a = _snapshots(paths[0])
        b = _snapshots(paths[1])
        if not a or not b:
            print("diff: both files must contain telemetry snapshots")
            return 2
        pairs: List[Tuple[str, TraceEvent, TraceEvent]] = [
            (f"{paths[0]} -> {paths[1]}", a[-1], b[-1])
        ]
    else:
        snaps = _snapshots(paths[0])
        if len(snaps) < 2:
            print("diff: need two files, or one file with >= 2 snapshots")
            return 2
        pairs = [
            (f"snapshot {i - 1} -> {i}", snaps[i - 1], snaps[i])
            for i in range(1, len(snaps))
        ]
    for title, sa, sb in pairs:
        print(f"== {title} (at {sa.ts} -> {sb.ts})")
        lines = diff_snapshots(sa, sb)
        if not lines:
            print("(no changes)")
        for line in lines:
            print(line)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.dash",
        description="Terminal dashboard over the telemetry hubs of a sharded demo run.",
    )
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--tuples", type=int, default=2000)
    parser.add_argument("--window", type=int, default=48)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--strategy",
        default="jisc",
        help="worker strategy of the demo executor (default: jisc)",
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=500,
        help="arrivals between snapshots (0 disables)",
    )
    parser.add_argument(
        "--export",
        metavar="PATH",
        help="write the run's JSONL trace, snapshots included, to PATH",
    )
    parser.add_argument(
        "--diff",
        nargs="+",
        metavar="TRACE",
        help="snapshot-diff report: two traces, or one with >= 2 snapshots",
    )
    args = parser.parse_args(argv)

    if args.diff:
        if len(args.diff) > 2:
            parser.error("--diff takes one or two snapshot files")
        return _run_diff(args.diff)

    recorder = RecordingTracer() if args.export else None
    frame, telemetry = run_dashboard(
        shards=args.shards,
        tuples=args.tuples,
        window=args.window,
        seed=args.seed,
        strategy=args.strategy,
        snapshot_every=args.snapshot_every,
        inner=recorder,
    )
    print(frame, end="")
    if recorder is not None:
        telemetry.take_snapshot()
        recorder.export_jsonl(args.export)
        print(f"trace -> {args.export}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
