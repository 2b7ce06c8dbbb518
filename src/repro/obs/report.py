"""Trace reports: migration timelines from JSONL traces.

``python -m repro.obs.report trace.jsonl`` renders, in plain text:

* a trace summary (events, ring-buffer drops, virtual-time span);
* per-phase operation totals (steady / migrating / completing), whose sum
  equals the engine's ``Metrics.counts``;
* per-phase output-latency percentiles (arrival -> emit, virtual time);
* the migration timeline: every transition with its virtual-time span,
  the number of values completed lazily before the next transition
  (JISC's deferred migration work), the output *stall gap* around the
  transition (last output before vs. first output after — the Moving
  State signature of Figure 10), promote/demote totals (STAIRs) and
  Parallel Track's migration-end marker.

The module doubles as a library: :func:`timeline` returns the computed
rows and :func:`render_report` the formatted text, both accepting any
:class:`~repro.obs.tracer.Trace` (loaded from disk or taken in-memory
from ``RecordingTracer.as_trace()``).
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.histogram import LatencyHistogram
from repro.obs.tracer import (
    EVENT_CHECKPOINT,
    EVENT_COMPLETION,
    EVENT_DEMOTE,
    EVENT_FAULT,
    EVENT_MIGRATION_END,
    EVENT_OUTPUT,
    EVENT_PROMOTE,
    EVENT_REBALANCE_BATCH_END,
    EVENT_REBALANCE_BATCH_START,
    EVENT_REBALANCE_END,
    EVENT_REBALANCE_START,
    EVENT_RECOVERY,
    EVENT_SHARD_MOVE,
    EVENT_TRANSITION_END,
    EVENT_TRANSITION_START,
    EVENT_TRIGGER,
    Trace,
    load_trace,
)


def timeline(trace: Trace) -> List[Dict[str, Any]]:
    """One row per transition found in ``trace``.

    Keys: ``strategy``, ``seq``, ``start`` / ``end`` (virtual time of the
    transition call), ``transition_cost``, ``completed_values`` /
    ``completion_cost`` (lazy completions until the next transition),
    ``stall`` (output gap around the transition start), ``promotes`` /
    ``demotes``, ``migration_end`` (Parallel Track's old-plan discard
    time, ``None`` elsewhere).
    """
    events = trace.events
    starts = [ev for ev in events if ev.kind == EVENT_TRANSITION_START]
    rows: List[Dict[str, Any]] = []
    for i, start in enumerate(starts):
        window_end = starts[i + 1].ts if i + 1 < len(starts) else float("inf")
        row: Dict[str, Any] = {
            "strategy": start.data.get("strategy", "?"),
            "seq": start.data.get("seq"),
            "start": start.ts,
            "end": start.ts,
            "transition_cost": 0.0,
            "completed_values": 0,
            "completion_cost": 0.0,
            "stall": None,
            "promotes": 0,
            "demotes": 0,
            "migration_end": None,
        }
        last_output_before: Optional[float] = None
        first_output_after: Optional[float] = None
        for ev in events:
            if ev.kind == EVENT_OUTPUT:
                if ev.ts < start.ts:
                    last_output_before = ev.ts
                elif first_output_after is None and ev.ts < window_end:
                    first_output_after = ev.ts
                continue
            if not start.ts <= ev.ts < window_end:
                continue
            if ev.kind == EVENT_TRANSITION_END and ev.data.get("seq") == row["seq"]:
                row["end"] = ev.ts
                row["transition_cost"] = ev.data.get("cost", ev.ts - start.ts)
            elif ev.kind == EVENT_COMPLETION:
                row["completed_values"] += 1
                row["completion_cost"] += ev.data.get("cost", 0.0)
            elif ev.kind == EVENT_PROMOTE:
                row["promotes"] += ev.data.get("n", 0)
            elif ev.kind == EVENT_DEMOTE:
                row["demotes"] += ev.data.get("n", 0)
            elif ev.kind == EVENT_MIGRATION_END and row["migration_end"] is None:
                row["migration_end"] = ev.ts
        if first_output_after is not None:
            anchor = last_output_before if last_output_before is not None else start.ts
            row["stall"] = first_output_after - anchor
        rows.append(row)
    return rows


def rebalance_timeline(trace: Trace) -> List[Dict[str, Any]]:
    """One row per shard rebalance found in ``trace``.

    Every rebalance is one plan of batched sessions (the all-at-once
    call is the one-batch plan).  Keys: ``mode``, ``start`` (virtual time
    of the trigger), ``end`` (virtual time the last batch drained — for a
    lazy plan this is when the *last* pending key settled or retired,
    possibly much later; ``None`` while unfinished), ``buckets`` (scope
    announced at the trigger), ``keys`` (routed, summed over the batches
    opened so far), ``settled`` / ``retired`` (how each routed key was
    resolved), ``tuples`` (total live tuples replayed across shards),
    ``batch_keys`` (the granularity), ``batches`` (batches completed so
    far) with ``batches_planned`` from the trigger announcement, and
    ``batch_durations`` (per-batch open -> settle spans, in order) — the
    timeline behind the latency-vs-duration tradeoff table in
    docs/SHARDING.md.
    """
    events = trace.events
    # Positional windows, not time windows: a forced drain of a previous
    # lazy session happens at the same virtual time as the next trigger,
    # and event order is what attributes those moves correctly.
    starts = [i for i, ev in enumerate(events) if ev.kind == EVENT_REBALANCE_START]
    rows: List[Dict[str, Any]] = []
    for n, at in enumerate(starts):
        window_end = starts[n + 1] if n + 1 < len(starts) else len(events)
        start = events[at]
        row: Dict[str, Any] = {
            "mode": start.data.get("mode", "?"),
            "start": start.ts,
            "end": None,
            "buckets": start.data.get("buckets", 0),
            "keys": 0,
            "settled": 0,
            "retired": 0,
            "tuples": 0,
            "batch_keys": start.data.get("batch_keys", 0),
            "batches_planned": start.data.get("batches", 0),
            "batches": 0,
            "batch_durations": [],
        }
        for ev in events[at:window_end]:
            if ev.kind == EVENT_SHARD_MOVE:
                if ev.data.get("retired"):
                    row["retired"] += 1
                else:
                    row["settled"] += 1
                row["tuples"] += ev.data.get("tuples", 0)
            elif ev.kind == EVENT_REBALANCE_BATCH_START:
                row["keys"] += ev.data.get("keys", 0)
            elif ev.kind == EVENT_REBALANCE_BATCH_END:
                row["batches"] += 1
                row["batch_durations"].append(ev.data.get("duration", 0.0))
            elif ev.kind == EVENT_REBALANCE_END and row["end"] is None:
                row["end"] = ev.ts
        rows.append(row)
    return rows


def _fmt_counts_table(phase_counts: Dict[str, Dict[str, int]]) -> List[str]:
    phases = sorted(phase_counts)
    ops = sorted({op for by in phase_counts.values() for op in by})
    if not ops:
        return ["  (no counters recorded)"]
    width = max(len(op) for op in ops)
    header = f"  {'op':<{width}}" + "".join(f" {p:>12}" for p in phases)
    header += f" {'total':>12}"
    lines = [header]
    totals = {p: 0 for p in phases}
    for op in ops:
        row = f"  {op:<{width}}"
        total = 0
        for p in phases:
            n = phase_counts[p].get(op, 0)
            totals[p] += n
            total += n
            row += f" {n:>12d}"
        row += f" {total:>12d}"
        lines.append(row)
    footer = f"  {'(all ops)':<{width}}"
    footer += "".join(f" {totals[p]:>12d}" for p in phases)
    footer += f" {sum(totals.values()):>12d}"
    lines.append(footer)
    return lines


def _fmt_latency(latency: Dict[str, Any]) -> List[str]:
    if not latency:
        return ["  (no outputs recorded)"]
    lines = [
        f"  {'phase':<12} {'outputs':>8} {'p50':>10} {'p95':>10} {'p99':>10} {'max':>10}"
    ]
    for phase in sorted(latency):
        hist = latency[phase]
        if isinstance(hist, dict):
            hist = LatencyHistogram.from_json(hist)
        s = hist.summary()
        lines.append(
            f"  {phase:<12} {s['count']:>8d} {s['p50']:>10.1f} "
            f"{s['p95']:>10.1f} {s['p99']:>10.1f} {s['max']:>10.1f}"
        )
    return lines


def render_report(trace: Trace, title: str = "") -> str:
    """Plain-text report over a trace (see module docstring)."""
    events = trace.events
    lines: List[str] = []
    if title:
        lines.append(f"== {title} ==")
    span = (events[0].ts, events[-1].ts) if events else (0.0, 0.0)
    dropped = trace.header.get("dropped", 0)
    lines.append(
        f"trace: {len(events)} events"
        + (f" (+{dropped} dropped by the ring buffer)" if dropped else "")
        + f", virtual time {span[0]:.1f} .. {span[1]:.1f}"
    )

    lines.append("")
    lines.append("per-phase operation totals:")
    lines.extend(_fmt_counts_table(trace.phase_counts))

    lines.append("")
    lines.append("output latency (arrival -> emit, virtual time):")
    lines.extend(_fmt_latency(trace.header.get("latency", {})))

    lines.append("")
    rows = timeline(trace)
    lines.append(f"migration timeline: {len(rows)} transition(s)")
    for i, row in enumerate(rows, 1):
        stall = f"{row['stall']:.1f}" if row["stall"] is not None else "n/a"
        lines.append(
            f"  #{i} {row['strategy']} @seq={row['seq']}: "
            f"vt {row['start']:.1f} -> {row['end']:.1f} "
            f"(transition cost {row['transition_cost']:.1f}), "
            f"output stall {stall}"
        )
        detail = (
            f"      lazily completed {row['completed_values']} value(s)"
            f" costing {row['completion_cost']:.1f}"
        )
        if row["promotes"] or row["demotes"]:
            detail += f"; promotes {row['promotes']}, demotes {row['demotes']}"
        if row["migration_end"] is not None:
            detail += (
                f"; old plan discarded at vt {row['migration_end']:.1f}"
                f" ({row['migration_end'] - row['start']:.1f} after the trigger)"
            )
        lines.append(detail)
    shard_rows = rebalance_timeline(trace)
    if shard_rows:
        lines.append("")
        lines.append(f"shard rebalance timeline: {len(shard_rows)} rebalance(s)")
        for i, row in enumerate(shard_rows, 1):
            if row["end"] is None:
                span = f"vt {row['start']:.1f} -> (in progress)"
            else:
                span = (
                    f"vt {row['start']:.1f} -> {row['end']:.1f} "
                    f"(drained after {row['end'] - row['start']:.1f})"
                )
            lines.append(
                f"  #{i} {row['mode']}: {span}, "
                f"{row['buckets']} bucket(s), {row['keys']} key(s) routed"
            )
            lines.append(
                f"      {row['settled']} settled / {row['retired']} retired, "
                f"{row['tuples']} live tuple(s) replayed"
            )
            grain = row["batch_keys"] if row["batch_keys"] else "all"
            lines.append(
                f"      plan: batch_keys={grain}, "
                f"{row['batches']}/{row['batches_planned']} batch(es) "
                f"drained, longest batch {max(row['batch_durations'], default=0.0):.1f}"
            )
    triggers = trace.of_kind(EVENT_TRIGGER)
    if triggers:
        fired = [ev for ev in triggers if ev.data.get("action") == "fired"]
        suppressed = [ev for ev in triggers if ev.data.get("action") == "suppressed"]
        lines.append("")
        lines.append(
            f"adaptive trigger timeline: {len(triggers)} evaluation(s), "
            f"{len(fired)} fired, {len(suppressed)} suppressed"
        )
        for ev in triggers:
            action = ev.data.get("action", "?")
            if action == "evaluated":
                continue  # one line per steady-state evaluation would swamp it
            cur = ev.data.get("current_cost", 0.0)
            best = ev.data.get("best_cost", 0.0)
            detail = (
                f"  {action} ({ev.data.get('reason', '?')}) at arrival "
                f"{ev.data.get('at', '?')}: cost {cur:.3f} -> {best:.3f}"
            )
            order = ev.data.get("best_order")
            if action == "fired" and order:
                detail += f", new order {'-'.join(order)}"
            if action == "suppressed" and ev.data.get("migration_cost"):
                detail += (
                    f" (migration cost {ev.data['migration_cost']:.1f} vs projected "
                    f"savings {ev.data.get('projected_savings', 0.0):.1f})"
                )
            lines.append(detail)
    checkpoints = trace.of_kind(EVENT_CHECKPOINT)
    if checkpoints:
        lines.append("")
        lines.append(f"checkpoints: {len(checkpoints)}")
        for ev in checkpoints:
            lines.append(f"  at vt {ev.ts:.1f} ({ev.data.get('strategy', '?')})")
    faults = trace.of_kind(EVENT_FAULT)
    recoveries = trace.of_kind(EVENT_RECOVERY)
    if faults or recoveries:
        lines.append("")
        lines.append(
            f"faults & recovery: {len(faults)} fault(s) injected, "
            f"{len(recoveries)} recovery event(s)"
        )
        for ev in faults:
            where = ", ".join(
                f"{k}={v}" for k, v in sorted(ev.data.items()) if k != "fault"
            )
            lines.append(f"  fault {ev.data.get('fault', '?')} at vt {ev.ts:.1f}"
                         + (f" ({where})" if where else ""))
        suppressed = sum(
            1 for ev in recoveries if ev.data.get("what") == "duplicate_suppressed"
        )
        for ev in recoveries:
            what = ev.data.get("what", "?")
            if what == "duplicate_suppressed":
                continue  # summarized below; one line each would swamp the report
            detail = ", ".join(
                f"{k}={v}" for k, v in sorted(ev.data.items()) if k != "what"
            )
            lines.append(f"  recovery {what} at vt {ev.ts:.1f}"
                         + (f" ({detail})" if detail else ""))
        if suppressed:
            lines.append(f"  {suppressed} replayed duplicate(s) suppressed")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: python -m repro.obs.report TRACE.jsonl [TRACE2.jsonl ...]")
        return 0 if argv else 2
    for path in argv:
        try:
            trace = load_trace(path)
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 1
        except json.JSONDecodeError as exc:
            print(f"error: {path} is not a JSONL trace: {exc}", file=sys.stderr)
            return 1
        except ValueError as exc:  # a truncated trace (``parse_jsonl``)
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 1
        print(render_report(trace, title=path))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
