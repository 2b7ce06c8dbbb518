"""Reading snapshots: diffs and folds over a snapshot history.

A snapshot is a trace event (kind ``snapshot``, see
:meth:`~repro.telemetry.hub.TelemetryTracer.take_snapshot`): its ``ts`` is
the virtual time it was cut at and ``data["series"]`` the hub's series
view.  A recorder passed as the hub's ``inner`` keeps them in its ring
next to every other event, and writes and reads them with the one trace
format (:meth:`~repro.obs.tracer.RecordingTracer.export_jsonl`,
:func:`~repro.obs.tracer.load_trace`).

* :func:`diff_snapshots` — the report the dashboard's ``--diff`` mode
  prints: added/removed series and changed values between two snapshots,
  sorted, one line each.
* The folds over a history — :func:`peak_entries` ("is state growing?"),
  :func:`largest_state`, :func:`output_stall` ("did the migration stall
  output?"), :func:`throughput` — read the hub's size and output series;
  :func:`summary` runs them all over a trace.

Everything here is deterministic: sorted series order, virtual timestamps
only (``tests/test_no_clock_reads.py`` bans wall clocks in ``src/repro``).
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.tracer import EVENT_SNAPSHOT, Trace, TraceEvent


def _series(snapshot: TraceEvent) -> Dict[str, Any]:
    return snapshot.data.get("series", {})


def diff_snapshots(a: TraceEvent, b: TraceEvent) -> List[str]:
    """Human-readable changes between two snapshots, one line each.

    Added series are prefixed ``+``, removed ``-``, changed ``~`` with the
    old and new value.  Unchanged series produce no line.
    """
    sa = _series(a)
    sb = _series(b)
    lines: List[str] = []
    for name in sorted(set(sa) | set(sb)):
        if name not in sa:
            lines.append(f"+ {name} = {json.dumps(sb[name], sort_keys=True)}")
        elif name not in sb:
            lines.append(f"- {name}")
        elif sa[name] != sb[name]:
            old = json.dumps(sa[name], sort_keys=True)
            new = json.dumps(sb[name], sort_keys=True)
            lines.append(f"~ {name}: {old} -> {new}")
    return lines


# -- folds over a snapshot history -----------------------------------------------------

_OPERATOR_LABEL = re.compile(r'^engine_state_entries\{.*\boperator="([^"]*)"')


def _total(snapshot: TraceEvent, name: str) -> Any:
    """Sum of the snapshot's series called ``name``, whatever their labels
    (a sharded view's hubs add up)."""
    return sum(v for k, v in _series(snapshot).items() if k.partition("{")[0] == name)


def state_entries(snapshot: TraceEvent) -> Dict[str, int]:
    """Operator label -> entries held (``engine_state_entries``)."""
    out: Dict[str, int] = {}
    for series, n in _series(snapshot).items():
        match = _OPERATOR_LABEL.match(series)
        if match is not None:
            out[match.group(1)] = out.get(match.group(1), 0) + n
    return out


def _outputs(snapshot: TraceEvent) -> int:
    return int(_total(snapshot, "engine_outputs_total"))


def peak_entries(snapshots: Iterable[TraceEvent]) -> int:
    """Largest total state footprint (join states plus windows) seen."""
    return max((sum(state_entries(snap).values()) for snap in snapshots), default=0)


def largest_state(snapshot: Optional[TraceEvent]) -> Optional[str]:
    """Label of the biggest holder in ``snapshot`` — a join state or a
    window — or ``None`` when it publishes no sizes."""
    sizes = state_entries(snapshot) if snapshot is not None else {}
    return max(sorted(sizes), key=sizes.__getitem__) if sizes else None


def throughput(snapshots: Iterable[TraceEvent]) -> float:
    """Outputs per unit of virtual time from the first to the last snapshot."""
    snaps = list(snapshots)
    if len(snaps) < 2:
        return 0.0
    span = snaps[-1].ts - snaps[0].ts
    if span <= 0:
        return 0.0
    return (_outputs(snaps[-1]) - _outputs(snaps[0])) / span


def output_stall(snapshots: Iterable[TraceEvent]) -> float:
    """Longest virtual-time gap between consecutive snapshots without new
    output.

    A large stall around a transition is the Moving State signature;
    JISC keeps this near the inter-output spacing (Section 5.1.1).
    """
    worst = 0.0
    prev_at, prev_outputs = 0.0, -1
    for snap in snapshots:
        outputs = _outputs(snap)
        if outputs == prev_outputs:
            worst = max(worst, snap.ts - prev_at)
        prev_at, prev_outputs = snap.ts, outputs
    return worst


def summary(trace: Trace) -> Dict[str, Any]:
    """The folds above over a trace's snapshot events, in one dict.

    ``dropped`` is the recorder's: events its ring evicted, so the folds
    may no longer start at the beginning of the run.
    """
    snapshots = trace.of_kind(EVENT_SNAPSHOT)
    latest = snapshots[-1] if snapshots else None
    dropped = trace.header.get("dropped", 0)
    return {
        "samples": len(snapshots),
        "dropped": dropped,
        "window_truncated": dropped > 0,
        "peak_entries": peak_entries(snapshots),
        "largest_state": largest_state(latest),
        "throughput": throughput(snapshots),
        "output_stall": output_stall(snapshots),
        "incomplete_states": _total(latest, "engine_incomplete_states") if latest else 0,
    }
