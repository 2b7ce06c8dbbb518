"""Exposition: Prometheus-style text rendering, JSONL snapshots, diffs.

Readers of the registry come in three shapes, all built on
:meth:`~repro.telemetry.registry.MetricsRegistry.collect` so they can
never disagree with each other:

* :func:`render_prometheus` — the standard ``# TYPE`` + ``name{labels}
  value`` text format, suitable for a scrape endpoint or a CI artifact.
  Non-numeric gauges (the current phase, the hot-key sketch) are encoded
  the conventional way: strings become info-style series with the value
  as a label, structured values become per-field sub-series.

* :func:`registry_snapshot` / :class:`SnapshotLog` — JSON snapshots of
  every series at a virtual timestamp; a log of them serializes to JSONL
  (one object per line, ``kind: "telemetry_snapshot"``) that interleaves
  cleanly with the obs trace format (:mod:`repro.obs.tracer` ignores
  unknown kinds, and :func:`load_snapshots` ignores trace events).

* :func:`diff_snapshots` — the snapshot-diff report the dashboard's
  ``--diff`` mode prints: added/removed series and changed values
  between two snapshots, sorted, one line each.  Next to it, the folds
  over a snapshot history — :func:`peak_entries` ("is state growing?"),
  :func:`largest_state`, :func:`output_stall` ("did the migration stall
  output?"), :func:`throughput` — that read the hub's size and output series.

Everything here is deterministic: sorted series order, sorted JSON keys,
virtual timestamps only (JISC001 bans wall clocks in ``src/repro``).
"""

from __future__ import annotations

import json
import re
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.telemetry.registry import Counter, Gauge, Histogram, Instrument, MetricsRegistry

SNAPSHOT_KIND = "telemetry_snapshot"

#: Most snapshots a :class:`SnapshotLog` retains.
SNAPSHOT_CAPACITY = 10_000

#: Prometheus metric types by instrument kind.
_PROM_TYPE = {
    "counter": "counter",
    "gauge": "gauge",
    "histogram": "summary",
}


def _fmt(value: float) -> str:
    """Numeric rendering: integers without a trailing ``.0``."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    as_float = float(value)
    if as_float.is_integer():
        return str(int(as_float))
    return repr(as_float)


def _label_body(labels: Iterable[Tuple[str, str]]) -> str:
    body = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{{{body}}}" if body else ""


def _render_instrument(full: str, ins: Instrument) -> List[str]:
    labels = ins.labels
    base = _label_body(labels)
    if isinstance(ins, Counter):
        return [f"{full}{base} {_fmt(ins.value)}"]
    if isinstance(ins, Gauge):
        value = ins.value
        if isinstance(value, (int, float)):
            return [f"{full}{base} {_fmt(value)}"]
        if isinstance(value, str):
            # Info-style: the string becomes a label, the sample is 1.
            return [f"{full}{_label_body(tuple(labels) + (('value', value),))} 1"]
        # Structured gauge (e.g. the hot-key sketch): numeric fields only.
        lines = []
        if isinstance(value, dict):
            for field in sorted(value):
                v = value[field]
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    lines.append(f"{full}_{field}{base} {_fmt(v)}")
        return lines
    if isinstance(ins, Histogram):
        summary = ins.summary()
        lines = [
            f"{full}_count{base} {_fmt(summary['count'])}",
            f"{full}_sum{base} {_fmt(ins.hist.total)}",
        ]
        for q, field in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            q_labels = _label_body(tuple(labels) + (("quantile", q),))
            lines.append(f"{full}{q_labels} {_fmt(summary[field])}")
        return lines
    return []  # pragma: no cover - all kinds handled above


def render_prometheus(registry: MetricsRegistry, prefix: str = "repro_") -> str:
    """Render every series in Prometheus text exposition format."""
    lines: List[str] = []
    last_name: Optional[str] = None
    for ins in registry.collect():
        full = prefix + ins.name
        if ins.name != last_name:
            lines.append(f"# TYPE {full} {_PROM_TYPE[ins.kind]}")
            last_name = ins.name
        lines.extend(_render_instrument(full, ins))
    return "\n".join(lines) + "\n"


# -- snapshots -------------------------------------------------------------------------


def registry_snapshot(registry: MetricsRegistry, at: float = 0.0) -> Dict[str, Any]:
    """One JSON-shaped snapshot of every series at virtual time ``at``."""
    return {
        "kind": SNAPSHOT_KIND,
        "at": at,
        "series": {ins.series: ins.value_json() for ins in registry.collect()},
    }


def diff_snapshots(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Human-readable changes between two snapshots, one line each.

    Added series are prefixed ``+``, removed ``-``, changed ``~`` with the
    old and new value.  Unchanged series produce no line.
    """
    sa: Dict[str, Any] = a.get("series", {})
    sb: Dict[str, Any] = b.get("series", {})
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


def _total(snapshot: Dict[str, Any], name: str) -> Any:
    """Sum of the snapshot's series called ``name``, whatever their labels
    (hubs that share the registry — shards — add up)."""
    series: Dict[str, Any] = snapshot.get("series", {})
    return sum(v for k, v in series.items() if k.partition("{")[0] == name)


def state_entries(snapshot: Dict[str, Any]) -> Dict[str, int]:
    """Operator label -> entries held (``engine_state_entries``)."""
    out: Dict[str, int] = {}
    for series, n in snapshot.get("series", {}).items():
        match = _OPERATOR_LABEL.match(series)
        if match is not None:
            out[match.group(1)] = out.get(match.group(1), 0) + n
    return out


def _outputs(snapshot: Dict[str, Any]) -> int:
    return int(_total(snapshot, "engine_outputs_total"))


def peak_entries(snapshots: Iterable[Dict[str, Any]]) -> int:
    """Largest total state footprint (join states plus windows) seen."""
    return max((sum(state_entries(snap).values()) for snap in snapshots), default=0)


def largest_state(snapshot: Optional[Dict[str, Any]]) -> Optional[str]:
    """Label of the biggest holder in ``snapshot`` — a join state or a
    window — or ``None`` when it publishes no sizes."""
    sizes = state_entries(snapshot) if snapshot is not None else {}
    return max(sorted(sizes), key=sizes.__getitem__) if sizes else None


def throughput(snapshots: Iterable[Dict[str, Any]]) -> float:
    """Outputs per unit of virtual time from the first to the last snapshot."""
    snaps = list(snapshots)
    if len(snaps) < 2:
        return 0.0
    span = snaps[-1]["at"] - snaps[0]["at"]
    if span <= 0:
        return 0.0
    return (_outputs(snaps[-1]) - _outputs(snaps[0])) / span


def output_stall(snapshots: Iterable[Dict[str, Any]]) -> float:
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
            worst = max(worst, snap["at"] - prev_at)
        prev_at, prev_outputs = snap["at"], outputs
    return worst


class SnapshotLog:
    """A bounded sequence of registry snapshots, JSONL-serializable.

    Keeps the newest :data:`SNAPSHOT_CAPACITY`; ``dropped`` counts the ones
    the ring evicted (the trace ring's contract), so :meth:`summary` says
    when its folds no longer start at the beginning of the run.
    """

    __slots__ = ("snapshots", "dropped")

    def __init__(self) -> None:
        self.snapshots: Deque[Dict[str, Any]] = deque(maxlen=SNAPSHOT_CAPACITY)
        self.dropped = 0

    def append(self, snapshot: Dict[str, Any]) -> None:
        if len(self.snapshots) == self.snapshots.maxlen:
            self.dropped += 1
        self.snapshots.append(snapshot)

    def take(self, registry: MetricsRegistry, at: float = 0.0) -> Dict[str, Any]:
        snap = registry_snapshot(registry, at=at)
        self.append(snap)
        return snap

    def __len__(self) -> int:
        return len(self.snapshots)

    def last(self) -> Optional[Dict[str, Any]]:
        return self.snapshots[-1] if self.snapshots else None

    def to_jsonl(self) -> str:
        return (
            "\n".join(
                json.dumps(snap, sort_keys=True, default=str)
                for snap in self.snapshots
            )
            + "\n"
            if self.snapshots
            else ""
        )

    def export_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())

    def summary(self) -> Dict[str, Any]:
        """The folds above over the retained history, in one dict."""
        latest = self.last()
        return {
            "samples": len(self.snapshots),
            "dropped": self.dropped,
            "window_truncated": self.dropped > 0,
            "peak_entries": peak_entries(self.snapshots),
            "largest_state": largest_state(latest),
            "throughput": throughput(self.snapshots),
            "output_stall": output_stall(self.snapshots),
            "incomplete_states": _total(latest or {}, "engine_incomplete_states"),
        }


def load_snapshots(path: str) -> List[Dict[str, Any]]:
    """Load snapshots from a JSONL file, skipping non-snapshot lines.

    Tolerates mixed files: an obs trace with interleaved snapshots loads
    the snapshots only.
    """
    out: List[Dict[str, Any]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if isinstance(obj, dict) and obj.get("kind") == SNAPSHOT_KIND:
                out.append(obj)
    return out
