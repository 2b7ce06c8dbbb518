"""Checkpoint and restore for long-running queries.

A continuous query may run for weeks; process restarts must not lose the
windows, join states, or JISC's migration bookkeeping (an incomplete state
restored as complete would violate correctness).  ``checkpoint_strategy``
captures everything into a JSON-compatible dict; ``restore_strategy``
rebuilds a strategy that continues *exactly* where the original left off —
the round-trip test asserts the continuation is output-identical to an
uninterrupted run, including mid-migration checkpoints.

Supported strategies: :class:`~repro.migration.jisc.JISCStrategy`,
:class:`~repro.migration.moving_state.MovingStateStrategy`,
:class:`~repro.migration.base.StaticPlanExecutor` and their buffered
variants (:mod:`repro.engine.queued`), over join plans (hash or
nested-loops with the default equality predicate).  Join-attribute values
go through :func:`key_to_json` / :func:`key_from_json` (JSON scalars and
tuples of them, nested too); payloads must be JSON-serializable.

Format history:

* v1 — windows, states, JISC controller bookkeeping.
* v2 — adds the pending :class:`~repro.engine.queued.QueueScheduler`
  backlog of buffered strategies (``queue``/``auto_drain``).  Before v2 a
  crash between enqueue and drain silently lost every queued tuple.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.controller import JISCStateInfo
from repro.migration.base import MigrationStrategy, StaticPlanExecutor
from repro.migration.jisc import JISCStrategy
from repro.migration.moving_state import MovingStateStrategy
from repro.operators.base import Operator
from repro.plans.build import PhysicalPlan
from repro.plans.spec import PlanSpec
from repro.streams.schema import Schema, StreamDescriptor
from repro.streams.tuples import AnyTuple, CompositeTuple, StreamTuple
from repro.streams.window import window_contents

FORMAT_VERSION = 2

#: Checkpoint versions ``restore_strategy`` understands.
SUPPORTED_VERSIONS = (2,)


def strategy_kinds() -> Dict[str, type]:
    """The checkpointable strategies by name — the ones crash recovery covers."""
    # Resolved lazily: engine.queued imports migration.jisc which must not
    # re-enter this module at import time.
    from repro.engine.queued import BufferedJISCStrategy, BufferedStaticExecutor

    return {
        "jisc": JISCStrategy,
        "moving_state": MovingStateStrategy,
        "static": StaticPlanExecutor,
        "jisc_buffered": BufferedJISCStrategy,
        "static_buffered": BufferedStaticExecutor,
    }


def spec_to_json(spec: PlanSpec) -> Any:
    """JSON-compatible form of a plan spec (strings and nested pairs)."""
    if isinstance(spec, str):
        return spec
    return [spec_to_json(spec[0]), spec_to_json(spec[1])]


def spec_from_json(data: Any) -> PlanSpec:
    """Inverse of :func:`spec_to_json`."""
    if isinstance(data, str):
        return data
    return (spec_from_json(data[0]), spec_from_json(data[1]))


def key_to_json(key: Any) -> Any:
    """A join-attribute value as JSON: a scalar as itself (blobs and logs written
    before tuples were encoded read unchanged), a tuple as the list of its items'
    encodings — no key is a list, so :func:`key_from_json` can tell them apart.
    Raises ``TypeError`` for a value that would not come back equal and hashable."""
    if isinstance(key, tuple):
        return [key_to_json(item) for item in key]
    if key is None or isinstance(key, (str, int, float)):
        return key
    raise TypeError(f"join-attribute value {key!r} does not survive a JSON round trip")


def key_from_json(data: Any) -> Any:
    """Inverse of :func:`key_to_json`."""
    if isinstance(data, list):
        return tuple(key_from_json(item) for item in data)
    return data


def _tuple_to_json(tup: AnyTuple) -> Dict[str, Any]:
    """Serialize a (possibly composite) queued tuple by its constituents."""
    if isinstance(tup, CompositeTuple):
        parts = tup.parts
        composite = True
    else:
        parts = (tup,)
        composite = False
    return {
        "composite": composite,
        "key": key_to_json(tup.key),
        "parts": [[p.stream, p.seq, key_to_json(p.key), p.payload] for p in parts],
    }


def _tuple_from_json(
    data: Dict[str, Any], base_tuples: Dict[Tuple[str, int], StreamTuple]
) -> AnyTuple:
    parts: List[StreamTuple] = []
    for stream, seq, key, payload in data["parts"]:
        tup = base_tuples.get((stream, seq))
        if tup is None:
            # The part expired from its window after the item was queued;
            # rebuild it standalone.
            tup = StreamTuple(stream, seq, key_from_json(key), payload)
        parts.append(tup)
    if not data["composite"]:
        return parts[0]
    return CompositeTuple.of(*parts)


def _op_ref(op: Optional[Operator]) -> Optional[List[Any]]:
    """Identify an operator across checkpoint/restore: kind + membership."""
    if op is None:
        return None
    return [op.kind, sorted(op.membership)]


def _resolve_op(ref: Optional[List[Any]], plan: PhysicalPlan) -> Optional[Operator]:
    if ref is None:
        return None
    kind, names = ref[0], ref[1]
    if kind == "sink":
        return plan.sink
    if kind == "scan":
        return plan.scans[names[0]]
    membership = frozenset(names)
    for op in plan.internal:
        if op.membership == membership:
            return op
    raise ValueError(f"queued item references unknown operator {ref!r}")


def _queue_to_json(strategy: MigrationStrategy) -> Optional[List[Dict[str, Any]]]:
    """Serialize the pending scheduler backlog of a buffered strategy.

    Returns ``None`` for unbuffered strategies.  Before format v2 this
    backlog was dropped on the floor: a crash between enqueue and drain
    lost every queued tuple (see tests/test_fault_recovery.py).
    """
    scheduler = getattr(strategy, "scheduler", None)
    if scheduler is None:
        return None
    items: List[Dict[str, Any]] = []
    for item in scheduler.snapshot():
        if item[0] == "process":
            _, target, tup, child = item
            items.append(
                {
                    "op": "process",
                    "target": _op_ref(target),
                    "tuple": _tuple_to_json(tup),
                    "child": _op_ref(child),
                }
            )
        else:
            _, target, part, child, fresh = item
            items.append(
                {
                    "op": "remove",
                    "target": _op_ref(target),
                    "part": list(part),
                    "child": _op_ref(child),
                    "fresh": fresh,
                }
            )
    return items


def checkpoint_strategy(strategy: MigrationStrategy) -> Dict[str, Any]:
    """Capture ``strategy``'s full execution state."""
    if strategy.name not in strategy_kinds():
        raise ValueError(f"checkpointing is not supported for {strategy.name!r}")
    for op in strategy.plan.internal:
        if op.kind != "join":
            raise ValueError(
                f"checkpointing is not supported for plans with "
                f"{op.kind!r} operators (joins only)"
            )
    tracer = strategy.metrics.tracer
    if tracer.enabled:
        tracer.checkpoint(
            strategy.name,
            last_seq=strategy._last_seq,
            outputs=len(strategy.outputs),
        )
    plan = strategy.plan
    schema = strategy.schema
    data: Dict[str, Any] = {
        "version": FORMAT_VERSION,
        "strategy": strategy.name,
        "join": strategy.join,
        "spec": spec_to_json(plan.spec),
        "last_seq": strategy._last_seq,
        "schema": {
            "key": schema.key,
            "streams": [
                {"name": d.name, "window": d.window, "kind": d.window_kind}
                for d in schema.streams
            ],
        },
        "windows": {
            name: [
                {"seq": t.seq, "key": key_to_json(t.key), "payload": t.payload}
                for t in window_contents(scan)
            ]
            for name, scan in plan.scans.items()
        },
        "states": [
            {
                "membership": sorted(op.membership),
                "complete": op.state.status.complete,
                "pending": (
                    None
                    if op.state.status.pending is None
                    else [key_to_json(key) for key in sorted(op.state.status.pending)]
                ),
                "entries": [list(map(list, e.lineage)) for e in op.state.entries()],
            }
            for op in plan.internal
        ],
        "outputs_emitted": len(strategy.outputs),
    }
    queue = _queue_to_json(strategy)
    if queue is not None:
        data["queue"] = queue
        data["auto_drain"] = getattr(strategy, "auto_drain", True)
    if isinstance(strategy, JISCStrategy):
        controller = strategy.controller
        data["controller"] = {
            "last_transition_seq": controller.freshness.last_transition_seq,
            "last_seen": {
                stream: [[key_to_json(key), at] for key, at in mapping.items()]
                for stream, mapping in controller.freshness.last_seen.items()
            },
            "info": [
                {
                    "membership": sorted(op.membership),
                    "settled": [key_to_json(key) for key in sorted(info.settled)],
                    "transition_seq": info.transition_seq,
                    "reference_child": (
                        sorted(info.reference_child.membership)
                        if info.reference_child is not None
                        else None
                    ),
                }
                for op, info in controller.info.items()
            ],
        }
    return data


def restore_strategy(data: Dict[str, Any]) -> MigrationStrategy:
    """Rebuild a strategy from a checkpoint produced by ``checkpoint_strategy``."""
    if data.get("version") not in SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported checkpoint version {data.get('version')!r}")
    kinds = strategy_kinds()
    if data.get("strategy") not in kinds:
        raise ValueError(f"unsupported checkpoint strategy {data.get('strategy')!r}")
    cls = kinds[data["strategy"]]
    schema = Schema(
        tuple(
            StreamDescriptor(s["name"], s["window"], s["kind"])
            for s in data["schema"]["streams"]
        ),
        data["schema"]["key"],
    )
    spec = spec_from_json(data["spec"])
    strategy = cls(schema, spec, join=data["join"])
    strategy._last_seq = data["last_seq"]
    plan = strategy.plan

    # Rebuild the base windows and scan states.
    base_tuples: Dict[Tuple[str, int], StreamTuple] = {}
    for name, rows in data["windows"].items():
        scan = plan.scans[name]
        for row in rows:
            tup = StreamTuple(name, row["seq"], key_from_json(row["key"]), row.get("payload"))
            base_tuples[(name, row["seq"])] = tup
            if scan.window is not None:  # a driven scan's state is its window
                scan.window.push_all(tup)
            # Checkpoint restore rebuilds states verbatim from the snapshot;
            # the completion hooks already ran before the checkpoint was cut.
            scan.state.add(tup)

    # Rebuild the intermediate states and their completeness status.
    by_membership = {frozenset(s["membership"]): s for s in data["states"]}
    for op in plan.internal:
        saved = by_membership[op.membership]
        for lineage in saved["entries"]:
            parts = tuple(base_tuples[(stream, seq)] for stream, seq in lineage)
            op.state.add(CompositeTuple.of(*parts))
        status = op.state.status
        if saved["complete"]:
            status.mark_complete()
        else:
            pending = saved["pending"]
            status.mark_incomplete(None if pending is None else map(key_from_json, pending))

    # JISC bookkeeping.
    if isinstance(strategy, JISCStrategy) and "controller" in data:
        controller = strategy.controller
        saved_controller = data["controller"]
        controller.freshness.last_transition_seq = saved_controller[
            "last_transition_seq"
        ]
        controller.freshness.last_seen = {
            stream: {key_from_json(key): at for key, at in pairs}
            for stream, pairs in saved_controller["last_seen"].items()
        }
        ops_by_membership = {op.membership: op for op in plan.internal}
        children_by_membership: Dict[frozenset, Any] = {}
        for op in plan.internal:
            children_by_membership[op.left.membership] = op.left
            children_by_membership[op.right.membership] = op.right
        for row in saved_controller["info"]:
            op = ops_by_membership[frozenset(row["membership"])]
            info = JISCStateInfo(row["transition_seq"])
            info.settled = set(map(key_from_json, row["settled"]))
            if row["reference_child"] is not None:
                info.reference_child = children_by_membership.get(
                    frozenset(row["reference_child"])
                )
            controller.info[op] = info
        controller.attach(plan)

    # Pending queue backlog (buffered strategies only).
    scheduler = getattr(strategy, "scheduler", None)
    if scheduler is not None:
        strategy.auto_drain = data["auto_drain"]  # type: ignore[attr-defined]
        items: List[Tuple[Any, ...]] = []
        for row in data["queue"]:
            target = _resolve_op(row["target"], plan)
            child = _resolve_op(row["child"], plan)
            if row["op"] == "process":
                tup = _tuple_from_json(row["tuple"], base_tuples)
                items.append(("process", target, tup, child))
            else:
                part = (row["part"][0], row["part"][1])
                items.append(("remove", target, part, child, row["fresh"]))
        if items:
            scheduler.requeue(items)
    return strategy
