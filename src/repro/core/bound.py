"""Procedure 3, bound once per transition (Section 4.3; docs/PERFORMANCE.md,
"The migration stage").  The fused kernels call what :func:`bind_left_deep`
returns in the completion hook's place: same probes, inserts and settles in the
same order as :func:`~repro.core.completion.complete_value_left_deep`, which
stays the definition and the tests' oracle (``tests/test_fused_path.py`` runs
both at every arrival that finds a state incomplete).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.engine.cost import VirtualClock
from repro.engine.metrics import Counter
from repro.operators.base import Operator
from repro.operators.fused import Completer
from repro.plans.build import PhysicalPlan
from repro.streams.tuples import CompositeTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.controller import JISCController

#: One incomplete left-deep join, looked up once: ``(op, status, left get_view,
#: right get_view, add, sorted left streams, right stream, where a right entry
#: goes into a left entry's sorted parts)``.
Node = Tuple[Any, ...]


def bind_left_deep(
    controller: "JISCController", plan: PhysicalPlan
) -> Dict[Tuple[Operator, Operator], Completer]:
    """``plan``'s incomplete states' completion, keyed as the hook is called:
    ``(join, incomplete child)``, and ``(join, join)`` for own-path completion
    when the window-slide optimization wants it.

    A completion advances a copy of the clock in the generic procedure's order
    (per node, bottom-up: two probes, a completion probe, the inserts), hands
    over once — together with what the calling level had tallied — and settles.
    """
    metrics = controller.metrics
    clock = metrics.clock if metrics.clock is not None else VirtualClock()
    c_probe, c_completion, c_insert = (
        clock.costs.get(op, clock.default)
        for op in (Counter.HASH_PROBE, Counter.COMPLETION_PROBE, Counter.HASH_INSERT)
    )
    flush = metrics.count_pipeline
    naive = controller.naive_recheck

    def build(
        nodes: List[Node], key: Any, now: float, adds: int, emits: int, probes: int,
        drops: int, outs: int,
    ) -> int:  # fmt: skip
        stream, seq = controller.current_part or (None, -1)
        completions = 0
        try:
            for _, _, left_view, right_view, add, left_streams, right_stream, at in nodes:
                lefts, rights = left_view(key), right_view(key)
                probes += 2
                now += c_probe
                now += c_probe
                completions += 1
                now += c_completion
                pair = len(left_streams) == 1
                # The arrival's own results are its cascade's to derive and emit
                # (``JoinOperator.build_state_for_key``); it is on one side only.
                if stream == right_stream:
                    rights = [r for r in rights if r.seq != seq]
                elif pair and stream == left_streams[0]:
                    lefts = [l for l in lefts if l.seq != seq]
                elif stream in left_streams:
                    own = left_streams.index(stream)
                    lefts = [l for l in lefts if l.ident[own] != seq]
                for l in lefts:
                    for r in rights:
                        if pair:
                            a, b = (l, r) if at else (r, l)
                            result = CompositeTuple(key, (a, b), (a.seq, b.seq))
                        else:
                            parts, ident = l.parts[:at] + (r,) + l.parts[at:], l.ident
                            result = CompositeTuple(key, parts, ident[:at] + (r.seq,) + ident[at:])
                        if add(result):
                            adds += 1
                            now += c_insert
        finally:
            flush(now, adds, emits, probes, drops, outs, completions)
        for node in nodes:
            controller.settle(node[0], key)
        return 0

    def complete(nodes: List[Node], key: Any, now: float, *tallies: int) -> int:
        """``build`` as ``JISCController._completion_hook`` runs the generic
        procedure: when observed, in the completing phase and as one span."""
        if not metrics.tracer.enabled:
            return build(nodes, key, now, *tallies)
        flush(now, *tallies)  # the level's share belongs to the phase before
        return controller.observed_completion(
            nodes[-1][0].label, key, build, nodes, key, now, 0, 0, 0, 0, 0
        )

    def pending(spine: Tuple[Node, ...], key: Any) -> Optional[List[Node]]:
        """The stretch of ``spine`` to rebuild for ``key``, bottom-up.  A left-deep
        join's right child is a scan, so its counter is always initialised (Case 1
        or 2) and holds no settled value: ``status.pending`` alone answers
        ``JISCController.needs_completion``."""
        if not (controller.current_fresh or naive):
            return None
        nodes: List[Node] = []
        for node in spine:
            status = node[1]
            if status.complete or not (naive or key in status.pending):
                break
            nodes.append(node)
        nodes.reverse()
        return nodes

    spines: Dict[Operator, Tuple[Node, ...]] = {}
    bound: Dict[Tuple[Operator, Operator], Completer] = {}
    for op in plan.internal:  # children first
        if not op.state.status.complete:
            left_streams = tuple(sorted(op.left.membership))
            (right_stream,) = op.right.membership
            left, right = op.left.state.get_view, op.right.state.get_view
            at = bisect_left(left_streams, right_stream)
            node = (op, op.state.status, left, right, op.state.add, left_streams, right_stream, at)
            spines[op] = (node,) + spines.get(op.left, ())
            bound[op.parent, op] = completer = (partial(pending, spines[op]), complete)
            if controller.expiry_optimization:
                bound[op, op] = completer
    return bound
