"""Procedure 3, bound once per transition (Section 4.3; docs/PERFORMANCE.md,
"The migration stage").  The fused kernels call what :func:`bind_left_deep`
returns in the completion hook's place: same probes, inserts and settles in the
same order as :func:`~repro.core.completion.complete_value_left_deep`, which
stays the definition and the tests' oracle (``tests/test_fused_path.py`` runs
both at every arrival that finds a state incomplete).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.engine.cost import VirtualClock
from repro.engine.metrics import Counter
from repro.operators.base import Operator
from repro.operators.fused import Completer
from repro.plans.build import PhysicalPlan
from repro.streams.tuples import joiner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.controller import JISCController

#: One incomplete left-deep join, looked up once: ``(op, status, its settled
#: values or None, left by_key, right by_key, its state, its by_key, its by_ident,
#: the position in a left entry's ident of each left stream, right stream, joiner)``.
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
    It probes, inserts and settles on the dicts themselves, as a fused level
    does (:mod:`repro.operators.fused`): ``HashState.add`` only while a state's
    layout is not fixed yet, ``JISCController.settle`` only for a state the
    controller keeps no info for.
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
            for (
                _, _, _, left_keys, right_keys, state, by_key, by_ident, left_at, right_stream, assemble
            ) in nodes:
                lefts, rights = left_keys.get(key), right_keys.get(key)
                probes += 2
                now += c_probe
                now += c_probe
                completions += 1
                now += c_completion
                if not lefts or not rights:
                    continue
                # The arrival's own results are its cascade's to derive and emit
                # (``JoinOperator.build_state_for_key``); it is on one side only:
                # a right entry's ident is its seq, a left one's holds it at ``own``
                # (``-1``: the left child is a scan, its idents are seqs).
                skip = seq if stream == right_stream else None
                own = left_at.get(stream)
                bucket = None  # every result carries ``key``: one bucket per node
                for left_ident, left in lefts.items():
                    if own is not None and (left_ident if own < 0 else left_ident[own]) == seq:
                        continue
                    for right_ident, right in rights.items():
                        if right_ident == skip:
                            continue
                        result = assemble(left, right)
                        ident = result.ident
                        if ident in by_ident:
                            continue
                        part_index = state.part_index  # rebound by ``_fix_layout`` / ``clear``
                        if len(part_index) != len(ident):
                            state.add(result)  # fixes the layout, or raises as ever
                        else:
                            for index, part in zip(part_index, ident):
                                owners = index.get(part)
                                if owners is None:
                                    index[part] = {ident: result}
                                else:
                                    owners[ident] = result
                            if bucket is None:
                                bucket = by_key.get(key)
                                if bucket is None:
                                    bucket = by_key[key] = {}
                            bucket[ident] = result
                            by_ident[ident] = result
                        adds += 1
                        now += c_insert
        finally:
            flush(now, adds, emits, probes, drops, outs, completions)
        for node in nodes:
            op, status, settled = node[0], node[1], node[2]
            if settled is None:
                controller.settle(op, key)
                continue
            settled.add(key)
            waiting = status.pending  # ``StateStatus.settle_value``, inline
            if waiting is not None and not status.complete:
                waiting.discard(key)
                if not waiting:
                    controller._mark_complete(op)
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
        state = op.state
        if not state.status.complete:
            left_streams = tuple(sorted(op.left.membership))
            (right_stream,) = op.right.membership
            if len(left_streams) == 1:
                left_at = {left_streams[0]: -1}
            else:
                left_at = {name: at for at, name in enumerate(left_streams)}
            info = controller.info.get(op)  # kept from the transition until ``op`` completes
            node = (
                op, state.status, None if info is None else info.settled,
                op.left.state.by_key, op.right.state.by_key, state, state.by_key, state.by_ident,
                left_at, right_stream, joiner(left_streams, (right_stream,)),
            )  # fmt: skip
            spines[op] = (node,) + spines.get(op.left, ())
            bound[op.parent, op] = completer = (partial(pending, spines[op]), complete)
            if controller.expiry_optimization:
                bound[op, op] = completer
    return bound
