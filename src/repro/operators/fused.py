"""Fused kernels: the dispatch of every leaf's root path, compiled once per plan.

:func:`compile_plan` derives one level per (join, side) — shared by every
leaf below it — and two closures per leaf: ``arrive`` (window push, expiry
cascade, scan insert, the levels of its root path) and ``expire`` (the
removal cascade alone), all tallying into one set of cells.  What is fused
is the dispatch, nothing else — the operator classes stay the definition: a
level calls the same ``HashState`` methods, bumps the same probe tallies and
calls the same hooks at the same points as ``JoinOperator.process`` /
``Operator.remove``.  A leaf's fused prefix ends at the first ancestor that
is not exactly a :class:`SymmetricHashJoin` fed synchronously; results and
removals reach it through the last fused operator's ``emit`` /
``emit_removal``.  Accounting, and what a kernel may close over:
docs/PERFORMANCE.md, "Fused arrival path".
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.engine.cost import VirtualClock
from repro.engine.metrics import PIPELINE_OPS, Metrics
from repro.operators.base import Operator
from repro.operators.joins import JoinOperator, SymmetricHashJoin
from repro.operators.sink import OutputSink
from repro.streams.tuples import CompositeTuple, StreamTuple
from repro.streams.window import SlidingWindow

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.operators.scan import StreamScan
    from repro.plans.build import PhysicalPlan

#: One fused join level; which of its tuples is a base tuple and which a
#: composite is pinned by :func:`_assembly`, not by types.
Level = Callable[[Any], None]
Streams = Optional[Tuple[str, ...]]

#: What ``core.bound`` binds to an incomplete state: ``pending(key)`` — what
#: there is to complete (falsy: nothing, nothing counted) — and ``complete(that,
#: key, now, *tallies)``, which hands the level's tallies over with its own.
Completer = Tuple[Callable[[Any], Any], Callable[..., int]]


class Kernel(NamedTuple):
    """One leaf's compiled ``StreamScan.insert`` and ``StreamScan._expire``."""

    arrive: Callable[[StreamTuple], None]
    expire: Callable[[StreamTuple], None]


# How a level assembles ``CompositeTuple.of(tup, match)``.
_OF, _PAIR, _TUP_INTO_MATCH, _MATCH_INTO_TUP = range(4)


def _assembly(tup_streams: Streams, match_streams: Streams) -> Tuple[int, int]:
    """``(how, position)``: where the one-part side goes into the other's
    sorted parts, found once instead of by ``of``'s scan on every call."""
    if not tup_streams or not match_streams:
        return _OF, 0
    if len(tup_streams) == 1:
        how = _PAIR if len(match_streams) == 1 else _TUP_INTO_MATCH
        return how, bisect_left(match_streams, tup_streams[0])
    if len(match_streams) == 1:
        return _MATCH_INTO_TUP, bisect_left(tup_streams, match_streams[0])
    return _OF, 0


def compile_plan(plan: "PhysicalPlan") -> None:
    """Compile every leaf's root path as wired right now; kept as ``scan.fused``."""
    metrics = next(iter(plan.scans.values())).metrics  # ``build_plan`` gives all one
    clock = metrics.clock if metrics.clock is not None else VirtualClock()
    c_insert, c_emit, c_probe, c_remove, c_output = (
        clock.costs.get(op, clock.default) for op in PIPELINE_OPS
    )
    # One set of tallies and one copy of the clock for the whole plan, advanced
    # as ``Metrics.count`` would and handed over before every hook call, every
    # hand-off and on leaving a door.  ``flush`` returns 0: hand over and reset
    # in one statement.
    flush = metrics.count_pipeline
    adds = emits = probes = drops = outs = 0
    now = 0.0

    def hand_over() -> None:
        """Off the per-arrival path: before a hook, a hand-off, an observer."""
        nonlocal adds, emits, probes, drops, outs
        adds = emits = probes = drops = outs = flush(now, adds, emits, probes, drops, outs)

    of = CompositeTuple.of
    timed = metrics.clock is not None
    # A plain sink right above a prefix is written by the last level itself;
    # its lists are only ever mutated in place (see ``OutputSink``).
    sink = plan.sink if type(plan.sink) is OutputSink and plan.sink.metrics is metrics else None
    if sink is not None:
        outputs, output_times, retractions = sink.outputs, sink.output_times, sink.retractions

    def fuse(
        join: SymmetricHashJoin, opposite: Operator, how: int, i: int, up: Optional[Level]
    ) -> Level:
        """``join.process`` of the other child's tuples, and each result's ``emit``."""
        get_view = opposite.state.get_view
        opposite_status = opposite.state.status
        own_status = join.state.status
        add = join.state.add
        hand_off = join.emit
        # Bound by the JISC controller when it attached the plan; a state it
        # bound nothing for is completed through the join's hook.
        pending_opposite, complete_opposite = plan.completers.get((join, opposite), (None, None))
        pending_own, complete_own = plan.completers.get((join, join), (None, None))

        def level(tup: Any) -> None:
            nonlocal adds, emits, probes, drops, outs, now
            key = tup.key
            if not opposite_status.complete:
                if pending_opposite is not None:
                    todo = pending_opposite(key)
                    if todo:
                        adds = emits = probes = drops = outs = complete_opposite(
                            todo, key, now, adds, emits, probes, drops, outs
                        )
                        now = clock.now
                elif join.completion_hook is not None:
                    hand_over()
                    join.completion_hook(tup, join, opposite)
                    now = clock.now
            probes += 1
            now += c_probe
            matches = get_view(key)
            opposite.probes += 1
            if matches:
                opposite.hits += 1
                for match in matches:
                    if how == _MATCH_INTO_TUP:
                        parts, ident = tup.parts, tup.ident
                        result = CompositeTuple(
                            key,
                            parts[:i] + (match,) + parts[i:],
                            ident[:i] + (match.seq,) + ident[i:],
                        )
                    elif how == _PAIR:
                        a, b = (match, tup) if i else (tup, match)
                        result = CompositeTuple(key, (a, b), (a.seq, b.seq))
                    elif how == _TUP_INTO_MATCH:
                        parts, ident = match.parts, match.ident
                        result = CompositeTuple(
                            key,
                            parts[:i] + (tup,) + parts[i:],
                            ident[:i] + (tup.seq,) + ident[i:],
                        )
                    else:
                        result = of(tup, match)
                    if not add(result):
                        continue
                    adds += 1
                    now += c_insert
                    if up is not None:
                        emits += 1
                        now += c_emit
                        up(result)
                    elif sink is not None and join.parent is sink:
                        # ``emit`` then ``OutputSink.process``, in their order.
                        emits += 1
                        now += c_emit
                        outs += 1
                        now += c_output
                        outputs.append(result)
                        when = now if timed else float(len(outputs))
                        output_times.append(when)
                        if metrics.tracer.enabled:
                            hand_over()
                            metrics.tracer.output(result, when)
                            now = clock.now
                    else:
                        hand_over()
                        hand_off(result)
                        now = clock.now
            if not own_status.complete:
                if pending_own is not None:
                    todo = pending_own(key)
                    if todo:
                        adds = emits = probes = drops = outs = complete_own(
                            todo, key, now, adds, emits, probes, drops, outs
                        )
                        now = clock.now
                elif join.completion_hook is not None:
                    hand_over()
                    join.completion_hook(tup, join, join)
                    now = clock.now

        return level

    def leaf(scan: "StreamScan", first: Optional[Level], joins: List[JoinOperator]) -> Kernel:
        """``scan``'s two doors; ``joins`` is its fused prefix, bottom-up."""
        last: Operator = joins[-1] if joins else scan
        removal_path = tuple((j.state.remove_with_part, j.state.status) for j in joins)
        stream = scan.stream
        window = scan.window  # None: driven, the caller evicts through the door
        push = window.push if isinstance(window, SlidingWindow) else None
        push_all = None if window is None else window.push_all
        add = scan.state.add
        remove_entry = scan.state.remove_entry
        hand_off = scan.emit
        hand_off_removal = last.emit_removal

        def expire(evicted: StreamTuple, door: bool = True) -> None:
            """``StreamScan._expire`` and ``Operator.remove`` up the prefix; called by
            ``arrive`` (``door=False``) it shares that call's clock copy and hand-over."""
            nonlocal adds, emits, probes, drops, outs, now
            if door:
                now = clock.now
            try:
                fresh = True
                if scan.fresh_fn is not None:
                    # Asked first: but for an earlier eviction of the same
                    # arrival (time windows) there is nothing to hand over yet.
                    if adds or emits or probes or drops or outs:
                        hand_over()
                    fresh = scan.fresh_fn(evicted)
                    now = clock.now
                remove_entry(evicted)
                drops += 1
                now += c_remove
                part = (evicted.stream, evicted.seq)
                for remove_with_part, status in removal_path:
                    probes += 1
                    now += c_probe
                    n = len(remove_with_part(part))
                    if n:
                        drops += n
                        now += c_remove * n
                    elif status.complete or not fresh:
                        break
                else:
                    if sink is not None and last.parent is sink:
                        retractions.append(part)  # ``OutputSink.remove`` counts nothing
                    else:
                        hand_over()
                        hand_off_removal(part, fresh)
                        now = clock.now
                if scan.expire_hook is not None:
                    hand_over()
                    scan.expire_hook(evicted)
                    now = clock.now
            finally:
                # With nothing tallied ``now`` may be stale (a hook or hand-off
                # advanced the clock, then raised before the reload): not written.
                if door and (adds or emits or probes or drops or outs):
                    adds = emits = probes = drops = outs = flush(
                        now, adds, emits, probes, drops, outs
                    )

        def arrive(tup: StreamTuple) -> None:
            """``StreamScan.insert``; the evictions it causes share its hand-over."""
            nonlocal adds, emits, probes, drops, outs, now
            if tup.stream != stream:
                return scan.insert(tup)  # raises, before touching the window
            now = clock.now
            try:
                if push is not None:
                    evicted = push(tup)
                    if evicted is not None:
                        expire(evicted, False)
                elif push_all is not None:
                    for evicted in push_all(tup):
                        expire(evicted, False)
                add(tup)
                adds += 1
                now += c_insert
                if first is None:
                    hand_over()
                    hand_off(tup)
                else:
                    emits += 1
                    now += c_emit
                    first(tup)
            finally:
                if adds or emits or probes or drops or outs:  # as in ``expire``
                    adds = emits = probes = drops = outs = flush(
                        now, adds, emits, probes, drops, outs
                    )

        return Kernel(arrive, expire)

    # Sorted streams of each operator's entries, children first; ``None`` unless
    # everything below is a join or a scan (a set-difference passes on outer
    # tuples only, whatever its membership says).
    entries: Dict[Operator, Streams] = {scan: (scan.stream,) for scan in plan.scans.values()}
    for op in plan.internal:
        lower, upper = entries.get(op.left), entries.get(op.right)
        joined = isinstance(op, JoinOperator) and lower and upper
        entries[op] = tuple(sorted(lower + upper)) if joined else None
    # One level per (join, side), parents first: every join that is exactly a
    # symmetric hash join counting on the plan's metrics and fed synchronously by
    # that child.  None under a ``Metrics`` subclass: the levels tally on behalf
    # of ``Metrics.count``, and an overridden ``count`` (``EddyMetrics`` charges an
    # eddy visit per emit, moving the clock in between) is not theirs to
    # reproduce — the leaf hands over through ``scan.emit``, which counts there.
    levels: Dict[Operator, Level] = {}  # child -> where what it emits goes
    for join in reversed(plan.internal):
        if type(metrics) is Metrics and type(join) is SymmetricHashJoin and join.metrics is metrics:
            for child in join.children():
                if child.scheduler is None:
                    opposite = join.opposite(child)
                    how, i = _assembly(entries.get(child), entries.get(opposite))
                    levels[child] = fuse(join, opposite, how, i, levels.get(join))
    for scan in plan.scans.values():
        joins: List[JoinOperator] = []
        last: Any = scan
        while last in levels:
            last = last.parent  # the join of ``levels[last]``
            joins.append(last)
        scan.fused = leaf(scan, levels.get(scan), joins)
