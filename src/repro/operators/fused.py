"""Fused kernels: the dispatch of every leaf's root path, compiled once per plan.

:func:`compile_plan` derives one level per (join, side) — shared by every
leaf below it — and two closures per leaf: ``arrive`` (window push, expiry
cascade, scan insert, the levels of its root path) and ``expire`` (the
removal cascade alone), all tallying into one set of cells.  What is fused
is the dispatch and the arrival path's state writes; the operator classes
and ``HashState``'s methods stay the definition.  A level bumps the same
probe tallies and calls the same hooks at the same points as
``JoinOperator.process`` / ``Operator.remove``, and probes, inserts and
unlinks as ``get_view`` / ``add`` / ``remove_entry`` / ``remove_with_part``
do, specialised once per level; where that does not hold (a layout not
fixed yet, a stored tuple equal to the evicted one but not it, entries of
unknown streams) it calls the method.  A leaf's fused prefix ends at the
first ancestor that is not exactly a :class:`SymmetricHashJoin` fed
synchronously; results and removals reach it through the last fused
operator's ``emit`` / ``emit_removal``.  Accounting, and what a kernel may
close over: docs/PERFORMANCE.md, "Fused arrival path".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.engine.cost import VirtualClock
from repro.engine.metrics import PIPELINE_OPS, Metrics
from repro.operators.base import Operator
from repro.operators.joins import JoinOperator, SymmetricHashJoin
from repro.operators.sink import OutputSink
from repro.streams.tuples import Joiner, StreamTuple, joiner
from repro.streams.window import SlidingWindow

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.operators.scan import StreamScan
    from repro.plans.build import PhysicalPlan

#: One fused join level; which of its tuples is a base tuple and which a
#: composite is pinned by its joiner, not by types.
Level = Callable[[Any], None]
Streams = Optional[Tuple[str, ...]]

#: What ``core.bound`` binds to an incomplete state: ``pending(key)`` — what
#: there is to complete (falsy: nothing, nothing counted) — and ``complete(that,
#: key, now, *tallies)``, which hands the level's tallies over with its own.
Completer = Tuple[Callable[[Any], Any], Callable[..., int]]


class Kernel(NamedTuple):
    """One leaf's compiled ``StreamScan.insert`` and ``StreamScan.evict``, and its
    plan's ``enter`` / ``leave``, shared by every leaf of the plan.

    Called alone, a door loads the clock and hands its tallies over on the way
    out.  Between ``enter(t)`` and ``leave()`` the doors of the plan *carry* them
    instead: ``enter`` loads the clock once and catches the copy up to external
    time ``t`` (``ShardWorker.catch_up``), the doors neither reload nor flush, a
    carried ``arrive`` is a door of its own (it calls the tracer's ``arrival``
    hook, handed over around, and notes the seq), and ``leave`` hands the copy
    and the tallies over in one ``Metrics.count_pipeline`` and returns the newest
    seq that arrived.  Nothing outside the kernel may read or advance the clock
    or the counts in between (docs/SHARDING.md, "The arrival path").
    """

    arrive: Callable[[StreamTuple], None]
    expire: Callable[[StreamTuple], bool]
    enter: Callable[[float], None]
    leave: Callable[[], int]


def runs_kernels(op: Operator, metrics: Metrics) -> bool:
    """What the kernels run and ``core.bound`` binds: exactly a symmetric hash join
    counting on the plan's plain ``Metrics``, whose ``count`` the levels stand in for."""
    return type(metrics) is Metrics and type(op) is SymmetricHashJoin and op.metrics is metrics


def compile_plan(plan: "PhysicalPlan") -> None:
    """Compile every leaf's root path as wired right now; kept as ``scan.fused``."""
    metrics = next(iter(plan.scans.values())).metrics  # ``build_plan`` gives all one
    clock = metrics.clock if metrics.clock is not None else VirtualClock()
    c_insert, c_emit, c_probe, c_remove, c_output = (
        clock.costs.get(op, clock.default) for op in PIPELINE_OPS
    )
    # One set of tallies and one copy of the clock for the whole plan, advanced
    # as ``Metrics.count`` would and handed over before every hook call, every
    # hand-off and on leaving a door, or, carried, on ``leave``.  ``flush``
    # returns 0: hand over and reset in one statement.
    flush = metrics.count_pipeline
    adds = emits = probes = drops = outs = 0
    now = 0.0
    carrying = False  # between ``enter`` and ``leave``
    seen = -1  # the newest seq a carried ``arrive`` took

    def hand_over() -> None:
        """Off the per-arrival path: before a hook, a hand-off, an observer."""
        nonlocal adds, emits, probes, drops, outs
        adds = emits = probes = drops = outs = flush(now, adds, emits, probes, drops, outs)

    def enter(t: float) -> None:
        """Carry the clock and the tallies until :func:`leave`; catch the copy up to ``t``."""
        nonlocal now, carrying
        if not carrying:
            carrying = True
            now = clock.now
        if now < t:
            now = t

    def leave() -> int:
        """Hand the carried copy and tallies over; the newest seq carried (-1: none)."""
        nonlocal adds, emits, probes, drops, outs, now, carrying, seen
        newest = seen
        if carrying:
            carrying = False
            seen = -1
            # Both only move forward: the copy is ahead, unless a hook advanced the
            # clock and raised before the copy was reloaded.
            if clock.now > now:
                now = clock.now
            adds = emits = probes = drops = outs = flush(now, adds, emits, probes, drops, outs)
        return newest

    timed = metrics.clock is not None
    # A plain sink right above a prefix is written by the last level itself;
    # its lists are only ever mutated in place (see ``OutputSink``).
    sink = plan.sink if type(plan.sink) is OutputSink and plan.sink.metrics is metrics else None
    if sink is not None:
        outputs, output_times, retractions = sink.outputs, sink.output_times, sink.retractions

    def fuse(join: JoinOperator, opposite: Operator, assemble: Joiner, up: Level | None) -> Level:
        """``join.process`` of the other child's tuples, and each result's ``emit``."""
        probed = opposite.state.by_key
        opposite_status = opposite.state.status
        own = join.state
        own_status, by_key, by_ident, add = own.status, own.by_key, own.by_ident, own.add
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
            matches = probed.get(key)
            opposite.probes += 1
            if matches:
                opposite.hits += 1
                bucket = None  # every result carries ``key``: one bucket per call
                for match in matches.values():
                    result = assemble(tup, match)
                    ident = result.ident
                    if ident in by_ident:
                        continue
                    part_index = own.part_index  # rebound by ``_fix_layout`` / ``clear``
                    if len(part_index) != len(ident):
                        add(result)  # fixes the layout, or raises as ever
                    else:
                        for index, seq in zip(part_index, ident):
                            owners = index.get(seq)
                            if owners is None:
                                index[seq] = {ident: result}
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

    def leaf(
        scan: "StreamScan", first: Optional[Level], joins: List[JoinOperator]
    ) -> Tuple[Callable[[StreamTuple], None], Callable[[StreamTuple], bool]]:
        """``scan``'s two doors; ``joins`` is its fused prefix, bottom-up."""
        last: Operator = joins[-1] if joins else scan
        stream = scan.stream
        # Per join: its state, the evicting stream's position in its entries'
        # idents (``None``: streams unknown below), and the two indexes.
        removal_path = []
        for join in joins:
            streams, joined = entries[join], join.state
            position = None if streams is None else streams.index(stream)
            removal_path.append((joined, joined.status, position, joined.by_key, joined.by_ident))
        window = scan.window  # None: driven, the caller evicts through the door
        push = window.push if isinstance(window, SlidingWindow) else None
        push_all = None if window is None else window.push_all
        state = scan.state
        add, remove_entry, keys, idents = state.add, state.remove_entry, state.by_key, state.by_ident
        hand_off = scan.emit
        hand_off_removal = last.emit_removal

        def expire(evicted: StreamTuple, door: bool = True) -> bool:
            """``StreamScan.evict`` on a leaf whose caller owns the window: ``False``,
            touching nothing, when the state does not hold ``evicted``; else
            ``StreamScan._expire`` and ``Operator.remove`` up the prefix.  Called by
            ``arrive`` (``door=False``) it shares that call's clock copy and hand-over."""
            nonlocal adds, emits, probes, drops, outs, now
            seq = evicted.seq
            stored = idents.get(seq)
            if door:
                if stored is not evicted and (stored is None or stored != evicted):
                    return False  # ``HashState.__contains__``
                if not carrying:
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
                if stored is evicted:
                    del idents[seq]
                    bucket = keys[evicted.key]
                    del bucket[seq]
                    if not bucket:
                        del keys[evicted.key]
                elif stored is not None:
                    remove_entry(evicted)  # compares an equal tuple by value
                drops += 1
                now += c_remove
                part = (evicted.stream, seq)
                for joined, status, position, by_key, by_ident in removal_path:
                    probes += 1
                    now += c_probe
                    part_index = joined.part_index  # rebound by ``_fix_layout`` / ``clear``
                    if position is None or not part_index:
                        # no layout: never filled, or cleared — it holds nothing
                        n = len(joined.remove_with_part(part)) if joined.layout else 0
                    else:
                        expired = part_index[position].pop(seq, None)
                        n = 0
                        if expired is not None:
                            n = len(expired)
                            for ident, entry in expired.items():
                                del by_ident[ident]
                                bucket = by_key[entry.key]
                                del bucket[ident]
                                if not bucket:
                                    del by_key[entry.key]
                                for index, other in zip(part_index, ident):
                                    owners = index.get(other)
                                    if owners is not None:  # None at ``position``: popped
                                        del owners[ident]
                                        if not owners:
                                            del index[other]
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
                if door and not carrying and (adds or emits or probes or drops or outs):
                    adds = emits = probes = drops = outs = flush(
                        now, adds, emits, probes, drops, outs
                    )
            return True

        def arrive(tup: StreamTuple) -> None:
            """``StreamScan.insert``; the evictions it causes share its hand-over."""
            nonlocal adds, emits, probes, drops, outs, now, seen
            if tup.stream != stream:
                return scan.insert(tup)  # raises, before touching the window
            if carrying:
                # The caller's arrival door: what ``process_batch`` does around ``feed``.
                if tup.seq > seen:
                    seen = tup.seq
                tracer = metrics.tracer
                if tracer.enabled:
                    hand_over()
                    tracer.arrival(tup)
                    now = clock.now
            else:
                now = clock.now
            try:
                if push is not None:
                    evicted = push(tup)
                    if evicted is not None:
                        expire(evicted, False)
                elif push_all is not None:
                    for evicted in push_all(tup):
                        expire(evicted, False)
                if not state.layout:
                    add(tup)  # the first entry fixes the layout
                elif tup.seq not in idents:
                    bucket = keys.get(tup.key)
                    if bucket is None:
                        bucket = keys[tup.key] = {}
                    bucket[tup.seq] = idents[tup.seq] = tup
                adds += 1
                now += c_insert
                if first is None:
                    hand_over()
                    hand_off(tup)
                    now = clock.now
                else:
                    emits += 1
                    now += c_emit
                    first(tup)
            finally:
                if not carrying and (adds or emits or probes or drops or outs):  # as in ``expire``
                    adds = emits = probes = drops = outs = flush(
                        now, adds, emits, probes, drops, outs
                    )

        return arrive, expire

    # Sorted streams of each operator's entries, children first; ``None`` unless
    # everything below is a join or a scan (a set-difference passes on outer
    # tuples only, whatever its membership says).
    entries: Dict[Operator, Streams] = {scan: (scan.stream,) for scan in plan.scans.values()}
    for op in plan.internal:
        lower, upper = entries.get(op.left), entries.get(op.right)
        joined = isinstance(op, JoinOperator) and lower and upper
        entries[op] = tuple(sorted(lower + upper)) if joined else None
    # One level per (join, side), parents first: every join the kernels run, fed
    # synchronously by that child; elsewhere ``scan.emit`` hands over and counts.
    levels: Dict[Operator, Level] = {}  # child -> where what it emits goes
    for join in reversed(plan.internal):
        if runs_kernels(join, metrics):
            for child in join.children():
                if child.scheduler is None:
                    opposite = join.opposite(child)
                    assemble = joiner(entries.get(child), entries.get(opposite))
                    levels[child] = fuse(join, opposite, assemble, levels.get(join))
    for scan in plan.scans.values():
        joins: List[JoinOperator] = []
        last: Any = scan
        while last in levels:
            last = last.parent  # the join of ``levels[last]``
            joins.append(last)
        scan.fused = Kernel(*leaf(scan, levels.get(scan), joins), enter, leave)
