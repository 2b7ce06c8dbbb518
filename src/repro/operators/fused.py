"""Fused per-leaf kernels: the dispatch of one leaf's root path, compiled.

:func:`compile_leaf` derives two closures from the operators on a leaf's
root path: ``arrive`` (window push, expiry cascade, scan insert, one fused
level per join) and ``expire`` (the removal cascade alone).  What is fused
is the dispatch, nothing else — the operator classes stay the definition: a
level calls the same ``HashState`` methods, bumps the same probe tallies and
calls the same hooks at the same points as ``JoinOperator.process`` /
``Operator.remove``.  The fused prefix ends at the first ancestor that is
not exactly a :class:`SymmetricHashJoin` fed synchronously; results and
removals reach it through the last fused operator's ``emit`` /
``emit_removal``.  Accounting, and what a kernel may close over:
docs/PERFORMANCE.md, "Fused arrival path".
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Callable, List, NamedTuple, Optional, Tuple

from repro.engine.cost import VirtualClock
from repro.engine.metrics import PIPELINE_OPS, Metrics
from repro.operators.base import Operator
from repro.operators.joins import JoinOperator, SymmetricHashJoin
from repro.operators.sink import OutputSink
from repro.streams.tuples import CompositeTuple, StreamTuple
from repro.streams.window import SlidingWindow

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.operators.scan import StreamScan

#: One fused join level; which of its tuples is a base tuple and which a
#: composite is pinned by :func:`_assembly`, not by types.
Level = Callable[[Any], None]
Streams = Optional[Tuple[str, ...]]


class Kernel(NamedTuple):
    """One leaf's compiled ``StreamScan.insert`` and ``StreamScan._expire``."""

    arrive: Callable[[StreamTuple], None]
    expire: Callable[[StreamTuple], None]


# How a level assembles ``CompositeTuple.of(tup, match)``.
_OF, _PAIR, _TUP_INTO_MATCH, _MATCH_INTO_TUP = range(4)


def _entry_streams(op: Operator) -> Streams:
    """Sorted streams of ``op``'s entries; ``None`` unless everything below
    is a join or a scan (a set-difference passes on outer tuples only,
    whatever its membership says)."""
    if op.kind == "scan" or (
        isinstance(op, JoinOperator) and _entry_streams(op.left) and _entry_streams(op.right)
    ):
        return tuple(sorted(op.membership))
    return None


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


def compile_leaf(scan: "StreamScan") -> Kernel:
    """Compile ``scan``'s root path as wired right now; kept as ``scan.fused``."""
    metrics = scan.metrics
    clock = metrics.clock if metrics.clock is not None else VirtualClock()
    c_insert, c_emit, c_probe, c_remove, c_output = (
        clock.costs.get(op, clock.default) for op in PIPELINE_OPS
    )
    # Tallies and a copy of the clock, advanced as ``Metrics.count`` would and
    # handed over before every hook call, every hand-off and on exit.
    # ``flush`` returns 0: hand over and reset in one statement.
    flush = metrics.count_pipeline
    adds = emits = probes = drops = outs = 0
    now = 0.0
    of = CompositeTuple.of

    def fuse(
        join: SymmetricHashJoin, opposite: Operator, how: int, i: int, up: Optional[Level]
    ) -> Level:
        """``join.process`` of the other child's tuples, and each result's ``emit``."""
        get_view = opposite.state.get_view
        opposite_status = opposite.state.status
        own_status = join.state.status
        add = join.state.add
        hand_off = join.emit

        def level(tup: Any) -> None:
            nonlocal adds, emits, probes, drops, outs, now
            if not opposite_status.complete and join.completion_hook is not None:
                adds = emits = probes = drops = outs = flush(now, adds, emits, probes, drops, outs)
                join.completion_hook(tup, join, opposite)
                now = clock.now
            probes += 1
            now += c_probe
            key = tup.key
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
                            adds = emits = probes = drops = outs = flush(
                                now, adds, emits, probes, drops, outs
                            )
                            metrics.tracer.output(result, when)
                            now = clock.now
                    else:
                        adds = emits = probes = drops = outs = flush(
                            now, adds, emits, probes, drops, outs
                        )
                        hand_off(result)
                        now = clock.now
            if not own_status.complete and join.completion_hook is not None:
                adds = emits = probes = drops = outs = flush(now, adds, emits, probes, drops, outs)
                join.completion_hook(tup, join, join)
                now = clock.now

        return level

    # The fused prefix: every ancestor that is exactly a symmetric hash join
    # counting on the same metrics and fed synchronously by its child.  Empty
    # under a ``Metrics`` subclass: the levels tally on behalf of
    # ``Metrics.count``, and an overridden ``count`` (``EddyMetrics`` charges an
    # eddy visit per emit, moving the clock in between) is not theirs to
    # reproduce — the leaf hands over through ``scan.emit``, which counts there.
    specs: List[Tuple[SymmetricHashJoin, Operator, int, int]] = []
    last: Operator = scan
    streams: Streams = (scan.stream,)  # of what ``last`` emits
    while (
        type(metrics) is Metrics
        and type(last.parent) is SymmetricHashJoin
        and last.scheduler is None
        and last.parent.metrics is metrics
    ):
        join = last.parent
        opposite = join.opposite(last)
        matched = _entry_streams(opposite)
        specs.append((join, opposite, *_assembly(streams, matched)))
        streams = tuple(sorted(streams + matched)) if streams and matched else None
        last = join
    # A plain sink right above the prefix is written by the last level itself;
    # its lists are only ever mutated in place (see ``OutputSink``).
    top = last.parent
    sink = top if type(top) is OutputSink and top.metrics is metrics else None
    if sink is not None:
        outputs, output_times, retractions = sink.outputs, sink.output_times, sink.retractions
    timed = metrics.clock is not None
    first: Optional[Level] = None
    for spec in reversed(specs):
        first = fuse(*spec, first)
    removal_path = tuple((j.state.remove_with_part, j.state.status) for j, *_ in specs)

    stream = scan.stream
    window = scan.window
    push = window.push if isinstance(window, SlidingWindow) else None
    push_all = window.push_all
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
            remove_entry(evicted)
            drops += 1
            now += c_remove
            fresh = True
            if scan.fresh_fn is not None:
                adds = emits = probes = drops = outs = flush(now, adds, emits, probes, drops, outs)
                fresh = scan.fresh_fn(evicted)
                now = clock.now
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
                    adds = emits = probes = drops = outs = flush(
                        now, adds, emits, probes, drops, outs
                    )
                    hand_off_removal(part, fresh)
                    now = clock.now
            if scan.expire_hook is not None:
                adds = emits = probes = drops = outs = flush(now, adds, emits, probes, drops, outs)
                scan.expire_hook(evicted)
                now = clock.now
        finally:
            # With nothing tallied ``now`` may be stale (a hook or hand-off
            # advanced the clock, then raised before the reload): not written.
            if door and (adds or emits or probes or drops or outs):
                adds = emits = probes = drops = outs = flush(now, adds, emits, probes, drops, outs)

    def arrive(tup: StreamTuple) -> None:
        """``StreamScan.insert``; the evictions it causes share its hand-over."""
        nonlocal adds, emits, probes, drops, outs, now
        if tup.stream != stream:
            return scan.insert(tup)  # raises, before touching the window
        now = clock.now
        try:
            if push is None:
                for evicted in push_all(tup):
                    expire(evicted, False)
            else:
                evicted = push(tup)
                if evicted is not None:
                    expire(evicted, False)
            add(tup)
            adds += 1
            now += c_insert
            if first is None:
                adds = emits = probes = drops = outs = flush(now, adds, emits, probes, drops, outs)
                hand_off(tup)
            else:
                emits += 1
                now += c_emit
                first(tup)
        finally:
            if adds or emits or probes or drops or outs:  # as in ``expire``
                adds = emits = probes = drops = outs = flush(now, adds, emits, probes, drops, outs)

    scan.fused = Kernel(arrive, expire)
    return scan.fused
