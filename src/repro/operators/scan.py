"""Stream-scan leaf operator.

A scan owns the stream's sliding window — unless the stream is ``"driven"``,
when its caller does and the scan builds none.  Either way its state *is*
the window contents, hashed on the join attribute — the "hash table of that
stream" of Section 2.1.  Leaf states are always complete (Section 4).

Inserting a tuple may evict the oldest window tuple; the eviction is traced
up the pipeline via ``remove`` before the new tuple is propagated, so that
the new tuple never joins with expired state.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.streams.tuples import AnyTuple

from repro.engine.metrics import Counter, Metrics
from repro.operators.base import Operator
from repro.operators.fused import Kernel
from repro.streams.tuples import StreamTuple
from repro.streams.window import SlidingWindow, TimeSlidingWindow

#: Signature of the freshness oracle attached by the JISC controller:
#: called with the expiring base tuple, returns True if it is *fresh*
#: (Definition 2).  Non-JISC pipelines leave it unset (treated as fresh,
#: which is only ever consulted when incomplete states exist).
FreshFn = Callable[[StreamTuple], bool]


class StreamScan(Operator):
    """Leaf operator for one input stream."""

    kind = "scan"

    def __init__(
        self, stream: str, window: int, metrics: Metrics, window_kind: str = "count"
    ):
        super().__init__(metrics)
        self.stream = stream
        #: ``None`` on a driven stream: the caller owns the window and calls
        #: :meth:`evict`; readers go through ``streams.window.window_contents``.
        self.window: Union[SlidingWindow, TimeSlidingWindow, None]
        if window_kind == "count":
            self.window = SlidingWindow(window)
        elif window_kind == "time":
            self.window = TimeSlidingWindow(window)
        elif window_kind == "driven":
            self.window = None
        else:
            raise ValueError(f"unknown window kind {window_kind!r}")
        self.fresh_fn: Optional[FreshFn] = None
        # Called with the evicted tuple after the removal cascade finished;
        # the JISC controller uses it to retire pending completion values.
        self.expire_hook: Optional[Callable[[StreamTuple], None]] = None
        # This leaf's root path as ``PhysicalPlan.feed`` had ``operators.fused``
        # compile it after the first arrival (``build_plan`` resets it with the
        # parent).  Its doors, ``feed`` and :meth:`evict`, run it unless the
        # pipeline is queued (read per call) — whatever observer is attached.
        self.fused: Optional[Kernel] = None

    @property
    def membership(self) -> frozenset:
        return frozenset((self.stream,))

    def insert(self, tup: StreamTuple) -> None:
        """External entry point: a new tuple arrived on this stream."""
        if tup.stream != self.stream:
            raise ValueError(f"tuple from {tup.stream!r} fed to scan of {self.stream!r}")
        window = self.window
        if isinstance(window, SlidingWindow):
            # Count windows evict at most one tuple per push; skip the
            # per-push list allocation of push_all on this hot path.
            evicted = window.push(tup)
            if evicted is not None:
                self._expire(evicted)
        elif window is not None:
            for evicted in window.push_all(tup):
                self._expire(evicted)
        self.state.add(tup)
        self.metrics.count(Counter.HASH_INSERT)
        self.emit(tup)

    def evict(self, tup: StreamTuple) -> bool:
        """Expire ``tup`` now, on the caller's word (docs/SHARDING.md).

        A shard worker's scans are driven: the coordinator owns the *global*
        windows and calls this when ``tup`` slides out of one.  Runs the
        exact same expiry cascade as a local eviction.  Returns ``False``
        when this scan does not hold the tuple — a legitimate no-op (e.g. a
        Parallel Track plan born after the tuple arrived).  A driven scan
        asks its state, which is O(1); one with a window discards from it.
        """
        window = self.window
        if window is None:
            if tup not in self.state:
                return False
        elif not window.discard(tup):
            return False
        kernel = self.fused
        if kernel is None or self.scheduler is not None:
            self._expire(tup)
        else:
            kernel.expire(tup)
        return True

    def _expire(self, evicted: StreamTuple) -> None:
        """Evict ``evicted`` from this state and trace it up the pipeline."""
        fresh = True if self.fresh_fn is None else self.fresh_fn(evicted)
        self.state.remove_entry(evicted)
        self.metrics.count(Counter.STATE_REMOVE)
        self.emit_removal((evicted.stream, evicted.seq), fresh)
        if self.expire_hook is not None:
            self.expire_hook(evicted)

    def process(self, tup: AnyTuple, child: Optional[Operator]) -> None:  # pragma: no cover - defensive
        raise TypeError("StreamScan has no children; use insert()")

    def remove(self, part: "tuple[str, int]", child: Operator, fresh: bool = True) -> None:  # pragma: no cover
        raise TypeError("StreamScan has no children")
