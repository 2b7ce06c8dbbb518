"""Sliding windows (Section 2.1).

A :class:`SlidingWindow` tracks the most recent ``size`` tuples of one
stream — the paper's count-based model, used by all experiments.  Pushing
a new tuple may evict the oldest one; the evicted tuple is returned so the
caller (the stream-scan operator / executor) can propagate the removal up
the pipeline, as required for correctness (Sections 2.1 and 4.2).

:class:`TimeSlidingWindow` is the time-based variant: it retains the
tuples whose timestamp lies within ``duration`` of the newest one.  A
single push can evict several tuples, so the uniform multi-eviction entry
point is :meth:`push_all` (available on both kinds).

A leaf built for a ``"driven"`` stream has no window object at all — its
caller owns the window — and :func:`window_contents` is how anything reads
"what is in this leaf's window" without caring which.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Iterator, List, Optional

from repro.streams.tuples import StreamTuple


class SlidingWindow:
    """A count-based sliding window over one stream.

    The window holds at most ``size`` tuples in arrival order.  ``push``
    returns the evicted tuple (if any) so that state-removal can be traced
    through the whole execution pipeline bottom-up, as the paper requires.
    """

    __slots__ = ("size", "_tuples")

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError(f"window size must be positive, got {size}")
        self.size = size
        self._tuples: Deque[StreamTuple] = deque()

    def push(self, tup: StreamTuple) -> Optional[StreamTuple]:
        """Insert ``tup``; return the tuple that slid out of the window, if any."""
        self._tuples.append(tup)
        if len(self._tuples) > self.size:
            return self._tuples.popleft()
        return None

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[StreamTuple]:
        return iter(self._tuples)

    def __contains__(self, tup: StreamTuple) -> bool:
        return tup in self._tuples

    def oldest(self) -> Optional[StreamTuple]:
        """The tuple that will be evicted next, or ``None`` if empty."""
        return self._tuples[0] if self._tuples else None

    def newest(self) -> Optional[StreamTuple]:
        """The most recently pushed tuple, or ``None`` if empty."""
        return self._tuples[-1] if self._tuples else None

    def snapshot(self) -> List[StreamTuple]:
        """Copy of the current contents in arrival order."""
        return list(self._tuples)

    def clear(self) -> None:
        self._tuples.clear()

    def push_all(self, tup: StreamTuple) -> List[StreamTuple]:
        """Insert ``tup``; return all evicted tuples (0 or 1 here)."""
        evicted = self.push(tup)
        return [] if evicted is None else [evicted]

    def discard(self, tup: StreamTuple) -> bool:
        """Remove ``tup`` from anywhere in the window; ``False`` if absent.

        The explicit-eviction entry of a leaf that owns a window
        (``StreamScan.evict`` / ``SteM.evict``): the tuple need not be the
        oldest, so removal is by value.  When it *is* the oldest, and the
        very object that was pushed, the head is taken by identity; anything
        else is ``deque.remove``'s scan, one ``StreamTuple.__eq__`` per
        element — which is why a shard worker, whose evictions arrive in
        the *global* order, owns no window at all (docs/SHARDING.md).
        """
        tuples = self._tuples
        if tuples and tuples[0] is tup:
            tuples.popleft()
            return True
        try:
            tuples.remove(tup)
        except ValueError:
            return False
        return True


class TimeSlidingWindow:
    """A time-based sliding window over one stream.

    Keeps the tuples whose timestamp is within ``duration`` of the newest
    tuple's timestamp (half-open: a tuple expires once its timestamp is
    <= newest - duration).  ``ts_fn`` extracts the timestamp; by default
    the global arrival sequence doubles as logical time, matching the
    engine's event model.
    """

    __slots__ = ("duration", "ts_fn", "_tuples")

    def __init__(self, duration: int, ts_fn: Optional[Callable] = None):
        if duration <= 0:
            raise ValueError(f"window duration must be positive, got {duration}")
        self.duration = duration
        self.ts_fn = ts_fn or (lambda t: t.seq)
        self._tuples: Deque[StreamTuple] = deque()

    def push_all(self, tup: StreamTuple) -> List[StreamTuple]:
        """Insert ``tup``; return every tuple that slid out of the window."""
        now = self.ts_fn(tup)
        horizon = now - self.duration
        evicted: List[StreamTuple] = []
        while self._tuples and self.ts_fn(self._tuples[0]) <= horizon:
            evicted.append(self._tuples.popleft())
        self._tuples.append(tup)
        return evicted

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[StreamTuple]:
        return iter(self._tuples)

    def __contains__(self, tup: StreamTuple) -> bool:
        return tup in self._tuples

    def oldest(self) -> Optional[StreamTuple]:
        return self._tuples[0] if self._tuples else None

    def newest(self) -> Optional[StreamTuple]:
        return self._tuples[-1] if self._tuples else None

    def snapshot(self) -> List[StreamTuple]:
        return list(self._tuples)

    def clear(self) -> None:
        self._tuples.clear()

    def discard(self, tup: StreamTuple) -> bool:
        """Remove ``tup`` from anywhere in the window; ``False`` if absent.

        Same contract, and the same head-by-identity shortcut, as
        :meth:`SlidingWindow.discard`.
        """
        tuples = self._tuples
        if tuples and tuples[0] is tup:
            tuples.popleft()
            return True
        try:
            tuples.remove(tup)
        except ValueError:
            return False
        return True


def window_contents(leaf: Any) -> List[StreamTuple]:
    """What a scan's or a SteM's window holds, in the order it arrived there.

    A leaf's state holds exactly its window's tuples, keyed ``seq -> tuple``
    in insertion order, so a driven leaf (``leaf.window is None``) answers
    from its state.
    """
    window = leaf.window
    return list(leaf.state.entries()) if window is None else window.snapshot()
