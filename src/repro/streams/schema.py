"""Stream schemas and descriptors.

The engine needs very little schema information: the set of stream names
participating in a query, the (shared) join attribute, and each stream's
sliding-window size.  :class:`StreamDescriptor` bundles the per-stream facts;
:class:`Schema` bundles the per-query facts and validates consistency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple


@dataclass(frozen=True)
class StreamDescriptor:
    """Static properties of one input stream.

    Parameters
    ----------
    name:
        Stream name; unique within a query.
    window:
        Sliding-window extent (Section 2.1).  With ``window_kind="count"``
        (the paper's model) the stream's state retains its most recent
        ``window`` tuples; with ``"time"`` it retains the tuples whose
        timestamp (the arrival sequence by default) is within ``window``
        time units of the newest.  With ``"driven"`` the extent is the
        caller's to enforce: the stream's state builds no window, never
        evicts on its own and holds what it was fed until the caller's
        ``evict`` (a shard worker under the coordinator's global windows,
        docs/SHARDING.md).
    window_kind:
        ``"count"`` (default), ``"time"`` or ``"driven"``.
    """

    name: str
    window: int = 10_000
    window_kind: str = "count"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("stream name must be non-empty")
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")
        if self.window_kind not in ("count", "time", "driven"):
            raise ValueError(
                f"window_kind must be 'count', 'time' or 'driven', got {self.window_kind!r}"
            )


@dataclass(frozen=True)
class Schema:
    """Query-level schema: participating streams and the shared join key.

    Parameters
    ----------
    streams:
        Descriptors of all participating streams, in no particular order.
    key:
        Name of the shared join attribute (the paper's *ID*).  Informational:
        tuples carry the key value directly.
    """

    streams: Tuple[StreamDescriptor, ...]
    key: str = "id"
    _by_name: Dict[str, StreamDescriptor] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        names = [s.name for s in self.streams]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate stream names in schema: {names}")
        if len(names) < 1:
            raise ValueError("schema needs at least one stream")
        object.__setattr__(self, "_by_name", {s.name: s for s in self.streams})

    @classmethod
    def uniform(
        cls,
        names: Iterable[str],
        window: int,
        key: str = "id",
        window_kind: str = "count",
    ) -> "Schema":
        """Build a schema where every stream has the same window."""
        return cls(
            tuple(StreamDescriptor(n, window, window_kind) for n in names), key
        )

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.streams)

    def descriptor(self, name: str) -> StreamDescriptor:
        """Look up the descriptor for ``name`` (raises ``KeyError`` if absent)."""
        return self._by_name[name]

    def window_of(self, name: str) -> int:
        """Window size of stream ``name``."""
        return self._by_name[name].window

    def __contains__(self, name: str) -> bool:
        return name in self._by_name
