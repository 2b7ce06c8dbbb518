"""Tuple data model.

Two tuple kinds flow through a query execution plan (QEP):

* :class:`StreamTuple` — a base tuple received from one input stream.  It
  carries the stream name, a global arrival sequence number, the join
  attribute value, and an optional payload of additional attributes.

* :class:`CompositeTuple` — an intermediate or final join result.  It records
  its *lineage*: the exact set of base tuples it was assembled from.  Lineage
  is what makes window expiry (Section 2.1), duplicate elimination in the
  Parallel Track strategy (Section 3.3), and the correctness test oracle
  (Appendix, Theorems 1-3) possible.

The paper's model (Section 5.2 and the experiments of Section 6) is a
multi-way equi-join over a common join attribute (called *ID* in Section 4):
only such queries admit arbitrary join reorderings, which is what plan
migration exercises.  Both tuple kinds therefore expose a single ``key``
holding the join attribute value.

Hot-path notes (docs/PERFORMANCE.md): both kinds expose ``ident``, their
identity *within one operator state* — a base tuple's ``seq``, a composite's
flat tuple of constituent seqs in stream-sorted order.  A state holds one
membership, so the stream names are implied by the state and the ints alone
identify an entry; state indexing and duplicate elimination hash those ints.
``lineage`` (the self-describing form, with stream names) is built lazily
for outputs, checkpoints, the oracle and traces — nothing on the arrival
path reads it.  ``min_seq``/``max_seq`` are defined on both kinds so age
checks need no ``isinstance`` dispatch.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Iterable, List, Optional, Tuple, Union

from repro.perf.intern import INTERNER

_intern = INTERNER.id_of
_by_stream = attrgetter("stream")
_seq_of = attrgetter("seq")


class StreamTuple:
    """A base tuple arriving on one input stream.

    Parameters
    ----------
    stream:
        Name of the stream this tuple arrived on (e.g. ``"R"``).
    seq:
        Global arrival sequence number.  Sequence numbers are assigned by the
        workload (or the executor) in arrival order across *all* streams and
        double as logical timestamps.
    key:
        Value of the join attribute (the paper's *ID*).
    payload:
        Optional extra attributes; opaque to the engine.
    """

    __slots__ = ("stream", "seq", "key", "payload", "_lineage")

    def __init__(self, stream: str, seq: int, key: Any, payload: Any = None):
        self.stream = stream
        self.seq = seq
        self.key = key
        self.payload = payload
        self._lineage: Optional[Tuple[Tuple[str, int], ...]] = None

    #: Identity within one state (all of whose entries share one stream):
    #: the arrival sequence number.  A C-level getter, not a new slot.
    ident = property(_seq_of)

    @property
    def lineage(self) -> Tuple[Tuple[str, int], ...]:
        """Lineage of a base tuple: itself (cached; built once)."""
        lineage = self._lineage
        if lineage is None:
            lineage = self._lineage = ((self.stream, self.seq),)
        return lineage

    @property
    def lineage_id(self) -> int:
        """Interned lineage (process-local, see :mod:`repro.perf.intern`)."""
        return _intern(self.lineage)

    def has_part(self, part: Tuple[str, int]) -> bool:
        """Is ``part`` (a ``(stream, seq)`` pair) this very tuple?"""
        return self.seq == part[1] and self.stream == part[0]

    def min_seq(self) -> int:
        """Oldest constituent arrival sequence (itself, for a base tuple)."""
        return self.seq

    def max_seq(self) -> int:
        """Newest constituent arrival sequence (itself, for a base tuple)."""
        return self.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StreamTuple({self.stream}#{self.seq}, key={self.key!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StreamTuple)
            and self.stream == other.stream
            and self.seq == other.seq
        )

    def __hash__(self) -> int:
        return hash((self.stream, self.seq))


class CompositeTuple:
    """A join result assembled from base tuples of distinct streams.

    ``parts`` maps stream name to the constituent :class:`StreamTuple`.  All
    constituents share the same join attribute value in the common-key model,
    so the composite's ``key`` equals each part's ``key``.

    **Invariant**: ``parts`` must be sorted by stream name (streams within
    one composite are distinct, so stream order is total).  :meth:`of`
    guarantees it by merging the already-sorted part runs of its inputs;
    direct constructor callers (checkpoint restore) sort before
    constructing.  ``ident`` and ``lineage`` rely on the invariant instead
    of sorting defensively.

    ``ident`` is the flat tuple of the parts' seqs, in ``parts`` order: the
    composite's identity within one operator state (whose membership fixes
    which stream each position stands for).  :meth:`of` assembles it from
    its inputs' idents with the same slices it cuts ``parts`` with; the
    bare constructor derives it from ``parts``.
    """

    __slots__ = ("key", "parts", "ident", "_lineage")

    def __init__(
        self,
        key: Any,
        parts: Tuple[StreamTuple, ...],
        ident: Optional[Tuple[int, ...]] = None,
    ):
        self.key = key
        self.parts = parts
        self.ident = tuple(map(_seq_of, parts)) if ident is None else ident
        self._lineage: Optional[Tuple[Tuple[str, int], ...]] = None

    @classmethod
    def of(cls, *tuples: "StreamTuple | CompositeTuple") -> "CompositeTuple":
        """Combine base and/or composite tuples into one composite.

        All inputs must share the same join key; the result's parts are the
        union of the inputs' constituent base tuples.  Inputs cover disjoint
        stream sets (enforced by
        :class:`~repro.operators.base.BinaryOperator`), and each input's
        parts are already sorted by stream.  The dominant case — a join
        probe pairing a one-part input with a sorted run — inserts by
        tuple slicing (C-level copies after a short scan for the position),
        cutting ``ident`` at the same position; everything else
        concatenates and re-sorts, which for the short part lists of real
        plans beats a Python-level merge loop.
        """
        key = tuples[0].key
        if len(tuples) == 2:
            a, b = tuples
            if isinstance(a, CompositeTuple):
                pa, ia = a.parts, a.ident
            else:
                pa, ia = (a,), (a.seq,)
            if isinstance(b, CompositeTuple):
                pb, ib = b.parts, b.ident
            else:
                pb, ib = (b,), (b.seq,)
            if len(pa) == 1:
                pa, pb, ia, ib = pb, pa, ib, ia
            if len(pb) == 1:
                ts = pb[0].stream
                i = 0
                for p in pa:
                    if ts < p.stream:
                        break
                    i += 1
                return cls(key, pa[:i] + pb + pa[i:], ia[:i] + ib + ia[i:])
            return cls(key, tuple(sorted(pa + pb, key=_by_stream)))
        parts: List[StreamTuple] = []
        for t in tuples:
            if isinstance(t, CompositeTuple):
                parts.extend(t.parts)
            else:
                parts.append(t)
        parts.sort(key=_by_stream)
        return cls(key, tuple(parts))

    @property
    def lineage(self) -> Tuple[Tuple[str, int], ...]:
        """Sorted tuple of ``(stream, seq)`` pairs identifying constituents.

        Already sorted because ``parts`` is (see the class invariant).
        """
        lineage = self._lineage
        if lineage is None:
            lineage = self._lineage = tuple((p.stream, p.seq) for p in self.parts)
        return lineage

    @property
    def lineage_id(self) -> int:
        """Interned lineage (process-local, see :mod:`repro.perf.intern`)."""
        return _intern(self.lineage)

    @property
    def streams(self) -> frozenset:
        """The set of stream names this composite covers."""
        return frozenset(p.stream for p in self.parts)

    def part(self, stream: str) -> StreamTuple:
        """Return the constituent base tuple from ``stream``.

        Raises ``KeyError`` if this composite has no part from that stream.
        """
        for p in self.parts:
            if p.stream == stream:
                return p
        raise KeyError(stream)

    def has_part(self, part: Tuple[str, int]) -> bool:
        """Is the base tuple ``part`` (``(stream, seq)``) a constituent?

        Almost always answered by the int scan of ``ident``; only a seq
        that does occur pays for the lineage.
        """
        return part[1] in self.ident and part in self.lineage

    def max_seq(self) -> int:
        """Largest constituent arrival sequence (the composite's birth time)."""
        return max(self.ident)

    def min_seq(self) -> int:
        """Smallest constituent arrival sequence (the oldest part's age)."""
        return min(self.ident)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        names = ",".join(f"{p.stream}#{p.seq}" for p in self.parts)
        return f"CompositeTuple(key={self.key!r}, [{names}])"

    def __eq__(self, other: object) -> bool:
        # Equal parts have equal seqs, so ``ident`` rejects most unequal
        # pairs on ints alone; ``parts`` then compares the stream names.
        return (
            isinstance(other, CompositeTuple)
            and self.ident == other.ident
            and self.parts == other.parts
        )

    def __hash__(self) -> int:
        return hash(self.ident)


#: Any tuple flowing through a plan: a base tuple or a join result.
AnyTuple = Union[StreamTuple, CompositeTuple]

#: Canonical tuple identity: sorted ``(stream, seq)`` pairs of constituents.
Lineage = Tuple[Tuple[str, int], ...]


def lineage_key(tup: AnyTuple) -> Lineage:
    """Canonical identity of any tuple: its sorted constituent lineage.

    Used as the duplicate-elimination key by the Parallel Track strategy and
    by the test oracle when comparing output multisets across strategies.
    """
    return tup.lineage


def parts_of(tup: AnyTuple) -> Iterable[StreamTuple]:
    """Iterate over the base tuples a (possibly base) tuple is built from."""
    if isinstance(tup, CompositeTuple):
        return tup.parts
    return (tup,)
