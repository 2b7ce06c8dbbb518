"""Operator state: hash tables over join results with a positional expiry index.

A :class:`HashState` is the materialized output relation of one operator,
indexed two ways:

* by join-attribute value — the symmetric-hash-join probe path;
* by constituent base tuple — the window-expiry removal path (a removed
  window tuple must be traced through the whole pipeline, Section 2.1).

A state holds the results of **one membership** (one fixed set of streams),
so within it an entry is identified by its ``ident`` alone — a base tuple's
``seq``, a composite's flat tuple of constituent seqs in stream-sorted
order (:mod:`repro.streams.tuples`).  The same logical result is never
stored twice (insertion is idempotent), and every index hashes plain ints
or flat int tuples: nothing on the arrival path builds, hashes or retains a
lineage (docs/PERFORMANCE.md).  Idents never leave the state: checkpoints
serialize the lineage tuples themselves.

:class:`StateStatus` carries the JISC bookkeeping of Section 4.3: whether
the state is *complete* or *incomplete* (Definition 1) and, when incomplete,
the set of join-attribute values still pending completion (the paper's
integer counter is ``len(pending)``; we keep the value set because window
slides can retire pending values, and because tests can then assert exactly
*which* values remain).
"""

from __future__ import annotations

from typing import (
    Any,
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.engine.metrics import Counter, Metrics
from repro.streams.tuples import AnyTuple, CompositeTuple

Entry = AnyTuple

#: An entry's identity within one state: ``seq`` or a flat tuple of seqs.
Ident = Union[int, Tuple[int, ...]]

#: One stream position of the part index: ``seq -> {ident -> entry}``
#: (composite entries only, so every ident in it is a tuple).
PartIndex = Dict[int, Dict[Tuple[int, ...], Entry]]

#: Shared empty probe result (a miss allocates nothing).
_NO_ENTRIES: Tuple[Entry, ...] = ()

#: A moved key's bucket and per-position part-index dicts (:meth:`HashState.take_key`).
Taken = Tuple[Dict[Ident, Entry], Tuple[PartIndex, ...]]
#: A key's state in one engine, by holder label.
Parcel = Dict[str, Taken]


class StateStatus:
    """JISC completeness bookkeeping for one state (Section 4.3).

    A state is *complete* when it holds every entry it would hold had the
    current plan been running from the start (Definition 1).  An incomplete
    state tracks ``pending``: the distinct join-attribute values whose
    entries have not yet been completed.  ``pending is None`` encodes Case 3
    of Section 4.3 (both children incomplete — the counter is meaningless
    and completion is detected through child notifications instead).
    """

    __slots__ = ("complete", "pending")

    def __init__(self, complete: bool = True):
        self.complete = complete
        self.pending: Optional[Set[Any]] = None

    @property
    def counter(self) -> Optional[int]:
        """The paper's integer counter: number of values still pending."""
        if self.pending is None:
            return None
        return len(self.pending)

    def mark_complete(self) -> None:
        self.complete = True
        self.pending = None

    def mark_incomplete(self, pending: Optional[Iterable[Any]]) -> None:
        self.complete = False
        self.pending = None if pending is None else set(pending)

    def settle_value(self, value: Any) -> bool:
        """Record that entries for ``value`` are now complete, or that the
        value vanished from the reference child (window slide).

        Returns ``True`` if this settles the last pending value (the counter
        reached zero), i.e. the caller should mark the state complete and
        notify the parent (Section 4.3).
        """
        if self.complete or self.pending is None:
            return False
        self.pending.discard(value)
        return not self.pending


class HashState:
    """A hash-indexed relation of (possibly composite) tuples.

    Probe/insert/removal primitives do **not** count metrics themselves;
    operators count, so that the same structure can back cost-free oracle
    computations in tests.

    Index internals:

    * ``by_key``   — key value -> {ident -> entry} (probe path);
    * ``by_ident`` — ident -> entry, in state insertion order (duplicate
      check, :meth:`entries`, ``len``);
    * ``layout``   — the membership's stream names in ``ident`` order,
      fixed by the first entry (``()`` until then);
    * ``part_index`` — for composite entries, one dict per ``layout``
      position: seq -> {ident -> entry} of the entries whose part at that
      position is that base tuple (window-expiry removal path, in state
      insertion order).  A state of base tuples needs none: ``by_ident``
      already is seq -> entry, and ``part_index`` stays ``()``.

    A state is a standalone relation — entries carry no links to the
    entries derived from them in other states — because JISC adopts states
    across plan shapes by pointer move (docs/PERFORMANCE.md).

    These methods are the definition, and there are two more writers: the
    fused kernels (:mod:`repro.operators.fused`) probe ``by_key`` and do the
    arrival path's inserts and expiry unlinks themselves, and the bound
    completion (:mod:`repro.core.bound`) probes and inserts itself, in the
    same order, falling back to :meth:`add` / :meth:`remove_entry` /
    :meth:`remove_with_part` where this layout is not fixed yet or the
    entry's streams are not known (a kernel skips a state with no layout on
    eviction: it holds nothing); ``tests/test_fused_state.py`` holds every
    index of theirs to these methods'.  Hence ``by_key`` and ``by_ident``
    are only ever mutated in place (kernels close over them), while
    ``part_index`` and ``layout`` may be rebound and are read per call.
    """

    __slots__ = ("by_key", "by_ident", "layout", "part_index", "status")

    def __init__(self, complete: bool = True):
        self.by_key: Dict[Any, Dict[Ident, Entry]] = {}
        self.by_ident: Dict[Ident, Entry] = {}
        self.layout: Tuple[str, ...] = ()
        self.part_index: Tuple[PartIndex, ...] = ()
        self.status = StateStatus(complete)

    # -- core relation operations -------------------------------------------------

    def add(self, entry: Entry) -> bool:
        """Insert ``entry``; returns ``False`` if it was already present.

        A duplicate insert mutates nothing — in particular it does not
        perturb the key bucket, which is what makes iterating
        :meth:`get_view` across an (idempotent) completion re-run safe.
        Raises ``ValueError`` (before mutating anything) for an entry whose
        number of parts differs from the layout the first entry fixed.
        """
        ident = entry.ident
        by_ident = self.by_ident
        if ident in by_ident:
            return False
        part_index = self.part_index
        if isinstance(ident, tuple):
            if len(ident) != len(part_index):
                part_index = self._fix_layout(entry)
            for index, seq in zip(part_index, ident):
                owners = index.get(seq)
                if owners is None:
                    index[seq] = {ident: entry}
                else:
                    owners[ident] = entry
        elif part_index or not self.layout:
            self._fix_layout(entry)
        by_key = self.by_key
        bucket = by_key.get(entry.key)
        if bucket is None:
            bucket = by_key[entry.key] = {}
        bucket[ident] = entry
        by_ident[ident] = entry
        return True

    def _fix_layout(self, entry: Entry) -> Tuple[PartIndex, ...]:
        """The first entry decides which streams this state is about."""
        if self.layout:
            raise ValueError(
                f"{entry!r} does not fit a state of {'+'.join(self.layout)} entries"
            )
        if isinstance(entry, CompositeTuple):
            self.layout = tuple(p.stream for p in entry.parts)
            self.part_index = tuple({} for _ in self.layout)
        else:
            self.layout = (entry.stream,)
        return self.part_index

    def get(self, key: Any) -> List[Entry]:
        """All entries with join-attribute value ``key``, as a fresh list.

        The copy is safe to hold across mutations of this state; pure
        read-only probes should prefer :meth:`get_view`.
        """
        bucket = self.by_key.get(key)
        if not bucket:
            return []
        return list(bucket.values())

    def get_view(self, key: Any) -> Collection[Entry]:
        """All entries for ``key`` as a zero-copy, re-iterable view.

        The view reflects (and is invalidated by) mutations of *this*
        state for ``key``: callers must not insert into or remove from
        this state while iterating.  Inserting into a *different* state
        (the probing operator's own state, an ancestor's) is fine — that
        is exactly the join hot path.
        """
        bucket = self.by_key.get(key)
        if not bucket:
            return _NO_ENTRIES
        return bucket.values()

    def contains_key(self, key: Any) -> bool:
        return bool(self.by_key.get(key))

    def remove_entry(self, entry: Entry) -> bool:
        """Remove one specific entry; returns ``False`` if absent.

        An entry of other streams than this state's is absent even when its
        seqs coincide with a stored entry's: the stored entry is compared
        by value unless it is the very object given.
        """
        ident = entry.ident
        by_ident = self.by_ident
        stored = by_ident.get(ident)
        if stored is None or (stored is not entry and stored != entry):
            return False
        del by_ident[ident]
        by_key = self.by_key
        bucket = by_key[stored.key]
        del bucket[ident]
        if not bucket:
            del by_key[stored.key]
        if isinstance(ident, tuple):
            for index, seq in zip(self.part_index, ident):
                owners = index[seq]
                del owners[ident]
                if not owners:
                    del index[seq]
        return True

    def remove_with_part(self, part: Tuple[str, int]) -> List[Entry]:
        """Remove and return every entry containing base tuple ``part``.

        This is the window-expiry path: when base tuple ``part`` slides out
        of its stream's window, every join result built from it must leave
        every state.  A part of a stream outside this state's membership
        matches nothing.

        Entries leave in the order they were inserted into this state —
        every container walked here is an insertion-ordered dict keyed on
        ints, so the order is the same in every process whatever
        ``PYTHONHASHSEED`` is (fault-injection replays stay byte-identical).
        """
        stream, seq = part
        layout = self.layout
        if stream not in layout:
            return []
        position = layout.index(stream)
        part_index = self.part_index
        if not part_index:
            entry = self.by_ident.get(seq)
            if entry is None:
                return []
            self.remove_entry(entry)
            return [entry]
        expired = part_index[position].pop(seq, None)
        if expired is None:
            return []
        by_ident = self.by_ident
        by_key = self.by_key
        for ident, entry in expired.items():
            del by_ident[ident]
            bucket = by_key[entry.key]
            del bucket[ident]
            if not bucket:
                del by_key[entry.key]
            for index, other in zip(part_index, ident):
                owners = index.get(other)
                # None at ``position``: that whole dict was popped above.
                if owners is not None:
                    del owners[ident]
                    if not owners:
                        del index[other]
        return list(expired.values())

    # -- moving a key between engines (docs/SHARDING.md) -------------------------------

    def take_key(self, key: Any, held: Dict[str, Dict[Ident, Entry]]) -> Optional[Taken]:
        """Remove ``key``'s entries and hand over their dicts whole (every sharded
        join is on the key, so they hold nothing else).  ``held``: stream -> the
        key's bucket of live seqs, which a base-tuple state fills in (go first)."""
        bucket = self.by_key.pop(key, None)
        if bucket is None:
            return None
        for ident in bucket:
            del self.by_ident[ident]
        if not self.part_index:
            held[self.layout[0]] = bucket
            return bucket, ()
        return bucket, tuple(
            {seq: index.pop(seq) for seq in held[stream] if seq in index}
            for stream, index in zip(self.layout, self.part_index)
        )

    def put_key(self, key: Any, taken: Taken) -> int:
        """Adopt a :meth:`take_key` of ``key``, held nothing of here; returns the entries."""
        bucket, parts = taken
        if not self.layout:
            self._fix_layout(next(iter(bucket.values())))
        self.by_key[key] = bucket
        self.by_ident.update(bucket)
        for index, owners in zip(self.part_index, parts):
            index.update(owners)
        return len(bucket)

    # -- introspection -------------------------------------------------------------

    def distinct_values(self) -> Set[Any]:
        """Distinct join-attribute values currently present."""
        return set(self.by_key)

    def distinct_count(self) -> int:
        return len(self.by_key)

    def entries(self) -> Iterator[Entry]:
        """Iterate over all entries in state insertion order (O(1) per
        entry, no per-bucket indirection)."""
        return iter(self.by_ident.values())

    def __len__(self) -> int:
        return len(self.by_ident)

    def __contains__(self, entry: Entry) -> bool:
        stored = self.by_ident.get(entry.ident)
        return stored is not None and (stored is entry or stored == entry)

    def clear(self) -> None:
        """Drop every entry and the layout (the next entry fixes a new one)."""
        self.by_key.clear()
        self.by_ident.clear()
        self.layout = ()
        self.part_index = ()


def extract_key(states: Dict[str, HashState], key: Any, metrics: Metrics) -> Parcel:
    """``key``'s entries out of one engine's states (by label, base-tuple states
    first), charged one ``STATE_REMOVE`` per part of every entry handed over."""
    held: Dict[str, Dict[Ident, Entry]] = {}
    parcel: Parcel = {}
    parts = 0
    for label, state in states.items():
        taken = state.take_key(key, held)
        if taken is not None:
            parcel[label] = taken
            parts += len(taken[0]) * len(state.layout)
    metrics.count_n(Counter.STATE_REMOVE, parts)
    return parcel


def install_key(states: Dict[str, HashState], key: Any, parcel: Parcel, metrics: Metrics) -> int:
    """An :func:`extract_key` parcel into the same-labelled states, charged one
    ``STATE_COPY`` per entry (Moving State's copy cost); returns the entries."""
    adopted = sum([states[label].put_key(key, taken) for label, taken in parcel.items()])
    metrics.count_n(Counter.STATE_COPY, adopted)
    return adopted


def newest_seq(parcel: Parcel) -> int:
    """The largest seq among a parcel's base tuples (``-1`` for none)."""
    return max([max(bucket) for bucket, parts in parcel.values() if not parts], default=-1)


def fill_key(plan: Any, key: Any, tuples: Iterable[Any], metrics: Metrics) -> int:
    """Build ``key``'s complete state over its live ``tuples`` in a plan no parcel
    fits (a Parallel Track track the source lacked), charged as an install."""
    held = sum(plan.scans[tup.stream].state.add(tup) for tup in tuples)
    for op in plan.internal:
        lefts, rights = op.left.state.get_view(key), op.right.state.get_view(key)
        held += sum(op.state.add(CompositeTuple.of(x, y)) for x in lefts for y in rights)
    metrics.count_n(Counter.STATE_COPY, held)
    return held
