"""Operation counters.

Every strategy executes against a :class:`Metrics` instance.  Operators call
``metrics.count(op)`` (or ``count_n``) for each primitive operation; the
attached :class:`~repro.engine.cost.VirtualClock`, if any, advances by the
operation's cost.  Counters are the machine-independent performance measure
used by all benchmarks (see DESIGN.md, substitution table).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.obs.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.engine.cost import CostModel, VirtualClock


class Counter:
    """Names of the primitive operations the engine counts."""

    HASH_PROBE = "hash_probe"          # one hash-bucket lookup in a state
    HASH_INSERT = "hash_insert"        # one entry insertion into a state
    STATE_REMOVE = "state_remove"      # one entry removal (window expiry)
    NL_COMPARE = "nl_compare"          # one nested-loops predicate evaluation
    TUPLE_EMIT = "tuple_emit"          # one tuple handed to a parent operator
    OUTPUT = "output"                  # one tuple emitted at the query root
    EDDY_VISIT = "eddy_visit"          # one tuple (re)entering the eddy router
    DEDUP_CHECK = "dedup_check"        # one duplicate-elimination lookup
    STATE_COPY = "state_copy"          # one entry copied between plans
    COMPLETION_PROBE = "completion_probe"  # one probe during JISC completion
    PURGE_CHECK = "purge_check"        # one old-entry check (Parallel Track)
    QUEUE_OP = "queue_op"              # one enqueue/dequeue at an input queue
    PROMOTE = "promote"                # one STAIR promote operation
    DEMOTE = "demote"                  # one STAIR demote operation

    ALL = (
        HASH_PROBE,
        HASH_INSERT,
        STATE_REMOVE,
        NL_COMPARE,
        TUPLE_EMIT,
        OUTPUT,
        EDDY_VISIT,
        DEDUP_CHECK,
        STATE_COPY,
        COMPLETION_PROBE,
        PURGE_CHECK,
        QUEUE_OP,
        PROMOTE,
        DEMOTE,
    )


_INSERT, _EMIT, _PROBE = Counter.HASH_INSERT, Counter.TUPLE_EMIT, Counter.HASH_PROBE
_REMOVE, _OUTPUT, _COMPLETION = Counter.STATE_REMOVE, Counter.OUTPUT, Counter.COMPLETION_PROBE
#: The ops of the scan / hash-join / sink pipeline, in ``count_pipeline``'s argument order.
PIPELINE_OPS = (_INSERT, _EMIT, _PROBE, _REMOVE, _OUTPUT)


class Metrics:
    """Mutable bag of operation counters with an optional virtual clock.

    ``clock`` (a :class:`~repro.engine.cost.VirtualClock`) is advanced on
    every counted operation; pass ``None`` to count without timing.

    ``tracer`` (see :mod:`repro.obs.tracer`) is where instrumentation sites
    find the attached observer; the default is the shared no-op
    :data:`~repro.obs.tracer.NULL_TRACER`.  Counting never calls it: a tracer
    attributes operations to phases by reading ``counts`` at phase
    boundaries, so ``Metrics`` stays the only writer of ``counts`` and
    ``clock.now`` and runs the same code observed or not.
    """

    __slots__ = ("counts", "clock", "tracer")

    def __init__(
        self,
        clock: Optional["VirtualClock"] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.counts: Dict[str, int] = {}
        self.clock = clock
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.attach(self)  # a tracer given here follows this Metrics from its first count

    def count(self, op: str) -> None:
        """Record one occurrence of ``op``.

        The clock advance is inlined (``tick(op, 1)`` unrolled) — this is
        the single most-called function in the engine and the extra method
        dispatch plus ``* 1`` is measurable.  ``x * 1 == x`` exactly in
        IEEE-754, so the fused form is bit-identical to ticking.
        """
        counts = self.counts
        try:
            counts[op] += 1
        except KeyError:
            counts[op] = 1
        clock = self.clock
        if clock is not None:
            try:
                clock.now += clock.costs[op]
            except KeyError:
                clock.now += clock.default

    def count_n(self, op: str, n: int) -> None:
        """Record ``n`` occurrences of ``op`` at once."""
        if n <= 0:
            return
        counts = self.counts
        try:
            counts[op] += n
        except KeyError:
            counts[op] = n
        clock = self.clock
        if clock is not None:
            try:
                clock.now += clock.costs[op] * n
            except KeyError:
                clock.now += clock.default * n

    def count_pipeline(
        self, now: float, inserts: int, emits: int, probes: int, removes: int, outputs: int,
        completions: int = 0,
    ) -> int:  # fmt: skip
        """Record the pipeline ops a fused kernel tallied (``operators.fused``) and
        the completion probes of a bound completion (``core.bound``).

        ``now`` is the kernel's copy of the clock, advanced by each op's cost
        *in execution order*: the sink stamps outputs mid-cascade and float
        addition does not reassociate, so the copy replaces ``clock.now``
        instead of being re-derived from the tallies.  Nothing may have read
        or advanced the clock since the kernel loaded its copy.  Returns 0,
        what every tally restarts from.
        """
        counts = self.counts
        if inserts:
            try:
                counts[_INSERT] += inserts
            except KeyError:
                counts[_INSERT] = inserts
        if emits:
            try:
                counts[_EMIT] += emits
            except KeyError:
                counts[_EMIT] = emits
        if probes:
            try:
                counts[_PROBE] += probes
            except KeyError:
                counts[_PROBE] = probes
        if removes:
            try:
                counts[_REMOVE] += removes
            except KeyError:
                counts[_REMOVE] = removes
        if outputs:
            try:
                counts[_OUTPUT] += outputs
            except KeyError:
                counts[_OUTPUT] = outputs
        if completions:
            try:
                counts[_COMPLETION] += completions
            except KeyError:
                counts[_COMPLETION] = completions
        if self.clock is not None:
            self.clock.now = now
        return 0

    def get(self, op: str) -> int:
        return self.counts.get(op, 0)

    def total(self) -> int:
        """Total operations of all kinds."""
        return sum(self.counts.values())

    def snapshot(self) -> Dict[str, int]:
        """Copy of the current counters."""
        return dict(self.counts)

    def diff(self, earlier: Dict[str, int]) -> Dict[str, int]:
        """Counters accumulated since ``earlier`` (a prior ``snapshot()``)."""
        out: Dict[str, int] = {}
        for op, v in self.counts.items():
            delta = v - earlier.get(op, 0)
            if delta:
                out[op] = delta
        return out

    def reset(self) -> None:
        self.counts.clear()
        if self.clock is not None:
            self.clock.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        body = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"Metrics({body})"


def work_units(counts: Dict[str, int], cost_model: Optional["CostModel"] = None) -> float:
    """Convert a counter snapshot into virtual time units.

    With no cost model, every operation costs 1.
    """
    if cost_model is None:
        return float(sum(counts.values()))
    return sum(cost_model.cost_of(op) * n for op, n in counts.items())
