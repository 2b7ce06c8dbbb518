"""Join operators: symmetric hash join and nested-loops join (Section 2.1).

Both are *symmetric* in the streaming sense: a tuple arriving from either
child probes the opposite child's state, and every produced join result is
added to the operator's own state (its materialized output relation) before
being pushed to the parent.

``completion_hook`` is the seam through which JISC (Section 4) plugs in:
when set, it is invoked before a probe whenever the opposite state is
incomplete, giving the JISC controller the chance to complete the missing
entries for the probing tuple's join-attribute value (Procedure 1).  Plain
pipelines leave the hook unset; they never hold incomplete states anyway.
"""

from __future__ import annotations

from typing import Any, Callable, Collection, List, Optional, Tuple

from repro.engine.metrics import Counter, Metrics
from repro.operators.base import BinaryOperator, Operator
from repro.operators.state import Entry, HashState
from repro.streams.tuples import AnyTuple, CompositeTuple

#: completion hook signature: (probing_tuple, join_node, opposite_child) -> None
CompletionHook = Callable[[object, "JoinOperator", Operator], None]

#: theta predicate over two join-attribute values
Predicate = Callable[[Any, Any], bool]


class JoinOperator(BinaryOperator):
    """Shared logic of the two join flavours."""

    kind = "join"

    def __init__(self, left: Operator, right: Operator, metrics: Metrics):
        super().__init__(left, right, metrics)
        self.completion_hook: Optional[CompletionHook] = None

    def matches_in(self, state: HashState, key: Any) -> Collection[Entry]:
        """All entries of ``state`` joining a tuple with join value ``key``.

        Subclasses define the access path (hash bucket vs. full scan) and
        count the corresponding operations; JISC's state-completion routines
        use the same access path, so completion under nested-loops joins is
        as expensive as the paper's Figure 10(b) implies.

        The result may be a live zero-copy view of ``state``
        (:meth:`~repro.operators.state.HashState.get_view`): callers may
        re-iterate it but must not mutate *that* state for ``key`` while
        holding it.  The join paths below only insert into their own (or an
        ancestor's) state, never back into the probed child — completion of
        the probed state runs *before* the probe, and duplicate inserts
        don't touch buckets — so every use here is safe.
        """
        raise NotImplementedError

    def process(self, tup: AnyTuple, child: Optional[Operator]) -> None:
        if child is None:
            raise ValueError("join operators receive tuples from children only")
        opposite = self.opposite(child)
        if not opposite.state.status.complete and self.completion_hook is not None:
            self.completion_hook(tup, self, opposite)
        matches = self.matches_in(opposite.state, tup.key)
        opposite.probes += 1
        if matches:
            opposite.hits += 1
        if matches:
            of = CompositeTuple.of
            add = self.state.add
            count = self.metrics.count
            emit = self.emit
            for match in matches:
                result = of(tup, match)
                if add(result):
                    count(Counter.HASH_INSERT)
                    emit(result)
        # Own-path completion: Section 4.4's window-slide optimization relies
        # on attempted tuples having "complete state entries at all the
        # operators" — which only holds if an arrival also completes its own
        # operator's state for its value, not just the states it probes.
        # Runs after the probe loop so the fresh results above were emitted
        # (completion inserts silently).  See DESIGN.md, "deviations".
        if not self.state.status.complete and self.completion_hook is not None:
            self.completion_hook(tup, self, self)

    def build_state_full(self) -> None:
        """Eagerly recompute this operator's entire state from its children.

        This is the Moving State Strategy's migration step (Section 3.2):
        for every entry of the left child's state, fetch the matching right
        entries and materialize the results.  Under symmetric hash joins
        this costs one probe per left entry; under nested-loops joins each
        left entry scans the whole right state — the quadratic blow-up
        behind Figure 10(b).
        """
        for entry in self.left.state.entries():
            for match in self.matches_in(self.right.state, entry.key):
                result = CompositeTuple.of(entry, match)
                if self.state.add(result):
                    self.metrics.count(Counter.HASH_INSERT)

    def build_state_for_key(
        self, key: Any, exclude_part: Optional[Tuple[str, int]] = None
    ) -> None:
        """Compute this operator's state entries for ``key`` from its children.

        Used by JISC state completion (Procedures 2 and 3): both children's
        states are assumed complete for ``key``; the cross product of their
        matching entries is inserted (idempotently) into this state without
        being emitted — completion rebuilds state, it does not produce new
        results (those appear when the probing tuple joins afterwards).

        ``exclude_part`` is the base tuple currently being processed (if
        any): every result containing it belongs to the *live cascade*,
        which will derive and emit it itself.  Pre-adding such a result here
        would make the cascade's ``state.add`` a duplicate and silently
        swallow the emission — a missed output (see
        tests/test_completion_cascade_interference.py).
        """
        left_matches = self.matches_in(self.left.state, key)
        right_matches = self.matches_in(self.right.state, key)
        self.metrics.count(Counter.COMPLETION_PROBE)
        for l in left_matches:
            if exclude_part is not None and l.has_part(exclude_part):
                continue
            for r in right_matches:
                if exclude_part is not None and r.has_part(exclude_part):
                    continue
                result = CompositeTuple.of(l, r)
                if self.state.add(result):
                    self.metrics.count(Counter.HASH_INSERT)


class SymmetricHashJoin(JoinOperator):
    """Equi-join via symmetric hashing on the shared join attribute."""

    def matches_in(self, state: HashState, key: Any) -> Collection[Entry]:
        self.metrics.count(Counter.HASH_PROBE)
        return state.get_view(key)


class NestedLoopsJoin(JoinOperator):
    """General theta join evaluated by scanning the opposite state.

    ``predicate(probe_key, entry_key)`` defaults to equality; any predicate
    over the two join-attribute values is supported for plain pipelines.
    JISC's per-value state completion additionally assumes the predicate is
    reflexive on equal keys (true for equality, the paper's setting).
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        metrics: Metrics,
        predicate: Optional[Predicate] = None,
    ):
        super().__init__(left, right, metrics)
        self.predicate = predicate or (lambda a, b: a == b)

    def matches_in(self, state: HashState, key: Any) -> Collection[Entry]:
        out: List[Entry] = []
        n = 0
        for entry in state.entries():
            n += 1
            if self.predicate(key, entry.key):
                out.append(entry)
        self.metrics.count_n(Counter.NL_COMPARE, max(n, 1))
        return out
