"""Operator framework.

Operators form a binary tree and are push-based (Section 2.1): each operator
sends its output tuples to its parent.  Every operator owns a
:class:`~repro.operators.state.HashState` holding its materialized output
relation over the current windows — the paper's "join-state" for joins, the
window contents for stream scans.

Two signals flow upward through the tree:

* ``process`` — a new (possibly composite) tuple produced by a child;
* ``remove`` — a base tuple expired from its stream's window; its
  state entries must be traced out of every ancestor state (Section 2.1),
  with the JISC refinement of Section 4.2 (removal keeps propagating through
  *incomplete* states even when nothing matched).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.engine.metrics import Counter, Metrics
from repro.operators.state import HashState
from repro.streams.tuples import AnyTuple, CompositeTuple, StreamTuple

Part = Tuple[str, int]


class Operator:
    """Base class for all operators in a query execution plan."""

    kind = "abstract"

    def __init__(self, metrics: Metrics):
        self.metrics = metrics
        self.parent: Optional[Operator] = None
        self.state = HashState(complete=True)
        # When set, emissions are enqueued on the scheduler's FIFO instead
        # of being pushed synchronously — the explicit input-queue model of
        # Section 2.1 / 4.1 (see ``engine.queued``).
        self.scheduler = None
        # Probe tallies, bumped by the *parent* join whenever this
        # operator's state is probed.  Two plain int adds per probe —
        # cheap enough to keep always-on, which lets the telemetry hub
        # derive selectivities by polling deltas instead of intercepting
        # every probe (repro.telemetry.hub).
        self.probes = 0
        self.hits = 0
        self._label: Optional[str] = None

    # -- plan structure ------------------------------------------------------------

    @property
    def membership(self) -> frozenset:
        """Stream names whose tuples this operator's state is built from.

        Together with ``kind`` this identifies a state across plans:
        Definition 1 declares a new-plan state *complete* iff an old-plan
        state with the same identity exists (see ``plans.transitions``).
        """
        raise NotImplementedError

    @property
    def identity(self) -> Tuple[str, frozenset]:
        return (self.kind, self.membership)

    @property
    def label(self) -> str:
        """The membership, sorted ("S0S1S2"; a scan's is its stream): what
        traces, telemetry series and ``state_sizes()`` call this operator.
        Worked out once — the streams below an operator never change."""
        if self._label is None:
            self._label = "".join(sorted(self.membership))
        return self._label

    def children(self) -> Tuple["Operator", ...]:
        return ()

    def iter_subtree(self) -> Iterable["Operator"]:
        """This operator and all descendants, post-order."""
        for child in self.children():
            yield from child.iter_subtree()
        yield self

    # -- data flow -----------------------------------------------------------------

    def process(self, tup: AnyTuple, child: Optional["Operator"]) -> None:
        """Handle a tuple pushed by ``child`` (``None`` for external input)."""
        raise NotImplementedError

    def remove(self, part: Part, child: "Operator", fresh: bool = True) -> None:
        """Handle the expiry of base tuple ``part`` announced by ``child``.

        Default behaviour (all binary/unary stateful operators): drop every
        state entry containing ``part``; keep propagating if something was
        dropped, or if this state is incomplete and the expired tuple is
        fresh (Sections 4.2 and 4.4).
        """
        self.metrics.count(Counter.HASH_PROBE)
        removed = self.state.remove_with_part(part)
        self.metrics.count_n(Counter.STATE_REMOVE, len(removed))
        propagate = bool(removed) or (not self.state.status.complete and fresh)
        if propagate:
            self.emit_removal(part, fresh)

    # -- upward emission -----------------------------------------------------------

    def emit(self, tup: AnyTuple) -> None:
        """Push an output tuple to the parent operator."""
        self.metrics.count(Counter.TUPLE_EMIT)
        if self.parent is None:
            return
        if self.scheduler is not None:
            self.scheduler.enqueue_process(self.parent, tup, self)
        else:
            self.parent.process(tup, self)

    def emit_removal(self, part: Part, fresh: bool = True) -> None:
        # Removals propagate synchronously even when data tuples are queued:
        # a queued removal can lose the race against a probe into its
        # subtree from another branch (per-edge FIFO only orders messages
        # along one path), letting an arrival join with expired state.  Real
        # engines serialize expirations as punctuations; here they simply
        # run to completion before anything else proceeds.
        if self.parent is not None:
            self.parent.remove(part, self, fresh)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.label})"


class UnaryOperator(Operator):
    """An operator with a single child.

    Unary operators have no migration issues: their state is always complete
    (Section 4.7).
    """

    def __init__(self, child: Operator, metrics: Metrics):
        super().__init__(metrics)
        self.child = child
        child.parent = self

    @property
    def membership(self) -> frozenset:
        return self.child.membership

    def children(self) -> Tuple[Operator, ...]:
        return (self.child,)


class BinaryOperator(Operator):
    """An operator with left and right children (joins, set-difference)."""

    def __init__(self, left: Operator, right: Operator, metrics: Metrics):
        super().__init__(metrics)
        self.left = left
        self.right = right
        left.parent = self
        right.parent = self
        self._membership = left.membership | right.membership
        if left.membership & right.membership:
            raise ValueError(
                "children of a binary operator must cover disjoint streams: "
                f"{sorted(left.membership)} vs {sorted(right.membership)}"
            )

    @property
    def membership(self) -> frozenset:
        return self._membership

    def children(self) -> Tuple[Operator, ...]:
        return (self.left, self.right)

    def opposite(self, child: Operator) -> Operator:
        """The sibling of ``child`` under this operator."""
        if child is self.left:
            return self.right
        if child is self.right:
            return self.left
        raise ValueError(f"{child!r} is not a child of {self!r}")
