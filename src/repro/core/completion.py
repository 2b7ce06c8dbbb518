"""State completion (Section 4, Procedures 2 and 3).

Completion rebuilds the entries of incomplete states for one join-attribute
value, bottom-up from the highest complete states in the subtree:

* :func:`complete_value_recursive` — Procedure 2, for arbitrary (bushy)
  trees: recursively ensure both children are complete for the value, then
  build this node's entries for it.

* :func:`complete_value_left_deep` — Procedure 3, the left-deep
  specialization: in a left-deep plan every right child is a scan (always
  complete), so the recursion degenerates into a walk down the left spine
  to the highest complete state, then an upward pass — no recursion needed.

The fused kernels call Procedure 3 as :mod:`repro.core.bound` binds it, once
per transition, to a left-deep plan of symmetric hash joins; the two
functions here stay the definition, the tests' oracle, and the path of
every other plan.

All of them insert entries into states **without emitting** them:
completion rebuilds state, it does not produce results (the probing tuple
joins against the completed state immediately afterwards — Procedure 1).

A deliberate deviation from the paper's Procedure 1 pseudo-code is applied
by the controller calling these routines: completion is triggered whenever
a fresh tuple probes an incomplete state whose value is still pending,
*even if the probe would find (partial) matches*.  The paper's pseudo-code
checks ``contains`` first, which misses results when an incomplete state
holds partial entries for the value (inserted by post-transition arrivals
within its subtree) while pre-transition combinations are still missing.
The correctness proof in the paper's appendix implicitly assumes per-value
all-or-nothing state contents; triggering on pending-ness restores that
invariant.  See DESIGN.md ("deviations").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List

from repro.operators.base import BinaryOperator, Operator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.controller import JISCController


def complete_value_recursive(
    controller: "JISCController", op: Operator, key: Any
) -> None:
    """Procedure 2: ensure ``op``'s state is complete for ``key`` (bushy)."""
    if not isinstance(op, BinaryOperator):
        return  # scans and unary operators are always complete
    if not controller.needs_completion(op, key):
        return
    complete_value_recursive(controller, op.left, key)
    complete_value_recursive(controller, op.right, key)
    op.build_state_for_key(key, exclude_part=controller.current_part)
    controller.settle(op, key)


def complete_value_left_deep(
    controller: "JISCController", op: Operator, key: Any
) -> None:
    """Procedure 3: iterative completion along the left spine.

    ``op`` is the (incomplete) operator whose state needs the entries for
    ``key``.  Walk down left children collecting the incomplete stretch,
    then rebuild upwards starting just above the highest complete state.
    """
    pending_nodes: List[BinaryOperator] = []
    cursor = op
    while isinstance(cursor, BinaryOperator) and controller.needs_completion(cursor, key):
        pending_nodes.append(cursor)
        cursor = cursor.left
    # ``cursor`` is now the highest operator with a complete (or settled-
    # for-key) state in the left branch; scans terminate the walk at the
    # latest, as leaf states are always complete (Section 4).
    for node in reversed(pending_nodes):
        node.build_state_for_key(key, exclude_part=controller.current_part)
        controller.settle(node, key)
