"""Process-local lineage interning.

Lineage tuples — sorted ``(stream, seq)`` pairs — are the engine's
self-describing tuple identity: outputs, oracle comparison, traces and
checkpoints all carry them.  The interner assigns each distinct lineage a
dense integer id (a *lid*) exactly once, for callers that want one small
int per lineage across states and plans.

**Nothing on the arrival path interns.**  Operator state and the Parallel
Track dedup memo identify entries by their flat seq tuple ``ident``
(:mod:`repro.operators.state`), which needs no table at all.  The module
and the tuples' ``lineage_id`` properties stay because
``benchmarks/wallclock`` resolves ``LineageInterner.id_of`` as a span point
and reads ``len(INTERNER)``; removing them is a benchmark change
(ROADMAP item 4).

Scope and guarantees:

* Ids are **process-local and ephemeral**.  They are never serialized —
  checkpoints and traces carry the lineage tuples themselves — and they
  are not stable across processes.  Within one process they are assigned
  in first-interning order, so a deterministic execution yields
  deterministic ids.
* The mapping is a bijection: equal lineages share one id and distinct
  lineages never collide, so ``lid_a == lid_b`` iff ``lineage_a ==
  lineage_b``.
* The table only grows; there is no ``clear()``.  It holds one small
  tuple per *distinct* lineage ever interned.

This module must stay import-light (no engine imports): it sits below
:mod:`repro.streams.tuples` in the dependency order.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Canonical tuple identity (mirrors ``repro.streams.tuples.Lineage``;
#: redefined here to keep this module dependency-free).
Lineage = Tuple[Tuple[str, int], ...]


class LineageInterner:
    """Bijection between lineage tuples and dense integer ids."""

    __slots__ = ("_ids", "_lineages")

    def __init__(self) -> None:
        self._ids: Dict[Lineage, int] = {}
        self._lineages: List[Lineage] = []

    def id_of(self, lineage: Lineage) -> int:
        """The id for ``lineage``, assigning the next dense id on first use."""
        lid = self._ids.get(lineage)
        if lid is None:
            lid = len(self._lineages)
            self._ids[lineage] = lid
            self._lineages.append(lineage)
        return lid

    def lineage_of(self, lid: int) -> Lineage:
        """Inverse mapping; raises ``IndexError`` for ids never handed out."""
        return self._lineages[lid]

    def __len__(self) -> int:
        return len(self._lineages)

    def __contains__(self, lineage: Lineage) -> bool:
        return lineage in self._ids


#: The shared process-wide intern table.  All engine structures use this
#: single instance so lids are comparable across states, plans and
#: strategies within one process.
INTERNER = LineageInterner()


def intern_lineage(lineage: Lineage) -> int:
    """Shorthand for ``INTERNER.id_of(lineage)``."""
    return INTERNER.id_of(lineage)
