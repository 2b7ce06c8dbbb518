"""Shared helpers for the test suite."""

from __future__ import annotations

from collections import Counter as MultiSet
from contextlib import contextmanager
from typing import Iterable, Iterator, List, Sequence

import pytest

from repro.engine.cost import VirtualClock
from repro.engine.executor import run_events
from repro.engine.metrics import Metrics
from repro.migration.base import StaticPlanExecutor
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple


@contextmanager
def reference_path() -> Iterator[None]:
    """Inside, no leaf compiles a kernel: ``PhysicalPlan.feed`` and
    ``StreamScan.evict`` find ``scan.fused is None`` and run the operators.
    The one way to the generic side — a test fixture, not a product switch
    (no observer, option or flag selects it)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.plans.build.compile_plan", lambda plan: None)
        yield


def make_tuples(spec: Sequence[tuple]) -> List[StreamTuple]:
    """Build tuples from ``(stream, key)`` pairs with sequential seqs."""
    return [StreamTuple(stream, seq, key) for seq, (stream, key) in enumerate(spec)]


def output_multiset(strategy) -> MultiSet:
    """Output log as a multiset of lineages (order-insensitive compare)."""
    return MultiSet(strategy.output_lineages())


def assert_same_output(reference, strategy) -> None:
    """Assert two strategies produced the same output multiset."""
    ref = output_multiset(reference)
    got = output_multiset(strategy)
    if ref != got:
        missing = ref - got
        spurious = got - ref
        raise AssertionError(
            f"{getattr(strategy, 'name', strategy)} output differs from "
            f"{getattr(reference, 'name', reference)}: "
            f"missing={dict(list(missing.items())[:5])} "
            f"spurious={dict(list(spurious.items())[:5])} "
            f"(|ref|={sum(ref.values())}, |got|={sum(got.values())})"
        )


def oracle_for(schema: Schema, order, events: Iterable) -> StaticPlanExecutor:
    """Run the no-transition reference executor over ``events``."""
    ref = StaticPlanExecutor(schema, order)
    run_events(ref, events)
    return ref
