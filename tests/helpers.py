"""Shared helpers for the test suite."""

from __future__ import annotations

import __future__
import inspect
import sys
import textwrap
from collections import Counter as MultiSet
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, List, Optional, Sequence

import pytest

from repro.engine.cost import VirtualClock
from repro.engine.executor import run_events
from repro.engine.metrics import Metrics
from repro.migration.base import StaticPlanExecutor
from repro.obs.tracer import TRIGGER_EVALUATED, TRIGGER_FIRED
from repro.optimizer.cost import CostSnapshot
from repro.optimizer.triggers import TriggerDecision
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


def plant(monkeypatch: pytest.MonkeyPatch, owner: Any, name: str, old: str, new: str) -> None:
    """Plant a fault for one test: ``owner.name`` (a method, or a module's
    function) becomes a copy of its source with the one line ``old``
    rewritten to ``new`` — the edit a mutation check makes on a copy of the
    tree, compiled in the defining module's namespace."""
    function = getattr(owner, name)
    source = inspect.getsource(function)
    if source.count(old) != 1:
        raise AssertionError(f"{name}: {old!r} is not one line of its source")
    namespace = dict(vars(sys.modules[function.__module__]))
    source = textwrap.dedent(source.replace(old, new))
    flags = __future__.annotations.compiler_flag
    code = compile(source, inspect.getfile(function), "exec", flags, True)
    exec(code, namespace)
    monkeypatch.setattr(owner, name, namespace[name])


def make_tuples(spec: Sequence[tuple]) -> List[StreamTuple]:
    """Build tuples from ``(stream, key)`` pairs with sequential seqs."""
    return [StreamTuple(stream, seq, key) for seq, (stream, key) in enumerate(spec)]


def output_multiset(strategy) -> MultiSet:
    """Output log as a multiset of lineages (order-insensitive compare)."""
    return MultiSet(strategy.output_lineages())


def assert_same_output(reference, strategy, expected: Optional[MultiSet] = None) -> None:
    """Assert two strategies produced the same output multiset; ``expected`` is
    the reference's, when one caller compares several strategies to it."""
    ref = output_multiset(reference) if expected is None else expected
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


class RotatingTrigger:
    """A trigger policy that fires on every ``period``-th evaluation, to the
    order rotated by one: an adaptive loop that migrates at arrivals a test
    knows, whatever the costs say."""

    name = "rotating"

    def __init__(self, period: int = 2):
        self.period = period
        self.evaluations = 0

    def decide(self, snapshot: CostSnapshot, at: int) -> TriggerDecision:
        self.evaluations += 1
        order = snapshot.order
        if self.evaluations % self.period:
            return TriggerDecision(TRIGGER_EVALUATED, "waiting", at, order, order)
        return TriggerDecision(TRIGGER_FIRED, "rotating", at, order, order[1:] + order[:1])

    def state_to_json(self) -> dict:
        return {"evaluations": self.evaluations}

    def restore_state(self, state: dict) -> None:
        self.evaluations = state.get("evaluations", 0)
