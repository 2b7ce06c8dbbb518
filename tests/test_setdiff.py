"""Unit tests for the streaming set-difference operator (Section 4.7)."""

import ast
import os
import subprocess
import sys

import pytest

from repro.engine.metrics import Counter, Metrics
from repro.engine.queued import QueueScheduler
from repro.operators.joins import SymmetricHashJoin
from repro.operators.scan import StreamScan
from repro.operators.setdiff import SetDifference
from repro.operators.sink import OutputSink
from repro.streams.tuples import StreamTuple


def build_diff(metrics, window=10):
    a = StreamScan("A", window, metrics)
    b = StreamScan("B", window, metrics)
    d = SetDifference(a, b, metrics)
    sink = OutputSink(metrics)
    sink.attach(d)
    return a, b, d, sink


def test_unmatched_outer_tuple_passes(metrics):
    a, b, d, sink = build_diff(metrics)
    t = StreamTuple("A", 0, 1)
    a.insert(t)
    assert sink.outputs == [t]
    assert t in d.state


def test_matched_outer_tuple_is_suppressed(metrics):
    a, b, d, sink = build_diff(metrics)
    b.insert(StreamTuple("B", 0, 1))
    a.insert(StreamTuple("A", 1, 1))
    assert sink.outputs == []
    assert len(d.state) == 0


def test_inner_tuple_retracts_existing_outer(metrics):
    a, b, d, sink = build_diff(metrics)
    t = StreamTuple("A", 0, 1)
    a.insert(t)
    assert sink.outputs == [t]
    b.insert(StreamTuple("B", 1, 1))
    assert len(d.state) == 0
    assert sink.retractions == [("A", 0)]


def test_inner_expiry_releases_suppressed_outer(metrics):
    a, b, d, sink = build_diff(metrics, window=1)
    b.insert(StreamTuple("B", 0, 1))
    a.insert(StreamTuple("A", 1, 1))  # suppressed
    assert sink.outputs == []
    b.insert(StreamTuple("B", 2, 9))  # evicts the key-1 B tuple
    assert len(sink.outputs) == 1
    assert sink.outputs[0].lineage == (("A", 1),)


def test_released_outer_waits_in_the_queue_until_drained(metrics):
    """Under the buffered model (Section 4.1) a released outer is one more
    hop in the scheduler's FIFO, not a push past it."""
    a, b, d, sink = build_diff(metrics, window=1)
    scheduler = QueueScheduler(metrics)
    for op in (a, b, d):
        op.scheduler = scheduler
    b.insert(StreamTuple("B", 0, 1))
    a.insert(StreamTuple("A", 1, 1))
    scheduler.drain()  # A#1 reaches the difference and is suppressed
    b.insert(StreamTuple("B", 2, 9))  # evicts B#0: releases A#1
    assert sink.outputs == []
    scheduler.drain()
    assert [o.lineage for o in sink.outputs] == [(("A", 1),)]
    assert metrics.get(Counter.QUEUE_OP) == 8


def test_multiple_suppressors_require_all_to_expire(metrics):
    a, b, d, sink = build_diff(metrics, window=2)
    b.insert(StreamTuple("B", 0, 1))
    b.insert(StreamTuple("B", 1, 1))
    a.insert(StreamTuple("A", 2, 1))  # suppressed by two B tuples
    b.insert(StreamTuple("B", 3, 9))  # evicts first suppressor
    assert sink.outputs == []
    b.insert(StreamTuple("B", 4, 9))  # evicts second suppressor
    assert len(sink.outputs) == 1


def test_late_inner_also_suppresses_absent_outer_once(metrics):
    a, b, d, sink = build_diff(metrics, window=3)
    a.insert(StreamTuple("A", 0, 1))
    b.insert(StreamTuple("B", 1, 1))  # retracts A#0
    b.insert(StreamTuple("B", 2, 1))  # second suppressor for A#0
    assert len(d._suppress_count) == 1
    assert list(d._suppress_count.values()) == [2]


def test_outer_expiry_while_suppressed_forgets_it(metrics):
    a, b, d, sink = build_diff(metrics, window=1)
    b.insert(StreamTuple("B", 0, 1))
    a.insert(StreamTuple("A", 1, 1))  # suppressed
    a.insert(StreamTuple("A", 2, 5))  # evicts A#1 from its window
    b.insert(StreamTuple("B", 3, 9))  # releases key-1 suppressions
    # A#1 is out of its own window: it must NOT reappear
    assert all(o.lineage != (("A", 1),) for o in sink.outputs)


def test_outer_expiry_advances_the_clock_by_what_it_counts(metrics):
    a, b, d, sink = build_diff(metrics, window=1)
    a.insert(StreamTuple("A", 0, 1))
    a.insert(StreamTuple("A", 1, 2))  # evicts A#0 from the difference's state
    assert len(d.state) == 1
    cost_of = metrics.clock.cost_model.cost_of
    spent = sum(cost_of(op) * n for op, n in metrics.counts.items())
    assert metrics.clock.now == pytest.approx(spent)


def test_outer_expiry_in_state_retracts_downstream(metrics):
    a, b, d, sink = build_diff(metrics, window=1)
    a.insert(StreamTuple("A", 0, 1))
    assert len(sink.outputs) == 1
    a.insert(StreamTuple("A", 1, 2))  # evicts A#0 which was in the diff state
    assert ("A", 0) in sink.retractions


def test_requires_scan_inner(metrics):
    a = StreamScan("A", 5, metrics)
    b = StreamScan("B", 5, metrics)
    c = StreamScan("C", 5, metrics)
    join = SymmetricHashJoin(b, c, metrics)
    with pytest.raises(TypeError):
        SetDifference(a, join, metrics)


def test_chain_of_differences(metrics):
    # ((A - B) - C): a survives only if unmatched in both B and C.
    a = StreamScan("A", 10, metrics)
    b = StreamScan("B", 10, metrics)
    c = StreamScan("C", 10, metrics)
    ab = SetDifference(a, b, metrics)
    abc = SetDifference(ab, c, metrics)
    sink = OutputSink(metrics)
    sink.attach(abc)

    c.insert(StreamTuple("C", 0, 2))
    a.insert(StreamTuple("A", 1, 1))  # unmatched anywhere -> emitted
    a.insert(StreamTuple("A", 2, 2))  # matched in C -> suppressed at abc
    b.insert(StreamTuple("B", 3, 1))  # retracts A#1
    assert [o.lineage for o in sink.outputs] == [(("A", 1),)]
    assert ("A", 1) in sink.retractions


def test_setdiff_identity_is_membership_based(metrics):
    a, b, d, _ = build_diff(metrics)
    assert d.identity == ("setdiff", frozenset({"A", "B"}))


def test_build_state_for_key_registers_suppression(metrics):
    a, b, d, sink = build_diff(metrics)
    # Bypass normal flow: fill children, then run the completion primitive.
    a.window.push(StreamTuple("A", 0, 1))
    a.state.add(StreamTuple("A", 0, 1))
    b.window.push(StreamTuple("B", 1, 1))
    b.state.add(StreamTuple("B", 1, 1))
    d.state.status.mark_incomplete({1})
    d.build_state_for_key(1)
    assert len(d.state) == 0  # suppressed, not in the difference
    assert d._suppress_count == {("A", 0): 1}
    assert sink.outputs == []  # completion never emits


def test_build_state_for_key_adds_unmatched(metrics):
    a, b, d, sink = build_diff(metrics)
    a.window.push(StreamTuple("A", 0, 3))
    a.state.add(StreamTuple("A", 0, 3))
    d.state.status.mark_incomplete({3})
    d.build_state_for_key(3)
    assert len(d.state) == 1
    assert sink.outputs == []  # state rebuilt silently


def _run_python(args, hash_seed="0"):
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
    ).stdout


def test_part_of_rejects_a_composite_under_python_O():
    """The base-tuples-only guard is a raise, so ``python -O`` keeps it."""
    code = (
        "from repro.operators.setdiff import SetDifference\n"
        "from repro.streams.tuples import CompositeTuple, StreamTuple\n"
        "c = CompositeTuple.of(StreamTuple('A', 0, 1), StreamTuple('B', 0, 1))\n"
        "try:\n"
        "    SetDifference._part_of(c)\n"
        "except ValueError:\n"
        "    print('raised')\n"
    )
    assert _run_python(["-O", "-c", code]).strip() == "raised"


_CHAIN_SCRIPT = """
import random
from repro.migration.base import StaticPlanExecutor
from repro.operators.setdiff import SetDifference
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple

names = ("A", "B", "C")
engine = StaticPlanExecutor(Schema.uniform(names, 30), names, op_factory=SetDifference)
rng = random.Random(7)
seqs = dict.fromkeys(names, 0)
for _ in range(3000):
    stream = rng.choice(names)
    engine.process(StreamTuple(stream, seqs[stream], rng.randrange(12)))
    seqs[stream] += 1
print(engine.output_lineages())
"""


def test_chain_emits_released_outers_in_an_order_free_of_the_hash_seed():
    """``A - B - C`` with reappearance on: one inner expiry releases a set
    of outers, and they re-enter state and output in the same order under
    every ``PYTHONHASHSEED``."""
    orders = {_run_python(["-c", _CHAIN_SCRIPT], seed) for seed in ("0", "1", "4242")}
    assert len(orders) == 1
    assert len(ast.literal_eval(orders.pop())) == 37
