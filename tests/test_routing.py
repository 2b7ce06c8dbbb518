"""Eddy routing policies: fixed order and adaptive lottery scheduling."""

import random

import pytest

from tests.helpers import assert_same_output, make_tuples
from repro.eddy.cacq import CACQExecutor
from repro.eddy.routing import FixedOrderRouting, LotteryRouting
from repro.engine.metrics import Counter
from repro.migration.base import StaticPlanExecutor
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple


@pytest.fixture
def schema():
    return Schema.uniform(["R", "S", "T"], window=20)


ORDER = ("R", "S", "T")


def feed(strategy, tuples):
    for tup in tuples:
        strategy.process(tup)


def test_fixed_order_follows_plan_order():
    policy = FixedOrderRouting(("A", "B", "C", "D"))
    assert policy.order_for("B", ["D", "A", "C"]) == ("A", "C", "D")


def test_fixed_order_updates_on_transition():
    policy = FixedOrderRouting(("A", "B", "C"))
    policy.on_transition(("C", "B", "A"))
    assert policy.order_for("B", ["A", "C"]) == ("C", "A")


def test_lottery_order_covers_all_candidates():
    policy = LotteryRouting(("A", "B", "C", "D"), seed=1)
    order = policy.order_for("A", ["B", "C", "D"])
    assert sorted(order) == ["B", "C", "D"]


def test_lottery_orders_are_fixed_by_its_seed_alone():
    """The lottery draws from its own ``random.Random(seed)``: the state of
    the module-level ``random`` does not move its orders."""

    def orders(global_seed):
        random.seed(global_seed)
        policy = LotteryRouting(("A", "B", "C", "D"), seed=5)
        return [policy.order_for("A", ["B", "C", "D"]) for _ in range(200)]

    saved = random.getstate()
    try:
        assert orders(1) == orders(2)
    finally:
        random.setstate(saved)


def test_lottery_rewards_selective_streams():
    policy = LotteryRouting(("A", "B"), seed=1)
    for _ in range(50):
        policy.observe("A", matched=False)  # A kills tuples: selective
        policy.observe("B", matched=True)
    assert policy.tickets["A"] > policy.tickets["B"]
    # A is drawn first in the vast majority of lotteries
    firsts = sum(
        1 for _ in range(200) if policy.order_for("X", ["A", "B"])[0] == "A"
    )
    assert firsts > 150


def test_lottery_tickets_clamped():
    policy = LotteryRouting(("A",), max_tickets=5)
    for _ in range(50):
        policy.observe("A", matched=False)
    assert policy.tickets["A"] == 5.0
    for _ in range(50):
        policy.observe("A", matched=True)
    assert policy.tickets["A"] == 1.0


def test_lottery_decay_softens_bias():
    policy = LotteryRouting(("A", "B"), decay_every=10)
    for _ in range(9):
        policy.observe("A", matched=False)
    before = policy.tickets["A"]
    policy.observe("A", matched=False)  # triggers the decay
    assert policy.tickets["A"] < before


def test_lottery_rejects_bad_params():
    with pytest.raises(ValueError):
        LotteryRouting(("A",), max_tickets=0)
    with pytest.raises(ValueError):
        LotteryRouting(("A",), decay_every=0)


def test_cacq_with_lottery_matches_oracle(schema):
    tuples = make_tuples([(s, k % 5) for k in range(40) for s in ORDER])
    ref = StaticPlanExecutor(schema, ORDER)
    feed(ref, tuples)
    st = CACQExecutor(
        schema, ORDER, routing_policy=LotteryRouting(ORDER, seed=3)
    )
    feed(st, tuples[:60])
    st.transition(("T", "R", "S"))
    feed(st, tuples[60:])
    assert_same_output(ref, st)


def test_lottery_reduces_work_under_skewed_selectivity(schema):
    # T rarely matches: probing it first kills doomed tuples cheaply.
    tuples = []
    for i in range(1200):
        stream = ORDER[i % 3]
        key = (i * 7) % 400 + 1000 if stream == "T" else (i * 7) % 10
        tuples.append(StreamTuple(stream, i, key))
    fixed = CACQExecutor(schema, ORDER)
    lottery = CACQExecutor(
        schema, ORDER, routing_policy=LotteryRouting(ORDER, seed=5)
    )
    feed(fixed, tuples)
    feed(lottery, tuples)
    assert sorted(fixed.output_lineages()) == sorted(lottery.output_lineages())
    assert lottery.metrics.get(Counter.HASH_PROBE) < fixed.metrics.get(
        Counter.HASH_PROBE
    )
