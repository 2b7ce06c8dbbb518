"""Property suite for the trigger policies (hypothesis) + hash-seed pinning.

The adversarial battery behind the adaptive loop's three contracts:

* **hysteresis damping** — no two fires ever closer than the cooldown,
  under arbitrary improvement sequences and evaluation spacings;
* **cost awareness** — a fire's projected savings always strictly exceed
  the charged migration cost times the safety factor, under arbitrary
  cost/state-size sequences;
* **hash-seed determinism** — the full decision stream of a real
  adaptive run is byte-identical across ``PYTHONHASHSEED`` values (the
  CI matrix re-runs this file under three seeds on top of the explicit
  subprocess check here).
"""

import subprocess
import sys

import hypothesis.strategies as hst
import pytest
from hypothesis import given, settings

from repro.optimizer.cost import (
    CostSnapshot,
    anchored_best_order,
    order_cost,
)
from repro.optimizer.triggers import (
    CostAwareTrigger,
    HysteresisTrigger,
    NeverTrigger,
    ThresholdTrigger,
)

pytestmark = pytest.mark.hashseed

NAMES = ("A", "B", "C")


def snapshot(at, sels, state_size=0, order=NAMES, ready=True):
    """A CostSnapshot as the maintainer would build it from ``sels``."""
    order = tuple(order)
    best = anchored_best_order(order, sels) if ready else order
    return CostSnapshot(
        at=at,
        order=order,
        selectivities=dict(sels),
        samples={name: 10_000 for name in order},
        current_cost=order_cost(order, sels) if ready else 0.0,
        best_order=best,
        best_cost=order_cost(best, sels) if ready else 0.0,
        ready=ready,
        state_size=state_size,
    )


sel_values = hst.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)
sel_maps = hst.fixed_dictionaries({"B": sel_values, "C": sel_values})


# -- hysteresis: the cooldown invariant ----------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    hst.lists(sel_maps, min_size=1, max_size=40),
    hst.integers(min_value=1, max_value=10),  # evaluation spacing
    hst.integers(min_value=0, max_value=50),  # cooldown
    hst.integers(min_value=1, max_value=3),  # confirm
)
def test_hysteresis_never_fires_twice_within_cooldown(sels_seq, every, cooldown, confirm):
    policy = HysteresisTrigger(
        min_improvement=0.05, confirm=confirm, cooldown=cooldown
    )
    fire_ats = []
    for i, sels in enumerate(sels_seq):
        decision = policy.decide(snapshot((i + 1) * every, sels), at=(i + 1) * every)
        if decision.fired:
            fire_ats.append(decision.at)
    for a, b in zip(fire_ats, fire_ats[1:]):
        assert b - a >= cooldown, f"fires at {a} and {b} inside cooldown {cooldown}"


@settings(max_examples=100, deadline=None)
@given(hst.lists(sel_maps, min_size=1, max_size=30))
def test_hysteresis_fires_need_confirmation_streak(sels_seq):
    """A fire at evaluation i requires >= confirm consecutive qualifying
    snapshots ending at i (warming/below-threshold resets the streak)."""
    policy = HysteresisTrigger(min_improvement=0.05, confirm=2, cooldown=0)
    qualifying = []
    for i, sels in enumerate(sels_seq):
        snap = snapshot(i + 1, sels)
        qualifying.append(snap.ready and snap.improvement > 0.05)
        decision = policy.decide(snap, at=i + 1)
        if decision.fired:
            assert qualifying[-2:] == [True, True]


# -- cost-aware: never a losing trade ------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    hst.lists(
        hst.tuples(sel_maps, hst.integers(min_value=0, max_value=5000)),
        min_size=1,
        max_size=40,
    ),
    hst.integers(min_value=1, max_value=500),  # horizon
    hst.floats(min_value=0.5, max_value=3.0, allow_nan=False),  # safety
)
def test_cost_aware_never_fires_on_losing_trade(seq, horizon, safety):
    policy = CostAwareTrigger(
        min_improvement=0.0,
        confirm=1,
        cooldown=0,
        horizon=horizon,
        completion_cost=1.0,
        safety=safety,
    )
    for i, (sels, state_size) in enumerate(seq):
        snap = snapshot(i + 1, sels, state_size=state_size)
        decision = policy.decide(snap, at=i + 1)
        projected = (snap.current_cost - snap.best_cost) * horizon
        if decision.fired:
            assert projected > state_size * safety
            assert decision.projected_savings > decision.migration_cost * safety
        elif decision.reason == "migration_cost":
            assert projected <= state_size * safety


def test_cost_aware_suppression_does_not_start_cooldown():
    """A migration that never ran must not cooldown-block the next fire."""
    policy = CostAwareTrigger(
        min_improvement=0.0, confirm=1, cooldown=100, horizon=10, safety=1.0
    )
    heavy = snapshot(1, {"B": 0.9, "C": 0.1}, state_size=10_000)
    assert policy.decide(heavy, at=1).action == "suppressed"
    light = snapshot(2, {"B": 0.9, "C": 0.1}, state_size=0)
    assert policy.decide(light, at=2).fired


# -- threshold / never basics --------------------------------------------------


def test_threshold_fires_only_above_threshold_and_when_ready():
    policy = ThresholdTrigger(min_improvement=0.2)
    warming = snapshot(1, {"B": 0.9, "C": 0.1}, ready=False)
    assert policy.decide(warming, at=1).reason == "warming_up"
    small = snapshot(2, {"B": 0.32, "C": 0.3})
    assert not policy.decide(small, at=2).fired
    big = snapshot(3, {"B": 0.9, "C": 0.1})
    decision = policy.decide(big, at=3)
    assert decision.fired and decision.best_order == ("A", "C", "B")


def test_never_trigger_never_fires():
    policy = NeverTrigger()
    for at in range(1, 20):
        assert not policy.decide(snapshot(at, {"B": 0.99, "C": 0.0}), at=at).fired


# -- the cost model itself -----------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    hst.dictionaries(
        hst.sampled_from(["B", "C", "D", "E"]), sel_values, min_size=2, max_size=4
    )
)
def test_anchored_best_order_is_cost_minimal(sels):
    """The sort really minimizes the prefix-product cost over all orders
    with the same anchor (brute force over permutations)."""
    import itertools

    order = ("A", *sorted(sels))
    best = anchored_best_order(order, sels)
    best_cost = order_cost(best, sels)
    for perm in itertools.permutations(sels):
        candidate = ("A", *perm)
        assert best_cost <= order_cost(candidate, sels) + 1e-12
    # anchor kept; the probed suffix ascends by (selectivity, name)
    assert best[0] == "A"
    ranks = [(sels[name], name) for name in best[1:]]
    assert ranks == sorted(ranks)


def test_order_cost_matches_hand_expansion():
    sels = {"B": 0.5, "C": 0.25}
    # 1 probe into B, then 0.5 partials probing C
    assert order_cost(("A", "B", "C"), sels) == pytest.approx(1.5)
    assert order_cost(("A", "C", "B"), sels) == pytest.approx(1.25)


# -- PYTHONHASHSEED byte-identity ----------------------------------------------

_SEED_SCRIPT = """
from repro.migration.jisc import JISCStrategy
from repro.optimizer.adaptive import AdaptiveEngine
from repro.optimizer.triggers import HysteresisTrigger
from repro.streams.schema import Schema
from repro.workloads.drift import SelectivityDriftWorkload

names = ("S0", "S1", "S2")
engine = AdaptiveEngine(
    JISCStrategy(Schema.uniform(names, 16), names),
    policy=HysteresisTrigger(min_improvement=0.08, confirm=2, cooldown=64),
    evaluate_every=8,
    min_samples=32,
    hub_options={"selectivity_window": 96, "drift_block": 16, "drift_min_samples": 32},
)
workload = SelectivityDriftWorkload(
    names, [(120, "S1"), (240, "S2")], base_domain=8, scatter=24, seed=0
)
engine.run(workload.materialize())
assert engine.fire_count >= 1
for decision in engine.decisions:
    print(decision.to_jsonl())
"""


def test_trigger_decisions_byte_identical_across_hash_seeds():
    """The full adaptive decision stream of a real run must not depend on
    the interpreter's hash seed (no set/dict-order leaks anywhere in the
    estimator -> cost -> policy chain)."""
    import os

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    outputs = {}
    for seed in ("0", "1", "4242"):
        out = subprocess.run(
            [sys.executable, "-c", _SEED_SCRIPT],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONHASHSEED": seed, "PYTHONPATH": src},
        ).stdout
        outputs[seed] = out
    assert outputs["0"] == outputs["1"] == outputs["4242"]
    assert outputs["0"].count('"action": "fired"') >= 1
