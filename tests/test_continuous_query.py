"""Tests for the ContinuousQuery adaptive facade."""

import os
import random
import subprocess
import sys

import pytest

from repro.engine.query import ContinuousQuery
from repro.migration.base import StaticPlanExecutor
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple


@pytest.fixture
def schema():
    return Schema.uniform(["R", "S", "T"], window=50)


def test_push_returns_fresh_results(schema):
    q = ContinuousQuery(schema, ("R", "S", "T"), adaptive=False)
    assert q.push("R", 1) == []
    assert q.push("S", 1) == []
    results = q.push("T", 1)
    assert len(results) == 1
    assert results[0].streams == frozenset("RST")
    assert q.push("T", 2) == []
    assert len(q.results) == 1


def test_push_assigns_monotone_seqs(schema):
    q = ContinuousQuery(schema, ("R", "S", "T"), adaptive=False)
    q.push("R", 1)
    q.push("S", 2)
    seqs = [t.seq for scan in q.strategy.plan.scans.values() for t in scan.window]
    assert sorted(seqs) == [0, 1]


def test_push_tuple_rejects_stale_seq(schema):
    q = ContinuousQuery(schema, ("R", "S", "T"), adaptive=False)
    q.push("R", 1)
    with pytest.raises(ValueError):
        q.push_tuple(StreamTuple("S", 0, 1))


def test_unknown_stream_raises_before_anything_moves(schema):
    q = ContinuousQuery(schema, ("R", "S", "T"), reoptimize_every=4)
    q.push("R", 1)
    with pytest.raises(ValueError, match="unknown stream 'X'"):
        q.push("X", 1)
    assert q._next_seq == 1  # the next tuple does not skip a seq ...
    assert q.engine.arrivals == 1  # ... and the cadence did not tick
    q.push("S", 1)
    (result,) = q.push("T", 1)
    assert sorted(seq for _, seq in result.lineage) == [0, 1, 2]
    assert not q.engine.decisions
    q.push("T", 2)  # fourth accepted arrival: the first evaluation
    assert len(q.engine.decisions) == 1


def test_unknown_strategy_rejected(schema):
    with pytest.raises(ValueError):
        ContinuousQuery(schema, ("R", "S", "T"), strategy="eddy")
    with pytest.raises(ValueError):
        ContinuousQuery(schema, ("R", "S", "T"), reoptimize_every=0)


def test_probe_statistics_collected(schema):
    q = ContinuousQuery(schema, ("R", "S", "T"), adaptive=False)
    q.push("R", 1)
    q.push("S", 1)  # S's arrival probes R's scan: hit; the rs pair probes T: miss
    q.push("S", 2)  # miss against R
    assert q.selectivity_of("R") == pytest.approx(0.5)
    assert q.selectivity_of("T") == pytest.approx(0.0)
    assert q.selectivity_of("S") == pytest.approx(0.0)  # R's arrival missed S


def _skewed_run(schema):
    # Stream T rarely matches: the optimizer should move it down the plan.
    rng = random.Random(0)
    q = ContinuousQuery(
        schema, ("R", "S", "T"), reoptimize_every=300, strategy="jisc"
    )
    for i in range(3_000):
        stream = ("R", "S", "T")[i % 3]
        key = rng.randrange(1000) if stream == "T" else rng.randrange(20)
        q.push(stream, key)
    return q


def test_adaptive_reordering_fires_on_skew(schema):
    q = _skewed_run(schema)
    assert q.transition_log, "optimizer never proposed a transition"
    # T ends up right after the anchor (most selective at the bottom).
    assert q.order[1] == "T"


def test_every_transition_is_a_trigger_event_with_cost_evidence(schema):
    """The facade has no loop of its own: each entry of its transition log
    is a fired decision of the engine, published to the hub as a
    ``trigger`` event carrying the costs it was decided on."""
    q = _skewed_run(schema)
    engine = q.engine
    assert q.transition_log == [(d.at, d.best_order) for d in engine.migrations]
    assert q.transition_log and q.order == q.transition_log[-1][1]
    for decision in engine.migrations:
        assert decision.at % 300 == 0
        assert decision.current_cost > decision.best_cost > 0
        assert decision.improvement > 0.1
    registry = engine.telemetry.registry
    (fires,) = registry.with_name("optimizer_trigger_fires_total")
    (evaluations,) = registry.with_name("optimizer_trigger_evaluations_total")
    assert fires.value == len(q.transition_log)
    assert evaluations.value == len(engine.decisions) == 3_000 // 300
    last = engine.decisions[-1]
    (current,) = registry.with_name("optimizer_cost_current")
    (best,) = registry.with_name("optimizer_cost_best")
    assert (current.value, best.value) == (last.current_cost, last.best_cost)


_SEED_SCRIPT = """
import random
from repro import ContinuousQuery, Schema

rng = random.Random(0)
q = ContinuousQuery(Schema.uniform(["R", "S", "T"], 50), ("R", "S", "T"), reoptimize_every=300)
for i in range(3000):
    stream = ("R", "S", "T")[i % 3]
    q.push(stream, rng.randrange(1000) if stream == "T" else rng.randrange(20))
assert q.transition_log
for decision in q.engine.decisions:
    print(decision.to_jsonl())
"""


def test_decision_stream_identical_across_hash_seeds():
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _SEED_SCRIPT],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONHASHSEED": seed, "PYTHONPATH": src},
        ).stdout
        for seed in ("0", "1", "4242")
    ]
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].count('"action": "fired"') >= 1


def test_adaptive_run_output_matches_static(schema):
    rng = random.Random(3)
    tuples = [
        StreamTuple(("R", "S", "T")[i % 3], i,
                    rng.randrange(500) if i % 3 == 2 else rng.randrange(15))
        for i in range(2_400)
    ]
    ref = StaticPlanExecutor(schema, ("R", "S", "T"))
    for tup in tuples:
        ref.process(tup)
    q = ContinuousQuery(schema, ("R", "S", "T"), reoptimize_every=300)
    for tup in tuples:
        q.push_tuple(tup)
    assert sorted(t.lineage for t in q.results) == sorted(ref.output_lineages())


@pytest.mark.parametrize("strategy", ["jisc", "moving_state", "parallel_track"])
def test_all_strategies_usable(schema, strategy):
    q = ContinuousQuery(schema, ("R", "S", "T"), strategy=strategy, adaptive=False)
    q.push("R", 1)
    q.push("S", 1)
    assert len(q.push("T", 1)) == 1
    q.strategy.transition(("S", "T", "R"))
    q.push("R", 1)  # still alive after a manual transition
    assert len(q.results) >= 1


def test_reoptimize_now_with_insufficient_evidence(schema):
    q = ContinuousQuery(schema, ("R", "S", "T"))
    assert q.reoptimize_now() is None
