"""The re-optimization policy in hand-checkable numbers, on the one loop.

Each claim is stated on the part of ``repro.optimizer`` that decides it:
the cost model ranks orders, the maintainer gates on evidence, the
trigger policies damp, the hub's estimators window.  The property suites
(tests/test_trigger_policies.py, tests/test_telemetry_estimators.py) hold
the same claims over random inputs; these are the worked examples.
"""

import pytest

from repro.optimizer import HysteresisTrigger, PlanCostMaintainer, ThresholdTrigger
from repro.telemetry.estimators import SelectivityDriftDetector

ORDER = ("R", "S", "T")


class FixedHub:
    """Per-stream ``(probes, hits)`` evidence, as a hub would report it."""

    def __init__(self, evidence):
        self.evidence = evidence

    def poll(self):
        pass

    def arrival_rates(self):
        return {}

    def selectivity_sample(self, name):
        probes, hits = self.evidence.get(name, (0, 0))
        return (probes, hits / probes) if probes else None


def snapshot(evidence, order=ORDER, min_samples=10):
    hub = FixedHub({"R": (100, 50), **evidence})
    return PlanCostMaintainer(order, [hub], min_samples=min_samples).refresh(at=0)


def test_no_proposal_without_evidence():
    snap = snapshot({"S": (10, 5)}, min_samples=100)  # nothing on T at all
    assert not snap.ready and snap.best_order == ORDER
    decision = ThresholdTrigger(0.0).decide(snap, at=0)
    assert not decision.fired and decision.reason == "warming_up"


def test_selectivity_requires_min_probes():
    assert not snapshot({"S": (99, 10), "T": (100, 50)}, min_samples=100).ready
    snap = snapshot({"S": (100, 10), "T": (100, 50)}, min_samples=100)
    assert snap.ready and snap.selectivities["S"] == pytest.approx(0.1)


def test_proposes_sort_by_ascending_selectivity():
    snap = snapshot({"S": (100, 90), "T": (100, 10)})  # S unselective, T selective
    assert snap.best_order == ("R", "T", "S")
    decision = ThresholdTrigger(0.05).decide(snap, at=0)
    assert decision.fired and decision.best_order == ("R", "T", "S")


def test_keeps_anchor_stream():
    # the anchor is never a probe target, whatever its own match rate is
    for anchor_hits in (1, 99):
        snap = snapshot({"R": (100, anchor_hits), "S": (100, 80), "T": (100, 20)})
        assert snap.best_order == ("R", "T", "S")


def test_tolerance_suppresses_marginal_reorderings():
    snap = snapshot({"S": (100, 30), "T": (100, 20)})  # cost 1.3 -> 1.2: 7.7 % better
    assert snap.improvement == pytest.approx(0.1 / 1.3)
    assert ThresholdTrigger(0.5).decide(snap, at=0).reason == "below_threshold"
    assert ThresholdTrigger(0.05).decide(snap, at=0).fired


def test_already_sorted_returns_none():
    snap = snapshot({"S": (100, 10), "T": (100, 90)})
    assert snap.best_order == ORDER and snap.improvement == 0.0
    assert not ThresholdTrigger(0.0).decide(snap, at=0).fired


def test_observe_accumulates():
    det = SelectivityDriftDetector(window=100)
    det.push_block(5, 5)
    det.push_block(5, 0)
    assert (det.count, det.estimate()) == (10, pytest.approx(0.5))


def test_rejects_negative_observations():
    det = SelectivityDriftDetector()
    with pytest.raises(ValueError):
        det.push_block(-1, 0)
    with pytest.raises(ValueError):
        det.push_block(1, -1)


def test_rejects_negative_tolerance():
    with pytest.raises(ValueError):
        ThresholdTrigger(min_improvement=-0.1)
    with pytest.raises(ValueError):
        HysteresisTrigger(min_improvement=-0.1)


def test_decay_tracks_drift():
    # Old evidence leaves the window: a stream that was unselective for a
    # long time but recently became selective flips quickly.
    det = SelectivityDriftDetector(window=300, block=100)
    for _ in range(20):
        det.push_block(100, 90)  # long unselective history
    for _ in range(3):
        det.push_block(100, 0)  # recent: highly selective
    assert det.estimate() < 0.2
    assert det.lifetime() > 0.5


def test_decay_validation():
    with pytest.raises(ValueError):
        SelectivityDriftDetector(window=0)
    with pytest.raises(ValueError):
        SelectivityDriftDetector(window=10, block=11)
    with pytest.raises(ValueError):
        HysteresisTrigger(cooldown=-1)
    with pytest.raises(ValueError):
        HysteresisTrigger(confirm=0)


def _fires_under_flapping(cooldown, rounds=40):
    """S and T trade places every evaluation; the order follows each fire."""
    policy = HysteresisTrigger(min_improvement=0.0, confirm=1, cooldown=cooldown)
    order, fires = ORDER, 0
    for at in range(rounds):
        s, t = (90, 10) if at % 2 else (10, 90)
        decision = policy.decide(snapshot({"S": (100, s), "T": (100, t)}, order), at=at)
        if decision.fired:
            fires += 1
            order = decision.best_order
    return fires


def test_cooldown_suppresses_thrashing():
    # Section 5.1.2: fluctuating selectivities must not cause a migration storm.
    assert _fires_under_flapping(cooldown=10) <= 4


def test_cooldown_zero_behaves_as_before():
    assert _fires_under_flapping(cooldown=0) == 39  # every evaluation after the first
