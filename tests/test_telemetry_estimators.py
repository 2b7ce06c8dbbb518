"""Estimator correctness: windowed selectivity vs exact recompute, drift
detection on drifting vs stationary workloads, rate estimators.

The acceptance bounds here are the ones docs/TELEMETRY.md advertises:
the block-aggregated windowed selectivity stays within 2% of an exact
recompute on ``repro.workloads.drift`` workloads, and the Page–Hinkley
detector fires on every injected distribution shift while staying silent
on stationary (zipf-skewed but non-drifting) streams.
"""

import random

import pytest

from repro.telemetry import (
    Ewma,
    PageHinkley,
    SampledRate,
    SelectivityDriftDetector,
    WindowedRatio,
)
from repro.workloads.drift import SelectivityDriftWorkload

STREAMS = ("A", "B", "C")


def drift_outcomes(phases, base_domain=24, scatter=8, seed=11, stream="A"):
    """Hit outcomes of one stream's probes, plus that stream's phase cuts.

    A probe "hits" when the tuple's key lands in the shared hot domain.
    For the *tracked* stream that probability collapses from ~1 to
    ``1/scatter`` in every phase where it is the selective one — the
    per-operator signal a hub's drift detector sees.  (The aggregate
    outcome stream over all streams is stationary: each phase scatters
    exactly one stream, so only a per-stream view carries the shift.)
    Returns ``(outcomes, boundaries)`` with boundaries re-indexed into
    the filtered outcome stream.
    """
    workload = SelectivityDriftWorkload(
        STREAMS, phases, base_domain=base_domain, scatter=scatter, seed=seed
    )
    cuts = workload.phase_boundaries()[1:]
    outcomes = []
    boundaries = []
    at = 0
    for i, tup in enumerate(workload.materialize()):
        if at < len(cuts) and i == cuts[at]:
            boundaries.append(len(outcomes))
            at += 1
        if tup.stream == stream:
            outcomes.append(tup.key < base_domain)
    return outcomes, boundaries


def stationary_zipf_outcomes(n=20_000, domain=64, seed=5):
    """Zipf-skewed keys with a fixed distribution: skew without drift."""
    rng = random.Random(seed)
    keys = [min(domain - 1, int(rng.paretovariate(1.3)) - 1) for _ in range(n)]
    return [key < domain // 2 for key in keys]


class TestWindowedRatio:
    def test_exact_against_brute_force(self):
        rng = random.Random(1)
        est = WindowedRatio(window=100)
        seen = []
        for _ in range(1000):
            hit = rng.random() < 0.3
            est.observe(hit)
            seen.append(hit)
            tail = seen[-100:]
            assert est.estimate() == pytest.approx(sum(tail) / len(tail))
        assert est.count == 100
        assert est.lifetime() == pytest.approx(sum(seen) / len(seen))

    def test_empty(self):
        assert WindowedRatio(10).estimate() is None
        assert WindowedRatio(10).lifetime() is None
        with pytest.raises(ValueError):
            WindowedRatio(0)


class TestRates:
    def test_sampled_rate_matches_cumulative_slope(self):
        est = SampledRate(window=16)
        for i in range(50):
            est.sample(float(i * 10), i * 30)
        assert est.rate() == pytest.approx(3.0)

    def test_sampled_rate_resample_same_instant_replaces(self):
        est = SampledRate(window=8)
        est.sample(0.0, 0)
        est.sample(1.0, 5)
        est.sample(1.0, 9)  # repeated sync at the same virtual time
        assert est.rate() == pytest.approx(9.0)

    def test_degenerate_cases(self):
        assert SampledRate().rate() == 0.0
        est = SampledRate()
        est.sample(1.0, 1)
        assert est.rate() == 0.0
        with pytest.raises(ValueError):
            SampledRate(window=1)


class TestEwmaAndPageHinkley:
    def test_ewma_seeds_with_first_value(self):
        e = Ewma(alpha=0.5)
        assert e.update(4.0) == 4.0
        assert e.update(0.0) == 2.0

    def test_page_hinkley_fires_on_step_and_resets(self):
        # delta must dominate the Bernoulli noise (std 0.5) for the test
        # to be exact-count stable; the injected steps (0.4+) still dwarf it.
        rng = random.Random(2)
        ph = PageHinkley(delta=0.1, threshold=15.0, min_samples=30)
        fired_at = []
        level = 0.5
        for i in range(3000):
            if i == 1000:
                level = 0.1
            if i == 2000:
                level = 0.6
            if ph.update(1.0 if rng.random() < level else 0.0):
                fired_at.append(i)
        assert len(fired_at) == 2
        assert 1000 < fired_at[0] < 2000 < fired_at[1]
        assert ph.fired == 2

    def test_page_hinkley_weighted_blocks_equivalent_scale(self):
        # Feeding block means with block weights must still detect the
        # same shift (thresholds keep their per-sample meaning).
        rng = random.Random(3)
        ph = PageHinkley(delta=0.005, threshold=5.0, min_samples=30)
        fired = False
        for i in range(200):
            level = 0.5 if i < 100 else 0.1
            block = [1.0 if rng.random() < level else 0.0 for _ in range(16)]
            fired = ph.update(sum(block) / 16, 16.0) or fired
        assert fired

    def test_page_hinkley_validation(self):
        with pytest.raises(ValueError):
            PageHinkley(delta=-0.1)
        with pytest.raises(ValueError):
            PageHinkley().update(0.5, weight=0.0)


class TestSelectivityDriftDetector:
    def test_block1_matches_exact_windowed_ratio(self):
        rng = random.Random(4)
        det = SelectivityDriftDetector(window=200, block=1)
        ref = WindowedRatio(window=200)
        for _ in range(2000):
            hit = rng.random() < 0.4
            det.observe(hit)
            ref.observe(hit)
            assert det.estimate() == pytest.approx(ref.estimate())

    def test_windowed_estimate_within_2pct_on_drift_workload(self):
        # The acceptance bound: block-aggregated estimate vs an exact
        # recompute over the trailing window, across a workload with two
        # forced selectivity transitions, at the hub's production block.
        outcomes, _ = drift_outcomes(
            [(9000, "A"), (9000, "B"), (9000, "C")], seed=11
        )
        det = SelectivityDriftDetector(window=5000, block=64)
        seen = []
        for hit in outcomes:
            det.observe(hit)
            seen.append(1 if hit else 0)
            if len(seen) >= 500 and len(seen) % 250 == 0:
                tail = seen[-5000:]
                exact = sum(tail) / len(tail)
                assert det.estimate() == pytest.approx(exact, abs=0.02)

    def test_fires_on_every_forced_transition(self):
        phases = [(9000, "A"), (9000, "B"), (9000, "A")]
        outcomes, boundaries = drift_outcomes(phases, scatter=16, seed=13)
        det = SelectivityDriftDetector(
            window=5000, block=64, delta=0.005, threshold=20.0, min_samples=200
        )
        fired_at = [i for i, hit in enumerate(outcomes) if det.observe(hit)]
        # Every phase shift must be detected after it happens and before
        # the next phase ends.
        spans = list(zip(boundaries, boundaries[1:] + [len(outcomes)]))
        for lo, hi in spans:
            assert any(lo < i <= hi for i in fired_at), (lo, hi, fired_at)
        assert det.drift_count == len(fired_at)
        assert det.drifted
        det.clear()
        assert not det.drifted

    def test_silent_on_stationary_zipf(self):
        det = SelectivityDriftDetector(
            window=5000, block=64, delta=0.005, threshold=20.0, min_samples=200
        )
        for hit in stationary_zipf_outcomes():
            det.observe(hit)
        assert det.drift_count == 0
        assert not det.drifted

    def test_push_block_equivalent_to_observe(self):
        rng = random.Random(6)
        outcomes = [rng.random() < 0.35 for _ in range(4000)]
        a = SelectivityDriftDetector(window=1000, block=64)
        b = SelectivityDriftDetector(window=1000, block=64)
        for hit in outcomes:
            a.observe(hit)
        i = 0
        while i < len(outcomes):
            n = min(48, len(outcomes) - i)  # ragged deltas, like polling
            chunk = outcomes[i : i + n]
            b.push_block(n, sum(chunk))
            i += n
        assert a.total == b.total and a.total_hits == b.total_hits
        assert b.estimate() == pytest.approx(a.estimate(), abs=0.02)

    def test_push_block_validation(self):
        det = SelectivityDriftDetector()
        with pytest.raises(ValueError):
            det.push_block(0, 0)
        with pytest.raises(ValueError):
            det.push_block(4, 5)
        with pytest.raises(ValueError):
            SelectivityDriftDetector(window=100, block=101)

    def test_summary_shape(self):
        det = SelectivityDriftDetector(window=100, block=4)
        for _ in range(8):
            det.observe(True)
        estimate, smoothed, drifts, flag = det.summary()
        assert estimate == 1.0
        assert smoothed == 1.0
        assert drifts == 0 and flag is False


class TestEstimatorEdgeCases:
    """Edge-case backfill for the adaptive loop's inputs (docs/ADAPTIVITY.md):
    empty windows, block-boundary weighted updates, and poll deltas that
    outrun the window."""

    def test_empty_window_selectivity_is_none_not_zero(self):
        # The cost maintainer treats None as "not ready", never as sel=0 —
        # a zero here would make any plan look free and fire the trigger.
        det = SelectivityDriftDetector(window=50, block=8)
        assert det.estimate() is None
        assert det.lifetime() is None
        assert det.smoothed() is None
        assert det.count == 0

    def test_partial_block_counts_in_estimate_before_first_flush(self):
        det = SelectivityDriftDetector(window=50, block=8)
        det.observe(True)
        det.observe(False)
        # Two observations, no completed block: the estimate must already
        # reflect them (the trigger may evaluate mid-block).
        assert det.count == 2
        assert det.estimate() == pytest.approx(0.5)
        assert det.smoothed() is None  # EWMA/PH only see completed blocks

    def test_push_block_flush_exactly_at_block_boundary(self):
        # Batches accumulating to exactly `block` must flush once, with
        # the pending partial reset to zero — not carry a stale remainder.
        det = SelectivityDriftDetector(window=100, block=10)
        det.push_block(4, 2)
        det.push_block(6, 3)  # lands exactly on the boundary
        assert det._cur_n == 0 and det._cur_h == 0
        assert det._win_n == 10 and det._win_h == 5
        assert det.estimate() == pytest.approx(0.5)
        # The EWMA saw exactly one block mean.
        assert det.ewma.count == 1

    def test_weighted_block_update_advances_ph_count_by_weight(self):
        # min_samples keeps its per-underlying-sample meaning: one block
        # of 16 advances the warm-up as far as 16 single observations.
        blocked = PageHinkley(delta=0.005, threshold=5.0, min_samples=32)
        single = PageHinkley(delta=0.005, threshold=5.0, min_samples=32)
        blocked.update(0.5, weight=16.0)
        for _ in range(16):
            single.update(0.5)
        assert blocked.count == single.count == 16
        assert blocked.mean == pytest.approx(single.mean)

    def test_ph_block_boundary_straddling_shift_still_fires(self):
        # A mean shift landing mid-block (the block mean blends both
        # regimes) must still fire once the post-shift blocks accumulate.
        rng = random.Random(8)
        ph = PageHinkley(delta=0.01, threshold=8.0, min_samples=64)
        fired = False
        for i in range(64):
            # shift at observation 500, i.e. inside block 31 (16 per block)
            outcomes = [
                1.0 if rng.random() < (0.6 if 16 * i + j < 500 else 0.15) else 0.0
                for j in range(16)
            ]
            fired = ph.update(sum(outcomes) / 16, 16.0) or fired
        assert fired

    def test_windowed_ratio_burst_larger_than_window(self):
        # Probes arriving faster than the poll interval: one poll's delta
        # exceeds the whole window.  The ring must retain exactly the last
        # `window` outcomes and the estimate must match them.
        est = WindowedRatio(window=10)
        for i in range(100):
            est.observe(i >= 95)  # burst ends with 5 hits
        assert est.count == 10
        assert est.estimate() == pytest.approx(0.5)
        assert est.total == 100 and est.total_hits == 5

    def test_drift_detector_single_delta_larger_than_window(self):
        # push_block with one delta bigger than the window (probes faster
        # than the poll cadence): the oversized block is retained whole —
        # the estimate covers it — and later normal blocks evict it.
        det = SelectivityDriftDetector(window=64, block=16)
        det.push_block(200, 50)
        assert det.count == 200
        assert det.estimate() == pytest.approx(0.25)
        for _ in range(4):
            det.push_block(16, 16)
        # Four full-window blocks later the oversized one is gone.
        assert det.count == 64
        assert det.estimate() == pytest.approx(1.0)
