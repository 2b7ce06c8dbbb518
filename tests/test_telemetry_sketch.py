"""Space-saving sketch: determinism, error bounds, and top-k recall on
skewed key streams (the shard-hotspot shape from docs/SHARDING.md)."""

import random
from collections import Counter as TallyCounter

import pytest

from repro.telemetry import SpaceSavingSketch


def zipf_stream(n=30_000, domain=2048, alpha=1.2, seed=7):
    rng = random.Random(seed)
    return [min(domain - 1, int(rng.paretovariate(alpha)) - 1) for _ in range(n)]


class TestBasics:
    def test_capacity_bound_and_total(self):
        sk = SpaceSavingSketch(capacity=4)
        for key in range(100):
            sk.offer(key)
        assert len(sk) == 4
        assert sk.total == 100

    def test_exact_below_capacity(self):
        sk = SpaceSavingSketch(capacity=16)
        stream = [1, 2, 1, 3, 1, 2]
        for key in stream:
            sk.offer(key)
        assert sk.count_of(1) == 3
        assert sk.count_of(2) == 2
        assert sk.top(1) == [(1, 3, 0)]  # no evictions -> zero error
        assert sk.count_of(99) == 0
        assert 1 in sk and 99 not in sk

    def test_count_is_upper_bound_guaranteed_is_lower(self):
        stream = zipf_stream(n=5000, domain=512)
        truth = TallyCounter(stream)
        sk = SpaceSavingSketch(capacity=64)
        for key in stream:
            sk.offer(key)
        for key, count, error in sk.top(64):
            assert count >= truth[key]
            assert count - error <= truth[key]

    def test_offer_all_equivalent_to_offers(self):
        stream = zipf_stream(n=4000, domain=256, seed=9)
        a = SpaceSavingSketch(capacity=32)
        b = SpaceSavingSketch(capacity=32)
        for key in stream:
            a.offer(key)
        b.offer_all(stream)
        assert a.total == b.total
        assert a.top(32) == b.top(32)

    def test_offer_validation_and_weights(self):
        sk = SpaceSavingSketch(capacity=4)
        sk.offer("x", 5)
        sk.offer("x", 0)  # ignored
        sk.offer("x", -2)  # ignored
        assert sk.count_of("x") == 5 and sk.total == 5
        with pytest.raises(ValueError):
            SpaceSavingSketch(capacity=0)

    def test_to_json_shape(self):
        sk = SpaceSavingSketch(capacity=4)
        sk.offer_all([1, 1, 2])
        payload = sk.to_json()
        assert payload["capacity"] == 4
        assert payload["total"] == 3
        assert payload["top"][0] == {"key": "1", "count": 2, "error": 0}


class TestDeterminism:
    def test_same_stream_same_sketch(self):
        stream = zipf_stream(seed=21)
        a = SpaceSavingSketch(capacity=48)
        b = SpaceSavingSketch(capacity=48)
        a.offer_all(stream)
        b.offer_all(stream)
        assert a.top(48) == b.top(48)

    def test_top_ties_ordered_stably(self):
        sk = SpaceSavingSketch(capacity=8)
        sk.offer_all(["a", "b", "c", "a", "b", "c"])
        first = sk.top(3)
        assert [count for _, count, _ in first] == [2, 2, 2]
        assert sk.top(3) == first  # re-reading does not reorder


class TestRecall:
    @pytest.mark.parametrize("seed", [7, 17, 27])
    def test_topk_recall_on_skewed_stream(self, seed):
        # The acceptance bound (docs/TELEMETRY.md): on zipf-skewed
        # assignments with the hub's production capacity, the sketch's
        # top-10 must contain at least 90% of the true top-10.
        stream = zipf_stream(n=30_000, domain=2048, seed=seed)
        truth = TallyCounter(stream)
        sk = SpaceSavingSketch(capacity=128)
        sk.offer_all(stream)
        k = 10
        true_top = {key for key, _ in truth.most_common(k)}
        sketch_top = {key for key, _, _ in sk.top(k)}
        recall = len(true_top & sketch_top) / k
        assert recall >= 0.9, (seed, recall)
