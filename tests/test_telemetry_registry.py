"""Tests for the labeled metrics registry and the exposition pipeline
(``repro.telemetry.registry`` / ``repro.telemetry.expo``)."""

import json

import pytest

from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SnapshotLog,
    canonical_labels,
    diff_snapshots,
    load_snapshots,
    registry_snapshot,
    render_prometheus,
    series_name,
)


class TestSeriesIdentity:
    def test_canonical_labels_sorted_and_stringified(self):
        assert canonical_labels({"shard": 2, "strategy": "jisc"}) == (
            ("shard", "2"),
            ("strategy", "jisc"),
        )

    def test_series_name_flat_form(self):
        labels = canonical_labels({"strategy": "jisc", "shard": 0})
        assert series_name("arrivals", labels) == 'arrivals{shard="0",strategy="jisc"}'
        assert series_name("arrivals", ()) == "arrivals"

    def test_label_order_does_not_split_series(self):
        reg = MetricsRegistry()
        a = reg.counter("ops", strategy="jisc", shard=1)
        b = reg.counter("ops", shard=1, strategy="jisc")
        assert a is b
        assert len(reg) == 1


class TestRegistration:
    def test_get_or_create_idempotent(self):
        reg = MetricsRegistry()
        c = reg.counter("arrivals", strategy="jisc")
        c.inc(5)
        again = reg.counter("arrivals", strategy="jisc")
        assert again is c
        assert again.value == 5

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x", strategy="jisc")
        with pytest.raises(ValueError):
            reg.gauge("x", strategy="jisc")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("")

    def test_get_and_with_name(self):
        reg = MetricsRegistry()
        reg.counter("ops", shard=0)
        reg.counter("ops", shard=1)
        reg.gauge("phase")
        assert reg.get("ops", shard=1) is not None
        assert reg.get("ops", shard=7) is None
        assert len(reg.with_name("ops")) == 2
        assert "ops" in reg and "nope" not in reg

    def test_collect_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a", shard=1)
        reg.counter("a", shard=0)
        assert [i.series for i in reg.collect()] == [
            'a{shard="0"}',
            'a{shard="1"}',
            "b",
        ]


class TestInstruments:
    def test_counter_monotone(self):
        c = Counter("c", ())
        c.inc()
        c.inc(3)
        assert c.value == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_add_and_strings(self):
        g = Gauge("g", ())
        g.set(2.5)
        g.add(0.5)
        assert g.value == 3.0
        g.set("steady")
        assert g.value_json() == "steady"

    def test_histogram_summary(self):
        h = Histogram("h", ())
        for v in (1.0, 2.0, 4.0, 8.0):
            h.observe(v)
        summary = h.summary()
        assert summary["count"] == 4
        assert summary["max"] >= 8.0


class TestExposition:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("engine_arrivals_total", strategy="jisc").inc(10)
        reg.gauge("engine_phase", strategy="jisc").set("steady")
        reg.histogram("latency", strategy="jisc").observe(2.0)
        return reg

    def test_prometheus_text_format(self):
        text = render_prometheus(self._registry())
        assert '# TYPE repro_engine_arrivals_total counter' in text
        assert 'repro_engine_arrivals_total{strategy="jisc"} 10' in text
        # Non-numeric gauges are exported as a label, value 1.
        assert 'engine_phase' in text

    def test_snapshot_and_diff(self):
        reg = self._registry()
        a = registry_snapshot(reg, at=1.0)
        reg.counter("engine_arrivals_total", strategy="jisc").inc(5)
        b = registry_snapshot(reg, at=2.0)
        changes = diff_snapshots(a, b)
        assert any("engine_arrivals_total" in line for line in changes)
        assert not diff_snapshots(b, b)

    def test_snapshot_log_jsonl_round_trip(self, tmp_path):
        reg = self._registry()
        log = SnapshotLog()
        log.take(reg, at=1.0)
        reg.counter("engine_arrivals_total", strategy="jisc").inc(1)
        log.take(reg, at=2.0)
        assert len(log) == 2
        path = str(tmp_path / "snaps.jsonl")
        log.export_jsonl(path)
        loaded = load_snapshots(path)
        assert len(loaded) == 2
        assert loaded[-1] == log.last()
        # every line is standalone JSON
        with open(path) as fh:
            for line in fh:
                json.loads(line)
