"""Labeled metrics registry: the live-series store of the telemetry layer.

The registry is the single place every runtime series lives.  Instruments
are *registered once* at engine/module init and *updated* from hot
paths; readers — the Prometheus-style text exposition, the JSONL snapshot
writer, and the terminal dashboard (:mod:`repro.telemetry.dash`) — only
ever walk :meth:`MetricsRegistry.collect`, so anything the engine publishes
is exported with no second bookkeeping path that could disagree
(docs/TELEMETRY.md).

Three instrument kinds, all deterministic and wall-clock-free:

* :class:`Counter` — monotone count (operations, arrivals, drift events).
* :class:`Gauge` — last-written value (phase, pending keys, estimates).
* :class:`Histogram` — bounded geometric buckets (latencies), backed by
  :class:`repro.obs.histogram.LatencyHistogram`.

Labels are plain ``str -> str`` pairs; the conventional keys are
``operator``, ``strategy``, ``shard`` and ``phase``.  ``(name, labels)``
identifies a series: registering the same pair twice returns the same
instrument (so re-registration after crash recovery is idempotent),
registering the same pair as a different kind is an error.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Type, TypeVar

from repro.obs.histogram import LatencyHistogram

#: Canonical label form: pairs sorted by label key.
LabelSet = Tuple[Tuple[str, str], ...]

#: Registry key of one series.
SeriesKey = Tuple[str, LabelSet]


def canonical_labels(labels: Mapping[str, Any]) -> LabelSet:
    """Sort labels by key and stringify values (stable series identity)."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def series_name(name: str, labels: LabelSet) -> str:
    """Flat ``name{k="v",...}`` form used by exposition and snapshots."""
    if not labels:
        return name
    body = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{body}}}"


class Instrument:
    """Base of all registered series: a name, canonical labels, a kind."""

    kind = "abstract"

    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: LabelSet):
        self.name = name
        self.labels = labels

    @property
    def series(self) -> str:
        return series_name(self.name, self.labels)

    def value_json(self) -> Any:
        """JSON-shaped current value (snapshot payload)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.series})"


class Counter(Instrument):
    """Monotonically increasing count."""

    kind = "counter"

    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelSet):
        super().__init__(name, labels)
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += n

    def value_json(self) -> Any:
        return self.value


class Gauge(Instrument):
    """Last-written value; may be numeric or a short string (e.g. a phase)."""

    kind = "gauge"

    __slots__ = ("value",)

    def __init__(self, name: str, labels: LabelSet):
        super().__init__(name, labels)
        self.value: Any = 0.0

    def set(self, value: Any) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value = float(self.value) + delta

    def value_json(self) -> Any:
        return self.value


class Histogram(Instrument):
    """Geometric-bucket histogram over non-negative samples."""

    kind = "histogram"

    __slots__ = ("hist",)

    def __init__(
        self,
        name: str,
        labels: LabelSet,
        least: float = 1.0,
        growth: float = 1.25,
        n_buckets: int = 96,
    ):
        super().__init__(name, labels)
        self.hist = LatencyHistogram(least=least, growth=growth, n_buckets=n_buckets)

    def observe(self, value: float) -> None:
        self.hist.add(value)

    def summary(self) -> Dict[str, float]:
        return self.hist.summary()

    def value_json(self) -> Any:
        return self.summary()


InstrumentT = TypeVar("InstrumentT", bound=Instrument)


class MetricsRegistry:
    """Get-or-create store of labeled instruments.

    Registration is idempotent for an identical ``(name, labels, kind)``
    triple — crash recovery re-registers every series it owned and gets
    the surviving instruments back (docs/TELEMETRY.md, "recovery").
    Asking for an existing series under a different kind raises.
    """

    def __init__(self) -> None:
        self._instruments: Dict[SeriesKey, Instrument] = {}

    # -- registration ------------------------------------------------------------------

    def _get_or_create(
        self, cls: Type[InstrumentT], name: str, labels: Mapping[str, Any], **kwargs: Any
    ) -> InstrumentT:
        if not name:
            raise ValueError("instrument name must be non-empty")
        key: SeriesKey = (name, canonical_labels(labels))
        existing = self._instruments.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"series {series_name(*key)} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            return existing
        instrument = cls(name, key[1], **kwargs)
        self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        least: float = 1.0,
        growth: float = 1.25,
        n_buckets: int = 96,
        **labels: Any,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, labels, least=least, growth=growth, n_buckets=n_buckets
        )

    # -- reading -----------------------------------------------------------------------

    def collect(self) -> Iterator[Instrument]:
        """All instruments, sorted by (name, labels) for stable output."""
        for key in sorted(self._instruments):
            yield self._instruments[key]

    def get(self, name: str, **labels: Any) -> Optional[Instrument]:
        return self._instruments.get((name, canonical_labels(labels)))

    def with_name(self, name: str) -> List[Instrument]:
        return [ins for ins in self.collect() if ins.name == name]

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return any(key[0] == name for key in self._instruments)
