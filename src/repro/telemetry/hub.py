"""The telemetry hub: always-on engine instrumentation behind the tracer seam.

:class:`TelemetryTracer` is a :class:`~repro.obs.tracer.Tracer` whose
hooks feed *live* streaming estimators and a labeled
:class:`~repro.telemetry.registry.MetricsRegistry` instead of (or in
addition to) a post-hoc event ring.  Because every instrumentation site
in the engine already publishes through the tracer — arrivals, outputs,
phase scoping, transitions, rebalances, faults — and per-phase op counts
are the base class's boundary deltas over ``Metrics.counts``, the whole
engine becomes continuously self-measuring by attaching one object, with
**zero op-count perturbation** and on the same code path as an unobserved
run (certified row by row in ``BENCH_calls.json``, :mod:`repro.perf.regress`).  What
the hub adds to the seam: ``event`` (a kind -> handler table, then one
forward to ``inner``), ``arrival`` / ``output`` / ``poll``, and ``sync``.

Division of labour with :mod:`repro.obs`:

* **traces** (RecordingTracer) answer *what happened* after the run;
* **telemetry** (this module) answers *what is true right now* — windowed
  selectivities, arrival/output rates, drift flags, hot keys — in O(1)
  memory, while the stream is still flowing.

Wrap an obs tracer via ``inner=`` to get both at once; periodic registry
snapshots are then interleaved into the trace as ``telemetry`` note
events, so one JSONL file carries the full story.

:class:`ShardTelemetry` attaches one hub per shard worker (labels
``shard=i``) plus one to the coordinator, all publishing into a single
shared registry — the per-shard view the dashboard renders.  It also
registers itself on the executor so crash recovery re-attaches and
re-registers every series the rebuilt worker owns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.tracer import (
    EVENT_CHECKPOINT,
    EVENT_COMPLETION,
    EVENT_FAULT,
    EVENT_REBALANCE_BATCH_END,
    EVENT_REBALANCE_BATCH_START,
    EVENT_REBALANCE_END,
    EVENT_REBALANCE_START,
    EVENT_RECOVERY,
    EVENT_SHARD_MOVE,
    EVENT_TRANSITION_END,
    EVENT_TRANSITION_START,
    EVENT_TRIGGER,
    TRIGGER_FIRED,
    TRIGGER_SUPPRESSED,
    Tracer,
)
from repro.telemetry.estimators import SampledRate, SelectivityDriftDetector
from repro.telemetry.expo import SnapshotLog, registry_snapshot
from repro.telemetry.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.sketch import SpaceSavingSketch

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.engine.executor import StrategyExecutor
    from repro.shard.executor import ShardedExecutor
    from repro.shard.worker import ShardWorker
    from repro.streams.tuples import AnyTuple, StreamTuple

#: Default sliding window of the per-operator selectivity estimators
#: ("what is the selectivity over the last 5k probes, right now?").
SELECTIVITY_WINDOW = 5000

#: Sliding window (in arrivals) of the rate estimators.
RATE_WINDOW = 1024

#: Cell count of the per-hub hot-key sketch.  128 cells is a few
#: KB per hub, monitors typical key domains exactly (no eviction churn on
#: the hot path), and keeps top-k recall high on heavy-tailed workloads.
TOPK_CAPACITY = 128

#: Default probe-block size of the drift detectors: EWMA/Page–Hinkley
#: advance once per ``block`` probes (weighted by the block size, so
#: thresholds keep their per-probe meaning).  Worst-case windowed-estimate
#: error vs an exact recompute is block/window = 1.28%, inside the 2%
#: acceptance bound certified by the estimator tests.
DRIFT_BLOCK = 64

#: How many arrivals between polls of the operators' probe tallies.
#: Operators tally probes/hits natively (two int adds, always on — see
#: :class:`~repro.operators.base.Operator`); the hub reads deltas at this
#: cadence instead of intercepting every probe, so attaching telemetry
#: adds zero per-probe work (its calls per arrival are a committed count,
#: ``BENCH_calls.json``).  Each poll has a per-source/per-stream fixed cost
#: (~30us with 41 operators), so the interval directly sets the
#: telemetry tax: 64 amortizes it to well under 1us per arrival while
#: still sampling rates and selectivities every 64 tuples — far finer
#: than the 5k-probe selectivity window or 1k-arrival rate window need.
PROBE_POLL_EVERY = 64


class TelemetryTracer(Tracer):
    """Live metrics hub for one engine (or one shard's worker).

    Parameters
    ----------
    registry:
        Shared :class:`MetricsRegistry` to publish into (fresh if omitted).
    strategy / shard:
        Label values stamped on every series this hub registers.
    inner:
        Optional downstream tracer (normally a
        :class:`~repro.obs.tracer.RecordingTracer`); every hook is
        forwarded so traces and telemetry come from one attachment.
    selectivity_window:
        Extent of the per-operator selectivity estimate (see module constants).
    drift_min_samples:
        Page–Hinkley warm-up of the per-operator drift detectors.
    drift_block:
        Probe-block size of the drift detectors (see :data:`DRIFT_BLOCK`);
        clamped to ``selectivity_window``.  ``1`` makes the windowed
        estimate exact at higher per-probe cost.
    snapshot_every:
        Take a registry snapshot every N arrivals (0 disables); snapshots
        accumulate in ``snapshots`` (a :class:`SnapshotLog`) and are
        interleaved into the inner trace as ``telemetry`` notes.
    """

    enabled = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        strategy: str = "engine",
        shard: Optional[int] = None,
        inner: Optional[Tracer] = None,
        selectivity_window: int = SELECTIVITY_WINDOW,
        drift_min_samples: int = 200,
        drift_block: int = DRIFT_BLOCK,
        snapshot_every: int = 0,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._labels: Dict[str, str] = {"strategy": strategy}
        if shard is not None:
            self._labels["shard"] = str(shard)
        self._inner = inner
        self.selectivity_window = selectivity_window
        self.drift_min_samples = drift_min_samples
        self.drift_block = min(drift_block, selectivity_window)
        self.snapshot_every = snapshot_every
        self.snapshots = SnapshotLog()

        self._strategy: Optional["StrategyExecutor"] = None
        self._op_counters: Dict[Tuple[str, str], Counter] = {}
        self._arrivals = 0
        # Hot-path accumulators: plain per-stream int counts and a key
        # buffer; rate sampling and the sketch drain happen at the poll
        # cadence so an arrival touches almost no telemetry memory.
        self._stream_counts: Dict[str, int] = {}
        self._key_buf: List[Any] = []
        rate_samples = RATE_WINDOW // PROBE_POLL_EVERY
        self._stream_rates: Dict[str, SampledRate] = {}
        self._rate_gauges: Dict[str, Tuple[Counter, Gauge]] = {}
        self._outputs = 0
        self._output_rate = SampledRate(rate_samples)
        self._rate_samples = rate_samples
        self.topk = SpaceSavingSketch(TOPK_CAPACITY)
        # probed-operator label -> (detector, estimate gauge, smoothed
        # gauge, flag gauge, drift-event counter)
        self._sel: Dict[str, Tuple[SelectivityDriftDetector, Gauge, Gauge, Gauge, Counter]] = {}
        # Polled probe sources: [operator, label, entry-or-None, base
        # probes, base hits] per live-plan operator (see PROBE_POLL_EVERY).
        self._probe_sources: List[List[Any]] = []
        self._poll_left = PROBE_POLL_EVERY

        labels = self._labels
        reg = self.registry
        self._phase_gauge = reg.gauge("engine_phase", **labels)
        self._phase_gauge.set(self.phase)
        self._arrivals_total = reg.counter("engine_arrivals_total", **labels)
        self._outputs_total = reg.counter("engine_outputs_total", **labels)
        self._output_rate_gauge = reg.gauge("engine_output_rate", **labels)
        self._transitions_total = reg.counter("engine_transitions_total", **labels)
        self._completions_total = reg.counter("engine_completions_total", **labels)
        self._checkpoints_total = reg.counter("engine_checkpoints_total", **labels)
        self._faults_total = reg.counter("engine_faults_total", **labels)
        self._recoveries_total = reg.counter("engine_recoveries_total", **labels)
        self._hot_keys = reg.gauge("engine_hot_keys", **labels)
        self._snapshots_total = reg.counter("telemetry_snapshots_total", **labels)
        # Shard-rebalance series are registered on the first rebalance
        # event (most hubs never see one) — see _register_shard_series.
        self._shard_series_ready = False
        self._rebalances_total: Counter
        self._rebalance_pending: Gauge
        self._keys_retired_total: Counter
        self._keys_settled_total: Counter
        self._moved_tuples_total: Counter
        self._batches_remaining: Gauge
        self._batch_latency: Histogram
        # So are the state-size series, at the first sync over a strategy.
        self._state_entries: Dict[str, Gauge] = {}
        self._live_plans: Gauge
        self._incomplete_states: Gauge
        # Optimizer-trigger series follow the same lazy pattern: only hubs
        # driven by an adaptive engine ever see a trigger decision.
        self._trigger_series_ready = False
        self._trigger_evaluations: Counter
        self._trigger_fires: Counter
        self._trigger_suppressions: Counter
        self._trigger_cost_current: Gauge
        self._trigger_cost_best: Gauge

    # -- wiring -----------------------------------------------------------------------

    def attach(self, target: Any) -> Any:
        """Attach to a strategy or a Metrics (:meth:`Tracer.attach`); the
        inner tracer follows the same ``Metrics``, and a strategy's probe
        sources are collected for polling.  Returns ``target``."""
        if self._inner is not None:
            self._inner.attach(target)
        super().attach(target)  # last: ``metrics.tracer`` is the hub
        if target is not self._metrics:
            self._strategy = target
            self._collect_probe_sources()
        return target

    def _collect_probe_sources(self) -> None:
        """(Re)build the list of probe sources whose tallies we poll.

        Settles outstanding deltas of the outgoing set first, so no probe
        is lost across a plan transition.  Selectivity series are
        registered lazily at the first polled probe, keyed by label — an
        operator rebuilt by a transition or a recovery continues the
        *same* series.
        """
        strategy = self._strategy
        if strategy is None:
            return
        self._poll_probes()
        self._probe_sources = [
            [source, label, None, source.probes, source.hits]
            for label, source in strategy.probe_sources()
        ]

    def _poll_probes(self) -> None:
        """Fold probe-tally deltas of every source into its detector."""
        sel = self._sel
        for src in self._probe_sources:
            op = src[0]
            probes = op.probes
            n = probes - src[3]
            if not n:
                continue
            hits = op.hits
            entry = src[2]
            if entry is None:
                entry = sel.get(src[1])
                if entry is None:
                    entry = self._register_selectivity(src[1])
                src[2] = entry
            if entry[0].push_block(n, hits - src[4]):
                entry[4].inc()
            src[3] = probes
            src[4] = hits

    def _register_selectivity(
        self, label: str
    ) -> Tuple[SelectivityDriftDetector, Gauge, Gauge, Gauge, Counter]:
        detector = SelectivityDriftDetector(
            window=self.selectivity_window,
            block=self.drift_block,
            min_samples=self.drift_min_samples,
        )
        reg = self.registry
        entry = (
            detector,
            reg.gauge("engine_selectivity", operator=label, **self._labels),
            reg.gauge("engine_selectivity_smoothed", operator=label, **self._labels),
            reg.gauge("engine_drift_flag", operator=label, **self._labels),
            reg.counter("engine_drift_events_total", operator=label, **self._labels),
        )
        self._sel[label] = entry
        return entry

    def _register_stream(self, stream: str) -> None:
        self._stream_rates[stream] = SampledRate(self._rate_samples)
        self._rate_gauges[stream] = (
            self.registry.counter("engine_stream_arrivals_total", stream=stream, **self._labels),
            self.registry.gauge("engine_arrival_rate", stream=stream, **self._labels),
        )

    def _now(self) -> float:
        clock = self._clock
        return clock.now if clock is not None else float(self._arrivals)

    # -- phase scoping (attribution itself is the base class's) ------------------------

    def set_phase(self, phase: str) -> str:
        prev = self.phase
        if phase != prev:
            super().set_phase(phase)  # the base class checks the entry
        if self._inner is not None:
            self._inner.set_phase(phase)
        return prev

    # -- hot-path hooks ----------------------------------------------------------------

    def arrival(self, tup: "StreamTuple") -> None:
        # Per-arrival hot path: bump a per-stream int, buffer the key,
        # tick the poll countdown.  Everything heavier — the sketch, rate
        # sampling, probe-tally deltas — runs at the poll cadence
        # (:data:`PROBE_POLL_EVERY`) in :meth:`_poll`, so an arrival
        # touches almost no telemetry memory (``BENCH_calls.json`` holds its
        # calls per arrival).
        arrivals = self._arrivals = self._arrivals + 1
        counts = self._stream_counts
        stream = tup.stream
        try:
            counts[stream] += 1
        except KeyError:
            counts[stream] = 1
            self._register_stream(stream)
        self._key_buf.append(tup.key)
        left = self._poll_left = self._poll_left - 1
        if not left:
            self._poll_left = PROBE_POLL_EVERY
            self._poll()
        if self._inner is not None:
            self._inner.arrival(tup)
        if self.snapshot_every and arrivals % self.snapshot_every == 0:
            self.take_snapshot()

    def output(self, tup: "AnyTuple", when: float) -> None:
        self._outputs += 1
        if self._inner is not None:
            self._inner.output(tup, when)

    def poll(self) -> None:
        """Drain the hot-path accumulators now, off-cadence.

        The adaptive cost maintainer (:mod:`repro.optimizer`) calls this
        before reading :meth:`selectivity_sample` so trigger decisions see
        every probe tallied so far, not just up to the last 64-arrival
        poll boundary.  Idempotent and cheap when nothing is outstanding.
        """
        self._poll()

    def _poll(self) -> None:
        """Periodic drain: sketch buffer, rate samples, probe tallies."""
        buf = self._key_buf
        if buf:
            self.topk.offer_all(buf)
            del buf[:]
        now = self._now()
        rates = self._stream_rates
        for stream, n in self._stream_counts.items():
            rates[stream].sample(now, n)
        self._output_rate.sample(now, self._outputs)
        self._poll_probes()

    # -- the event path ----------------------------------------------------------------

    def event(self, kind: str, data: Dict[str, Any]) -> None:
        """Act on the kinds in :attr:`_HANDLERS`, then forward to ``inner``."""
        handler = self._HANDLERS.get(kind)
        if handler is not None:
            handler(self, data)
        if self._inner is not None:
            self._inner.event(kind, data)

    def _on_transition_start(self, data: Dict[str, Any]) -> None:
        # A new plan (or parallel track) is live from here on: re-collect
        # the polled operator set (settling the outgoing set's deltas).
        self._collect_probe_sources()

    def _on_transition_end(self, data: Dict[str, Any]) -> None:
        self._transitions_total.inc()
        # Old plans retire here: settle their deltas and poll only the
        # surviving operators from now on.
        self._collect_probe_sources()

    def _register_trigger_series(self) -> None:
        """Resolve the optimizer-trigger instruments (first decision)."""
        if self._trigger_series_ready:
            return
        reg = self.registry
        labels = self._labels
        self._trigger_evaluations = reg.counter("optimizer_trigger_evaluations_total", **labels)
        self._trigger_fires = reg.counter("optimizer_trigger_fires_total", **labels)
        self._trigger_suppressions = reg.counter("optimizer_trigger_suppressions_total", **labels)
        self._trigger_cost_current = reg.gauge("optimizer_cost_current", **labels)
        self._trigger_cost_best = reg.gauge("optimizer_cost_best", **labels)
        self._trigger_series_ready = True

    def _on_trigger(self, data: Dict[str, Any]) -> None:
        self._register_trigger_series()
        self._trigger_evaluations.inc()
        action = data["action"]
        if action == TRIGGER_FIRED:
            self._trigger_fires.inc()
        elif action == TRIGGER_SUPPRESSED:
            self._trigger_suppressions.inc()
        cost = data.get("current_cost")
        if cost is not None:
            self._trigger_cost_current.set(cost)
        cost = data.get("best_cost")
        if cost is not None:
            self._trigger_cost_best.set(cost)

    def _register_shard_series(self) -> None:
        """Resolve the shard-rebalance instruments (first shard event)."""
        if self._shard_series_ready:
            return
        reg = self.registry
        labels = self._labels
        self._rebalances_total = reg.counter("shard_rebalances_total", **labels)
        self._rebalance_pending = reg.gauge("shard_rebalance_pending", **labels)
        self._keys_retired_total = reg.counter("shard_keys_retired_total", **labels)
        self._keys_settled_total = reg.counter("shard_keys_settled_total", **labels)
        self._moved_tuples_total = reg.counter("shard_moved_tuples_total", **labels)
        self._batches_remaining = reg.gauge("shard_rebalance_batches_remaining", **labels)
        self._batch_latency = reg.histogram("shard_batch_move_latency", **labels)
        self._shard_series_ready = True

    def _on_rebalance_start(self, data: Dict[str, Any]) -> None:
        self._register_shard_series()
        self._rebalances_total.inc()

    def _on_rebalance_end(self, data: Dict[str, Any]) -> None:
        self._register_shard_series()
        self._rebalance_pending.set(0)
        self._batches_remaining.set(0)

    def _on_rebalance_batch_start(self, data: Dict[str, Any]) -> None:
        self._register_shard_series()
        self._batches_remaining.set(data["total"] - data["index"])
        keys = int(data.get("keys", 0))
        if keys:
            self._rebalance_pending.set(keys)

    def _on_rebalance_batch_end(self, data: Dict[str, Any]) -> None:
        self._register_shard_series()
        self._batches_remaining.set(data["total"] - data["index"] - 1)
        duration = data.get("duration")
        if duration is not None:
            self._batch_latency.observe(float(duration))

    def _on_shard_move(self, data: Dict[str, Any]) -> None:
        self._register_shard_series()
        if data.get("retired"):
            self._keys_retired_total.inc()
        else:
            self._keys_settled_total.inc()
        self._moved_tuples_total.inc(int(data.get("tuples", 0)))
        pending = self._rebalance_pending
        if isinstance(pending.value, (int, float)) and pending.value > 0:
            pending.add(-1)

    #: The event kinds the hub acts on itself; every kind is forwarded.
    _HANDLERS: Dict[str, Callable[["TelemetryTracer", Dict[str, Any]], None]] = {
        EVENT_TRANSITION_START: _on_transition_start,
        EVENT_TRANSITION_END: _on_transition_end,
        EVENT_COMPLETION: lambda self, data: self._completions_total.inc(),
        EVENT_CHECKPOINT: lambda self, data: self._checkpoints_total.inc(),
        EVENT_FAULT: lambda self, data: self._faults_total.inc(),
        EVENT_RECOVERY: lambda self, data: self._recoveries_total.inc(),
        EVENT_TRIGGER: _on_trigger,
        EVENT_REBALANCE_START: _on_rebalance_start,
        EVENT_REBALANCE_END: _on_rebalance_end,
        EVENT_REBALANCE_BATCH_START: _on_rebalance_batch_start,
        EVENT_REBALANCE_BATCH_END: _on_rebalance_batch_end,
        EVENT_SHARD_MOVE: _on_shard_move,
    }

    # -- materialization ---------------------------------------------------------------

    def sync(self) -> MetricsRegistry:
        """Materialize the hot-path accumulators into registry instruments.

        Idempotent — counters are *set* to the accumulated totals, so
        exposition readers may sync as often as they like.
        """
        self._poll()
        op_counters = self._op_counters
        op_counter = self._register_op_counter
        for phase, by in self.phase_counts.items():
            for op, n in by.items():
                counter = op_counters.get((op, phase))
                if counter is None:
                    counter = op_counter(op, phase)
                counter.value = n
        self._phase_gauge.set(self.phase)
        self._arrivals_total.value = self._arrivals
        for stream, n in self._stream_counts.items():
            total, rate = self._rate_gauges[stream]
            total.value = n
            rate.set(self._stream_rates[stream].rate())
        self._outputs_total.value = self._outputs
        self._output_rate_gauge.set(self._output_rate.rate())
        for entry in self._sel.values():
            detector, estimate, smoothed, flag, _ = entry
            value = detector.estimate()
            if value is not None:
                estimate.set(value)
            ewma = detector.smoothed()
            if ewma is not None:
                smoothed.set(ewma)
            flag.set(1 if detector.drifted else 0)
        self._hot_keys.set(self.topk.to_json())
        if self._strategy is not None:
            self._sync_state(self._strategy)
        return self.registry

    def _register_op_counter(self, op: str, phase: str) -> Counter:
        counter = self.registry.counter(
            "engine_ops_total", op=op, phase=phase, **self._labels
        )
        self._op_counters[(op, phase)] = counter
        return counter

    def _sync_state(self, strategy: "StrategyExecutor") -> None:
        """State-size gauges, read off the engine here — at sync cadence,
        never on the arrival path.  A label that left the live plans reads 0."""
        sizes = strategy.state_sizes()
        self._register_state_series(sizes)
        for label, gauge in self._state_entries.items():
            gauge.set(sizes.get(label, 0))
        plans = strategy.live_plans()
        self._live_plans.set(len(plans))
        self._incomplete_states.set(
            sum(not op.state.status.complete for plan in plans for op in plan.internal)
        )

    def _register_state_series(self, labels: Iterable[str]) -> None:
        """Resolve the state-size instruments: the plan-level gauges at the
        first sync over a strategy, one gauge per operator label as it appears."""
        reg = self.registry
        gauges = self._state_entries
        if not gauges:
            self._live_plans = reg.gauge("engine_live_plans", **self._labels)
            self._incomplete_states = reg.gauge("engine_incomplete_states", **self._labels)
        for label in labels:
            if label not in gauges:
                gauges[label] = reg.gauge(
                    "engine_state_entries", operator=label, **self._labels
                )

    # -- snapshots ---------------------------------------------------------------------

    def take_snapshot(self) -> Dict[str, Any]:
        """Sync and record one JSONL-able registry snapshot.

        When an inner obs tracer is recording, a compact ``telemetry``
        note is interleaved into its event stream at the same virtual
        time, so the trace timeline shows when each snapshot was cut.
        """
        self.sync()
        snap = registry_snapshot(self.registry, at=self._now())
        self.snapshots.append(snap)
        self._snapshots_total.inc()
        inner = self._inner
        if inner is not None and inner.enabled:
            inner.note(
                "telemetry",
                arrivals=self._arrivals,
                outputs=self._outputs,
                series=len(self.registry),
                drifts=sum(e[0].drift_count for e in self._sel.values()),
            )
        return snap

    # -- introspection -----------------------------------------------------------------

    def selectivity_of(self, operator_label: str) -> Optional[float]:
        entry = self._sel.get(operator_label)
        return entry[0].estimate() if entry is not None else None

    def selectivity_sample(self, operator_label: str) -> Optional[Tuple[int, float]]:
        """``(windowed probe count, estimate)`` of one series, or None.

        The probe count is the weight the cost maintainer uses to
        aggregate the same operator's series across shard hubs.
        """
        entry = self._sel.get(operator_label)
        if entry is None:
            return None
        estimate = entry[0].estimate()
        if estimate is None:
            return None
        return entry[0].count, estimate

    def drifted(self, operator_label: Optional[str] = None) -> bool:
        """Latched drift flag of one operator (or any, when omitted)."""
        if operator_label is not None:
            entry = self._sel.get(operator_label)
            return entry[0].drifted if entry is not None else False
        return any(e[0].drifted for e in self._sel.values())

    def drift_events(self) -> int:
        return sum(e[0].drift_count for e in self._sel.values())

    def selectivities(self) -> Dict[str, Optional[float]]:
        return {label: e[0].estimate() for label, e in sorted(self._sel.items())}

    def arrival_rates(self) -> Dict[str, float]:
        """Per-stream arrival rates (tuples per virtual-time unit)."""
        return {
            stream: rate.rate()
            for stream, rate in sorted(self._stream_rates.items())
        }

    @property
    def arrivals_seen(self) -> int:
        """Total arrivals this hub has observed (the shard-load signal the
        optimizer's rebalance trigger differences per evaluation window)."""
        return self._arrivals


class ShardTelemetry:
    """One shared registry over a :class:`ShardedExecutor`'s workers.

    Attaches a labeled :class:`TelemetryTracer` to every live worker and
    one to the coordinator (which sees rebalance/fault events and the
    external-time axis), then registers itself on the executor so
    :meth:`~repro.shard.executor.ShardedExecutor.recover_shard`
    re-attaches the rebuilt worker — recovery *re-registers* its series
    idempotently instead of orphaning them.
    """

    def __init__(
        self,
        executor: "ShardedExecutor",
        registry: Optional[MetricsRegistry] = None,
        inner: Optional[Tracer] = None,
        snapshot_every: int = 0,
        **tracer_options: Any,
    ):
        self.executor = executor
        self.registry = registry if registry is not None else MetricsRegistry()
        self._options = tracer_options
        self.coordinator = TelemetryTracer(
            self.registry,
            strategy=executor.name,
            inner=inner,
            snapshot_every=snapshot_every,
            **tracer_options,
        )
        self.coordinator.attach(executor.metrics)
        self.workers: Dict[int, TelemetryTracer] = {}
        for shard, worker in enumerate(executor.workers):
            if worker is not None:
                self._attach_worker(shard, worker)
        executor.telemetry = self

    def _attach_worker(self, shard: int, worker: "ShardWorker") -> TelemetryTracer:
        tracer = TelemetryTracer(
            self.registry,
            strategy=self.executor.strategy_name,
            shard=shard,
            **self._options,
        )
        tracer.attach(worker.strategy)
        self.workers[shard] = tracer
        return tracer

    def on_worker_recovered(self, shard: int, worker: "ShardWorker") -> None:
        """Crash-recovery hook: re-attach and re-register the shard's series."""
        self._attach_worker(shard, worker)

    def on_worker_added(self, shard: int, worker: "ShardWorker") -> None:
        """Scale-out hook: give the freshly spun-up worker its own hub.

        A re-occupied shard id (scale-out after scale-in) gets a fresh
        attachment over the existing series — the registry is labeled by
        shard, so the new incarnation continues the old id's series, same
        as crash recovery does.
        """
        self._attach_worker(shard, worker)

    def on_worker_retired(self, shard: int) -> None:
        """Scale-in hook: stop syncing the retired worker's hub.

        Its series stay in the registry (history is part of the story the
        dashboard tells); they just stop advancing.
        """
        self.workers.pop(shard, None)

    def sync(self) -> MetricsRegistry:
        """Materialize every hub into the shared registry."""
        self.coordinator.sync()
        for tracer in self.workers.values():
            tracer.sync()
        return self.registry

    def take_snapshot(self) -> Dict[str, Any]:
        self.sync()
        return self.coordinator.take_snapshot()

    def hot_keys(self, shard: int, k: int = 10) -> List[Tuple[Any, int, int]]:
        tracer = self.workers.get(shard)
        return tracer.topk.top(k) if tracer is not None else []
