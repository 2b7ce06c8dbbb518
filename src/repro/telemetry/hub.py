"""The telemetry hub: always-on engine instrumentation behind the tracer seam.

:class:`TelemetryTracer` is a :class:`~repro.obs.tracer.Tracer` whose
hooks feed *live* streaming estimators and plain counters instead of (or
in addition to) a post-hoc event ring.  Because every instrumentation site
in the engine already publishes through the tracer — arrivals, outputs,
phase scoping, transitions, rebalances, faults — and per-phase op counts
are the base class's boundary deltas over ``Metrics.counts``, the whole
engine becomes continuously self-measuring by attaching one object, with
**zero op-count perturbation** and on the same code path as an unobserved
run (certified row by row in ``BENCH_calls.json``, :mod:`repro.perf.regress`).  What
the hub adds to the seam: ``event`` (a kind -> handler table, then one
forward to ``inner``), ``arrival`` / ``output`` / ``poll``, and
:meth:`~TelemetryTracer.series`, the one renderer of its numbers.

Division of labour with :mod:`repro.obs`:

* **traces** (RecordingTracer) answer *what happened* after the run;
* **telemetry** (this module) answers *what is true right now* — windowed
  selectivities, arrival/output rates, drift flags, hot keys — in O(1)
  memory, while the stream is still flowing.

Wrap an obs tracer via ``inner=`` to get both at once: a snapshot is one
more event (kind ``snapshot``, the series view as its payload), so one
JSONL file carries the full story and the recorder's ring is the history.

:class:`ShardTelemetry` attaches one hub per shard worker (labels
``shard=i``) plus one to the coordinator, whose series view merges them
all — the per-shard view the dashboard renders.  It also registers itself
on the executor so crash recovery and scale-out attach a fresh hub to the
rebuilt worker.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.obs.histogram import LatencyHistogram
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
    EVENT_SNAPSHOT,
    EVENT_TRANSITION_END,
    EVENT_TRANSITION_START,
    EVENT_TRIGGER,
    TRIGGER_FIRED,
    TRIGGER_SUPPRESSED,
    TraceEvent,
    Tracer,
)
from repro.telemetry.estimators import SampledRate, SelectivityDriftDetector
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


def series_name(name: str, **labels: Any) -> str:
    """Flat ``name{k="v",...}`` key of one series, labels sorted by key."""
    if not labels:
        return name
    body = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{body}}}"


class TelemetryTracer(Tracer):
    """Live metrics hub for one engine (or one shard's worker).

    Parameters
    ----------
    strategy / shard:
        Label values stamped on every series of this hub.
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
        Take a snapshot (:meth:`take_snapshot`) every N arrivals (0 disables).
    """

    enabled = True

    def __init__(
        self,
        strategy: str = "engine",
        shard: Optional[int] = None,
        inner: Optional[Tracer] = None,
        selectivity_window: int = SELECTIVITY_WINDOW,
        drift_min_samples: int = 200,
        drift_block: int = DRIFT_BLOCK,
        snapshot_every: int = 0,
    ):
        self._labels: Dict[str, str] = {"strategy": strategy}
        if shard is not None:
            self._labels["shard"] = str(shard)
        self._inner = inner
        self.selectivity_window = selectivity_window
        self.drift_min_samples = drift_min_samples
        self.drift_block = min(drift_block, selectivity_window)
        self.snapshot_every = snapshot_every
        #: Hubs whose series this hub's view carries too: on a sharded
        #: coordinator, every shard's latest hub (filled by ShardTelemetry).
        self.shard_hubs: Dict[int, TelemetryTracer] = {}

        self._strategy: Optional["StrategyExecutor"] = None
        self._arrivals = 0
        # Hot-path accumulators: plain per-stream int counts and a key
        # buffer; rate sampling and the sketch drain happen at the poll
        # cadence so an arrival touches almost no telemetry memory.
        self._stream_counts: Dict[str, int] = {}
        self._key_buf: List[Any] = []
        rate_samples = RATE_WINDOW // PROBE_POLL_EVERY
        self._stream_rates: Dict[str, SampledRate] = {}
        self._outputs = 0
        self._output_rate = SampledRate(rate_samples)
        self._rate_samples = rate_samples
        self.topk = SpaceSavingSketch(TOPK_CAPACITY)
        # probed-operator label -> its selectivity / drift detector
        self._sel: Dict[str, SelectivityDriftDetector] = {}
        # Polled probe sources: [operator, label, detector-or-None, base
        # probes, base hits] per live-plan operator (see PROBE_POLL_EVERY).
        self._probe_sources: List[List[Any]] = []
        self._poll_left = PROBE_POLL_EVERY
        # Event tallies (the handler table below writes them).
        self._transitions = 0
        self._completions = 0
        self._checkpoints = 0
        self._faults = 0
        self._recoveries = 0
        self._snapshots = 0
        # Every operator label whose state size has been read: one that left
        # the live plans keeps its series and reads 0.
        self._state_labels: Dict[str, None] = {}
        # Series name -> value of the optimizer-trigger and shard-rebalance
        # series; each group appears at its first event (most hubs see none).
        self._trigger: Dict[str, Any] = {}
        self._rebalance: Dict[str, Any] = {}

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
        is lost across a plan transition.  A detector is created at the
        first polled probe of its label — an operator rebuilt by a
        transition or a recovery continues the *same* series.
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
            detector = src[2]
            if detector is None:
                detector = sel.get(src[1])
                if detector is None:
                    detector = sel[src[1]] = SelectivityDriftDetector(
                        window=self.selectivity_window,
                        block=self.drift_block,
                        min_samples=self.drift_min_samples,
                    )
                src[2] = detector
            detector.push_block(n, hits - src[4])
            src[3] = probes
            src[4] = hits

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
            self._stream_rates[stream] = SampledRate(self._rate_samples)
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
        self._transitions += 1
        # Old plans retire here: settle their deltas and poll only the
        # surviving operators from now on.
        self._collect_probe_sources()

    def _on_completion(self, data: Dict[str, Any]) -> None:
        self._completions += 1

    def _on_checkpoint(self, data: Dict[str, Any]) -> None:
        self._checkpoints += 1

    def _on_fault(self, data: Dict[str, Any]) -> None:
        self._faults += 1

    def _on_recovery(self, data: Dict[str, Any]) -> None:
        self._recoveries += 1

    def _on_trigger(self, data: Dict[str, Any]) -> None:
        series = self._trigger
        if not series:
            series.update(
                optimizer_trigger_evaluations_total=0,
                optimizer_trigger_fires_total=0,
                optimizer_trigger_suppressions_total=0,
                optimizer_cost_current=0.0,
                optimizer_cost_best=0.0,
            )
        series["optimizer_trigger_evaluations_total"] += 1
        action = data["action"]
        if action == TRIGGER_FIRED:
            series["optimizer_trigger_fires_total"] += 1
        elif action == TRIGGER_SUPPRESSED:
            series["optimizer_trigger_suppressions_total"] += 1
        for key, name in (
            ("current_cost", "optimizer_cost_current"),
            ("best_cost", "optimizer_cost_best"),
        ):
            cost = data.get(key)
            if cost is not None:
                series[name] = cost

    def _rebalance_series(self) -> Dict[str, Any]:
        """The shard-rebalance series, created at the first rebalance event."""
        series = self._rebalance
        if not series:
            series.update(
                shard_rebalances_total=0,
                shard_rebalance_pending=0.0,
                shard_keys_retired_total=0,
                shard_keys_settled_total=0,
                shard_moved_tuples_total=0,
                shard_rebalance_batches_remaining=0.0,
                shard_batch_move_latency=LatencyHistogram(),
            )
        return series

    def _on_rebalance_start(self, data: Dict[str, Any]) -> None:
        self._rebalance_series()["shard_rebalances_total"] += 1

    def _on_rebalance_end(self, data: Dict[str, Any]) -> None:
        series = self._rebalance_series()
        series["shard_rebalance_pending"] = 0
        series["shard_rebalance_batches_remaining"] = 0

    def _on_rebalance_batch_start(self, data: Dict[str, Any]) -> None:
        series = self._rebalance_series()
        series["shard_rebalance_batches_remaining"] = data["total"] - data["index"]
        keys = int(data.get("keys", 0))
        if keys:
            series["shard_rebalance_pending"] = keys

    def _on_rebalance_batch_end(self, data: Dict[str, Any]) -> None:
        series = self._rebalance_series()
        series["shard_rebalance_batches_remaining"] = data["total"] - data["index"] - 1
        duration = data.get("duration")
        if duration is not None:
            series["shard_batch_move_latency"].add(float(duration))

    def _on_shard_move(self, data: Dict[str, Any]) -> None:
        series = self._rebalance_series()
        if data.get("retired"):
            series["shard_keys_retired_total"] += 1
        else:
            series["shard_keys_settled_total"] += 1
        series["shard_moved_tuples_total"] += int(data.get("tuples", 0))
        pending = series["shard_rebalance_pending"]
        if pending > 0:
            series["shard_rebalance_pending"] = float(pending) - 1

    #: The event kinds the hub acts on itself; every kind is forwarded.
    _HANDLERS: Dict[str, Callable[["TelemetryTracer", Dict[str, Any]], None]] = {
        EVENT_TRANSITION_START: _on_transition_start,
        EVENT_TRANSITION_END: _on_transition_end,
        EVENT_COMPLETION: _on_completion,
        EVENT_CHECKPOINT: _on_checkpoint,
        EVENT_FAULT: _on_fault,
        EVENT_RECOVERY: _on_recovery,
        EVENT_TRIGGER: _on_trigger,
        EVENT_REBALANCE_START: _on_rebalance_start,
        EVENT_REBALANCE_END: _on_rebalance_end,
        EVENT_REBALANCE_BATCH_START: _on_rebalance_batch_start,
        EVENT_REBALANCE_BATCH_END: _on_rebalance_batch_end,
        EVENT_SHARD_MOVE: _on_shard_move,
    }

    # -- the series view ---------------------------------------------------------------

    def series(self) -> Dict[str, Any]:
        """Every series, polled first: ``name{k="v",...}`` -> current value.

        The one reader of the hub's numbers — snapshots, the dashboard and
        the tests all render through it, so nothing can be stale.  A
        sharded coordinator's view carries every shard hub's series too.
        """
        out = self._own_series()
        for hub in self.shard_hubs.values():
            out.update(hub._own_series())
        return out

    def _own_series(self) -> Dict[str, Any]:
        self._poll()
        out: Dict[str, Any] = {}
        labels = self._labels

        def put(name: str, value: Any, **extra: Any) -> None:
            out[series_name(name, **extra, **labels)] = value

        put("engine_phase", self.phase)
        put("engine_arrivals_total", self._arrivals)
        put("engine_outputs_total", self._outputs)
        put("engine_output_rate", self._output_rate.rate())
        put("engine_transitions_total", self._transitions)
        put("engine_completions_total", self._completions)
        put("engine_checkpoints_total", self._checkpoints)
        put("engine_faults_total", self._faults)
        put("engine_recoveries_total", self._recoveries)
        put("engine_hot_keys", self.topk.to_json())
        put("telemetry_snapshots_total", self._snapshots)
        for stream, n in self._stream_counts.items():
            put("engine_stream_arrivals_total", n, stream=stream)
            put("engine_arrival_rate", self._stream_rates[stream].rate(), stream=stream)
        for phase, by in self.phase_counts.items():
            for op, n in by.items():
                put("engine_ops_total", n, op=op, phase=phase)
        for label, detector in self._sel.items():
            estimate, smoothed, drifts, drifted = detector.summary()
            put("engine_selectivity", 0.0 if estimate is None else estimate, operator=label)
            put(
                "engine_selectivity_smoothed", 0.0 if smoothed is None else smoothed, operator=label
            )
            put("engine_drift_flag", 1 if drifted else 0, operator=label)
            put("engine_drift_events_total", drifts, operator=label)
        strategy = self._strategy
        if strategy is not None:
            # State sizes are read off the engine here, never on the arrival path.
            sizes = strategy.state_sizes()
            self._state_labels.update(dict.fromkeys(sizes))
            for label in self._state_labels:
                put("engine_state_entries", sizes.get(label, 0), operator=label)
            plans = strategy.live_plans()
            put("engine_live_plans", len(plans))
            put(
                "engine_incomplete_states",
                sum(not op.state.status.complete for plan in plans for op in plan.internal),
            )
        for name, value in self._trigger.items():
            put(name, value)
        for name, value in self._rebalance.items():
            put(name, value.summary() if isinstance(value, LatencyHistogram) else value)
        return out

    def take_snapshot(self) -> TraceEvent:
        """Publish the series view as one ``snapshot`` event at the current
        virtual time (an ``inner`` recorder keeps it like any event); the
        snapshot counter in it counts the snapshots taken before this one."""
        snapshot = TraceEvent(self._now(), EVENT_SNAPSHOT, self.phase, {"series": self.series()})
        self.event(EVENT_SNAPSHOT, snapshot.data)
        self._snapshots += 1
        return snapshot

    # -- introspection -----------------------------------------------------------------

    def selectivity_of(self, operator_label: str) -> Optional[float]:
        detector = self._sel.get(operator_label)
        return detector.estimate() if detector is not None else None

    def selectivity_sample(self, operator_label: str) -> Optional[Tuple[int, float]]:
        """``(windowed probe count, estimate)`` of one series, or None.

        The probe count is the weight the cost maintainer uses to
        aggregate the same operator's series across shard hubs.
        """
        detector = self._sel.get(operator_label)
        if detector is None:
            return None
        estimate = detector.estimate()
        if estimate is None:
            return None
        return detector.count, estimate

    def drift_events(self) -> int:
        return sum(d.drift_count for d in self._sel.values())

    def selectivities(self) -> Dict[str, Optional[float]]:
        return {label: d.estimate() for label, d in sorted(self._sel.items())}

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
    """One series view over a :class:`ShardedExecutor`'s workers.

    Attaches a labeled :class:`TelemetryTracer` to every live worker and
    one to the coordinator (which sees rebalance/fault events and the
    external-time axis, and whose :meth:`~TelemetryTracer.series` merges
    every shard hub's), then registers itself on the executor so
    :meth:`~repro.shard.executor.ShardedExecutor.recover_shard` and
    scale-out attach a fresh hub to the new worker: from then on that
    shard's series are the new hub's counts.
    """

    def __init__(
        self,
        executor: "ShardedExecutor",
        inner: Optional[Tracer] = None,
        snapshot_every: int = 0,
        **tracer_options: Any,
    ):
        self.executor = executor
        self._options = tracer_options
        self.coordinator = TelemetryTracer(
            strategy=executor.name,
            inner=inner,
            snapshot_every=snapshot_every,
            **tracer_options,
        )
        self.coordinator.attach(executor.metrics)
        #: Live workers' hubs; a retired shard's hub leaves this but stays
        #: in the view (``coordinator.shard_hubs``), its series frozen.
        self.workers: Dict[int, TelemetryTracer] = {}
        for shard, worker in enumerate(executor.workers):
            if worker is not None:
                self._attach_worker(shard, worker)
        executor.telemetry = self

    def _attach_worker(self, shard: int, worker: "ShardWorker") -> TelemetryTracer:
        tracer = TelemetryTracer(
            strategy=self.executor.strategy_name,
            shard=shard,
            **self._options,
        )
        tracer.attach(worker.strategy)
        self.workers[shard] = self.coordinator.shard_hubs[shard] = tracer
        return tracer

    def on_worker_recovered(self, shard: int, worker: "ShardWorker") -> None:
        """Crash-recovery hook: the rebuilt worker gets a fresh hub."""
        self._attach_worker(shard, worker)

    def on_worker_added(self, shard: int, worker: "ShardWorker") -> None:
        """Scale-out hook: the freshly spun-up worker gets its own hub (a
        re-occupied shard id's series are the new hub's, as after recovery)."""
        self._attach_worker(shard, worker)

    def on_worker_retired(self, shard: int) -> None:
        """Scale-in hook: the retired worker's hub stops being a live worker;
        its series stay in the view (history is part of the story the
        dashboard tells) and stop advancing."""
        self.workers.pop(shard, None)

    def series(self) -> Dict[str, Any]:
        """The coordinator's and every shard hub's series, current."""
        return self.coordinator.series()

    def take_snapshot(self) -> TraceEvent:
        return self.coordinator.take_snapshot()

    def hot_keys(self, shard: int, k: int = 10) -> List[Tuple[Any, int, int]]:
        tracer = self.workers.get(shard)
        return tracer.topk.top(k) if tracer is not None else []
