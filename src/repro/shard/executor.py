"""Sharded multi-engine coordinator with JISC-lazy rebalancing.

:class:`ShardedExecutor` runs N independent single-engine workers (any
existing strategy) over a hash-partitioned key space and merges their
output logs into one deterministic virtual-time-ordered sink.  The
coordinator owns three things the workers must not (docs/SHARDING.md):

* **Global windows.**  Count/time windows are per *stream*, not per
  shard; the coordinator maintains the only windows there are and
  delivers each eviction to the owning worker explicitly (workers run a
  driven schema: their scans and SteMs build no window).

* **External time.**  Arrival ``i`` exists at ``T(i) = i *
  inter_arrival``; a worker's virtual clock is caught up to ``T`` before
  it touches the event, so per-output latency (emission time minus the
  completing arrival's ``T``) models a real input queue.  This is the
  quantity the lazy-vs-eager rebalance benchmark compares.

* **Rebalancing.**  Every rebalance is a fluid plan run by one
  :class:`RebalanceScheduler` (``rebalance`` is the one-batch plan): a
  batch flips its buckets' assignment and either moves every affected
  key immediately (*eager*, the Megaphone-like baseline) or marks them
  pending and completes each key just in time on its first
  post-rebalance arrival (*lazy*, the JISC discipline); a pending key
  whose live tuples all expire is retired, mirroring
  :meth:`repro.core.controller.JISCController._bind_expiry`.

A key moves as state: the source's ``extract`` hands its buckets and part-index
dicts to the destination's ``install`` whole (a JISC source completes it first).

Every worker-bound command is journaled per shard, so a crashed worker
(:meth:`ShardedExecutor.crash_shard`) is rebuilt deterministically from
its log alone; preserved merge cursors make delivery exactly-once.

The arrival path (:meth:`ShardedExecutor.process_batch`) is the steady
state, so it is written to leave nothing behind but the work itself: the
journal and the merged sink are columnar (no per-entry object), a live
key's bucket is hashed once per liveness span, and the whole arrival —
window push, eviction delivery, just-in-time completion, feed, journal —
is one loop body whose two worker calls are the owners' compiled doors,
carrying each worker's clock and tallies across the run
(docs/SHARDING.md, "The arrival path").
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

from repro.engine.cost import CostModel, VirtualClock
from repro.engine.executor import TransitionEvent
from repro.engine.metrics import Metrics, work_units
from repro.migration.base import SpecLike, as_spec
from repro.obs.tracer import PHASE_RECOVERING
from repro.operators.fused import Kernel
from repro.plans.spec import left_deep_order
from repro.shard.merge import MergedOutput, ShardMerger
from repro.shard.partition import HashPartitioner, balanced_assignment, stable_hash
from repro.shard.rebalance import (
    FluidRebalancePlan,
    RebalanceSession,
    ShardMove,
    check_batch_keys,
    check_mode,
    plan_key_routes,
)
from repro.shard.worker import CommandLog, ShardWorker, driven_schema, make_strategy
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple, parts_of
from repro.streams.window import SlidingWindow, TimeSlidingWindow

GlobalWindow = Union[SlidingWindow, TimeSlidingWindow]


class RebalanceEvent:
    """A scheduled shard rebalance, interleavable with arrivals.

    ``batch_keys`` is the plan's granularity: ``0`` (default) =
    all-at-once, ``1`` = per-key, ``n`` = batch-of-n.
    """

    __slots__ = ("assignment", "mode", "batch_keys")

    def __init__(
        self,
        assignment: Mapping[int, int],
        mode: Optional[str] = None,
        batch_keys: int = 0,
    ):
        check_batch_keys(batch_keys)
        self.assignment = dict(assignment)
        self.mode = mode
        self.batch_keys = batch_keys

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RebalanceEvent(mode={self.mode!r}, buckets={len(self.assignment)}, "
            f"batch_keys={self.batch_keys!r})"
        )


class ResizeEvent:
    """A scheduled N -> M shard scale-out / scale-in, as a fluid plan."""

    __slots__ = ("n_shards", "mode", "batch_keys")

    def __init__(
        self, n_shards: int, mode: Optional[str] = None, batch_keys: int = 0
    ):
        self.n_shards = n_shards
        self.mode = mode
        self.batch_keys = batch_keys

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ResizeEvent(n_shards={self.n_shards}, mode={self.mode!r}, "
            f"batch_keys={self.batch_keys})"
        )


ShardEvent = Union[StreamTuple, TransitionEvent, RebalanceEvent, ResizeEvent]


class RebalanceScheduler:
    """Drives one :class:`FluidRebalancePlan` batch-by-batch.

    The scheduler owns the plan's progress and the open batch's
    :class:`RebalanceSession` (the executor holds no session of its own):
    it opens at most one batch per arrival (so an eager batch's move
    burst is paced by the batch size — Megaphone's latency bound), and a
    batch must fully settle or retire before the next one opens, so at
    most one batch is ever in ``PHASE_REBALANCING``.  Lazy batches drain
    just-in-time through the executor's normal arrival/expiry paths;
    :meth:`drain` force-settles everything for callers that need the
    plan finished *now*.  The executor drops the scheduler when the last
    batch completes, so a scheduler it still holds is an unfinished plan.
    """

    __slots__ = (
        "executor",
        "plan",
        "next_index",
        "session",
        "routed",
        "retired",
        "_opened_at",
        "_resize_to",
    )

    def __init__(
        self,
        executor: "ShardedExecutor",
        plan: FluidRebalancePlan,
        resize_to: Optional[int] = None,
    ):
        self.executor = executor
        self.plan = plan
        self.next_index = 0
        self.session: Optional[RebalanceSession] = None
        self.routed = 0
        #: Routed keys that expired before they moved, over drained batches.
        self.retired = 0
        self._opened_at = plan.started_at
        self._resize_to = resize_to

    # -- queries -----------------------------------------------------------------------

    def unopened_batches(self) -> int:
        """Batches whose buckets have not been flipped yet."""
        return self.plan.total_batches - self.next_index - (self.session is not None)

    # -- progress ----------------------------------------------------------------------

    def open_next(self, t: float) -> Optional[RebalanceSession]:
        """Flip the next batch's buckets and start its session, unless a
        batch is still open or none is left.  Called once per arrival, so
        at most one batch opens per arrival.  Returns the session it
        opened (possibly drained already), else ``None``."""
        if self.session is not None or self.next_index >= self.plan.total_batches:
            return None
        ex = self.executor
        index = self.next_index
        batch = self.plan.batch(index)
        dst_of = {bucket: dst for bucket, _, dst in batch}
        routes = plan_key_routes(list(batch), ex._bucket_keys)
        ex.partitioner.apply({**ex.partitioner.assignment, **dst_of})
        self.routed += len(routes)
        self._opened_at = t
        marker = {
            "index": index,
            "total": self.plan.total_batches,
            "buckets": sorted(dst_of),
            "keys": len(routes),
        }
        for shard in sorted({s for _, s, _ in batch} | set(dst_of.values())):
            ex._logs[shard].append("batch", marker, t)
        tracer = ex.metrics.tracer
        if tracer.enabled:
            tracer.rebalance_batch_start(
                index,
                self.plan.total_batches,
                mode=self.plan.mode,
                buckets=len(batch),
                keys=len(routes),
            )
        session = RebalanceSession(self.plan.mode, routes, started_at=t)
        self.session = session
        if not routes:
            self.on_batch_complete(session, t)
        elif self.plan.mode == "eager":
            for key in ex._ordered(routes):
                ex._complete_key(self, key, t)
        return session

    def on_batch_complete(self, session: RebalanceSession, t: float) -> None:
        """The open batch drained (settled and/or retired every key)."""
        ex = self.executor
        index = self.next_index
        self.retired += session.retired
        tracer = ex.metrics.tracer
        if tracer.enabled:
            tracer.rebalance_batch_end(
                index,
                self.plan.total_batches,
                mode=self.plan.mode,
                keys=len(session.routes),
                duration=max(0.0, t - self._opened_at),
            )
        self.session = None
        self.next_index = index + 1
        if self.next_index >= self.plan.total_batches:
            self._finish(t)

    def drain(self, t: float) -> None:
        """Force-complete the whole plan (every remaining batch, eagerly)."""
        ex = self.executor
        session = self.session or self.open_next(t)
        while session is not None:
            for key in ex._ordered(session.pending):
                ex._complete_key(self, key, t)
            session = self.open_next(t)

    def _finish(self, t: float) -> None:
        ex = self.executor
        ex._scheduler = None
        tracer = ex.metrics.tracer
        if tracer.enabled:
            tracer.rebalance_end(
                self.plan.mode,
                keys=self.routed,
                settled=self.routed - self.retired,
                batches=self.plan.total_batches,
                batch_keys=self.plan.batch_keys,
                started_at=self.plan.started_at,
            )
        if self._resize_to is not None:
            ex._retire_shards(self._resize_to, t)


class ShardedExecutor:
    """Hash-partitioned execution of one strategy across N workers."""

    def __init__(
        self,
        schema: Schema,
        initial_spec: SpecLike,
        num_shards: int = 2,
        strategy: str = "jisc",
        rebalance_mode: str = "lazy",
        num_buckets: int = 64,
        cost_model: Optional[CostModel] = None,
        inter_arrival: float = 0.0,
        join: str = "hash",
        metrics: Optional[Metrics] = None,
        assignment: Optional[Mapping[int, int]] = None,
    ):
        check_mode(rebalance_mode)
        self.schema = schema
        self.initial_spec = initial_spec
        self.strategy_name = strategy
        self.rebalance_mode = rebalance_mode
        self.cost_model = cost_model
        self.inter_arrival = float(inter_arrival)
        self.join = join
        self.name = f"sharded-{strategy}"
        self.partitioner = HashPartitioner(num_shards, num_buckets, assignment)
        # The coordinator's clock is advanced to external time by hand (it
        # counts no operations itself), so its tracer timestamps events in
        # external time — the axis the rebalance timeline renders.
        self.metrics = metrics if metrics is not None else Metrics(clock=VirtualClock(cost_model))
        self._worker_schema = driven_schema(schema)
        self.workers: List[Optional[ShardWorker]] = [
            ShardWorker(i, self._fresh_strategy()) for i in range(num_shards)
        ]
        self._windows: Dict[str, GlobalWindow] = {}
        for d in schema.streams:
            self._windows[d.name] = (
                SlidingWindow(d.window)
                if d.window_kind == "count"
                else TimeSlidingWindow(d.window)
            )
        self._live_by_key: Dict[Any, List[StreamTuple]] = {}
        #: Routing memo: the bucket of every key in ``_live_by_key`` — set
        #: when the key becomes live, dropped with its last live tuple, so
        #: an arrival or eviction of a live key hashes nothing.  Buckets,
        #: not shards: every ``partitioner.apply`` is seen immediately.
        self._live_bucket: Dict[Any, int] = {}
        #: The memo read the other way, bucket -> its live keys in the order
        #: they became live (written at the same two moments), so a plan's
        #: batch reads its own buckets instead of walking every live key.
        self._bucket_keys: Dict[int, Dict[Any, None]] = {b: {} for b in range(num_buckets)}
        self._scheduler: Optional[RebalanceScheduler] = None
        self._current_spec: Optional[SpecLike] = None
        self.moves: List[ShardMove] = []
        self.rebalances = 0
        self._arrivals = 0
        #: External time of every arrival, stream -> seq -> T.
        self._arrival_T: Dict[str, Dict[int, float]] = {d.name: {} for d in schema.streams}
        self._logs: List[CommandLog] = [CommandLog() for _ in range(num_shards)]
        #: Stream -> per shard, the compiled doors the arrival loop drives
        #: (:meth:`_door`); ``None``: not asked yet, or the worker's own door.
        self._kernels: Dict[str, List[Optional[Kernel]]] = {
            d.name: [None] * num_shards for d in schema.streams
        }
        #: Shards whose kernel carries the clock and tallies right now: only
        #: inside :meth:`process_batch`.
        self._entered: Dict[int, Kernel] = {}
        self._crashed: Set[int] = set()
        self._retired: Set[int] = set()
        self._merger = ShardMerger()
        #: Optional live-telemetry hub (set by ShardTelemetry); recovery
        #: notifies it so rebuilt workers re-register their series.
        self.telemetry: Optional[Any] = None

    # -- construction helpers ----------------------------------------------------------

    def _fresh_strategy(self) -> Any:
        return make_strategy(
            self.strategy_name,
            self._worker_schema,
            self.initial_spec,
            cost_model=self.cost_model,
            join=self.join,
        )

    @property
    def num_shards(self) -> int:
        return self.partitioner.num_shards

    def _worker(self, shard: int) -> ShardWorker:
        worker = self.workers[shard]
        if worker is None:
            if shard in self._retired:
                raise RuntimeError(f"shard {shard} was retired by a scale-in")
            raise RuntimeError(f"shard {shard} is crashed; recover it first")
        return worker

    def _check_live(self) -> None:
        if self._crashed:
            raise RuntimeError(
                f"shard(s) {sorted(self._crashed)} crashed; recover before feeding"
            )

    def _now(self) -> float:
        """Current external time; keeps the coordinator clock caught up."""
        t = self._arrivals * self.inter_arrival
        clock = self.metrics.clock
        if clock is not None and clock.now < t:
            clock.now = t
        return t

    @staticmethod
    def _ordered(keys: Iterable[Any]) -> List[Any]:
        """Deterministic processing order for a set of keys."""
        return sorted(keys, key=lambda k: (stable_hash(k), repr(k)))

    # -- state ownership ---------------------------------------------------------------

    def state_owner(self, key: Any) -> int:
        """The shard currently holding the key's state.

        During a lazy rebalance a pending key's state is still at its
        pre-rebalance owner even though the routing table already points
        at the destination.
        """
        session = self.session
        if session is not None and session.is_pending(key):
            return session.route_of(key)[0]
        bucket = self._live_bucket.get(key)
        if bucket is None:
            return self.partitioner.shard_of(key)
        return self.partitioner.assignment[bucket]

    @property
    def session(self) -> Optional[RebalanceSession]:
        """The active plan's open batch, or ``None``."""
        scheduler = self._scheduler
        return scheduler.session if scheduler is not None else None

    @property
    def scheduler(self) -> Optional[RebalanceScheduler]:
        """The active plan's driver, or ``None`` outside a plan."""
        return self._scheduler

    @property
    def rebalance_in_progress(self) -> bool:
        """True while a plan still has a batch to open or to drain."""
        return self._scheduler is not None

    @property
    def retired_shards(self) -> Set[int]:
        """Shards drained and dropped by a scale-in (distinct from crashed)."""
        return set(self._retired)

    def pending_keys(self) -> Set[Any]:
        session = self.session
        return set(session.pending) if session is not None else set()

    def live_tuples(self) -> Dict[str, List[StreamTuple]]:
        """Snapshot of the coordinator's global windows, per stream."""
        return {name: win.snapshot() for name, win in self._windows.items()}

    def state_sizes(self) -> Dict[str, int]:
        """Entries held by label, summed over the live workers."""
        sizes: Dict[str, int] = {}
        for worker in self.workers:
            if worker is not None:
                for label, n in worker.strategy.state_sizes().items():
                    sizes[label] = sizes.get(label, 0) + n
        return sizes

    # -- event processing --------------------------------------------------------------

    def process(self, tup: StreamTuple) -> None:
        """One arrival: global-window push, evictions, JIT completion, feed."""
        self.process_batch((tup,))

    def process_batch(self, tuples: Iterable[StreamTuple]) -> None:
        """A run of arrivals, each taken through the whole arrival path.

        This loop is the only arrival-path body (:meth:`process` feeds it
        a run of one).  Per arrival, in order: reject an unknown stream
        before anything is touched; stamp external time; push into the
        stream's global window and deliver each eviction to the worker
        holding that key's state (retiring a pending key whose last live
        tuple just expired); let an active fluid plan open its next batch;
        complete the arriving key just in time if it is pending; feed the
        owning worker; journal.  What never changes during a run is read
        once; the scheduler (with its open session) and the assignment
        table can change under any arrival and are read on each.

        A worker's doors are its compiled kernel's where it has one
        (:meth:`_door`): entered once per run, so its clock and tallies are
        carried from door to door, and left before any other contact with
        the worker and at the run's end, also when the run raises.  Under an
        attached tracer each door is left at once, so a hook sees every worker
        handed over.  Elsewhere the worker's own ``expire`` / ``process_batch``.
        """
        windows = self._windows
        arrival_t = self._arrival_T
        live_by_key = self._live_by_key
        live_bucket = self._live_bucket
        bucket_keys = self._bucket_keys
        workers = self.workers
        logs = self._logs
        kernels = self._kernels
        entered = self._entered
        crashed = self._crashed
        partitioner = self.partitioner
        inter_arrival = self.inter_arrival
        clock = self.metrics.clock
        tracer = self.metrics.tracer
        traced = tracer.enabled
        arrivals = self._arrivals
        try:
            for tup in tuples:
                if crashed:
                    self._check_live()
                stream = tup.stream
                window = windows.get(stream)
                if window is None:
                    raise ValueError(
                        f"tuple from unknown stream {stream!r} "
                        f"(schema has {', '.join(windows)})"
                    )
                hash(tup.key)  # unhashable: ``TypeError`` before anything is touched
                # External time T(i) = i * inter_arrival; the coordinator's
                # clock is caught up to it (see _now).
                t = arrivals * inter_arrival
                if clock is not None and clock.now < t:
                    clock.now = t
                self._arrivals = arrivals = arrivals + 1
                arrival_t[stream][tup.seq] = t
                if traced:
                    tracer.arrival(tup)
                doors = kernels[stream]

                if isinstance(window, SlidingWindow):
                    old = window.push(tup)  # at most one, and no list to carry it
                    evicted: Iterable[StreamTuple] = () if old is None else (old,)
                else:
                    evicted = window.push_all(tup)
                for old in evicted:
                    key = old.key
                    # A pending key's state is still at its pre-rebalance owner;
                    # ``mover`` is the scheduler holding it pending, else None.
                    mover = self._scheduler
                    pending = mover.session if mover is not None else None
                    if pending is not None and pending.is_pending(key):
                        owner = pending.route_of(key)[0]
                    else:
                        mover = None
                        owner = partitioner.assignment[live_bucket[key]]
                    kernel = doors[owner] or self._door(owner, stream)
                    if kernel is None:  # ``catch_up`` and ``evict``, spelled out
                        worker = workers[owner] or self._worker(owner)
                        worker_clock = worker.clock
                        if worker_clock is not None and worker_clock.now < t:
                            worker_clock.now = t
                        worker.expire(old)
                    else:
                        if owner not in entered:
                            entered[owner] = kernel
                            kernel.enter(t)
                        elif t:  # catching up to time 0 moves no clock
                            kernel.enter(t)
                        kernel.expire(old)
                        if traced:
                            self._leave(owner)
                    log = logs[owner]  # ``CommandLog.append``, spelled out
                    log.kinds.append("evict")
                    log.payloads.append(old)
                    log.times.append(t)
                    live = live_by_key[key]
                    if live[0] is old:  # almost always: expiry is oldest-first
                        del live[0]
                    else:
                        live.remove(old)
                    if not live:
                        del live_by_key[key]
                        del bucket_keys[live_bucket.pop(key)][key]
                        if mover is not None:
                            self._retire_key(mover, key, t)

                key = tup.key
                scheduler = self._scheduler
                if scheduler is not None:
                    scheduler.open_next(t)
                    session = scheduler.session
                    if session is not None and session.is_pending(key):
                        self._complete_key(scheduler, key, t)
                live = live_by_key.get(key)
                if live is None:
                    live_by_key[key] = [tup]
                    bucket = live_bucket[key] = partitioner.bucket_of(key)
                    bucket_keys[bucket][key] = None
                else:
                    live.append(tup)
                    bucket = live_bucket[key]
                owner = partitioner.assignment[bucket]
                kernel = doors[owner] or self._door(owner, stream)
                if kernel is None:  # ``catch_up`` and ``feed``, spelled out
                    worker = workers[owner] or self._worker(owner)
                    worker_clock = worker.clock
                    if worker_clock is not None and worker_clock.now < t:
                        worker_clock.now = t
                    worker.process_batch((tup,))
                else:
                    if owner not in entered:
                        entered[owner] = kernel
                        kernel.enter(t)
                    elif t:
                        kernel.enter(t)
                    kernel.arrive(tup)
                    if traced:
                        self._leave(owner)
                log = logs[owner]
                log.kinds.append("feed")
                log.payloads.append(tup)
                log.times.append(t)
        finally:
            while entered:
                shard, kernel = entered.popitem()
                (workers[shard] or self._worker(shard)).strategy.carried(kernel.leave())

    def _door(self, shard: int, stream: str) -> Optional[Kernel]:
        """The kernel :meth:`process_batch` drives for ``stream`` on ``shard``,
        kept until the worker's plan changes (:meth:`_forget`).  ``None``: the
        worker's own door runs, and the worker is left first."""
        kernel = self._worker(shard).strategy.kernel(stream)
        if kernel is None:
            self._leave(shard)
        else:
            self._kernels[stream][shard] = kernel
        return kernel

    def _leave(self, shard: int) -> None:
        """Hand a carried worker's clock, tallies and seqs over (``Kernel.leave``)."""
        kernel = self._entered.pop(shard, None)
        if kernel is not None:
            self._worker(shard).strategy.carried(kernel.leave())

    def _forget(self, shards: Iterable[int]) -> None:
        """Drop the kept kernels of workers whose plan changed or who are gone."""
        for doors in self._kernels.values():
            for shard in shards:
                doors[shard] = None

    def _retire_key(self, scheduler: RebalanceScheduler, key: Any, t: float) -> None:
        """A pending key's last live tuple expired: nothing is left to move."""
        session = scheduler.session
        if session is None or not session.is_pending(key):
            return
        src, dst = session.route_of(key)
        self.moves.append(ShardMove(key, src, dst, 0, t, retired=True))
        tracer = self.metrics.tracer
        if tracer.enabled:
            tracer.shard_move(key, src, dst, tuples=0, retired=True)
        if session.retire(key):
            scheduler.on_batch_complete(session, t)

    def current_order(self) -> Tuple[str, ...]:
        """What every worker runs: the last broadcast spec's order."""
        spec = self._current_spec if self._current_spec is not None else self.initial_spec
        return left_deep_order(as_spec(spec))

    def transition(self, new_spec: SpecLike) -> None:
        """Broadcast a plan transition to every worker."""
        self._check_live()
        t = self._now()
        tracer = self.metrics.tracer
        if tracer.enabled:
            tracer.transition_start(self.name, self._arrivals)
        self._forget(range(len(self.workers)))
        for shard, worker in enumerate(self.workers):
            if worker is None:  # retired by scale-in; crashed is excluded above
                continue
            worker.catch_up(t)
            worker.transition(new_spec)
            self._logs[shard].append("transition", new_spec, t)
        self._current_spec = new_spec
        if tracer.enabled:
            tracer.transition_end(self.name, self._arrivals)

    def run(self, events: Iterable[ShardEvent]) -> "ShardedExecutor":
        """Drive arrivals, transitions and rebalances in sequence.

        Consecutive arrivals go to :meth:`process_batch` as one run,
        flushed before every control event (as ``run_events`` does for a
        single engine), so a run never spans a transition or a rebalance
        trigger.
        """
        batch: List[StreamTuple] = []
        for event in events:
            if isinstance(event, StreamTuple):
                batch.append(event)
                continue
            if batch:
                self.process_batch(batch)
                batch = []
            if isinstance(event, TransitionEvent):
                self.transition(event.new_spec)
            elif isinstance(event, RebalanceEvent):
                self.fluid_rebalance(
                    event.assignment, event.mode, batch_keys=event.batch_keys
                )
            elif isinstance(event, ResizeEvent):
                self.resize(event.n_shards, event.mode, batch_keys=event.batch_keys)
            else:
                raise TypeError(f"not a shard event: {event!r}")
        if batch:
            self.process_batch(batch)
        return self

    # -- rebalancing -------------------------------------------------------------------

    def _admit_plan(self, mode: Optional[str], batch_keys: int) -> Tuple[str, int]:
        """Check a new plan's options and the overlap rule; change nothing.

        One plan at a time, decided on the plan that is in the way: one
        down to its open batch has flipped every bucket it will flip, so
        :meth:`_open_plan` force-drains it; one with unopened batches
        would be cut short, so the call is rejected.  Returns the
        resolved mode and the shard count after that drain (a scale-in
        retires shards as it finishes) to check the new target against.
        """
        self._check_live()
        if mode is None:
            mode = self.rebalance_mode
        check_mode(mode)
        check_batch_keys(batch_keys)
        pool = self.num_shards
        scheduler = self._scheduler
        if scheduler is not None:
            if scheduler.unopened_batches():
                raise RuntimeError(
                    f"a rebalance plan is still active (batch "
                    f"{scheduler.next_index + 1}/{scheduler.plan.total_batches}); "
                    f"one active plan at a time — let it drain or call "
                    f"drain_rebalance() first"
                )
            if scheduler._resize_to is not None:
                pool = scheduler._resize_to
        return mode, pool

    def _open_plan(
        self,
        assignment: Mapping[int, int],
        mode: str,
        batch_keys: int,
        n_shards: Optional[int] = None,
    ) -> Tuple[FluidRebalancePlan, RebalanceSession]:
        """Start an admitted plan toward ``assignment``; open its first batch.

        Mutation begins here: the plan in the way is force-drained, and
        the new plan is built only from what is read after that.
        ``n_shards`` makes it a resize: a larger pool is spawned before
        the plan starts; a smaller one is retired by the scheduler when
        the last batch drains.  Returns the plan and its first batch's
        session (an empty one when no bucket changes owner).
        """
        t = self._now()
        if self._scheduler is not None:
            self._scheduler.drain(t)
        resize_to: Optional[int] = None
        if n_shards is not None:
            if n_shards > self.num_shards:
                for shard in range(self.num_shards, n_shards):
                    self._spawn_worker(shard, t)
                self.partitioner.grow(n_shards)
            else:
                resize_to = n_shards
        moved = self.partitioner.moves_to(assignment)
        live_keys = {bucket: len(keys) for bucket, keys in self._bucket_keys.items()}
        plan = FluidRebalancePlan.build(moved, live_keys, assignment, mode, batch_keys, t)
        tracer = self.metrics.tracer
        if tracer.enabled:
            data: Dict[str, Any] = {
                "buckets": len(moved),
                "batches": plan.total_batches,
                "batch_keys": batch_keys,
            }
            if resize_to is not None:
                data["resize_to"] = resize_to
            tracer.rebalance_start(mode, **data)
        self.rebalances += 1
        scheduler = RebalanceScheduler(self, plan, resize_to=resize_to)
        self._scheduler = scheduler
        session = scheduler.open_next(t)
        if session is None:  # no bucket changes owner: the target is the current table
            session = RebalanceSession(mode, {}, started_at=t)
            scheduler._finish(t)
        return plan, session

    def rebalance(
        self, assignment: Mapping[int, int], mode: Optional[str] = None
    ) -> RebalanceSession:
        """Adopt a new assignment all at once: the one-batch fluid plan.

        Returns that batch's session (already complete when ``mode`` is
        eager or no live key had to move).
        """
        mode, pool = self._admit_plan(mode, 0)
        self.partitioner.validated(assignment, pool)
        return self._open_plan(assignment, mode, 0)[1]

    def fluid_rebalance(
        self,
        assignment: Mapping[int, int],
        mode: Optional[str] = None,
        batch_keys: int = 1,
    ) -> FluidRebalancePlan:
        """Adopt a new assignment through a granularity-bounded fluid plan.

        The diff is decomposed into batches of at most ``batch_keys``
        live keys (``0`` = all-at-once; buckets stay atomic) and drained
        one batch at a time, interleaved with arrivals — so an eager
        plan's worst per-arrival stall is one batch's moves, not the
        whole reconfiguration (Megaphone's fluid migration), and a lazy
        plan bounds how many keys are simultaneously pending.  The first
        batch opens immediately; each later batch opens on the first
        arrival after its predecessor settles.  Exactly one plan may be
        active at a time (:meth:`_admit_plan`); a bad mode, assignment or
        ``batch_keys`` raises ``ValueError`` before anything is touched.
        """
        mode, pool = self._admit_plan(mode, batch_keys)
        self.partitioner.validated(assignment, pool)
        return self._open_plan(assignment, mode, batch_keys)[0]

    def resize(
        self,
        n_shards: int,
        mode: Optional[str] = None,
        batch_keys: int = 0,
    ) -> FluidRebalancePlan:
        """Scale the worker pool to ``n_shards`` mid-stream.

        Scale-out spins up fresh workers (brought to the current plan
        spec) and routes buckets onto them; scale-in drains the retiring
        shards' buckets onto the survivors and retires the workers once
        the plan's last batch settles.  Either direction is an ordinary
        fluid plan toward the round-robin table over the new pool, so
        granularity, lazy/eager completion, per-batch journaling, and
        crash recovery all apply mid-resize.
        """
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        mode, pool = self._admit_plan(mode, batch_keys)
        if n_shards == pool:
            raise ValueError(f"already at {n_shards} shard(s)")
        target = balanced_assignment(self.partitioner.num_buckets, n_shards)
        return self._open_plan(target, mode, batch_keys, n_shards)[0]

    def drain_rebalance(self) -> None:
        """Force-complete the in-flight plan, if any.

        A lazy plan normally drains through arrivals (just-in-time
        settles plus expiries); call this to finish it at the current
        clock when the stream has ended — e.g. before comparing final
        routing tables across runs.
        """
        self._check_live()
        t = self._now()
        scheduler = self._scheduler
        if scheduler is not None:
            scheduler.drain(t)

    def _spawn_worker(self, shard: int, t: float) -> None:
        """Create (or re-create) the worker for a scale-out shard."""
        worker = ShardWorker(shard, self._fresh_strategy())
        if shard < len(self.workers):
            if self.workers[shard] is not None:
                raise RuntimeError(f"shard {shard} is already live")
            # Re-occupying a slot a previous scale-in retired: this is a
            # new incarnation with a fresh journal, so the merge cursor
            # must restart too (the old incarnation's outputs were
            # already collected before retirement).
            self.workers[shard] = worker
            self._logs[shard] = CommandLog()
            self._merger.reset_cursor(shard)
            self._retired.discard(shard)
        else:
            self.workers.append(worker)
            self._logs.append(CommandLog())
            for doors in self._kernels.values():
                doors.append(None)
        if self._current_spec is not None:
            worker.catch_up(t)
            worker.transition(self._current_spec)
            self._logs[shard].append("transition", self._current_spec, t)
        if self.telemetry is not None:
            self.telemetry.on_worker_added(shard, worker)

    def _retire_shards(self, n_shards: int, t: float) -> None:
        """Drop the drained workers above ``n_shards`` after a scale-in."""
        for shard in range(n_shards, len(self.workers)):
            self._leave(shard)
        self._collect()  # pull their remaining outputs before dropping them
        tracer = self.metrics.tracer
        for shard in range(n_shards, len(self.workers)):
            worker = self.workers[shard]
            if worker is None:
                continue
            self._forget((shard,))
            self.workers[shard] = None
            self._retired.add(shard)
            if tracer.enabled:
                tracer.note("shard_retired", shard=shard, at=t)
            if self.telemetry is not None:
                self.telemetry.on_worker_retired(shard)
        self.partitioner.shrink(n_shards)

    def _complete_key(self, scheduler: RebalanceScheduler, key: Any, t: float) -> None:
        """Move one pending key's state src -> dst, as state (docs/SHARDING.md)."""
        session = scheduler.session
        if session is None or not session.is_pending(key):
            return
        src, dst = session.route_of(key)
        live = tuple(self._live_by_key.get(key, ()))
        src_worker, dst_worker = self._worker(src), self._worker(dst)
        self._leave(src)
        self._leave(dst)
        src_worker.catch_up(t)
        parcel = src_worker.extract(key)
        self._logs[src].append("extract", key, t)
        dst_worker.catch_up(t)
        entries = dst_worker.install(key, parcel)
        self._logs[dst].append("install", live, t)
        self.moves.append(ShardMove(key, src, dst, len(live), t))
        tracer = self.metrics.tracer
        if tracer.enabled:
            tracer.shard_move(key, src, dst, tuples=len(live), entries=entries)
        if session.settle(key):
            scheduler.on_batch_complete(session, t)

    # -- merged output -----------------------------------------------------------------

    def _collect(self) -> None:
        merger = self._merger
        tracer = self.metrics.tracer
        since = merger.cursors() if tracer.enabled else None
        if merger.collect(w for w in self.workers if w is not None) and since is not None:
            for rec in merger.merged(since):
                tracer.output(rec.tup, rec.time)

    @property
    def outputs(self) -> List[Any]:
        """Merged results, ordered by (emission time, shard, index)."""
        self._collect()
        return self._merger.outputs()

    def output_lineages(self) -> List[Tuple[Tuple[str, int], ...]]:
        self._collect()
        return self._merger.output_lineages()

    def merged_records(self) -> List[MergedOutput]:
        self._collect()
        return self._merger.merged()

    def output_latencies(self) -> List[float]:
        """Per-output latency: emission time minus the completing arrival's
        external time (the input-queue view the benchmark measures)."""
        latencies: List[float] = []
        arrival_t = self._arrival_T
        for rec in self.merged_records():
            born = max(arrival_t[part.stream][part.seq] for part in parts_of(rec.tup))
            latencies.append(max(0.0, rec.time - born))
        return latencies

    def max_output_latency(self) -> float:
        return max(self.output_latencies(), default=0.0)

    # -- merged accounting -------------------------------------------------------------

    def merged_counts(self) -> Dict[str, int]:
        """Operation counters summed across all live workers."""
        totals: Dict[str, int] = {}
        for worker in self.workers:
            if worker is None:
                continue
            for op, n in worker.metrics.counts.items():
                totals[op] = totals.get(op, 0) + n
        return totals

    def total_work(self) -> float:
        """Summed virtual work across workers (parallel-ignorant cost)."""
        return work_units(self.merged_counts(), self.cost_model)

    def makespan(self) -> float:
        """Latest worker clock — wall time of the parallel execution."""
        times = [
            worker.metrics.clock.now
            for worker in self.workers
            if worker is not None and worker.metrics.clock is not None
        ]
        return max(times, default=0.0)

    # -- faults ------------------------------------------------------------------------

    def crash_shard(self, shard: int) -> None:
        """Lose one worker's in-memory state entirely (the log survives)."""
        self._worker(shard)  # raises if already crashed
        tracer = self.metrics.tracer
        if tracer.enabled:
            tracer.fault("shard_crash", shard=shard, log_entries=len(self._logs[shard]))
        self._forget((shard,))
        self.workers[shard] = None
        self._crashed.add(shard)

    def recover_shard(self, shard: int) -> None:
        """Deterministically rebuild a crashed worker from its command log.

        Feed entries regenerate the worker's full output log; the merge
        cursor is preserved, so already-delivered outputs are not
        re-delivered (exactly-once).  The others are re-applied at their journaled
        times; an install's parcel is rebuilt by a muted replay of its live tuples
        on a scratch worker that follows the same transitions.
        """
        if shard not in self._crashed:
            raise RuntimeError(f"shard {shard} is not crashed")
        worker = ShardWorker(shard, self._fresh_strategy())
        scratch = ShardWorker(shard, self._fresh_strategy())
        tracer = self.metrics.tracer
        prev = tracer.set_phase(PHASE_RECOVERING) if tracer.enabled else None
        try:
            for kind, payload, t in self._logs[shard]:
                worker.catch_up(t)
                if kind == "feed":
                    worker.feed(payload)
                elif kind == "evict":
                    worker.evict(payload)
                elif kind == "extract":
                    worker.extract(payload)
                elif kind == "install":  # rebuild the parcel, then adopt it
                    scratch.replay(payload)
                    worker.install(payload[0].key, scratch.extract(payload[0].key))
                elif kind == "transition":
                    worker.transition(payload)
                    scratch.transition(payload)
                elif kind == "batch":  # a fluid plan's batch marker rebuilds nothing
                    continue
                else:  # pragma: no cover - log entries are internal
                    raise RuntimeError(f"unknown log entry kind {kind!r}")
        finally:
            if prev is not None:
                tracer.set_phase(prev)
        self.workers[shard] = worker
        self._crashed.discard(shard)
        if tracer.enabled:
            tracer.recovery("shard_rebuilt", shard=shard, entries=len(self._logs[shard]))
        if self.telemetry is not None:
            self.telemetry.on_worker_recovered(shard, worker)

    def crash_and_recover(self, shard: int) -> None:
        self.crash_shard(shard)
        self.recover_shard(shard)

    def log_length(self, shard: int) -> int:
        """Journal size of one shard (for fault tests)."""
        return len(self._logs[shard])
