"""Deterministic, seeded fault schedules and their injector.

A :class:`FaultPlan` is pure data: *which* faults fire and *when*, keyed to
deterministic operation counts — the Nth consumed arrival, the Nth queue
enqueue, the Nth checkpoint write.  Nothing in the subsystem consults a
wall clock or shared entropy (``tests/test_no_clock_reads.py`` scans for
both): randomized plans come only from :meth:`FaultPlan.from_seed`, which
draws every choice from one ``random.Random(seed)``, so a failing run
reproduces byte-identically from its seed.

The :class:`FaultInjector` is the runtime half: the recovery manager and
the anomaly-injecting queue scheduler consult it at each instrumented
operation, and it answers from the plan's schedule.  Every injected fault
is reported to the tracer (``EVENT_FAULT``) so traces show exactly what
was done to the run.  Each scheduled fault fires exactly once — replayed
work after a recovery does not re-trigger spent faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Dict, Optional, Tuple

from repro.obs.tracer import NULL_TRACER, Tracer


class SimulatedCrash(RuntimeError):
    """The scheduled death of the in-memory process.

    Everything not in the durable store (strategy, windows, states, queues)
    is lost; the :class:`~repro.faults.recovery.RecoveryManager` rebuilds
    from the last good checkpoint plus the arrival log.
    """


#: Crash boundaries relative to one consumed arrival.
CRASH_BEFORE_LOG = "before_log"
CRASH_AFTER_LOG = "after_log"
CRASH_AFTER_PROCESS = "after_process"
CRASH_POINTS = (CRASH_BEFORE_LOG, CRASH_AFTER_LOG, CRASH_AFTER_PROCESS)

#: Queue anomaly kinds (see ``repro.faults.queue_faults``).
QUEUE_DROP = "drop"
QUEUE_DUPLICATE = "duplicate"
QUEUE_REORDER = "reorder"
QUEUE_KINDS = (QUEUE_DROP, QUEUE_DUPLICATE, QUEUE_REORDER)

#: Checkpoint-write damage modes.
CKPT_TRUNCATE = "truncate"
CKPT_CORRUPT = "corrupt"
CKPT_MODES = (CKPT_TRUNCATE, CKPT_CORRUPT)


@dataclass(frozen=True)
class CrashFault:
    """Kill the process at ``at_arrival`` (0-based consumed-arrival index)."""

    at_arrival: int
    where: str = CRASH_AFTER_LOG

    def __post_init__(self) -> None:
        if self.where not in CRASH_POINTS:
            raise ValueError(f"unknown crash point {self.where!r}")


@dataclass(frozen=True)
class QueueFault:
    """Misbehave on the ``at_enqueue``-th scheduler enqueue (0-based).

    ``span`` bounds the reorder distance: a reordered item jumps at most
    ``span`` positions ahead of its FIFO slot.
    """

    kind: str
    at_enqueue: int
    span: int = 2

    def __post_init__(self) -> None:
        if self.kind not in QUEUE_KINDS:
            raise ValueError(f"unknown queue fault kind {self.kind!r}")
        if self.span < 1:
            raise ValueError("reorder span must be at least 1")


@dataclass(frozen=True)
class CheckpointFault:
    """Damage the ``at_checkpoint``-th checkpoint write (0-based)."""

    at_checkpoint: int
    mode: str = CKPT_TRUNCATE

    def __post_init__(self) -> None:
        if self.mode not in CKPT_MODES:
            raise ValueError(f"unknown checkpoint fault mode {self.mode!r}")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, reproducible fault schedule for one run."""

    crashes: Tuple[CrashFault, ...] = ()
    queue_faults: Tuple[QueueFault, ...] = ()
    checkpoint_faults: Tuple[CheckpointFault, ...] = ()
    seed: Optional[int] = None

    @classmethod
    def from_seed(
        cls,
        seed: int,
        n_arrivals: int,
        crashes: int = 1,
        queue_duplicates: int = 0,
        queue_reorders: int = 0,
        queue_drops: int = 0,
        checkpoint_corruptions: int = 0,
    ) -> "FaultPlan":
        """Draw a randomized schedule from one seeded RNG.

        The same ``(seed, parameters)`` always yields the same plan; the
        sweep CLI prints the seed with every failure so the exact run can
        be replayed.  Queue faults land within the first ``4 * n_arrivals``
        enqueues with a reorder span of 1-3; checkpoint faults hit one of the
        first four checkpoints.
        """
        rng = Random(seed)
        horizon = n_arrivals * 4
        crash_list = tuple(
            CrashFault(at, rng.choice(CRASH_POINTS))
            for at in sorted(rng.sample(range(1, max(2, n_arrivals)), k=min(crashes, n_arrivals - 1)))
        )
        queue_list: list = []
        for kind, count in (
            (QUEUE_DUPLICATE, queue_duplicates),
            (QUEUE_REORDER, queue_reorders),
            (QUEUE_DROP, queue_drops),
        ):
            for _ in range(count):
                queue_list.append(
                    QueueFault(
                        kind,
                        rng.randrange(max(1, horizon)),
                        span=rng.randint(1, 3),
                    )
                )
        ckpt_list = tuple(
            CheckpointFault(rng.randrange(4), rng.choice(CKPT_MODES))
            for _ in range(checkpoint_corruptions)
        )
        return cls(
            crashes=crash_list,
            queue_faults=tuple(sorted(queue_list, key=lambda f: (f.at_enqueue, f.kind))),
            checkpoint_faults=ckpt_list,
            seed=seed,
        )


def _truncate(blob: str) -> str:
    """Cut the blob mid-structure: ``json.loads`` fails on the remainder."""
    return blob[: max(1, len(blob) // 2)]


def _corrupt(blob: str) -> str:
    """Keep the blob parseable but semantically ruined.

    Renaming the ``version`` key leaves valid JSON whose restore fails the
    version check — the *silent* corruption case a recovery path must
    survive via its ``ValueError`` handling, not via the JSON parser.
    """
    damaged = blob.replace('"version"', '"ver$ion"', 1)
    if damaged == blob:
        return _truncate(blob)
    return damaged


class FaultInjector:
    """Runtime fault delivery for one :class:`FaultPlan`.

    The injector keeps deterministic operation counters (arrivals consumed,
    enqueues seen, checkpoints written) and fires each scheduled fault
    exactly once when its counter matches.
    """

    def __init__(self, plan: FaultPlan, tracer: Tracer = NULL_TRACER):
        self.plan = plan
        self.tracer = tracer
        self._crashes: Dict[Tuple[int, str], CrashFault] = {
            (f.at_arrival, f.where): f for f in plan.crashes
        }
        self._queue: Dict[int, QueueFault] = {}
        for fault in plan.queue_faults:
            # first fault scheduled for an enqueue index wins
            self._queue.setdefault(fault.at_enqueue, fault)
        self._checkpoints: Dict[int, CheckpointFault] = {}
        for ckpt_fault in plan.checkpoint_faults:
            self._checkpoints.setdefault(ckpt_fault.at_checkpoint, ckpt_fault)
        self._enqueues = 0
        self._checkpoint_writes = 0
        self.queue_faults_fired = 0

    # -- crash points ----------------------------------------------------------------

    def crash_point(self, arrival_index: int, where: str) -> None:
        """Raise :class:`SimulatedCrash` if a crash is scheduled here."""
        fault = self._crashes.pop((arrival_index, where), None)
        if fault is None:
            return
        if self.tracer.enabled:
            self.tracer.fault("crash", arrival=arrival_index, where=where)
        raise SimulatedCrash(f"scheduled crash at arrival {arrival_index} ({where})")

    # -- queue anomalies -------------------------------------------------------------

    def queue_action(self) -> Optional[QueueFault]:
        """The fault (if any) to apply to the current enqueue."""
        index = self._enqueues
        self._enqueues += 1
        fault = self._queue.pop(index, None)
        if fault is None:
            return None
        self.queue_faults_fired += 1
        if self.tracer.enabled:
            self.tracer.fault(f"queue_{fault.kind}", enqueue=index, span=fault.span)
        return fault

    # -- checkpoint damage -----------------------------------------------------------

    def filter_checkpoint(self, blob: str) -> str:
        """Pass a checkpoint blob through, possibly damaging it."""
        index = self._checkpoint_writes
        self._checkpoint_writes += 1
        fault = self._checkpoints.pop(index, None)
        if fault is None:
            return blob
        if self.tracer.enabled:
            self.tracer.fault(f"checkpoint_{fault.mode}", checkpoint=index)
        if fault.mode == CKPT_TRUNCATE:
            return _truncate(blob)
        return _corrupt(blob)


#: Injector that injects nothing; the default of the recovery manager.
NULL_INJECTOR = FaultInjector(FaultPlan())
