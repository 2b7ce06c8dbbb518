"""The coordinator drives its workers' compiled doors: an eviction is the owner's
``Kernel.expire`` and an arrival its ``Kernel.arrive``, carried between ``enter``
and ``leave`` (``ShardedExecutor.process_batch``).

The operator classes are the definition (``tests/helpers.py::reference_path``):
the same events, run once on the kernels and once with nothing compiled, must
leave the same outputs, merged output times, counts, worker clocks and seqs,
journals and telemetry after every event.  The events cross everything the loop
must leave a kernel for: a broadcast transition (incomplete JISC states take the
workers' own doors), lazy and eager fluid plans and a scale-in whose keys move
and whose shard retires inside runs, a shard crashed and recovered, a run that
raises part-way, an observed coordinator, a strategy that declines one stream's
doors, and STAIRs, whose kernels hand each arrival off to the operators.
"""

import random
from contextlib import nullcontext

import pytest

from repro.migration.jisc import JISCStrategy
from repro.obs.tracer import Tracer
from repro.shard import ShardedExecutor, balanced_assignment, skewed_assignment
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.telemetry.hub import ShardTelemetry, TelemetryTracer

from tests.helpers import reference_path

pytestmark = pytest.mark.hashseed

NAMES = ("A", "B", "C")


def workload(n=420, n_keys=16, window=12, seed=43):
    """Per-stream seqs, so the seqs a run carries are not in order."""
    rng = random.Random(seed)
    seqs = dict.fromkeys(NAMES, 0)
    tuples = []
    for _ in range(n):
        stream = rng.choice(NAMES)
        tuples.append(StreamTuple(stream, seqs[stream], rng.randrange(n_keys)))
        seqs[stream] += 1
    return Schema.uniform(NAMES, window), tuples


def steps(tuples):
    """``(kind, argument)``: runs of arrivals of several lengths, control between.
    The last run's keys are new: the scale-in's pending keys retire by expiry, the
    last of them evicted through the retiring shard's own kernel."""
    stray = [*tuples[330:333], StreamTuple("Z", 0, 1), *tuples[333:340]]
    tail = [StreamTuple(t.stream, t.seq + 1000, t.key + 100) for t in tuples[:80]]
    return [
        ("run", tuples[:60]),
        ("run", tuples[60:61]),  # a run of one
        ("fluid", (skewed_assignment(64, 1), "lazy", 2)),
        ("run", tuples[61:130]),
        ("transition", ("C", "A", "B")),  # incomplete states: the workers' own doors
        ("run", tuples[130:200]),
        ("fluid", (balanced_assignment(64, 4), "eager", 1)),  # later batches open in runs
        ("run", tuples[200:260]),
        ("crash", 2),
        ("run", tuples[260:330]),
        ("raise", stray),  # three arrivals taken, then ``ValueError``
        ("run", tuples[340:]),
        ("resize", 3),  # lazy scale-in: shard 3 retires inside a run
        ("run", tail),
    ]


def apply(ex, kind, arg):
    if kind == "run":
        ex.process_batch(arg)
    elif kind == "fluid":
        assignment, mode, batch_keys = arg
        ex.drain_rebalance()
        ex.fluid_rebalance(assignment, mode, batch_keys=batch_keys)
    elif kind == "transition":
        ex.transition(arg)
    elif kind == "crash":
        ex.crash_and_recover(arg)
    elif kind == "raise":
        with pytest.raises(ValueError, match="unknown stream 'Z'"):
            ex.process_batch(arg)
    elif kind == "resize":
        ex.drain_rebalance()
        ex.resize(arg, "lazy")  # one batch: it drains with its last pending key


def observed_state(ex, series):
    records = ex.merged_records()
    live = [(shard, w) for shard, w in enumerate(ex.workers) if w is not None]
    return {
        "outputs": [rec.lineage for rec in records],
        "times": [rec.time for rec in records],
        "counts": ex.merged_counts(),
        "clocks": [(shard, w.clock.now) for shard, w in live],
        "next_seq": [(shard, w.strategy.next_seq) for shard, w in live],
        "journal": [(list(log.kinds), list(log.payloads), list(log.times)) for log in ex._logs],
        "series": series(),
    }


@pytest.mark.parametrize("variant", ["plain", "observed", "declined", "stairs"])
def test_the_kernel_doors_leave_what_the_operators_leave_after_every_event(
    variant, monkeypatch
):
    schema, tuples = workload()
    if variant == "declined":
        # A worker carried by its A and B doors takes its own door for C, so the
        # loop must leave it first (else the carried ``arrive`` the own door ends
        # in calls the arrival hook a second time); under ``reference_path``
        # nothing is compiled.
        kernel = JISCStrategy.kernel
        monkeypatch.setattr(
            JISCStrategy, "kernel", lambda self, s: None if s == "C" else kernel(self, s)
        )

    def fresh():
        ex = ShardedExecutor(
            schema,
            NAMES,
            num_shards=4,
            # STAIRs counts on an ``EddyMetrics``: its leaves fuse no join level and
            # hand every arrival off to the operators from inside the kernel
            strategy="stairs" if variant == "stairs" else "jisc",
            inter_arrival=0.5,
            assignment=skewed_assignment(64, 0),
        )
        if variant == "observed":  # the coordinator and every worker
            return ex, ShardTelemetry(ex, snapshot_every=16).series
        if variant == "declined":  # the workers only: the coordinator carries
            hubs = [TelemetryTracer(shard=i) for i in range(ex.num_shards)]
            for hub, worker in zip(hubs, ex.workers):
                hub.attach(worker.strategy)
            return ex, lambda: [hub.series() for hub in hubs]
        return ex, lambda: None

    (ex, series), (ref, ref_series) = fresh(), fresh()
    doors = {"kernel": 0, "own": 0}
    for kind, arg in steps(tuples):
        apply(ex, kind, arg)
        with reference_path():
            apply(ref, kind, arg)
        assert observed_state(ex, series) == observed_state(ref, ref_series), kind
        assert not ex._entered  # every kernel is left when a run ends, raised or not
        kept = [kernel for row in ex._kernels.values() for kernel in row if kernel is not None]
        doors["kernel" if kept else "own"] += kind == "run"
        assert not any(k for row in ref._kernels.values() for k in row)
        if kind == "transition" and variant != "stairs":
            assert any(w.strategy.controller.incomplete_ops for w in ex.workers)
    assert doors == {"kernel": 8, "own": 0}
    assert ex.retired_shards == {3}
    settled = [move for move in ex.moves if not move.retired]
    assert len(settled) > 20 and ex.outputs and ex.merged_counts()["hash_probe"] > 1000


class TickThenRaise(Tracer):
    """An ``output`` hook that advances its engine's clock, then raises."""

    enabled = True

    def output(self, tup, when):
        self._clock.now += 1.0
        raise RuntimeError("hook")


def test_a_hook_that_raises_inside_a_carried_door_leaves_the_clock_where_it_left_it():
    """The copy was handed over before the hook and is stale after it: ``leave``
    writes the later of the two, as a door called alone writes nothing then."""
    schema, tuples = workload()
    sides = []
    for reference in (False, True):
        ex = ShardedExecutor(schema, NAMES, num_shards=4, inter_arrival=0.5)
        with reference_path() if reference else nullcontext():
            ex.process_batch(tuples[:100])
            TickThenRaise().attach(ex.workers[1].strategy)
            with pytest.raises(RuntimeError, match="hook"):
                ex.process_batch(tuples[100:])
        sides.append(observed_state(ex, lambda: None))
    assert sides[0] == sides[1]
    fed = sum(kinds.count("feed") for kinds, _, _ in sides[0]["journal"])
    assert 100 < fed < len(tuples)  # the run stopped at the hook
