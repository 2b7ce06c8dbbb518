"""The merged read: one stable float-keyed sort over per-shard runs.

``ShardMerger`` holds, per shard, the output tuples and the workers' emission
times in that shard's index order, and orders a read by sorting rows laid out
shard by shard on the time alone.  These tests hold that order to the
definition — every collected row, ``sorted`` on ``(time, shard, index)`` in
collection order — under any collect schedule, across respawned slots and
crash recovery; hold every reader of the merged sink to one another; and bound
what a read allocates and keeps.
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.cost import VirtualClock
from repro.engine.metrics import Metrics
from repro.obs.tracer import EVENT_OUTPUT, RecordingTracer
from repro.shard import ShardedExecutor, ShardMerger
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple

pytestmark = pytest.mark.hashseed

NAMES = ("A", "B", "C")
N = 300
#: 4 -> 2 -> 4 -> 2 -> 4 shards: slots 2 and 3 live three incarnations.
RESPAWNS = {60: 2, 120: 4, 180: 2, 240: 4}
CRASH_AT = 150
#: The crash plan reads here and nowhere in ``[TAIL_FROM, CRASH_AT)``, so the
#: crashed shard has collected outputs and an uncollected tail.
TAIL_FROM = 100


def workload(n=N, n_keys=8, window=16, seed=21):
    rng = random.Random(seed)
    schema = Schema.uniform(NAMES, window)
    seqs = {name: 0 for name in NAMES}
    tuples = []
    for _ in range(n):
        stream = rng.choice(NAMES)
        tuples.append(StreamTuple(stream, seqs[stream], rng.randrange(n_keys)))
        seqs[stream] += 1
    return schema, tuples


class ReferenceMerger(ShardMerger):
    """The merger, plus every row it collected, in collection order."""

    __slots__ = ("rows",)

    def __init__(self):
        super().__init__()
        self.rows = []

    def collect(self, workers):
        workers = list(workers)
        for worker in workers:
            shard = worker.shard_id
            for index in range(self.cursor_of(shard), len(worker.outputs)):
                self.rows.append((worker.output_times[index], shard, index, worker.outputs[index]))
        return super().collect(workers)

    def reference(self):
        """The definition of the merge order: a stable sort on the full key."""
        return sorted(self.rows, key=lambda row: row[:3])


class OutputSpy(RecordingTracer):
    """A recorder that also keeps what each ``output`` hook was handed."""

    def __init__(self, clock):
        super().__init__(clock=clock)
        self.seen = []

    def output(self, tup, when):
        self.seen.append((tup, when))
        super().output(tup, when)


def run(plan, inter_arrival, reads=(), traced=False):
    """Drive ``workload()`` under ``plan`` ("plain", "respawn" or "crash"),
    reading ``outputs`` after every arrival index in ``reads``."""
    schema, tuples = workload()
    metrics = None
    if traced:
        clock = VirtualClock(None)
        metrics = Metrics(clock=clock, tracer=OutputSpy(clock))
    ex = ShardedExecutor(schema, NAMES, num_shards=4, inter_arrival=inter_arrival, metrics=metrics)
    ex._merger = ReferenceMerger()
    for i, tup in enumerate(tuples):
        if plan == "respawn" and i in RESPAWNS:
            ex.resize(RESPAWNS[i], "eager", batch_keys=0)
        if plan == "crash" and i == CRASH_AT:
            cursor = ex._merger.cursor_of(1)
            assert 0 < cursor < len(ex.workers[1].outputs)  # collected, and a tail that is not
            ex.crash_shard(1)
            ex.recover_shard(1)
            assert ex._merger.cursor_of(1) == cursor
        ex.process(tup)
        if i in reads or (plan == "crash" and i == TAIL_FROM):
            ex.outputs
    return ex


def rows_of(records):
    return [(rec.time, rec.shard, rec.index, rec.tup) for rec in records]


def provenance(records):
    """What two runs of the same events can be compared on (not tuple identity)."""
    return [(rec.time, rec.shard, rec.index, rec.lineage) for rec in records]


def assert_same_tups(tups, rows):
    assert len(tups) == len(rows)
    assert all(tup is row[3] for tup, row in zip(tups, rows))


def assert_same_rows(got, want):
    assert [row[:3] for row in got] == [row[:3] for row in want]
    assert_same_tups([row[3] for row in got], want)


# -- the order is the definition, however it was collected ------------------------------


@settings(max_examples=30, deadline=None)
@given(
    plan=st.sampled_from(["plain", "respawn", "crash"]),
    inter_arrival=st.sampled_from([0.0, 3.0]),
    reads=st.sets(st.integers(0, N - 1), max_size=12),
)
def test_merged_order_is_the_reference_sort_under_any_collect_schedule(plan, inter_arrival, reads):
    if plan == "crash":
        reads = {i for i in reads if not TAIL_FROM <= i < CRASH_AT}
    ex = run(plan, inter_arrival, reads)
    records = ex.merged_records()
    reference = ex._merger.reference()
    assert_same_rows(rows_of(records), reference)
    assert_same_tups(ex.outputs, reference)
    # ... and the collect schedule is invisible: one read at the end gives the same rows
    assert provenance(run(plan, inter_arrival).merged_records()) == provenance(records)


@pytest.mark.parametrize("inter_arrival", [0.0, 3.0])
def test_a_slot_respawned_twice_keeps_the_tie_order_of_the_full_key(inter_arrival):
    ex = run("respawn", inter_arrival)
    records = ex.merged_records()
    assert_same_rows(rows_of(records), ex._merger.reference())
    seen = {}
    for rec in records:
        seen[rec.shard, rec.index] = seen.get((rec.shard, rec.index), 0) + 1
    assert max(seen.values()) == 3  # three incarnations of one slot emitted the same index
    if inter_arrival == 0.0:
        times = [rec.time for rec in records]
        assert len(set(times)) < len(times)  # ties on time, broken by shard and index


def test_a_crash_with_an_uncollected_tail_delivers_it_exactly_once():
    clean = run("plain", 1.0, reads={TAIL_FROM})
    crashed = run("crash", 1.0)
    assert provenance(crashed.merged_records()) == provenance(clean.merged_records())
    assert_same_rows(rows_of(crashed.merged_records()), crashed._merger.reference())


def test_the_merger_alone_against_the_reference():
    """Fake workers with hand-made logs: equal times across shards and
    incarnations, a respawn, and reads between appends."""

    class Worker:
        def __init__(self, shard_id):
            self.shard_id = shard_id
            self.outputs = []
            self.output_times = []

        def emit(self, *times):
            for t in times:
                self.outputs.append(object())
                self.output_times.append(t)

    merger = ReferenceMerger()
    a, b = Worker(0), Worker(1)
    a.emit(1.0, 1.0, 2.0)
    b.emit(0.5, 1.0)
    assert merger.collect([b, a]) == 5
    b.emit(2.0, 3.0)
    merger.collect([a, b])
    merger.reset_cursor(1)  # slot 1 re-occupied: its index restarts
    b = Worker(1)
    b.emit(0.5, 2.0, 2.0)
    a.emit(2.0)
    assert merger.collect([a, b]) == 4
    want = merger.reference()
    assert_same_rows(rows_of(merger.merged()), want)
    assert_same_tups(merger.outputs(), want)
    assert [row[:3] for row in want[:4]] == [
        (0.5, 1, 0), (0.5, 1, 0), (1.0, 0, 0), (1.0, 0, 1)
    ]  # fmt: skip


# -- every reader agrees ------------------------------------------------------------------


@pytest.mark.parametrize("plan", ["plain", "respawn", "crash"])
def test_tracer_outputs_records_outputs_and_lineages_agree_row_for_row(plan):
    ex = run(plan, 2.0, traced=True)
    records = ex.merged_records()
    outputs = ex.outputs
    assert [rec.tup for rec in records] == outputs
    assert [rec.lineage for rec in records] == ex.output_lineages() == [t.lineage for t in outputs]
    spy = ex.metrics.tracer
    if plan == "plain":  # one read, at the end: the tracer saw the merged stream itself
        assert spy.seen == [(rec.tup, rec.time) for rec in records]
    else:  # a read before the end (a scale-in collects too): each output once
        assert sorted(id(tup) for tup, _ in spy.seen) == sorted(map(id, outputs))
    events = spy.as_trace().of_kind(EVENT_OUTPUT)
    assert [tuple(map(tuple, ev.data["tuple_id"])) for ev in events] == [
        tup.lineage for tup, _ in spy.seen
    ]


def test_each_reads_fresh_rows_reach_the_tracer_in_merge_order():
    schema, tuples = workload()
    clock = VirtualClock(None)
    spy = OutputSpy(clock)
    ex = ShardedExecutor(schema, NAMES, num_shards=4, metrics=Metrics(clock=clock, tracer=spy))
    cuts = [0]
    for i, tup in enumerate(tuples):
        ex.process(tup)
        if i % 17 == 0 or i == N - 1:
            ex.outputs
            cuts.append(len(spy.seen))
    records = {id(rec.tup): rec for rec in ex.merged_records()}
    assert len(spy.seen) == len(records) and len(set(cuts)) > 5
    assert all(when == records[id(tup)].time for tup, when in spy.seen)
    keys = [records[id(tup)].sort_key for tup, _ in spy.seen]
    for start, stop in zip(cuts, cuts[1:]):
        assert keys[start:stop] == sorted(keys[start:stop])


# -- latency reads parts, not lineages ------------------------------------------------------


def test_output_latencies_build_no_lineage_and_keep_their_values():
    ex = run("respawn", 3.0)
    latencies = ex.output_latencies()
    assert all(out._lineage is None for out in ex.outputs)
    born = ex._arrival_T
    assert latencies == [
        max(0.0, rec.time - max(born[stream][seq] for stream, seq in rec.lineage))
        for rec in ex.merged_records()
    ]


# -- what a read costs ----------------------------------------------------------------------


def test_reading_outputs_allocates_and_keeps_a_few_pointers_per_output():
    """The first read of a 4-shard pass collects and sorts every output; it
    used to peak at 211 bytes per output and keep 71 (a key tuple with a boxed
    float and int per row, an int permutation, four collection-order columns)."""
    schema, tuples = workload(4000, n_keys=16, window=32, seed=5)
    ex = ShardedExecutor(schema, NAMES, num_shards=4)
    ex.process_batch(tuples)
    tracemalloc.start()
    try:
        n = len(ex.outputs)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n > 4000
    assert peak / n <= 64, peak / n
    assert retained / n <= 24, retained / n
