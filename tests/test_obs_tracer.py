"""Tests for the migration-aware tracing layer (repro.obs)."""

import json
import random
import re
from pathlib import Path

import pytest

from tests.helpers import make_tuples, reference_path
from repro.engine.checkpoint import checkpoint_strategy
from repro.engine.cost import VirtualClock
from repro.engine.executor import run_events
from repro.engine.metrics import Counter, Metrics
from repro.eddy.cacq import CACQExecutor
from repro.eddy.stairs import JISCStairsExecutor, STAIRSExecutor
from repro.migration.jisc import JISCStrategy
from repro.migration.mjoin import MJoinExecutor
from repro.migration.moving_state import MovingStateStrategy
from repro.migration.parallel_track import ParallelTrackStrategy
from repro.obs import report
from repro.obs.histogram import LatencyHistogram
from repro.obs.tracer import (
    NULL_TRACER,
    PHASE_COMPLETING,
    PHASE_MIGRATING,
    PHASE_REBALANCING,
    PHASE_STEADY,
    RecordingTracer,
    Tracer,
    load_trace,
    parse_jsonl,
)
from repro.shard import ShardedExecutor, skewed_assignment
from repro.streams.schema import Schema
from repro.streams.tuples import CompositeTuple, StreamTuple
from repro.workloads.scenarios import chain_scenario, swap_for_case

ORDER = ("R", "S", "T")
OBSERVABILITY = Path(__file__).resolve().parents[1] / "docs" / "OBSERVABILITY.md"


@pytest.fixture
def schema():
    return Schema.uniform(["R", "S", "T"], window=10)


def migration_workload():
    """A small workload with one worst-case transition in the middle."""
    sc = chain_scenario(3, 600, 25, key_domain=30, seed=4)
    return sc, swap_for_case(sc.order, "worst"), 300


def run_traced(cls, **kwargs):
    sc, swapped, cut = migration_workload()
    strategy = cls(sc.schema, sc.order, **kwargs)
    tracer = RecordingTracer()
    tracer.attach(strategy)
    for tup in sc.tuples[:cut]:
        strategy.process(tup)
    strategy.transition(swapped)
    for tup in sc.tuples[cut:]:
        strategy.process(tup)
    return strategy, tracer


# -- zero-perturbation contract -----------------------------------------------------


def test_noop_tracer_is_the_default():
    assert Metrics().tracer is NULL_TRACER
    assert not NULL_TRACER.enabled
    assert NULL_TRACER.set_phase(PHASE_MIGRATING) == PHASE_STEADY


def test_recording_tracer_does_not_perturb_op_counts():
    sc, swapped, cut = migration_workload()

    def run(with_tracer):
        st = JISCStrategy(sc.schema, sc.order)
        if with_tracer:
            RecordingTracer().attach(st)
        for tup in sc.tuples[:cut]:
            st.process(tup)
        st.transition(swapped)
        for tup in sc.tuples[cut:]:
            st.process(tup)
        return st.metrics.counts, st.output_lineages()

    plain_counts, plain_out = run(False)
    traced_counts, traced_out = run(True)
    assert plain_counts == traced_counts
    assert plain_out == traced_out


# -- per-phase counter attribution --------------------------------------------------


@pytest.mark.parametrize(
    "cls",
    [
        JISCStrategy,
        MovingStateStrategy,
        ParallelTrackStrategy,
        STAIRSExecutor,
        JISCStairsExecutor,
        CACQExecutor,
        MJoinExecutor,
    ],
)
def test_phase_counts_sum_to_metrics_counts(cls):
    strategy, tracer = run_traced(cls)
    assert tracer.counts_total() == strategy.metrics.counts


def test_jisc_attributes_completion_work_to_completing_phase():
    strategy, tracer = run_traced(JISCStrategy)
    completing = tracer.phase_counts.get(PHASE_COMPLETING, {})
    assert completing.get(Counter.COMPLETION_PROBE, 0) > 0
    # JISC's transition itself is a pointer move: no migration-phase work.
    assert sum(tracer.phase_counts.get(PHASE_MIGRATING, {}).values()) == 0


def test_moving_state_attributes_rebuild_to_migrating_phase():
    strategy, tracer = run_traced(MovingStateStrategy)
    migrating = tracer.phase_counts.get(PHASE_MIGRATING, {})
    assert migrating.get(Counter.HASH_PROBE, 0) > 0
    assert PHASE_COMPLETING not in tracer.phase_counts


def test_parallel_track_attributes_multi_track_period_to_migrating():
    strategy, tracer = run_traced(ParallelTrackStrategy, purge_check_interval=4)
    migrating = tracer.phase_counts.get(PHASE_MIGRATING, {})
    assert migrating.get(Counter.DEDUP_CHECK, 0) > 0
    assert migrating.get(Counter.PURGE_CHECK, 0) > 0
    ends = [ev for ev in tracer.events if ev.kind == "migration_end"]
    assert len(ends) == 1


def test_attach_seeds_preexisting_counts():
    m = Metrics()
    m.count(Counter.HASH_PROBE)
    m.count_n(Counter.TUPLE_EMIT, 3)
    tracer = RecordingTracer()
    tracer.attach(m)
    m.count(Counter.HASH_PROBE)
    assert tracer.counts_total() == m.counts


def test_attach_credits_the_backlog_to_the_current_phase_once():
    m = Metrics()
    m.count_n(Counter.HASH_PROBE, 5)
    tracer = RecordingTracer()
    tracer.set_phase(PHASE_MIGRATING)
    tracer.attach(m)
    assert tracer.phase_counts == tracer.phase_counts == {PHASE_MIGRATING: {Counter.HASH_PROBE: 5}}
    tracer.set_phase(PHASE_STEADY)
    m.count(Counter.HASH_PROBE)
    assert tracer.phase_counts == {
        PHASE_MIGRATING: {Counter.HASH_PROBE: 5},
        PHASE_STEADY: {Counter.HASH_PROBE: 1},
    }


def test_reattaching_to_a_second_metrics_settles_the_first():
    """A tracer follows one ``Metrics`` at a time (a recovery hands it the
    restored engine's): what the first counted up to the switch stays
    credited, what it counts afterwards is nobody's."""
    first, second = Metrics(), Metrics()
    tracer = RecordingTracer()
    tracer.attach(first)
    first.count_n(Counter.HASH_PROBE, 3)
    second.count_n(Counter.HASH_INSERT, 2)
    tracer.attach(second)
    assert first.tracer is tracer and second.tracer is tracer  # the first is not told
    first.count(Counter.HASH_PROBE)
    second.count(Counter.HASH_INSERT)
    assert tracer.counts_total() == {Counter.HASH_PROBE: 3, Counter.HASH_INSERT: 3}


def test_subclass_that_skips_the_base_init_still_works():
    """Everything the base keeps lives in class-level defaults until written."""

    class Bare(Tracer):
        enabled = True

        def __init__(self):
            self.kinds = []

        def event(self, kind, data):
            self.kinds.append((kind, self.phase))

    tracer = Bare()
    assert tracer.set_phase(PHASE_MIGRATING) == PHASE_STEADY and tracer.phase_counts == {}
    tracer.note("unattached")
    m = Metrics()
    tracer.attach(m)
    m.count(Counter.HASH_PROBE)
    tracer.set_phase(PHASE_STEADY)
    m.count(Counter.HASH_PROBE)
    tracer.transition_end("jisc", 3, cost=0.0)
    assert tracer.kinds == [("note", PHASE_MIGRATING), ("transition_end", PHASE_STEADY)]
    assert tracer.phase_counts == {
        PHASE_MIGRATING: {Counter.HASH_PROBE: 1},
        PHASE_STEADY: {Counter.HASH_PROBE: 1},
    }
    assert NULL_TRACER.phase == PHASE_STEADY and NULL_TRACER.phase_counts == {}


# -- an observer never selects code ----------------------------------------------------


def test_recorder_attached_engine_runs_the_kernels():
    sc, swapped, cut = migration_workload()
    strategy = JISCStrategy(sc.schema, sc.order)
    RecordingTracer().attach(strategy)
    seen = dict.fromkeys(sc.order, 0)
    for tup in sc.tuples:
        strategy.process(tup)
        seen[tup.stream] += 1
        if min(seen.values()) == 2:
            break
    assert all(scan.fused is not None for scan in strategy.plan.scans.values())


class BoundaryRecorder(RecordingTracer):
    """Notes the settled per-phase counts at every event, outputs included."""

    def __init__(self):
        super().__init__()
        self.boundaries = []

    def event(self, kind, data):
        by_phase = {phase: dict(by) for phase, by in self.phase_counts.items()}
        assert self.counts_total() == self._metrics.counts
        self.boundaries.append((kind, by_phase))
        super().event(kind, data)


def traced_run(cls, recorder=RecordingTracer, **options):
    """3 000 arrivals, forced worst-case transitions at 1 000 and 2 000."""
    sc = chain_scenario(4, 3000, 60, key_domain=60, seed=1)
    strategy = cls(sc.schema, sc.order, **options)
    tracer = recorder()
    tracer.attach(strategy)
    for i, tup in enumerate(sc.tuples):
        if i == 1000:
            strategy.transition(swap_for_case(sc.order, "worst"))
        if i == 2000:
            strategy.transition(sc.order)
        strategy.process(tup)
    return strategy, tracer


SEAM_CASES = {
    "jisc": (JISCStrategy, {}, {PHASE_STEADY, PHASE_COMPLETING}),
    "moving_state": (MovingStateStrategy, {}, {PHASE_STEADY, PHASE_MIGRATING}),
    "parallel_track": (
        ParallelTrackStrategy,
        {"purge_check_interval": 4},
        {PHASE_STEADY, PHASE_MIGRATING},
    ),
}


@pytest.mark.parametrize("name", sorted(SEAM_CASES))
def test_recorder_reads_the_same_on_the_kernels_as_on_the_reference_path(name):
    """Boundary deltas under kernels against the operator classes counting one
    op at a time: per-phase counts, header, JSONL and latency histograms,
    value for value — in every phase the strategy counts anything in."""
    cls, options, phases = SEAM_CASES[name]
    strategy, tracer = traced_run(cls, **options)
    with reference_path():
        reference_strategy, reference = traced_run(cls, **options)
    assert all(scan.fused is not None for scan in strategy.plan.scans.values())
    assert not any(scan.fused for scan in reference_strategy.plan.scans.values())
    assert set(tracer.phase_counts) == phases
    assert tracer.phase_counts == reference.phase_counts
    assert tracer.header() == reference.header()
    assert tracer.to_jsonl() == reference.to_jsonl()
    assert {p: h.to_json() for p, h in tracer.latency.items()} == {
        p: h.to_json() for p, h in reference.latency.items()
    }
    # (Parallel Track's sinks see a result once per track, before the dedup)
    assert sum(h.count for h in tracer.latency.values()) >= len(strategy.outputs) > 1000


@pytest.mark.parametrize("name", sorted(SEAM_CASES))
def test_phase_sums_equal_metrics_counts_at_every_event_boundary(name):
    cls, options, _ = SEAM_CASES[name]
    _, tracer = traced_run(cls, BoundaryRecorder, **options)
    with reference_path():
        _, reference = traced_run(cls, BoundaryRecorder, **options)
    assert len(tracer.boundaries) > 2500
    assert tracer.boundaries == reference.boundaries


def test_sharded_recorders_read_the_same_on_both_paths():
    """Coordinator and worker recorders over a lazy rebalance (replays run in
    the ``rebalancing`` phase) and a ``crash_and_recover``."""
    names = ("A", "B", "C")
    schema = Schema.uniform(names, 8)
    rng = random.Random(11)
    tuples = [StreamTuple(rng.choice(names), seq, rng.randrange(9)) for seq in range(300)]

    def run():
        clock = VirtualClock()
        coordinator = RecordingTracer()
        executor = ShardedExecutor(
            schema,
            names,
            num_shards=3,
            inter_arrival=1.0,
            metrics=Metrics(clock=clock, tracer=coordinator),
        )
        workers = [RecordingTracer() for _ in executor.workers]
        for tracer, worker in zip(workers, executor.workers):
            tracer.attach(worker.strategy)
        executor.process_batch(tuples[:120])
        executor.rebalance(skewed_assignment(64, 1), "lazy")
        executor.process_batch(tuples[120:200])
        executor.crash_and_recover(2)  # its recorder stops here; the others go on
        executor.process_batch(tuples[200:])
        executor.drain_rebalance()
        fused = [
            bool(scan.fused)
            for worker in executor.workers
            for scan in worker.strategy.plan.scans.values()
        ]
        return [coordinator] + workers, fused

    ours, fused = run()
    with reference_path():
        theirs, reference_fused = run()
    assert any(fused) and not any(reference_fused)
    assert PHASE_REBALANCING in ours[2].phase_counts  # shard 1 took the replays
    assert {ev.kind for ev in ours[0].events} >= {"rebalance_start", "shard_move", "fault", "recovery"}
    for tracer, reference in zip(ours, theirs):
        assert tracer.header() == reference.header()
        assert tracer.to_jsonl() == reference.to_jsonl()


# -- spans and events ----------------------------------------------------------------

A0, B1 = StreamTuple("A", 0, 1), StreamTuple("B", 1, 1)

#: kind -> (hook arguments, extra keyword data, the JSON the recorder writes)
#: — the right-hand sides were written by the parent commit's sixteen
#: one-line ``_record`` overrides; ``output`` rides along as the seventeenth.
EVENT_TABLE = {
    "transition_start": (("jisc", 7), {"routing": ["A", "B"]}, {"strategy": "jisc", "seq": 7, "routing": ["A", "B"]}),
    "transition_end": (("jisc", 7), {"cost": 1.5}, {"strategy": "jisc", "seq": 7, "cost": 1.5}),
    "migration_end": (("parallel_track",), {"successor_birth_seq": 9}, {"strategy": "parallel_track", "successor_birth_seq": 9}),
    "completion": (("RS", 17), {"cost": 3.4}, {"op": "RS", "key": 17, "cost": 3.4}),
    "promote": ((5,), {}, {"n": 5}),
    "demote": ((6,), {"why": "routing"}, {"n": 6, "why": "routing"}),
    "checkpoint": (("jisc",), {"outputs": 3}, {"strategy": "jisc", "outputs": 3}),
    "note": (("eager_rebuild",), {"states": 2, "adopted": 1}, {"what": "eager_rebuild", "states": 2, "adopted": 1}),
    "fault": (("crash",), {"arrival": 4, "where": "after_log"}, {"fault": "crash", "arrival": 4, "where": "after_log"}),
    "recovery": (("restored",), {"checkpoint": 2, "log_pos": 10}, {"what": "restored", "checkpoint": 2, "log_pos": 10}),
    "rebalance_start": (("lazy",), {"keys": 8}, {"mode": "lazy", "keys": 8}),
    "rebalance_end": (("lazy",), {"duration": 12.0}, {"mode": "lazy", "duration": 12.0}),
    "rebalance_batch_start": ((0, 3), {"keys": 4}, {"index": 0, "total": 3, "keys": 4}),
    "rebalance_batch_end": ((0, 3), {"duration": 2.5}, {"index": 0, "total": 3, "duration": 2.5}),
    "shard_move": ((11, 0, 2), {"tuples": 3, "muted": 1}, {"key": 11, "src": 0, "dst": 2, "tuples": 3, "muted": 1}),
    "trigger": (("fired",), {"current_cost": 3.0, "best_cost": 2.0}, {"action": "fired", "current_cost": 3.0, "best_cost": 2.0}),
    "output": ((CompositeTuple.of(A0, B1), 2.0), {}, {"tuple_id": [["A", 0], ["B", 1]], "latency": 2.0}),
}


@pytest.mark.parametrize("kind", sorted(EVENT_TABLE))
def test_every_typed_hook_reaches_event_with_its_documented_fields(kind):
    args, extra, payload = EVENT_TABLE[kind]
    seen = []

    class Spy(RecordingTracer):
        def event(self, kind, data):
            seen.append((kind, dict(data)))
            super().event(kind, data)

    tracer = Spy()
    tracer.arrival(A0)
    tracer.arrival(B1)
    getattr(tracer, kind)(*args, **extra)
    assert [k for k, _ in seen] == [kind]
    (event,) = tracer.events
    written = json.loads(json.dumps(event.to_json(), sort_keys=True))
    assert written == {"ts": 0.0, "kind": kind, "phase": PHASE_STEADY, **payload}
    # docs/OBSERVABILITY.md's event table names the same leading fields
    documented = dict(
        re.findall(r"^\| `(\w+)` \| `[^|]*` \| ([^|]*) \|", OBSERVABILITY.read_text(), re.M)
    )
    leading = [name for name in payload if name not in extra]
    assert re.findall(r"`(\w+)`", documented[kind]) == leading


def test_transition_span_and_completion_events():
    strategy, tracer = run_traced(JISCStrategy)
    kinds = [ev.kind for ev in tracer.events]
    assert "transition_start" in kinds and "transition_end" in kinds
    completions = [ev for ev in tracer.events if ev.kind == "completion"]
    assert completions, "a worst-case transition must trigger lazy completion"
    for ev in completions:
        assert ev.phase == PHASE_COMPLETING
        assert "op" in ev.data and "key" in ev.data and ev.data["cost"] >= 0
    notes = [ev for ev in tracer.events if ev.kind == "note"]
    assert any(n.data.get("what") == "jisc_adoption" for n in notes)


def test_stairs_emits_promote_demote_events():
    strategy, tracer = run_traced(STAIRSExecutor)
    promotes = [ev for ev in tracer.events if ev.kind == "promote"]
    demotes = [ev for ev in tracer.events if ev.kind == "demote"]
    assert sum(ev.data["n"] for ev in promotes) == strategy.metrics.get(
        Counter.PROMOTE
    )
    assert sum(ev.data["n"] for ev in demotes) == strategy.metrics.get(Counter.DEMOTE)


def test_output_events_carry_virtual_latency():
    strategy, tracer = run_traced(JISCStrategy)
    outputs = [ev for ev in tracer.events if ev.kind == "output"]
    assert len(outputs) == len(strategy.outputs)
    for ev in outputs:
        assert ev.data["latency"] >= 0
        assert ev.data["tuple_id"]
    total = sum(h.count for h in tracer.latency.values())
    assert total == len(strategy.outputs)


def test_checkpoint_event(schema):
    st = JISCStrategy(schema, ORDER)
    tracer = RecordingTracer()
    tracer.attach(st)
    for tup in make_tuples([(s, 1) for s in ORDER]):
        st.process(tup)
    checkpoint_strategy(st)
    events = [ev for ev in tracer.events if ev.kind == "checkpoint"]
    assert len(events) == 1
    assert events[0].data["outputs"] == len(st.outputs)


def test_run_events_attaches_tracer(schema):
    tracer = RecordingTracer()
    st = JISCStrategy(schema, ORDER)
    run_events(st, make_tuples([(s, 1) for s in ORDER]), tracer=tracer)
    assert st.metrics.tracer is tracer
    assert tracer.counts_total() == st.metrics.counts


# -- ring buffer ---------------------------------------------------------------------


def test_ring_buffer_bounds_events_and_counts_drops():
    sc, swapped, cut = migration_workload()
    st = JISCStrategy(sc.schema, sc.order)
    tracer = RecordingTracer(capacity=10)
    tracer.attach(st)
    for tup in sc.tuples[:cut]:
        st.process(tup)
    st.transition(swapped)
    for tup in sc.tuples[cut:]:
        st.process(tup)
    assert len(tracer.events) == 10
    assert tracer.dropped > 0
    # Aggregates are exempt from eviction: the invariant still holds.
    assert tracer.counts_total() == st.metrics.counts


def test_rejects_bad_capacity():
    with pytest.raises(ValueError):
        RecordingTracer(capacity=0)


# -- JSONL round-trip ----------------------------------------------------------------


def test_jsonl_roundtrip(tmp_path):
    strategy, tracer = run_traced(JISCStrategy)
    path = tmp_path / "trace.jsonl"
    tracer.export_jsonl(str(path))
    trace = load_trace(str(path))
    assert trace.header["version"] == 1
    assert trace.header["dropped"] == 0
    assert len(trace.events) == len(tracer.events)
    assert trace.phase_counts == {
        p: dict(c) for p, c in tracer.phase_counts.items()
    }
    # every line is valid standalone JSON
    lines = path.read_text().strip().splitlines()
    assert all(json.loads(line) for line in lines)
    # latency histograms survive the round-trip
    hist = LatencyHistogram.from_json(trace.header["latency"][PHASE_STEADY])
    assert hist.count == tracer.latency[PHASE_STEADY].count
    assert hist.percentile(50) == tracer.latency[PHASE_STEADY].percentile(50)


def test_parse_jsonl_tolerates_missing_header():
    trace = parse_jsonl(
        [
            '{"ts": 1.0, "kind": "output", "phase": "steady", "latency": 2.5}',
            "",
            '{"ts": 2.0, "kind": "transition_start", "phase": "migrating", "seq": 7}',
        ]
    )
    assert trace.header == {}
    assert [ev.kind for ev in trace.events] == ["output", "transition_start"]
    assert trace.events[1].data["seq"] == 7


def test_truncated_trace_fails_loudly(tmp_path, capsys):
    """A header says how many events follow: a trace that lost its tail —
    whole lines, or half of one — raises instead of reading as a short run."""
    _, tracer = run_traced(JISCStrategy)
    text = tracer.to_jsonl()
    n = len(tracer.events)
    lines = text.splitlines(keepends=True)
    with pytest.raises(ValueError, match=rf"announces {n} events, {n - 1} could be read"):
        parse_jsonl(lines[:-1])
    cut_mid_line = text[: -len(lines[-1]) // 2 - 1]
    assert not cut_mid_line.endswith("\n")
    with pytest.raises(ValueError, match=rf"announces {n} events, {n - 1} could be read"):
        parse_jsonl(cut_mid_line.splitlines())
    assert len(parse_jsonl(lines).events) == n
    assert len(parse_jsonl(lines[1:-1]).events) == n - 1  # header-less: as it comes
    path = tmp_path / "cut.jsonl"
    path.write_text(cut_mid_line)
    assert report.main([str(path)]) == 1
    assert f"announces {n} events, {n - 1} could be read" in capsys.readouterr().err


# -- latency histogram ---------------------------------------------------------------


def test_histogram_percentiles_are_bucket_accurate():
    hist = LatencyHistogram()
    values = [float(v) for v in range(1, 1001)]
    for v in values:
        hist.add(v)
    assert hist.count == 1000
    assert hist.min == 1.0 and hist.max == 1000.0
    # geometric buckets with growth 1.25: within 25% of the exact rank
    assert hist.percentile(50) == pytest.approx(500, rel=0.25)
    assert hist.percentile(95) == pytest.approx(950, rel=0.25)
    assert hist.percentile(99) == pytest.approx(990, rel=0.25)
    assert hist.percentile(100) == 1000.0


def test_histogram_empty_and_bad_args():
    hist = LatencyHistogram()
    assert hist.percentile(99) == 0.0
    assert hist.mean() == 0.0
    with pytest.raises(ValueError):
        hist.add(-1.0)
    with pytest.raises(ValueError):
        hist.percentile(101)
    with pytest.raises(ValueError):
        LatencyHistogram(least=0)


def test_histogram_merge_and_json():
    a, b = LatencyHistogram(), LatencyHistogram()
    for v in (1.0, 2.0, 3.0):
        a.add(v)
    for v in (10.0, 20.0):
        b.add(v)
    a.merge(b)
    assert a.count == 5
    assert a.min == 1.0 and a.max == 20.0
    restored = LatencyHistogram.from_json(a.to_json())
    assert restored.summary() == a.summary()
    with pytest.raises(ValueError):
        a.merge(LatencyHistogram(least=2.0))
