"""Seq-tuple identity: what ``ident`` is, what a state does at its edges,
and what the arrival path no longer touches (docs/PERFORMANCE.md).

The list-model property test of ``HashState`` lives in
``tests/test_property_based.py``; this file holds the example-based rest:
one ``ident`` from every construction route, fail-loud edges of the
positional layout, reject-before-mutate for unknown streams, a cold
interner, a count-based guard on what the collector has to visit, and
byte-identity across hash seeds.
"""

import gc
import json
import os
import subprocess
import sys

import pytest

from repro.eddy.cacq import CACQExecutor
from repro.engine.checkpoint import checkpoint_strategy, restore_strategy
from repro.engine.executor import interleave_transitions, run_events
from repro.engine.queued import BufferedJISCStrategy
from repro.migration.base import StaticPlanExecutor
from repro.migration.jisc import JISCStrategy
from repro.migration.mjoin import MJoinExecutor
from repro.migration.moving_state import MovingStateStrategy
from repro.migration.parallel_track import ParallelTrackStrategy
from repro.operators.state import HashState
from repro.perf.intern import INTERNER
from repro.streams.schema import Schema
from repro.streams.tuples import CompositeTuple, StreamTuple
from repro.workloads.scenarios import chain_scenario, swap_for_case


def base(stream, seq, key="k"):
    return StreamTuple(stream, seq, key)


# -- one identity, whatever built the composite ----------------------------------


def test_ident_is_equal_across_all_construction_routes():
    a, b, c, d = base("A", 7), base("B", 3), base("C", 9), base("D", 1)
    want = (7, 3, 9, 1)
    routes = {
        "single + run": CompositeTuple.of(b, CompositeTuple.of(a, c, d)),
        "run + single": CompositeTuple.of(CompositeTuple.of(a, b, d), c),
        "single + single, then singles": CompositeTuple.of(
            CompositeTuple.of(CompositeTuple.of(d, a), c), b
        ),
        "run + run": CompositeTuple.of(CompositeTuple.of(b, d), CompositeTuple.of(c, a)),
        "n-ary": CompositeTuple.of(d, c, b, a),
        "bare constructor": CompositeTuple("k", (a, b, c, d)),
    }
    for route, composite in routes.items():
        assert composite.ident == want, route
        assert composite.parts == (a, b, c, d), route
    first = routes["n-ary"]
    assert all(other == first and hash(other) == hash(first) for other in routes.values())
    assert a.ident == 7


def test_equal_idents_of_other_streams_are_not_equal_composites():
    rs = CompositeTuple.of(base("R", 1), base("S", 2))
    rt = CompositeTuple.of(base("R", 1), base("T", 2))
    assert rs.ident == rt.ident and rs != rt


def test_restored_states_dedup_against_live_built_composites():
    scenario = chain_scenario(3, 400, 12, key_domain=6, seed=2)
    live = JISCStrategy(scenario.schema, scenario.order)
    events = interleave_transitions(
        list(scenario.tuples), [(200, swap_for_case(scenario.order, "worst"))]
    )
    run_events(live, events)
    restored = restore_strategy(json.loads(json.dumps(checkpoint_strategy(live))))
    checked = 0
    for op in live.plan.internal:
        twin = restored.plan.by_identity[op.identity].state
        assert len(twin) == len(op.state)
        for entry in op.state.entries():
            assert entry in twin
            assert twin.add(entry) is False
            checked += 1
        assert len(twin) == len(op.state)
    assert checked > 50


# -- edges of the positional layout ----------------------------------------------


def test_entries_and_parts_outside_the_membership_are_absent():
    state = HashState()
    state.add(base("R", 5))
    assert base("S", 5) not in state
    assert state.remove_entry(base("S", 5)) is False
    assert state.remove_with_part(("S", 5)) == []
    assert CompositeTuple("k", (base("R", 5),)) not in state
    assert len(state) == 1

    joined = HashState()
    joined.add(CompositeTuple.of(base("R", 1), base("S", 2)))
    stranger = CompositeTuple.of(base("R", 1), base("T", 2))
    assert stranger not in joined
    assert joined.remove_entry(stranger) is False
    assert joined.remove_with_part(("T", 2)) == []
    assert joined.remove_with_part(("Q", 1)) == []
    assert base("R", 1) not in joined
    assert len(joined) == 1
    assert HashState().remove_with_part(("R", 1)) == []


def test_add_of_another_arity_raises_before_mutating():
    rs = CompositeTuple.of(base("R", 1), base("S", 2))
    rst = CompositeTuple.of(rs, base("T", 3))
    joined = HashState()
    joined.add(rs)
    for misfit in (rst, base("R", 1)):
        with pytest.raises(ValueError, match="does not fit a state of R\\+S"):
            joined.add(misfit)
    assert list(joined.entries()) == [rs]
    assert joined.part_index == ({1: {(1, 2): rs}}, {2: {(1, 2): rs}})
    assert joined.get("k") == [rs]

    scan_state = HashState()
    scan_state.add(base("R", 1))
    with pytest.raises(ValueError, match="does not fit a state of R"):
        scan_state.add(rs)
    assert len(scan_state) == 1 and scan_state.part_index == ()


def test_clear_resets_the_layout():
    state = HashState()
    state.add(CompositeTuple.of(base("R", 1), base("S", 2)))
    state.clear()
    assert state.layout == () and state.part_index == () and len(state) == 0
    state.add(base("T", 9))
    assert state.layout == ("T",)
    assert state.remove_with_part(("T", 9)) == [base("T", 9)]


# -- an unknown stream is rejected before anything is touched ----------------------

NAMES = ("R", "S", "T")


def snapshot(engine):
    """Everything an arrival could have touched, as comparable values."""
    plan = getattr(engine, "plan", None)
    scans = plan.scans if plan is not None else {}
    controller = getattr(engine, "controller", None)
    return (
        getattr(engine, "_last_seq", None),
        dict(engine.metrics.counts),
        {name: [t.seq for t in scan.window] for name, scan in scans.items()},
        len(engine.outputs),
        None if controller is None else (controller.current_part, controller.current_fresh),
    )


@pytest.mark.parametrize(
    "factory",
    [
        JISCStrategy,
        StaticPlanExecutor,
        MovingStateStrategy,
        ParallelTrackStrategy,
        BufferedJISCStrategy,
        CACQExecutor,
        MJoinExecutor,
    ],
    ids=lambda f: f.__name__,
)
def test_unknown_stream_is_rejected_before_any_mutation(factory):
    engine = factory(Schema.uniform(NAMES, 4), NAMES)
    engine.process(StreamTuple("R", 0, 1))
    before = snapshot(engine)
    stranger = StreamTuple("Z", 1, 1)
    with pytest.raises(ValueError, match="unknown stream 'Z'.*R, S, T"):
        engine.process(stranger)
    if hasattr(engine, "process_batch"):
        with pytest.raises(ValueError, match="unknown stream 'Z'"):
            engine.process_batch([stranger])
    assert snapshot(engine) == before
    engine.process(StreamTuple("S", 2, 1))  # and the engine is still usable
    assert snapshot(engine) != before


# -- nothing on the arrival path interns -------------------------------------------


def test_interner_does_not_grow_across_jisc_and_parallel_track_runs():
    scenario = chain_scenario(4, 1500, 20, key_domain=20, seed=4)
    events = interleave_transitions(
        list(scenario.tuples), [(700, swap_for_case(scenario.order, "worst"))]
    )
    before = len(INTERNER)
    jisc = JISCStrategy(scenario.schema, scenario.order)
    run_events(jisc, events)
    assert jisc.metrics.counts.get("completion_probe", 0) > 0  # completion ran
    tracks = ParallelTrackStrategy(scenario.schema, scenario.order)
    migrated = False
    for event in events:
        if isinstance(event, StreamTuple):
            tracks.process(event)
            migrated = migrated or tracks.in_migration()
        else:
            tracks.transition(event.new_spec)
    assert migrated and not tracks.in_migration()  # dedup ran, old track purged
    assert len(jisc.outputs) == len(tracks.outputs) > 1000
    assert len(INTERNER) == before


def test_second_half_of_a_run_allocates_few_tracked_objects_per_output():
    """What the collector has to visit grows with the outputs, not the entries.

    With collection off, ``len(gc.get_objects())`` counts every container
    allocated during the second half of a 5-stream run that is still alive
    at its end — each one is traversed at least once by every generation's
    next collection.  A retained output is three (the composite, its parts,
    its ident); the live state, bounded by the windows, is the rest.  A
    lineage built and interned per state entry is 16.8 per output.
    """
    scenario = chain_scenario(4, 8000, 40, key_domain=40, seed=3)
    tuples = list(scenario.tuples)
    half = len(tuples) // 2
    engine = JISCStrategy(scenario.schema, scenario.order)
    run_events(engine, tuples[:half])
    emitted_before = len(engine.outputs)
    gc.collect()
    gc.collect()  # nested all-atomic tuples untrack over two collections
    tracked_before = len(gc.get_objects())
    gc.disable()
    try:
        run_events(engine, tuples[half:])
        growth = len(gc.get_objects()) - tracked_before
    finally:
        gc.enable()
    emitted = len(engine.outputs) - emitted_before
    assert emitted > 3000
    assert growth <= 4.0 * emitted, (growth, emitted)


# -- PYTHONHASHSEED byte-identity ----------------------------------------------------

_SEED_SCRIPT = """
import json
from repro.engine.checkpoint import checkpoint_strategy
from repro.engine.executor import interleave_transitions, run_events
from repro.migration.jisc import JISCStrategy
from repro.workloads.scenarios import chain_scenario, swap_for_case

scenario = chain_scenario(6, 1400, 16, key_domain=16, seed=7)
best = swap_for_case(scenario.order, "best")
events = interleave_transitions(
    list(scenario.tuples), [(700, best), (1380, swap_for_case(best, "worst"))]
)
engine = JISCStrategy(scenario.schema, scenario.order)
run_events(engine, events)
assert engine.incomplete_state_count() > 0  # the checkpoint is mid-migration
print(json.dumps(engine.output_lineages()))
print(json.dumps(engine.output_times))
print(json.dumps(engine.metrics.snapshot(), sort_keys=True))
print(json.dumps(checkpoint_strategy(engine), sort_keys=True))
"""


def test_run_with_a_transition_is_byte_identical_across_hash_seeds():
    """Outputs, their virtual times, the op counters and the checkpoint of
    a fig7-shaped run (a best-case transition, then a worst-case one still
    completing at the end) must not depend on the interpreter's hash seed:
    no container on the state's paths is iterated in hash order."""
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    outputs = {}
    for seed in ("0", "1", "4242"):
        outputs[seed] = subprocess.run(
            [sys.executable, "-c", _SEED_SCRIPT],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONHASHSEED": seed, "PYTHONPATH": src},
        ).stdout
    assert outputs["0"] == outputs["1"] == outputs["4242"]
    assert len(json.loads(outputs["0"].splitlines()[0])) > 100
