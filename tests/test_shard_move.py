"""A key moves between shards as state: ``extract`` on the source, ``install``
on the destination, whole dicts and no re-join (docs/SHARDING.md).

The reference is what a move used to be — a muted replay of the key's live
tuples through the destination's normal path, then their eviction from the
source — kept here, and only here, as :class:`ReplayMoves`.  A hypothesis
differential drives both over the same arrivals, transitions and fluid
plans for every shardable strategy, lazy and eager, with JISC states caught
mid-migration, and after every move compares:

* per worker and operator label, the entries held (by lineage) and the
  completeness flag (for Parallel Track, the newest track's);
* per shard, the outputs (by lineage: a move and a replay cost different
  virtual times, so emission times differ by design).

Crashing the source or the destination right after a move must recover
the worker that never crashed — clock, counts, outputs, and the merged
records of the whole run; the one way recovery may differ (the order of
one arrival's outputs) is spelled out on that test.  No ``ShardWorker.replay``
runs outside ``recover_shard``.
"""

import random
from collections import Counter as MultiSet
from contextlib import contextmanager
from unittest.mock import patch

import hypothesis.strategies as hst
import pytest
from hypothesis import given, settings

from repro.migration.jisc import JISCStrategy
from repro.shard import ShardedExecutor, balanced_assignment, skewed_assignment
from repro.shard.rebalance import ShardMove
from repro.shard.worker import STRATEGY_NAMES, ShardWorker
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple

pytestmark = pytest.mark.hashseed

NAMES = ("A", "B", "C")
SCHEMA = Schema.uniform(NAMES, 10)


def muted_replay(worker, tuples):
    """Feed ``tuples`` through ``worker``'s normal path and drop what they emit."""
    outs, times = worker.outputs, worker.output_times
    mark = len(outs)
    for tup in tuples:
        worker.feed(tup)
    del outs[mark:]
    del times[mark:]


class ReplayMoves(ShardedExecutor):
    """The reference move: re-join the key's live tuples on the destination
    with their outputs muted, then evict them from the source."""

    def _complete_key(self, scheduler, key, t):
        session = scheduler.session
        if session is None or not session.is_pending(key):
            return
        src, dst = session.route_of(key)
        live = list(self._live_by_key.get(key, ()))
        dst_worker, src_worker = self._worker(dst), self._worker(src)
        dst_worker.catch_up(t)
        muted_replay(dst_worker, live)
        src_worker.catch_up(t)
        for tup in live:
            src_worker.evict(tup)
        self.moves.append(ShardMove(key, src, dst, len(live), t))
        if session.settle(key):
            scheduler.on_batch_complete(session, t)


def holders(worker, newest=False):
    """Every state a worker holds, by (track, label); ``newest``: the newest
    plan's only — Parallel Track drops an old track on a cadence of
    arrivals, which a replayed tuple counts toward and a moved one does not."""
    strategy = worker.strategy
    if hasattr(strategy, "stems"):
        return {(0, name): stem.state for name, stem in strategy.stems.items()}
    plans = strategy.live_plans()
    return {
        (i, label): state
        for i, plan in enumerate(plans[-1:] if newest else plans)
        for label, state in plan.states().items()
    }


def snapshot(ex):
    """Per worker: each state's entries by lineage and its completeness."""
    return [
        None
        if worker is None
        else {
            where: (sorted(entry.lineage for entry in state.entries()), state.status.complete)
            for where, state in holders(worker, newest=True).items()
        }
        for worker in ex.workers
    ]


def shard_outputs(ex):
    return [None if w is None else sorted(w.output_lineages()) for w in ex.workers]


def born(ex, lineage):
    """External time of the arrival that completed an output."""
    return max(ex._arrival_T[stream][seq] for stream, seq in lineage)


def worker_view(ex, shard, exact=True):
    """A worker's clock, counts, outputs and their emission times.  Not
    ``exact``: one arrival's outputs as a set (see the crash test)."""
    worker = ex.workers[shard]
    lineages = list(worker.output_lineages())
    if not exact:
        lineages.sort(key=lambda lineage: (born(ex, lineage), lineage))
    return (worker.clock.now, dict(worker.metrics.counts), lineages, list(worker.output_times))


def records(ex, exact=True):
    rows = [(r.time, r.shard, r.index, r.lineage) for r in ex.merged_records()]
    if exact:
        return rows
    return [row[:3] for row in rows], sorted((shard, born(ex, lin), lin) for _, shard, _, lin in rows)


def tuples_for(seed, n, n_keys):
    rng = random.Random(seed)
    seqs = {name: 0 for name in NAMES}
    out = []
    for _ in range(n):
        stream = rng.choice(NAMES)
        out.append(StreamTuple(stream, seqs[stream], rng.randrange(n_keys)))
        seqs[stream] += 1
    return out


def executor(cls, strategy, shards):
    return cls(
        SCHEMA,
        NAMES,
        num_shards=shards,
        strategy=strategy,
        inter_arrival=2.0,
        assignment=skewed_assignment(64, 0),
    )


def drive(ex, tuples, transition_at, rebalance_at, mode, batch_keys, after_event=None):
    """The run every executor of one example sees: a transition (unless
    ``transition_at`` is ``None``), a fluid plan, and a transition back 25
    arrivals after the plan, over keys that have moved; ``after_event(i,
    moved)`` runs after each event with the moves it made."""
    for i, tup in enumerate(tuples):
        moved = len(ex.moves)
        if i == transition_at:
            ex.transition(("C", "B", "A"))
        if transition_at is not None and i == rebalance_at + 25:
            ex.transition(("B", "A", "C"))
        if i == rebalance_at:
            ex.fluid_rebalance(balanced_assignment(64, ex.num_shards), mode, batch_keys=batch_keys)
        ex.process(tup)
        if after_event is not None:
            after_event(i, ex.moves[moved:])
    ex.drain_rebalance()


@contextmanager
def replay_watch():
    """Yields the list of ``ShardWorker.replay`` calls made outside ``recover_shard``."""
    outside = []
    inside = [False]
    real_replay, real_recover = ShardWorker.replay, ShardedExecutor.recover_shard

    def replay(self, tuples):
        if not inside[0]:
            outside.append(len(tuples))
        return real_replay(self, tuples)

    def recover_shard(self, shard):
        inside[0] = True
        try:
            real_recover(self, shard)
        finally:
            inside[0] = False

    with patch.object(ShardWorker, "replay", replay), patch.object(
        ShardedExecutor, "recover_shard", recover_shard
    ):
        yield outside


RUN = dict(
    strategy=hst.sampled_from(STRATEGY_NAMES),
    mode=hst.sampled_from(["lazy", "eager"]),
    batch_keys=hst.integers(min_value=0, max_value=3),
    shards=hst.integers(min_value=2, max_value=3),
    transition_at=hst.integers(min_value=0, max_value=70),
    rebalance_gap=hst.integers(min_value=0, max_value=12),
    seed=hst.integers(min_value=0, max_value=2**16),
)


@settings(max_examples=40, deadline=None)
@given(**RUN)
def test_a_move_builds_what_a_replay_builds(
    strategy, mode, batch_keys, shards, transition_at, rebalance_gap, seed
):
    tuples = tuples_for(seed, 110, 6)
    rebalance_at = transition_at + rebalance_gap  # JISC states still incomplete
    moving = executor(ShardedExecutor, strategy, shards)
    replaying = executor(ReplayMoves, strategy, shards)
    plan = (tuples, transition_at, rebalance_at, mode, batch_keys)
    steps = []
    with replay_watch() as replays:
        drive(moving, *plan, after_event=lambda i, moves: steps.append(
            (snapshot(moving), shard_outputs(moving)) if moves else None))
    assert replays == []
    reference = []
    drive(replaying, *plan, after_event=lambda i, moves: reference.append(
        (snapshot(replaying), shard_outputs(replaying)) if moves else None))
    assert steps == reference
    assert [(m.key, m.src, m.dst, m.tuples_replayed, m.retired) for m in moving.moves] == [
        (m.key, m.src, m.dst, m.tuples_replayed, m.retired) for m in replaying.moves
    ]
    assert MultiSet(moving.output_lineages()) == MultiSet(replaying.output_lineages())
    assert MultiSet((r.shard, r.lineage) for r in moving.merged_records()) == MultiSet(
        (r.shard, r.lineage) for r in replaying.merged_records()
    )


@settings(max_examples=30, deadline=None)
@given(crash_dst=hst.booleans(), transition=hst.booleans(), **RUN)
def test_crashing_either_end_of_a_move_recovers_the_same_worker(
    crash_dst, transition, strategy, mode, batch_keys, shards, transition_at, rebalance_gap, seed
):
    """Recovery re-applies the source's ``extract`` and rebuilds the
    destination's parcel by a muted replay on a scratch worker.  That parcel
    holds the same entries, charged the same, but in replay order: where the
    source had built the key's state otherwise — JISC completion, a Moving
    State rebuild, after a ``transition`` — the outputs of one later arrival
    may come out in another order, at the same emission times.  Without a
    transition, recovery is exact to the output."""
    tuples = tuples_for(seed, 110, 6)
    rebalance_at = transition_at + rebalance_gap
    plan = (tuples, transition_at if transition else None, rebalance_at, mode, batch_keys)
    clean = executor(ShardedExecutor, strategy, shards)
    drive(clean, *plan)
    crashed = executor(ShardedExecutor, strategy, shards)
    exact = not transition

    def crash_after_move(i, moves):
        settled = [m for m in moves if not m.retired]
        if settled:
            shard = settled[-1].dst if crash_dst else settled[-1].src
            before = worker_view(crashed, shard, exact)
            crashed.crash_and_recover(shard)
            assert worker_view(crashed, shard, exact) == before

    with replay_watch() as replays:
        drive(crashed, *plan, after_event=crash_after_move)
    assert replays == []  # recovery's scratch replays are the only ones
    for shard in range(len(clean.workers)):
        assert worker_view(crashed, shard, exact) == worker_view(clean, shard, exact)
    assert records(crashed, exact) == records(clean, exact)


def test_a_move_journals_the_key_and_its_live_tuples():
    """One ``extract`` entry (the key) on the source, one ``install`` entry (the
    live tuples) on the destination, where a replay used to journal one
    ``evict`` per moved tuple; the destination is charged per entry adopted."""
    tuples = tuples_for(5, 60, 4)
    ex = executor(ShardedExecutor, "jisc", 2)
    ex.process_batch(tuples)
    key = tuples[-1].key
    live = tuple(ex._live_by_key[key])
    evicts = ex._logs[0].kinds.count("evict")
    ex.fluid_rebalance({b: 1 for b in range(64)}, "eager", batch_keys=0)
    (move,) = [m for m in ex.moves if m.key == key]
    assert (move.src, move.dst, move.tuples_replayed) == (0, 1, len(live))
    extracts = [p for k, p, _ in ex._logs[0] if k == "extract"]
    installs = [p for k, p, _ in ex._logs[1] if k == "install"]
    assert key in extracts and live in installs
    assert ex._logs[0].kinds.count("evict") == evicts
    held = sum(len(state.by_key.get(key, ())) for state in holders(ex.workers[1]).values())
    assert held > len(live)  # join results moved along with the base tuples
    assert ex.workers[1].metrics.counts["state_copy"] == sum(
        len(state) for state in holders(ex.workers[1]).values()
    )


def test_the_freshness_record_need_not_move():
    """JISC's freshness registry decides two things, and a key the destination
    never saw arrive reads *fresh* there — the conservative verdict for both:

    * a fresh probe may complete the key; on the destination the key is
      complete in every state (the source completed it before handing it
      over) and never pending, so nothing is re-run;
    * a fresh expiring tuple keeps propagating through incomplete states
      (Section 4.2's plain rule) instead of stopping early.

    The source keeps its record, and its memo says the key is settled, so
    the key reads correctly there too should it ever come back.  Outputs and
    entries match the replay, which does record the moved tuples."""
    tuples = tuples_for(9, 160, 5)
    runs = {}
    for cls in (ShardedExecutor, ReplayMoves):
        ex = cls(SCHEMA, NAMES, num_shards=2, strategy="jisc", inter_arrival=2.0)
        ex.process_batch(tuples[:60])
        ex.transition(("C", "B", "A"))
        ex.process_batch(tuples[60:64])
        ex.fluid_rebalance({b: 1 for b in range(64)}, "eager", batch_keys=0)
        runs[cls] = ex
    moving, replaying = runs[ShardedExecutor], runs[ReplayMoves]
    moved = [m.key for m in moving.moves if not m.retired]
    src, dst = moving.workers[0].strategy, moving.workers[1].strategy
    assert isinstance(dst, JISCStrategy) and dst.controller.incomplete_ops
    key = moved[0]
    assert dst.controller.freshness.check(StreamTuple("A", 10_000, key))  # never seen here
    for op in dst.plan.internal:
        assert not dst.controller.needs_completion(op, key)
    for op in src.plan.internal:
        assert not src.controller.needs_completion(op, key)
    assert snapshot(moving) == snapshot(replaying)
    for ex in (moving, replaying):
        ex.process_batch(tuples[64:])
    assert snapshot(moving) == snapshot(replaying)
    assert shard_outputs(moving) == shard_outputs(replaying)


@pytest.mark.parametrize("strategy", ["jisc", "parallel_track"])
def test_moved_in_tuples_count_as_seen_by_the_next_transition(strategy):
    """A new shard that only ever received keys by ``install`` must still date
    a transition after them, as it would after replaying them: JISC retires
    a pending value whose support all postdates the transition, and Parallel
    Track takes a track's entries born before it for old ones."""
    tuples = tuples_for(3, 200, 6)
    runs = []
    for cls in (ShardedExecutor, ReplayMoves):
        ex = cls(SCHEMA, NAMES, num_shards=1, strategy=strategy, inter_arrival=2.0)
        ex.process_batch(tuples[:100])
        ex.resize(2, "eager")
        runs.append(ex.workers[1].strategy.next_seq)
        ex.transition(("C", "B", "A"))  # before shard 1 sees an arrival of its own
        ex.process_batch(tuples[100:])
        runs.append(ex)
    moved_seq, moving, replayed_seq, replaying = runs
    assert moved_seq == replayed_seq > 0
    assert shard_outputs(moving) == shard_outputs(replaying)
