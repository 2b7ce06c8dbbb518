"""Parallel Track Strategy (Section 3.3, after [4]).

On a transition the old plan keeps running and a brand-new plan (empty
states *and* empty windows) starts beside it; every arriving tuple is
processed by all live plans, and a duplicate-elimination layer on top
merges their outputs.  The old plan is discarded once all of its state
entries are "new" (arrived after the transition) — detected, as in the
paper, by periodically checking each old-plan operator's state for old
entries, which is itself a source of overhead.

Under overlapped transitions more than two plans can be live at once
(Section 3.3's last drawback): the track list holds them all.

The throughput cost reproduced here is exactly the paper's: during
migration every tuple is processed by every live track (≈50 % throughput
with two tracks), plus the dedup checks, plus the purge polling.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.cost import CostModel
from repro.engine.metrics import Counter, Metrics
from repro.migration.base import MigrationStrategy, SpecLike, as_spec, unknown_stream
from repro.obs.tracer import PHASE_MIGRATING
from repro.operators.state import Parcel, extract_key, fill_key, install_key, newest_seq
from repro.plans.build import PhysicalPlan, build_plan
from repro.streams.schema import Schema
from repro.streams.tuples import StreamTuple
from repro.streams.window import window_contents


class _Track:
    """One live plan plus bookkeeping."""

    __slots__ = ("plan", "birth_seq", "cursor")

    def __init__(self, plan: PhysicalPlan, birth_seq: int):
        self.plan = plan
        self.birth_seq = birth_seq
        self.cursor = 0  # index into plan.sink.outputs already collected


class ParallelTrackStrategy(MigrationStrategy):
    """Run old and new plans in parallel with duplicate elimination."""

    name = "parallel_track"

    def __init__(
        self,
        schema: Schema,
        initial_spec: SpecLike,
        metrics: Optional[Metrics] = None,
        join: str = "hash",
        cost_model: Optional[CostModel] = None,
        purge_check_interval: int = 16,
        purge_scan_full: bool = True,
    ):
        super().__init__(schema, initial_spec, metrics, join, cost_model)
        if purge_check_interval <= 0:
            raise ValueError("purge_check_interval must be positive")
        self.purge_check_interval = purge_check_interval
        # The paper's formulation has *every* old-plan operator check whether
        # all old tuples are purged from its state, repeated until discard
        # ("significant overhead", Section 3.3): each operator scans its
        # entries (stopping once its own verdict is settled).  Setting
        # ``purge_scan_full=False`` aborts the whole check at the first old
        # entry found anywhere (an engineering shortcut; see the
        # bench_ablation_pt_purge ablation).
        self.purge_scan_full = purge_scan_full
        self.tracks: List[_Track] = [_Track(self.plan, birth_seq=-1)]
        self._outputs: List[Any] = []
        self._output_times: List[float] = []
        # Dedup memo over output idents: every track's root covers the same
        # membership, so the flat seq tuple identifies a result across
        # tracks and the hottest migration-phase lookup hashes ints only.
        self._seen: Set[Tuple[int, ...]] = set()
        self._since_check = 0

    # -- strategy interface -----------------------------------------------------

    def live_plans(self) -> List[PhysicalPlan]:
        return [track.plan for track in self.tracks]

    def kernel(self, stream: str) -> None:
        """``None``: an arrival feeds every track and the purge, which only
        :meth:`process_batch` does."""
        return None

    def evict(self, tup: StreamTuple) -> bool:
        """Every track holds its own window; a plan born after ``tup``
        arrived legitimately does not hold it."""
        hit = False
        for track in self.tracks:
            if track.plan.scans[tup.stream].evict(tup):
                hit = True
        return hit

    def live_tuples(self) -> Dict[str, List[StreamTuple]]:
        """The live set is split across tracks (a new track starts empty and
        fills with post-transition arrivals only): the deduplicated union."""
        merged: Dict[str, List[StreamTuple]] = {}
        for track in self.tracks:
            for name, scan in track.plan.scans.items():
                seen = merged.setdefault(name, [])
                for tup in window_contents(scan):
                    if tup not in seen:
                        seen.append(tup)
        return merged

    def extract(self, key: Any) -> List[Parcel]:
        """Every track hands over its own share of ``key``, oldest first."""
        return [extract_key(track.plan.states(), key, self.metrics) for track in self.tracks]

    def install(self, key: Any, parcel: List[Parcel]) -> int:
        """Whole when both sides run one track; else every track is built from the
        oldest source track's live tuples (engines purge old tracks on their own)."""
        oldest = parcel[0]
        self._last_seq = max(self._last_seq, newest_seq(oldest))
        if len(self.tracks) == len(parcel) == 1:
            return install_key(self.plan.states(), key, oldest, self.metrics)
        live = [tup for bucket, parts in oldest.values() if not parts for tup in bucket.values()]
        return sum(fill_key(track.plan, key, live, self.metrics) for track in self.tracks)

    @property
    def outputs(self) -> List[Any]:
        return self._outputs

    @property
    def output_times(self) -> List[float]:
        """Emission times of the deduplicated output log (see base class)."""
        return self._output_times

    def output_lineages(self) -> List[Tuple]:
        return [tup.lineage for tup in self._outputs]

    def process_batch(self, tuples: Sequence[StreamTuple]) -> None:
        """Every live track takes each arrival; the track list is read per
        arrival, because a purge can drop the oldest one part-way through a run."""
        tracer = self.metrics.tracer
        for tup in tuples:
            tracks = self.tracks
            scans = tracks[0].plan.scans
            if tup.stream not in scans:
                raise unknown_stream(tup.stream, scans)
            hash(tup.key)
            if tup.seq > self._last_seq:
                self._last_seq = tup.seq
            # Parallel Track migrates not in the transition call (which only
            # spawns the new track) but for the whole multi-track period.
            migrating = tracer.enabled and len(tracks) > 1
            if tracer.enabled:
                tracer.arrival(tup)
            prev = tracer.set_phase(PHASE_MIGRATING) if migrating else None
            try:
                for track in tracks:
                    track.plan.feed(tup)
                self._collect()
                if len(tracks) > 1:
                    self._since_check += 1
                    if self._since_check >= self.purge_check_interval:
                        self._since_check = 0
                        self._purge_old_tracks()
            finally:
                if prev is not None:
                    tracer.set_phase(prev)

    def _do_transition(self, new_spec: SpecLike) -> None:
        plan = build_plan(
            as_spec(new_spec),
            self.schema,
            self.metrics,
            op_factory=self.op_factory,
        )
        self.tracks.append(_Track(plan, birth_seq=self.next_seq))

    # -- internals -----------------------------------------------------------------

    def _collect(self) -> None:
        """Merge fresh sink outputs from all tracks, eliminating duplicates.

        Dedup checks are counted in one ``count_n`` per collect: one
        DEDUP_CHECK per examined output, exactly as before, and nothing
        reads the clock between the grouped counts.
        """
        if len(self.tracks) == 1:
            # Steady state: a single track needs no dedup — bulk-copy the
            # fresh tail of its sink.
            track = self.tracks[0]
            sink = track.plan.sink
            n = len(sink.outputs)
            cursor = track.cursor
            if cursor < n:
                self._outputs.extend(sink.outputs[cursor:n])
                self._output_times.extend(sink.output_times[cursor:n])
                track.cursor = n
            return
        checks = 0
        seen = self._seen
        outputs = self._outputs
        output_times = self._output_times
        for track in self.tracks:
            sink = track.plan.sink
            outs = sink.outputs
            times = sink.output_times
            n = len(outs)
            cursor = track.cursor
            checks += n - cursor
            while cursor < n:
                out = outs[cursor]
                when = times[cursor]
                cursor += 1
                ident = out.ident
                if ident in seen:
                    continue
                seen.add(ident)
                outputs.append(out)
                output_times.append(when)
            track.cursor = n
        self.metrics.count_n(Counter.DEDUP_CHECK, checks)

    def _purge_old_tracks(self) -> None:
        """Discard leading tracks whose states hold only post-successor
        entries (the paper's periodic per-operator check)."""
        while len(self.tracks) > 1:
            old = self.tracks[0]
            threshold = self.tracks[1].birth_seq
            if not self._only_new_entries(old.plan, threshold):
                return
            self.tracks.pop(0)
            self._release(old.plan)
            for scan in old.plan.scans.values():  # a track's leaves are its own
                scan.parent = scan.fused = None
            self.plan = self.tracks[0].plan
            if len(self.tracks) == 1:
                # Migration over: the dedup memo is no longer needed.
                self._seen.clear()
                tracer = self.metrics.tracer
                if tracer.enabled:
                    tracer.migration_end(
                        self.name, successor_birth_seq=self.tracks[0].birth_seq
                    )
        return

    def _only_new_entries(self, plan: PhysicalPlan, threshold: int) -> bool:
        verdict = True
        checked = 0
        try:
            for op in plan.operators():
                for entry in op.state.entries():
                    checked += 1
                    # An entry is "old" if any constituent predates the
                    # successor plan: such results can never be produced by
                    # the successor (the old part is absent from its
                    # windows).
                    if entry.min_seq() < threshold:
                        verdict = False
                        if not self.purge_scan_full:
                            return False
        finally:
            # One PURGE_CHECK per examined entry, counted in bulk —
            # including on the early-return path.
            self.metrics.count_n(Counter.PURGE_CHECK, checked)
        return verdict

    # -- introspection ----------------------------------------------------------------

    def live_track_count(self) -> int:
        return len(self.tracks)

    def in_migration(self) -> bool:
        return len(self.tracks) > 1
