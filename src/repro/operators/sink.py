"""Output sink: collects the query's result stream.

The sink is the root's parent.  It records every emitted result (the
append-only output log compared across strategies by the correctness
tests), retractions caused by window expiry or set-difference updates, and
the virtual-clock timestamp of each output — which is how the latency
experiment (Figure 10) measures "time from transition trigger to first
output tuple".
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, List, Optional, Tuple

from repro.streams.tuples import AnyTuple

from repro.engine.metrics import Counter, Metrics
from repro.operators.base import Operator

Part = Tuple[str, int]


class OutputSink(Operator):
    """Terminal collector of query results.  ``outputs`` / ``output_times`` /
    ``retractions`` are mutated in place only, never rebound (replay truncates
    with ``del``): fused kernels close over them."""

    kind = "sink"

    def __init__(self, metrics: Metrics):
        super().__init__(metrics)
        self.outputs: List[Any] = []
        self.output_times: List[float] = []
        self.retractions: List[Part] = []

    @property
    def membership(self) -> frozenset:
        return frozenset(("<sink>",))

    def attach(self, root: Operator) -> None:
        """Make this sink the parent of ``root``."""
        root.parent = self

    def process(self, tup: AnyTuple, child: Optional[Operator]) -> None:
        self.metrics.count(Counter.OUTPUT)
        self.outputs.append(tup)
        clock = self.metrics.clock
        when = clock.now if clock is not None else float(len(self.outputs))
        self.output_times.append(when)
        tracer = self.metrics.tracer
        if tracer.enabled:
            tracer.output(tup, when)

    def remove(self, part: Part, child: Operator, fresh: bool = True) -> None:
        self.retractions.append(part)

    def first_output_at_or_after(self, t: float) -> Optional[float]:
        """Virtual time of the first output at or after virtual time ``t``.

        ``output_times`` is non-decreasing (the virtual clock never runs
        backwards), so this is a binary search — the latency experiment
        calls it once per arrival, and a linear scan made that quadratic.
        """
        times = self.output_times
        i = bisect_left(times, t)
        if i < len(times):
            return times[i]
        return None

    def output_lineages(self) -> List[Tuple[Part, ...]]:
        """Lineages of all outputs, in emission order (the oracle's view)."""
        return [tup.lineage for tup in self.outputs]
