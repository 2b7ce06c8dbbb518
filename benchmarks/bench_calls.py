"""What the Python process does per arrival, as counts that repeat exactly.

One row per wall-clock workload shape (``benchmarks/wallclock``'s five, plus
the two shapes the telemetry hub's identity was always certified on) and
strategy: named-function calls into each package of ``repro/``, GC-tracked
objects left alive with collection off, and the same events with a live
``TelemetryTracer`` attached from outside — what ``telemetry`` + ``obs`` ran
per arrival, and that the hub changed no op count and no output
(:func:`call_counts`; ``repro.perf.profile`` has the shapes and the counter).

Steady-state overhead and migration cost are separate shapes (``steady`` runs
no transition, ``migrate`` a worst-case one every 100 arrivals), so the table
reads as the paper's comparison without a clock: between transitions JISC makes
the static pipeline's calls exactly (Figure 9 a), and what a strategy pays to
migrate is the difference between its two rows.  The eddy family does not run
the fused kernels (ROADMAP item 7(d)): ``stairs`` is a dispatch style as much
as a strategy here, and the table says so as a number.

Each row's ``bytecodes`` cell counts the bytecodes run in frames under ``repro/``
over a window of :data:`WINDOW` arrivals from the middle of the same run, fed as
the run feeds them (windows full, plans compiled): the work inside a frame that
a call count misses.  A traced bytecode costs about a microsecond, so the window
is what keeps the table to about a minute; :func:`run` — what the gate's tests
build twice — traces nothing.

``BENCH_calls.json`` is compared for equality by ``python -m repro.perf.regress``.
It records the Python minor it was produced on — another interpreter compiles
the same source to different frames; refresh it on that minor, and say in the
same diff why a count moved.
"""

import gc
import os
import sys
from collections import Counter

from benchmarks.common import emit, once
from repro.perf.profile import SCENARIOS, count_bytecodes, count_calls
from repro.shard.worker import STRATEGY_NAMES

#: shape (a ``repro.perf.profile`` scenario) -> the strategies it runs under.
SHAPES = {
    "steady": STRATEGY_NAMES,
    "migrate": STRATEGY_NAMES,
    "sharded": ("jisc",),
    "rebalance": ("jisc",),
    "adaptive": ("jisc",),
    "fig9_shape": ("jisc",),
    "fig7_shape": ("jisc",),
}
HUB_PACKAGES = ("telemetry", "obs")
#: Arrivals in a row's bytecode window.
WINDOW = 500


def by_package(calls):
    """``top-level package of repro/ -> calls`` (a ``deque.remove`` has no file)."""
    packages = Counter()
    for (path, _name), n in calls.items():
        if path:
            packages[path.partition(os.sep)[0]] += n
    return dict(packages)


def call_counts(shape, strategy="jisc", scale=1.0):
    """One row: what one run of ``shape`` under ``strategy`` called and kept, then
    the same events with a live hub attached from outside — what the hub's
    packages ran, and that it changed no op count and no output.  All integers."""
    # A first pass over identical events: what the interpreter sets up on first use
    # (``hashlib.blake2b``'s keyword tuple is one tracked object) exists before
    # anything is counted, whatever this process ran earlier.
    SCENARIOS[shape](scale, strategy).drive()
    plain = SCENARIOS[shape](scale, strategy)

    def measured():
        before = len(gc.get_objects())
        plain.drive()
        return len(gc.get_objects()) - before

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        # A collection untracks the tuples and dicts that hold nothing trackable, one
        # nesting level per pass (a plan spec is tuples in tuples).  Collect until a
        # pass changes nothing: whether what dies during the run — the first plan, its
        # spec — was counted beforehand then no longer depends on which collections
        # this process happened to run earlier.
        tracked = -1
        while tracked != (tracked := len(gc.get_objects())):
            gc.collect()
        kept, calls = count_calls(measured)
    finally:
        if was_enabled:
            gc.enable()
    ops = dict(plain.ops())
    row = {
        "arrivals": plain.arrivals,
        "calls": by_package(calls),
        "kept_objects": kept,
        "ops": {str(op): n for op, n in ops.items()},
        "outputs": len(plain.engine.outputs),
    }
    if plain.attach_hub is not None:
        observed = SCENARIOS[shape](scale, strategy)
        hub = observed.attach_hub()
        _, calls = count_calls(observed.drive)
        row["observed"] = {
            "calls": by_package(calls),
            "ops_identical": dict(observed.ops()) == ops,
            "outputs_identical": observed.engine.output_lineages()
            == plain.engine.output_lineages(),
            "series": len(hub.series()),
        }
    return row


def run(scale=1.0):
    return {
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        "shapes": {
            shape: {strategy: call_counts(shape, strategy, scale) for strategy in strategies}
            for shape, strategies in SHAPES.items()
        },
    }


def bytecode_counts(shape, strategy="jisc", scale=1.0):
    """Bytecodes run under ``repro/`` over the :data:`WINDOW` arrivals from the
    middle of ``shape``'s run: ``{"arrivals": …, "count": …}``."""
    engine_run = SCENARIOS[shape](scale, strategy)
    start = engine_run.arrivals // 2
    stop = min(engine_run.arrivals, start + WINDOW)
    # What the window does for the first time in this process is done once before.
    SCENARIOS[shape](scale, strategy).feed(0, stop)
    engine_run.feed(0, start)
    _, counts = count_bytecodes(lambda: engine_run.feed(start, stop))
    return {"arrivals": stop - start, "count": sum(counts.values())}


def payload(scale=1.0):
    """The committed file's data: :func:`run`, then each row's bytecode window."""
    data = run(scale)
    for shape, strategy, row in rows(data):
        row["bytecodes"] = bytecode_counts(shape, strategy, scale)
    return data


def rows(payload):
    """``(shape, strategy, row)`` in the file's order."""
    for shape, by_strategy in payload["shapes"].items():
        for strategy, row in by_strategy.items():
            yield shape, strategy, row


def hub_calls(observed):
    """Calls into the observers' packages of a row's hub-attached run."""
    return sum(observed["calls"].get(package, 0) for package in HUB_PACKAGES)


def test_calls_per_arrival(benchmark):
    data = once(benchmark, payload)
    lines = [
        f"python {data['python']}",
        f"{'shape':<11} {'strategy':<15} {'arrivals':>8} {'calls/arr':>10} {'bc/arr':>9} "
        f"{'kept/arr':>9} {'hub/arr':>8} {'series':>7} {'ops==':>6} {'out==':>6}",
    ]
    for shape, strategy, row in rows(data):
        n = row["arrivals"]
        observed = row.get("observed")  # absent: the hub is part of the engine
        hub = (
            f"{hub_calls(observed) / n:>8.3f} {observed['series']:>7d} "
            f"{str(observed['ops_identical']):>6} {str(observed['outputs_identical']):>6}"
            if observed
            else f"{'-':>8} {'-':>7} {'-':>6} {'-':>6}"
        )
        window = row["bytecodes"]
        lines.append(
            f"{shape:<11} {strategy:<15} {n:>8d} {sum(row['calls'].values()) / n:>10.2f} "
            f"{window['count'] / window['arrivals']:>9.1f} {row['kept_objects'] / n:>9.3f} {hub}"
        )
        if observed:
            assert observed["ops_identical"], f"{shape}/{strategy}: the hub changed op counts"
            assert observed["outputs_identical"], f"{shape}/{strategy}: the hub changed outputs"
            assert observed["series"] > 0, f"{shape}/{strategy}: the hub's view has no series"
    emit("calls", lines, data=data)
    steady = data["shapes"]["steady"]
    assert steady["jisc"]["calls"] == steady["static"]["calls"]  # Figure 9 a, call for call
