"""Hot-path profiler: ``python -m repro.perf.profile``.

Runs one of the benchmark-shaped scenarios under :mod:`cProfile` and
prints the top functions by cumulative time — the tool that found (and
keeps finding) the engine's wall-clock hot spots (docs/PERFORMANCE.md).

Scenarios mirror the committed figures so a profile reads directly onto
the numbers the regression gate tracks:

* ``fig9``  — normal operation, 20 joins, no transitions (throughput);
* ``fig7``  — best-case migration stages across plan sizes (migration);
* ``fig10`` — transition-to-first-output latency, hash and NL joins;
* ``steady`` — ``benchmarks/wallclock``'s ``steady_join`` shape under JISC
  alone, generated before profiling starts: the ``calls / arrival`` printed
  under the table is the number ROADMAP tracks;
* ``migrate`` — ``migrate_churn``'s shape (7 streams, window 200, a worst-case
  transition every 100 arrivals), same protocol; also prints the collections
  per generation and the objects they found (a transition should leave none).

``--scale`` shrinks the tuple volume for quick iteration; the default
(1.0) matches the committed benchmark shapes.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pstats
from typing import Any, Callable, Dict

from repro.engine.executor import run_events
from repro.experiments.common import (
    measure_latency,
    measure_migration_stage,
    measure_normal_operation,
)
from repro.migration.jisc import JISCStrategy
from repro.workloads.scenarios import chain_scenario, frequency_events


def run_fig9(scale: float) -> Callable[[], Any]:
    return lambda: measure_normal_operation(
        n_joins=20,
        window=80,
        n_tuples=max(500, int(20_000 * scale)),
        checkpoints=1,
        seed=9,
        key_domain=120,
    )


def run_fig7(scale: float) -> Callable[[], Any]:
    sizes = (4, 8, 12) if scale >= 1.0 else (4,)
    return lambda: [
        measure_migration_stage(n, window=max(20, int(80 * scale)), case="best", seed=7)
        for n in sizes
    ]


def run_fig10(scale: float) -> Callable[[], Any]:
    window = max(20, int(80 * scale))
    return lambda: [
        measure_latency(window=window, n_joins=5, join=join, case="worst", seed=5)
        for join in ("hash", "nl")
    ]


def jisc_run(
    n_joins: int, n: int, window: int, key_domain: int, period: int = 0
) -> Callable[[float], Callable[[], int]]:
    """A ``benchmarks/wallclock`` shape under JISC alone, generated before
    profiling starts; ``period``: a worst-case transition every that many."""

    def scenario(scale: float) -> Callable[[], int]:
        n_tuples = max(500, int(n * scale))
        chain = chain_scenario(n_joins, n_tuples, window, key_domain=key_domain, seed=1)
        events = frequency_events(chain, period, case="worst") if period else chain.tuples
        engine = JISCStrategy(chain.schema, chain.order)

        def run() -> int:
            run_events(engine, events)
            return len(chain.tuples)

        return run

    return scenario


#: ``scenario(scale)`` sets up and returns what is profiled; a run that returns
#: an int fed that many arrivals to one engine.
SCENARIOS: Dict[str, Callable[[float], Callable[[], Any]]] = {
    "fig9": run_fig9,
    "fig7": run_fig7,
    "fig10": run_fig10,
    "steady": jisc_run(4, 25_500, 80, 80),
    "migrate": jisc_run(6, 27_000, 200, 250, period=100),
}


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.profile",
        description="cProfile one benchmark-shaped scenario, top-N by cumtime",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        default="fig9",
        choices=sorted(SCENARIOS),
        help="which figure-shaped workload to profile (default: fig9)",
    )
    parser.add_argument(
        "-n",
        "--top",
        type=int,
        default=25,
        help="number of functions to print (default: 25)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale factor, <1 for quick iteration (default: 1.0)",
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=("cumulative", "tottime", "calls"),
        help="pstats sort key (default: cumulative)",
    )
    args = parser.parse_args(argv)

    run = SCENARIOS[args.scenario](args.scale)
    before = gc.get_stats()
    profiler = cProfile.Profile()
    fed = profiler.runcall(run)
    collections = [
        (now["collections"] - was["collections"], now["collected"] - was["collected"])
        for was, now in zip(before, gc.get_stats())
    ]

    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort)
    print(f"== {args.scenario} (scale={args.scale}) — top {args.top} by {args.sort} ==")
    stats.print_stats(args.top)
    if isinstance(fed, int):
        print(f"calls / arrival: {stats.total_calls / fed:.1f} ({stats.total_calls} / {fed})")
        print(
            "collections (objects found): "
            + ", ".join(f"gen{g} {n} ({found})" for g, (n, found) in enumerate(collections))
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
