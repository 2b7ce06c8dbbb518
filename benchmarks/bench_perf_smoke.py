"""Perf smoke suite: absolute wall-clock timings of two reduced scenarios.

Unlike the figure benchmarks, this file measures *real seconds*, not op
counts, and emits no ``BENCH_*.json`` (wall-clock numbers are machine-
specific and must never become diffable baselines).  It holds
pytest-benchmark timings of reduced fig9-/fig7-shaped scenarios, so
``--benchmark-compare`` can track absolute times on a fixed machine.

The end-to-end and per-layer performance story is
``python -m benchmarks.wallclock``; the op-count fidelity checks live in
``python -m repro.perf.regress``.
"""

from benchmarks.common import once
from repro.experiments.common import measure_migration_stage, measure_normal_operation


def normal_operation():
    """Reduced fig9 shape at the domain == window density."""
    return measure_normal_operation(
        n_joins=10, window=60, n_tuples=6_000, checkpoints=1, seed=9, key_domain=60
    )


def migration_stage():
    """Reduced fig7 shape: best-case migration of an 8-join plan."""
    return measure_migration_stage(8, window=60, case="best", seed=7)


def test_smoke_normal_operation_timing(benchmark):
    once(benchmark, normal_operation)


def test_smoke_migration_timing(benchmark):
    once(benchmark, migration_stage)
