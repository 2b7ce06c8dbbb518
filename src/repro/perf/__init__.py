"""Hot-path acceleration layer (see docs/PERFORMANCE.md).

The package carries the pieces of the engine's performance story that are
not operator semantics:

* :mod:`repro.perf.intern` — the process-local lineage intern table.
  Cold: operator state identifies entries by flat seq tuples
  (:mod:`repro.operators.state`) and nothing on the arrival path interns;
  it stays importable because ``benchmarks/wallclock`` reads it;
* :mod:`repro.perf.profile` — ``python -m repro.perf.profile``, cProfile
  over the benchmark scenarios, and the shapes and the call counter
  ``BENCH_calls.json`` is built from (``benchmarks/bench_calls.py``);
* :mod:`repro.perf.regress` — ``python -m repro.perf.regress``, the CI
  gate comparing fresh op counts, virtual times and call counts against
  the committed ``BENCH_*.json`` baselines.  Nothing here reads a clock:
  real seconds are ``benchmarks/wallclock``'s.

Only the intern table is imported eagerly (the data model's
``lineage_id`` uses it); the harness modules are CLI/dev tools.
"""

from repro.perf.intern import INTERNER, LineageInterner, intern_lineage

__all__ = ["INTERNER", "LineageInterner", "intern_lineage"]
