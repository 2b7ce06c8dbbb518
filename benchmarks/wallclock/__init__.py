"""Wall-clock benchmark of the ``repro`` engine (BENCHMARK.json at the repo root).

Five named workloads are driven through the unmodified public API of
``repro``; every pass runs in a fresh interpreter.  Untraced passes give
the end-to-end numbers (throughput, CPU per arrival, open-loop tail
latency, peak RSS, set-up time); one separately traced pass gives per-layer
self time and call counts.  See README.md in this directory.
"""
