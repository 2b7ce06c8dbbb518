"""Perf-regression gate: ``python -m repro.perf.regress``.

One check, against in-repo ground truth: re-run the committed figures and
compare every number with the checked-in ``BENCH_<name>.json`` baselines.

* The paper's figures (fig7 migration, fig9 normal operation, fig10
  latency, …) are op counters and virtual times: counters must match
  exactly; virtual-time floats get a small tolerance for summation-order
  noise (and the 6-decimal rounding of the committed files).
* ``calls`` is what the Python process does per arrival, as counts that
  repeat exactly (``benchmarks/bench_calls.py``): named-function
  calls into each package of ``repro/`` per wall-clock workload shape and
  strategy, GC-tracked objects left alive, and the same events with a live
  telemetry hub attached — what the observers ran, and that they changed
  no op count and no output.  All integers, compared for equality; a PR
  that moves one refreshes the file and says why.  The file records the
  Python minor it was produced on: another interpreter compiles the same
  source to different frames, so a different minor is a mismatch on that
  field, not a silent pass.

No clock is read here.  Absolute speed is measured end to end and per
layer by ``python -m benchmarks.wallclock`` (docs/PERFORMANCE.md) — what a
*claim* is made in; counts are what CI holds a line with.

``--check`` makes failures exit non-zero (the CI gate);  ``--report``
writes a machine-readable JSON summary for artifact upload.  Baselines
are **read only** — refreshing them means re-running the benchmark suite
itself (docs/PERFORMANCE.md, "refreshing baselines").
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Tolerance for virtual-time floats: committed files are rounded to six
#: decimals and count-grouping reassociates IEEE sums at the ~1e-12 level.
ABS_TOL = 1e-5
REL_TOL = 1e-9


def compare(fresh: Any, baseline: Any, path: str = "") -> List[str]:
    """Recursive diff of two JSON-shaped values; returns mismatch strings.

    Ints (op counters, output counts) must match exactly; floats use the
    module tolerances; containers must agree on keys and lengths.
    """
    out: List[str] = []
    if isinstance(fresh, dict) and isinstance(baseline, dict):
        if set(fresh) != set(baseline):
            out.append(f"{path}: key sets differ: {sorted(set(fresh) ^ set(baseline))}")
            return out
        for k in sorted(fresh, key=str):
            out.extend(compare(fresh[k], baseline[k], f"{path}.{k}"))
    elif isinstance(fresh, list) and isinstance(baseline, list):
        if len(fresh) != len(baseline):
            out.append(f"{path}: length {len(fresh)} vs {len(baseline)}")
            return out
        for i, (a, b) in enumerate(zip(fresh, baseline)):
            out.extend(compare(a, b, f"{path}[{i}]"))
    elif isinstance(fresh, bool) or isinstance(baseline, bool):
        if fresh != baseline:
            out.append(f"{path}: {fresh!r} vs {baseline!r}")
    elif isinstance(fresh, float) or isinstance(baseline, float):
        a, b = float(fresh), float(baseline)
        if abs(a - b) > max(ABS_TOL, REL_TOL * abs(b)):
            out.append(f"{path}: {a} vs {b}")
    elif fresh != baseline:
        out.append(f"{path}: {fresh!r} vs {baseline!r}")
    return out


# ---------------------------------------------------------------------------


def _payload_fig9() -> Any:
    from benchmarks.bench_fig9_normal_operation import run
    from benchmarks.common import rows_json

    return {name: rows_json(rows) for name, rows in run().items()}


def _payload_fig7() -> Any:
    from benchmarks.bench_fig7_migration_best import run
    from benchmarks.common import rows_json

    return rows_json(run())


def _payload_fig10() -> Any:
    from benchmarks.bench_fig10_latency import run

    return [
        {"join": join, "window": window, **lat}
        for (join, window), lat in run().items()
    ]


def _run_of(bench: str) -> Callable[[], Any]:
    """Builder for a benchmark module whose ``run()`` result is its payload."""
    return lambda: importlib.import_module(f"benchmarks.{bench}").run()


def _payload_adaptive_drift() -> Any:
    from benchmarks.bench_adaptive_drift import payload, run

    return payload(run())


#: baseline file stem -> fresh-payload builder (shapes match the benchmark
#: tests' ``emit(..., data=...)`` calls exactly).
FIGURES: Dict[str, Callable[[], Any]] = {
    "fig9_normal_operation": _payload_fig9,
    "fig7_migration_best": _payload_fig7,
    "fig10_latency": _payload_fig10,
    "shard_scaleout": _run_of("bench_shard_scaleout"),
    "fluid_rebalance": _run_of("bench_fluid_rebalance"),
    "adaptive_drift": _payload_adaptive_drift,
    "ablation_stairs": _run_of("bench_ablation_stairs"),
    "calls": _run_of("bench_calls"),
}


def discover_baselines(repo_root: str) -> Tuple[Dict[str, str], List[str]]:
    """Glob the committed ``BENCH_*.json`` baselines at the repo root.

    Returns ``(known, unknown)``: stems with a registered payload builder
    mapped to their paths, and the stems of baseline files no builder
    knows about — the caller warns and skips those rather than erroring,
    so a benchmark that emits a new figure does not break the gate before
    this module registers it.
    """
    known: Dict[str, str] = {}
    unknown: List[str] = []
    for entry in sorted(os.listdir(repo_root)):
        if not (entry.startswith("BENCH_") and entry.endswith(".json")):
            continue
        stem = entry[len("BENCH_") : -len(".json")]
        if stem in FIGURES:
            known[stem] = os.path.join(repo_root, entry)
        else:
            unknown.append(stem)
    return known, unknown


def check_counts(repo_root: str) -> Dict[str, Any]:
    """Re-run each committed figure and diff against its BENCH baseline.

    Baselines are glob-discovered; files without a registered builder are
    reported as skipped (``"skipped": True``, still ``ok``), and a
    registered figure whose baseline file is missing entirely fails.
    """
    known, unknown = discover_baselines(repo_root)
    results: Dict[str, Any] = {}
    for name, build in FIGURES.items():
        path = known.get(name)
        if path is None:
            results[name] = {
                "ok": False,
                "mismatches": [
                    f"missing baseline {os.path.join(repo_root, f'BENCH_{name}.json')}"
                ],
            }
            continue
        with open(path) as fh:
            baseline = json.load(fh)["data"]
        mismatches = compare(build(), baseline)
        results[name] = {"ok": not mismatches, "mismatches": mismatches[:20]}
    for stem in unknown:
        results[stem] = {"ok": True, "skipped": True, "mismatches": []}
    return results


# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.regress",
        description="fresh figures vs the committed BENCH files: op counts, "
        "virtual time, calls and kept objects per arrival",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if any figure mismatches (the CI gate)",
    )
    parser.add_argument(
        "--report",
        metavar="FILE",
        help="write a JSON summary of the check to FILE",
    )
    args = parser.parse_args(argv)

    # The benchmark payload builders live in the repo-root ``benchmarks``
    # package; regress must run from a checkout, not an installed wheel.
    try:
        bench_common = importlib.import_module("benchmarks.common")
    except ImportError as exc:  # pragma: no cover - CLI misuse
        parser.error(f"cannot import the benchmarks package ({exc}); run from the repo root")

    print("== fresh figures vs committed BENCH files ==")
    counts = check_counts(bench_common.REPO_ROOT)
    ok = True
    for name, res in counts.items():
        if res.get("skipped"):
            print(f"  {name:<28} SKIPPED (no registered payload builder)")
            continue
        print(f"  {name:<28} {'OK' if res['ok'] else 'MISMATCH'}")
        for m in res["mismatches"]:
            print(f"    {m}")
        ok = ok and res["ok"]

    if args.report:
        with open(args.report, "w") as fh:
            json.dump({"counts": counts, "ok": ok}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.report}")

    if not ok:
        print("PERF REGRESSION DETECTED")
        return 1 if args.check else 0
    print("all perf checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
