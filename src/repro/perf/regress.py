"""Perf-regression gate: ``python -m repro.perf.regress``.

Two checks, both against in-repo ground truth:

1. **Op-count fidelity** — re-runs the committed benchmark figures
   (fig7 migration, fig9 normal operation, fig10 latency, …) and compares
   every op counter and virtual-time number against the checked-in
   ``BENCH_<name>.json`` baselines.  Counters must match exactly;
   virtual-time floats get a small tolerance for summation-order noise
   (and the 6-decimal rounding of the committed files).

2. **Telemetry overhead** — runs plain and telemetry-attached engine
   twins chunk-interleaved over the same gate shapes
   (:mod:`repro.perf.telemetry_gate`) and certifies that attaching the
   live hub leaves op counts and outputs byte-identical while costing at
   most ``--max-telemetry-overhead`` (default 5%) wall-clock — judged on
   the interquartile interval of nine paired trials, failing only when
   the whole interval lies above the limit.

Absolute speed is not gated here: it is measured end to end and per layer
by ``python -m benchmarks.wallclock`` (docs/PERFORMANCE.md).

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
# Check 1: committed-figure op counts.


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


def _payload_telemetry() -> Any:
    from repro.perf.telemetry_gate import identity_payload

    return identity_payload()


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
    "telemetry_overhead": _payload_telemetry,
    "adaptive_drift": _payload_adaptive_drift,
    "ablation_stairs": _run_of("bench_ablation_stairs"),
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
# Check 2: telemetry must observe, not perturb — and stay under budget.


def telemetry_verdict(res: Dict[str, Any], max_overhead: float) -> bool:
    """Identical in every trial, and not *resolvedly* over budget.

    The overhead fails only when the whole interquartile interval of the
    trials' total ratios lies above ``max_overhead``; an interval that
    straddles the limit is noise the gate cannot tell from a pass.
    """
    return bool(
        res["ops_identical"]
        and res["outputs_identical"]
        and res["overhead_q1"] <= max_overhead
    )


def check_telemetry(max_overhead: float) -> Dict[str, Any]:
    """Identity + overhead verdicts per telemetry gate workload.

    See :mod:`repro.perf.telemetry_gate` for the trial protocol and why
    only ratios of chunk-interleaved *totals* are trustworthy here.
    """
    from repro.perf.telemetry_gate import WORKLOADS, measure_overhead

    results: Dict[str, Any] = {}
    for name in WORKLOADS:
        res = measure_overhead(name)
        res["ok"] = telemetry_verdict(res, max_overhead)
        results[name] = res
    return results


# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.regress",
        description="op-count fidelity vs committed BENCH files + "
        "telemetry identity and wall-clock overhead",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero if any check fails (the CI gate)",
    )
    parser.add_argument(
        "--report",
        metavar="FILE",
        help="write a JSON summary of all checks to FILE",
    )
    parser.add_argument(
        "--max-telemetry-overhead",
        type=float,
        default=0.05,
        help="allowed wall-clock overhead of an attached TelemetryTracer "
        "(default: 0.05 = 5%%)",
    )
    parser.add_argument(
        "--skip-timing",
        action="store_true",
        help="skip the wall-clock check (telemetry overhead)",
    )
    parser.add_argument(
        "--skip-counts",
        action="store_true",
        help="skip the op-count fidelity checks",
    )
    parser.add_argument(
        "--skip-telemetry",
        action="store_true",
        help="skip the telemetry identity/overhead check",
    )
    args = parser.parse_args(argv)

    # The benchmark payload builders live in the repo-root ``benchmarks``
    # package; regress must run from a checkout, not an installed wheel.
    try:
        bench_common = importlib.import_module("benchmarks.common")
    except ImportError as exc:  # pragma: no cover - CLI misuse
        parser.error(f"cannot import the benchmarks package ({exc}); run from the repo root")
    repo_root = bench_common.REPO_ROOT

    report: Dict[str, Any] = {
        "counts": {},
        "telemetry": {},
        "max_telemetry_overhead": args.max_telemetry_overhead,
    }
    ok = True

    if not args.skip_counts:
        print("== op-count fidelity vs committed BENCH files ==")
        report["counts"] = check_counts(repo_root)
        for name, res in report["counts"].items():
            if res.get("skipped"):
                print(f"  {name:<28} SKIPPED (no registered payload builder)")
                continue
            status = "OK" if res["ok"] else "MISMATCH"
            print(f"  {name:<28} {status}")
            for m in res["mismatches"]:
                print(f"    {m}")
            ok = ok and res["ok"]

    if not (args.skip_telemetry or args.skip_timing):
        budget = args.max_telemetry_overhead
        print(
            f"== telemetry identity + overhead (fails when the whole "
            f"interquartile interval is > {budget:.1%}) =="
        )
        report["telemetry"] = check_telemetry(budget)
        for name, res in report["telemetry"].items():
            status = "OK" if res["ok"] else (
                "PERTURBED"
                if not (res["ops_identical"] and res["outputs_identical"])
                else "TOO EXPENSIVE"
            )
            print(
                f"  {name:<28} overhead median {res['overhead']:+.2%} "
                f"IQR [{res['overhead_q1']:+.2%}, {res['overhead_q3']:+.2%}] "
                f"hub {res['hub_us_per_arrival']:.2f} us/arrival "
                f"({len(res['overheads'])} trials: "
                f"{', '.join(f'{o:+.2%}' for o in res['overheads'])}) "
                f"identical={res['ops_identical'] and res['outputs_identical']} "
                f"{status}"
            )
            ok = ok and res["ok"]

    report["ok"] = ok
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.report}")

    if not ok:
        print("PERF REGRESSION DETECTED")
        return 1 if args.check else 0
    print("all perf checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
