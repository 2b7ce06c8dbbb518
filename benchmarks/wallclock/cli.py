"""Run the wall-clock benchmark: ``python -m benchmarks.wallclock``.

Per workload: one oracle pass, 5 closed-loop passes and 3 open-loop passes
(``--quick``: 1 + 1), each a fresh subprocess run strictly one at a time;
``--trace 1`` adds one traced pass.  Reported values are medians over the
passes; quartiles and raw values go to ``out/report.json``.  With exactly
one ``--workload`` the last line of standard output is the result object
BENCHMARK.json's driver reads: the end-to-end metrics, or with ``--trace 1``
the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

CLOSED_PASSES = 5
OPEN_PASSES = 3
QUICK_DIVISOR = 20
PASS_TIMEOUT_S = 60

#: What the open-loop passes measure (median of the passes).  Reported with
#: the per-layer metrics, without a bound: on the box the benchmark was
#: defined on, the host's memory state moves the length of a full garbage
#: collection, which is what the tail is made of, by +-20 % over tens of
#: seconds, and no probe tracks it (README, "Tail latency is not gated").
OPEN_LOOP = (
    "latency_p99_ms",
    "latency_p999_ms",
    "engine.service_p50_us",
    "generator.lag_p99_us",
    "generator.backlog_end_ms",
    "migration.transition_p99_ms",
)


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec: Dict[str, Any] = json.load(fh)
    return spec


def fingerprint() -> Dict[str, Any]:
    """What ran this report; ``calibration_score`` is not gated.

    The score is the ops/s of the fixed pure-Python dict loops the passes
    scale their times by (``passes.probe``, best of 20), so points measured
    on different machines can sit on one trajectory.
    """
    from benchmarks.wallclock import passes

    best = min(sum(passes.probe()) for _ in range(20))
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "calibration_score": (passes.HOT_OPS + passes.COLD_OPS) / best,
    }


def run_child(workload: str, mode: str, seed: int, n: int, rate: int) -> Optional[Dict[str, Any]]:
    """One pass in a fresh interpreter; ``None`` when the pass crashed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, ROOT, env.get("PYTHONPATH", "")) if p
    )
    cmd = [
        sys.executable, "-m", "benchmarks.wallclock.passes",
        "--workload", workload, "--mode", mode,
        "--seed", str(seed), "--n", str(n), "--rate", str(rate),
    ]  # fmt: skip
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"error: {workload} {mode} pass timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"error: {workload} {mode} pass exited with {proc.returncode}", file=sys.stderr)
        return None
    result: Dict[str, Any] = json.loads(proc.stdout.splitlines()[-1])
    return result


def summary(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles and the raw values of one metric over its passes."""
    out: Dict[str, Any] = {"value": statistics.median(values), "n": len(values), "raw": list(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    return out


def tally(passes: Sequence[Optional[Dict[str, Any]]], n: int, expected: int) -> Tuple[int, int]:
    """``(attempted, failed)`` operations over the engine passes of one workload.

    A pass attempts its arrivals and the oracle's outputs.  Every arrival
    whose call raised and every missing or spurious output failed; so did
    every arrival of an open-loop pass that fell behind its schedule, and
    everything a crashed pass (``None``) attempted.
    """
    failed = 0
    for p in passes:
        if p is None:
            failed += n + expected
        else:
            failed += p["missing"] + p["spurious"]
            failed += p["arrivals"] if p.get("unsustainable") else p.get("raised", 0)
    return len(passes) * (n + expected), failed


def run_workload(
    workload: Any, seed: int, seconds: float, quick: bool, traced: bool, spec: Dict[str, Any]
) -> Dict[str, Any]:
    """All passes of one workload, aggregated into one report entry."""
    n = int(workload.arrivals_per_second * seconds)
    closed_n, open_n = CLOSED_PASSES, OPEN_PASSES
    if quick:
        n, closed_n, open_n = n // QUICK_DIVISOR, 1, 1
    modes = ["closed"] * closed_n + ["open"] * open_n + ["traced"] * traced

    oracle = run_child(workload.name, "oracle", seed, n, workload.rate)
    passes: List[Optional[Dict[str, Any]]] = [None] * len(modes)  # nothing to check against
    if oracle is not None:
        passes = [run_child(workload.name, mode, seed, n, workload.rate) for mode in modes]
    done = [p for p in passes if p is not None]
    closed = [p for p in done if p["mode"] == "closed"]
    opened = [p for p in done if p["mode"] == "open"]
    trace = next((p for p in done if p["mode"] == "traced"), None)

    expected = oracle["oracle_outputs"] if oracle else 0
    attempted, failed = tally(passes, n, expected)
    entry: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "arrivals": n,
        "rate": workload.rate,
        "oracle_outputs": expected,
        "correct": len(done) == len(modes)
        and all(p["missing"] == p["spurious"] == 0 for p in done),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "unsustainable_passes": sum(1 for p in opened if p["unsustainable"]),
        "passes": passes,
    }
    if closed and opened:
        entry["end_to_end"] = {
            "setup_s": summary([p["setup_s"] for p in closed + opened]),
            "throughput_tps": summary([p["arrivals"] / p["wall_s"] for p in closed]),
            "cpu_us_per_arrival": summary([p["cpu_s"] / p["arrivals"] * 1e6 for p in closed]),
            "peak_rss_mb": summary([p["peak_rss_mb"] for p in closed]),
        }
        entry["open_loop"] = {name: summary([p[name] for p in opened]) for name in OPEN_LOOP}
        entry["import_s"] = summary([p["import_s"] for p in closed + opened])
        # as the wall clock of this machine saw it, before scaling to reference seconds
        entry["raw_throughput_tps"] = summary([p["arrivals"] / p["raw_wall_s"] for p in closed])
    if trace is not None and closed and opened:
        layers: Dict[str, Any] = dict(trace["trace"])
        layers.update(trace["sizes"])
        layers.update({name: s["value"] for name, s in entry["open_loop"].items()})
        layers["trace.overhead_ratio"] = trace["wall_s"] / statistics.median(
            p["wall_s"] for p in closed
        )
        layers["trace.unresolved_points"] = sum(
            1 for key, value in trace["trace"].items() if key.endswith(".calls") and value is None
        )
        # a counter this workload's engine does not have reads 0
        entry["per_layer"] = {m["name"]: 0 for m in spec["per_layer"]} | layers
    return entry


def print_summary(name: str, s: Dict[str, Any], unit: str) -> None:
    spread = f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}" if "q1" in s else ""
    print(f"  {name:<40} {s['value']:>14.6g} {unit:<6} n={s['n']}{spread}")


def print_entry(entry: Dict[str, Any], spec: Dict[str, Any]) -> None:
    print(
        f"\n== {entry['workload']}: seed {entry['seed']}, {entry['arrivals']} arrivals, "
        f"open loop at {entry['rate']}/s, oracle outputs {entry['oracle_outputs']} =="
    )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if "end_to_end" not in entry:
        print("  no closed or no open pass completed")
    else:
        for name, s in entry["end_to_end"].items():
            print_summary(name, s, units[name])
        print("  -- open loop (reported, not gated) --")
        for name, s in entry["open_loop"].items():
            print_summary(name, s, units[name])
    print(
        f"  {'failed_share':<40} {entry['failed_share']:>14.6g} {'ratio':<6} "
        f"({entry['failed']} of {entry['attempted']}; "
        f"{entry['unsustainable_passes']} unsustainable open-loop pass(es))"
    )
    print(f"  oracle check: {'ok' if entry['correct'] else 'FAILED'}")
    layers = entry.get("per_layer")
    if layers is None:
        return
    print(f"  -- per layer (traced pass; spans in out/trace_{entry['workload']}.jsonl) --")
    for name in sorted(set(layers) - set(OPEN_LOOP)):
        value = layers[name]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {shown:>14} {units.get(name, ''):<6}")


def result_line(entry: Dict[str, Any], spec: Dict[str, Any], traced: bool) -> str:
    """The one-object result the benchmark driver reads."""
    metrics: Dict[str, Dict[str, Any]] = {}
    if traced:
        layers = entry["per_layer"]
        for metric in spec["per_layer"]:
            # values must be numbers: a span point that no longer resolves
            # (None; trace.unresolved_points counts them) reads 0 here
            value = layers[metric["name"]]
            metrics[metric["name"]] = {"value": value or 0, "unit": metric["unit"]}
    else:
        for metric in spec["end_to_end"]:
            value = entry["end_to_end"][metric["name"]]["value"]
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return json.dumps(
        {
            "correct": entry["correct"],
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": metrics,
        }
    )


def run_set(args: argparse.Namespace, spec: Dict[str, Any], names: List[str]) -> Dict[str, Any]:
    from benchmarks.wallclock.workloads import WORKLOADS

    report: Dict[str, Any] = {
        "fingerprint": fingerprint(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "workloads": {},
    }
    for name in names:
        entry = run_workload(
            WORKLOADS[name], args.seed, args.seconds, args.quick, bool(args.trace), spec
        )
        report["workloads"][name] = entry
        print_entry(entry, spec)
    return report


def repeat_check(first: Dict[str, Any], second: Dict[str, Any], spec: Dict[str, Any]) -> bool:
    """Two sets of runs of the same code must agree within each metric's bound."""
    ok = True
    print(f"\n{'workload':<16} {'metric':<20} {'first':>12} {'second':>12} {'worse by':>9} {'bound':>6}")
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        for metric in spec["end_to_end"]:
            x = a["end_to_end"][metric["name"]]["value"]
            y = b["end_to_end"][metric["name"]]["value"]
            worse = (y - x) / x if metric["better"] == "lower" else (x - y) / x
            verdict = "PASS" if worse <= metric["bound"] else "FAIL"
            ok = ok and verdict == "PASS"
            print(
                f"{name:<16} {metric['name']:<20} {x:>12.6g} {y:>12.6g} "
                f"{worse:>+9.1%} {metric['bound']:>6.0%}  {verdict}"
            )
    return ok


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {os.path.join(SRC, 'repro')} not found; run from a full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.wallclock", description=__doc__)
    parser.add_argument("--workload", action="append", choices=known, help="default: all five")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="sizes each workload to measure for about this long (N scales with it)",
    )  # fmt: skip
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: add the traced pass")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--quick", action="store_true", help="N / 20, 1 closed + 1 open pass")
    parser.add_argument(
        "--repeat-check", action="store_true",
        help="run the set twice and compare the medians against the bounds",
    )  # fmt: skip
    args = parser.parse_args(argv)
    names = args.workload or known

    sys.path.insert(0, SRC)  # the workload table imports repro
    os.makedirs(OUT_DIR, exist_ok=True)
    report = run_set(args, spec, names)
    # correct means every pass completed, so every metric is there
    ok = all(e["correct"] for e in report["workloads"].values())
    if args.repeat_check and ok:
        second = run_set(args, spec, names)
        report = {"first": report, "second": second}
        ok = all(e["correct"] for e in second["workloads"].values())
        ok = ok and repeat_check(report["first"], second, spec)
    with open(os.path.join(OUT_DIR, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    if not ok:
        print("error: oracle check, a pass, or the repeat check failed", file=sys.stderr)
        return 1
    if len(names) == 1 and not args.repeat_check:
        print(result_line(report["workloads"][names[0]], spec, bool(args.trace)))
    return 0
