"""Command-line front end: ``python -m repro.lint [paths...]``.

Exit codes are CI-friendly and documented:

* ``0`` — clean (no new findings; baseline-accepted findings are fine)
* ``1`` — at least one finding survived suppressions and the baseline
* ``2`` — configuration or usage error (unknown rule id, unreadable
  paths, malformed or policy-violating baseline, failed ``--self-check``)

``--baseline .jisclint-baseline.json`` subtracts accepted legacy
findings; ``--write-baseline`` regenerates that file from the current
findings; ``--self-check`` lints committed product mutations of real
modules and fails unless every rule with a witness still catches its own.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.lint.baseline import (
    BaselineError,
    apply_baseline,
    load_baseline,
    render_baseline,
)
from repro.lint.core import all_rules, lint_paths
from repro.lint.reporters import render_json, render_rule_list, render_text

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="jisclint: invariant linter for the JISC reproduction",
        epilog=(
            "exit codes: 0 clean, 1 new finding(s), 2 usage/config error "
            "(unknown rule, bad baseline, failed self-check)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help=(
            "JSON baseline of accepted findings; only findings NOT in the "
            "baseline fail the run (entries under repro/migration or "
            "repro/shard are refused)"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to --baseline PATH and exit",
    )
    parser.add_argument(
        "--no-program",
        action="store_true",
        help="skip the whole-program (call graph / phase typestate) pass",
    )
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="verify the analyzer against embedded fixtures and exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    opts = parser.parse_args(argv)

    if opts.list_rules:
        print(render_rule_list())
        return EXIT_CLEAN

    if opts.self_check:
        from repro.lint.selfcheck import run_self_check

        ok, lines = run_self_check()
        for line in lines:
            print(f"jisclint self-check: {line}")
        if not ok:
            print("jisclint self-check: FAILED", file=sys.stderr)
            return EXIT_USAGE
        print("jisclint self-check: passed")
        return EXIT_CLEAN

    select: Optional[List[str]] = None
    if opts.select is not None:
        select = [rid.strip() for rid in opts.select.split(",") if rid.strip()]
        unknown = [rid for rid in select if rid not in all_rules()]
        if unknown:
            print(
                f"jisclint: unknown rule id(s): {', '.join(unknown)}",
                file=sys.stderr,
            )
            return EXIT_USAGE

    if opts.write_baseline and opts.baseline is None:
        print("jisclint: --write-baseline requires --baseline PATH", file=sys.stderr)
        return EXIT_USAGE

    try:
        findings = lint_paths(opts.paths, select=select, program=not opts.no_program)
    except OSError as exc:
        print(f"jisclint: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if opts.write_baseline:
        try:
            payload = render_baseline(findings)
        except BaselineError as exc:
            print(f"jisclint: {exc}", file=sys.stderr)
            return EXIT_USAGE
        with open(opts.baseline, "w", encoding="utf-8") as fh:
            fh.write(payload)
        print(f"jisclint: wrote baseline with {len(findings)} finding(s) to {opts.baseline}")
        return EXIT_CLEAN

    accepted_note = ""
    if opts.baseline is not None:
        try:
            baseline = load_baseline(opts.baseline)
        except BaselineError as exc:
            print(f"jisclint: {exc}", file=sys.stderr)
            return EXIT_USAGE
        result = apply_baseline(findings, baseline)
        findings = result.new
        if result.accepted:
            accepted_note = f" ({len(result.accepted)} baseline-accepted)"
        for rule, path, _message in result.stale:
            print(
                f"jisclint: stale baseline entry {rule} in {path} no longer "
                f"matches any finding; prune it",
                file=sys.stderr,
            )

    if opts.format == "json":
        print(render_json(findings))
    else:
        text = render_text(findings)
        print(text + accepted_note if accepted_note else text)
    return EXIT_FINDINGS if findings else EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
