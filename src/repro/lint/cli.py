"""Command-line front end: ``python -m repro.lint [paths...]``.

Exit codes are CI-friendly and documented:

* ``0`` — clean
* ``1`` — at least one finding survived its file's suppressions
* ``2`` — usage error (unknown rule id, missing paths, failed
  ``--self-check``)

``--self-check`` lints committed product mutations of real modules and
fails unless every rule with a witness still catches its own.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.lint.core import all_rules, lint_paths
from repro.lint.reporters import render_rule_list, render_text

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="jisclint: invariant linter for the JISC reproduction",
        epilog=(
            "exit codes: 0 clean, 1 finding(s), 2 usage error "
            "(unknown rule, missing path, failed self-check)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="verify every rule still catches its committed witness and exit",
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

    try:
        findings = lint_paths(opts.paths, select=select)
    except OSError as exc:
        print(f"jisclint: {exc}", file=sys.stderr)
        return EXIT_USAGE

    print(render_text(findings))
    return EXIT_FINDINGS if findings else EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
