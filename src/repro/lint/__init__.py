"""jisclint: AST-based invariant linting for the JISC reproduction.

Seven rules stay, each because a committed *witness* shows it catching a
plausible product defect that tier-1 and the count gate both miss
(``repro.lint.selfcheck``; docs/STATIC_ANALYSIS.md has the verdict table):
unused suppressions (JISC000), wall clocks and shared RNGs (JISC001),
direct ``Metrics.counts`` writes (JISC003), operator-to-operator pushes
around the scheduler (JISC005), runtime asserts and other hygiene slips
(JISC006), set-order taint reaching an order-sensitive effect (JISC008),
and phase spans or rebalance sessions left open (JISC010).

Usage::

    python -m repro.lint src tests benchmarks
    python -m repro.lint --self-check
    python -m repro.lint --list-rules

Exit codes: 0 = clean, 1 = findings, 2 = usage/internal error.

Suppressions: append ``# jisclint: disable=JISC001`` (comma-separate for
several rules) to the offending line, or put
``# jisclint: disable-file=JISC001`` on its own line to suppress a rule
for a whole file.  Suppressions that never fire are themselves reported
(JISC000), so stale opt-outs cannot accumulate.
"""

from __future__ import annotations

from repro.lint.core import (
    Finding,
    LintContext,
    Rule,
    all_rules,
    lint_file,
    lint_paths,
    lint_source,
    register,
)
from repro.lint.reporters import render_text

# Importing the rule modules populates the registry as a side effect.
from repro.lint import flowrules as _flowrules  # noqa: F401
from repro.lint import rules as _rules  # noqa: F401

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "all_rules",
    "register",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_text",
]
