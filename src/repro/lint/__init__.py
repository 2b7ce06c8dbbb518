"""jisclint: AST-based invariant linting for the JISC reproduction.

The reproduction's headline guarantees are *structural*: byte-identical
op counts come from every RNG being a seeded ``random.Random`` threaded
explicitly (DESIGN.md); the tracer's zero-perturbation guarantee holds
only while tracer hook results never feed engine logic
(docs/OBSERVABILITY.md); and JISC's complete/closed/duplicate-free state
invariants (PAPER.md §4.3) hold only while ``HashState`` and
``StateStatus`` are mutated through the sanctioned operator/controller
paths.  None of these are things the type system or the test suite can
enforce directly — so this package makes them machine-checked.

Usage::

    python -m repro.lint src tests benchmarks
    python -m repro.lint --format json src
    python -m repro.lint --list-rules

Exit codes: 0 = clean, 1 = findings, 2 = usage/internal error.

Suppressions: append ``# jisclint: disable=JISC004`` (comma-separate for
several rules) to the offending line, or put
``# jisclint: disable-file=JISC004`` on its own line to suppress a rule
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
from repro.lint.baseline import (
    BaselineError,
    apply_baseline,
    load_baseline,
    render_baseline,
)
from repro.lint.reporters import render_json, render_text

# Importing the rule modules populates the registry as a side effect.
from repro.lint import flowrules as _flowrules  # noqa: F401
from repro.lint import rules as _rules  # noqa: F401

__all__ = [
    "BaselineError",
    "Finding",
    "LintContext",
    "Rule",
    "all_rules",
    "apply_baseline",
    "load_baseline",
    "register",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_baseline",
    "render_json",
    "render_text",
]
