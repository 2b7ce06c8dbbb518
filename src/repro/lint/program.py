"""Whole-program analysis driver: call graph -> phase typestate -> findings.

:func:`run_program_analysis` is invoked by :func:`repro.lint.core.lint_paths`
after the per-file rules.  It links every engine file of the run (files whose
:attr:`LintContext.module_path` is set and outside ``repro/lint``) into one
:class:`~repro.lint.callgraph.Project`, runs the phase-typestate verifier,
and reports violations through each file's :class:`LintContext` — so the
ordinary ``# jisclint: disable=JISC004`` suppression machinery (including
JISC000 unused-suppression tracking) applies to program findings exactly as
it does to per-file ones.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence

from repro.lint.callgraph import Project, extract_module_facts
from repro.lint.core import LintContext
from repro.lint.typestate import PhaseProof, verify_phases

#: rule id program-level phase violations are reported under (they are the
#: interprocedural upgrade of the per-file state-discipline rule)
PHASE_RULE_ID = "JISC004"


def build_project_from_contexts(contexts: Sequence[LintContext]) -> Optional[Project]:
    """Link the engine files among ``contexts``; None when there are none.

    Duplicate module paths (e.g. a fixture copy of an engine file in a
    temporary directory linted alongside the real tree) keep the first
    occurrence only — mixing two definitions of one module would conflate
    their call graphs.
    """
    by_module: Dict[str, LintContext] = {}
    for ctx in contexts:
        if ctx.module_path is None or not ctx.in_engine:
            continue
        by_module.setdefault(ctx.module_path, ctx)
    if not by_module:
        return None
    return Project(
        [
            extract_module_facts(ctx.path, module_path, ctx.tree)
            for module_path, ctx in sorted(by_module.items())
        ]
    )


def run_program_analysis(contexts: Sequence[LintContext]) -> Optional[PhaseProof]:
    """Verify phase typestate across ``contexts``; report into them."""
    by_module: Dict[str, List[LintContext]] = {}
    for ctx in contexts:
        if ctx.module_path is not None and ctx.in_engine:
            by_module.setdefault(ctx.module_path, []).append(ctx)
    project = build_project_from_contexts(contexts)
    if project is None:
        return None
    proof = verify_phases(project)
    for violation in proof.violations:
        targets = by_module.get(violation.path)
        if not targets:
            continue
        loc = SimpleNamespace(lineno=violation.line, col_offset=0)
        targets[0].report(PHASE_RULE_ID, loc, violation.message)
    return proof
