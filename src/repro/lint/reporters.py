"""Finding renderers: the text report and the ``--list-rules`` table.

Text findings are ``path:line:col: RULEID message`` — the format every
editor and CI annotator already knows how to hyperlink.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.lint.core import Finding, all_rules


def render_text(findings: Sequence[Finding]) -> str:
    """One line per finding plus a summary tail line."""
    lines = [
        f"{f.path}:{f.line}:{f.col}: {f.rule_id} {f.message}" for f in findings
    ]
    if findings:
        by_rule: Dict[str, int] = {}
        for f in findings:
            by_rule[f.rule_id] = by_rule.get(f.rule_id, 0) + 1
        tally = ", ".join(f"{rid}: {n}" for rid, n in sorted(by_rule.items()))
        lines.append(f"jisclint: {len(findings)} finding(s) ({tally})")
    else:
        lines.append("jisclint: clean")
    return "\n".join(lines)


def render_rule_list() -> str:
    """The ``--list-rules`` table."""
    lines: List[str] = []
    for rid, cls in sorted(all_rules().items()):
        lines.append(f"{rid}  {cls.name}")
        lines.append(f"       {cls.description}")
    return "\n".join(lines)
