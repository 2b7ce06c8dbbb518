"""``python -m repro.lint --self-check``: every kept rule still catches its witness.

A rule stays in jisclint while it has a *witness*: a plausible one-line edit
to a real module under ``src/repro`` that the rule flags while tier-1 and
``python -m repro.perf.regress --check`` both pass — a defect only the rule
sees (docs/STATIC_ANALYSIS.md, "Verdicts").  The witnesses are committed
here.  The self-check reads each module from this tree, applies the edit,
and requires the rule to fire on the mutant and to stay quiet on the module
as committed.  A witness whose line is gone fails as well: restate the edit
against the code as it is now, or the rule has lost its evidence.  Any
failure is an internal error (exit 2), never a finding.
"""

from __future__ import annotations

import os
import tokenize
from typing import List, Optional, Set, Tuple

from repro.lint.core import lint_source

#: ``src/repro``: witness modules are named relative to it.
_PACKAGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


#: The committed witnesses: (rule, module under ``src/repro``, the line as
#: committed, the mutant).  What each mutant breaks, and why no other gate
#: sees it, is the verdict table of docs/STATIC_ANALYSIS.md.
WITNESSES: Tuple[Tuple[str, str, str, str], ...] = (
    (
        "JISC000",
        "engine/checkpoint.py",
        "scan.window.push_all(tup)",
        "scan.window.push_all(tup)  # jisclint: disable=JISC001",
    ),
    ("JISC001", "eddy/routing.py", "pick = self._rng.random() * total", "pick = random.random() * total"),
    (
        "JISC003",
        "operators/setdiff.py",
        "self.metrics.count_n(Counter.STATE_REMOVE, len(removed))",
        "self.metrics.counts[Counter.STATE_REMOVE] = self.metrics.get(Counter.STATE_REMOVE) + len(removed)",
    ),
    ("JISC005", "operators/setdiff.py", "self.emit(outer)", "self.parent.process(outer, self)"),
    (
        "JISC006",
        "operators/setdiff.py",
        'raise ValueError("set-difference chains carry base tuples only")',
        'assert False, "set-difference chains carry base tuples only"',
    ),
    ("JISC008", "operators/setdiff.py", "for part in sorted(released):", "for part in released:"),
    ("JISC010", "shard/executor.py", "tracer.set_phase(prev)", 'tracer.set_phase("steady")'),
)


def _fired(source: str, path: str) -> Set[str]:
    return {f.rule_id for f in lint_source(source, path=path)}


def _check(rule: str, module: str, line: str, mutant: str) -> Optional[str]:
    path = os.path.join(_PACKAGE, *module.split("/"))
    with tokenize.open(path) as fh:
        source = fh.read()
    where = f"{rule} witness in {module}"
    if source.count(line) != 1:
        return f"{where}: `{line}` no longer occurs exactly once; restate it"
    if rule in _fired(source, path):
        return f"{where}: fires on the module as committed"
    if rule not in _fired(source.replace(line, mutant), path):
        return f"{where}: missed `{mutant}`"
    return None


def run_self_check() -> Tuple[bool, List[str]]:
    """Returns (ok, report lines)."""
    lines: List[str] = []
    ok = True
    for rule, module, line, mutant in WITNESSES:
        error = _check(rule, module, line, mutant)
        if error:
            ok = False
            lines.append(f"FAIL {error}")
        else:
            lines.append(f"ok {rule} catches {module}: {mutant}")
    return ok, lines
