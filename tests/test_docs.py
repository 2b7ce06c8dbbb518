"""Docs that cannot rot (ROADMAP item 9(c)): every file path and every
``python -m repro.…`` module that README, DESIGN, ROADMAP and docs/ name exists.

A PR that deletes or moves a module fails here until the prose that points at
it is rewritten; history (CHANGES.md, ISSUE.md) is not checked.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "ROADMAP.md", *sorted((ROOT / "docs").rglob("*.md"))]
#: ``src/repro/x/y.py`` and ``repro/x/y.py`` (the same file), ``tests/…``,
#: ``benchmarks/…``, ``examples/…`` — not a bare ``x/y.py``, which prose also
#: uses for files that are gone.
PATH = re.compile(r"(?<![\w/.-])((?:src/repro|repro|tests|benchmarks|examples)/[\w/.-]+\.py)\b")
MODULE = re.compile(r"python3? -m (repro(?:\.\w+)+)")


def resolves(module):
    base = ROOT / "src" / module.replace(".", "/")
    return base.with_suffix(".py").is_file() or (base / "__main__.py").is_file()


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_path_and_module_a_doc_names_exists(doc):
    text = doc.read_text()
    paths = set(PATH.findall(text))
    missing = sorted(p for p in paths if not (ROOT / ("src/" + p if p.startswith("repro/") else p)).is_file())
    modules = set(MODULE.findall(text))
    missing += sorted(f"python -m {m}" for m in modules if not resolves(m))
    assert not missing, f"{doc.name} names what does not exist: {missing}"


def test_the_patterns_find_what_they_are_for():
    sample = (
        "see `src/repro/perf/regress.py`, repro/core/bound.py and tests/test_docs.py; run "
        "`PYTHONPATH=src python -m repro.perf.regress --check`, not perf/gone.py"
    )
    assert PATH.findall(sample) == ["src/repro/perf/regress.py", "repro/core/bound.py", "tests/test_docs.py"]
    assert MODULE.findall(sample) == ["repro.perf.regress"] and resolves("repro.perf.regress")
    assert resolves("repro.lint") and not resolves("repro.perf.telemetry_gate")
    named = {m for doc in DOCS for m in MODULE.findall(doc.read_text())}
    assert {"repro.perf.regress", "repro.perf.profile", "repro.obs.report"} <= named
