"""Docs that cannot rot (ROADMAP item 9(c)): every file path and every
``python -m repro.…`` module that README, DESIGN, ROADMAP and docs/ name exists,
and every ``path.py::Symbol[.member]`` they name is defined there.

A PR that deletes or moves a module fails here until the prose that points at
it is rewritten; history (CHANGES.md, ISSUE.md) is not checked.
Symbols are resolved by reading the file's syntax tree, not by importing it.
"""

import ast
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
#: ``dir/file.py::name`` or ``dir/file.py::Class.member``; the path may also be
#: relative to ``src/repro`` (``core/bound.py::bind_left_deep``).
SYMBOL = re.compile(r"(?<![\w/.-])((?:[\w-]+/)+[\w-]+\.py)::(\w+(?:\.\w+)?)")


def resolves(module):
    base = ROOT / "src" / module.replace(".", "/")
    return base.with_suffix(".py").is_file()


def defined(body):
    """What a module or class body defines: functions, classes, assigned names."""
    names = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return names


def symbol_resolves(path, symbol):
    files = [ROOT / base / path for base in ("", "src", "src/repro")]
    file = next((f for f in files if f.is_file()), None)
    if file is None:
        return False
    head, _, member = symbol.partition(".")
    node = defined(ast.parse(file.read_text()).body).get(head)
    if node is None or not member:
        return node is not None
    return isinstance(node, ast.ClassDef) and member in defined(node.body)


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_path_and_module_a_doc_names_exists(doc):
    text = doc.read_text()
    paths = set(PATH.findall(text))
    missing = sorted(p for p in paths if not (ROOT / ("src/" + p if p.startswith("repro/") else p)).is_file())
    modules = set(MODULE.findall(text))
    missing += sorted(f"python -m {m}" for m in modules if not resolves(m))
    assert not missing, f"{doc.name} names what does not exist: {missing}"


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_symbol_a_doc_names_is_defined(doc):
    named = set(SYMBOL.findall(doc.read_text()))
    missing = sorted(f"{path}::{symbol}" for path, symbol in named if not symbol_resolves(path, symbol))
    assert not missing, f"{doc.name} names what is not defined: {missing}"


def test_the_symbol_pattern_finds_what_it_is_for():
    sample = (
        "`operators/joins.py::JoinOperator.build_state_full` (+ `...::test_elided`), "
        "tests/test_docs.py::SYMBOL and src/repro/core/bound.py::bind_left_deep; not x.py::f"
    )
    assert SYMBOL.findall(sample) == [
        ("operators/joins.py", "JoinOperator.build_state_full"),
        ("tests/test_docs.py", "SYMBOL"),
        ("src/repro/core/bound.py", "bind_left_deep"),
    ]
    assert all(symbol_resolves(path, symbol) for path, symbol in SYMBOL.findall(sample))
    assert symbol_resolves("tests/test_docs.py", "test_the_symbol_pattern_finds_what_it_is_for")
    assert not symbol_resolves("core/controller.py", "attach")  # a method, not a function
    assert not symbol_resolves("operators/joins.py", "JoinOperator.nope")
    assert not symbol_resolves("core/bound.py", "bind_left_deep.inner")  # not a class
    assert not symbol_resolves("core/gone.py", "anything")
    named = {m for doc in DOCS for m in SYMBOL.findall(doc.read_text())}
    assert ("core/controller.py", "JISCController.attach") in named


def test_the_patterns_find_what_they_are_for():
    sample = (
        "see `src/repro/perf/regress.py`, repro/core/bound.py and tests/test_docs.py; run "
        "`PYTHONPATH=src python -m repro.perf.regress --check`, not perf/gone.py"
    )
    assert PATH.findall(sample) == ["src/repro/perf/regress.py", "repro/core/bound.py", "tests/test_docs.py"]
    assert MODULE.findall(sample) == ["repro.perf.regress"] and resolves("repro.perf.regress")
    assert resolves("repro.faults.sweep") and not resolves("repro.perf.telemetry_gate")
    named = {m for doc in DOCS for m in MODULE.findall(doc.read_text())}
    assert {"repro.perf.regress", "repro.perf.profile", "repro.obs.report"} <= named


def test_design_layout_lists_every_package():
    """DESIGN.md §6's layout block names every package under ``src/repro``."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## 6. Repository layout", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    listed = set(re.findall(r"^  (\w+)/", block, re.MULTILINE))
    packages = {p.parent.name for p in (ROOT / "src" / "repro").glob("*/__init__.py")}
    assert not packages - listed, f"DESIGN.md §6 misses {sorted(packages - listed)}"
