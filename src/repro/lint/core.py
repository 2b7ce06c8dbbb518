"""Rule framework: registry, suppression handling, file/tree runners.

A :class:`Rule` declares ``visit_<NodeType>`` methods (plain :mod:`ast`
node class names); the runner parses each file once and dispatches every
node to every interested rule, so adding rules does not add parse
passes.  Rules report through :meth:`LintContext.report`, which applies
line- and file-level suppressions before a finding becomes visible.

Suppression comments (scanned textually, so they work on any line,
including ones inside multi-line statements)::

    pick = random.random()  # jisclint: disable=JISC001
    # jisclint: disable-file=JISC006

Every suppression must actually suppress something; unused ones are
reported as JISC000 so opt-outs cannot outlive the code they excused.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

#: Rule id for the unused-suppression meta finding.
UNUSED_SUPPRESSION = "JISC000"

_SUPPRESS_RE = re.compile(
    r"#\s*jisclint:\s*(disable|disable-file)\s*=\s*"
    r"(JISC\d{3}(?:\s*,\s*JISC\d{3})*)"
)


class Finding:
    """One reported violation: where, which rule, and why."""

    __slots__ = ("rule_id", "path", "line", "col", "message")

    def __init__(self, rule_id: str, path: str, line: int, col: int, message: str):
        self.rule_id = rule_id
        self.path = path
        self.line = line
        self.col = col
        self.message = message

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Finding({self.rule_id} {self.path}:{self.line}:{self.col})"


class _Suppressions:
    """Per-file suppression table parsed from ``# jisclint:`` comments.

    Comments are located with :mod:`tokenize` rather than a line scan so
    that the *text* of a suppression inside a string literal (e.g. a lint
    fixture embedded in a test file) does not count as a suppression of
    the embedding file.
    """

    def __init__(self, source: str):
        # line number -> set of rule ids disabled on that line
        self.by_line: Dict[int, Set[str]] = {}
        # rule ids disabled for the whole file -> declaring line
        self.file_wide: Dict[str, int] = {}
        # (line, rule_id) pairs that actually suppressed a finding
        self.used: Set[Tuple[int, str]] = set()
        for lineno, text in self._comments(source):
            m = _SUPPRESS_RE.search(text)
            if not m:
                continue
            kind, ids = m.group(1), m.group(2)
            rule_ids = {part.strip() for part in ids.split(",")}
            if kind == "disable-file":
                for rid in rule_ids:
                    self.file_wide.setdefault(rid, lineno)
            else:
                self.by_line.setdefault(lineno, set()).update(rule_ids)

    @staticmethod
    def _comments(source: str) -> Iterator[Tuple[int, str]]:
        readline = io.StringIO(source).readline
        try:
            for tok in tokenize.generate_tokens(readline):
                if tok.type == tokenize.COMMENT:
                    yield tok.start[0], tok.string
        except (tokenize.TokenError, IndentationError, SyntaxError):
            # Unparseable files are reported as JISC999 by the runner;
            # suppression parsing just stops at the damage.
            return

    def suppresses(self, finding: Finding) -> bool:
        if finding.rule_id in self.file_wide:
            self.used.add((self.file_wide[finding.rule_id], finding.rule_id))
            return True
        on_line = self.by_line.get(finding.line)
        if on_line and finding.rule_id in on_line:
            self.used.add((finding.line, finding.rule_id))
            return True
        return False

    def unused(self) -> Iterator[Tuple[int, str, str]]:
        for lineno, rule_ids in sorted(self.by_line.items()):
            for rid in sorted(rule_ids):
                if (lineno, rid) not in self.used:
                    yield lineno, rid, "line"
        for rid, lineno in sorted(self.file_wide.items()):
            if (lineno, rid) not in self.used:
                yield lineno, rid, "file"


class LintContext:
    """Everything a rule may consult about the file under analysis."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.tree = tree
        #: Path with forward slashes, for stable matching in rules/output.
        self.norm_path = path.replace(os.sep, "/")
        #: ``repro``-package-relative module path ("repro/engine/metrics.py"),
        #: or None when the file is not under a ``repro`` package directory.
        self.module_path = self._module_path(self.norm_path)
        #: True when the file belongs to the engine proper (src/repro/...).
        self.in_engine = self.module_path is not None and not self.module_path.startswith(
            "repro/lint/"
        )
        self._suppressions = _Suppressions(source)
        self._findings: List[Finding] = []
        #: child node -> parent node, for rules that need expression context.
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent

    @staticmethod
    def _module_path(norm_path: str) -> Optional[str]:
        parts = norm_path.split("/")
        if "repro" not in parts:
            return None
        idx = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[idx:])

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(node)

    def report(self, rule_id: str, node: ast.AST, message: str) -> None:
        finding = Finding(
            rule_id,
            self.path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0) + 1,
            message,
        )
        if not self._suppressions.suppresses(finding):
            self._findings.append(finding)

    def finish(self) -> List[Finding]:
        """Findings plus unused-suppression warnings, sorted by location."""
        out = list(self._findings)
        for lineno, rid, kind in self._suppressions.unused():
            out.append(
                Finding(
                    UNUSED_SUPPRESSION,
                    self.path,
                    lineno,
                    1,
                    f"unused suppression of {rid}: nothing in this {kind} "
                    f"triggers it; remove the comment",
                )
            )
        out.sort(key=Finding.sort_key)
        return out


class Rule:
    """Base class for all jisclint rules.

    Subclasses set ``rule_id`` / ``name`` / ``description`` and define
    ``visit_<NodeType>`` methods taking ``(node, ctx)``.  ``applies_to``
    gates whole files; the default applies everywhere the runner looks.
    """

    rule_id: str = ""
    name: str = ""
    description: str = ""

    def applies_to(self, ctx: LintContext) -> bool:
        return True

    def begin_file(self, ctx: LintContext) -> None:
        """Hook called before the AST walk of each applicable file."""

    def handlers(self) -> Dict[str, str]:
        """Map of AST node class name -> bound method name."""
        out = {}
        for attr in dir(self):
            if attr.startswith("visit_"):
                out[attr[len("visit_"):]] = attr
        return out


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> Dict[str, Type[Rule]]:
    """The registered rules, keyed by rule id (import-populated)."""
    # Populate on first use so `from repro.lint.core import ...` alone works.
    if not _REGISTRY:
        from repro.lint import flowrules as _flowrules  # noqa: F401
        from repro.lint import rules as _rules  # noqa: F401
    return dict(_REGISTRY)


def _instantiate(select: Optional[Iterable[str]]) -> List[Rule]:
    registry = all_rules()
    if select is None:
        ids = sorted(registry)
    else:
        ids = []
        for rid in select:
            if rid not in registry:
                raise KeyError(f"unknown rule id: {rid}")
            ids.append(rid)
    return [registry[rid]() for rid in ids]


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint one source string; findings sorted by location."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                "JISC999",
                path,
                exc.lineno or 1,
                (exc.offset or 0) + 1,
                f"syntax error: {exc.msg}",
            )
        ]
    ctx = LintContext(path, source, tree)
    active = [r for r in _instantiate(select) if r.applies_to(ctx)]
    dispatch: Dict[str, List[Tuple[Rule, str]]] = {}
    for rule in active:
        rule.begin_file(ctx)
        for node_name, method in rule.handlers().items():
            dispatch.setdefault(node_name, []).append((rule, method))
    for node in ast.walk(tree):
        for rule, method in dispatch.get(type(node).__name__, ()):
            getattr(rule, method)(node, ctx)
    return ctx.finish()


def lint_file(path: str, select: Optional[Iterable[str]] = None) -> List[Finding]:
    with tokenize.open(path) as fh:  # honors PEP 263 encoding declarations
        source = fh.read()
    return lint_source(source, path=path, select=select)


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    seen: Set[str] = set()
    for base in paths:
        if os.path.isfile(base):
            if base not in seen:
                seen.add(base)
                yield base
            continue
        if not os.path.isdir(base):
            raise FileNotFoundError(f"no such file or directory: {base!r}")
        collected = []
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(
                d for d in dirnames if d not in ("__pycache__", ".git")
            )
            for fn in sorted(filenames):
                if fn.endswith(".py"):
                    collected.append(os.path.join(dirpath, fn))
        for p in collected:
            if p not in seen:
                seen.add(p)
                yield p


def lint_paths(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``; findings sorted by location."""
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, select=select))
    findings.sort(key=Finding.sort_key)
    return findings
