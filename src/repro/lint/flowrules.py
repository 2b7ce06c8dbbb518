"""Dataflow-backed rules: JISC008 (determinism taint) and JISC010 (span and
session handle lifecycle).

These rules run per file like every other rule, but internally build
control-flow graphs (:mod:`repro.lint.cfg`) and run the forward solver
(:mod:`repro.lint.dataflow`), so they reason about *flows*, not patterns:

* JISC008 tracks values derived from unordered iteration (``set`` iteration,
  ``id()``) through assignments, calls and containers, and flags them when
  they reach an order-sensitive effect — an emitted tuple, a state mutation,
  a WAL append — without passing an ordering barrier (``sorted``/``min``/
  ``max``/aggregation).  ``dict`` iteration is *not* a source: CPython dicts
  are insertion-ordered, and the engine's dict insertion orders are
  plan-derived and deterministic; nondeterminism enters through sets (hash
  order depends on PYTHONHASHSEED and object ids) and through ``id()``.
  Order-insensitive uses of unordered values stay legal: membership tests,
  ``set.add``, dict/set stores, counters.
* JISC010 runs a may-be-open analysis over the CFG: every
  ``prev = tracer.set_phase(PHASE_X)`` span must be restored on all paths to
  the normal exit (``finally`` satisfies this; the guarded
  ``if prev is not None: tracer.set_phase(prev)`` idiom is recognized), a
  ``set_phase(PHASE_X)`` whose previous phase is discarded is flagged
  outright, and a locally constructed ``RebalanceSession`` must escape
  (be stored, returned, or handed off) rather than dropped.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.lint.cfg import build_cfg
from repro.lint.core import LintContext, Rule, register
from repro.lint.dataflow import ForwardAnalysis, assigned_names, solve
from repro.lint.rules import call_chain, dotted_chain

# ---------------------------------------------------------------------------
# JISC008 — determinism taint
# ---------------------------------------------------------------------------

#: calls whose result is ordering-clean regardless of argument taint
BARRIERS = {
    "sorted",
    "min",
    "max",
    "sum",
    "len",
    "any",
    "all",
    "bool",
    "abs",
    "hash",
    "repr",
    "str",
    "int",
    "float",
    "set",
    "frozenset",
    "dict",
    "Counter",
}

#: sequence constructors that preserve their argument's iteration order
ORDER_PRESERVING = {"list", "tuple", "iter", "reversed", "enumerate"}

#: methods known to return sets (iteration order is hash order)
SET_RETURNING_METHODS = {"distinct_values"}

#: order-sensitive effects: emitting, state mutation, WAL/delivery appends,
#: pipeline feeds, and completion-counter transitions
SINK_METHODS = {
    "emit",
    "emit_removal",
    "add",
    "insert",
    "remove_entry",
    "remove_with_part",
    "append_log",
    "append_delivered",
    "feed",
    "process",
    "settle_value",
    "mark_complete",
    "mark_incomplete",
    "_mark_complete",
    "_notify_parent",
    "settle",
    "retire",
}

_SET_HEADS = {"Set", "set", "FrozenSet", "frozenset", "MutableSet", "AbstractSet"}

_SERIALIZER_MARKERS = ("checkpoint", "to_json", "serialize")


def annotation_head(ann: Optional[str]) -> Optional[str]:
    """Head class name of an annotation string, through Optional/quotes.

    ``Optional[Set[str]]`` -> ``Set``; ``"A | None"`` -> ``A``.
    """
    if not ann:
        return None
    ann = ann.strip().strip("\"'")
    changed = True
    while changed:
        changed = False
        for wrapper in ("Optional", "Final", "ClassVar"):
            prefix = wrapper + "["
            if ann.startswith(prefix) and ann.endswith("]"):
                ann = ann[len(prefix) : -1].strip().strip("\"'")
                changed = True
    head = ann.split("[", 1)[0].strip()
    # "A | None" unions: take the first non-None alternative.
    if "|" in head:
        head = next((p.strip() for p in head.split("|") if p.strip() != "None"), "")
    return head or None


def _ann_is_set(ann: Optional[str]) -> bool:
    head = annotation_head(ann)
    return head in _SET_HEADS if head else False


def _dict_value_ann(ann: Optional[str]) -> Optional[str]:
    """Value annotation of ``Dict[K, V]`` / ``Mapping[K, V]``, else None."""
    if not ann:
        return None
    ann = ann.strip().strip("\"'")
    if ann.startswith("Optional[") and ann.endswith("]"):
        ann = ann[len("Optional[") : -1]
    head, _, rest = ann.partition("[")
    if head.strip() not in {"Dict", "dict", "Mapping", "MutableMapping", "DefaultDict"}:
        return None
    if not rest.endswith("]"):
        return None
    inner = rest[:-1]
    depth = 0
    for i, ch in enumerate(inner):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            return inner[i + 1 :].strip()
    return None


class _SetTypes:
    """Flow-insensitive 'is this name/attr a set?' facts for one function."""

    def __init__(self, func: ast.AST, class_attr_anns: Mapping[str, str]):
        self.names: Set[str] = set()
        self.attr_anns = class_attr_anns  # "attr" -> raw annotation
        args = func.args  # type: ignore[attr-defined]
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if arg.annotation is not None and _ann_is_set(ast.unparse(arg.annotation)):
                self.names.add(arg.arg)
        for sub in ast.walk(func):
            if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                if _ann_is_set(ast.unparse(sub.annotation)):
                    self.names.add(sub.target.id)
            elif isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target = sub.targets[0]
                if isinstance(target, ast.Name) and self.is_set_expr(sub.value):
                    self.names.add(target.id)

    def is_set_expr(self, expr: ast.expr) -> bool:
        """Syntactic/type evidence that ``expr`` evaluates to a set."""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in self.names
        if isinstance(expr, ast.Attribute):
            chain = dotted_chain(expr)
            if chain and chain[0] == "self" and len(chain) == 2:
                return _ann_is_set(self.attr_anns.get(chain[1]))
            return False
        if isinstance(expr, ast.Call):
            chain = call_chain(expr)
            if chain is None:
                return False
            if chain[-1] in {"set", "frozenset"}:
                return True
            if chain[-1] in SET_RETURNING_METHODS:
                return True
            # ``self._suppressed_by.pop(part, set())`` — a dict whose values
            # are sets hands out a set.
            if chain[-1] in {"pop", "get"} and len(chain) == 3 and chain[0] == "self":
                value_ann = _dict_value_ann(self.attr_anns.get(chain[1]))
                return _ann_is_set(value_ann)
            return False
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set_expr(expr.left) or self.is_set_expr(expr.right)
        return False


TaintState = Mapping[str, str]  # pseudo-var -> reason it is order-tainted


class _TaintAnalysis(ForwardAnalysis[TaintState]):
    def __init__(self, types: _SetTypes):
        self.types = types

    def initial(self) -> TaintState:
        return {}

    def bottom(self) -> TaintState:
        return {}

    def join(self, a: TaintState, b: TaintState) -> TaintState:
        if not a:
            return b
        if not b:
            return a
        merged = dict(a)
        for name, reason in b.items():
            merged.setdefault(name, reason)
        return merged

    # -- expression taint --------------------------------------------------

    def expr_taint(self, expr: ast.expr, env: TaintState) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            chain = dotted_chain(expr)
            if chain is not None:
                if chain[0] in env:
                    return env[chain[0]]
                if ".".join(chain[:2]) in env:
                    return env[".".join(chain[:2])]
            return None
        if isinstance(expr, ast.Call):
            return self._call_taint(expr, env)
        if isinstance(expr, ast.IfExp):
            return self.expr_taint(expr.body, env) or self.expr_taint(expr.orelse, env)
        if isinstance(expr, ast.BinOp):
            return self.expr_taint(expr.left, env) or self.expr_taint(expr.right, env)
        if isinstance(expr, (ast.Compare, ast.BoolOp)):
            return None  # booleans are order-insensitive
        if isinstance(expr, ast.Subscript):
            return self.expr_taint(expr.value, env)
        if isinstance(expr, ast.Starred):
            return self.expr_taint(expr.value, env)
        if isinstance(expr, (ast.Tuple, ast.List)):
            for elt in expr.elts:
                taint = self.expr_taint(elt, env)
                if taint:
                    return taint
            return None
        if isinstance(expr, (ast.Set, ast.SetComp, ast.DictComp, ast.Dict)):
            return None  # content-addressed containers erase ordering
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
            for gen in expr.generators:
                if self.iter_taint(gen.iter, env):
                    return self.iter_taint(gen.iter, env)
            return self.expr_taint(expr.elt, env)
        return None

    def _call_taint(self, call: ast.Call, env: TaintState) -> Optional[str]:
        chain = call_chain(call)
        name = chain[-1] if chain else None
        if name == "id" and chain is not None and len(chain) == 1:
            return "id() value"
        if name in BARRIERS and chain is not None and len(chain) == 1:
            return None
        if name in ORDER_PRESERVING and chain is not None and len(chain) == 1:
            # list(s)/tuple(s) keep s's (possibly unordered) element order.
            for arg in call.args:
                taint = self.iter_taint(arg, env)
                if taint:
                    return taint
            return None
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            taint = self.expr_taint(arg, env)
            if taint:
                return taint
        # A method called *on* a tainted object yields tainted data.
        if chain is not None and chain[0] in env:
            return env[chain[0]]
        return None

    def iter_taint(self, iterable: ast.expr, env: TaintState) -> Optional[str]:
        """Reason iterating ``iterable`` yields order-tainted values."""
        if self.types.is_set_expr(iterable):
            return "unordered set iteration"
        return self.expr_taint(iterable, env)

    # -- transfer ----------------------------------------------------------

    def transfer(self, stmt: ast.stmt, state: TaintState) -> TaintState:
        updated: Optional[Dict[str, str]] = None

        def set_names(targets: Tuple[str, ...], reason: Optional[str]) -> None:
            nonlocal updated
            if updated is None:
                updated = dict(state)
            for name in targets:
                if reason:
                    updated[name] = reason
                else:
                    updated.pop(name, None)

        if isinstance(stmt, ast.Assign):
            taint = self.expr_taint(stmt.value, state)
            for target in stmt.targets:
                set_names(assigned_names(target), taint)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            set_names(assigned_names(stmt.target), self.expr_taint(stmt.value, state))
        elif isinstance(stmt, ast.AugAssign):
            taint = self.expr_taint(stmt.value, state)
            if taint:
                set_names(assigned_names(stmt.target), taint)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            set_names(assigned_names(stmt.target), self.iter_taint(stmt.iter, state))
        return updated if updated is not None else state


@register
class DeterminismTaintRule(Rule):
    """Unordered-iteration values must not reach order-sensitive effects.

    A join result emitted per set element, a state entry removed in set
    order, a WAL record appended per ``id()``-keyed visit: each reproduces
    differently across processes (set order varies with PYTHONHASHSEED and
    object addresses), silently breaking the byte-identical op-count and
    output-lineage guarantees the reproduction is built on.  Route the
    iteration through ``sorted(...)`` (lid/part tuples compare fine) or keep
    the effect order-insensitive (sets, dicts, counters, membership).
    """

    rule_id = "JISC008"
    name = "determinism-taint"
    description = (
        "values from set iteration or id() must not flow into emit/state "
        "mutation/WAL appends/serialized payloads without an ordering "
        "barrier (sorted/min/max/aggregation)"
    )

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.in_engine

    def begin_file(self, ctx: LintContext) -> None:
        self._class_attr_anns: Dict[str, Dict[str, str]] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                self._class_attr_anns[node.name] = self._collect_attr_anns(node)

    @staticmethod
    def _collect_attr_anns(cls: ast.ClassDef) -> Dict[str, str]:
        anns: Dict[str, str] = {}
        for sub in ast.walk(cls):
            if isinstance(sub, ast.AnnAssign):
                target = sub.target
                if isinstance(target, ast.Name):
                    anns.setdefault(target.id, ast.unparse(sub.annotation))
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    anns.setdefault(target.attr, ast.unparse(sub.annotation))
            elif isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target = sub.targets[0]
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and isinstance(sub.value, (ast.Set, ast.SetComp))
                ):
                    anns.setdefault(target.attr, "Set[Any]")
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and isinstance(sub.value, ast.Call)
                    and isinstance(sub.value.func, ast.Name)
                    and sub.value.func.id in {"set", "frozenset"}
                ):
                    anns.setdefault(target.attr, "Set[Any]")
        return anns

    def visit_FunctionDef(self, node: ast.FunctionDef, ctx: LintContext) -> None:
        self._check_function(node, ctx)

    def visit_AsyncFunctionDef(self, node: ast.AST, ctx: LintContext) -> None:
        self._check_function(node, ctx)

    # -- the per-function analysis ----------------------------------------

    def _enclosing_class(self, node: ast.AST, ctx: LintContext) -> Optional[str]:
        parent = ctx.parent(node)
        while parent is not None:
            if isinstance(parent, ast.ClassDef):
                return parent.name
            parent = ctx.parent(parent)
        return None

    def _check_function(self, func: ast.AST, ctx: LintContext) -> None:
        cls_name = self._enclosing_class(func, ctx)
        attr_anns = self._class_attr_anns.get(cls_name or "", {})
        types = _SetTypes(func, attr_anns)
        analysis = _TaintAnalysis(types)
        cfg = build_cfg(func)
        block_in, _ = solve(cfg, analysis)
        is_serializer = any(
            marker in func.name for marker in _SERIALIZER_MARKERS  # type: ignore[attr-defined]
        )
        for bid, block in cfg.blocks.items():
            env: TaintState = block_in[bid]
            for stmt in block.stmts:
                self._check_stmt(stmt, env, analysis, ctx, is_serializer)
                env = analysis.transfer(stmt, env)

    def _check_stmt(
        self,
        stmt: ast.stmt,
        env: TaintState,
        analysis: _TaintAnalysis,
        ctx: LintContext,
        is_serializer: bool,
    ) -> None:
        # Only inspect the statement's own expressions, not nested
        # statements (those live in their own blocks with their own env).
        exprs: List[ast.expr] = []
        if isinstance(stmt, ast.Expr):
            exprs.append(stmt.value)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if stmt.value is not None:
                exprs.append(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None and is_serializer:
                taint = analysis.expr_taint(stmt.value, env)
                if taint:
                    ctx.report(
                        self.rule_id,
                        stmt,
                        f"serialized payload depends on {taint}: checkpoint/"
                        f"report bytes would vary across runs; apply sorted() "
                        f"or serialize an order-insensitive form",
                    )
            if stmt.value is not None:
                exprs.append(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            exprs.append(stmt.test)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            exprs.append(stmt.iter)
        for expr in exprs:
            for call in [n for n in ast.walk(expr) if isinstance(n, ast.Call)]:
                self._check_call(call, env, analysis, ctx)

    def _check_call(
        self,
        call: ast.Call,
        env: TaintState,
        analysis: _TaintAnalysis,
        ctx: LintContext,
    ) -> None:
        chain = call_chain(call)
        if chain is None:
            return
        name = chain[-1]
        if name == "dumps" and len(chain) == 2 and chain[0] == "json":
            for arg in call.args:
                taint = analysis.expr_taint(arg, env)
                if taint:
                    ctx.report(
                        self.rule_id,
                        call,
                        f"json payload depends on {taint}; sort before "
                        f"serializing",
                    )
                    return
            return
        if name not in SINK_METHODS:
            return
        # set.add / set.discard accumulation is order-insensitive by
        # construction — never a sink.
        if name == "add" and len(chain) >= 2:
            recv = ast.unparse(call.func.value) if isinstance(call.func, ast.Attribute) else ""
            if chain[0] in analysis.types.names or (
                chain[0] == "self"
                and len(chain) == 3
                and _ann_is_set(analysis.types.attr_anns.get(chain[1]))
            ):
                return
            del recv
        # Receiver derived from unordered iteration: mutating it happens in
        # iteration order.
        if chain[0] in env:
            ctx.report(
                self.rule_id,
                call,
                f"order-sensitive call {'.'.join(chain)}() on a value from "
                f"{env[chain[0]]}; iterate sorted(...) instead",
            )
            return
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            taint = analysis.expr_taint(arg, env)
            if taint:
                ctx.report(
                    self.rule_id,
                    call,
                    f"order-sensitive call {'.'.join(chain)}() receives a "
                    f"value from {taint}; iterate sorted(...) or make the "
                    f"effect order-insensitive",
                )
                return


# ---------------------------------------------------------------------------
# JISC010 — span / session handle lifecycle
# ---------------------------------------------------------------------------

HandleState = FrozenSet[str]  # names of may-open span handles

#: The tracer's phase constants (``repro.obs.tracer``): a ``set_phase`` on
#: one of these opens a span; on anything else it restores one.
PHASE_CONSTANTS = frozenset(
    {"PHASE_STEADY", "PHASE_MIGRATING", "PHASE_COMPLETING", "PHASE_RECOVERING", "PHASE_REBALANCING"}
)


def _span_open_target(stmt: ast.stmt) -> Optional[Tuple[str, int]]:
    """(handle var, line) for ``prev = recv.set_phase(PHASE_X)`` assigns,
    including the guarded ``... if cond else None`` form."""
    if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
        return None
    target = stmt.targets[0]
    if not isinstance(target, ast.Name):
        return None
    value = stmt.value
    if isinstance(value, ast.IfExp):
        for branch in (value.body, value.orelse):
            if isinstance(branch, ast.Call) and _is_phase_open(branch):
                return target.id, stmt.lineno
        return None
    if isinstance(value, ast.Call) and _is_phase_open(value):
        return target.id, stmt.lineno
    return None


def _is_phase_open(call: ast.Call) -> bool:
    chain = call_chain(call)
    if not chain or chain[-1] != "set_phase" or not call.args:
        return False
    arg0 = call.args[0]
    return isinstance(arg0, ast.Name) and arg0.id in PHASE_CONSTANTS


def _walk_closes(node: ast.AST) -> Set[str]:
    closed: Set[str] = set()
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        chain = call_chain(sub)
        if not chain or chain[-1] != "set_phase" or not sub.args:
            continue
        arg0 = sub.args[0]
        if isinstance(arg0, ast.Name) and arg0.id not in PHASE_CONSTANTS:
            closed.add(arg0.id)
    return closed


def _restored_handles(stmt: ast.stmt) -> Set[str]:
    """Handle names closed by executing ``stmt`` at its CFG position.

    Compound statements appear twice in the CFG: once whole (as the branch
    header) and once as their lowered bodies, so a close buried in a branch
    must not kill at the header — unless the branch condition guards on the
    handle itself (``if prev is not None: tracer.set_phase(prev)``: the
    handle is definitely restored wherever it was actually opened).
    """
    if isinstance(stmt, (ast.If, ast.While)):
        guard_names = {
            n.id for n in ast.walk(stmt.test) if isinstance(n, ast.Name)
        }
        return {h for h in _walk_closes(stmt) if h in guard_names}
    if isinstance(stmt, (ast.For, ast.AsyncFor, ast.With, ast.AsyncWith, ast.Try)):
        return set()  # body closes kill in their own blocks
    return _walk_closes(stmt)


class _SpanAnalysis(ForwardAnalysis[HandleState]):
    def __init__(self) -> None:
        self.open_lines: Dict[str, int] = {}

    def initial(self) -> HandleState:
        return frozenset()

    def bottom(self) -> HandleState:
        return frozenset()

    def join(self, a: HandleState, b: HandleState) -> HandleState:
        return a | b

    def transfer(self, stmt: ast.stmt, state: HandleState) -> HandleState:
        opened = _span_open_target(stmt)
        closed = _restored_handles(stmt)
        out = set(state)
        if opened is not None:
            out.add(opened[0])
            self.open_lines.setdefault(opened[0], opened[1])
        out -= closed
        return frozenset(out)


@register
class HandleTypestateRule(Rule):
    """Tracer spans and rebalance sessions must not leak.

    A ``set_phase(PHASE_X)`` without restoring the previous phase leaves
    every later counter attributed to the wrong phase — the per-phase cost
    accounting (Figures 7/8) silently corrupts.  The engine idiom is
    ``prev = tracer.set_phase(PHASE_X)`` ... ``finally: tracer.set_phase(prev)``
    (optionally guarded by ``if prev is not None``); this rule proves the
    restore happens on every path to the normal exit, flags opens that
    discard the previous phase, and requires locally constructed
    RebalanceSessions to escape (stored/returned/passed) so someone can
    drain them.
    """

    rule_id = "JISC010"
    name = "handle-lifecycle"
    description = (
        "phase spans must capture and restore the previous phase on all "
        "paths; RebalanceSessions must escape to an owner that drains them"
    )

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.in_engine

    def visit_FunctionDef(self, node: ast.FunctionDef, ctx: LintContext) -> None:
        self._check_function(node, ctx)

    def visit_AsyncFunctionDef(self, node: ast.AST, ctx: LintContext) -> None:
        self._check_function(node, ctx)

    def _check_function(self, func: ast.AST, ctx: LintContext) -> None:
        has_spans = False
        for stmt in ast.walk(func):
            if isinstance(stmt, ast.stmt) and _span_open_target(stmt) is not None:
                has_spans = True
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                if _is_phase_open(stmt.value):
                    ctx.report(
                        self.rule_id,
                        stmt,
                        "set_phase() discards the previous phase; use "
                        "`prev = tracer.set_phase(PHASE_X)` and restore "
                        "`prev` in a finally block",
                    )
        if has_spans:
            cfg = build_cfg(func)
            analysis = _SpanAnalysis()
            _, block_out = solve(cfg, analysis)
            leaked: Set[str] = set()
            for pred in cfg.blocks[cfg.exit].preds:
                leaked |= block_out[pred]
            for name in sorted(leaked):
                line = analysis.open_lines.get(name, getattr(func, "lineno", 1))
                loc = ast.copy_location(ast.Pass(), func)
                loc.lineno = line  # type: ignore[attr-defined]
                ctx.report(
                    self.rule_id,
                    loc,
                    f"phase span handle '{name}' may still be open at "
                    f"function exit; restore it with set_phase({name}) in "
                    f"a finally block",
                )
        self._check_sessions(func, ctx)

    def _check_sessions(self, func: ast.AST, ctx: LintContext) -> None:
        for stmt in ast.walk(func):
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            value = stmt.value
            if not (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "RebalanceSession"
            ):
                continue
            if not self._escapes(func, target.id, stmt):
                ctx.report(
                    self.rule_id,
                    stmt,
                    f"RebalanceSession bound to '{target.id}' never escapes "
                    f"this function (not stored, returned, or passed on): "
                    f"nobody can drain or settle it",
                )

    @staticmethod
    def _escapes(func: ast.AST, name: str, origin: ast.stmt) -> bool:
        for sub in ast.walk(func):
            if sub is origin:
                continue
            if isinstance(sub, ast.Assign):
                if any(
                    isinstance(t, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == name
                    for t in sub.targets
                ):
                    return True
            elif isinstance(sub, ast.Return) and sub.value is not None:
                # returned bare or inside a tuple: the caller owns it either way
                if any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(sub.value)):
                    return True
            elif isinstance(sub, ast.Call):
                for arg in list(sub.args) + [kw.value for kw in sub.keywords]:
                    if isinstance(arg, ast.Name) and arg.id == name:
                        return True
        return False
