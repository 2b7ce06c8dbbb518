"""The per-node jisclint rules: JISC001 (determinism), JISC003 (phase
attribution), JISC005 (queue discipline) and JISC006 (hygiene).

Each rule names the invariant it guards and the paper/design section the
invariant comes from; docs/STATIC_ANALYSIS.md carries the long-form
rationale.  Rules that only make sense inside the engine scope
themselves to ``src/repro`` via :attr:`LintContext.in_engine` (tests and
benchmarks may legitimately poke internals they exercise).
"""

from __future__ import annotations

import ast
from typing import Optional, Tuple, Union

from repro.lint.core import LintContext, Rule, register

# ---------------------------------------------------------------------------
# Shared AST helpers


def dotted_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` -> ("a", "b", "c"); None when the base is not a Name.

    Calls in the chain break it (``f().x`` has no stable root), which is
    the conservative choice for every rule below.
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def call_chain(call: ast.Call) -> Optional[Tuple[str, ...]]:
    """Dotted chain of a call's function, e.g. ``self.state.add`` ."""
    return dotted_chain(call.func)


# ---------------------------------------------------------------------------
# JISC001 — determinism


@register
class DeterminismRule(Rule):
    """No wall clocks, no entropy, no shared module-level RNG in the engine.

    The substitution table of DESIGN.md replaces wall-clock time with the
    virtual clock and every random choice with a seeded ``random.Random``
    threaded as a parameter; one ``time.time()`` or module-level
    ``random.randrange()`` silently breaks byte-identical op counts
    across runs and machines.
    """

    rule_id = "JISC001"
    name = "determinism"
    description = (
        "no time.time/datetime.now/os.urandom/uuid4/secrets or module-level "
        "random.* in src/repro; RNGs must be seeded random.Random instances"
    )

    #: Qualified calls that read wall clocks or entropy.
    BANNED_QUALIFIED = {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
        ("os", "urandom"),
        ("os", "getrandom"),
        ("uuid", "uuid1"),
        ("uuid", "uuid4"),
    }
    #: Names that may be imported from the ``random`` module.
    RANDOM_ALLOWED = {"Random"}
    #: From-imports of these (module, name) pairs are banned outright.
    BANNED_IMPORTS = {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "perf_counter"),
        ("os", "urandom"),
        ("uuid", "uuid1"),
        ("uuid", "uuid4"),
    }

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.in_engine

    def visit_Call(self, call: ast.Call, ctx: LintContext) -> None:
        chain = call_chain(call)
        if chain is None:
            return
        # module-level random.*: everything except the Random constructor.
        if chain[0] == "random" and len(chain) == 2:
            if chain[1] not in self.RANDOM_ALLOWED:
                ctx.report(
                    self.rule_id,
                    call,
                    f"module-level random.{chain[1]}() shares hidden global "
                    f"state; construct random.Random(seed) and thread it as "
                    f"a parameter (DESIGN.md substitution table)",
                )
            return
        tail = chain[-2:]
        if tail in self.BANNED_QUALIFIED or (
            len(chain) >= 2 and ("secrets" in chain[:-1])
        ):
            ctx.report(
                self.rule_id,
                call,
                f"{'.'.join(chain)}() is nondeterministic; the engine runs "
                f"on the virtual clock / seeded RNGs only",
            )

    def visit_ImportFrom(self, node: ast.ImportFrom, ctx: LintContext) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name not in self.RANDOM_ALLOWED:
                    ctx.report(
                        self.rule_id,
                        node,
                        f"from random import {alias.name}: only the Random "
                        f"class may be imported; module-level functions share "
                        f"hidden global state",
                    )
        elif node.module in ("time", "os", "uuid", "secrets"):
            for alias in node.names:
                if (node.module, alias.name) in self.BANNED_IMPORTS or (
                    node.module == "secrets"
                ):
                    ctx.report(
                        self.rule_id,
                        node,
                        f"from {node.module} import {alias.name} is "
                        f"nondeterministic; the engine runs on the virtual "
                        f"clock / seeded RNGs only",
                    )

    def visit_Import(self, node: ast.Import, ctx: LintContext) -> None:
        for alias in node.names:
            if alias.name == "secrets":
                ctx.report(
                    self.rule_id, node, "the secrets module is entropy by design"
                )


# ---------------------------------------------------------------------------
# JISC003 — phase attribution


@register
class PhaseAttributionRule(Rule):
    """All op counting goes through the phase-attributed Metrics API.

    The tracer splits ``Metrics.counts`` into per-phase maps that must
    sum exactly to the totals; a direct ``metrics.counts[...]`` mutation
    bypasses ``count``/``count_n`` and silently breaks both the
    sum-to-total invariant and the virtual clock.
    """

    rule_id = "JISC003"
    name = "phase-attribution"
    description = (
        "no direct Metrics.counts mutation outside engine/metrics.py; use "
        "count()/count_n()"
    )

    MUTATORS = {"clear", "update", "setdefault", "pop", "popitem", "__setitem__"}

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.in_engine and ctx.module_path != "repro/engine/metrics.py"

    @staticmethod
    def _is_metrics_counts(node: ast.AST) -> bool:
        """True for ``metrics.counts`` / ``<x>.metrics.counts`` chains."""
        chain = dotted_chain(node)
        if chain is None or len(chain) < 2 or chain[-1] != "counts":
            return False
        return chain[-2] == "metrics" or chain[0] == "metrics"

    def _flag(self, node: ast.AST, ctx: LintContext) -> None:
        ctx.report(
            self.rule_id,
            node,
            "direct Metrics.counts mutation bypasses phase attribution and "
            "the virtual clock; use metrics.count()/count_n()",
        )

    def visit_Subscript(self, node: ast.Subscript, ctx: LintContext) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)) and self._is_metrics_counts(
            node.value
        ):
            self._flag(node, ctx)

    def visit_Call(self, call: ast.Call, ctx: LintContext) -> None:
        chain = call_chain(call)
        if (
            chain is not None
            and len(chain) >= 3
            and chain[-1] in self.MUTATORS
            and chain[-2] == "counts"
            and (chain[-3] == "metrics" or chain[0] == "metrics")
        ):
            self._flag(call, ctx)


# ---------------------------------------------------------------------------
# JISC005 — queue discipline


@register
class QueueDisciplineRule(Rule):
    """Operators never push into another operator's ``process`` directly.

    Section 4.1's safe transition depends on every inter-operator hop
    being observable by the scheduler (buffer-clearing phase); a direct
    ``other.process(tup, child)`` call is an invisible hop that a drain
    cannot flush.  The only sanctioned call sites are ``Operator.emit``
    (which falls back to a synchronous push when no scheduler is wired)
    and ``QueueScheduler.drain``.
    """

    rule_id = "JISC005"
    name = "queue-discipline"
    description = (
        "no direct operator-to-operator process(tup, child) calls outside "
        "operators/base.py and engine/queued.py; emit via the scheduler"
    )

    #: Operator.process has exactly two positional parameters (tup, child);
    #: strategy/executor .process(tup) takes one and is not covered here.
    ALLOWED = ("repro/operators/base.py", "repro/engine/queued.py")

    def applies_to(self, ctx: LintContext) -> bool:
        mp = ctx.module_path or ""
        return ctx.in_engine and mp not in self.ALLOWED

    def visit_Call(self, call: ast.Call, ctx: LintContext) -> None:
        if not isinstance(call.func, ast.Attribute) or call.func.attr != "process":
            return
        if len(call.args) != 2 or call.keywords:
            return
        ctx.report(
            self.rule_id,
            call,
            "direct operator process(tup, child) push is invisible to the "
            "scheduler and breaks the buffer-clearing phase (§4.1); route "
            "through Operator.emit / QueueScheduler",
        )


# ---------------------------------------------------------------------------
# JISC006 — hygiene


@register
class HygieneRule(Rule):
    """Bare excepts, mutable default arguments, runtime asserts.

    ``assert`` statements vanish under ``python -O``, so an invariant
    check that must hold in production has to raise explicitly; bare
    ``except:`` swallows KeyboardInterrupt/SystemExit; mutable defaults
    are shared across calls and have corrupted more streaming state
    machines than any other Python footgun.
    """

    rule_id = "JISC006"
    name = "hygiene"
    description = (
        "no bare except or mutable default arguments anywhere; no runtime "
        "assert under src/repro (stripped by python -O)"
    )

    MUTABLE_DEFAULT_CALLS = {"list", "dict", "set", "deque", "defaultdict"}

    def visit_ExceptHandler(self, node: ast.ExceptHandler, ctx: LintContext) -> None:
        if node.type is None:
            ctx.report(
                self.rule_id,
                node,
                "bare except swallows KeyboardInterrupt/SystemExit; catch "
                "Exception (or narrower) instead",
            )

    def visit_Assert(self, node: ast.Assert, ctx: LintContext) -> None:
        if ctx.in_engine:
            ctx.report(
                self.rule_id,
                node,
                "runtime assert in engine code is stripped under python -O; "
                "raise ValueError/RuntimeError explicitly",
            )

    def _check_defaults(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef], ctx: LintContext
    ) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            bad = isinstance(default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                                       ast.DictComp, ast.SetComp))
            if not bad and isinstance(default, ast.Call):
                chain = call_chain(default)
                bad = chain is not None and chain[-1] in self.MUTABLE_DEFAULT_CALLS
            if bad:
                ctx.report(
                    self.rule_id,
                    default,
                    f"mutable default argument in {node.name}() is shared "
                    f"across calls; default to None and construct inside",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef, ctx: LintContext) -> None:
        self._check_defaults(node, ctx)

    def visit_AsyncFunctionDef(
        self, node: ast.AsyncFunctionDef, ctx: LintContext
    ) -> None:
        self._check_defaults(node, ctx)
