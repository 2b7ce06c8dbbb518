"""The jisclint rule set: six invariants the reproduction lives or dies by.

Each rule names the invariant it guards and the paper/design section the
invariant comes from; docs/STATIC_ANALYSIS.md carries the long-form
rationale.  Rules that only make sense inside the engine scope
themselves to ``src/repro`` via :attr:`LintContext.in_engine` (tests and
benchmarks may legitimately poke internals they exercise).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple, Union

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


def is_statement_call(call: ast.Call, ctx: LintContext) -> bool:
    """True when the call's return value is discarded (``Expr`` statement)."""
    return isinstance(ctx.parent(call), ast.Expr)


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
# JISC002 — tracer purity


@register
class TracerPurityRule(Rule):
    """Tracer hook results must never feed engine logic.

    PR 1's zero-perturbation guarantee — identical op counts with and
    without a RecordingTracer attached — holds only while the engine
    treats every tracer hook as write-only.  A hook return value used in
    an assignment, condition, or argument is a covert channel from
    observation back into execution.  ``set_phase`` (returns the previous
    phase for restore) and ``attach`` (returns the target for chaining)
    are the sanctioned exceptions.
    """

    rule_id = "JISC002"
    name = "tracer-purity"
    description = (
        "tracer hook return values may not feed assignments, conditions, or "
        "arguments (set_phase/attach excepted)"
    )

    HOOKS = {
        "on_count",
        "event",
        "arrival",
        "output",
        "transition_start",
        "transition_end",
        "migration_end",
        "completion",
        "promote",
        "demote",
        "checkpoint",
        "note",
        "fault",
        "recovery",
        "rebalance_start",
        "rebalance_end",
        "rebalance_batch_start",
        "rebalance_batch_end",
        "shard_move",
        "trigger",
    }
    EXEMPT = {"set_phase", "attach"}
    #: Receiver names that identify a tracer object.
    RECEIVERS = {"tracer", "NULL_TRACER", "_tracer"}

    def applies_to(self, ctx: LintContext) -> bool:
        # The tracer implementation itself (and its reporting CLI) may of
        # course consume its own data structures.
        return ctx.in_engine and not (
            ctx.module_path or ""
        ).startswith("repro/obs/")

    def visit_Call(self, call: ast.Call, ctx: LintContext) -> None:
        chain = call_chain(call)
        if chain is None or len(chain) < 2:
            return
        method, receiver = chain[-1], chain[-2]
        if receiver not in self.RECEIVERS:
            return
        if method in self.EXEMPT:
            return
        if method in self.HOOKS and not is_statement_call(call, ctx):
            ctx.report(
                self.rule_id,
                call,
                f"return value of tracer hook {method}() feeds engine logic; "
                f"tracing must be write-only or the zero-perturbation "
                f"guarantee (docs/OBSERVABILITY.md) is void",
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
# JISC004 — state-access discipline


@register
class StateDisciplineRule(Rule):
    """HashState mutation and StateStatus transitions only from sanctioned
    modules.

    The lazy-completion invariant of PAPER.md §4.3 — every probe of an
    incomplete state passes the controller's completion hook first —
    survives only while states are mutated from the operator pipeline and
    the JISC controller.  Megaphone-style erosion (PAPERS.md) starts the
    day a utility module inserts into a state behind the controller's
    back.  Out-of-band sites (checkpoint restore, Moving State's eager
    rebuild) must carry an explicit per-line suppression, which keeps
    them enumerable.
    """

    rule_id = "JISC004"
    name = "state-discipline"
    description = (
        "HashState mutators and StateStatus transitions only from "
        "operators/, core/, eddy/stem.py, and shard/rebalance.py; "
        "coordinator-driven evictions (evict/window.discard) only from "
        "operators/, eddy/, streams/, and shard/; everything else needs "
        "an explicit suppression"
    )

    STATE_MUTATORS = {"add", "remove_entry", "remove_with_part", "clear", "copy_from"}
    STATUS_TRANSITIONS = {
        "mark_complete",
        "mark_incomplete",
        "settle_value",
    }
    #: Out-of-band eviction entry points (docs/SHARDING.md): ``evict`` on
    #: scans/SteMs/workers and ``discard`` on windows remove specific
    #: tuples outside the normal push-eviction path.  They exist solely so
    #: the shard coordinator can drive *global*-window evictions into
    #: per-worker state; anywhere else they silently desynchronize a
    #: window from the states derived from it.
    EVICTION_MUTATORS = {"evict", "discard"}
    #: Module prefixes (repro-relative) allowed to touch state directly:
    #: the operator pipeline, the JISC controller/transition machinery,
    #: the eddy's STEMs (per-stream operators that own their state), and
    #: the shard rebalance bookkeeping (reuses StateStatus for per-key
    #: move tracking, PAPER.md §4.3 applied to cross-shard moves).
    ALLOWED = (
        "repro/operators/",
        "repro/core/",
        "repro/eddy/stem.py",
        "repro/shard/rebalance.py",
    )
    #: Module prefixes allowed to call the eviction entry points: the
    #: structures that define them, plus the shard layer (the coordinator
    #: and its worker adapters are the intended caller).
    EVICTION_ALLOWED = (
        "repro/operators/",
        "repro/eddy/",
        "repro/streams/",
        "repro/shard/",
    )

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.in_engine

    @staticmethod
    def _outside(ctx: LintContext, prefixes: Tuple[str, ...]) -> bool:
        mp = ctx.module_path or ""
        return not any(mp.startswith(p) for p in prefixes)

    def visit_Call(self, call: ast.Call, ctx: LintContext) -> None:
        chain = call_chain(call)
        if chain is None or len(chain) < 2:
            return
        method, receiver = chain[-1], chain[-2]
        if (
            method in self.STATE_MUTATORS
            and (receiver == "state" or receiver.endswith("_state"))
            and self._outside(ctx, self.ALLOWED)
        ):
            ctx.report(
                self.rule_id,
                call,
                f"HashState.{method}() outside the operator/controller "
                f"pipeline bypasses the completion hooks that keep states "
                f"complete/closed/duplicate-free (PAPER.md §4.3)",
            )
        elif (
            method in self.STATUS_TRANSITIONS
            and receiver == "status"
            and self._outside(ctx, self.ALLOWED)
        ):
            ctx.report(
                self.rule_id,
                call,
                f"StateStatus.{method}() outside the operator/controller "
                f"pipeline can desynchronize the pending-value counter from "
                f"the state contents (PAPER.md §4.3)",
            )
        elif method in self.EVICTION_MUTATORS and self._outside(
            ctx, self.EVICTION_ALLOWED
        ):
            if method == "discard" and not (
                receiver == "window" or receiver.endswith("_window")
            ):
                return
            ctx.report(
                self.rule_id,
                call,
                f"{method}() is a coordinator-driven eviction entry point "
                f"(docs/SHARDING.md); calling it outside the shard layer "
                f"desynchronizes windows from derived state",
            )


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


# ---------------------------------------------------------------------------
# JISC007 — telemetry registration discipline


@register
class TelemetryRegistrationRule(Rule):
    """Telemetry instruments are registered at init time, not per tuple.

    Telemetry stays cheap (docs/TELEMETRY.md, "The cheapness contract")
    because the hot path touches pre-resolved instrument objects —
    plain attribute increments.  A ``registry.counter(...)`` call *is*
    get-or-create: it formats and hashes the label set on every call, so
    one factory call inside ``arrival()`` or a per-tuple loop silently
    turns O(1) increments into O(label-set) dictionary work that no call
    count shows.  Factories therefore may only be
    called from init-like code: module scope, ``__init__``/``attach``,
    or functions whose name says they register/wire/init something.
    """

    rule_id = "JISC007"
    name = "telemetry-registration"
    description = (
        "registry instrument factories (counter/gauge/histogram) "
        "may only be called from init-like functions (__init__, attach, "
        "*register*/*wire*/*init*) or module scope, never on hot paths"
    )

    #: The MetricsRegistry get-or-create factory methods.
    FACTORIES = {"counter", "gauge", "histogram"}
    #: Receiver names that identify a registry object.
    RECEIVERS = {"registry", "_registry", "reg"}
    #: Exact function names that count as init-time.
    INIT_EXACT = {"__init__", "__post_init__", "attach"}
    #: Substrings that mark a function as registration/wiring code.
    INIT_MARKERS = ("register", "wire", "init", "setup", "instrument")

    def applies_to(self, ctx: LintContext) -> bool:
        # The registry implements the factories; it may call its own.
        return ctx.in_engine and ctx.module_path != "repro/telemetry/registry.py"

    @classmethod
    def _init_like(cls, name: str) -> bool:
        return name in cls.INIT_EXACT or any(m in name for m in cls.INIT_MARKERS)

    @staticmethod
    def _enclosing_function(
        node: ast.AST, ctx: LintContext
    ) -> Optional[Union[ast.FunctionDef, ast.AsyncFunctionDef]]:
        cur = ctx.parent(node)
        while cur is not None and not isinstance(
            cur, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            cur = ctx.parent(cur)
        return cur

    def visit_Call(self, call: ast.Call, ctx: LintContext) -> None:
        chain = call_chain(call)
        if chain is None or len(chain) < 2:
            return
        if chain[-1] not in self.FACTORIES or chain[-2] not in self.RECEIVERS:
            return
        fn = self._enclosing_function(call, ctx)
        if fn is None or self._init_like(fn.name):
            return
        ctx.report(
            self.rule_id,
            call,
            f"registry.{chain[-1]}() inside {fn.name}() is get-or-create "
            f"label hashing on a non-init path; resolve the instrument once "
            f"at init/attach and increment the resolved object here "
            f"(docs/TELEMETRY.md, overhead budget)",
        )
