"""Phase-protocol typestate verifier (the JISC004 upgrade to proofs).

The engine's phase machine (docs/STATIC_ANALYSIS.md carries the diagram)::

                      +-------------> completing -----------+
                      |                 ^   ^               |
    steady ----> migrating              |   |               v
      | ^                               |   +--------- (restores to
      | |---> rebalancing --------------+               previous phase)
      | |                                               every phase span
      | +---> recovering ---> {migrating, rebalancing,  is try/finally
      |                        completing}              bracketed
      +------------------------------------------------ ...

Verification is interprocedural over the :mod:`repro.lint.callgraph`
project:

1. every function that opens a ``set_phase(PHASE_X)`` span *grants* phase
   ``X`` to all of its callees (function granularity: the engine's traced
   and untraced branches of the same function execute the same protocol
   step, so the grant deliberately covers the untraced fast path too);
2. phase contexts propagate to a fixpoint along resolved call edges —
   entry points (functions with no in-project callers) run at ``steady``;
3. :data:`POLICIES` pins protocol functions to their legal phases — a
   reaching context outside the allowed set is a violation, reported with
   a witness call chain;
4. opening a span is itself checked against :data:`LEGAL_TRANSITIONS`
   (e.g. ``recovering`` may only be entered from ``steady``).

The result is a :class:`PhaseProof`: the full context map, every policy
with its observed contexts, and the violation list.  Tests assert over the
proof directly (all six strategies' mutation sites must verify).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.callgraph import Project

ALL_PHASES = frozenset(
    {"steady", "migrating", "completing", "recovering", "rebalancing"}
)

#: phase -> phases it may legally be entered from (self-entry is always
#: allowed: re-opening the active phase is an idempotent no-op, which the
#: nested rebalancing spans of ShardWorker.replay rely on).
LEGAL_TRANSITIONS: Dict[str, FrozenSet[str]] = {
    "steady": ALL_PHASES,  # restoring the previous phase is always legal
    "migrating": frozenset({"steady", "recovering"}),
    "completing": frozenset({"steady", "migrating", "rebalancing", "recovering"}),
    "rebalancing": frozenset({"steady", "recovering"}),
    "recovering": frozenset({"steady"}),
}


@dataclass(frozen=True)
class PhasePolicy:
    """Pins functions matching (module prefix, class, name) to phases."""

    description: str
    allowed: FrozenSet[str]
    module: Optional[str] = None  # module_path prefix, e.g. "repro/core/"
    cls: Optional[str] = None
    func: Optional[str] = None

    def matches(self, module_path: str, cls: Optional[str], func: str) -> bool:
        if self.module is not None and not module_path.startswith(self.module):
            return False
        if self.cls is not None and cls != self.cls:
            return False
        if self.func is not None and func != self.func:
            return False
        return True


#: The protocol legality table (PAPER.md §3-4, docs/FAULT_INJECTION.md,
#: docs/SHARDING.md).  Order matters only for reporting; all matching
#: policies apply.
POLICIES: Tuple[PhasePolicy, ...] = (
    PhasePolicy(
        "JISC state completion (Procedures 2/3) runs only inside a "
        "completing span",
        frozenset({"completing"}),
        module="repro/core/completion.py",
    ),
    PhasePolicy(
        "the JISC transition (pending-counter initialization, state "
        "adoption) runs only inside a migrating span",
        frozenset({"migrating"}),
        module="repro/core/transition.py",
    ),
    PhasePolicy(
        "strategy migration steps run only inside the migrating span "
        "opened by MigrationStrategy.transition",
        frozenset({"migrating"}),
        func="_do_transition",
    ),
    PhasePolicy(
        "eager whole-state rebuild is Moving State's halting phase",
        frozenset({"migrating"}),
        func="build_state_full",
    ),
    PhasePolicy(
        "per-value state completion belongs to the completing phase",
        frozenset({"completing"}),
        func="build_state_for_key",
    ),
    PhasePolicy(
        "checkpoint capture runs at steady; restore runs under the "
        "recovering span of RecoveryManager._recover",
        frozenset({"steady", "recovering"}),
        module="repro/engine/checkpoint.py",
    ),
    PhasePolicy(
        "shard replay mutates per-shard state: legal at steady hand-off, "
        "under a rebalancing span, or during command-log recovery",
        frozenset({"steady", "rebalancing", "recovering"}),
        cls="ShardWorker",
        func="replay",
    ),
    PhasePolicy(
        "shard eviction is driven by window slides (steady), key moves "
        "(rebalancing) or command-log recovery",
        frozenset({"steady", "rebalancing", "recovering"}),
        cls="ShardWorker",
        func="evict",
    ),
    PhasePolicy(
        "rebalance-session settlement follows key completion or lazy "
        "expiry; never inside migrating/completing spans",
        frozenset({"steady", "rebalancing", "recovering"}),
        cls="RebalanceSession",
        func="settle",
    ),
    PhasePolicy(
        "rebalance-session retirement follows key completion or lazy "
        "expiry; never inside migrating/completing spans",
        frozenset({"steady", "rebalancing", "recovering"}),
        cls="RebalanceSession",
        func="retire",
    ),
)

#: Functions that conceptually execute inside a phase without opening the
#: tracer span themselves; entries are
#: (module_path, class-or-None, function) -> phases.
PHASE_GRANTS: Dict[Tuple[str, Optional[str], str], FrozenSet[str]] = {
    # The generic completion procedures' one caller: observed, it is entered
    # through ``JISCController.observed_completion``'s span (passed as a value,
    # so no call edge shows it); unobserved there is no phase to be in.
    ("repro/core/controller.py", "JISCController", "_complete_value"): frozenset({"completing"}),
}


@dataclass
class PhaseViolation:
    path: str
    line: int
    message: str


@dataclass
class PolicyResult:
    qual: str
    allowed: FrozenSet[str]
    observed: FrozenSet[str]
    description: str

    @property
    def ok(self) -> bool:
        return self.observed <= self.allowed


@dataclass
class PhaseProof:
    """Output of :func:`verify_phases`: contexts, policies, violations."""

    contexts: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    policies: List[PolicyResult] = field(default_factory=list)
    violations: List[PhaseViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def result_for(self, qual_suffix: str) -> Optional[PolicyResult]:
        """Policy result whose qual ends with ``qual_suffix`` (test helper)."""
        for result in self.policies:
            if result.qual.endswith(qual_suffix):
                return result
        return None


def _grants(project: Project, qual: str) -> FrozenSet[str]:
    fn = project.functions[qual]
    opens = frozenset(fn.facts.opens)
    extra = PHASE_GRANTS.get((fn.module_path, fn.cls, fn.name))
    if extra:
        opens = opens | extra
    return opens


def _propagate(
    project: Project,
) -> Tuple[Dict[str, Set[str]], Dict[Tuple[str, str], Tuple[str, int]]]:
    """Fixpoint phase contexts plus one witness edge per (function, phase)."""
    contexts: Dict[str, Set[str]] = {q: set() for q in project.functions}
    origins: Dict[Tuple[str, str], Tuple[str, int]] = {}
    out_edges: Dict[str, List] = {}
    for edge in project.edges:
        if edge.caller in contexts and edge.callee in contexts:
            out_edges.setdefault(edge.caller, []).append(edge)

    worklist: List[str] = []
    for qual in sorted(project.functions):
        if not project.callers.get(qual):
            contexts[qual].add("steady")
        worklist.append(qual)

    while worklist:
        caller = worklist.pop(0)
        granted = _grants(project, caller)
        contrib = granted if granted else contexts[caller]
        if not contrib:
            continue
        for edge in out_edges.get(caller, ()):
            new = contrib - contexts[edge.callee]
            if not new:
                continue
            contexts[edge.callee].update(new)
            for phase in new:
                origins.setdefault((edge.callee, phase), (caller, edge.line))
            if edge.callee not in worklist:
                worklist.append(edge.callee)
    return contexts, origins


def _witness_chain(
    origins: Dict[Tuple[str, str], Tuple[str, int]], qual: str, phase: str
) -> str:
    """Human-readable caller chain explaining how ``phase`` reaches ``qual``."""
    chain = [qual]
    cur = qual
    for _ in range(8):
        origin = origins.get((cur, phase))
        if origin is None:
            break
        caller, _line = origin
        chain.append(caller)
        cur = caller
    return " <- ".join(chain)


def verify_phases(project: Project) -> PhaseProof:
    """Run the phase-typestate verification over a linked project."""
    proof = PhaseProof()
    contexts, origins = _propagate(project)
    proof.contexts = {q: frozenset(c) for q, c in contexts.items()}

    for qual in sorted(project.functions):
        fn = project.functions[qual]
        observed = proof.contexts[qual]
        # 1. span-entry legality
        for phase in sorted(fn.facts.opens):
            legal = LEGAL_TRANSITIONS[phase] | {phase}
            illegal = observed - legal
            if illegal:
                proof.violations.append(
                    PhaseViolation(
                        fn.module_path,
                        fn.facts.lineno,
                        f"phase-typestate: {qual} opens a '{phase}' span but "
                        f"is reachable from phase(s) {sorted(illegal)}; legal "
                        f"predecessors are {sorted(legal)} "
                        f"(via {_witness_chain(origins, qual, sorted(illegal)[0])})",
                    )
                )
        # 2. function phase policies
        for policy in POLICIES:
            if not policy.matches(fn.module_path, fn.cls, fn.name):
                continue
            result = PolicyResult(qual, policy.allowed, observed, policy.description)
            proof.policies.append(result)
            if not result.ok:
                bad = sorted(observed - policy.allowed)
                proof.violations.append(
                    PhaseViolation(
                        fn.module_path,
                        fn.facts.lineno,
                        f"phase-typestate: {qual} is reachable in phase(s) "
                        f"{bad} but allowed only in {sorted(policy.allowed)} — "
                        f"{policy.description} "
                        f"(via {_witness_chain(origins, qual, bad[0])})",
                    )
                )
    return proof
