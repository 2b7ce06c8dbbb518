"""Whole-program jisclint tests: call graph, CFG, dataflow, phase typestate.

These run the real analyses over the real tree (``src/repro``) and assert
over the resulting :class:`~repro.lint.typestate.PhaseProof` — the point of
the typestate upgrade is that phase-legality of every strategy's mutation
sites is *proved*, so the proof itself is the test surface.
"""

import ast
import textwrap

import pytest

from repro.lint.callgraph import (
    Project,
    annotation_element,
    annotation_head,
    extract_module_facts,
)
from repro.lint.cfg import build_cfg
from repro.lint.core import LintContext, iter_python_files
from repro.lint.dataflow import assigned_names, reaching_definitions
from repro.lint.program import build_project_from_contexts, run_program_analysis
from repro.lint.typestate import LEGAL_TRANSITIONS, verify_phases


def make_contexts(paths):
    ctxs = []
    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        ctxs.append(LintContext(path, source, ast.parse(source)))
    return ctxs


@pytest.fixture(scope="module")
def proof():
    project = build_project_from_contexts(make_contexts(["src/repro"]))
    assert project is not None
    return verify_phases(project)


# ---------------------------------------------------------------------------
# CFG
# ---------------------------------------------------------------------------


def cfg_of(src):
    func = ast.parse(textwrap.dedent(src)).body[0]
    return build_cfg(func)


class TestCfg:
    def test_linear_function_single_path(self):
        cfg = cfg_of(
            """
            def f(x):
                y = x + 1
                return y
            """
        )
        assert cfg.exit_blocks()
        # entry reaches the exit
        reachable = {cfg.entry}
        frontier = [cfg.entry]
        while frontier:
            for succ in cfg.blocks[frontier.pop()].succs:
                if succ not in reachable:
                    reachable.add(succ)
                    frontier.append(succ)
        assert cfg.exit in reachable

    def test_if_creates_branch_and_join(self):
        cfg = cfg_of(
            """
            def f(x):
                if x:
                    y = 1
                else:
                    y = 2
                return y
            """
        )
        branching = [b for b in cfg.blocks.values() if len(b.succs) >= 2]
        assert branching, "if-statement should fork the CFG"

    def test_loop_has_back_edge(self):
        cfg = cfg_of(
            """
            def f(xs):
                for x in xs:
                    use(x)
                return None
            """
        )
        # some block's successor set contains a block at or before it
        assert any(
            succ <= bid for bid, b in cfg.blocks.items() for succ in b.succs
        )

    def test_finally_on_return_path(self):
        # a return inside try must route through the finally suite
        cfg = cfg_of(
            """
            def f():
                try:
                    return 1
                finally:
                    cleanup()
            """
        )
        stmts = [
            ast.unparse(s) for b in cfg.blocks.values() for s in b.stmts
        ]
        assert any("cleanup" in s for s in stmts)


class TestDataflow:
    def test_assigned_names_destructuring(self):
        target = ast.parse("a, (b, c) = x").body[0].targets[0]
        assert assigned_names(target) == ("a", "b", "c")

    def test_assigned_names_self_attr(self):
        target = ast.parse("self.x = 1").body[0].targets[0]
        assert assigned_names(target) == ("self.x",)

    def test_reaching_defs_join_at_merge(self):
        cfg = cfg_of(
            """
            def f(flag):
                if flag:
                    x = 1
                else:
                    x = 2
                return x
            """
        )
        _, block_out = reaching_definitions(cfg)
        exit_defs = set()
        for pred in cfg.blocks[cfg.exit].preds:
            exit_defs |= set(block_out[pred].get("x", frozenset()))
        assert len(exit_defs) == 2, "both branches' defs must reach the merge"

    def test_loop_reaches_fixpoint(self):
        cfg = cfg_of(
            """
            def f(xs):
                total = 0
                for x in xs:
                    total = total + x
                return total
            """
        )
        _, block_out = reaching_definitions(cfg)
        all_defs = set()
        for state in block_out.values():
            all_defs |= set(state.get("total", frozenset()))
        assert len(all_defs) == 2  # init line and loop-body line


# ---------------------------------------------------------------------------
# Call graph
# ---------------------------------------------------------------------------


class TestCallGraph:
    def test_annotation_helpers(self):
        assert annotation_head("Optional[HashState]") == "HashState"
        assert annotation_element("List[BinaryOperator]") == "BinaryOperator"
        assert annotation_element("Dict[str, int]") is None

    def test_extract_records_span_opens(self):
        src = textwrap.dedent(
            """
            class S:
                def go(self, tracer):
                    prev = tracer.set_phase(PHASE_MIGRATING)
            """
        )
        facts = extract_module_facts("src/repro/x.py", "repro/x.py", ast.parse(src))
        (cls,) = facts.classes
        (fn,) = [f for f in cls.methods if f.name == "go"]
        assert fn.opens == ["migrating"]

    def test_real_tree_links_dispatch_edges(self):
        project = build_project_from_contexts(make_contexts(["src/repro"]))
        assert isinstance(project, Project)
        assert len(project.functions) > 400
        assert len(project.edges) > 400
        # annotation-driven dispatch: MigrationStrategy.transition calls
        # _do_transition on every registered subclass override
        callees = {
            e.callee
            for e in project.edges
            if e.caller.endswith("MigrationStrategy.transition")
        }
        for impl in (
            "JISCStrategy._do_transition",
            "MovingStateStrategy._do_transition",
            "ParallelTrackStrategy._do_transition",
            "STAIRSExecutor._do_transition",
        ):
            assert any(c.endswith(impl) for c in callees), impl


# ---------------------------------------------------------------------------
# Phase typestate: the six-strategy proof
# ---------------------------------------------------------------------------


STRATEGY_TRANSITION_IMPLS = (
    "MigrationStrategy._do_transition",
    "StaticPlanExecutor._do_transition",
    "JISCStrategy._do_transition",
    "MovingStateStrategy._do_transition",
    "ParallelTrackStrategy._do_transition",
    "STAIRSExecutor._do_transition",
)


class TestPhaseProof:
    def test_tree_verifies(self, proof):
        assert proof.ok, "\n".join(v.message for v in proof.violations)

    def test_every_strategy_transition_proved_migrating(self, proof):
        for impl in STRATEGY_TRANSITION_IMPLS:
            result = proof.result_for(impl)
            assert result is not None, f"no policy result for {impl}"
            assert result.observed, f"{impl} unreachable — vacuous proof"
            assert result.observed <= {"migrating"}, (
                f"{impl} reachable in {sorted(result.observed)}"
            )

    def test_cacq_executes_at_steady_without_spans(self, proof):
        # CACQ is the zero-migration-cost baseline: transition() only swaps
        # routing order, opens no span, and stays phase-clean.
        quals = [
            q for q in proof.contexts if q.endswith("CACQExecutor.transition")
        ]
        assert quals, "CACQExecutor.transition missing from the project"
        for q in quals:
            assert proof.contexts[q] <= {"steady"}
        assert not any("cacq" in v.path for v in proof.violations)

    def test_completion_runs_only_in_completing(self, proof):
        results = [
            r for r in proof.policies if "repro/core/completion.py" in r.qual
        ]
        assert results
        observed = set()
        for r in results:
            assert r.ok
            observed |= r.observed
        assert observed == {"completing"}

    def test_checkpoint_restore_runs_under_recovering(self, proof):
        result = proof.result_for("restore_strategy")
        assert result is not None and result.ok
        assert result.observed == {"recovering"}

    def test_checkpoint_capture_runs_at_steady(self, proof):
        result = proof.result_for("checkpoint_strategy")
        assert result is not None and result.ok
        assert result.observed == {"steady"}

    def test_legal_transitions_cover_all_phases(self):
        for phase, sources in LEGAL_TRANSITIONS.items():
            assert sources, phase

    def test_violation_carries_witness_chain(self):
        # a module whose entry point opens a recovering span and then calls
        # into a migrating span: illegal (migrating may not be entered from
        # recovering-only contexts is legal, but recovering from migrating
        # is not) — check the witness text names the caller.
        src = textwrap.dedent(
            """
            PHASE_MIGRATING = "migrating"
            PHASE_RECOVERING = "recovering"

            class Bad:
                def outer(self, tracer: object) -> None:
                    prev = tracer.set_phase(PHASE_MIGRATING)
                    try:
                        self.inner(tracer)
                    finally:
                        tracer.set_phase(prev)

                def inner(self, tracer: object) -> None:
                    prev = tracer.set_phase(PHASE_RECOVERING)
                    try:
                        pass
                    finally:
                        tracer.set_phase(prev)
            """
        )
        ctx = LintContext("src/repro/engine/bad.py", src, ast.parse(src))
        project = build_project_from_contexts([ctx])
        proof = verify_phases(project)
        assert not proof.ok
        (violation,) = [
            v for v in proof.violations if "opens a 'recovering' span" in v.message
        ]
        assert "Bad.outer" in violation.message  # the witness chain


class TestProgramFindings:
    def test_program_violation_reported_through_context(self):
        src = textwrap.dedent(
            """
            PHASE_RECOVERING = "recovering"
            PHASE_MIGRATING = "migrating"

            class Bad:
                def outer(self, tracer: object) -> None:
                    prev = tracer.set_phase(PHASE_MIGRATING)
                    try:
                        self.inner(tracer)
                    finally:
                        tracer.set_phase(prev)

                def inner(self, tracer: object) -> None:
                    prev = tracer.set_phase(PHASE_RECOVERING)
                    try:
                        pass
                    finally:
                        tracer.set_phase(prev)
            """
        )
        ctx = LintContext("src/repro/engine/bad.py", src, ast.parse(src))
        run_program_analysis([ctx])
        findings = ctx.finish()
        assert any(f.rule_id == "JISC004" for f in findings)

    def test_program_findings_respect_suppressions(self):
        src = textwrap.dedent(
            """
            # jisclint: disable-file=JISC004
            PHASE_RECOVERING = "recovering"
            PHASE_MIGRATING = "migrating"

            class Bad:
                def outer(self, tracer: object) -> None:
                    prev = tracer.set_phase(PHASE_MIGRATING)
                    try:
                        self.inner(tracer)
                    finally:
                        tracer.set_phase(prev)

                def inner(self, tracer: object) -> None:
                    prev = tracer.set_phase(PHASE_RECOVERING)
                    try:
                        pass
                    finally:
                        tracer.set_phase(prev)
            """
        )
        ctx = LintContext("src/repro/engine/bad.py", src, ast.parse(src))
        run_program_analysis([ctx])
        findings = ctx.finish()
        assert not any(f.rule_id == "JISC004" for f in findings)

    def test_non_engine_contexts_skip_program_pass(self):
        src = "def f():\n    return 1\n"
        ctx = LintContext("tests/helper.py", src, ast.parse(src))
        assert run_program_analysis([ctx]) is None
