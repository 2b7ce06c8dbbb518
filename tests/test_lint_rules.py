"""Tests for the jisclint static-analysis framework (``repro.lint``).

Each rule gets true-positive and true-negative fixtures, linted as if the
snippet lived at an engine path (``src/repro/...``) — the rules key off
repo-relative module paths, so the ``path=`` argument is part of every
fixture.  The framework itself is covered via suppressions (honored and
unused), the text report, and the CLI exit-code contract.

The fixture snippets below *contain* violations on purpose; they live in
string literals, which the AST-based rules never see when this file itself
is linted (and the suppression scanner is token-based, so suppression text
inside these strings does not register either).  That is what keeps
``python -m repro.lint src tests benchmarks`` clean on the real tree.
"""

import os
import subprocess
import sys
import textwrap

from repro.lint import (
    Finding,
    all_rules,
    lint_paths,
    lint_source,
    render_text,
)
from repro.lint.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main

ENGINE = "src/repro/engine/example.py"


def ids(findings, rule=None):
    """The rule ids of ``findings`` (optionally only those matching ``rule``)."""
    return [f.rule_id for f in findings if rule is None or f.rule_id == rule]


def run(snippet, path=ENGINE, select=None):
    return lint_source(textwrap.dedent(snippet), path=path, select=select)


# ---------------------------------------------------------------------------
# JISC001 — determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_wall_clock_flagged(self):
        findings = run(
            """
            import time
            now = time.time()
            """
        )
        assert ids(findings, "JISC001")

    def test_datetime_now_flagged(self):
        findings = run(
            """
            import datetime
            stamp = datetime.datetime.now()
            """
        )
        assert ids(findings, "JISC001")

    def test_module_level_random_flagged(self):
        findings = run(
            """
            import random
            key = random.randrange(100)
            """
        )
        assert ids(findings, "JISC001")

    def test_seeded_rng_instance_ok(self):
        findings = run(
            """
            import random

            def make_rng(seed: int) -> random.Random:
                return random.Random(seed)

            def draw(rng: random.Random) -> int:
                return rng.randrange(100)
            """
        )
        assert not ids(findings, "JISC001")

    def test_from_import_of_module_random_flagged(self):
        findings = run("from random import randrange\n")
        assert ids(findings, "JISC001")

    def test_from_import_of_random_class_ok(self):
        findings = run("from random import Random\n")
        assert not ids(findings, "JISC001")

    def test_os_urandom_flagged(self):
        findings = run(
            """
            import os
            token = os.urandom(8)
            """
        )
        assert ids(findings, "JISC001")

    def test_outside_engine_not_flagged(self):
        findings = run(
            """
            import time
            now = time.time()
            """,
            path="tests/test_example.py",
        )
        assert not ids(findings, "JISC001")


# ---------------------------------------------------------------------------
# JISC003 — phase attribution
# ---------------------------------------------------------------------------


class TestPhaseAttribution:
    def test_direct_counts_store_flagged(self):
        findings = run(
            """
            def f(metrics):
                metrics.counts["hash_probe"] = 3
            """
        )
        assert ids(findings, "JISC003")

    def test_counts_mutator_call_flagged(self):
        findings = run(
            """
            def f(self):
                self.metrics.counts.clear()
            """
        )
        assert ids(findings, "JISC003")

    def test_count_api_ok(self):
        findings = run(
            """
            def f(metrics):
                metrics.count("hash_probe")
                metrics.count_n("hash_insert", 3)
            """
        )
        assert not ids(findings, "JISC003")

    def test_reading_counts_ok(self):
        findings = run(
            """
            def f(metrics):
                return metrics.counts.get("output", 0)
            """
        )
        assert not ids(findings, "JISC003")

    def test_unrelated_self_counts_ok(self):
        # GroupByCount keeps its own ``self.counts`` dict; only the
        # Metrics bag is protected.
        findings = run(
            """
            def f(self, key):
                self.counts[key] = self.counts.get(key, 0) + 1
            """
        )
        assert not ids(findings, "JISC003")

    def test_metrics_module_itself_exempt(self):
        findings = run(
            """
            def count(self, op):
                self.counts[op] = self.counts.get(op, 0) + 1
            """,
            path="src/repro/engine/metrics.py",
        )
        assert not ids(findings, "JISC003")


# ---------------------------------------------------------------------------
# JISC005 — queue discipline
# ---------------------------------------------------------------------------


class TestQueueDiscipline:
    def test_direct_operator_process_flagged(self):
        findings = run(
            """
            def f(parent, tup, child):
                parent.process(tup, child)
            """
        )
        assert ids(findings, "JISC005")

    def test_strategy_process_one_arg_ok(self):
        findings = run(
            """
            def f(strategy, tup):
                strategy.process(tup)
            """
        )
        assert not ids(findings, "JISC005")

    def test_base_operator_module_allowed(self):
        findings = run(
            """
            def emit(self, tup, parent, child):
                parent.process(tup, child)
            """,
            path="src/repro/operators/base.py",
        )
        assert not ids(findings, "JISC005")

    def test_queued_engine_allowed(self):
        findings = run(
            """
            def drain_one(self, target, tup, child):
                target.process(tup, child)
            """,
            path="src/repro/engine/queued.py",
        )
        assert not ids(findings, "JISC005")


# ---------------------------------------------------------------------------
# JISC006 — hygiene
# ---------------------------------------------------------------------------


class TestHygiene:
    def test_bare_except_flagged(self):
        findings = run(
            """
            def f():
                try:
                    return 1
                except:
                    return 0
            """
        )
        assert ids(findings, "JISC006")

    def test_typed_except_ok(self):
        findings = run(
            """
            def f():
                try:
                    return 1
                except ValueError:
                    return 0
            """
        )
        assert not ids(findings, "JISC006")

    def test_engine_assert_flagged(self):
        findings = run(
            """
            def f(x):
                assert x > 0
                return x
            """
        )
        assert ids(findings, "JISC006")

    def test_test_assert_ok(self):
        findings = run(
            """
            def test_f():
                assert 1 + 1 == 2
            """,
            path="tests/test_example.py",
        )
        assert not ids(findings, "JISC006")

    def test_mutable_default_literal_flagged(self):
        findings = run("def f(items=[]):\n    return items\n")
        assert ids(findings, "JISC006")

    def test_mutable_default_call_flagged(self):
        findings = run("def f(items=dict()):\n    return items\n")
        assert ids(findings, "JISC006")

    def test_none_default_ok(self):
        findings = run("def f(items=None):\n    return items\n")
        assert not ids(findings, "JISC006")


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_line_suppression_honored(self):
        findings = run(
            """
            import time

            def f():
                return time.time()  # jisclint: disable=JISC001
            """
        )
        assert not ids(findings, "JISC001")
        assert not ids(findings, "JISC000")

    def test_file_suppression_honored(self):
        findings = run(
            """
            # jisclint: disable-file=JISC001
            import time

            def f():
                return time.time()

            def g():
                return time.monotonic()
            """
        )
        assert not findings

    def test_unused_suppression_reported(self):
        findings = run(
            """
            def f():
                return 1  # jisclint: disable=JISC001
            """
        )
        assert ids(findings, "JISC000")

    def test_suppression_only_covers_named_rule(self):
        findings = run(
            """
            def f(parent, tup, child):
                parent.process(tup, child)  # jisclint: disable=JISC001
            """
        )
        # JISC005 still fires; the JISC001 suppression is unused.
        assert ids(findings, "JISC005")
        assert ids(findings, "JISC000")

    def test_suppression_text_in_string_ignored(self):
        findings = run(
            """
            DOC = "write  # jisclint: disable=JISC001  on the offending line"
            """
        )
        assert not findings

    def test_multiple_ids_one_comment(self):
        findings = run(
            """
            import time

            def f(parent, tup, child):
                parent.process(time.time(), child)  # jisclint: disable=JISC001,JISC005
            """
        )
        assert not findings


# ---------------------------------------------------------------------------
# Framework: registry, syntax errors, reporters
# ---------------------------------------------------------------------------


class TestFramework:
    def test_registry_has_all_rules(self):
        registry = all_rules()
        # JISC000 (unused suppression) is reported by the framework itself.
        assert sorted(registry) == [
            "JISC001", "JISC003", "JISC005", "JISC006", "JISC008", "JISC010"
        ]

    def test_select_restricts_rules(self):
        snippet = """
            import time

            def f(parent, tup, child):
                parent.process(time.time(), child)
        """
        only_005 = run(snippet, select=["JISC005"])
        assert set(ids(only_005)) == {"JISC005"}

    def test_syntax_error_reported_not_raised(self):
        findings = lint_source("def broken(:\n", path=ENGINE)
        assert ids(findings, "JISC999")

    def test_findings_sorted_by_position(self):
        findings = run(
            """
            import time

            def g():
                return time.time()

            def f():
                return time.time()
            """
        )
        assert findings == sorted(findings, key=lambda f: f.sort_key())

    def test_render_text_clean(self):
        assert "clean" in render_text([])

    def test_render_text_lists_findings(self):
        f = Finding("JISC001", "src/repro/x.py", 3, 7, "wall clock")
        text = render_text([f])
        assert "src/repro/x.py:3:7" in text
        assert "JISC001" in text

    def test_lint_paths_walks_tree(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "engine"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("import time\nx = time.time()\n")
        (pkg / "good.py").write_text("x = 1\n")
        findings = lint_paths([str(tmp_path)])
        assert ids(findings, "JISC001")
        assert all(f.path.endswith("bad.py") for f in findings)


# ---------------------------------------------------------------------------
# CLI contract
# ---------------------------------------------------------------------------


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path)]) == EXIT_CLEAN
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "engine"
        bad.mkdir(parents=True)
        (bad / "bad.py").write_text("import time\nx = time.time()\n")
        assert main([str(tmp_path)]) == EXIT_FINDINGS
        assert "JISC001" in capsys.readouterr().out

    def test_unknown_select_exit_two(self, capsys):
        assert main(["--select", "JISC777", "."]) == EXIT_USAGE
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exit_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == EXIT_USAGE

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "JISC001" in out and "JISC006" in out

    def test_module_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--list-rules"],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == EXIT_CLEAN
        assert "JISC001" in proc.stdout


# ---------------------------------------------------------------------------
# JISC008 — determinism taint
# ---------------------------------------------------------------------------


class TestDeterminismTaint:
    def test_set_iteration_into_emit_flagged(self):
        findings = run(
            """
            class Op:
                def flush(self):
                    pending = {1, 2, 3}
                    for item in pending:
                        self.emit(item)
            """
        )
        assert ids(findings, "JISC008")

    def test_set_attr_iteration_into_state_flagged(self):
        findings = run(
            """
            from typing import Set

            class Op:
                ops: Set[object]

                def flush(self):
                    for op in self.ops:
                        self.state.remove_with_part(op)
            """
        )
        assert ids(findings, "JISC008")

    def test_id_value_into_emit_flagged(self):
        findings = run(
            """
            class Op:
                def flush(self, tup):
                    tag = id(tup)
                    self.emit((tag, tup))
            """
        )
        assert ids(findings, "JISC008")

    def test_sorted_barrier_clears_taint(self):
        findings = run(
            """
            class Op:
                def flush(self):
                    pending = {1, 2, 3}
                    for item in sorted(pending):
                        self.emit(item)
            """
        )
        assert not ids(findings, "JISC008")

    def test_list_of_set_preserves_taint(self):
        findings = run(
            """
            class Op:
                def flush(self):
                    pending = {1, 2, 3}
                    for item in list(pending):
                        self.emit(item)
            """
        )
        assert ids(findings, "JISC008")

    def test_aggregation_of_set_is_clean(self):
        findings = run(
            """
            class Op:
                def flush(self):
                    pending = {1, 2, 3}
                    total = sum(pending)
                    self.emit(total)
            """
        )
        assert not ids(findings, "JISC008")

    def test_set_membership_and_set_add_are_clean(self):
        # the telemetry-hub idiom: id() used only for identity dedupe
        findings = run(
            """
            class Hub:
                def attach(self, ops):
                    seen = set()
                    for op in ops:
                        if id(op) in seen:
                            continue
                        seen.add(id(op))
            """
        )
        assert not ids(findings, "JISC008")

    def test_value_derived_from_tainted_loop_var_flagged(self):
        # the setdiff shape: set iteration -> dict lookup -> state mutation
        findings = run(
            """
            from typing import Dict, Set

            class Op:
                _owners: Dict[str, Set[str]]

                def release(self):
                    released = self._owners.pop("k", set())
                    for part in released:
                        outer = self._tuples.pop(part)
                        if self.state.add(outer):
                            self.emit(outer)
            """
        )
        assert ids(findings, "JISC008")

    def test_serializer_returning_set_derived_payload_flagged(self):
        findings = run(
            """
            def checkpoint_windows(scans):
                names = {s.name for s in scans}
                return [n for n in names]
            """
        )
        assert ids(findings, "JISC008")

    def test_dict_iteration_is_ordered_and_clean(self):
        # CPython dicts are insertion-ordered; only sets/id() taint
        findings = run(
            """
            class Op:
                def flush(self, mapping):
                    for key, value in mapping.items():
                        self.emit((key, value))
            """
        )
        assert not ids(findings, "JISC008")

    def test_outside_engine_not_flagged(self):
        findings = run(
            """
            class Op:
                def flush(self):
                    for item in {1, 2}:
                        self.emit(item)
            """,
            path="tests/example.py",
        )
        assert not ids(findings, "JISC008")

    def test_annotation_head_reads_through_wrappers(self):
        from repro.lint.flowrules import annotation_head

        assert annotation_head("Optional[HashState]") == "HashState"
        assert annotation_head("'Set[int]'") == "Set"
        assert annotation_head("FrozenSet[str] | None") == "FrozenSet"
        assert annotation_head(None) is None


class TestSeededMutation:
    """A planted unordered-iteration bug in a copy of joins.py is caught."""

    def test_mutated_join_probe_loop_caught(self, tmp_path):
        from repro.lint import lint_file

        with open("src/repro/operators/joins.py") as fh:
            source = fh.read()
        assert "for match in matches:" in source
        mutated = source.replace(
            "for match in matches:", "for match in set(matches):", 1
        )
        target_dir = tmp_path / "src" / "repro" / "operators"
        target_dir.mkdir(parents=True)
        target = target_dir / "joins.py"
        target.write_text(mutated)
        findings = lint_file(str(target))
        assert ids(findings, "JISC008"), "planted set-iteration bug missed"

    def test_unmutated_copy_stays_clean(self, tmp_path):
        from repro.lint import lint_file

        with open("src/repro/operators/joins.py") as fh:
            source = fh.read()
        target_dir = tmp_path / "src" / "repro" / "operators"
        target_dir.mkdir(parents=True)
        target = target_dir / "joins.py"
        target.write_text(source)
        findings = lint_file(str(target))
        assert not ids(findings, "JISC008")


# ---------------------------------------------------------------------------
# JISC010 — handle lifecycle
# ---------------------------------------------------------------------------


class TestHandleTypestate:
    def test_unrestored_span_flagged(self):
        findings = run(
            """
            PHASE_MIGRATING = "migrating"

            class S:
                def transition(self, tracer):
                    prev = tracer.set_phase(PHASE_MIGRATING)
                    self.work()
            """
        )
        assert ids(findings, "JISC010")

    def test_try_finally_restore_ok(self):
        findings = run(
            """
            PHASE_MIGRATING = "migrating"

            class S:
                def transition(self, tracer):
                    prev = tracer.set_phase(PHASE_MIGRATING)
                    try:
                        self.work()
                    finally:
                        tracer.set_phase(prev)
            """
        )
        assert not ids(findings, "JISC010")

    def test_guarded_conditional_span_ok(self):
        # the engine's fast-path idiom: open only when tracing is enabled
        findings = run(
            """
            PHASE_REBALANCING = "rebalancing"

            class S:
                def rebalance(self, tracer):
                    prev = tracer.set_phase(PHASE_REBALANCING) if tracer.enabled else None
                    try:
                        self.work()
                    finally:
                        if prev is not None:
                            tracer.set_phase(prev)
            """
        )
        assert not ids(findings, "JISC010")

    def test_restore_on_one_branch_only_flagged(self):
        findings = run(
            """
            PHASE_MIGRATING = "migrating"

            class S:
                def transition(self, tracer, fast):
                    prev = tracer.set_phase(PHASE_MIGRATING)
                    if fast:
                        tracer.set_phase(prev)
            """
        )
        assert ids(findings, "JISC010")

    def test_discarded_previous_phase_flagged(self):
        findings = run(
            """
            PHASE_MIGRATING = "migrating"

            class S:
                def transition(self, tracer):
                    tracer.set_phase(PHASE_MIGRATING)
                    self.work()
            """
        )
        assert ids(findings, "JISC010")

    def test_escaping_session_ok(self):
        findings = run(
            """
            class Exec:
                def rebalance(self, spec):
                    session = RebalanceSession(spec)
                    self._session = session
                    return session
            """
        )
        assert not ids(findings, "JISC010")

    def test_session_returned_in_a_tuple_ok(self):
        findings = run(
            """
            class Exec:
                def _open_plan(self, spec):
                    session = RebalanceSession(spec)
                    return self.plan, session
            """
        )
        assert not ids(findings, "JISC010")

    def test_dropped_session_flagged(self):
        findings = run(
            """
            class Exec:
                def rebalance(self, spec):
                    session = RebalanceSession(spec)
                    self.log("started")
            """
        )
        assert ids(findings, "JISC010")


# ---------------------------------------------------------------------------
# Lint-core edge cases (satellite)
# ---------------------------------------------------------------------------


class TestSuppressionEdgeCases:
    def test_suppression_on_decorated_def(self):
        # the comment sits on the def line, below the decorators; the
        # finding is reported at the def, so the suppression must hit
        findings = run(
            """
            import functools

            @functools.lru_cache
            def f(xs=[]):  # jisclint: disable=JISC006
                return xs
            """
        )
        assert not ids(findings, "JISC006")
        assert not ids(findings, "JISC000")

    def test_suppression_inside_multiline_call_line(self):
        findings = run(
            """
            import time

            def f():
                return max(
                    time.time(),  # jisclint: disable=JISC001
                    0.0,
                )
            """
        )
        assert not ids(findings, "JISC001")
        assert not ids(findings, "JISC000")


class TestReporterStability:
    def test_output_identical_across_hash_seeds(self, tmp_path):
        # rule iteration, finding sort, and text rendering must not leak
        # set/dict iteration order: two runs under different PYTHONHASHSEED
        # values must emit byte-identical reports.
        bad = tmp_path / "engine"
        (bad / "src" / "repro" / "engine").mkdir(parents=True)
        target = bad / "src" / "repro" / "engine" / "ex.py"
        target.write_text(
            textwrap.dedent(
                """
                import time

                class Op:
                    def flush(self):
                        pending = {1, 2}
                        for item in pending:
                            self.emit(item)
                        return time.time()
                """
            )
        )
        outputs = []
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.path.abspath("src")
            proc = subprocess.run(
                [sys.executable, "-m", "repro.lint", str(bad)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == EXIT_FINDINGS
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestCliV2:
    def test_self_check_passes(self, capsys):
        assert main(["--self-check"]) == EXIT_CLEAN
        assert "self-check: passed" in capsys.readouterr().out

    def test_self_check_fails_on_a_drifted_or_missed_witness(self, monkeypatch, capsys):
        from repro.lint import selfcheck

        rule, module, line, _ = selfcheck.WITNESSES[0]
        drifted = (rule, module, line + "  # no longer in the module", line)
        missed = (rule, module, line, line)  # a "mutant" the rule cannot flag
        monkeypatch.setattr(selfcheck, "WITNESSES", (drifted, missed))
        assert main(["--self-check"]) == EXIT_USAGE
        out = capsys.readouterr().out
        assert "no longer occurs exactly once" in out and "missed" in out
