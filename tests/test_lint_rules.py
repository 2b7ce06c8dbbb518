"""Tests for the jisclint static-analysis framework (``repro.lint``).

Each rule gets true-positive and true-negative fixtures, linted as if the
snippet lived at an engine path (``src/repro/...``) — the rules key off
repo-relative module paths, so the ``path=`` argument is part of every
fixture.  The framework itself is covered via suppressions (honored and
unused), the reporters, and the CLI exit-code contract.

The fixture snippets below *contain* violations on purpose; they live in
string literals, which the AST-based rules never see when this file itself
is linted (and the suppression scanner is token-based, so suppression text
inside these strings does not register either).  That is what keeps
``python -m repro.lint src tests benchmarks`` clean on the real tree.
"""

import json
import os
import subprocess
import sys
import textwrap

from repro.lint import (
    Finding,
    all_rules,
    lint_paths,
    lint_source,
    render_json,
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
# JISC002 — tracer purity
# ---------------------------------------------------------------------------


class TestTracerPurity:
    def test_hook_as_statement_ok(self):
        findings = run(
            """
            def f(tracer, op):
                tracer.on_count(op, 1)
            """
        )
        assert not ids(findings, "JISC002")

    def test_hook_result_assigned_flagged(self):
        findings = run(
            """
            def f(tracer, op):
                x = tracer.on_count(op, 1)
                return x
            """
        )
        assert ids(findings, "JISC002")

    def test_hook_result_in_condition_flagged(self):
        findings = run(
            """
            def f(tracer, tup):
                if tracer.output(tup, 0.0):
                    return 1
                return 0
            """
        )
        assert ids(findings, "JISC002")

    def test_hook_result_as_argument_flagged(self):
        findings = run(
            """
            def f(tracer, tup):
                print(tracer.arrival(tup, 0.0))
            """
        )
        assert ids(findings, "JISC002")

    def test_set_phase_exempt(self):
        findings = run(
            """
            def f(tracer):
                prev = tracer.set_phase("migrating")
                tracer.set_phase(prev)
            """
        )
        assert not ids(findings, "JISC002")

    def test_obs_package_exempt(self):
        findings = run(
            """
            def f(tracer, op):
                x = tracer.on_count(op, 1)
                return x
            """,
            path="src/repro/obs/report.py",
        )
        assert not ids(findings, "JISC002")


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
# JISC004 — state discipline
# ---------------------------------------------------------------------------


class TestStateDiscipline:
    def test_state_add_outside_allowlist_flagged(self):
        findings = run(
            """
            def f(state, entry):
                state.add(entry)
            """,
            path="src/repro/migration/example.py",
        )
        assert ids(findings, "JISC004")

    def test_status_transition_outside_allowlist_flagged(self):
        findings = run(
            """
            def f(status):
                status.mark_complete()
            """,
            path="src/repro/migration/example.py",
        )
        assert ids(findings, "JISC004")

    def test_operators_package_allowed(self):
        findings = run(
            """
            def f(state, entry):
                state.add(entry)
            """,
            path="src/repro/operators/joins.py",
        )
        assert not ids(findings, "JISC004")

    def test_core_package_allowed(self):
        findings = run(
            """
            def f(status):
                status.mark_complete()
            """,
            path="src/repro/core/completion.py",
        )
        assert not ids(findings, "JISC004")

    def test_state_read_ok_anywhere(self):
        findings = run(
            """
            def f(state, key):
                return state.get(key)
            """,
            path="src/repro/migration/example.py",
        )
        assert not ids(findings, "JISC004")

    def test_shard_rebalance_module_allowed(self):
        findings = run(
            """
            def f(status, routes):
                status.mark_incomplete(routes)
                status.settle_value(next(iter(routes)))
            """,
            path="src/repro/shard/rebalance.py",
        )
        assert not ids(findings, "JISC004")

    def test_eviction_outside_allowlist_flagged(self):
        findings = run(
            """
            def f(scan, tup):
                scan.evict(tup)
            """,
            path="src/repro/migration/example.py",
        )
        assert ids(findings, "JISC004")

    def test_window_discard_outside_allowlist_flagged(self):
        findings = run(
            """
            def f(window, tup):
                window.discard(tup)
            """,
            path="src/repro/engine/example.py",
        )
        assert ids(findings, "JISC004")

    def test_shard_package_may_evict(self):
        findings = run(
            """
            def f(scan, window, tup):
                scan.evict(tup)
                window.discard(tup)
            """,
            path="src/repro/shard/executor.py",
        )
        assert not ids(findings, "JISC004")

    def test_operators_and_streams_may_evict(self):
        for path in (
            "src/repro/operators/scan.py",
            "src/repro/streams/window.py",
            "src/repro/eddy/stem.py",
        ):
            findings = run(
                """
                def f(window, tup):
                    window.discard(tup)
                """,
                path=path,
            )
            assert not ids(findings, "JISC004"), path

    def test_set_discard_is_not_an_eviction(self):
        findings = run(
            """
            def f(pending, key):
                pending.discard(key)
            """,
            path="src/repro/migration/example.py",
        )
        assert not ids(findings, "JISC004")


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
# JISC007 — telemetry registration discipline
# ---------------------------------------------------------------------------


class TestTelemetryRegistration:
    def test_factory_in_hot_hook_flagged(self):
        findings = run(
            """
            class Hub:
                def arrival(self, tup):
                    self.registry.counter("arrivals_total", strategy="jisc").inc()
            """
        )
        assert ids(findings, "JISC007")

    def test_factory_in_per_tuple_loop_flagged(self):
        findings = run(
            """
            def drain(registry, tuples):
                for tup in tuples:
                    registry.histogram("latency", stream=tup.stream).observe(1.0)
            """
        )
        assert ids(findings, "JISC007")

    def test_aliased_receiver_flagged(self):
        findings = run(
            """
            class Hub:
                def output(self, tup):
                    reg = self.registry
                    reg.gauge("outputs", strategy="jisc").set(1)
            """
        )
        assert ids(findings, "JISC007")

    def test_factory_in_init_ok(self):
        findings = run(
            """
            class Hub:
                def __init__(self, registry):
                    self.registry = registry
                    self._arrivals = registry.counter("arrivals_total", strategy="jisc")
            """
        )
        assert not ids(findings, "JISC007")

    def test_factory_in_attach_and_register_helpers_ok(self):
        findings = run(
            """
            class Hub:
                def attach(self, target):
                    self._gauge = self.registry.gauge("phase", strategy="jisc")
                    return target

                def _register_stream(self, stream):
                    self.registry.counter("stream_arrivals_total", stream=stream)

                def wire_series(self):
                    self.registry.histogram("lat", n_buckets=64, strategy="jisc")
            """
        )
        assert not ids(findings, "JISC007")

    def test_resolved_instrument_increment_ok(self):
        findings = run(
            """
            class Hub:
                def arrival(self, tup):
                    self._arrivals_total.inc()
            """
        )
        assert not ids(findings, "JISC007")

    def test_module_scope_registration_ok(self):
        findings = run(
            """
            from repro.telemetry.registry import MetricsRegistry

            registry = MetricsRegistry()
            ARRIVALS = registry.counter("arrivals_total", strategy="jisc")
            """
        )
        assert not ids(findings, "JISC007")

    def test_registry_implementation_exempt(self):
        findings = run(
            """
            class MetricsRegistry:
                def histogram_for(self, registry, name):
                    return registry.histogram(name)
            """,
            path="src/repro/telemetry/registry.py",
        )
        assert not ids(findings, "JISC007")

    def test_outside_engine_ok(self):
        findings = run(
            """
            def poke(registry):
                return registry.counter("ad_hoc")
            """,
            path="tests/test_example.py",
        )
        assert not ids(findings, "JISC007")


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_line_suppression_honored(self):
        findings = run(
            """
            def f(state, entry):
                state.add(entry)  # jisclint: disable=JISC004
            """,
            path="src/repro/migration/example.py",
        )
        assert not ids(findings, "JISC004")
        assert not ids(findings, "JISC000")

    def test_file_suppression_honored(self):
        findings = run(
            """
            # jisclint: disable-file=JISC004
            def f(state, entry):
                state.add(entry)

            def g(status):
                status.mark_complete()
            """,
            path="src/repro/migration/example.py",
        )
        assert not findings

    def test_unused_suppression_reported(self):
        findings = run(
            """
            def f():
                return 1  # jisclint: disable=JISC004
            """,
            path="src/repro/migration/example.py",
        )
        assert ids(findings, "JISC000")

    def test_suppression_only_covers_named_rule(self):
        findings = run(
            """
            def f(parent, tup, child):
                parent.process(tup, child)  # jisclint: disable=JISC004
            """
        )
        # JISC005 still fires; the JISC004 suppression is unused.
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
        for rid in ("JISC001", "JISC002", "JISC003", "JISC004", "JISC005", "JISC006"):
            assert rid in registry

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

    def test_render_json_schema(self):
        f = Finding("JISC001", "src/repro/x.py", 3, 7, "wall clock")
        payload = json.loads(render_json([f]))
        assert payload["tool"] == "jisclint"
        assert payload["count"] == 1
        row = payload["findings"][0]
        assert row["rule"] == "JISC001"
        assert row["line"] == 3

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

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["--format", "json", str(tmp_path)]) == EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 0

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
# Benchmark JSON anchoring (satellite: CWD-independent BENCH_*.json)
# ---------------------------------------------------------------------------


class TestBenchAnchoring:
    def test_repo_root_is_anchored_to_file_not_cwd(self):
        from benchmarks import common

        assert os.path.isabs(common.REPO_ROOT)
        assert os.path.isfile(os.path.join(common.REPO_ROOT, "pyproject.toml"))

    def test_emit_json_lands_at_repo_root_from_any_cwd(self, tmp_path, monkeypatch):
        from benchmarks import common

        monkeypatch.chdir(tmp_path)
        name = "_cwd_independence_check"
        expected = os.path.join(common.REPO_ROOT, f"BENCH_{name}.json")
        try:
            common.emit_json(name, {"ok": True})
            assert os.path.isfile(expected)
            assert not os.path.exists(tmp_path / f"BENCH_{name}.json")
            with open(expected) as fh:
                assert json.load(fh)["bench"] == name
        finally:
            if os.path.exists(expected):
                os.remove(expected)


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
# JISC009 — exactly-once WAL discipline
# ---------------------------------------------------------------------------


class TestExactlyOnce:
    def test_wal_without_replay_path_flagged(self):
        findings = run(
            """
            class Engine:
                def process(self, item):
                    self.wal_log.append(item)
                    self.consume(item)
            """
        )
        assert ids(findings, "JISC009")

    def test_replay_delivery_without_dedupe_flagged(self):
        findings = run(
            """
            class Engine:
                def process(self, item):
                    self.wal_log.append(item)

                def recover(self):
                    for item in list(self.wal_log):
                        self.emit(item)
            """
        )
        assert ids(findings, "JISC009")

    def test_dedupe_guarded_replay_ok(self):
        findings = run(
            """
            class Engine:
                def process(self, item):
                    self.wal_log.append(item)

                def recover(self):
                    for item in list(self.wal_log):
                        if item in self._delivered_seen:
                            continue
                        self.emit(item)
            """
        )
        assert not ids(findings, "JISC009")

    def test_muted_replay_primitive_counts_as_dedupe(self):
        findings = run(
            """
            class Engine:
                def process(self, item):
                    self.wal_log.append(item)

                def recover_from_log(self):
                    for item in list(self.wal_log):
                        self.worker.replay(item)
            """
        )
        assert not ids(findings, "JISC009")

    def test_audit_trail_logs_carry_no_obligation(self):
        findings = run(
            """
            class Query:
                def process(self, proposal):
                    self.transition_log.append(proposal)
            """
        )
        assert not ids(findings, "JISC009")

    def test_wal_append_off_arrival_path_ok(self):
        findings = run(
            """
            class Engine:
                def debug_dump(self, item):
                    self.wal_log.append(item)
            """
        )
        assert not ids(findings, "JISC009")


# ---------------------------------------------------------------------------
# JISC010 — handle typestate
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


class TestBaseline:
    def make_findings(self):
        return run(
            """
            class Op:
                def flush(self):
                    pending = {1, 2}
                    for item in pending:
                        self.emit(item)
            """
        )

    def test_baseline_roundtrip_accepts_known_findings(self):
        from repro.lint.baseline import apply_baseline, render_baseline, load_baseline
        import tempfile

        findings = self.make_findings()
        assert findings
        payload = render_baseline(findings)
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            fh.write(payload)
            path = fh.name
        try:
            baseline = load_baseline(path)
            result = apply_baseline(findings, baseline)
            assert not result.new
            assert len(result.accepted) == len(findings)
            assert not result.stale
        finally:
            os.remove(path)

    def test_baseline_is_line_independent(self):
        from repro.lint.baseline import apply_baseline, finding_key

        findings = self.make_findings()
        baseline = {finding_key(f): 1 for f in findings}
        shifted = [
            Finding(f.rule_id, f.path, f.line + 40, f.col, f.message)
            for f in findings
        ]
        result = apply_baseline(shifted, baseline)
        assert not result.new

    def test_baseline_refuses_protected_trees(self):
        from repro.lint.baseline import BaselineError, render_baseline
        import pytest

        bad = [Finding("JISC008", "src/repro/migration/base.py", 1, 1, "m")]
        with pytest.raises(BaselineError):
            render_baseline(bad)

    def test_unused_suppression_not_maskable_by_baseline(self):
        # JISC000 findings go through the baseline like any other finding —
        # but baselining them is self-defeating: the entry matches on the
        # message (which names line/rule), so once the stale comment is
        # removed the baseline entry itself turns stale and is reported.
        from repro.lint.baseline import apply_baseline, finding_key

        findings = run(
            """
            def f():  # jisclint: disable=JISC008
                return 1
            """
        )
        assert ids(findings, "JISC000")
        baseline = {finding_key(f): 1 for f in findings}
        clean = run(
            """
            def f():
                return 1
            """
        )
        result = apply_baseline(clean, baseline)
        assert not result.new
        assert result.stale  # the baselined JISC000 entry is now dead weight


class TestReporterStability:
    def test_output_identical_across_hash_seeds(self, tmp_path):
        # rule iteration, finding sort, and JSON rendering must not leak
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
                [sys.executable, "-m", "repro.lint", "--format", "json", str(bad)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == EXIT_FINDINGS
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestSarif:
    def test_sarif_log_structure(self, tmp_path):
        from repro.lint.reporters import render_sarif

        findings = [
            Finding("JISC008", "src/repro/engine/x.py", 3, 1, "boom"),
        ]
        log = json.loads(render_sarif(findings))
        assert log["version"] == "2.1.0"
        (sarif_run,) = log["runs"]
        assert sarif_run["tool"]["driver"]["name"] == "jisclint"
        rule_ids = [r["id"] for r in sarif_run["tool"]["driver"]["rules"]]
        assert "JISC008" in rule_ids and "JISC010" in rule_ids
        (result,) = sarif_run["results"]
        assert result["ruleId"] == "JISC008"
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/repro/engine/x.py"
        assert loc["region"]["startLine"] == 3

    def test_cli_writes_sarif_file(self, tmp_path):
        clean = tmp_path / "pkg"
        clean.mkdir()
        (clean / "ok.py").write_text("x = 1\n")
        out = tmp_path / "out.sarif"
        code = main([str(clean), "--sarif", str(out)])
        assert code == EXIT_CLEAN
        log = json.loads(out.read_text())
        assert log["runs"][0]["results"] == []


class TestCliV2:
    def test_self_check_passes(self, capsys):
        assert main(["--self-check"]) == EXIT_CLEAN
        assert "self-check: passed" in capsys.readouterr().out

    def test_write_baseline_requires_path(self, capsys):
        assert main(["--write-baseline"]) == EXIT_USAGE

    def test_baseline_flow_end_to_end(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro" / "engine"
        pkg.mkdir(parents=True)
        (pkg / "ex.py").write_text(
            textwrap.dedent(
                """
                class Op:
                    def flush(self):
                        pending = {1, 2}
                        for item in pending:
                            self.emit(item)
                """
            )
        )
        baseline = tmp_path / "base.json"
        # 1. dirty tree fails
        assert main([str(tmp_path)]) == EXIT_FINDINGS
        # 2. adopt the baseline
        assert main([str(tmp_path), "--baseline", str(baseline), "--write-baseline"]) == EXIT_CLEAN
        # 3. same tree is now accepted
        assert main([str(tmp_path), "--baseline", str(baseline)]) == EXIT_CLEAN
        # 4. a NEW finding still fails
        (pkg / "new.py").write_text("import time\n\ndef f():\n    return time.time()\n")
        assert main([str(tmp_path), "--baseline", str(baseline)]) == EXIT_FINDINGS

    def test_malformed_baseline_exits_two(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        baseline.write_text("{not json")
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "ok.py").write_text("x = 1\n")
        assert main([str(pkg), "--baseline", str(baseline)]) == EXIT_USAGE

    def test_protected_tree_baseline_exits_two(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        baseline.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {
                            "rule": "JISC004",
                            "path": "src/repro/shard/worker.py",
                            "message": "grandfathered",
                        }
                    ],
                }
            )
        )
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "ok.py").write_text("x = 1\n")
        assert main([str(pkg), "--baseline", str(baseline)]) == EXIT_USAGE

    def test_repo_baseline_file_is_valid_and_empty(self):
        from repro.lint.baseline import load_baseline

        assert load_baseline(".jisclint-baseline.json") == {}

    def test_no_program_flag_skips_program_pass(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "ok.py").write_text("x = 1\n")
        assert main([str(pkg), "--no-program"]) == EXIT_CLEAN

    def test_callgraph_cache_created_and_reused(self, tmp_path):
        cache = tmp_path / "cg.json"
        assert main(["src/repro/migration", "--callgraph-cache", str(cache)]) == EXIT_CLEAN
        assert cache.exists()
        first = cache.read_text()
        assert main(["src/repro/migration", "--callgraph-cache", str(cache)]) == EXIT_CLEAN
        assert cache.read_text() == first
