"""Tests for the migration-timeline report over JSONL traces."""

import pytest

from repro.migration.jisc import JISCStrategy
from repro.migration.moving_state import MovingStateStrategy
from repro.migration.parallel_track import ParallelTrackStrategy
from repro.obs.report import main, render_report, timeline
from repro.obs.tracer import RecordingTracer
from repro.workloads.scenarios import chain_scenario, swap_for_case


def traced_run(cls, **kwargs):
    sc = chain_scenario(3, 900, 25, key_domain=30, seed=7)
    strategy = cls(sc.schema, sc.order, **kwargs)
    tracer = RecordingTracer()
    tracer.attach(strategy)
    for tup in sc.tuples[:450]:
        strategy.process(tup)
    strategy.transition(swap_for_case(sc.order, "worst"))
    for tup in sc.tuples[450:]:
        strategy.process(tup)
    return strategy, tracer


@pytest.fixture(scope="module")
def jisc_trace():
    _, tracer = traced_run(JISCStrategy)
    return tracer.as_trace()


@pytest.fixture(scope="module")
def ms_trace():
    _, tracer = traced_run(MovingStateStrategy)
    return tracer.as_trace()


def test_timeline_finds_the_transition(jisc_trace):
    rows = timeline(jisc_trace)
    assert len(rows) == 1
    row = rows[0]
    assert row["strategy"] == "jisc"
    assert row["seq"] == 450
    assert row["end"] >= row["start"]
    assert row["stall"] is not None and row["stall"] > 0


def test_jisc_timeline_shows_lazy_completion(jisc_trace):
    row = timeline(jisc_trace)[0]
    # JISC: the transition itself is free; the work shows up as lazy
    # completions afterwards.
    assert row["transition_cost"] == 0.0
    assert row["completed_values"] > 0
    assert row["completion_cost"] > 0


def test_moving_state_pays_upfront_and_stalls_longer(jisc_trace, ms_trace):
    jisc_row = timeline(jisc_trace)[0]
    ms_row = timeline(ms_trace)[0]
    assert ms_row["transition_cost"] > 0
    assert ms_row["completed_values"] == 0
    # Figure 10's signature: the eager rebuild blocks output visibly
    # longer than JISC's lazy completion does.
    assert ms_row["stall"] > jisc_row["stall"]


def test_parallel_track_timeline_marks_old_plan_discard():
    _, tracer = traced_run(ParallelTrackStrategy, purge_check_interval=4)
    row = timeline(tracer.as_trace())[0]
    assert row["migration_end"] is not None
    assert row["migration_end"] >= row["start"]


def test_render_report_mentions_the_key_signals(jisc_trace):
    text = render_report(jisc_trace, title="jisc")
    assert "== jisc ==" in text
    assert "per-phase operation totals" in text
    assert "output latency" in text
    assert "migration timeline: 1 transition(s)" in text
    assert "lazily completed" in text
    assert "steady" in text and "completing" in text
    # no truncation happened, so the drop note must be absent
    assert "dropped by the ring buffer" not in text


def test_render_report_on_empty_trace():
    text = render_report(RecordingTracer().as_trace())
    assert "0 events" in text
    assert "migration timeline: 0 transition(s)" in text


def test_cli_renders_exported_trace(tmp_path, capsys):
    _, tracer = traced_run(JISCStrategy)
    path = tmp_path / "jisc.jsonl"
    tracer.export_jsonl(str(path))
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert str(path) in out
    assert "migration timeline" in out


def test_cli_usage_paths(capsys):
    assert main([]) == 2
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_cli_reports_bad_inputs_cleanly(tmp_path, capsys):
    assert main([str(tmp_path / "missing.jsonl")]) == 1
    assert "error: cannot read" in capsys.readouterr().err
    garbage = tmp_path / "garbage.jsonl"
    garbage.write_text("not json at all\n")
    assert main([str(garbage)]) == 1
    assert "not a JSONL trace" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, says",
    [('{"kind": "output"}', "line 2: 'output' event without 'ts'"),
     ('{"ts": 1.0}', "line 2: not a trace event"),
     ("[1, 2]", "line 2: not a trace event")],
)
def test_cli_names_the_line_of_an_event_it_cannot_read(tmp_path, capsys, line, says):
    """A line without ``ts`` or ``kind`` is one ``error:`` line naming it, not a
    traceback (``parse_jsonl`` raises ``ValueError``)."""
    path = tmp_path / "cut.jsonl"
    path.write_text('{"ts": 0.0, "kind": "note", "what": "x"}\n' + line + "\n")
    assert main([str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and says in err[0]


def test_render_report_trigger_timeline():
    # Adaptive trigger events flow through the same tracer seam; the
    # report must show fired/suppressed decisions with their cost gap.
    tracer = RecordingTracer()
    tracer.trigger("evaluated", reason="warming_up", at=64)
    tracer.trigger(
        "fired",
        reason="hysteresis",
        at=128,
        current_cost=1.8,
        best_cost=1.2,
        best_order=["A", "C", "B"],
    )
    tracer.trigger(
        "suppressed",
        reason="migration_cost",
        at=192,
        current_cost=1.7,
        best_cost=1.3,
        migration_cost=500.0,
        projected_savings=120.0,
    )
    text = render_report(tracer.as_trace())
    assert "adaptive trigger timeline: 3 evaluation(s), 1 fired, 1 suppressed" in text
    assert "fired (hysteresis) at arrival 128" in text
    assert "new order A-C-B" in text
    assert "migration cost 500.0 vs projected savings 120.0" in text
    # Steady-state evaluations are summarized, not itemized.
    assert "warming_up" not in text
