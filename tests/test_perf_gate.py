"""The one performance gate: ``BENCH_calls.json`` against a fresh build
(``python -m repro.perf.regress``, ROADMAP item 8).

Counts, compared for equality — so the gate gives the same verdict twice:
two builds in one process are equal, a seeded extra frame is a mismatch that
says where, and what the committed file claims (Figure 9 a call for call, a
hub that changes nothing) is read from the file itself.
"""

import json
import os

import pytest

import repro.engine.metrics
from benchmarks import bench_calls
from benchmarks.bench_calls import call_counts, hub_calls, rows
from benchmarks.common import REPO_ROOT
from repro.engine.metrics import Metrics
from repro.perf import regress

pytestmark = pytest.mark.hashseed

SCALE = 0.04  # 1 020 arrivals on the steady shape: every path, a few seconds


@pytest.fixture(scope="module")
def committed():
    with open(os.path.join(REPO_ROOT, "BENCH_calls.json")) as fh:
        return json.load(fh)["data"]


def test_two_builds_in_one_process_are_equal():
    first, second = bench_calls.run(SCALE), bench_calls.run(SCALE)
    assert regress.compare(first, second) == []
    assert first == second
    assert [(shape, strategy) for shape, strategy, _ in rows(first)] == [
        (shape, strategy) for shape, strategies in bench_calls.SHAPES.items() for strategy in strategies
    ]
    for shape, strategy, row in rows(first):
        ints = [row["arrivals"], row["kept_objects"], row["outputs"], *row["calls"].values()]
        assert all(type(n) is int for n in ints), (shape, strategy)
        assert row["calls"]["operators"] > row["arrivals"] and row["kept_objects"] > 0


def test_an_extra_named_frame_is_a_mismatch_that_names_shape_strategy_and_package(monkeypatch):
    def payload():
        return {"shapes": {"steady": {"jisc": call_counts("steady", "jisc", SCALE)}}}

    clean = payload()
    # ``Metrics.count_pipeline`` behind one more frame, compiled as if
    # ``engine/metrics.py`` held it (a wrapper in this file is not under ``repro/``)
    namespace = {"inner": Metrics.count_pipeline}
    source = "def count_pipeline(self, *tallies):\n    return inner(self, *tallies)\n"
    exec(compile(source, repro.engine.metrics.__file__, "exec"), namespace)
    monkeypatch.setattr(Metrics, "count_pipeline", namespace["count_pipeline"])
    mismatches = regress.compare(payload(), clean)
    row = clean["shapes"]["steady"]["jisc"]
    # one hand-over per arrival after the plan's first (the generic path's), so
    # one more frame for each — and nowhere else
    assert mismatches[0] == (
        f".shapes.steady.jisc.calls.engine: {row['calls']['engine'] + row['arrivals'] - 1} "
        f"vs {row['calls']['engine']}"
    )
    assert [m.split(":")[0] for m in mismatches] == [
        ".shapes.steady.jisc.calls.engine",
        ".shapes.steady.jisc.observed.calls.engine",
    ]


def test_a_package_that_appears_is_named_too():
    base = {"shapes": {"migrate": {"jisc": {"calls": {"core": 3, "engine": 5}}}}}
    fresh = {"shapes": {"migrate": {"jisc": {"calls": {"core": 3, "engine": 5, "shard": 1}}}}}
    assert regress.compare(fresh, base) == [
        ".shapes.migrate.jisc.calls: key sets differ: ['shard']"
    ]


def test_another_python_minor_is_a_loud_mismatch_not_a_silent_pass(committed):
    elsewhere = {**committed, "python": "3.99"}
    assert regress.compare(elsewhere, committed) == [f".python: '3.99' vs {committed['python']!r}"]


def test_figure_9a_call_for_call_from_the_committed_file(committed):
    steady = committed["shapes"]["steady"]
    assert steady["jisc"]["calls"] == steady["static"]["calls"]
    assert steady["jisc"]["ops"] == steady["static"]["ops"]
    assert steady["jisc"]["kept_objects"] == steady["static"]["kept_objects"]
    assert set(steady) == set(committed["shapes"]["migrate"]) == set(bench_calls.SHAPES["steady"])
    # what a transition every 100 arrivals costs JISC is in ``core``, which a
    # steady arrival never enters
    assert "core" not in steady["jisc"]["calls"]
    assert committed["shapes"]["migrate"]["jisc"]["calls"]["core"] > 0


def test_the_hub_changes_nothing_in_any_committed_row(committed):
    observed = [(shape, strategy, row["observed"]) for shape, strategy, row in rows(committed) if "observed" in row]
    assert len(observed) == sum(map(len, bench_calls.SHAPES.values())) - 1  # adaptive: the hub is the engine's
    for shape, strategy, twin in observed:
        assert twin["ops_identical"] is True and twin["outputs_identical"] is True, (shape, strategy)
        assert twin["series"] > 0 and hub_calls(twin) > 0
    assert "telemetry" in committed["shapes"]["adaptive"]["jisc"]["calls"]


def test_the_identity_shapes_carry_the_numbers_of_the_file_they_replace(committed):
    """``BENCH_telemetry_overhead.json``'s deterministic half, unchanged —
    but ``series``, which that file counted as the instruments registered by
    the end of the run (137 and 197, unsynced), is now the key count of the
    hub's series view at the end of the run."""
    fig7 = committed["shapes"]["fig7_shape"]["jisc"]
    assert (fig7["arrivals"], fig7["outputs"], fig7["observed"]["series"]) == (6_250, 8_808, 172)
    assert fig7["ops"] == {
        "completion_probe": 2,
        "hash_insert": 51_413,
        "hash_probe": 50_109,
        "output": 8_808,
        "state_remove": 49_709,
        "tuple_emit": 51_125,
    }
    fig9 = committed["shapes"]["fig9_shape"]["jisc"]
    assert (fig9["arrivals"], fig9["outputs"], fig9["observed"]["series"]) == (12_000, 0, 244)
    assert fig9["ops"] == {
        "hash_insert": 38_706,
        "hash_probe": 51_662,
        "state_remove": 36_703,
        "tuple_emit": 38_706,
    }


def test_regress_has_one_check_and_two_flags(committed, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(regress, "FIGURES", {"calls": lambda: committed})
    report = tmp_path / "report.json"
    assert regress.main(["--check", "--report", str(report)]) == 0
    assert "calls                        OK" in capsys.readouterr().out
    assert json.loads(report.read_text()) == {
        "counts": {
            "calls": {"mismatches": [], "ok": True},
            **{
                stem: {"mismatches": [], "ok": True, "skipped": True}
                for stem in regress.discover_baselines(REPO_ROOT)[1]
            },
        },
        "ok": True,
    }
    moved = json.loads(json.dumps(committed))
    moved["shapes"]["sharded"]["jisc"]["calls"]["shard"] += 1
    monkeypatch.setattr(regress, "FIGURES", {"calls": lambda: moved})
    assert regress.main(["--check"]) == 1
    assert ".shapes.sharded.jisc.calls.shard" in capsys.readouterr().out
    assert regress.main([]) == 0  # without --check a mismatch is reported, not fatal
    for gone in ("--skip-counts", "--skip-timing", "--skip-telemetry", "--max-telemetry-overhead=0.1"):
        with pytest.raises(SystemExit):
            regress.main([gone])
