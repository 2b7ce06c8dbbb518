"""``benchmarks/common.py``: the repo root and ``BENCH_*.json`` do not
depend on the working directory a benchmark is started from."""

import json
import os


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
