"""``tools/benchpairs.py``: the aggregation of before/after result JSONs."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "benchpairs.py"
_spec = importlib.util.spec_from_file_location("benchpairs", _TOOL)
benchpairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpairs)

SPEC = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "train_tokens_per_s", "unit": "tokens/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},  # measured by no run
]}


def _result(slowdown, wall_s, tokens, correct=True, failed=0):
    """A result JSON as ``bench/run.py`` writes one, cut to what is read."""
    return {"correct": correct, "failed": failed, "attempted": 10,
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                        "train_tokens_per_s": {"value": tokens, "unit": "tokens/s"}},
            "samples": {"host_slowdown": {"samples": 50, "p5": 0.9, "p50": slowdown, "p95": 1.2}}}


PAIRS = {"train-p200": [
    (_result(1.00, 10.0, 100.0), _result(1.01, 9.0, 90.0)),
    (_result(1.02, 12.0, 110.0), _result(0.99, 10.0, 60.0)),
    (_result(1.00, 11.0, 120.0), _result(1.90, 13.0, 70.0, correct=False, failed=2)),  # a stalled host
    (_result(1.00, 11.0, 115.0), {}),  # the change's run left no result
]}


def test_aggregate_medians_pair_signs_bounds_and_flags():
    w = benchpairs.aggregate(SPEC, PAIRS)["train-p200"]
    assert set(w["metrics"]) == {"wall_s", "train_tokens_per_s"}
    wall, tokens = w["metrics"]["wall_s"], w["metrics"]["train_tokens_per_s"]
    # medians and IQRs over the pairs where both sides measured
    assert wall["base"] == {"median": 11.0, "iqr": pytest.approx(1.0)}
    assert wall["change"] == {"median": 10.0, "iqr": pytest.approx(2.0)}
    assert tokens["base"]["median"] == 110.0 and tokens["change"]["median"] == 70.0
    # change over base, minus 1, for each pair; lower wall time and higher throughput improve
    assert wall["pair_changes"] == pytest.approx([-0.1, 10 / 12 - 1, 13 / 11 - 1])
    assert (wall["improved"], wall["pairs"]) == (2, 3)
    assert (tokens["improved"], tokens["pairs"]) == (0, 3)
    assert wall["median_change"] == pytest.approx(10 / 11 - 1) and wall["within_bound"]
    assert tokens["median_change"] == pytest.approx(70 / 110 - 1) and not tokens["within_bound"]  # 36% < -25%
    assert wall["bound"] == 0.2 and tokens["better"] == "higher"
    # every run's verdict is kept, and a missing result counts as not correct
    assert w["base"] == {"correct": True, "failed": 0, "runs": 4}
    assert w["change"] == {"correct": False, "failed": 2, "runs": 4}
    assert w["runs"][2]["change"] == {"correct": False, "failed": 2, "attempted": 10, "host_slowdown_p50": 1.90}
    assert w["runs"][3]["change"]["correct"] is False
    # the stalled run is flagged, not dropped: its pair still counts above
    assert w["flagged"] == [{"pair": 2, "side": "change", "host_slowdown_p50": 1.90}]


def test_table_names_each_verdict():
    text = benchpairs.table(benchpairs.aggregate(SPEC, PAIRS))
    wall = next(line for line in text.splitlines() if line.strip().startswith("wall_s"))
    tokens = next(line for line in text.splitlines() if line.strip().startswith("train_tokens_per_s"))
    assert wall.endswith("ok") and "-9.09%" in wall and "2 of 3" in wall
    assert tokens.endswith("WORSE") and "-36.36%" in tokens
    assert "1 runs flagged" in text


def test_equal_sides_flag_nothing():
    same = [(_result(1.0, 10.0, 100.0), _result(1.0, 10.0, 100.0)) for _ in range(3)]
    w = benchpairs.aggregate(SPEC, {"query-p200": same})["query-p200"]
    assert w["flagged"] == [] and w["metrics"]["wall_s"]["median_change"] == 0.0
    assert w["metrics"]["wall_s"]["improved"] == 0 and w["metrics"]["wall_s"]["within_bound"]


def test_uncommitted_changes_count_only_measured_paths(monkeypatch):
    # ``git status --porcelain`` of a checkout, cut to the pathspecs asked for
    status = {"ROADMAP.md": " M ROADMAP.md", "src": " M src/eqvec/tex.py", "bench": "?? bench/new.py"}

    def git(*args):
        assert args[:3] == ("status", "--porcelain", "--")
        return "\n".join(status[p] for p in args[3:] if p in status)

    monkeypatch.setattr(benchpairs, "_git", git)
    assert benchpairs.uncommitted_changes()
    del status["src"], status["bench"]
    assert not benchpairs.uncommitted_changes()  # a documentation edit alone
    status["BENCHMARK.json"] = " M BENCHMARK.json"
    assert benchpairs.uncommitted_changes()
