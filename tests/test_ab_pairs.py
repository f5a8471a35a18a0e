"""The summary that ``tools/ab_pairs.py`` prints after an A/B run."""
import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab_pairs", Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


def _metric(parent: list, change: list, better="lower", bound=0.1) -> dict:
    """``compare`` over the two sides' runs of one metric, paired in order."""
    runs = {side: [{"metrics": {"m": {"value": v}}} for v in values]
            for side, values in (("parent", parent), ("change", change))}
    return ab_pairs.compare({"name": "m", "unit": "s", "better": better, "bound": bound}, runs)


def test_pass_counts_come_before_the_metric_lines():
    # the change runs more passes, so its peak_rss_mb reads higher
    out = {"pairs": 3, "correct": {"parent": True, "change": True},
           "untraced_passes": {"parent": [16, 17, 15], "change": [20, None, 19]},
           "metrics": {"run_s": _metric([1.0] * 3, [0.9] * 3),
                       "peak_rss_mb": _metric([20.0] * 3, [22.4] * 3)}}
    assert ab_pairs.summary_lines("swarm100", out) == [
        "swarm100 untraced passes: parent median 16, change median 19.5, "
        "change/parent 1.219",
        "swarm100 run_s: change vs parent -10.0%, pairs won 3/3 (lower is better), "
        "beyond the parent's quartile spread, gain holds",
        "swarm100 peak_rss_mb: change vs parent +12.0%, pairs won 0/3 "
        "(lower is better), beyond the parent's quartile spread BEYOND BOUND 10%",
    ]


# ten parent runs with quartiles 98 and 102 (statistics.quantiles, n=4): a
# spread of 4 around a median of 100
PARENT = [97, 98, 98, 99, 100, 100, 101, 102, 102, 103]


@pytest.mark.parametrize("change, better, reading", [
    # a median 10 lower, 9 of 10 pairs won
    ([90] * 9 + [110], "lower", "beyond the parent's quartile spread, gain holds"),
    # the same move, 8 of 10 pairs won
    ([90] * 8 + [110] * 2, "lower", "beyond the parent's quartile spread"),
    # every pair won, but the median moved 3, inside the spread
    ([v - 3 for v in PARENT], "lower", "within the parent's quartile spread"),
    # the move equal to the spread is not beyond it
    ([v - 4 for v in PARENT], "lower", "within the parent's quartile spread"),
    # higher is better: a higher median that wins 10 of 10 pairs
    ([v + 10 for v in PARENT], "higher", "beyond the parent's quartile spread, gain holds"),
    # and the same runs read as a loss when lower is better
    ([v + 10 for v in PARENT], "lower", "beyond the parent's quartile spread"),
], ids=["holds", "8-of-10", "within-spread", "at-spread", "higher-holds", "worse"])
def test_a_gain_holds_only_beyond_the_spread_and_with_9_of_10_pairs(change, better, reading):
    assert ab_pairs.verdict(_metric(PARENT, change, better), 10) == reading


def test_a_metric_whose_parent_spreads_past_its_bound_is_unresolved():
    # the parent's quartiles 98 and 102 span 4% of its median, past a 3%
    # bound; overlapping runs leave the metric unresolved
    assert ab_pairs.verdict(_metric(PARENT, PARENT, bound=0.03), 10) == (
        "within the parent's quartile spread, UNRESOLVED, parent spread 4.0% over bound 3%")
    assert "UNRESOLVED" not in ab_pairs.verdict(_metric(PARENT, PARENT, bound=0.05), 10)
    # unless every change run beats every parent run, in either direction
    assert "UNRESOLVED" not in ab_pairs.verdict(
        _metric(PARENT, [v - 7 for v in PARENT], bound=0.03), 10)
    assert "UNRESOLVED" not in ab_pairs.verdict(
        _metric(PARENT, [v + 7 for v in PARENT], "higher", bound=0.03), 10)
    assert "UNRESOLVED" in ab_pairs.verdict(
        _metric(PARENT, [v + 7 for v in PARENT], "lower", bound=0.03), 10)


def test_an_incorrect_side_is_not_compared_and_unknown_counts_read_na():
    out = {"pairs": 1, "correct": {"parent": True, "change": False},
           "untraced_passes": {"parent": [None], "change": [4]}}
    assert ab_pairs.summary_lines("video_fifo", out) == [
        "video_fifo untraced passes: parent median n/a, change median 4, change/parent n/a",
        "video_fifo: not compared, a run was incorrect ({'parent': True, 'change': False})",
    ]


def _record_seconds(monkeypatch, tmp_path, argv):
    """Run ``main`` on a checkout whose BENCHMARK.json asks for 30 s runs,
    with ``ab_workload`` stubbed; returns the run length each workload got
    and the file's description of the runs."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 30, "workloads": [{"name": "w"}], "end_to_end": []}))
    seen = []

    def workload(checkouts, name, seeds, seconds, metrics):
        seen.append(seconds)
        return {"pairs": len(seeds), "correct": {"parent": True, "change": True},
                "untraced_passes": {"parent": [None], "change": [None]}, "metrics": {}}

    monkeypatch.setattr(ab_pairs, "ab_workload", workload)
    out = tmp_path / "bench.json"
    assert ab_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                          "--out", str(out), "--pairs", "1", *argv]) == 0
    return seen, json.loads(out.read_text())["workload_runs"]


def test_runs_last_the_benchmarks_run_seconds_unless_told_otherwise(monkeypatch, tmp_path):
    # peak_rss_mb grows with the pass count, so runs default to the length
    # the benchmark itself runs
    seen, runs = _record_seconds(monkeypatch, tmp_path, [])
    assert seen == [30] and "--seconds 30 " in runs
    seen, runs = _record_seconds(monkeypatch, tmp_path, ["--seconds", "4"])
    assert seen == [4] and "--seconds 4 " in runs


def test_the_repositorys_benchmark_names_its_run_length():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert spec["run_seconds"] > 0
