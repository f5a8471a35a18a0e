"""The summary that ``tools/ab_pairs.py`` prints after an A/B run."""
import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "ab_pairs", Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


def _metric(parent: float, change: float, won: int, better="lower", bound=0.1) -> dict:
    return {"better": better, "bound": bound, "change_vs_parent": change / parent - 1,
            "pairs_won_by_change": won}


def test_pass_counts_come_before_the_metric_lines():
    # the change runs more passes, so its peak_rss_mb reads higher
    out = {"pairs": 3, "correct": {"parent": True, "change": True},
           "untraced_passes": {"parent": [16, 17, 15], "change": [20, None, 19]},
           "metrics": {"run_s": _metric(1.0, 0.9, 3),
                       "peak_rss_mb": _metric(20.0, 22.4, 0)}}
    assert ab_pairs.summary_lines("swarm100", out) == [
        "swarm100 untraced passes: parent median 16, change median 19.5, "
        "change/parent 1.219",
        "swarm100 run_s: change vs parent -10.0%, pairs won 3/3 (lower is better)",
        "swarm100 peak_rss_mb: change vs parent +12.0%, pairs won 0/3 "
        "(lower is better) BEYOND BOUND 10%",
    ]


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
