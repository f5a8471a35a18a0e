"""Emission: the CSV rows, the report and the run summary the CLI prints,
and docs/output-format.md against the rows a run emits."""
import json
import re
from pathlib import Path

import pytest

from swarmsim import output, runner
from swarmsim.cli import main
from swarmsim.config import load_config, parse_config
from swarmsim.output import CSV_HEADER, emit_csv, emit_report, rows, run_summary
from swarmsim.runner import run_scenario

OUTPUT_DOC = Path(__file__).resolve().parents[1] / "docs" / "output-format.md"
SHORT_MISSION = {"session_duration_s": 120, "n_sessions": 2, "reposition_s": 60,
                 "transit_distance_m": 100}
# every SD escalates a case at 150 s and two of them call, so all three
# access classes carry traffic
VIDEO_RUN = {"name": "video", "duration_s": 430, "n_sds": 4, "infection_rate": 1.0,
             "video": {"enabled": True, "forced_calls": 2, "call_duration_s": 30},
             "mission": SHORT_MISSION}
# the leader dies in flight, so the run records a recovery time
FAILOVER_RUN = {"name": "failover", "duration_s": 430, "n_sds": 6, "infection_rate": 0.0,
                "mission": SHORT_MISSION,
                "failures": [{"kind": "ld_sudden", "at_s": 40.0}]}
# the SD dies before the mission's only failure targets it again
UNAPPLIED_FAILURE_RUN = {"name": "unapplied", "duration_s": 430, "n_sds": 4,
                         "infection_rate": 0.0, "mission": SHORT_MISSION,
                         "failures": [{"kind": "sd_sudden", "drone_id": 2, "at_s": 95.0},
                                      {"kind": "sd_sudden", "drone_id": 2, "at_s": 96.0}]}


def small_scenario():
    """A fast two-session mission of six SDs and four targets."""
    return parse_config({"name": "small", "seed": 11, "duration_s": 430, "n_sds": 6,
                         "profile": 2, "infection_rate": 0.0,
                         "mission": {**SHORT_MISSION, "n_targets": 4}}, name="small")


class TestEmission:
    def test_csv_has_fixed_header_and_metric_rows(self, tmp_path):
        result = run_scenario(small_scenario())
        path = emit_csv([result], tmp_path / "out.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        cells = [line.split(",") for line in lines[1:]]
        assert all(len(c) == 7 for c in cells)
        seen = {(c[2], c[3]) for c in cells}
        for link in ("wlan", "wimax_ul", "wimax_dl"):
            assert (link, "offered_pkts") in seen
            assert (link, "loss_ratio") in seen

    def test_report_mentions_runs_and_durability(self, tmp_path):
        result = run_scenario(small_scenario())
        text = emit_report([result], tmp_path / "r.txt").read_text(encoding="utf-8")
        assert "run small" in text
        assert "drone battery (LD)" in text
        assert "system limit" in text

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = small_scenario()
        a = emit_csv([run_scenario(cfg)], tmp_path / "a.csv").read_bytes()
        b = emit_csv([run_scenario(cfg)], tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_replay_from_config_echo_is_byte_identical(self, tmp_path):
        result = run_scenario(small_scenario())
        first = emit_csv([result], tmp_path / "first.csv").read_bytes()
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(result.config), encoding="utf-8")
        replayed = run_scenario(load_config(echo))
        second = emit_csv([replayed], tmp_path / "second.csv").read_bytes()
        assert first == second


class TestRowsAndSummary:
    def test_runner_reexports_the_emitters(self):
        assert runner.emit_csv is output.emit_csv
        assert runner.emit_report is output.emit_report

    def test_csv_lines_are_the_rows_with_run_id_and_seed(self, tmp_path):
        result = run_scenario(small_scenario())
        lines = emit_csv([result], tmp_path / "out.csv").read_text(
            encoding="utf-8").splitlines()
        records = rows(result)
        assert len(lines) == 1 + len(records)
        for line, (link, metric, cls, _, unit) in zip(lines[1:], records):
            run_id, seed, *cells = line.split(",")
            assert (run_id, seed) == ("small#11", "11")
            assert cells[:3] + cells[4:] == [link, metric, cls, unit]

    def test_report_is_the_run_summaries_then_durability(self, tmp_path):
        results = [run_scenario(small_scenario()),
                   run_scenario(parse_config(FAILOVER_RUN))]
        text = emit_report(results, tmp_path / "r.txt").read_text(encoding="utf-8")
        blocks = text.split("\n\n")
        assert blocks[:2] == [run_summary(r) for r in results]
        assert blocks[2].startswith("battery durability (defaults)\n")

    def test_cli_prints_the_run_summary_with_its_deviations(self, tmp_path, capsys):
        path = tmp_path / "unapplied.json"
        path.write_text(json.dumps(UNAPPLIED_FAILURE_RUN), encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert ("  deviation: t=96000000us sd_sudden of drone 2 not applied: "
                "drone is not alive") in out.splitlines()
        result = run_scenario(parse_config(UNAPPLIED_FAILURE_RUN))
        assert out.startswith(run_summary(result) + "\n")


def documented_rows() -> set[tuple[str, str, str, str]]:
    """(link, metric, class, unit) of every row of the doc's CSV table."""
    documented = set()
    columns = None
    for line in OUTPUT_DOC.read_text(encoding="utf-8").splitlines():
        if not line.startswith("|"):
            columns = None
            continue
        cells = [c.strip().strip("`") for c in line.strip("|").split("|")]
        if columns is None:
            columns = cells
        elif columns[:4] == ["link", "metric", "class", "unit"] and set(cells[0]) != {"-"}:
            documented.add(tuple(cells[:4]))
    return documented


def emitted_rows(config: dict) -> set[tuple[str, str, str, str]]:
    """(link, metric, class, unit) of every row a run of ``config`` emits,
    with link and class named as the doc names them."""
    emitted = set()
    for link, metric, cls, _, unit in rows(run_scenario(parse_config(config))):
        if link not in ("swarm", "energy"):
            link = "<link>"
        if re.fullmatch(r"sample\d+", cls):
            cls = "sample<i>"
        elif re.fullmatch(r"drone\d+", cls):
            cls = "drone<id>"
        elif cls != "all":
            cls = "<class>"
        emitted.add((link, metric, cls, unit))
    return emitted


@pytest.mark.parametrize("config", [VIDEO_RUN, FAILOVER_RUN], ids=["video", "failover"])
def test_every_emitted_row_is_documented(config):
    assert emitted_rows(config) - documented_rows() == set()


def test_the_two_runs_emit_every_documented_row():
    emitted = emitted_rows(VIDEO_RUN) | emitted_rows(FAILOVER_RUN)
    assert documented_rows() - emitted == set()
