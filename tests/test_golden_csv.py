"""Golden CSV digests: the emitted metrics bytes of fixed configs are pinned.

A performance change to the event loop, the links or the metrics must not
move a single output byte. Each case runs a bundled preset (optionally with
shortened video calls and a chosen WLAN service discipline) and compares
the SHA-256 of the ``emit_csv`` output with the digest recorded before the
hot-path optimisations. A deliberate output change updates these digests
and says why in CHANGES.md.

Two cases drive the control plane rather than the video path: a mission
whose leader dies in flight, so the flight watchdog hands over, and a
100-SD swarm. The dispatched-event counts of one preset and of these two
train-heavy cases are pinned as well, which catches a periodic series or
a train that drops or repeats a slot even where the CSV would not show it.
"""
import hashlib
import json
from importlib import resources

import pytest

from swarmsim.config import parse_config
from swarmsim.runner import _Mission, emit_csv, run_scenario


def _preset(name: str) -> dict:
    path = resources.files("swarmsim").joinpath("presets", f"{name}.json")
    return json.loads(path.read_text(encoding="utf-8"))


def _video_20s(edca: bool) -> dict:
    data = _preset("scenario2_video_2mbps")
    data["video"]["call_duration_s"] = 20
    data["wlan"]["edca"] = edca
    return data


# the mission shape of acceptance criteria 09/10, whose first flight window
# runs from 2 s to 88.5 s
FAILOVER = {
    "name": "failover", "duration_s": 430, "n_sds": 10, "profile": 2,
    "infection_rate": 0.0,
    "mission": {"session_duration_s": 120, "n_sessions": 2, "reposition_s": 60,
                "transit_distance_m": 100, "n_targets": 6},
}


CASES = {
    "scenario1_no_video": (
        lambda: _preset("scenario1_no_video"),
        "74a8a2ddd8194e4d9ac186bc5bd7671e5441d64b5796150e46ffd507f802f6b3",
    ),
    "scenario2_video_2mbps_20s_fifo": (
        lambda: _video_20s(edca=False),
        "3053eea0ab8679961220f7ce5a98d85c6d928e8037484b3af28342e3dffe8d01",
    ),
    "scenario2_video_2mbps_20s_edca": (
        lambda: _video_20s(edca=True),
        "fef6d71767fc9b82d7b5acbf368fc59116f4891a3e0f2177e20769ab6dbb7e9b",
    ),
    "failover_ld_sudden_in_flight": (
        lambda: dict(FAILOVER, failures=[{"kind": "ld_sudden", "at_s": 40.0}]),
        "783f03793998518aa3e9eacd79e04fe22ed818a4f3e8ac1750a62ef6c0529104",
    ),
    "swarm100_profile2_two_sessions": (
        lambda: {"name": "swarm100", "duration_s": 430, "n_sds": 100, "profile": 2,
                 "mission": {"session_duration_s": 120, "n_sessions": 2,
                             "reposition_s": 60, "transit_distance_m": 100}},
        "e91fdf04e3ae550a2da512eeb10a19f37be5b6947abb25414422816cc76e87a5",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_digest_is_pinned(case, tmp_path):
    make, digest = CASES[case]
    path = emit_csv([run_scenario(parse_config(make()))], tmp_path / "run.csv")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# dispatched events of a run, inline train slots, completions and
# deliveries included; a flight-ack slot whose SD is gone counts as one
EVENTS = {
    "scenario1_no_video": (lambda: _preset("scenario1_no_video"), 82_958),
    "failover_ld_sudden_in_flight": (CASES["failover_ld_sudden_in_flight"][0], 21_590),
    "swarm100_profile2_two_sessions": (CASES["swarm100_profile2_two_sessions"][0], 197_397),
}


def test_event_count_is_pinned():
    counts = {}
    for case, (make, _) in EVENTS.items():
        mission = _Mission(parse_config(make()))
        q = mission.q
        counts[case] = q.run_until(mission.horizon) + q.run_all()
    assert counts == {case: events for case, (_, events) in EVENTS.items()}
