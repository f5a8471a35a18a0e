"""Random missions against the runner's end-of-run invariants.

``mission_configs`` draws config-file dicts that set every one of the 22
settable values within its schema range (docs/config-schema.md), with
horizons of 1 ms to 430 s, 0-4 scripted failures of any kind, and video
and EDCA on or off. Video's SD limit is left to ``parse_config`` to
reject, so its rejection path runs too. Video calls are kept short so
that one example stays well under a second.
"""
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from swarmsim.config import (
    MAX_SDS_NO_VIDEO,
    MAX_SDS_VIDEO,
    VIDEO_BANDWIDTHS_MBPS,
    WLAN_DATA_RATES_MBPS,
    WLAN_PROC_RATES_PPS,
    ConfigError,
    parse_config,
)
from swarmsim.energy import MAX_SESSIONS
from swarmsim.failure import FailureKind
from swarmsim.output import emit_csv, emit_report
from swarmsim.runner import run_scenario

HORIZON_S = 430.0


def _seconds(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _or(default, values):
    """``values``, or often the default, so that draws mix ordinary
    missions with edge cases."""
    return st.just(default) | values


@st.composite
def mission_configs(draw):
    """A config-file dict with all 22 settable values and 0-4 failures."""
    video = draw(st.booleans())
    n_sds = draw(st.integers(1, MAX_SDS_VIDEO + 2 if video else MAX_SDS_NO_VIDEO))
    failures = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(FailureKind.ALL))
        drone = st.integers(1, n_sds + 1)
        failures.append({
            "kind": kind,
            "drone_id": draw(drone if kind == FailureKind.SD_SUDDEN else st.none() | drone),
            "at_s": draw(_seconds(0, HORIZON_S)),
        })
    return {
        "name": draw(st.text("abcXYZ019_-. #", min_size=1, max_size=12)),
        "seed": draw(st.integers(0, 2**32)),
        "duration_s": draw(_seconds(0.001, 1) | _seconds(1, HORIZON_S)),
        "n_sds": n_sds,
        "profile": draw(st.sampled_from([1, 2])),
        "infection_rate": draw(_or(0.025, _seconds(0, 1))),
        "measure_from_s": draw(_or(0.0, _seconds(0, HORIZON_S))),
        "wlan": {
            "data_rate_mbps": draw(st.sampled_from(WLAN_DATA_RATES_MBPS)),
            "proc_rate_pps": draw(st.sampled_from(WLAN_PROC_RATES_PPS)),
            "edca": draw(st.booleans()),
            "overhead_bytes": draw(_or(90, st.integers(0, 10_000))),
            "buffer_bits": draw(_or(1_000_000, st.integers(1, 2_000_000))),
        },
        "video": {
            "enabled": video,
            "bandwidth_mbps": draw(st.sampled_from(VIDEO_BANDWIDTHS_MBPS)),
            "max_calls": draw(st.none() | st.integers(1, 20)),
            "forced_calls": draw(st.integers(0, 4)),
            "call_duration_s": draw(_seconds(0.001, 20)),
        },
        "mission": {
            "session_duration_s": draw(_seconds(0.001, 600)),
            "n_sessions": draw(st.integers(1, MAX_SESSIONS)),
            "reposition_s": draw(_seconds(0, 120)),
            "transit_distance_m": draw(_seconds(0, 3_000)),
            "n_targets": draw(st.none() | st.integers(0, n_sds)),
        },
        "failures": failures,
    }


def _outputs(cfg, out: Path) -> tuple[bytes, bytes]:
    """CSV and report bytes of one run; ``run_scenario`` returns only once
    its end-of-run invariants hold."""
    result = run_scenario(cfg)
    return (emit_csv([result], out / "run.csv").read_bytes(),
            emit_report([result], out / "run.txt").read_bytes())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=mission_configs())
def test_a_random_mission_runs_clean_and_reruns_byte_identical(data):
    try:
        cfg = parse_config(data)
    except ConfigError:  # the only error a config may raise, and only here
        return
    with tempfile.TemporaryDirectory() as tmp:
        first = _outputs(cfg, Path(tmp))
        assert _outputs(cfg, Path(tmp)) == first
