"""Configs that once crashed or hung the CLI, run end to end through
``cli.main``.

Each row is a config the parser accepts or rejects, as a JSON value or as
raw file bytes; the CLI must answer it with an exit status (0 ok, 1 config
rejected, 2 mission aborted) and never with an exception or a hang. New
robustness fixes append a row. A simulator defect is exit 3, with the run
and seed that reproduce it on stderr.
"""
import json
import signal

import pytest

from swarmsim import runner
from swarmsim.cli import EXIT_DEFECT, main

# the two-session mission shape of acceptance criteria 09/10, 430 s long
SHORT_MISSION = {"session_duration_s": 120, "n_sessions": 2, "reposition_s": 60,
                 "transit_distance_m": 100}
SHORT = {"duration_s": 430, "infection_rate": 0.0, "mission": SHORT_MISSION}

# (row id, subcommand with its flags, config or raw file bytes, expected exit
# status[, --out below the test's directory, which holds a file named "taken"])
ROWS = [
    ("predicted_leader_failure_between_profile_1_flushes", "run",
     {**SHORT, "n_sds": 4, "profile": 1,
      "failures": [{"kind": "ld_predicted", "drone_id": None, "at_s": 135}]}, 0),
    ("zero_reposition_minutes", "energy", {"energy": {"reposition_min": 0}}, 1),
    ("transit_overflowing_the_clock", "run",
     {"duration_s": 10, "mission": {"transit_distance_m": 1e308}}, 1),
    ("leader_loss_with_a_single_sd", "run",
     {**SHORT, "n_sds": 1, "failures": [{"kind": "ld_sudden", "drone_id": None, "at_s": 50}]},
     0),
    ("last_sd_lost_while_the_leader_is_down", "run",
     {**SHORT, "n_sds": 1,
      "failures": [{"kind": "ld_sudden", "at_s": 120},
                   {"kind": "sd_sudden", "drone_id": 2, "at_s": 130}]}, 2),
    ("leader_kind_naming_an_sd", "run",
     {**SHORT, "n_sds": 4, "failures": [{"kind": "ld_sudden", "drone_id": 3, "at_s": 150}]},
     0),
    ("zero_reposition_seconds", "energy", {"mission": {"reposition_s": 0}}, 0),
    ("removed_leg_knob", "energy", {"energy": {"dmc_leg_min": 6}}, 1),
    # the session is classified at the 150 s horizon, so the call starts after it
    ("video_call_staggered_past_the_horizon", "run",
     {"duration_s": 150, "n_sds": 2, "infection_rate": 0.0,
      "video": {"enabled": True, "forced_calls": 1},
      "mission": {"session_duration_s": 600, "transit_distance_m": 100}}, 0),
    # the name is a CSV cell and the stem of the output files
    ("name_with_a_comma", "run", {"name": "north,east", "duration_s": 10}, 1),
    ("name_with_a_line_break", "run", {"name": "two\nlines", "duration_s": 10}, 1),
    ("name_with_a_carriage_return", "run", {"name": "two\rlines", "duration_s": 10}, 1),
    ("name_leaving_the_output_directory", "run", {"name": "../escaped", "duration_s": 10}, 1),
    ("name_with_a_backslash", "run", {"name": "a\\b", "duration_s": 10}, 1),
    ("empty_name", "run", {"name": "", "duration_s": 10}, 1),
    ("null_name", "run", {"name": None, "duration_s": 10}, 1),
    ("numeric_name", "run", {"name": 5, "duration_s": 10}, 1),
    # a JSON integer literal too large for a float
    ("seed_beyond_float_range", "run", {"seed": 10**400, "duration_s": 10}, 1),
    # the MTU is fixed: a smaller one could not carry a whole case report
    ("removed_mtu_setting", "run", {"duration_s": 40, "wimax": {"mtu": 100}}, 1),
    # the run ends before its first send and emits no link rows
    ("run_ending_before_the_first_send", "run", {"duration_s": 0.1}, 0),
    # the output directory is checked before the mission runs
    ("out_naming_an_existing_file", "run", {"duration_s": 10}, 1, "taken"),
    ("out_below_an_existing_file", "run", {"duration_s": 10}, 1, "taken/sub"),
    ("sweep_out_naming_an_existing_file", "sweep --axis seed --values 1", {"duration_s": 10},
     1, "taken"),
    # every point of a sweep is checked before the first one runs
    ("sweep_over_an_unsweepable_axis", "sweep --axis wlan.overhead_bytes --values 90",
     {"duration_s": 10}, 1),
    ("sweep_with_unorderable_values", "sweep --axis n_sds --values 1,abc",
     {"duration_s": 10}, 1),
    ("sweep_whose_last_value_is_rejected", "sweep --axis n_sds --values 10,20",
     {"duration_s": 10, "video": {"enabled": True}}, 1),
    # two equal points would share one run id in the CSV
    ("sweep_with_a_repeated_value", "sweep --axis seed --values 3,3", {"duration_s": 10}, 1),
    # JSON the decoder cannot read, as raw file bytes or a raw --values value
    ("config_not_utf8", "run", '{"name": "caf\xe9"}'.encode("latin-1"), 1),
    ("config_nested_beyond_the_recursion_limit", "run", b"[" * 200_000, 1),
    ("config_integer_beyond_the_digit_limit", "run", b'{"seed": ' + b"9" * 5_000 + b"}", 1),
    ("sweep_value_nested_beyond_the_recursion_limit",
     "sweep --axis seed --values " + "[" * 200_000, {"duration_s": 10}, 1),
    ("sweep_value_integer_beyond_the_digit_limit",
     "sweep --axis seed --values " + "9" * 5_000, {"duration_s": 10}, 1),
]

TIME_LIMIT_S = 120


def _timed_out(signum, frame):
    raise TimeoutError(f"CLI did not return within {TIME_LIMIT_S} s")


def _params(row):
    _, command, config, status, *out = row
    return command, config, status, out[0] if out else "out"


@pytest.mark.parametrize("command, config, status, out",
                         [_params(row) for row in ROWS], ids=[row[0] for row in ROWS])
def test_cli_answers_with_an_exit_status(command, config, status, out, tmp_path, capsys):
    path = tmp_path / "config.json"
    if isinstance(config, bytes):
        path.write_bytes(config)
    else:
        path.write_text(json.dumps(config), encoding="utf-8")
    (tmp_path / "taken").write_text("", encoding="utf-8")
    name, *flags = command.split()
    argv = [name, str(path), *flags]
    if name in ("run", "sweep"):
        argv += ["--out", str(tmp_path / out)]
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(TIME_LIMIT_S)
    try:
        code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == status
    if status == 1:
        assert capsys.readouterr().err.startswith("error: ")
        # a rejected command leaves no output directory behind
        assert not (tmp_path / out).is_dir()


@pytest.mark.parametrize("command", ["run", "sweep --axis n_sds --values 2"])
def test_simulator_defect_exits_three_naming_the_run_and_seed(command, tmp_path, capsys,
                                                              monkeypatch):
    path = tmp_path / "landed.json"
    path.write_text(json.dumps({**SHORT, "seed": 7}), encoding="utf-8")
    monkeypatch.setattr(runner, "validate_phase_trace", lambda trace: False)
    name, *flags = command.split()
    code = main([name, str(path), *flags, "--out", str(tmp_path / "out")])
    assert code == EXIT_DEFECT == 3
    err = capsys.readouterr().err
    assert err.startswith("error: simulator defect: run 'landed")
    assert "seed 7: landed mission has a malformed phase trace" in err
