"""Scenario orchestration: config parsing, runs, sweeps, CLI."""
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from swarmsim.cli import main
from swarmsim.config import ConfigError, load_config, parse_config, to_dict
from swarmsim.energy import mission_plan, price
from swarmsim import runner
from swarmsim.netsim import VIDEO, Link
from swarmsim.runner import (
    SWEEPABLE_AXES,
    RunInvariantError,
    _Mission,
    run_scenario,
    sweep,
    sweep_points,
)
from swarmsim.swarm import Phase, PhaseEvent, validate_phase_trace


# 4 SDs fly 30 sessions of 5 min with 10 s hops: well inside both batteries
THIRTY_SESSIONS = {"session_duration_s": 300, "n_sessions": 30, "reposition_s": 10,
                   "transit_distance_m": 100}
# two 700 s hops fly longer than a full flight battery lasts
LONG_HOPS = {"n_sds": 2, "duration_s": 5000, "mission": {
    "n_sessions": 3, "session_duration_s": 60, "reposition_s": 700,
    "transit_distance_m": 100}}
# every SD calls from the 150 s classification of session 0 until 180 s
FOUR_CALLS = {"duration_s": 430, "n_sds": 4, "infection_rate": 1.0,
              "video": {"enabled": True, "forced_calls": 2, "call_duration_s": 30},
              "mission": {"session_duration_s": 120, "n_sessions": 2,
                          "reposition_s": 60, "transit_distance_m": 100}}

# a 900 s call outlives a one-session mission that lands at 240 s: 30 s
# formation, 30 s transit, 30 s deployment, 120 s session, 30 s back
CALL_OUTLIVES_MISSION = {
    "seed": 1, "duration_s": 1500, "n_sds": 3, "infection_rate": 0.0,
    "video": {"enabled": True, "forced_calls": 1, "call_duration_s": 900},
    "mission": {"session_duration_s": 120, "n_sessions": 1, "transit_distance_m": 100}}
LANDED_AT_US = 240_000_000
CALL_START_US = 150_010_000  # classification at 150 s plus the 10 ms call stagger

# the golden 100-SD case of test_golden_csv.py
SWARM100 = {"name": "swarm100", "duration_s": 430, "n_sds": 100, "profile": 2,
            "mission": {"session_duration_s": 120, "n_sessions": 2, "reposition_s": 60,
                        "transit_distance_m": 100}}
# the failover config of test_golden_csv.py: ten SDs, profile 2, the first
# flight window ends at 90 s
FAILOVER = {
    "name": "failover", "duration_s": 430, "n_sds": 10, "profile": 2,
    "infection_rate": 0.0,
    "mission": {"session_duration_s": 120, "n_sessions": 2, "reposition_s": 60,
                "transit_distance_m": 100, "n_targets": 6},
}
# the leader runs low in a 5 km transit and hands over to the backup at
# 1,230 s, in the transit phase
TRANSIT_HANDOVER = {"n_sds": 4, "duration_s": 4000, "infection_rate": 0.0,
                    "mission": {"transit_distance_m": 5000, "session_duration_s": 60}}
# the mission returns from 720 s; the leader runs low and hands over to the
# backup at 1,290 s, on the return leg, and the mission lands at 1,320 s
RETURN_LEG_HANDOVER = {"n_sds": 3, "duration_s": 3000, "infection_rate": 0.0,
                       "mission": {"transit_distance_m": 2000, "session_duration_s": 60}}


def small_scenario(**overrides):
    """A fast two-session mission: flight windows [0, 90], [210, 270],
    [390, 420] seconds, collection in between."""
    data = {
        "name": "small",
        "seed": 11,
        "duration_s": 430,
        "n_sds": 6,
        "profile": 2,
        "infection_rate": 0.0,
        "mission": {
            "session_duration_s": 120,
            "n_sessions": 2,
            "reposition_s": 60,
            "transit_distance_m": 100,
            "n_targets": 4,
        },
    }
    data.update(overrides)
    return parse_config(data, name=data["name"])


def train_flow(mission, xs, packet_for) -> str | None:
    """The flow a train registered now offers per SD: a beacon train's slots
    read the mission's ``_beacon``, and a flight-ack round runs on the
    current roster epoch's ack ids; None for any other train."""
    if packet_for == mission._beacon:
        return "sd_status"
    return "flight_ack" if xs is mission.epoch.ack_ids else None


def record_offers(mission, observe=lambda x: None):
    """Wrap the mission's WLAN ``train`` to record, per flow of
    ``train_flow``, each slot as (time, slot argument, packet or None,
    ``observe(slot argument)`` called at the slot). A slot of a flow offers
    a packet of that flow, or offers nothing. The trains get no ``settle``,
    so every slot runs and is recorded; tests/test_mission_fuzz.py shows
    that a status round settled in closed form runs as its slots do."""
    slots = {"flight_ack": [], "sd_status": []}
    train, q = mission.wlan.train, mission.q

    def recording_train(times, xs, packet_for, on_deliver=None, tie=None, settle=None):
        table_flow = train_flow(mission, xs, packet_for)

        def recording(x):
            pkt = packet_for(x)
            flow = table_flow if pkt is None else pkt.flow
            if flow in slots:
                slots[flow].append((q.now, x, pkt, observe(x)))
            return pkt
        return train(times, xs, recording, on_deliver, tie)

    mission.wlan.train = recording_train
    return slots


def record_status_acks(mission):
    """Wrap the mission's status delivery and its WLAN ``send`` to record
    each beacon delivered as (time, source, acting leader, or None while the
    leader is dead) and each status ack sent as (time, flow, source,
    destination). No status round is settled in closed form, so every one
    is recorded."""
    delivered, acks = [], []
    deliver, send = mission._on_status_delivered, mission.wlan.send
    q, state = mission.q, mission.state

    def recording_delivery(pkt):
        leader = state.leader()
        delivered.append((q.now, pkt.src, leader.id if leader.alive else None))
        deliver(pkt)

    def recording_send(pkt, on_deliver=None, n=1, created=None):
        if pkt.flow == "status_ack":
            acks.append((q.now, pkt.flow, pkt.src, pkt.dst))
        return send(pkt, on_deliver, n, created)

    mission._on_status_delivered = recording_delivery
    mission.wlan.send = recording_send
    mission._settle_round = lambda times, ids, i: False
    return delivered, acks


# the delivery callbacks that read the acting leader's cached state
LEADER_READERS = ("_relay_video_up", "_relay_video_down", "_relay_case_report",
                  "_relay_case_ack", "_on_status_delivered")


def record_leader_state(mission):
    """Wrap the mission's ``LEADER_READERS`` to record, per callback name,
    the cached acting leader state as (time, (live leader, relaying) cached,
    the same by the rule) when the callback is called."""
    calls = {name: [] for name in LEADER_READERS}
    q, state = mission.q, mission.state

    def wrap(name, fn):
        def recording(pkt):
            leader = state.leader()
            live = leader if leader.alive else None
            calls[name].append((q.now, (mission.epoch.live_leader, mission.epoch.leader_up),
                                (live, live is not None and not state.aborted)))
            fn(pkt)
        return recording

    for name in LEADER_READERS:
        setattr(mission, name, wrap(name, getattr(mission, name)))
    return calls


def status_acks_by_rule(delivered):
    """One status ack per beacon a live leader receives, at the delivery
    instant, from that leader to the beacon's source."""
    return [(t, "status_ack", leader, src) for t, src, leader in delivered
            if leader is not None]


class TestConfigParsing:
    def test_minimal_file_gets_full_defaults(self):
        cfg = parse_config({"seed": 7, "n_sds": 4})
        assert cfg.seed == 7
        assert cfg.n_sds == 4
        assert cfg.duration_s == 900.0
        assert cfg.profile == 2
        assert cfg.wlan.data_rate_bps == 54_000_000
        assert not cfg.video.enabled
        assert cfg.mission.session_duration_s == 1800.0

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown field 'speling'"):
            parse_config({"speling": 1})

    def test_unknown_nested_field_reported_with_dotted_path(self):
        with pytest.raises(ConfigError, match="unknown field 'wlan.rate'"):
            parse_config({"wlan": {"rate": 54}})

    def test_swarm_size_capped_without_video(self):
        with pytest.raises(ConfigError):
            parse_config({"n_sds": 200})

    def test_swarm_size_capped_with_video(self):
        with pytest.raises(ConfigError, match="video"):
            parse_config({"n_sds": 15, "video": {"enabled": True}})
        parse_config({"n_sds": 15})  # fine without video

    def test_data_rate_must_be_a_known_mode(self):
        with pytest.raises(ConfigError, match="wlan.data_rate_mbps"):
            parse_config({"wlan": {"data_rate_mbps": 11}})

    # the library relies on these rules and does not check them again
    @pytest.mark.parametrize("data, field", [
        ({"failures": [{"kind": "meteor", "at_s": 10}]}, r"failures\[0\].kind"),
        ({"failures": [{"kind": "ld_sudden", "at_s": -1}]}, r"failures\[0\].at_s"),
        ({"n_sds": 0}, "n_sds"),
        ({"infection_rate": -0.1}, "infection_rate"),
        ({"infection_rate": 1.5}, "infection_rate"),
        ({"video": {"bandwidth_mbps": 3}}, "video.bandwidth_mbps"),
        ({"wlan": {"buffer_bits": 0}}, "wlan.buffer_bits"),
        ({"wlan": {"proc_rate_pps": 0}}, "wlan.proc_rate_pps"),
    ], ids=["unknown_failure_kind", "negative_failure_time", "no_sds",
            "negative_infection_rate", "infection_rate_above_one",
            "unknown_video_bandwidth", "zero_wlan_buffer", "zero_processing_rate"])
    def test_out_of_range_input_is_rejected_by_the_parser(self, data, field):
        with pytest.raises(ConfigError, match=f"field '{field}'"):
            parse_config(data)

    @pytest.mark.parametrize("field", [
        "mission.position_noise_m", "mission.span_m", "mission.backup_id",
        "video.frame_rate",
        "wimax.max_sustained_mbps", "wimax.overhead_bytes", "wimax.buffer_bits",
        "mission.formation", "mission.spacing_m", "mission.speed_kmh",
        "mission.formation_time_s", "mission.deploy_time_s",
        "energy.video_multiplier"])
    def test_fixed_values_are_unknown_fields(self, field):
        section, key = field.split(".")
        # a section with no settable value left is itself unknown
        unknown = field if section in to_dict(parse_config({})) else section
        with pytest.raises(ConfigError, match=f"unknown field '{unknown}'"):
            parse_config({section: {key: 1}})

    def test_targets_cannot_exceed_sds(self):
        with pytest.raises(ConfigError, match="n_targets"):
            parse_config({"n_sds": 2, "mission": {"n_targets": 3}})

    def test_malformed_json_reports_the_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "seed": 1,\n  oops\n}\n', encoding="utf-8")
        with pytest.raises(ConfigError, match="line 3"):
            load_config(bad)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_rejected(self, value):
        with pytest.raises(ConfigError, match="'duration_s' must be finite"):
            parse_config({"duration_s": value})
        with pytest.raises(ConfigError, match="'wlan.overhead_bytes' must be finite"):
            parse_config({"wlan": {"overhead_bytes": value}})

    @pytest.mark.parametrize("data", [
        {"duration_s": 1e308},
        {"duration_s": 10**400},  # a JSON integer too large for a float
        {"mission": {"session_duration_s": 1e308}},
        {"failures": [{"kind": "ld_sudden", "drone_id": None, "at_s": 1e308}]},
        # the transit leg's flight time follows the same rule
        {"mission": {"transit_distance_m": 1e308}},
        {"mission": {"transit_distance_m": 10**400}},
        # just past the longest transit the clock can time, about 6e302 m
        {"mission": {"transit_distance_m": 1e303}},
    ])
    def test_seconds_overflowing_the_microsecond_clock_rejected(self, data):
        with pytest.raises(ConfigError, match="overflows the microsecond clock"):
            parse_config(data)

    @pytest.mark.parametrize("data", [
        {"seed": 10**400},
        {"n_sds": 10**400},
        {"mission": {"n_targets": 10**400}},
        {"video": {"max_calls": 10**400}},
        {"failures": [{"kind": "sd_sudden", "drone_id": 10**400, "at_s": 1.0}]},
    ], ids=["seed", "n_sds", "n_targets", "max_calls", "drone_id"])
    def test_integers_too_large_for_a_float_rejected(self, data):
        # a JSON integer literal may have any number of digits
        with pytest.raises(ConfigError, match="is too large"):
            parse_config(data)

    def test_integers_beyond_a_floats_precision_parse_exactly(self):
        # 2**53 + 1 is the first integer a float cannot hold; it was once
        # refused as "must be an integer"
        big = 2**53 + 1
        cfg = parse_config({"seed": big, "wlan": {"buffer_bits": big}})
        assert (cfg.seed, cfg.wlan.buffer_bits) == (big, big)
        echo = to_dict(cfg)
        assert (echo["seed"], echo["wlan"]["buffer_bits"]) == (big, big)
        assert json.loads(json.dumps(echo))["seed"] == big

    @pytest.mark.parametrize("name", [None, 5, 1.5, True, ["run"]])
    def test_name_must_be_a_string(self, name):
        with pytest.raises(ConfigError, match="'name' must be a string"):
            parse_config({"name": name})

    def test_reposition_minutes_must_be_positive(self):
        # the energy model prices the mission's own legs and hops, and its
        # video surcharge is fixed, so the whole section it once had is an
        # unknown field
        for knob in ("reposition_min", "dmc_leg_min"):
            with pytest.raises(ConfigError, match="unknown field 'energy'"):
                parse_config({"energy": {knob: 1}})

    def test_failure_drone_id_must_name_a_drone(self):
        with pytest.raises(ConfigError, match=r"failures\[0\].drone_id'=999 above maximum 5"):
            parse_config({"n_sds": 4, "failures": [
                {"kind": "sd_sudden", "drone_id": 999, "at_s": 10.0}]})
        parse_config({"n_sds": 4, "failures": [
            {"kind": "sd_sudden", "drone_id": 5, "at_s": 10.0}]})

    def test_sd_failure_needs_a_drone_id(self):
        with pytest.raises(ConfigError, match="drone_id' is required for sd_sudden"):
            parse_config({"failures": [{"kind": "sd_sudden", "drone_id": None, "at_s": 1.0}]})

    def test_round_trip_through_dict(self):
        cfg = small_scenario(failures=[
            {"kind": "sd_sudden", "drone_id": 4, "at_s": 100.0},
        ])
        assert parse_config(to_dict(cfg), name=cfg.name) == cfg


class TestRunScenario:
    def test_status_only_run_is_clean_and_complete(self):
        result = run_scenario(small_scenario())
        assert not result.aborted
        assert result.metrics.loss_ratio("wlan") == 0.0
        assert result.metrics.latency[("wlan", "control")].p50_us < 1_000
        trace = [Phase(p) for p in result.phase_trace]
        assert validate_phase_trace(trace)

    def test_all_planned_targets_collected(self):
        result = run_scenario(small_scenario())
        # 4 targets per session over 2 sessions
        assert sorted(result.collected_targets) == sorted(list(range(4)) * 2)
        assert result.pending_targets == []

    def test_leader_kill_yields_exactly_one_recovery_sample(self):
        cfg = small_scenario(failures=[
            {"kind": "ld_sudden", "drone_id": None, "at_s": 100.0},
        ])
        result = run_scenario(cfg)
        assert len(result.recovery_times_s) == 1
        assert not result.aborted

    def test_mission_aborts_when_no_drone_can_lead(self):
        cfg = parse_config({
            "name": "doomed", "seed": 1, "duration_s": 430, "n_sds": 1,
            "profile": 1, "infection_rate": 0.0,
            "mission": {"session_duration_s": 120, "n_sessions": 2,
                        "reposition_s": 60, "transit_distance_m": 100},
            "failures": [
                {"kind": "sd_sudden", "drone_id": 2, "at_s": 95.0},
                {"kind": "ld_sudden", "drone_id": None, "at_s": 100.0},
            ],
        })
        result = run_scenario(cfg)
        assert result.aborted

    def test_mission_aborts_when_the_last_sd_dies_after_the_leader(self):
        # the reverse order of the two failures above: the leader is down
        # and its handover not yet complete when the only SD dies
        result = run_scenario(small_scenario(
            n_sds=1,
            mission={"session_duration_s": 120, "n_sessions": 2,
                     "reposition_s": 60, "transit_distance_m": 100},
            failures=[{"kind": "ld_sudden", "drone_id": None, "at_s": 120.0},
                      {"kind": "sd_sudden", "drone_id": 2, "at_s": 130.0}],
        ))
        assert result.aborted
        assert ("t=130000000us last SD lost with the leader down; mission aborted"
                in result.deviations)

    def test_hard_handover_with_no_sd_fit_to_lead_aborts(self):
        # the leader dies at 40 s and every SD runs low at 40.1 s, before
        # the watchdog's promotion at 40.603 s finds no one to promote
        mission = _Mission(parse_config(dict(FAILOVER, failures=[
            {"kind": "ld_sudden", "at_s": 40.0}])))
        state = mission.state

        def drain_every_sd():
            for sd in state.alive_sds():
                sd.telemetry.battery_pct = 10.0

        mission.q.schedule(40_100_000, drain_every_sd)
        result = mission.run()
        assert result.aborted
        assert result.deviations == ["t=40603000us no drone left to lead; mission aborted"]
        assert result.recovery_times_s == []
        assert result.sd_reports_lost == 20
        assert mission.ended_at == 40_603_000

    @pytest.mark.parametrize("rate, reports", [
        (0.0, []),
        # SD 3 is lost at 100 s and SD 5 at 300 s, each before its session's
        # classification; its target moves to the next idle SD
        (1.0, [(150_000_000, 2), (150_000_000, 4), (150_000_000, 5), (150_000_000, 6),
               (330_000_000, 2), (330_000_000, 4), (330_000_000, 6), (330_000_000, 7)]),
    ], ids=["rate_0", "rate_1"])
    def test_each_live_assigned_sd_escalates_at_the_infection_rate(self, rate, reports,
                                                                   monkeypatch):
        mission = _Mission(small_scenario(infection_rate=rate, failures=[
            {"kind": "sd_sudden", "drone_id": 3, "at_s": 100.0},
            {"kind": "sd_sudden", "drone_id": 5, "at_s": 300.0}]))
        offered = []
        send = Link.send

        def recording_send(link, pkt, on_deliver=None, n=1, created=None):
            if link.name == "wlan" and pkt.flow == "case_report":
                offered.append((mission.q.now, pkt.src))
            return send(link, pkt, on_deliver, n, created)

        monkeypatch.setattr(Link, "send", recording_send)
        mission.run()
        assert offered == reports

    @pytest.mark.parametrize("failures, deviation", [
        ([{"kind": "sd_sudden", "drone_id": 1, "at_s": 95.0}],
         "t=95000000us sd_sudden of drone 1 not applied: drone is the acting leader"),
        ([{"kind": "sd_sudden", "drone_id": 2, "at_s": 95.0},
          {"kind": "sd_sudden", "drone_id": 2, "at_s": 96.0}],
         "t=96000000us sd_sudden of drone 2 not applied: drone is not alive"),
        ([{"kind": "sd_sudden", "drone_id": 2, "at_s": 95.0},
          {"kind": "ld_sudden", "drone_id": 2, "at_s": 96.0}],
         "t=96000000us ld_sudden of drone 2 not applied: drone is not alive"),
        ([{"kind": "ld_sudden", "drone_id": None, "at_s": 100.0},
          {"kind": "ld_predicted", "drone_id": None, "at_s": 101.0}],
         "t=101000000us ld_predicted of drone 1 not applied: leader is not alive"),
        ([{"kind": "sd_sudden", "drone_id": 4, "at_s": 425.0}],
         "t=425000000us sd_sudden of drone 4 not applied: mission over"),
        ([{"kind": "ld_sudden", "drone_id": 3, "at_s": 150.0}],
         "t=150000000us ld_sudden of drone 3 not applied: drone is not the acting leader"),
        ([{"kind": "ld_predicted", "drone_id": 3, "at_s": 150.0}],
         "t=150000000us ld_predicted of drone 3 not applied: "
         "drone is not the acting leader"),
    ])
    def test_failure_that_cannot_apply_is_a_deviation(self, failures, deviation):
        result = run_scenario(small_scenario(failures=failures))
        assert deviation in result.deviations

    def test_leader_kind_naming_an_sd_leaves_its_target_collected(self):
        result = run_scenario(small_scenario(failures=[
            {"kind": "ld_sudden", "drone_id": 3, "at_s": 150.0},
        ]))
        assert sorted(result.collected_targets) == sorted(list(range(4)) * 2)

    def test_promoted_leader_with_no_sd_left_is_not_aborted(self):
        result = run_scenario(small_scenario(
            n_sds=1,
            mission={"session_duration_s": 120, "n_sessions": 2,
                     "reposition_s": 60, "transit_distance_m": 100},
            failures=[{"kind": "ld_sudden", "drone_id": None, "at_s": 50.0}],
        ))
        assert not result.aborted
        assert len(result.recovery_times_s) == 1
        assert not any("no drone left to lead" in d for d in result.deviations)

    def test_predicted_failure_with_no_sd_left_is_recorded_once(self):
        # the only SD is lost at 100 s; the leader's predicted failure is
        # seen at the 160 s status tick and at every tick after it
        result = run_scenario(small_scenario(
            n_sds=1,
            mission={"session_duration_s": 120, "n_sessions": 2,
                     "reposition_s": 60, "transit_distance_m": 100},
            failures=[{"kind": "sd_sudden", "drone_id": 2, "at_s": 100.0},
                      {"kind": "ld_predicted", "drone_id": None, "at_s": 150.0}],
        ))
        assert not result.aborted
        assert [d for d in result.deviations if "keeps command" in d] == [
            "t=160000000us soft handover found no SD fit to lead; leader 1 keeps command"]
        assert result.energy[1]["role"] == "ld"

    def test_predicted_failure_hands_over_between_profile_1_flushes(self):
        # with profile 1 the leader's link activity while collecting is only
        # its 30 s flush, so its last-heard stamp is 20 s old at 140 s
        result = run_scenario(small_scenario(profile=1, n_sds=4, failures=[
            {"kind": "ld_predicted", "drone_id": None, "at_s": 135.0},
        ]))
        assert not result.aborted
        assert result.energy[1]["role"] == "sd"
        assert result.energy[3]["role"] == "ld"

    def test_target_orphaned_by_a_handover_is_collected_once_more(self):
        # the handover leaves the new leader's target 1 orphaned in session
        # 0; session 1 lists it once, so it is collected and not deferred
        result = run_scenario(small_scenario(profile=1, n_sds=4, failures=[
            {"kind": "ld_predicted", "drone_id": None, "at_s": 135.0},
        ]))
        assert result.pending_targets == []
        assert set(result.collected_targets) == {0, 1, 2, 3}

    def test_promoted_sds_target_is_not_inherited_by_the_old_leader(self):
        # every SD holds a target when the backup (drone 3, target 1) takes
        # over; the overheated old leader stays an SD but is not handed it
        result = run_scenario(parse_config({
            "n_sds": 4, "duration_s": 430, "infection_rate": 0.0,
            "mission": {"n_sessions": 1, "session_duration_s": 300,
                        "transit_distance_m": 100},
            "failures": [{"kind": "ld_predicted", "drone_id": None, "at_s": 150}],
        }))
        assert not result.aborted
        assert result.collected_targets == [0, 2, 3]
        assert result.pending_targets == [1]

    def test_target_deferred_with_no_sd_left_is_pending_once(self):
        mission = {"session_duration_s": 120, "n_sessions": 2, "reposition_s": 60,
                   "transit_distance_m": 100}
        result = run_scenario(small_scenario(n_sds=1, profile=1, mission=mission, failures=[
            {"kind": "ld_sudden", "drone_id": None, "at_s": 50.0},
        ]))
        assert result.collected_targets == []
        assert result.pending_targets == [0]

    def test_aborted_runs_still_conserve_packets(self):
        cfg = small_scenario(failures=[
            {"kind": "sd_sudden", "drone_id": 2, "at_s": 95.0},
            {"kind": "sd_sudden", "drone_id": 3, "at_s": 96.0},
            {"kind": "sd_sudden", "drone_id": 4, "at_s": 97.0},
            {"kind": "sd_sudden", "drone_id": 5, "at_s": 98.0},
            {"kind": "sd_sudden", "drone_id": 6, "at_s": 99.0},
            {"kind": "sd_sudden", "drone_id": 7, "at_s": 99.5},
            {"kind": "ld_sudden", "drone_id": None, "at_s": 100.0},
        ])
        result = run_scenario(cfg)
        assert result.aborted
        for link, c in result.metrics.links.items():
            assert c["offered_pkts"] == c["delivered_pkts"] + c["dropped_pkts"], link

    def test_energy_ledger_covers_every_drone(self):
        result = run_scenario(small_scenario())
        assert sorted(result.energy) == list(range(1, 8))
        for entry in result.energy.values():
            assert entry["total_wh"] == pytest.approx(
                entry["rotor_wh"] + entry["compute_wh"])
            assert entry["rotor_wh"] > 0

    def test_ledger_prices_the_mission_plan(self):
        cfg = parse_config({"n_sds": 4, "duration_s": 9500, "infection_rate": 0.0,
                            "mission": THIRTY_SESSIONS})
        result = run_scenario(cfg)
        assert len(result.collected_targets) == 120
        # the ledger samples the drones every 10 s status period, so it
        # prices the plan to within one period
        planned = price("sd", *mission_plan(cfg.mission)(30))
        period = price("sd", 10, 10)
        for key, wh, tick in zip(("rotor_wh", "compute_wh"), planned, period):
            assert abs(result.energy[2][key] - wh) <= tick + 1e-9
        assert not any("overdrew" in d for d in result.deviations)

    def test_hops_longer_than_the_battery_record_an_overdraw(self):
        result = run_scenario(parse_config(LONG_HOPS))
        overdraws = [d for d in result.deviations if "overdrew" in d]
        assert overdraws
        assert all("flight battery" in d for d in overdraws)
        for drone_id, entry in result.energy.items():
            flagged = any(d.startswith(f"drone {drone_id} ") for d in overdraws)
            assert flagged == (entry["rotor_wh"] > 89.2)

    def test_every_report_reaching_the_leader_is_accounted_for(self):
        # collection starts after 30 s formation, a 25 s transit and 30 s
        # deployment, so 13 forced 2 Mbps calls start 5 s before the 150 s
        # flush and fill the long-range buffer that flushes share with
        # video; that flush drops
        cfg = parse_config({
            "duration_s": 151, "n_sds": 14, "infection_rate": 0.0,
            "video": {"enabled": True, "forced_calls": 13, "call_duration_s": 60},
            "mission": {"session_duration_s": 600, "transit_distance_m": 83.334},
        })
        mission = _Mission(cfg)
        result = mission.run()
        # every beacon the WLAN delivers reaches the leader, in a round
        # settled in closed form or slot by slot
        reached = result.metrics.by_flow[("wlan", "sd_status")]["delivered_pkts"]
        assert result.sd_reports_lost > 0
        assert reached == (result.sd_reports_delivered + result.sd_reports_lost
                           + mission.state.buffered_reports)

    def test_status_reports_come_from_live_sds_to_the_acting_leader(self):
        # the leader is lost in flight at 50 s and SD 3 takes over by a hard
        # handover; SD 4 is lost at 150 s; the mission lands at 420 s
        mission = _Mission(small_scenario(failures=[
            {"kind": "ld_sudden", "at_s": 50.0},
            {"kind": "sd_sudden", "drone_id": 4, "at_s": 150.0}]))
        state = mission.state

        def at_slot(sd_id):  # (eligible, acting leader) when the slot runs
            d = state.drones[sd_id]
            return (d.alive and d.id != state.leader_id and d.phase is not Phase.LANDED
                    and mission.mission_phase is not Phase.LANDED), state.leader_id

        recorded = record_offers(mission, at_slot)["sd_status"]
        result = mission.run()
        for _, sd_id, pkt, (_, leader_id) in recorded:
            if pkt is not None:
                assert (pkt.flow, pkt.src, pkt.dst) == ("sd_status", sd_id, leader_id)
        # (time, drone, offered, eligible) of each beacon slot
        slots = [(t, sd_id, pkt is not None, eligible)
                 for t, sd_id, pkt, (eligible, _) in recorded]
        assert result.recovery_times_s and not result.aborted
        assert [(t, d) for t, d, offered, eligible in slots if offered != eligible] == []
        offers = {(t // 10**7, d) for t, d, offered, _ in slots if offered}
        # every drone has a slot per tick, from 10 s to 410 s: the 420 s
        # tick finds the mission landed, and the 430 s tick lies past the
        # horizon, so neither registers a slot
        assert len(slots) == 7 * 41
        # the leader and SD 3 swap roles; SD 4 reports until it is lost
        assert (4, 1) not in offers and (4, 3) in offers
        assert (6, 3) not in offers and (6, 1) not in offers and (6, 2) in offers
        assert (14, 4) in offers and (15, 4) not in offers
        last = max(t for t, _, offered, _ in slots if offered)
        assert last <= slots[-1][0] < mission.ended_at == 420_000_000

    def test_undisturbed_status_rounds_of_a_100_sd_swarm_settle_in_closed_form(self):
        # the golden 100-SD case: collection rounds that no flight ack,
        # flush or failure interrupts settle their remaining slots at once;
        # 40 round remainders covering 3,711 beacon slots when this was
        # written, so a change that turns the closed form off fails here
        mission = _Mission(parse_config(SWARM100))
        settle, settled = mission._settle_round, []

        def counting(times, ids, i):
            done = settle(times, ids, i)
            if done:
                settled.append(len(times) - i)
            return done

        mission._settle_round = counting
        mission.run()
        assert len(settled) >= 40 and sum(settled) >= 3_700

    def test_the_first_status_round_looks_up_each_counter_once_per_attempt(self):
        # the 10 s round's settle hook is tried at each of its 101 beacon
        # slots, while the beacon counters are still being made: the rows
        # scan stops at the last sender's missing counter, one lookup per
        # attempt, where building every row first made about 10,000
        mission = _Mission(parse_config(SWARM100))
        q, n = mission.q, mission.cfg.n_sds
        q.run_until(runner.SD_STATUS_PERIOD_US - 1)
        counter, calls = mission.wlan.counter, []

        def counting(pkt):
            calls.append(pkt.src)
            return counter(pkt)

        mission.wlan.counter = counting
        q.run_until(runner.SD_STATUS_PERIOD_US + (n + 3) * runner.BEACON_STAGGER_US)
        assert mission.reports_to_leader == n  # the round ran to its end
        assert 0 < len(calls) < 3 * n

    def test_every_flight_ack_round_but_the_first_settles_in_closed_form(self):
        # the settle fuzz test's two-session mission flies 899 broadcasts,
        # each acked by 6 SDs; the first round's offers make the ack
        # counters, and every later one settles, whole or, where a status
        # tick's beacons cut it, from a later slot; so a change that turns
        # the closed form off, or refuses it in some epoch, fails here
        mission = _Mission(parse_config({
            "name": "settle", "seed": 3, "duration_s": 430, "n_sds": 6, "profile": 2,
            "infection_rate": 0.0,
            "mission": {"session_duration_s": 120, "n_sessions": 2, "reposition_s": 60,
                        "transit_distance_m": 100, "n_targets": 4}}))
        train, settle = mission.wlan.train, mission.wlan.settle
        rounds, settled = [], set()  # each round's slot list; ids of those settled

        def recording_train(times, xs, packet_for, on_deliver=None, tie=None, settle=None):
            if train_flow(mission, xs, packet_for) == "flight_ack":
                rounds.append(times)
            train(times, xs, packet_for, on_deliver, tie, settle)

        def recording_settle(times, xs, i, rows, pkt, reply=None, delivers=True):
            got = settle(times, xs, i, rows, pkt, reply, delivers)
            if got is not None and not delivers:
                settled.add(id(times))
            return got

        mission.wlan.train, mission.wlan.settle = recording_train, recording_settle
        mission.run()
        assert len(rounds) == 899
        assert [r for r in rounds if id(r) not in settled] == rounds[:1]

    def test_a_status_tick_costs_what_changed_not_the_swarm_size(self, monkeypatch):
        # 100 SDs collect from 90 s to 150 s and from 170 s to 230 s and
        # return from 230 s; 2 drones reach the DMC by the 240 s tick, 7
        # more by the 250 s tick, and the other 92 land with the mission
        mission = _Mission(parse_config({
            "name": "swarm100", "duration_s": 300, "n_sds": 100, "profile": 2,
            "infection_rate": 0.0,
            "mission": {"session_duration_s": 60, "n_sessions": 2, "reposition_s": 20,
                        "transit_distance_m": 100}}))
        drones = mission.state.drones.values()
        kinematics, batteries, landings = [], [], []
        advance = runner.advance_kinematics
        monkeypatch.setattr(runner, "advance_kinematics", lambda state, dt_us: (
            kinematics.append(mission.q.now), advance(state, dt_us)))
        update, move = mission._update_telemetry, mission._move

        def recording_update(now):
            update(now)
            batteries.append((now, [d.telemetry.battery_pct for d in drones]))

        def recording_move(moved, event):
            if event is PhaseEvent.LANDED_AT_BASE:
                landings.append((mission.q.now, len(moved)))
            move(moved, event)

        mission._update_telemetry, mission._move = recording_update, recording_move
        result = mission.run()
        windows = mission.collection_windows
        assert windows == [(90_000_000, 150_000_000), (170_000_000, 230_000_000)]

        def collecting(t):
            return any(start <= t < end for start, end in windows)

        # nothing is airborne while collecting: no kinematics and no drain
        assert kinematics and not [t for t in kinematics if collecting(t)]
        assert [now for (now, now_pct), (_, before_pct) in zip(batteries[1:], batteries)
                if collecting(now) and now_pct != before_pct] == []
        assert [now for now, _ in batteries if collecting(now)] == [
            t * 10_000_000 for t in (*range(9, 15), *range(17, 23))]
        # one _move per tick lands every drone home at that tick
        assert landings == [(240_000_000, 2), (250_000_000, 7), (260_000_000, 92)]
        assert result.phase_trace == [
            "configured", "launching", "in_formation", "transit", "deploying",
            "collecting", "reporting", "collecting", "returning", "landed"]

    @pytest.mark.parametrize("profile", [1, 2])
    def test_each_beacon_a_live_leader_receives_gets_one_status_ack(self, profile):
        # the leader is lost in flight at 50 s and SD 3 takes over by a hard
        # handover; until then beacons reach the dead leader, which acks
        # none. Only profile 2 acks status reports.
        mission = _Mission(small_scenario(profile=profile, failures=[
            {"kind": "ld_sudden", "at_s": 50.0}]))
        delivered, status_acks = record_status_acks(mission)
        result = mission.run()
        promoted_at = 50_000_000 + round(result.recovery_times_s[0] * 1e6)
        assert [(t, src) for t, src, leader in delivered if leader is None]
        assert {leader for _, _, leader in delivered} == {1, None, 3}
        assert status_acks == (status_acks_by_rule(delivered) if profile == 2 else [])
        assert not [t for t, *_ in status_acks if 50_000_000 <= t < promoted_at]

    def test_soft_handover_skips_returning_and_failing_sds(self):
        # every drone runs low on the long hops; a soft handover used to
        # promote a returning or failing SD, and leadership then bounced
        # between drones every status period. Now the leader hands over to
        # the backup once, and the backup keeps command when it runs low.
        result = run_scenario(parse_config(LONG_HOPS))
        assert not any("promoted SD" in d for d in result.deviations)
        assert [d for d in result.deviations if "keeps command" in d] == [
            "t=1360000000us soft handover found no SD fit to lead; leader 3 keeps command"]

    def test_a_drone_that_landed_alone_is_given_no_target(self):
        # the demoted leader 1 flies home after its soft handover and lands
        # at 1,380 s, before the last session starts at 1,610 s
        result = run_scenario(parse_config(LONG_HOPS))
        assert result.collected_targets == [0, 0, 0, 1, 1]
        assert result.pending_targets == [1]
        assert "session 2: 1 targets deferred; only 1 SDs available" in result.deviations

    def test_a_leader_sent_home_in_transit_lands_at_the_dmc(self):
        # the demoted leader 1 used to be given a formation slot, where it
        # landed at 1,240 s, 2 km out; it now flies home and lands at 1,830 s
        mission = _Mission(parse_config(TRANSIT_HANDOVER))
        drone, dmc = mission.state.drones[1], mission.state.plan.dmc_position
        seen = []
        for t in (1_235_000_000, 1_835_000_000):
            mission.q.schedule(t, lambda: seen.append(
                (mission.state.leader_id, drone.phase, drone.position == dmc)))
        mission.run()
        assert seen == [(3, Phase.RETURNING, False), (3, Phase.LANDED, True)]
        assert mission.airborne_us[1] == 1_830_000_000

    def test_a_drone_that_landed_alone_makes_no_forced_call(self):
        # the demoted leader 1 lands alone before session 2's classification
        # at 1,790 s, where only SD 2, which can collect, is made to call
        mission = _Mission(parse_config({
            "n_sds": 2, "duration_s": 5000, "infection_rate": 0.0,
            "video": {"enabled": True, "forced_calls": 3, "call_duration_s": 30},
            "mission": {"n_sessions": 3, "session_duration_s": 120, "reposition_s": 700,
                        "transit_distance_m": 100}}))
        calls = []
        start_call = mission._start_call

        def recording_start_call(sd_id, start):
            calls.append((mission.q.now, sd_id))
            start_call(sd_id, start)

        mission._start_call = recording_start_call
        mission.run()
        assert mission.state.drones[1].phase is Phase.LANDED
        assert [sd_id for t, sd_id in calls if t == 1_790_000_000] == [2]
        assert mission.video_us[1] == 0

    def test_a_leader_sent_home_on_the_return_leg_moves_along_the_send_home_edge(self):
        # leader 1, already RETURNING with the mission, is sent home at
        # 1,290 s; the backup 3 runs low at 1,300 s and keeps command, and
        # every drone lands with the mission at 1,320 s
        mission = _Mission(parse_config(RETURN_LEG_HANDOVER))
        moves = []
        move = mission._move

        def recording_move(drones, event):
            moves.append((mission.q.now, [d.id for d in drones], event))
            move(drones, event)

        mission._move = recording_move
        drone, seen = mission.state.drones[1], []
        mission.q.schedule(1_295_000_000, lambda: seen.append(
            (mission.state.leader_id, drone.phase, drone.waypoint)))
        result = mission.run()
        assert moves[-2:] == [(1_290_000_000, [1], PhaseEvent.SENT_HOME),
                              (1_320_000_000, [1, 2, 3, 4], PhaseEvent.LANDED_AT_BASE)]
        assert seen == [(3, Phase.RETURNING, mission.state.plan.dmc_position)]
        assert result.deviations == [
            "t=1300000000us soft handover found no SD fit to lead; leader 3 keeps command"]
        assert mission.ended_at == 1_320_000_000 and not result.aborted

    def test_leader_lost_with_only_landed_or_failing_sds_aborts(self):
        # at 1,500 s drone 1 has landed alone and drone 2's battery is below
        # the floor, so neither may lead
        result = run_scenario(parse_config(dict(LONG_HOPS, failures=[
            {"kind": "ld_sudden", "drone_id": None, "at_s": 1500}])))
        assert result.aborted
        assert ("t=1500000000us leader lost with no SD able to lead; mission aborted"
                in result.deviations)
        assert not any("promoted SD 1" in d for d in result.deviations)

    def test_hard_handover_skips_an_overheated_sd(self):
        # the overheated leader 1 hands over to the backup 3 and stays an
        # SD; when 3 dies, SD 2 takes command, not drone 1
        result = run_scenario(parse_config({
            "n_sds": 5, "duration_s": 430, "infection_rate": 0.0,
            "mission": {"n_sessions": 1, "session_duration_s": 300, "reposition_s": 10,
                        "transit_distance_m": 100},
            "failures": [{"kind": "ld_predicted", "drone_id": None, "at_s": 18},
                         {"kind": "ld_sudden", "drone_id": None, "at_s": 218}],
        }))
        assert result.deviations == ["t=300003000us backup unavailable; promoted SD 2 instead"]

    def test_flight_acks_follow_soft_and_hard_handovers(self):
        # leader 1 hands over to the backup 3 at the 30 s status tick and 3
        # dies at 60 s, so SD 2 takes command, all in the first flight
        # window. Each SD's cached ack goes to the acting leader, which
        # sends none; no CSV row shows an ack's destination.
        mission = _Mission(small_scenario(failures=[
            {"kind": "ld_predicted", "drone_id": None, "at_s": 25.0},
            {"kind": "ld_sudden", "drone_id": None, "at_s": 60.0}]))
        slots = record_offers(mission, lambda sd_id: mission.state.leader_id)["flight_ack"]
        result = mission.run()
        offers = {}  # acting leader -> SD -> destinations of its acks
        for _, _, pkt, leader_id in slots:
            if pkt is not None:
                offers.setdefault(leader_id, {}).setdefault(pkt.src, set()).add(pkt.dst)
        assert result.deviations == ["t=60603000us backup unavailable; promoted SD 2 instead"]
        assert offers == {
            1: {sd: {1} for sd in (2, 3, 4, 5, 6, 7)},
            3: {sd: {3} for sd in (1, 2, 4, 5, 6, 7)},
            2: {sd: {2} for sd in (1, 4, 5, 6, 7)},
        }

    @pytest.mark.parametrize("flow, lost_at_s, window_us, offers", [
        # SD 5 is lost at 20.001 s, between SD 4's and SD 5's acks of the
        # waypoint broadcast delivered at 20,000,118 us
        ("flight_ack", 20.001, 2_500, [(20_000_518, 2), (20_000_718, 3), (20_000_918, 4),
                                       (20_001_318, 6), (20_001_518, 7)]),
        # SD 5 is lost between SD 4's and SD 5's beacons of the 20 s tick
        ("sd_status", 20.0045, 10_000, [(20_002_000, 2), (20_003_000, 3), (20_004_000, 4),
                                        (20_006_000, 6), (20_007_000, 7)]),
    ])
    def test_an_sd_lost_between_two_slots_of_one_train_sends_no_later_slot(
            self, flow, lost_at_s, window_us, offers):
        mission = _Mission(small_scenario(failures=[
            {"kind": "sd_sudden", "drone_id": 5, "at_s": lost_at_s}]))
        slots = record_offers(mission)[flow]
        mission.run()
        assert [(t, pkt.src) for t, _, pkt, _ in slots
                if pkt is not None and 20_000_000 <= t < 20_000_000 + window_us] == offers

    @settings(max_examples=40)
    @given(failures=st.lists(st.tuples(
        st.sampled_from(["ld_sudden", "ld_predicted", "sd_sudden"]),
        st.none() | st.integers(1, 7),
        st.integers(0, 430_000),  # ms
    ).filter(lambda f: f[0] != "sd_sudden" or f[1] is not None), max_size=3))
    # every SD, then the leader, is lost during the calls: the mission
    # aborts with video still in flight to the dead leader
    @example(failures=[("sd_sudden", i, 150_500) for i in range(2, 8)]
             + [("ld_sudden", None, 150_500)])
    def test_ack_and_beacon_slots_offer_exactly_the_live_unlanded_sds(self, failures):
        # every assigned SD files a case report and calls for 1 s per session,
        # so each relay runs too, and sees the cached acting leader state
        mission = _Mission(small_scenario(
            infection_rate=1.0, video={"enabled": True, "call_duration_s": 1},
            failures=[{"kind": kind, "drone_id": drone, "at_s": ms / 1000}
                      for kind, drone, ms in failures]))
        state = mission.state

        def at_slot(sd_id):  # (acks, beacons, acting leader) when the slot runs
            d = state.drones[sd_id]
            acks = d.alive and sd_id != state.leader_id and d.phase is not Phase.LANDED
            over = state.aborted or mission.mission_phase is Phase.LANDED
            return acks, acks and not over, state.leader_id

        slots = record_offers(mission, at_slot)
        delivered, status_acks = record_status_acks(mission)
        leader_state = record_leader_state(mission)
        mission.run()
        assert slots["flight_ack"] and slots["sd_status"] and status_acks
        assert status_acks == status_acks_by_rule(delivered)
        for k, flow in enumerate(("flight_ack", "sd_status")):
            for t, sd_id, pkt, sends in slots[flow]:
                offered = None if pkt is None else (pkt.flow, pkt.src, pkt.dst)
                expected = (flow, sd_id, sends[2]) if sends[k] else None
                assert offered == expected, (t, sd_id)
        for name, calls in leader_state.items():
            assert calls, name
            for t, cached, by_rule in calls:
                assert cached == by_rule, (name, t)

    @pytest.mark.parametrize("kind, at_s, recovery_s", [
        ("ld_predicted", 511, []), ("ld_sudden", 515, [0.603])])
    def test_handover_on_the_return_leg(self, kind, at_s, recovery_s):
        # every drone is returning, yet the backup 3 is fit to lead
        result = run_scenario(parse_config({
            "n_sds": 3, "duration_s": 900, "infection_rate": 0.0,
            "mission": {"n_sessions": 4, "session_duration_s": 60, "reposition_s": 60,
                        "transit_distance_m": 100},
            "failures": [{"kind": kind, "drone_id": None, "at_s": at_s}],
        }))
        assert not result.aborted
        assert result.energy[3]["role"] == "ld"
        assert result.recovery_times_s == recovery_s

    @pytest.mark.parametrize("failures", [
        # drone 2 dies mid-call, then the leader while the calls run
        [{"kind": "sd_sudden", "drone_id": 2, "at_s": 160},
         {"kind": "ld_sudden", "drone_id": None, "at_s": 170}],
        # the leader dies at the classification instant, after the case
        # reports are offered and before they reach it
        [{"kind": "ld_sudden", "drone_id": None, "at_s": 150}],
    ], ids=["caller_then_leader", "leader_at_classification"])
    def test_dead_callers_and_dead_leaders_relay_nothing(self, failures, monkeypatch):
        mission = _Mission(parse_config(dict(FOUR_CALLS, failures=failures)))
        offers = []  # (now, link, packet)
        send = Link.send

        def recording_send(link, pkt, on_deliver=None, n=1, created=None):
            offers.extend([(mission.q.now, link.name, pkt)] * n)
            return send(link, pkt, on_deliver, n, created)

        monkeypatch.setattr(Link, "send", recording_send)
        result = mission.run()
        for link, c in result.metrics.links.items():
            assert c["offered_pkts"] == c["delivered_pkts"] + c["dropped_pkts"], link
        for f in failures:
            if f["kind"] == "sd_sudden":
                up = [pkt.created_at for _, _, pkt in offers
                      if pkt.flow == "video_up" and pkt.src == f["drone_id"]]
                assert up and max(up) < f["at_s"] * 1e6
        (killed_at,) = [f["at_s"] * 1e6 for f in failures if f["kind"] == "ld_sudden"]
        (recovery_s,) = result.recovery_times_s
        promoted_at = killed_at + recovery_s * 1e6
        down = {(link, pkt.flow) for now, link, pkt in offers
                if killed_at < now < promoted_at}
        assert ("wlan", "video_up") in down  # the SDs kept offering frames
        assert ("wimax_dl", "video_down") in down  # and so did the DMC
        # nothing went up the long-range link or down the WLAN
        assert [x for x in down if x[0] == "wimax_ul" or x == ("wlan", "video_down")] == []

    def test_video_call_stops_when_the_mission_lands(self, monkeypatch):
        mission = _Mission(parse_config(CALL_OUTLIVES_MISSION))
        frames = []
        send = Link.send

        def recording_send(link, pkt, on_deliver=None, n=1, created=None):
            if pkt.access_class == VIDEO:
                frames.extend([mission.q.now] * n)
            return send(link, pkt, on_deliver, n, created)

        monkeypatch.setattr(Link, "send", recording_send)
        mission.run()
        assert mission.trace[-1] is Phase.LANDED
        assert frames and max(frames) < LANDED_AT_US
        # SD 2 is charged from its call's start to the landing, not for 900 s
        assert mission.video_us == {1: 0, 2: LANDED_AT_US - CALL_START_US, 3: 0, 4: 0}
        assert mission.video_us[2] < mission.alive_us[2]

    @pytest.mark.parametrize("video, failures, caller, charged_us, calls", [
        # SD 2 dies 10 s into its 600 s call, which frees the only slot for
        # session 1's call from SD 3
        ({"max_calls": 1, "forced_calls": 1},
         [{"kind": "sd_sudden", "drone_id": 2, "at_s": 160}], 2, 9_990_000, 2),
        # SD 3 takes command mid-call when the leader dies, and dies as leader
        ({"max_calls": 2, "forced_calls": 2},
         [{"kind": "ld_sudden", "at_s": 155}, {"kind": "ld_sudden", "at_s": 250}],
         3, 99_980_000, 3),
    ], ids=["sd_sudden", "promoted_caller_lost_as_leader"])
    def test_a_lost_callers_call_ends_at_the_loss(self, video, failures, caller, charged_us,
                                                  calls):
        mission = _Mission(parse_config({
            "duration_s": 700, "n_sds": 3, "infection_rate": 0.0,
            "video": {"enabled": True, "call_duration_s": 600, **video},
            "mission": {"session_duration_s": 120, "n_sessions": 2, "reposition_s": 60,
                        "transit_distance_m": 100},
            "failures": failures}))
        result = mission.run()
        assert mission.video_us[caller] == charged_us
        assert mission.video_us[caller] <= mission.alive_us[caller]
        assert result.calls_started == calls
        assert not any("rejected" in d for d in result.deviations)

    @pytest.mark.parametrize("failures, overheat, aborted_at_us", [
        # the leader and then the calling SD die
        ([{"kind": "ld_sudden", "at_s": 160}, {"kind": "sd_sudden", "drone_id": 2, "at_s": 161}],
         False, 161_000_000),
        # the only SD overheats after the leader dies, so the hard handover
        # finds no drone to promote
        ([{"kind": "ld_sudden", "at_s": 160}], True, 210_203_000),
    ], ids=["caller_lost", "no_drone_to_promote"])
    def test_video_call_cut_by_an_abort_is_charged_up_to_the_abort(
            self, failures, overheat, aborted_at_us):
        mission = _Mission(parse_config(dict(CALL_OUTLIVES_MISSION, n_sds=1,
                                             failures=failures)))
        if overheat:
            telemetry = mission.state.drones[2].telemetry
            mission.q.schedule(161_000_000, lambda: setattr(telemetry, "temperature_c", 200.0))
        result = mission.run()
        assert result.aborted
        assert result.deviations[-1].startswith(f"t={aborted_at_us}us ")
        assert mission.video_us == {1: 0, 2: aborted_at_us - CALL_START_US}

    def test_link_left_busy_is_an_internal_error(self):
        mission = _Mission(small_scenario())
        # every packet now queues behind a transmission that never ends
        mission.wlan._busy = True
        with pytest.raises(RunInvariantError, match="link wlan is not idle"):
            mission.run()
        assert not issubclass(RunInvariantError, ConfigError)

    def test_malformed_phase_trace_of_a_landed_mission_is_an_internal_error(self):
        mission = _Mission(small_scenario())
        mission.q.schedule(mission.horizon, lambda: mission.trace.append(Phase.TRANSIT))
        with pytest.raises(RunInvariantError, match="malformed phase trace"):
            mission.run()

    def test_status_report_the_leader_never_received_is_an_internal_error(self):
        mission = _Mission(small_scenario())
        state = mission.state

        def buffer_undelivered_report():
            state.buffered_reports += 1

        # a report appears in the leader's buffer without a delivery
        mission.q.schedule(mission.horizon, buffer_undelivered_report)
        with pytest.raises(RunInvariantError, match="status reports reached the leader"):
            mission.run()

    def test_roster_table_left_stale_is_an_internal_error(self):
        # the run ends in the first session; SD 3 fails at the horizon, and
        # nothing refreshes the tables that still hold its ack and beacon
        mission = _Mission(small_scenario(duration_s=100))
        drone = mission.state.drones[3]
        mission.q.schedule(mission.horizon, lambda: setattr(drone, "phase", Phase.FAILED))
        with pytest.raises(RunInvariantError, match="roster tables"):
            mission.run()

    def test_acting_leader_state_left_stale_is_an_internal_error(self):
        # the leader fails at the horizon and nothing refreshes its cached
        # state, which still relays; the roster tables stay right
        mission = _Mission(small_scenario(duration_s=100))
        leader = mission.state.leader()
        mission.q.schedule(mission.horizon, lambda: setattr(leader, "phase", Phase.FAILED))
        with pytest.raises(RunInvariantError, match="or leader 1, relaying True, miss"):
            mission.run()

    @pytest.mark.parametrize("cfg, drone_id, was, now, stale", [
        # the mission lands at 710 s; landed SD 2 fails at the horizon, which
        # leaves every table right and the live SD count one too high
        (parse_config({"n_sds": 3, "duration_s": 900, "infection_rate": 0.0,
                       "mission": {"n_sessions": 1, "session_duration_s": 60,
                                   "transit_distance_m": 100}}),
         2, Phase.LANDED, Phase.FAILED, "live_sds"),
        # SD 2, collecting at the horizon, turns back: airborne and returning
        (small_scenario(duration_s=100), 2, Phase.COLLECTING, Phase.RETURNING,
         "airborne, returning"),
        # the last SD fails: its ack and beacon, the ack ids and the count
        (small_scenario(duration_s=100), 7, Phase.COLLECTING, Phase.FAILED,
         "flight_acks, beacons, ack_ids, live_sds"),
    ], ids=["live_sds", "airborne_and_returning", "ack_ids"])
    def test_a_roster_epoch_field_left_stale_is_an_internal_error(
            self, cfg, drone_id, was, now, stale):
        # the end-of-run check compares every field the epoch builds from
        # the state with a fresh build, not only the tables and the acting
        # leader's state
        mission = _Mission(cfg)
        drone = mission.state.drones[drone_id]

        def change_phase():
            assert drone.phase is was
            drone.phase = now

        mission.q.schedule(mission.horizon, change_phase)
        with pytest.raises(RunInvariantError, match=f"miss the final state in {stale}$"):
            mission.run()

    def test_assigned_sd_that_cannot_collect_is_an_internal_error(self):
        # SD 2 holds target 0 from the 90 s session start and is sent home at
        # 100 s, which neither a handover nor a loss does to an SD with a
        # target; the 150 s classification finds it
        mission = _Mission(small_scenario())
        drone = mission.state.drones[2]
        mission.q.schedule(100_000_000, lambda: setattr(drone, "phase", Phase.RETURNING))
        with pytest.raises(RunInvariantError, match="SD 2 holds target 0 but cannot collect"):
            mission.run()

    def test_aborted_mission_with_an_sd_able_to_lead_is_an_internal_error(self):
        # the abort of test_hard_handover_with_no_sd_fit_to_lead_aborts at
        # 40.603 s, after which SD 2's battery is restored: an SD could lead
        mission = _Mission(parse_config(dict(FAILOVER, failures=[
            {"kind": "ld_sudden", "at_s": 40.0}])))
        state = mission.state

        def drain_every_sd():
            for sd in state.alive_sds():
                sd.telemetry.battery_pct = 10.0

        mission.q.schedule(40_100_000, drain_every_sd)
        mission.q.schedule(41_000_000, lambda: setattr(
            state.drones[2].telemetry, "battery_pct", 100.0))
        with pytest.raises(RunInvariantError,
                           match=r"aborted mission with leader 1 lost and SDs \[2\] able to lead"):
            mission.run()

    def test_abort_with_the_leader_alive_is_an_internal_error(self):
        # every cause of an abort loses the leader first
        mission = _Mission(small_scenario())
        mission.q.schedule(100_000_000, lambda: mission._abort("no cause"))
        with pytest.raises(RunInvariantError, match=r"abort \(no cause\) with leader 1 alive"):
            mission.run()

    def test_deadline_that_finds_the_leader_heard_is_an_internal_error(self):
        # the leader is lost at 40 s, last heard at its 40 s broadcast, so
        # the deadline is due at 40.602 s; a stray activity mark at 40.1 s
        # makes the dead leader look heard there
        mission = _Mission(small_scenario(failures=[{"kind": "ld_sudden", "at_s": 40.0}]))
        telemetry = mission.state.leader().telemetry
        mission.q.schedule(40_100_000, lambda: setattr(telemetry, "last_heard", 40_100_000))
        with pytest.raises(RunInvariantError, match="deadline found leader 1 heard"):
            mission.run()


class TestSweep:
    def test_data_rate_sweep_latency_non_increasing(self):
        base = small_scenario()
        results = sweep(base, "wlan.data_rate_mbps", [6, 18, 36, 54])
        assert len(results) == 4
        p50s = [r.metrics.latency[("wlan", "control")].p50_us for r in results]
        assert p50s == sorted(p50s, reverse=True)

    def test_swarm_size_sweep_stays_lossless(self):
        base = small_scenario()
        for r in sweep(base, "n_sds", [4, 6]):
            assert r.metrics.loss_ratio("wlan") == 0.0

    def test_empty_value_list_gives_empty_result(self):
        assert sweep(small_scenario(), "n_sds", []) == []

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="not sweepable"):
            sweep(small_scenario(), "wlan.overhead_bytes", [90])

    def test_points_equal_standalone_runs(self):
        base = small_scenario()
        point = sweep(base, "n_sds", [6])[0]
        d = to_dict(base)
        d["n_sds"] = 6
        d["seed"] = base.seed
        d["name"] = f"{base.name}-n_sds-6"
        alone = run_scenario(parse_config(d, name=d["name"]))
        assert point.metrics == alone.metrics
        assert point.energy == alone.energy

    def test_seed_axis_keeps_the_swept_seed(self):
        results = sweep(small_scenario(), "seed", [100, 200])
        assert [r.seed for r in results] == [100, 200]

    def test_every_value_is_checked_before_the_first_run(self, monkeypatch):
        runs = []
        monkeypatch.setattr("swarmsim.runner.run_scenario", runs.append)
        # 200 SDs is over the parser's limit; 4 and 6 would run
        with pytest.raises(ConfigError, match="'n_sds'=200 above maximum 100"):
            sweep(small_scenario(), "n_sds", [4, 6, 200])
        assert runs == []

    @pytest.mark.parametrize("axis, values", [("seed", [3, 3]), ("n_sds", [4, 6, 4.0])])
    def test_repeated_values_rejected(self, axis, values):
        with pytest.raises(ConfigError, match=f"values for axis '{axis}' repeat"):
            sweep_points(small_scenario(), axis, values)

    def test_unorderable_values_rejected_with_the_axis(self):
        with pytest.raises(ConfigError, match="axis 'n_sds' cannot be ordered"):
            sweep(small_scenario(), "n_sds", [1, "abc"])

    def test_axis_list_is_published(self):
        assert "wlan.data_rate_mbps" in SWEEPABLE_AXES


@pytest.fixture()
def small_config_file(tmp_path):
    cfg = small_scenario()
    path = tmp_path / "small.json"
    path.write_text(json.dumps(to_dict(cfg)), encoding="utf-8")
    return path


class TestCli:
    def test_run_writes_outputs_and_exits_zero(self, small_config_file, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(["run", str(small_config_file), "--out", str(out)])
        assert code == 0
        assert (out / "small.csv").exists()
        assert (out / "small.txt").exists()
        assert "loss" in capsys.readouterr().out

    def test_run_seed_flag_overrides_the_config(self, small_config_file, tmp_path):
        out = tmp_path / "results"
        main(["run", str(small_config_file), "--seed", "99", "--out", str(out)])
        lines = (out / "small.csv").read_text(encoding="utf-8").splitlines()
        assert lines[1].split(",")[1] == "99"

    def test_unknown_config_exits_one(self, capsys):
        code = main(["run", "no-such-scenario"])
        assert code == 1
        err = capsys.readouterr().err
        assert "scenario1_no_video" in err  # helpfully lists the presets

    def test_invalid_config_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n_sds": 0}', encoding="utf-8")
        assert main(["run", str(bad)]) == 1

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_duration_exits_one(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text('{"duration_s": %s}' % text, encoding="utf-8")
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "must be finite" in capsys.readouterr().err

    def test_overflowing_duration_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"duration_s": 1e308}', encoding="utf-8")
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "overflows the microsecond clock" in capsys.readouterr().err

    def test_sweep_with_mixed_type_values_exits_one(self, small_config_file, tmp_path,
                                                     capsys):
        code = main(["sweep", str(small_config_file), "--axis", "n_sds",
                     "--values", "1,abc", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "n_sds" in capsys.readouterr().err

    def test_aborted_mission_exits_two(self, tmp_path):
        data = {
            "name": "doomed", "seed": 1, "duration_s": 430, "n_sds": 1,
            "profile": 1, "infection_rate": 0.0,
            "mission": {"session_duration_s": 120, "n_sessions": 2,
                        "reposition_s": 60, "transit_distance_m": 100},
            "failures": [
                {"kind": "sd_sudden", "drone_id": 2, "at_s": 95.0},
                {"kind": "ld_sudden", "drone_id": None, "at_s": 100.0},
            ],
        }
        path = tmp_path / "doomed.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_sweep_command_writes_combined_csv(self, small_config_file, tmp_path):
        out = tmp_path / "results"
        code = main(["sweep", str(small_config_file), "--axis", "n_sds",
                     "--values", "4,5", "--out", str(out)])
        assert code == 0
        text = (out / "small-sweep.csv").read_text(encoding="utf-8")
        assert "small-n_sds-4#" in text
        assert "small-n_sds-5#" in text

    def test_presets_are_listed_and_loadable(self, capsys):
        assert main(["presets"]) == 0
        listed = capsys.readouterr().out
        for name in ("scenario1_no_video", "scenario2_video_2mbps",
                     "scenario2_video_4mbps", "scenario2_video_6mbps",
                     "scenario3_edca"):
            assert name in listed

    def test_energy_command_prints_the_durability_table(self, capsys):
        assert main(["energy", "scenario1_no_video"]) == 0
        out = capsys.readouterr().out
        assert "drone battery (LD)" in out
        assert "system limit" in out

    @pytest.mark.parametrize("data, verdict", [
        ({"n_sds": 4, "mission": THIRTY_SESSIONS}, "fits (limit 86)"),
        (LONG_HOPS, "does NOT fit (limit 2)"),
    ])
    def test_energy_command_prices_the_configs_mission(self, data, verdict, tmp_path,
                                                        capsys):
        path = tmp_path / "mission.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["energy", str(path)]) == 0
        assert capsys.readouterr().out.rstrip().endswith(verdict)


class TestPresets:
    def test_every_preset_parses_cleanly(self):
        from swarmsim.cli import _resolve_config, list_presets
        for name in list_presets():
            cfg = _resolve_config(name)
            assert cfg.name == name
