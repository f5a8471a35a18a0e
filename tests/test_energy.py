"""Payload ratios, flight-time derating, energy budgets, and durability."""
import pytest
from hypothesis import given, strategies as st

from swarmsim.config import ConfigError, parse_config
from swarmsim.energy import (
    BATTERY_CHARGE_MAH,
    BATTERY_VOLTAGE_V,
    BATTERY_WH,
    MAX_SESSIONS,
    PAYLOAD,
    PAYLOAD_G,
    battery_feasible,
    derate_flight_time,
    durability_report,
    flight_budget_min,
    format_durability,
    mission_plan,
    payload_ratio,
    price,
    reference_plan,
    session_limits,
)


class TestPayloadRatio:
    def test_leader_payload_ratio(self):
        ratio = payload_ratio(201.6, 1375)
        assert round(ratio, 1) == 14.7
        assert ratio == pytest.approx(14.7, abs=0.05)

    def test_slave_payload_ratio(self):
        assert payload_ratio(198, 1375) == pytest.approx(14.4, abs=0.05)

    def test_zero_payload(self):
        assert payload_ratio(0, 1375) == 0.0

    def test_manifest_totals_match_the_published_ratios(self):
        ld = sum(grams for _, grams, on_ld, _ in PAYLOAD if on_ld)
        sd = sum(grams for _, grams, _, on_sd in PAYLOAD if on_sd)
        assert (PAYLOAD_G["ld"], PAYLOAD_G["sd"]) == (ld, sd)
        assert round(payload_ratio(ld, 1375), 1) == 14.7
        assert round(payload_ratio(sd, 1375), 1) == 14.4

    def test_flight_battery_energy_is_voltage_times_charge(self):
        nominal = BATTERY_VOLTAGE_V * BATTERY_CHARGE_MAH / 1000.0
        assert abs(nominal - BATTERY_WH) <= 0.01 * BATTERY_WH


class TestDerating:
    def test_15pct_payload_cuts_30min_to_24(self):
        assert derate_flight_time(30, 15) == pytest.approx(24.0, abs=0.1)

    def test_zero_payload_keeps_base_endurance(self):
        assert derate_flight_time(30, 0) == 30.0

    def test_monotone_in_payload(self):
        assert derate_flight_time(30, 10) >= derate_flight_time(30, 15)

    @given(pct=st.floats(0.0, 15.0))
    def test_derated_time_never_exceeds_base(self, pct):
        t = derate_flight_time(30, pct)
        assert 0 < t <= 30.0


class TestFlightTime:
    def test_full_mission_uses_the_derated_budget_exactly(self):
        # the reference plan's 12 sessions fly 24 minutes: both legs and 12 hops
        assert reference_plan(12) == (24.0 * 60, 12 * 1800.0)

    def test_round_trip_only(self):
        assert reference_plan(0) == (12.0 * 60, 0.0)

    def test_short_leg_variant(self):
        # 4.5-minute transits: out is 30 s formation + transit + 30 s
        # deployment, back is the transit, 10 minutes in all; a mission hops
        # between sessions, not after the last one, so 12 sessions fly 11 hops
        mission = parse_config({"mission": {
            "transit_distance_m": 900, "session_duration_s": 1800,
            "reposition_s": 60}}).mission
        assert mission_plan(mission)(12) == (21.0 * 60, 21.0 * 60 + 12 * 1800.0)


class TestRotorEnergy:
    def test_full_budget_drains_the_battery(self):
        for role in ("ld", "sd"):
            assert flight_budget_min(role) == pytest.approx(24.0, abs=0.2)
            rotor, _ = price(role, flight_budget_min(role) * 60, 0)
            assert rotor == pytest.approx(89.2)

    def test_no_flight_no_energy(self):
        assert price("sd", 0, 0) == (0.0, 0.0)

    def test_linear_in_flight_time(self):
        rotor, _ = price("sd", flight_budget_min("sd") * 30, 0)
        assert rotor == pytest.approx(44.6)


class TestComputeEnergy:
    def test_leader_idle_session(self):
        assert price("ld", 0, 1800)[1] == pytest.approx(0.7928571428, abs=1e-6)

    def test_slave_session(self):
        assert price("sd", 0, 1800)[1] == pytest.approx(1.48)

    def test_zero_duration(self):
        assert price("sd", 0, 0)[1] == 0.0

    def test_video_session_costs_more(self):
        idle = price("sd", 0, 1800)[1]
        video = price("sd", 0, 1800, video_s=1800)[1]
        assert video == pytest.approx(idle * 1.5)


class TestSessionLimits:
    def test_drone_battery_supports_12_sessions(self):
        assert session_limits("sd")[0] == 12
        assert session_limits("ld")[0] == 12

    def test_leader_compute_battery_supports_28_sessions(self):
        assert session_limits("ld")[1] == 28

    def test_slave_compute_battery_supports_15_sessions(self):
        assert session_limits("sd")[1] == 15

    def test_lighter_payload_extends_the_limit(self):
        # a worker carries 198 g, a leader 201.6 g
        assert flight_budget_min("sd") > flight_budget_min("ld")
        assert derate_flight_time(30, 0) > flight_budget_min("sd")

    @pytest.mark.parametrize("reposition_s", [0.0, -1.0])
    def test_free_repositioning_has_no_session_limit(self, reposition_s):
        # with no flight per session the drone battery never binds, so the
        # search stops at the parser's session maximum; the parser refuses
        # a negative hop
        data = {"mission": {"reposition_s": reposition_s, "session_duration_s": 60}}
        if reposition_s < 0:
            with pytest.raises(ConfigError, match="reposition_s'=-1.0 below minimum 0"):
                parse_config(data)
            return
        plan = mission_plan(parse_config(data).mission)
        # 660 s of legs plus 439 one-minute sessions drain 22.2 Wh at 2.96 W
        assert session_limits("sd", plan) == (MAX_SESSIONS, 439)


class TestMissionPlan:
    # 4 SDs, 30 sessions of 5 min, 10 s hops, 100 m transit
    MISSION = {"session_duration_s": 300, "n_sessions": 30, "reposition_s": 10,
               "transit_distance_m": 100}

    def test_legs_come_from_the_mission_fields(self):
        mission = parse_config({"mission": self.MISSION}).mission
        # out: 30 s formation + 30 s transit + 30 s deployment; back: 30 s
        airborne, alive = mission_plan(mission)(30)
        assert airborne == 120 + 29 * 10
        assert alive == airborne + 30 * 300

    def test_thirty_short_sessions_fit(self):
        mission = parse_config({"mission": self.MISSION}).mission
        ok, limit = battery_feasible(mission, mission_plan(mission))
        assert ok and limit == 86  # the worker's compute battery binds

    def test_long_hops_exhaust_the_drone_battery(self):
        mission = parse_config({"mission": {
            "n_sessions": 3, "session_duration_s": 60, "reposition_s": 700,
            "transit_distance_m": 100}}).mission
        ok, limit = battery_feasible(mission, mission_plan(mission))
        assert not ok and limit == 2


class TestDurability:
    def test_report_rows_match_published_figures(self):
        rows = durability_report().rows
        got = [(r.battery, r.max_sessions, r.max_hours) for r in rows]
        assert got == [
            ("drone battery (LD)", 12, 6.0),
            ("drone battery (SD)", 12, 6.0),
            ("compute battery (LD)", 28, 14.0),
            ("compute battery (SD)", 15, 7.5),
        ]

    def test_system_limit_is_six_hours(self):
        text = format_durability(durability_report())
        assert "system limit" in text
        last = text.strip().splitlines()[-1]
        assert last.split()[-2:] == ["12", "6"]

    def test_thirteenth_session_is_infeasible_on_the_drone_battery(self):
        class Plan:
            n_sessions = 13
        ok, limit = battery_feasible(Plan)
        assert not ok
        assert limit == 12

    def test_twelve_sessions_are_feasible(self):
        class Plan:
            n_sessions = 12
        ok, limit = battery_feasible(Plan)
        assert ok
        assert limit == 12
