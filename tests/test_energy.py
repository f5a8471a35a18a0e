"""Payload ratios, flight-time derating, energy budgets, and durability."""
import pytest
from hypothesis import given, strategies as st

from swarmsim.energy import (
    ComputeRadioPower,
    DeratingCurve,
    DroneSpec,
    EnergyError,
    EnergyParams,
    PayloadManifest,
    battery_feasible,
    derate_flight_time,
    durability_report,
    format_durability,
    max_compute_sessions,
    max_rotor_sessions,
    network_compute_energy,
    payload_ratio,
    rotor_energy,
    total_flight_time,
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
        manifest = PayloadManifest()
        ld = sum(e.weight_g for e in manifest.elements if e.on_ld)
        sd = sum(e.weight_g for e in manifest.elements if e.on_sd)
        assert round(payload_ratio(ld, 1375), 1) == 14.7
        assert round(payload_ratio(sd, 1375), 1) == 14.4

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(EnergyError):
            payload_ratio(100, 0)


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
        assert total_flight_time(6, 12, 1) == 24.0

    def test_round_trip_only(self):
        assert total_flight_time(6, 0, 1) == 12.0

    def test_short_leg_variant(self):
        assert total_flight_time(5, 12, 1) == 22.0


class TestRotorEnergy:
    def test_full_budget_drains_the_battery(self):
        assert rotor_energy(24.0, payload_pct=15.0) == pytest.approx(89.2)

    def test_no_flight_no_energy(self):
        assert rotor_energy(0.0, payload_pct=15.0) == 0.0

    def test_linear_in_flight_time(self):
        assert rotor_energy(12.0, payload_pct=15.0) == pytest.approx(44.6)


class TestComputeEnergy:
    def test_leader_idle_session(self):
        assert network_compute_energy(1800, "ld") == pytest.approx(0.7928571428, abs=1e-6)

    def test_slave_session(self):
        assert network_compute_energy(1800, "sd") == pytest.approx(1.48)

    def test_zero_duration(self):
        assert network_compute_energy(0, "sd") == 0.0

    def test_video_session_costs_more(self):
        idle = network_compute_energy(1800, "sd", session_kind="idle")
        video = network_compute_energy(1800, "sd", session_kind="video")
        assert video > idle


class TestSessionLimits:
    def test_drone_battery_supports_12_sessions(self):
        assert max_rotor_sessions(role="sd") == 12
        assert max_rotor_sessions(role="ld") == 12

    def test_leader_compute_battery_supports_28_sessions(self):
        assert max_compute_sessions("ld") == 28

    def test_slave_compute_battery_supports_15_sessions(self):
        assert max_compute_sessions("sd") == 15

    def test_lighter_payload_extends_the_limit(self):
        assert max_rotor_sessions(role="sd", payload_g=0.0) >= 12

    @pytest.mark.parametrize("reposition_min", [0.0, -1.0])
    def test_free_repositioning_has_no_session_limit(self, reposition_min):
        # with no flight time per session the count would grow forever
        with pytest.raises(EnergyError, match="reposition time must be positive"):
            max_rotor_sessions(params=EnergyParams(reposition_min=reposition_min))


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
