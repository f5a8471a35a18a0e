"""Phase machine, formation geometry, kinematics."""
import math

import pytest
from hypothesis import given, strategies as st

from swarmsim.errors import RunInvariantError
from swarmsim.swarm import (
    MissionPlan,
    Phase,
    PhaseEvent,
    SPEED_MS,
    advance_kinematics,
    formation_positions,
    init_swarm,
    transition_phase,
    validate_phase_trace,
)


class TestPhaseMachine:
    def test_launch_command_from_configured(self):
        assert transition_phase(Phase.CONFIGURED, PhaseEvent.LAUNCH_COMMAND) is Phase.LAUNCHING

    def test_data_sufficient_ends_collection(self):
        assert transition_phase(
            Phase.COLLECTING, PhaseEvent.DATA_SUFFICIENT_CONFIRMATION
        ) is Phase.RETURNING

    def test_illegal_edge_rejected(self):
        with pytest.raises(RunInvariantError):
            transition_phase(Phase.LANDED, PhaseEvent.DATA_SUFFICIENT_CONFIRMATION)

    def test_any_live_phase_can_fail(self):
        for phase in Phase:
            if phase in (Phase.FAILED, Phase.ISOLATED):
                continue
            assert transition_phase(phase, PhaseEvent.FAILURE_DETECTED) is Phase.FAILED

    @pytest.mark.parametrize("phase", [
        Phase.LAUNCHING, Phase.IN_FORMATION, Phase.TRANSIT, Phase.DEPLOYING,
        Phase.COLLECTING, Phase.REPORTING, Phase.RETURNING])
    def test_any_launched_live_phase_can_be_sent_home(self, phase):
        assert transition_phase(phase, PhaseEvent.SENT_HOME) is Phase.RETURNING

    @pytest.mark.parametrize("phase", [
        Phase.CONFIGURED, Phase.LANDED, Phase.FAILED, Phase.ISOLATED])
    def test_a_grounded_or_lost_drone_cannot_be_sent_home(self, phase):
        with pytest.raises(RunInvariantError, match="event SENT_HOME"):
            transition_phase(phase, PhaseEvent.SENT_HOME)

    def test_failed_then_isolated(self):
        assert transition_phase(Phase.FAILED, PhaseEvent.ISOLATE) is Phase.ISOLATED

    def test_single_session_trace_valid(self):
        trace = [Phase.CONFIGURED, Phase.LAUNCHING, Phase.IN_FORMATION,
                 Phase.TRANSIT, Phase.DEPLOYING, Phase.COLLECTING,
                 Phase.RETURNING, Phase.LANDED]
        assert validate_phase_trace(trace)

    def test_multi_session_trace_valid(self):
        trace = [Phase.CONFIGURED, Phase.LAUNCHING, Phase.IN_FORMATION,
                 Phase.TRANSIT, Phase.DEPLOYING,
                 Phase.COLLECTING, Phase.REPORTING,
                 Phase.COLLECTING, Phase.REPORTING,
                 Phase.COLLECTING, Phase.RETURNING, Phase.LANDED]
        assert validate_phase_trace(trace)

    def test_trace_missing_return_rejected(self):
        trace = [Phase.CONFIGURED, Phase.LAUNCHING, Phase.IN_FORMATION,
                 Phase.TRANSIT, Phase.DEPLOYING, Phase.COLLECTING, Phase.LANDED]
        assert not validate_phase_trace(trace)


class TestInitSwarm:
    def test_ten_sds_builds_eleven_drones(self):
        state = init_swarm(MissionPlan(), 10)
        assert len(state.drones) == 11
        assert state.leader_id == 1
        assert state.backup_id == 3

    def test_minimal_swarm(self):
        state = init_swarm(MissionPlan(), 1)
        assert sorted(state.drones) == [1, 2]
        assert state.backup_id == 2


class TestFormationGeometry:
    def test_linear_pair_straddles_the_axis(self):
        slots = formation_positions(2, (100.0, 100.0))
        laterals = sorted(round(y - 100.0, 9) for _, y in slots)
        assert laterals == [-12.0, 12.0]
        assert all(x == 88.0 for x, _ in slots)

    def test_single_sd_sits_one_spacing_behind(self):
        (slot,) = formation_positions(1, (50.0, 50.0))
        assert slot == (38.0, 50.0)

    @given(n=st.integers(1, 40))
    def test_slot_count_and_uniqueness(self, n):
        slots = formation_positions(n, (1000.0, 1000.0))
        assert len(slots) == n
        assert len({(round(x, 6), round(y, 6)) for x, y in slots}) == n


class TestKinematics:
    def _flying_state(self):
        state = init_swarm(MissionPlan(dmc_position=(0.0, 0.0)), 1)
        for d in state.drones.values():
            d.phase = Phase.TRANSIT
        return state

    def test_cruise_speed_covers_1km_in_300s(self):
        state = self._flying_state()
        ld = state.drones[1]
        ld.position = (0.0, 0.0)
        ld.waypoint = (1000.0, 0.0)
        advance_kinematics(state, 300_000_000)
        assert ld.position[0] == pytest.approx(1000.0)

    def test_landed_drone_holds_position(self):
        state = self._flying_state()
        sd = state.drones[2]
        sd.phase = Phase.LANDED
        sd.position = (5.0, 5.0)
        sd.waypoint = (500.0, 500.0)
        advance_kinematics(state, 60_000_000)
        assert sd.position == (5.0, 5.0)

    @given(dt_s=st.integers(1, 600))
    def test_step_never_exceeds_speed_times_dt(self, dt_s):
        state = self._flying_state()
        ld = state.drones[1]
        ld.position = (0.0, 0.0)
        ld.waypoint = (2000.0, 2000.0)
        advance_kinematics(state, dt_s * 1_000_000)
        moved = math.dist((0.0, 0.0), ld.position)
        assert moved <= SPEED_MS * dt_s * (1 + 1e-9)
