"""Failure prediction, leadership handover, reallocation, and isolation."""
import pytest

from swarmsim.errors import RunInvariantError
from swarmsim.failure import (
    COLLECTION_DETECTION_TIMEOUT_US,
    FLIGHT_DETECTION_TIMEOUT_US,
    PROMOTION_PROCESSING_US,
    DetectionRecord,
    detect_ld_loss,
    hard_handover,
    isolate_drone,
    predict_failure,
    reallocate_tasks,
    soft_handover,
)
from swarmsim.swarm import (
    MissionPlan,
    Phase,
    Telemetry,
    init_swarm,
)


def collecting_swarm(n=5):
    state = init_swarm(MissionPlan(dmc_position=(0.0, 1000.0)), n)
    for d in state.drones.values():
        d.phase = Phase.COLLECTING
    return state


class TestPrediction:
    def test_healthy_telemetry_predicts_nothing(self):
        assert not predict_failure(Telemetry(80.0, 30.0, 0))

    def test_battery_below_floor_predicts_failure(self):
        assert predict_failure(Telemetry(10.0, 30.0, 0))

    def test_temperature_above_ceiling_predicts_failure(self):
        assert predict_failure(Telemetry(80.0, 70.0, 0))


class TestSoftHandover:
    def test_backup_promoted_and_old_leader_kept_as_an_sd(self):
        state = collecting_swarm()
        state.leader().telemetry = Telemetry(14.0, 30.0, 0)
        state.buffered_reports = 1
        assert soft_handover(state, now_us=1_000) is state.drones[3]
        assert state.leader_id == 3
        # the runner, not the handover, sends a low-battery leader home
        assert state.drones[1].phase is Phase.COLLECTING
        assert 1 in [d.id for d in state.alive_sds()]
        # lossless by design: buffer survives, nothing charged to losses
        assert state.buffered_reports == 1
        assert state.lost_reports == 0
        assert state.recovery_times_us == []

    def test_refused_when_no_failure_predicted(self):
        state = collecting_swarm()
        with pytest.raises(RunInvariantError):
            soft_handover(state, now_us=1_000)

    def test_dead_backup_falls_back_to_lowest_id_sd(self):
        state = collecting_swarm()
        state.leader().telemetry = Telemetry(14.0, 30.0, 0)
        state.drones[3].phase = Phase.FAILED
        assert soft_handover(state, now_us=1_000) is state.drones[2]
        assert state.leader_id == 2
        assert state.deviations == ["t=1000us backup unavailable; promoted SD 2 instead"]

    def test_returning_or_failing_sds_are_not_promoted(self):
        state = collecting_swarm(n=3)
        state.leader().telemetry = Telemetry(14.0, 30.0, 0)
        # the runner sends an SD home alone only when its battery is low
        state.drones[3].phase = Phase.RETURNING
        state.drones[3].telemetry = Telemetry(12.0, 30.0, 0)
        state.drones[2].telemetry = Telemetry(10.0, 30.0, 0)
        assert soft_handover(state, now_us=1_000) is state.drones[4]
        assert state.leader_id == 4
        assert any("backup unavailable" in d for d in state.deviations)

    def test_promoted_sds_target_is_pending_when_every_sd_holds_one(self):
        # an overheating leader stays in the swarm as an SD; it must not
        # inherit the target of the SD that replaces it
        state = collecting_swarm(n=4)
        state.leader().telemetry = Telemetry(80.0, 70.0, 0)
        state.assignments = {2: 10, 3: 11, 4: 12, 5: 13}
        soft_handover(state, now_us=1_000)
        assert state.leader_id == 3
        assert state.drones[1].phase is Phase.COLLECTING
        assert state.assignments == {2: 10, 4: 12, 5: 13}
        assert state.pending_targets == [11]

    def test_leader_keeps_command_when_no_sd_is_fit_to_lead(self):
        state = collecting_swarm(n=2)
        state.leader().telemetry = Telemetry(14.0, 30.0, 0)
        state.drones[2].telemetry = Telemetry(14.0, 30.0, 0)
        state.drones[3].telemetry = Telemetry(80.0, 70.0, 0)
        assert soft_handover(state, now_us=1_000) is None
        assert state.leader_id == 1
        assert state.drones[1].phase is Phase.COLLECTING
        assert state.deviations == ["t=1000us soft handover found no SD fit to lead; "
                                    "leader 1 keeps command"]


class TestDetection:
    def test_flight_timeout_is_three_missed_broadcasts(self):
        assert FLIGHT_DETECTION_TIMEOUT_US == 600_000

    def test_collection_timeout_is_two_missed_statuses(self):
        assert COLLECTION_DETECTION_TIMEOUT_US == 60_000_000

    def test_flight_silence_over_timeout_detected(self):
        state = collecting_swarm()
        state.leader().telemetry.last_heard = 0
        rec = detect_ld_loss(state, 610_000, FLIGHT_DETECTION_TIMEOUT_US)
        assert rec == DetectionRecord(1, FLIGHT_DETECTION_TIMEOUT_US)

    def test_flight_silence_under_timeout_ignored(self):
        state = collecting_swarm()
        state.leader().telemetry.last_heard = 0
        assert detect_ld_loss(state, 390_000, FLIGHT_DETECTION_TIMEOUT_US) is None

    def test_collection_silence_over_timeout_detected(self):
        state = collecting_swarm()
        state.leader().telemetry.last_heard = 0
        rec = detect_ld_loss(state, 61_000_000, COLLECTION_DETECTION_TIMEOUT_US)
        assert rec is not None and rec.timeout_us == COLLECTION_DETECTION_TIMEOUT_US


class TestHardHandover:
    def test_promotion_recovery_and_aggregate_loss(self):
        state = collecting_swarm()
        state.buffered_reports = 2
        state.drones[1].phase = Phase.FAILED
        detection = DetectionRecord(1, COLLECTION_DETECTION_TIMEOUT_US)
        new = hard_handover(state, detection, now_us=61_000_000, failed_at_us=30_000_000)
        assert new is state.drones[3]
        assert state.leader_id == 3
        # the in-flight aggregate dies with the old leader
        assert state.buffered_reports == 0
        assert state.lost_reports == 2
        # recovery measures failure-to-promotion
        assert state.recovery_times_us == [31_000_000]

    def test_backup_dead_falls_back_to_lowest_id(self):
        state = collecting_swarm()
        state.drones[1].phase = Phase.FAILED
        state.drones[3].phase = Phase.FAILED
        detection = DetectionRecord(1, COLLECTION_DETECTION_TIMEOUT_US)
        new = hard_handover(state, detection, now_us=61_000_000, failed_at_us=0)
        assert new is state.drones[2]
        assert state.leader_id == 2
        assert state.deviations == ["t=61000000us backup unavailable; promoted SD 2 instead"]

    def test_no_sd_fit_to_lead_promotes_no_one(self):
        # the runner aborts the mission on None; the handover only charges
        # the lost aggregate and leaves the leader and the abort flag alone
        state = collecting_swarm(n=2)
        state.buffered_reports = 3
        state.drones[1].phase = Phase.FAILED
        state.drones[2].phase = Phase.FAILED
        state.drones[3].telemetry = Telemetry(10.0, 30.0, 0)
        detection = DetectionRecord(1, COLLECTION_DETECTION_TIMEOUT_US)
        assert hard_handover(state, detection, now_us=61_000_000, failed_at_us=0) is None
        assert state.leader_id == 1
        assert state.backup_id == 3
        assert not state.aborted
        assert state.deviations == []
        assert state.recovery_times_us == []
        assert state.lost_reports == 3

    def test_promoted_leaders_own_target_is_reassigned(self):
        state = collecting_swarm(n=3)
        state.drones[1].phase = Phase.FAILED
        state.assignments = {3: 7}
        detection = DetectionRecord(1, COLLECTION_DETECTION_TIMEOUT_US)
        hard_handover(state, detection, now_us=61_000_000, failed_at_us=0)
        assert state.leader_id == 3
        # target 7 moved to the lowest-id idle SD rather than dropped
        assert state.assignments == {2: 7}
        assert state.pending_targets == []


class TestReallocation:
    def test_failed_sds_target_moves_to_idle_sd(self):
        state = collecting_swarm(n=4)
        state.assignments = {2: 11, 3: 12}
        state.drones[2].phase = Phase.FAILED
        reallocate_tasks(state, 2)
        assert state.assignments == {3: 12, 4: 11}

    def test_no_idle_sd_queues_target_for_next_session(self):
        state = collecting_swarm(n=2)
        state.assignments = {2: 11, 3: 12}
        state.drones[2].phase = Phase.FAILED
        reallocate_tasks(state, 2)
        assert state.assignments == {3: 12}
        assert state.pending_targets == [11]

    def test_idle_sd_failure_changes_nothing(self):
        state = collecting_swarm(n=3)
        state.assignments = {2: 11}
        state.drones[4].phase = Phase.FAILED
        reallocate_tasks(state, 4)
        assert state.assignments == {2: 11}
        assert state.pending_targets == []

    def test_leader_ids_are_rejected(self):
        state = collecting_swarm()
        with pytest.raises(RunInvariantError):
            reallocate_tasks(state, 1)


class TestIsolation:
    def test_isolated_drone_reaches_isolated_phase(self):
        state = collecting_swarm()
        state.drones[4].phase = Phase.FAILED
        isolate_drone(state, 4)
        assert state.drones[4].phase is Phase.ISOLATED
        assert not state.drones[4].airborne
        assert all(d.id != 4 for d in state.alive_sds())

    def test_isolating_the_live_leader_is_refused(self):
        state = collecting_swarm()
        with pytest.raises(RunInvariantError):
            isolate_drone(state, 1)

    def test_double_isolation_is_an_internal_error(self):
        # an SD is isolated once, at its loss, and a leader once, at its
        # hard handover; a second isolation is a simulator defect
        state = collecting_swarm()
        state.drones[4].phase = Phase.FAILED
        isolate_drone(state, 4)
        with pytest.raises(RunInvariantError, match="drone 4 is not failed"):
            isolate_drone(state, 4)
        assert state.drones[4].phase is Phase.ISOLATED


class TestReturnToBase:
    def test_return_leg_duration_matches_cruise_speed(self):
        from swarmsim.swarm import advance_kinematics
        state = collecting_swarm()
        sd = state.drones[2]
        sd.position = (1000.0, 1000.0)
        sd.phase = Phase.RETURNING
        sd.waypoint = state.plan.dmc_position
        # 1 km at 12 km/h is 300 s of flight
        advance_kinematics(state, 299_000_000)
        assert sd.position != state.plan.dmc_position
        advance_kinematics(state, 1_000_000)
        assert sd.position == state.plan.dmc_position


class TestFailureEvents:
    def test_promotion_processing_is_one_millisecond(self):
        assert PROMOTION_PROCESSING_US == 1_000
