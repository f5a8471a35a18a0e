"""Failure handling: prediction, leadership handover, task reallocation,
and isolation.

Two handover flavors exist. A soft handover runs while the leader is still
healthy enough to cooperate: the backup inherits the aggregation buffer, so
nothing is lost. A hard handover follows an unplanned leader loss detected
by watchdog timeout: the runner computes the detection at the loss, at the
first watchdog slot past the timeout, the instant a polling watchdog would
first see the silence, and calls ``detect_ld_loss`` there. The in-flight
aggregate dies with the old leader and is charged to the loss metrics, and
the failure-to-command gap is recorded as the recovery time.

One rule, ``can_lead``, decides who may take command: a live drone that has
not landed and predicts no failure of its own. Both handovers and the
runner's abort checks ask it. A drone sent home alone needs no test of its
own: it went because its battery is below the floor, and battery never rises.

Leadership is ``SwarmState.leader_id`` alone, and only ``_promote`` moves
it: both handovers call it and return the new leader, or None when no SD
can lead. The demoted leader is an SD from then on. Of the steps here
only ``isolate_drone`` writes a phase; the runner sends a demoted leader
home when its battery is below the floor. A soft handover that finds no
one leaves the leader in command; after a hard one the runner aborts the
mission, and only the runner sets ``aborted``. Targets orphaned by a
promotion or an SD failure go back through ``swarm.assign_targets``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import RunInvariantError
from .swarm import (
    Drone,
    Phase,
    PhaseEvent,
    SwarmState,
    assign_targets,
    transition_phase,
)

# Watchdog timeouts: three missed 0.2 s waypoint broadcasts in flight,
# two missed 30 s leader status periods while collecting.
FLIGHT_DETECTION_TIMEOUT_US = 600_000
COLLECTION_DETECTION_TIMEOUT_US = 60_000_000
# Simulated processing between detection and the backup assuming command.
PROMOTION_PROCESSING_US = 1_000
# Telemetry that predicts a failure: battery below the floor or temperature
# above the ceiling.
BATTERY_FLOOR_PCT = 15.0
TEMPERATURE_CEILING_C = 60.0


class FailureKind:
    LD_SUDDEN = "ld_sudden"
    LD_PREDICTED = "ld_predicted"
    SD_SUDDEN = "sd_sudden"
    ALL = (LD_SUDDEN, LD_PREDICTED, SD_SUDDEN)


@dataclass(frozen=True)
class FailureEvent:
    kind: str
    drone_id: int | None  # None: whichever drone leads at fire time
    at_us: int


@dataclass(frozen=True)
class DetectionRecord:
    leader_id: int
    timeout_us: int  # the watchdog timeout the silence exceeded


def predict_failure(telemetry) -> bool:
    """True iff battery or temperature crossed its threshold."""
    return (
        telemetry.battery_pct < BATTERY_FLOOR_PCT
        or telemetry.temperature_c > TEMPERATURE_CEILING_C
    )


def can_lead(drone: Drone) -> bool:
    """Whether a drone may take command: alive, not landed, and predicting
    no failure of its own."""
    return (drone.alive and drone.phase is not Phase.LANDED
            and not predict_failure(drone.telemetry))


def _promote(state: SwarmState, now_us: int) -> Drone | None:
    """Give command to the backup if it can lead, else to the lowest-id SD
    that can, recorded as a deviation. Returns the new leader, or None and
    changes nothing when no SD can lead."""
    sds = [d for d in state.alive_sds() if can_lead(d)]
    if not sds:
        return None
    new = next((d for d in sds if d.id == state.backup_id), None)
    if new is None:
        new = sds[0]
        state.deviations.append(
            f"t={now_us}us backup unavailable; promoted SD {new.id} instead")
    else:
        state.backup_id = None  # slot consumed; next failure falls back
    # hand the target on while the old leader still leads and the new one
    # still holds it, so neither of them is given it
    if new.id in state.assignments:
        assign_targets(state, [state.assignments[new.id]])
        del state.assignments[new.id]
    state.leader_id = new.id
    return new


def soft_handover(state: SwarmState, now_us: int) -> Drone | None:
    """Proactive leadership transfer ahead of a predicted leader failure.

    The backup inherits the aggregation buffer, so no report is lost. The
    old leader demotes to an SD. Requires the prediction to actually hold.
    Returns the new leader; with no SD fit to lead the leader keeps
    command, recorded as a deviation, and None is returned.
    """
    old = state.leader()
    if not old.alive:
        raise RunInvariantError("soft handover needs a live leader; use hard_handover")
    if not predict_failure(old.telemetry):
        raise RunInvariantError("soft handover without a failure prediction")
    new = _promote(state, now_us)
    if new is None:
        state.deviations.append(
            f"t={now_us}us soft handover found no SD fit to lead; "
            f"leader {old.id} keeps command")
        return None
    return new


def hard_handover(
    state: SwarmState,
    detection: DetectionRecord,
    now_us: int,
    failed_at_us: int,
) -> Drone | None:
    """Takeover after an unplanned leader loss at ``failed_at_us``.

    The dead leader's buffered aggregate is charged to the loss counters,
    the new leader from ``_promote`` assumes command, and the
    failure-to-command gap is recorded as a recovery-time sample. Returns
    the new leader, or None when no SD can lead.
    """
    old = state.drones[detection.leader_id]
    if old.alive and now_us - old.telemetry.last_heard <= detection.timeout_us:
        raise RunInvariantError("hard handover requires a dead or long-unheard leader")
    state.lost_reports += state.buffered_reports
    state.buffered_reports = 0
    new = _promote(state, now_us)
    if new is not None:
        state.recovery_times_us.append(now_us - failed_at_us)
    return new


def detect_ld_loss(state: SwarmState, now_us: int,
                   timeout_us: int) -> DetectionRecord | None:
    """Watchdog check run by the backup against the leader's last activity."""
    leader = state.leader()
    if now_us - leader.telemetry.last_heard > timeout_us:
        return DetectionRecord(leader_id=leader.id, timeout_us=timeout_us)
    return None


def reallocate_tasks(state: SwarmState, failed_sd: int) -> None:
    """Move a failed SD's target to an idle alive SD, else queue it for the
    next session so coverage is preserved."""
    if failed_sd == state.leader_id:
        raise RunInvariantError("reallocate_tasks applies to SDs; leaders hand over")
    target = state.assignments.pop(failed_sd, None)
    if target is not None:
        assign_targets(state, [target])


def isolate_drone(state: SwarmState, drone_id: int) -> None:
    """Cut a failed drone out of the network, once."""
    drone = state.drones[drone_id]
    if drone_id == state.leader_id:
        raise RunInvariantError("cannot isolate the acting leader; hand over first")
    if drone.phase is not Phase.FAILED:
        raise RunInvariantError(f"drone {drone_id} is not failed; refusing to isolate")
    drone.phase = transition_phase(drone.phase, PhaseEvent.ISOLATE)
