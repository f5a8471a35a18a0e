"""Swarm state: operational phase machine, formation geometry, kinematics
and target assignment.

One leader drone (LD) coordinates n slave drones (SDs) over a 2 km x 2 km
plane anchored at a ground station (the DMC). Drones fly at a fixed cruise
speed, land at assigned targets to collect data, and report through the
leader. A pre-designated backup SD takes over leadership on failure (see
the failure module).

``SwarmState`` holds both swarm-wide facts once: ``leader_id`` names the
acting leader, so an SD is any drone with another id, and ``assignments``
maps each SD to the target it collects. Only ``assign_targets`` adds to
``assignments``; everything else clears or pops it.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum

from .errors import RunInvariantError

SPAN_M = 2000.0
SPACING_M = 12.0  # formation pitch: the row's distance behind the leader and between slots
SPEED_KMH = 12.0  # cruise speed of every drone
SPEED_MS = SPEED_KMH * 1000.0 / 3600.0
LEADER_ID = 1  # initial leader; DMC is address 0, SDs are 2..n+1


class Phase(Enum):
    CONFIGURED = "configured"
    LAUNCHING = "launching"
    IN_FORMATION = "in_formation"
    TRANSIT = "transit"
    DEPLOYING = "deploying"
    COLLECTING = "collecting"
    REPORTING = "reporting"
    RETURNING = "returning"
    LANDED = "landed"
    FAILED = "failed"
    ISOLATED = "isolated"


# ``Drone.alive``, ``Drone.airborne`` and ``can_collect`` run on hot paths,
# where an Enum class lookup costs several module-global reads and set
# membership calls the Python-level ``Enum.__hash__``: they test identity
_CONFIGURED, _COLLECTING, _RETURNING = Phase.CONFIGURED, Phase.COLLECTING, Phase.RETURNING
_LANDED, _FAILED, _ISOLATED = Phase.LANDED, Phase.FAILED, Phase.ISOLATED


class PhaseEvent(Enum):
    LAUNCH_COMMAND = "launch_command"
    FORMATION_FORMED = "formation_formed"
    TRANSIT_STARTED = "transit_started"
    AREA_REACHED = "area_reached"
    DEPLOYMENT_COMPLETE = "deployment_complete"
    SESSION_COMPLETE = "session_complete"
    REPOSITION_COMPLETE = "reposition_complete"
    DATA_SUFFICIENT_CONFIRMATION = "data_sufficient_confirmation"
    LANDED_AT_BASE = "landed_at_base"
    FAILURE_DETECTED = "failure_detected"
    SENT_HOME = "sent_home"
    ISOLATE = "isolate"


_EDGES: dict[tuple[Phase, PhaseEvent], Phase] = {
    (Phase.CONFIGURED, PhaseEvent.LAUNCH_COMMAND): Phase.LAUNCHING,
    (Phase.LAUNCHING, PhaseEvent.FORMATION_FORMED): Phase.IN_FORMATION,
    (Phase.IN_FORMATION, PhaseEvent.TRANSIT_STARTED): Phase.TRANSIT,
    (Phase.TRANSIT, PhaseEvent.AREA_REACHED): Phase.DEPLOYING,
    (Phase.DEPLOYING, PhaseEvent.DEPLOYMENT_COMPLETE): Phase.COLLECTING,
    (Phase.COLLECTING, PhaseEvent.SESSION_COMPLETE): Phase.REPORTING,
    (Phase.REPORTING, PhaseEvent.REPOSITION_COMPLETE): Phase.COLLECTING,
    (Phase.COLLECTING, PhaseEvent.DATA_SUFFICIENT_CONFIRMATION): Phase.RETURNING,
    (Phase.REPORTING, PhaseEvent.DATA_SUFFICIENT_CONFIRMATION): Phase.RETURNING,
    (Phase.RETURNING, PhaseEvent.LANDED_AT_BASE): Phase.LANDED,
    (Phase.FAILED, PhaseEvent.ISOLATE): Phase.ISOLATED,
}
# Any live phase can fail, and any launched one can be sent home alone.
for _p in Phase:
    if _p not in (Phase.FAILED, Phase.ISOLATED):
        _EDGES[(_p, PhaseEvent.FAILURE_DETECTED)] = Phase.FAILED
        if _p not in (Phase.CONFIGURED, Phase.LANDED):
            _EDGES[(_p, PhaseEvent.SENT_HOME)] = Phase.RETURNING


def transition_phase(phase: Phase, event: PhaseEvent) -> Phase:
    """Apply exactly one edge of the phase machine."""
    try:
        return _EDGES[(phase, event)]
    except KeyError:
        raise RunInvariantError(
            f"illegal transition: event {event.name} in phase {phase.name}"
        ) from None


# Letters for the mission-level trace, checked against the canonical shape:
# configure, launch, form, transit, deploy, then collect/report cycles,
# return, land.
_TRACE_LETTER = {
    Phase.CONFIGURED: "C", Phase.LAUNCHING: "L", Phase.IN_FORMATION: "F",
    Phase.TRANSIT: "T", Phase.DEPLOYING: "D", Phase.COLLECTING: "G",
    Phase.REPORTING: "R", Phase.RETURNING: "B", Phase.LANDED: "N",
}
_TRACE_RE = re.compile(r"CLFTDG(RG)*R?BN")


def validate_phase_trace(trace: list[Phase]) -> bool:
    """True iff a completed mission's phase sequence has the canonical shape."""
    letters = "".join(_TRACE_LETTER.get(p, "?") for p in trace)
    return _TRACE_RE.fullmatch(letters) is not None


@dataclass
class Telemetry:
    battery_pct: float = 100.0
    temperature_c: float = 25.0
    last_heard: int = 0  # microseconds


@dataclass
class Drone:
    id: int
    position: tuple[float, float] = (0.0, 0.0)
    phase: Phase = Phase.CONFIGURED
    telemetry: Telemetry = field(default_factory=Telemetry)
    waypoint: tuple[float, float] | None = None

    @property
    def alive(self) -> bool:
        """Liveness is the phase: a drone is lost once it has failed."""
        return self.phase is not _FAILED and self.phase is not _ISOLATED

    @property
    def airborne(self) -> bool:
        """Launched and not collecting (landed, powered down), back or lost."""
        phase = self.phase
        return (phase is not _COLLECTING and phase is not _LANDED and phase is not _FAILED
                and phase is not _ISOLATED and phase is not _CONFIGURED)


@dataclass(frozen=True)
class MissionPlan:
    dmc_position: tuple[float, float] = (0.0, SPAN_M / 2)
    target_positions: tuple[tuple[float, float], ...] = ()


@dataclass
class SwarmState:
    plan: MissionPlan
    drones: dict[int, Drone]
    leader_id: int
    backup_id: int | None
    # SD status reports held by the acting leader between flushes; carried
    # across a soft handover, lost on a hard one.
    buffered_reports: int = 0
    assignments: dict[int, int] = field(default_factory=dict)  # sd id -> target
    pending_targets: list[int] = field(default_factory=list)
    collected: list[int] = field(default_factory=list)
    deviations: list[str] = field(default_factory=list)
    recovery_times_us: list[int] = field(default_factory=list)
    lost_reports: int = 0
    aborted: bool = False

    def leader(self) -> Drone:
        return self.drones[self.leader_id]

    def alive_sds(self) -> list[Drone]:
        """Live, unisolated SDs in id order, which is the order ``init_swarm``
        inserts ``drones`` in; nothing re-keys it."""
        leader_id = self.leader_id
        return [d for d in self.drones.values() if d.id != leader_id and d.alive]

    def has_alive_sd(self) -> bool:
        """Whether ``alive_sds()`` is non-empty, without building it."""
        leader_id = self.leader_id
        return any(d.alive for d in self.drones.values() if d.id != leader_id)


def can_collect(drone: Drone) -> bool:
    """Whether a drone can collect a target: not on its way home, back at
    the DMC, or lost. Assignment and crediting both ask this."""
    phase = drone.phase
    return (phase is not _RETURNING and phase is not _LANDED and phase is not _FAILED
            and phase is not _ISOLATED)


def assign_targets(state: SwarmState, targets: list[int]) -> list[int]:
    """Give each target, in order, to the next SD in id order that can
    collect and holds no target; pend the rest and return them."""
    free = [d.id for d in state.alive_sds()
            if can_collect(d) and d.id not in state.assignments]
    state.assignments.update(zip(free, targets))
    deferred = targets[len(free):]
    state.pending_targets.extend(deferred)
    return deferred


def init_swarm(plan: MissionPlan, n: int) -> SwarmState:
    """Build a configured swarm: leader id 1, SDs ids 2..n+1. The backup is
    the second SD, or the only one."""
    sd_ids = range(LEADER_ID + 1, LEADER_ID + 1 + n)
    drones = {i: Drone(i, plan.dmc_position) for i in range(LEADER_ID, sd_ids.stop)}
    return SwarmState(plan=plan, drones=drones, leader_id=LEADER_ID,
                      backup_id=sd_ids[min(1, n - 1)])


def formation_positions(n: int, leader_pos: tuple[float, float]) -> list[tuple[float, float]]:
    """Slot positions for n SDs relative to a leader heading along +x: one
    row ``SPACING_M`` behind the leader, slots fanned out laterally at the
    same pitch (the center slot directly behind is used only for odd counts,
    keeping even counts symmetric about the axis)."""
    lx, ly = leader_pos
    if n % 2 == 1:
        laterals = [0.0] + [s * k * SPACING_M for k in range(1, n // 2 + 1) for s in (1, -1)]
    else:
        laterals = [s * k * SPACING_M for k in range(1, n // 2 + 1) for s in (1, -1)]
    return [(lx - SPACING_M, ly + lat) for lat in laterals[:n]]


def advance_kinematics(state: SwarmState, dt_us: int) -> None:
    """Move airborne drones toward their waypoints at cruise speed.

    Displacement per step is capped at speed * dt; landed, failed, and
    isolated drones hold position. Positions are clamped to the span area.
    """
    step = SPEED_MS * dt_us / 1e6
    for drone in state.drones.values():
        if not drone.airborne or drone.waypoint is None:
            continue
        x, y = drone.position
        wx, wy = drone.waypoint
        dist = math.hypot(wx - x, wy - y)
        if dist <= step or dist == 0.0:
            nx, ny = wx, wy
        else:
            f = step / dist
            nx, ny = x + (wx - x) * f, y + (wy - y) * f
        drone.position = (min(max(nx, 0.0), SPAN_M), min(max(ny, 0.0), SPAN_M))
