"""Energy budgeting and battery sizing.

One function, ``price``, turns a drone's role and the seconds it spent
airborne, powered and in video calls into the Wh drawn from its two
batteries:

- Rotor energy follows a linear drain model. Carrying payload raises the
  rotor power by 25% per 15% of payload ratio, which shrinks the base
  flight time; flying a fraction of the derated budget consumes that
  fraction of the flight battery.
- The onboard computer and radios draw from a separate battery pair whose
  average power is back-calculated from the session counts each battery
  sustains (14 h for a leader, 7.5 h for a worker on a 22.2 Wh pack),
  since no direct wattage is available. Video time draws a multiple of it.

The runner's per-drone ledger prices the time a run simulated. The session
limits price a plan instead: a plan maps a session count to (airborne s,
alive s), and there are two of them.

- ``reference_plan`` is the paper's table: 6-minute legs each way and one
  1-minute hop per 30-minute session, all flown, with collection landed.
  Compute is priced over session time only. Its limits are 12 sessions on
  either drone battery, 28 on a leader's compute battery and 15 on a
  worker's.
- ``mission_plan(mission)`` is the mission a config describes, with the
  legs the runner's timeline flies: out is formation + transit +
  deployment, back is transit, and n sessions have n - 1 hops of
  ``reposition_s`` between them. Compute is priced over the whole mission.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .swarm import SPEED_MS

_EPS = 1e-9
# the parser's n_sessions maximum; it also bounds the session-limit search,
# so a plan whose flight does not grow with the sessions still ends
MAX_SESSIONS = 1000


# the airframe: bare weight, endurance without payload, and its flight
# battery, whose energy is its voltage times its charge
BASE_WEIGHT_G = 1375.0
BASE_FLIGHT_MIN = 30.0
BATTERY_WH = 89.2
BATTERY_VOLTAGE_V = 15.2
BATTERY_CHARGE_MAH = 5870.0

# Stock loadout as (element, grams, on the leader, on a worker): compute
# board, camera (workers only), battery hat + spare battery, autopilot, and
# the long-range radio (leader only).
PAYLOAD = (
    ("compute board", 42.0, True, True),
    ("camera", 9.0, False, True),
    ("battery hat", 76.0, True, True),
    ("spare compute battery", 48.0, True, True),
    ("autopilot controller", 23.0, True, True),
    ("long-range radio adapter", 12.6, True, False),
)
PAYLOAD_G = {
    "ld": sum(grams for _, grams, on_ld, _ in PAYLOAD if on_ld),
    "sd": sum(grams for _, grams, _, on_sd in PAYLOAD if on_sd),
}
# average compute+radio draw per role, and the battery pair feeding it (two
# 3000 mAh 3.7 V packs = 22.2 Wh); a leader sustains 28 half-hour sessions,
# a worker 15
COMPUTE_W = {"ld": 22.2 / 14.0, "sd": 22.2 / 7.5}
COMPUTE_BATTERY_WH = 3.7 * 3.0 * 2
VIDEO_MULTIPLIER = 1.5


def payload_ratio(payload_g: float, drone_g: float) -> float:
    """Payload weight as a percentage of the bare drone weight."""
    return 100.0 * payload_g / drone_g


def derate_flight_time(base_min: float, payload_pct: float) -> float:
    """Flight time under payload: base time divided by the power ratio.

    A 15% payload ratio raises the rotor power by 25%, which cuts 30
    minutes to 24; the increase is linear in the payload ratio.
    """
    return base_min / (1.0 + 25.0 * payload_pct / 15.0 / 100.0)


def flight_budget_min(role: str) -> float:
    """Minutes a drone of ``role`` ('ld' or 'sd') flies on a full battery
    carrying its role's stock payload."""
    pct = payload_ratio(PAYLOAD_G[role], BASE_WEIGHT_G)
    return derate_flight_time(BASE_FLIGHT_MIN, pct)


def price(role: str, airborne_s: float, alive_s: float,
          video_s: float = 0.0) -> tuple[float, float]:
    """(rotor Wh, compute Wh) of a drone of ``role`` that flew
    ``airborne_s`` and was powered for ``alive_s`` seconds, ``video_s`` of
    them in a video call."""
    rotor = airborne_s / 60.0 / flight_budget_min(role) * BATTERY_WH
    watts = COMPUTE_W[role]
    compute = watts * alive_s / 3600.0
    # the video surcharge, summed in this order so ledgers stay byte-stable
    compute += watts * VIDEO_MULTIPLIER * video_s / 3600.0 - watts * video_s / 3600.0
    return rotor, compute


def overdrawn(rotor_wh: float, compute_wh: float) -> list[str]:
    """The batteries, 'flight' and 'compute', that these draws exceed."""
    return [name for name, wh, capacity in (
        ("flight", rotor_wh, BATTERY_WH),
        ("compute", compute_wh, COMPUTE_BATTERY_WH),
    ) if wh > capacity + _EPS]


# -- plans -------------------------------------------------------------------

Plan = Callable[[int], tuple[float, float]]


# the paper's table: a 6-minute leg each way, one 1-minute hop per
# 30-minute session; its 12 sessions fly the 24-minute derated budget
REFERENCE_LEG_MIN, REFERENCE_HOP_MIN, REFERENCE_SESSION_MIN = 6, 1, 30
# a mission's fixed legs: forming up after launch, deploying at the area
FORMATION_US = DEPLOY_US = 30_000_000


def reference_plan(n: int) -> tuple[float, float]:
    """(airborne s, alive s) of the paper's table for ``n`` sessions."""
    airborne_min = 2 * REFERENCE_LEG_MIN + n * REFERENCE_HOP_MIN
    return airborne_min * 60.0, n * REFERENCE_SESSION_MIN * 60.0


class MissionTimes(NamedTuple):
    """The durations a mission's timeline schedules, in microseconds."""
    formation_us: int
    transit_us: int
    deploy_us: int
    session_us: int
    hop_us: int


def mission_times(mission) -> MissionTimes:
    """The timeline durations of ``mission`` (a config's mission settings)."""
    return MissionTimes(
        formation_us=FORMATION_US,
        transit_us=int(round(mission.transit_distance_m / SPEED_MS * 1e6)),
        deploy_us=DEPLOY_US,
        session_us=int(mission.session_duration_s * 1e6),
        hop_us=int(mission.reposition_s * 1e6),
    )


def mission_plan(mission) -> Plan:
    """The plan of the mission a config describes."""
    t = mission_times(mission)
    legs_us = t.formation_us + 2 * t.transit_us + t.deploy_us

    def plan(n: int) -> tuple[float, float]:
        airborne_us = legs_us + max(n - 1, 0) * t.hop_us
        return airborne_us / 1e6, (airborne_us + n * t.session_us) / 1e6

    return plan


def session_limits(role: str, plan: Plan = reference_plan) -> tuple[int, int]:
    """Largest session counts, up to ``MAX_SESSIONS``, that the flight and
    the compute battery of a ``role`` drone each cover under ``plan``."""
    n_flight = n_compute = 0
    for n in range(1, MAX_SESSIONS + 1):
        over = overdrawn(*price(role, *plan(n)))
        if len(over) == 2:  # both exhausted; a plan's draws only grow with n
            break
        n_flight += "flight" not in over
        n_compute += "compute" not in over
    return n_flight, n_compute


def battery_feasible(mission, plan: Plan = reference_plan) -> tuple[bool, int]:
    """Whether every battery covers ``mission.n_sessions`` sessions under
    ``plan``, and the binding session limit."""
    limit = durability_report(plan).system_limit_sessions
    return limit >= mission.n_sessions, limit


@dataclass(frozen=True)
class DurabilityRow:
    battery: str
    role: str
    max_sessions: int
    max_hours: float


@dataclass(frozen=True)
class DurabilityReport:
    rows: tuple[DurabilityRow, ...]

    @property
    def system_limit_sessions(self) -> int:
        return min(r.max_sessions for r in self.rows)

    @property
    def system_limit_hours(self) -> float:
        return min(r.max_hours for r in self.rows)


def durability_report(plan: Plan = reference_plan) -> DurabilityReport:
    """Session and hour ceilings per battery under ``plan``; the hours are
    the powered time of that many sessions, and the system limit is the
    minimum across rows."""
    limits = {role: session_limits(role, plan) for role in ("ld", "sd")}
    rows = []
    for i, battery in enumerate(("drone", "compute")):
        for role in ("ld", "sd"):
            n = limits[role][i]
            hours = plan(n)[1] / 3600.0 if n else 0.0
            rows.append(DurabilityRow(f"{battery} battery ({role.upper()})", role, n, hours))
    return DurabilityReport(rows=tuple(rows))


def format_durability(report: DurabilityReport) -> str:
    """Plain-text table for reports and the CLI."""
    lines = [
        f"{'battery':<24} {'max sessions':>12} {'max hours':>10}",
        "-" * 48,
    ]
    for r in report.rows:
        hours = f"{r.max_hours:g}"
        lines.append(f"{r.battery:<24} {r.max_sessions:>12} {hours:>10}")
    lines.append("-" * 48)
    lines.append(
        f"{'system limit':<24} {report.system_limit_sessions:>12} "
        f"{report.system_limit_hours:>10g}"
    )
    return "\n".join(lines)
