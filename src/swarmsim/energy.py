"""Energy budgeting and battery sizing.

Rotor energy follows a linear drain model: carrying payload raises power
draw along a piecewise-linear derating curve, shrinking the base flight
time; flying a fraction of the derated budget consumes that fraction of
the battery. The onboard computer and radios draw from a separate battery
pair whose average power defaults are back-calculated from the session
counts each battery sustains (14 h for a leader, 7.5 h for a worker on a
22.2 Wh pack), since no direct wattage is available.

The mission shape priced here: a round trip to the operating area plus one
repositioning hop per 30-minute collection session, all flown; collection
itself happens landed.
"""
from __future__ import annotations

from dataclasses import dataclass

_EPS = 1e-9


class EnergyError(ValueError):
    """Invalid energy-model arguments."""


@dataclass(frozen=True)
class DroneSpec:
    base_weight_g: float = 1375.0
    base_flight_min: float = 30.0
    battery_wh: float = 89.2
    battery_voltage_v: float = 15.2
    battery_charge_mah: float = 5870.0

    def __post_init__(self):
        if self.base_weight_g <= 0 or self.base_flight_min <= 0:
            raise EnergyError("weight and base flight time must be positive")
        nominal = self.battery_voltage_v * self.battery_charge_mah / 1000.0
        if abs(nominal - self.battery_wh) > 0.01 * self.battery_wh:
            raise EnergyError(
                f"battery energy {self.battery_wh} Wh disagrees with "
                f"voltage x charge = {nominal:.1f} Wh by more than 1%"
            )


@dataclass(frozen=True)
class PayloadElement:
    name: str
    weight_g: float
    on_ld: bool
    on_sd: bool


# Stock loadout: compute board, camera (workers only), battery hat + spare
# battery, autopilot, and the long-range radio (leader only).
DEFAULT_MANIFEST_ELEMENTS = (
    PayloadElement("compute board", 42.0, True, True),
    PayloadElement("camera", 9.0, False, True),
    PayloadElement("battery hat", 76.0, True, True),
    PayloadElement("spare compute battery", 48.0, True, True),
    PayloadElement("autopilot controller", 23.0, True, True),
    PayloadElement("long-range radio adapter", 12.6, True, False),
)


@dataclass(frozen=True)
class PayloadManifest:
    elements: tuple[PayloadElement, ...] = DEFAULT_MANIFEST_ELEMENTS

    @property
    def ld_total_g(self) -> float:
        return sum(e.weight_g for e in self.elements if e.on_ld)

    @property
    def sd_total_g(self) -> float:
        return sum(e.weight_g for e in self.elements if e.on_sd)

    def total_for(self, role: str) -> float:
        if role == "ld":
            return self.ld_total_g
        if role == "sd":
            return self.sd_total_g
        raise EnergyError(f"unknown role {role!r}")


@dataclass(frozen=True)
class DeratingCurve:
    """Payload percentage -> rotor power increase percentage.

    Anchored so that a 15% payload ratio costs one fifth of the flight time
    (30 -> 24 min), i.e. a 25% power increase; linear between and beyond
    anchors.
    """

    anchors: tuple[tuple[float, float], ...] = ((0.0, 0.0), (15.0, 25.0))

    def __post_init__(self):
        pts = sorted(self.anchors)
        if pts[0] != (0.0, 0.0):
            raise EnergyError("derating curve must pass through (0, 0)")
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x1 <= x0 or y1 < y0:
                raise EnergyError("derating anchors must be increasing")
        object.__setattr__(self, "anchors", tuple(pts))

    def power_increase(self, payload_pct: float) -> float:
        if payload_pct < 0:
            raise EnergyError("payload percentage must be non-negative")
        pts = self.anchors
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if payload_pct <= x1:
                return y0 + (y1 - y0) * (payload_pct - x0) / (x1 - x0)
        # extrapolate along the last segment
        (x0, y0), (x1, y1) = pts[-2], pts[-1]
        return y0 + (y1 - y0) * (payload_pct - x0) / (x1 - x0)


@dataclass(frozen=True)
class ComputeRadioPower:
    """Average compute+radio draw per role and the battery pair feeding it
    (two 3000 mAh 3.7 V packs = 22.2 Wh)."""

    ld_avg_w: float = 22.2 / 14.0   # sustains 28 half-hour sessions
    sd_avg_w: float = 22.2 / 7.5    # sustains 15 half-hour sessions
    pi_battery_wh: float = 3.7 * 3.0 * 2
    video_multiplier: float = 1.5

    def __post_init__(self):
        if self.ld_avg_w <= 0 or self.sd_avg_w <= 0 or self.pi_battery_wh <= 0:
            raise EnergyError("powers and battery capacity must be positive")

    def avg_for(self, role: str) -> float:
        if role == "ld":
            return self.ld_avg_w
        if role == "sd":
            return self.sd_avg_w
        raise EnergyError(f"unknown role {role!r}")


@dataclass(frozen=True)
class EnergyParams:
    """Mission legs priced by the budget: base round trip plus one
    repositioning hop per session. The 6-minute leg makes a 12-session
    mission use the 24-minute derated budget exactly."""

    dmc_leg_min: float = 6.0
    reposition_min: float = 1.0
    session_min: float = 30.0


DEFAULT_SPEC = DroneSpec()
DEFAULT_MANIFEST = PayloadManifest()
DEFAULT_CURVE = DeratingCurve()
DEFAULT_POWER = ComputeRadioPower()
DEFAULT_PARAMS = EnergyParams()


def payload_ratio(payload_g: float, drone_g: float) -> float:
    """Payload weight as a percentage of the bare drone weight."""
    if drone_g <= 0:
        raise EnergyError("drone weight must be positive")
    if payload_g < 0:
        raise EnergyError("payload weight must be non-negative")
    return 100.0 * payload_g / drone_g


def derate_flight_time(
    base_min: float, payload_pct: float, curve: DeratingCurve = DEFAULT_CURVE
) -> float:
    """Flight time under payload: base time divided by the power ratio."""
    if base_min <= 0:
        raise EnergyError("base flight time must be positive")
    return base_min / (1.0 + curve.power_increase(payload_pct) / 100.0)


def total_flight_time(dmc_leg_min: float, n_sessions: int, reposition_min: float) -> float:
    """Minutes flown over a mission: both base legs plus one hop per session."""
    if dmc_leg_min < 0 or n_sessions < 0 or reposition_min < 0:
        raise EnergyError("flight-time components must be non-negative")
    return 2.0 * dmc_leg_min + n_sessions * reposition_min


def rotor_energy(
    flight_min: float,
    spec: DroneSpec = DEFAULT_SPEC,
    payload_pct: float = 0.0,
    curve: DeratingCurve = DEFAULT_CURVE,
) -> float:
    """Wh drawn from the flight battery: linear drain over the derated budget."""
    if flight_min < 0:
        raise EnergyError("flight time must be non-negative")
    budget = derate_flight_time(spec.base_flight_min, payload_pct, curve)
    return flight_min / budget * spec.battery_wh


def network_compute_energy(
    duration_s: float,
    role: str,
    power: ComputeRadioPower = DEFAULT_POWER,
    session_kind: str = "idle",
) -> float:
    """Wh drawn by compute and radios over a stretch of mission time."""
    if duration_s < 0:
        raise EnergyError("duration must be non-negative")
    if session_kind not in ("idle", "video"):
        raise EnergyError(f"unknown session kind {session_kind!r}")
    watts = power.avg_for(role)
    if session_kind == "video":
        watts *= power.video_multiplier
    return watts * duration_s / 3600.0


def max_rotor_sessions(
    spec: DroneSpec = DEFAULT_SPEC,
    payload_g: float | None = None,
    curve: DeratingCurve = DEFAULT_CURVE,
    params: EnergyParams = DEFAULT_PARAMS,
    role: str = "sd",
    manifest: PayloadManifest = DEFAULT_MANIFEST,
) -> int:
    """Largest session count whose flight time fits the flight battery."""
    if params.reposition_min <= 0:
        raise EnergyError("reposition time must be positive to bound the sessions")
    if payload_g is None:
        payload_g = manifest.total_for(role)
    pct = payload_ratio(payload_g, spec.base_weight_g)
    n = 0
    while rotor_energy(
        total_flight_time(params.dmc_leg_min, n + 1, params.reposition_min),
        spec, pct, curve,
    ) <= spec.battery_wh + _EPS:
        n += 1
    return n


def max_compute_sessions(
    role: str,
    power: ComputeRadioPower = DEFAULT_POWER,
    params: EnergyParams = DEFAULT_PARAMS,
) -> int:
    """Largest session count the compute battery pair sustains."""
    per_session = network_compute_energy(params.session_min * 60.0, role, power)
    return int((power.pi_battery_wh + _EPS) / per_session)


def battery_feasible(
    plan,
    spec: DroneSpec = DEFAULT_SPEC,
    payload_g: float | None = None,
    curve: DeratingCurve = DEFAULT_CURVE,
    power: ComputeRadioPower = DEFAULT_POWER,
    role: str = "sd",
    params: EnergyParams = DEFAULT_PARAMS,
    manifest: PayloadManifest = DEFAULT_MANIFEST,
) -> tuple[bool, int]:
    """Whether both batteries cover the planned sessions.

    ``plan`` needs an ``n_sessions`` attribute (a config's mission settings
    work); the returned count is the binding minimum of the flight-battery
    and compute-battery limits.
    """
    n_rotor = max_rotor_sessions(spec, payload_g, curve, params, role, manifest)
    n_compute = max_compute_sessions(role, power, params)
    max_sessions = min(n_rotor, n_compute)
    n_needed = plan.n_sessions if hasattr(plan, "n_sessions") else int(plan)
    return max_sessions >= n_needed, max_sessions


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


def durability_report(
    spec: DroneSpec = DEFAULT_SPEC,
    manifest: PayloadManifest = DEFAULT_MANIFEST,
    curve: DeratingCurve = DEFAULT_CURVE,
    power: ComputeRadioPower = DEFAULT_POWER,
    params: EnergyParams = DEFAULT_PARAMS,
) -> DurabilityReport:
    """Session and hour ceilings per battery; the system limit is the
    minimum across rows."""
    session_h = params.session_min / 60.0
    rows = []
    for role in ("ld", "sd"):
        n = max_rotor_sessions(spec, None, curve, params, role, manifest)
        rows.append(DurabilityRow(f"drone battery ({role.upper()})", role, n, n * session_h))
    for role in ("ld", "sd"):
        n = max_compute_sessions(role, power, params)
        rows.append(DurabilityRow(f"compute battery ({role.upper()})", role, n, n * session_h))
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
