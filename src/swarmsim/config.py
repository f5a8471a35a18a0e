"""Scenario configuration: strict JSON schema with defaults.

Unknown fields are rejected rather than ignored so typos in experiment
files fail loudly. Every field has a default; a minimal file needs nothing
but ``{}``. The full schema lives in docs/config-schema.md.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

from .energy import MAX_SESSIONS
from .errors import ConfigError
from .failure import FailureEvent, FailureKind
from .netsim import WlanParams
from .swarm import SPEED_KMH, SPEED_MS

WLAN_DATA_RATES_MBPS = (6, 18, 36, 54)
WLAN_PROC_RATES_PPS = (5000, 10000, 20000)
VIDEO_BANDWIDTHS_MBPS = (2, 4, 6)
MAX_SDS_NO_VIDEO = 100
MAX_SDS_VIDEO = 14
# the run name is a cell of every CSV row and the stem of the output files
_NAME_FORBIDDEN = (",", "\n", "\r", "/", "\\")


@dataclass(frozen=True)
class VideoSettings:
    enabled: bool = False
    bandwidth_mbps: int = 2
    max_calls: int | None = None  # None: derived from link capacity
    forced_calls: int = 0          # load-testing knob: start this many calls per session
    call_duration_s: float = 300.0


@dataclass(frozen=True)
class MissionSettings:
    session_duration_s: float = 1800.0
    n_sessions: int = 1
    reposition_s: float = 60.0
    transit_distance_m: float = 1000.0
    n_targets: int | None = None   # None: one per SD


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "run"
    seed: int = 0
    duration_s: float = 900.0
    n_sds: int = 10
    profile: int = 2
    infection_rate: float = 0.025
    measure_from_s: float = 0.0
    wlan: WlanParams = WlanParams()
    video: VideoSettings = VideoSettings()
    mission: MissionSettings = MissionSettings()
    failures: tuple[FailureEvent, ...] = ()


# the WLAN rate is stored in bps but written in Mbps in config files
_MBPS_FIELDS = {"data_rate_bps": "data_rate_mbps"}


def _fields_dict(obj) -> dict:
    """Config-file view of a config dataclass, nested sections included."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.name in _MBPS_FIELDS:
            out[_MBPS_FIELDS[f.name]] = value // 1_000_000
        elif is_dataclass(value):
            out[f.name] = _fields_dict(value)
        else:
            out[f.name] = value
    return out


def _expect(data: dict, path: str, known: dict) -> dict:
    """Apply defaults and reject unknown keys; returns a full field dict."""
    if not isinstance(data, dict):
        raise ConfigError(f"field '{path}' must be an object")
    out = dict(known)
    for key, value in data.items():
        if key not in known:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown field '{where}'")
        out[key] = value
    return out


def _num(value, path: str, lo=None, hi=None, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field '{path}' must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"field '{path}' must be finite, got {value!r}")
    if integer:
        if isinstance(value, float):
            if not value.is_integer():
                raise ConfigError(f"field '{path}' must be an integer, got {value!r}")
            value = int(value)
        else:
            try:
                float(value)  # an int is whole; refuse one beyond a float's range
            except OverflowError:
                raise ConfigError(f"field '{path}' is too large") from None
    if lo is not None and value < lo:
        raise ConfigError(f"field '{path}'={value} below minimum {lo}")
    if hi is not None and value > hi:
        raise ConfigError(f"field '{path}'={value} above maximum {hi}")
    return value


def _choice(value, path: str, options):
    if value not in options:
        raise ConfigError(f"field '{path}'={value!r} not one of {sorted(options)}")
    return value


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"field '{path}' must be true or false")
    return value


def _finite_us(amount, per_second=1.0) -> bool:
    """True iff ``amount / per_second`` seconds is finite in microseconds."""
    try:
        return math.isfinite(amount / per_second * 1e6)
    except OverflowError:  # an integer too large for a float
        return False


def _seconds(value, path: str, lo=None):
    """A duration or instant in seconds that converts to integer microseconds."""
    value = _num(value, path, lo)
    if not _finite_us(value):
        raise ConfigError(f"field '{path}'={value} overflows the microsecond clock")
    return value


def parse_config(data: dict, name: str = "run") -> ScenarioConfig:
    top = _expect(data, "", dict(_DEFAULTS, name=name))

    w = _expect(top["wlan"], "wlan", _DEFAULTS["wlan"])
    wlan = WlanParams(
        data_rate_bps=_choice(w["data_rate_mbps"], "wlan.data_rate_mbps",
                              WLAN_DATA_RATES_MBPS) * 1_000_000,
        proc_rate_pps=_choice(w["proc_rate_pps"], "wlan.proc_rate_pps",
                              WLAN_PROC_RATES_PPS),
        edca=_bool(w["edca"], "wlan.edca"),
        overhead_bytes=_num(w["overhead_bytes"], "wlan.overhead_bytes", 0, 10_000, True),
        buffer_bits=_num(w["buffer_bits"], "wlan.buffer_bits", 1, None, True),
    )

    v = _expect(top["video"], "video", _DEFAULTS["video"])
    video = VideoSettings(
        enabled=_bool(v["enabled"], "video.enabled"),
        bandwidth_mbps=_choice(v["bandwidth_mbps"], "video.bandwidth_mbps",
                               VIDEO_BANDWIDTHS_MBPS),
        max_calls=(None if v["max_calls"] is None
                   else _num(v["max_calls"], "video.max_calls", 1, None, True)),
        forced_calls=_num(v["forced_calls"], "video.forced_calls", 0, None, True),
        call_duration_s=_seconds(v["call_duration_s"], "video.call_duration_s", 0.001),
    )

    m = _expect(top["mission"], "mission", _DEFAULTS["mission"])
    mission = MissionSettings(
        session_duration_s=_seconds(m["session_duration_s"], "mission.session_duration_s",
                                    0.001),
        n_sessions=_num(m["n_sessions"], "mission.n_sessions", 1, MAX_SESSIONS, True),
        reposition_s=_seconds(m["reposition_s"], "mission.reposition_s", 0),
        transit_distance_m=_num(m["transit_distance_m"], "mission.transit_distance_m",
                                0, None),
        n_targets=(None if m["n_targets"] is None
                   else _num(m["n_targets"], "mission.n_targets", 0, None, True)),
    )
    if not _finite_us(mission.transit_distance_m, SPEED_MS):
        raise ConfigError(
            f"field 'mission.transit_distance_m'={mission.transit_distance_m} at "
            f"{SPEED_KMH} km/h overflows the microsecond clock")

    n_sds = _num(top["n_sds"], "n_sds", 1, MAX_SDS_NO_VIDEO, True)
    if video.enabled and n_sds > MAX_SDS_VIDEO:
        raise ConfigError(
            f"n_sds={n_sds} exceeds the video-call limit of {MAX_SDS_VIDEO}"
        )
    duration_s = _seconds(top["duration_s"], "duration_s", 0.001)

    if not isinstance(top["failures"], list):
        raise ConfigError("field 'failures' must be a list")
    failures = []
    for i, entry in enumerate(top["failures"]):
        f = _expect(entry, f"failures[{i}]", {"kind": None, "drone_id": None, "at_s": None})
        kind = _choice(f["kind"], f"failures[{i}].kind", FailureKind.ALL)
        at_s = _seconds(f["at_s"], f"failures[{i}].at_s", 0)
        if f["drone_id"] is None:
            if kind == FailureKind.SD_SUDDEN:
                raise ConfigError(f"field 'failures[{i}].drone_id' is required for {kind}")
            drone_id = None
        else:
            drone_id = _num(f["drone_id"], f"failures[{i}].drone_id", 1, n_sds + 1, True)
        failures.append(FailureEvent(kind=kind, drone_id=drone_id, at_us=int(at_s * 1e6)))
    failures.sort(key=lambda fe: fe.at_us)

    name = top["name"]
    if not isinstance(name, str):
        raise ConfigError(f"field 'name' must be a string, got {name!r}")
    if not name:
        raise ConfigError("field 'name' must not be empty")
    if any(c in name for c in _NAME_FORBIDDEN):
        raise ConfigError(f"field 'name'={name!r} must not contain ',', a line break, "
                          "'/' or '\\'")
    cfg = ScenarioConfig(
        name=name,
        seed=_num(top["seed"], "seed", 0, None, True),
        duration_s=duration_s,
        n_sds=n_sds,
        profile=_choice(top["profile"], "profile", (1, 2)),
        infection_rate=_num(top["infection_rate"], "infection_rate", 0.0, 1.0),
        measure_from_s=_seconds(top["measure_from_s"], "measure_from_s", 0.0),
        wlan=wlan, video=video, mission=mission,
        failures=tuple(failures),
    )
    if mission.n_targets is not None and mission.n_targets > n_sds:
        raise ConfigError(
            f"mission.n_targets={mission.n_targets} exceeds n_sds={n_sds}"
        )
    return cfg


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as ex:
        raise ConfigError(f"cannot read {path}: {ex}") from ex
    except json.JSONDecodeError as ex:
        raise ConfigError(f"{path}: parse error at line {ex.lineno}: {ex.msg}") from ex
    except (RecursionError, ValueError) as ex:  # not UTF-8, too deep or too many digits
        raise ConfigError(f"{path}: cannot parse: {str(ex).split(';')[0]}") from None
    return parse_config(data, name=path.stem)


def to_dict(cfg: ScenarioConfig) -> dict:
    """Full round-trippable echo of a config, defaults applied."""
    out = _fields_dict(cfg)
    out["failures"] = [
        {"kind": f.kind, "drone_id": f.drone_id, "at_s": f.at_us / 1e6}
        for f in cfg.failures
    ]
    return out


# every config-file default, computed once from the dataclass defaults
_DEFAULTS = to_dict(ScenarioConfig())
