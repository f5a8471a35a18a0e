"""Deterministic discrete-event simulator of a self-organizing UAV
data-collection swarm: a leader drone relays between worker drones on a
short-range WLAN and a ground station on a long-range link, with failure
handover, network metrics, and battery-sizing analysis."""

__version__ = "0.1.0"

from .protocol import VideoCallSpec, fragment_payload, status_report_ld_length
from .swarm import (
    Drone,
    MissionPlan,
    Phase,
    SwarmState,
    init_swarm,
    validate_phase_trace,
)
from .netsim import EventQueue, WlanParams, WimaxParams, max_simultaneous_calls
from .energy import durability_report
from .errors import ConfigError, RunInvariantError
from .config import ScenarioConfig, load_config
from .runner import RunResult, run_scenario, sweep

__all__ = [
    "VideoCallSpec", "fragment_payload", "status_report_ld_length",
    "Drone", "MissionPlan", "Phase", "SwarmState", "init_swarm",
    "validate_phase_trace",
    "EventQueue", "WlanParams", "WimaxParams", "max_simultaneous_calls",
    "durability_report",
    "ConfigError", "RunInvariantError", "ScenarioConfig", "load_config",
    "RunResult", "run_scenario", "sweep",
]
