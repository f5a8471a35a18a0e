"""Mission-level benchmark of swarmsim: workloads, timed passes and checks.

A mission goes through the library exactly as a user's run does:
``parse_config``, ``runner._Mission`` construction (timeline
pre-scheduling), ``EventQueue.run_until``/``run_all`` and the snapshot and
energy ledger inside ``_Mission.run``, then ``emit_csv`` and
``emit_report``. A pass runs every mission of a workload once, one after
another in this process (closed loop, no threads).

Times are CPU seconds of this process. Between timed segments of each
mission a ``hostspeed.Gauge`` times a fixed kernel, and each
mission's times are divided by the host slowdown measured during that
mission, so slow phases of a shared host cancel out.

Every mission is checked: it must not raise, every link must conserve
packets (offered = delivered + dropped), a rerun of the same config in the
same process must emit the same CSV bytes, and on the reference seed its
stats digest must equal the one in ``expected.json``.
"""
from __future__ import annotations

import hashlib
import json
import random
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import process_time as clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"

if not (SRC / "swarmsim" / "__init__.py").is_file():
    raise ImportError(f"perfbench needs the swarmsim sources at {SRC}")
sys.path.insert(0, str(SRC))

import swarmsim  # noqa: E402
from swarmsim import runner  # noqa: E402
from swarmsim.config import parse_config  # noqa: E402

if Path(swarmsim.__file__).resolve().parent != SRC / "swarmsim":
    raise ImportError(f"swarmsim imported from {swarmsim.__file__}, not from {SRC}")

from hostspeed import REF_STEP_S, Gauge, NullGauge  # noqa: E402
from swarmtrace import NullTracer, Tracer  # noqa: E402

LINKS = ("wlan", "wimax_ul", "wimax_dl")
REFERENCE_SEED = 0
# run_until(horizon) is made as this many calls, so the gauge can sample
# between them
LOOP_SEGMENTS = 64

# -- workloads ---------------------------------------------------------------

VIDEO_PRESET = SRC / "swarmsim" / "presets" / "scenario2_video_2mbps.json"
# the preset's 300 s calls take ~38 s of host time; 20 s calls keep the
# same 13-call overload with a pass short enough to repeat within a run
VIDEO_CALL_S = 20.0

# 12 sessions is the battery limit of acceptance criterion 03; sessions,
# hops and transit are shortened so one pass takes a few seconds
SWARM100 = {
    "name": "swarm100", "duration_s": 3840, "n_sds": 100, "profile": 2,
    "mission": {"n_sessions": 12, "session_duration_s": 300,
                "reposition_s": 10, "transit_distance_m": 100},
}

# the mission shape of acceptance criteria 09/10
FAILOVER_BASE = {
    "name": "failover", "duration_s": 430, "n_sds": 10, "profile": 2,
    "infection_rate": 0.0,
    "mission": {"session_duration_s": 120, "n_sessions": 2, "reposition_s": 60,
                "transit_distance_m": 100, "n_targets": 6},
}
# flight windows of that mission, where an unplanned leader loss is
# detected by the flight watchdog
FLIGHT_SPANS = ((2.0, 88.5), (211.0, 268.5))
FAILOVER_BATCH = 10


def failover_schedule(seed: int) -> list[tuple[int, list[dict]]]:
    """(mission seed, failure list) for each mission of the batch."""
    rng = random.Random(seed)
    batch = []
    for _ in range(FAILOVER_BATCH):
        kind = rng.choice(("ld_sudden", "ld_predicted", "sd_sudden"))
        if kind == "ld_sudden":
            failures = [{"kind": kind, "drone_id": None,
                         "at_s": round(rng.uniform(*rng.choice(FLIGHT_SPANS)), 3)}]
        elif kind == "ld_predicted":
            failures = [{"kind": kind, "drone_id": None,
                         "at_s": round(rng.uniform(2.0, 380.0), 3)}]
        else:
            kills = rng.sample(range(2, 12), k=rng.randint(1, 3))
            failures = [{"kind": kind, "drone_id": sd,
                         "at_s": round(rng.uniform(2.0, 415.0), 3)} for sd in kills]
        batch.append((rng.randrange(1, 1_000_000), failures))
    return batch


def _video_fifo(seed: int) -> list[dict]:
    data = json.loads(VIDEO_PRESET.read_text(encoding="utf-8"))
    data["seed"] = seed
    data["video"]["call_duration_s"] = VIDEO_CALL_S
    return [data]


def _swarm100(seed: int) -> list[dict]:
    return [dict(SWARM100, seed=seed)]


def _failover_batch(seed: int) -> list[dict]:
    return [dict(FAILOVER_BASE, name=f"failover{i}", seed=mission_seed, failures=failures)
            for i, (mission_seed, failures) in enumerate(failover_schedule(seed))]


WORKLOADS = {
    "video_fifo": _video_fifo,
    "swarm100": _swarm100,
    "failover_batch": _failover_batch,
}


def missions(workload: str, seed: int) -> list[dict]:
    """The config dicts of one pass of ``workload``, generated from ``seed``."""
    return WORKLOADS[workload](seed)


# -- digests -----------------------------------------------------------------

def csv_keys(csv: bytes) -> set[str]:
    """The ``link,metric,class`` keys of the CSV's data rows."""
    return {_key(line) for line in csv.decode().splitlines()[1:]}


def _key(line: str) -> str:
    return ",".join(line.split(",")[2:5])


def stats_digest(csv: bytes, keys) -> str:
    """SHA-256 of the CSV rows whose key is in ``keys``.

    Rows with other keys (added by later code) are ignored, so appending
    rows keeps the digest, while changing any recorded value changes it.
    """
    keys = set(keys)
    rows = [line for line in csv.decode().splitlines()[1:] if _key(line) in keys]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


# -- one mission ---------------------------------------------------------------

@dataclass
class MissionRun:
    cpu_s: float = 0.0           # parse through report emission (CPU s)
    setup_s: float = 0.0          # parse_config + _Mission construction
    loop_s: float = 0.0           # run_until + run_all
    slowdown: float = 1.0         # host slowdown measured by the gauge
    events: int = 0
    offered_pkts: int = 0         # all links, inside the measurement window
    latency_samples: int = 0
    prescheduled: int = 0         # traced only: queue length after construction
    peak_queue: int = 0           # traced only: longest queue during the run
    csv: bytes = b""
    error: str | None = None

    def scaled(self, seconds: float) -> float:
        """``seconds`` of this mission at the gauge's reference host speed."""
        return seconds / self.slowdown


def _time_loop(queue, run: MissionRun, tracer, gauge) -> None:
    """Time the queue's run_until/run_all calls made by ``_Mission.run``.

    ``run_until(t_end)`` is made as ``LOOP_SEGMENTS`` calls ending at evenly
    spaced simulated times up to ``t_end``. Each call processes every event
    up to its end time, so the events and their order stay the same. The
    gauge samples between calls, outside the timed segments.
    """
    run_until, run_all = queue.run_until, queue.run_all

    def segment(step, *args):
        with tracer.span("queue.loop"):
            t0 = clock()
            n = step(*args)
            run.loop_s += clock() - t0
        run.events += n
        gauge.sample()
        return n

    def timed_until(t_end):
        start = queue.now
        return sum(segment(run_until, start - (start - t_end) * k // LOOP_SEGMENTS)
                   for k in range(1, LOOP_SEGMENTS + 1))

    queue.run_until = timed_until
    queue.run_all = lambda: segment(run_all)


def run_mission(data: dict, out_dir: Path, tracer=None, gauge=None) -> MissionRun:
    """Run one mission; errors are caught and returned in ``error``.

    With a ``gauge``, the mission's ``slowdown`` is measured and the gauge's
    own time is left out of ``cpu_s``.
    """
    tracer = tracer or NullTracer()
    gauge = gauge or NullGauge()
    tracer.begin_mission()
    run = MissionRun()
    csv_path, report_path = out_dir / "mission.csv", out_dir / "mission.txt"
    kernel_s0, steps0 = gauge.kernel_s, gauge.steps
    gauge.sample(force=True)
    kernel_s1 = gauge.kernel_s
    try:
        t0 = clock()
        with tracer.span("config.parse"):
            cfg = parse_config(data)
        with tracer.span("runner.build"):
            mission = runner._Mission(cfg)
        t1 = clock()
        run.prescheduled = tracer.scheduled
        _time_loop(mission.q, run, tracer, gauge)
        result = mission.run()
        with tracer.span("runner.emit_csv"):
            runner.emit_csv([result], csv_path)
        with tracer.span("runner.emit_report"):
            runner.emit_report([result], report_path)
        t2 = clock()
    except Exception as exc:  # a failed mission is counted, not fatal
        run.error = f"{type(exc).__name__}: {exc}"
        return run
    run.cpu_s, run.setup_s = t2 - t0 - (gauge.kernel_s - kernel_s1), t1 - t0
    if gauge.steps > steps0:
        run.slowdown = (gauge.kernel_s - kernel_s0) / (gauge.steps - steps0) / REF_STEP_S
    run.peak_queue = tracer.peak_pending
    run.csv = csv_path.read_bytes()
    links = result.metrics.links
    run.offered_pkts = sum(c["offered_pkts"] for c in links.values())
    run.latency_samples = sum(s.count for s in result.metrics.latency.values())
    for name, c in links.items():
        for unit in ("pkts", "bits"):
            if c[f"offered_{unit}"] != c[f"delivered_{unit}"] + c[f"dropped_{unit}"]:
                run.error = f"link {name}: offered {unit} != delivered + dropped"
    return run


# -- checks ------------------------------------------------------------------

class Checker:
    """Counts attempted and failed missions across a benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: dict[tuple, MissionRun] = {}

    def check(self, key, run: MissionRun, expected: dict | None = None) -> None:
        """Check one mission run.

        Runs that share ``key`` run one config and seed, so every run must
        match the first one's CSV bytes and event count. ``expected`` holds
        the recorded digests of the reference seed, indexed by ``key[1]``.
        """
        self.attempted += 1
        problem = run.error
        if problem is None and expected is not None:
            if stats_digest(run.csv, expected["keys"]) != expected["stats_sha256"][key[1]]:
                problem = "stats digest differs from expected.json"
        if problem is None:
            first = self._first.setdefault(key, run)
            if run.csv != first.csv:
                problem = "rerun emitted different CSV bytes"
            elif run.events != first.events:
                problem = f"rerun dispatched {run.events} events, first {first.events}"
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{key}: {problem}")


def run_pass(configs: list[dict], out_dir: Path, checker: Checker, tag: str,
             tracer: Tracer | None = None, expected: dict | None = None,
             gauge: Gauge | None = None) -> list[MissionRun]:
    """Run each config once; checks key each run by ``(tag, index)``."""
    if tracer is None:
        runs = [run_mission(data, out_dir, gauge=gauge) for data in configs]
    else:
        with tracer.installed():
            runs = [run_mission(data, out_dir, tracer, gauge) for data in configs]
    for i, run in enumerate(runs):
        checker.check((tag, i), run, expected)
    return runs


# -- metrics -----------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; with fewer than 21 samples, the maximum (p100)."""
    s = sorted(samples)
    k = len(s) - 11 if len(s) >= 21 else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s)


def end_to_end(passes: list[list[MissionRun]]) -> dict[str, float]:
    """End-to-end metrics over untraced passes that all succeeded (medians),
    each mission's times scaled to the gauge's reference host speed.

    Every pass runs the same missions, so a mission's time is its median
    over the passes, and ``mission_s_*`` are taken over the distinct
    missions of the workload.
    """
    per_mission = [statistics.median(r.scaled(r.cpu_s) for r in runs)
                   for runs in zip(*passes)]
    value, pct = tail(per_mission)
    return {
        "run_s": statistics.median(sum(r.scaled(r.cpu_s) for r in p) for p in passes),
        "setup_s": statistics.median(sum(r.scaled(r.setup_s) for r in p) for p in passes),
        "pkts_per_s": statistics.median(
            sum(r.offered_pkts for r in p) / sum(r.scaled(r.loop_s) for r in p)
            for p in passes),
        "mission_s_p50": statistics.median(per_mission),
        "mission_s_tail": value,
        "mission_s_tail_pct": pct,
        "missions": len(per_mission),
    }


def per_layer(runs: list[MissionRun], tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    t = tracer.totals()
    out = {
        "config.parse_s": t["config.parse"]["total_s"],
        "runner.build_s": t["runner.build"]["total_s"],
        "runner.prescheduled": max(r.prescheduled for r in runs),
        "runner.callbacks_self_s": t["queue.callback"]["self_s"],
        "runner.emit_csv_s": t["runner.emit_csv"]["total_s"],
        "runner.emit_report_s": t["runner.emit_report"]["total_s"],
        "netsim.queue.events": sum(r.events for r in runs),
        "netsim.queue.dispatch_self_s": t["queue.loop"]["self_s"],
        "netsim.queue.peak_len": max(r.peak_queue for r in runs),
    }
    for link in LINKS:
        out[f"netsim.link.send_calls.{link}"] = tracer.send_calls.get(link, 0)
    out["netsim.link.send_self_s"] = t["link.send"]["self_s"]
    out["netsim.link.finish_calls"] = sum(tracer.finish_calls.values())
    out["netsim.link.finish_self_s"] = t["link.finish"]["self_s"]
    for link in LINKS:
        offered = tracer.send_calls.get(link, 0)
        out[f"netsim.link.delivered_ratio.{link}"] = (
            tracer.finish_calls.get(link, 0) / offered if offered else 0.0)
    out.update({
        "netsim.metrics.calls": t["metrics"]["count"],
        "netsim.metrics.self_s": t["metrics"]["self_s"],
        "netsim.metrics.latency_samples": sum(r.latency_samples for r in runs),
        "netsim.snapshot_s": t["netsim.snapshot"]["total_s"],
        "protocol.fragment_calls": t["protocol.fragment"]["count"],
        "protocol.fragment_s": t["protocol.fragment"]["total_s"],
        "swarm.kinematics_calls": t["swarm.kinematics"]["count"],
        "swarm.kinematics_s": t["swarm.kinematics"]["total_s"],
        "failure.calls": t["failure"]["count"],
        "failure.self_s": t["failure"]["self_s"],
        "energy.ledger_s": t["energy.ledger"]["total_s"],
    })
    return out
