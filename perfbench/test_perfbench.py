"""Self-tests of the benchmark's checks.

    python3 -m pytest -q perfbench
"""
import swarmbench as sb
from hostspeed import STEPS, Gauge
from swarmtrace import Tracer

# a failover-shaped mission cut to 120 s so the tests stay fast
SHORT = dict(sb.FAILOVER_BASE, name="short", seed=7, duration_s=120,
             failures=[{"kind": "sd_sudden", "drone_id": 4, "at_s": 100.0}])


def test_stats_digest_catches_one_altered_value(tmp_path):
    run = sb.run_mission(SHORT, tmp_path)
    assert run.error is None
    keys = sb.csv_keys(run.csv)
    digest = sb.stats_digest(run.csv, keys)

    lines = run.csv.decode().splitlines(keepends=True)
    fields = lines[1].split(",")
    fields[5] = str(int(fields[5]) + 1)
    altered = "".join([lines[0], ",".join(fields)] + lines[2:]).encode()
    assert sb.stats_digest(altered, keys) != digest

    appended = run.csv + b"short#7,7,wlan,new_metric,all,1,packets\n"
    assert sb.stats_digest(appended, keys) == digest


def test_same_seed_gives_same_failover_schedule():
    assert sb.failover_schedule(5) == sb.failover_schedule(5)
    assert sb.missions("failover_batch", 5) == sb.missions("failover_batch", 5)
    assert sb.failover_schedule(5) != sb.failover_schedule(6)


def test_traced_pass_agrees_with_untraced_pass(tmp_path):
    checker = sb.Checker()
    untraced = sb.run_pass([SHORT], tmp_path, checker, "run")
    tracer = Tracer()
    traced = sb.run_pass([SHORT], tmp_path, checker, "run", tracer=tracer)
    assert checker.failed == 0, checker.problems
    keys = sb.csv_keys(untraced[0].csv)
    assert sb.stats_digest(traced[0].csv, keys) == sb.stats_digest(untraced[0].csv, keys)
    assert traced[0].events == untraced[0].events > 0
    layers = sb.per_layer(traced, tracer)
    assert layers["netsim.link.finish_calls"] == layers["netsim.metrics.latency_samples"]
    assert layers["failure.calls"] > 0


def test_gauge_scales_mission_without_changing_its_output(tmp_path):
    plain = sb.run_mission(SHORT, tmp_path)
    gauge = Gauge()
    gauged = sb.run_mission(SHORT, tmp_path, gauge=gauge)
    assert plain.error is None and gauged.error is None
    assert gauged.csv == plain.csv and gauged.events == plain.events
    assert gauge.steps >= STEPS
    assert plain.slowdown == 1.0 and gauged.slowdown > 0
    assert gauged.scaled(gauged.cpu_s) == gauged.cpu_s / gauged.slowdown
