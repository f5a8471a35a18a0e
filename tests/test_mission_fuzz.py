"""Random missions against the runner's end-of-run invariants.

``mission_configs`` draws config-file dicts that set every one of the 22
settable values within its schema range (docs/config-schema.md), with
horizons of 1 ms to 430 s, 0-4 scripted failures of any kind, and video
and EDCA on or off. Video's SD limit is left to ``parse_config`` to
reject, so its rejection path runs too. Video calls are kept short so
that one example stays well under a second.

The runner detects a lost leader with one deadline event, pushed at the
loss. A differential test runs it beside a probe that polls every
watchdog slot, every 0.2 s in flight and every 30 s while collecting, and
requires both to detect each loss at the same instant.

A status round or a flight-ack round that nothing disturbs is settled in
closed form (``_Mission._settle_round``, ``_Mission._settle_acks``). A
second differential test runs each draw with both and with every round
left to the train's slots, and requires the same output bytes, event
count, final clock and report accounting. Its examples pin the traps of
the flight-ack round: the clock must end at the last ack's completion, not
its delivery, and a round may settle only in the roster epoch that
registered it.

The flight-ack slots of every roster are a ``range`` from its first SD's
id to its last's (``_Mission._refresh_senders``), so a roster with holes
has a slot that offers nothing for each gone SD and for the leader. A
differential test runs each draw and the settle test's examples so and
with a roster with holes on list slots of its ids, as before ranges, and
requires the same output bytes, clock, report counts and last activity,
and event counts that differ by exactly the hole slots registered.

The status tick costs what changed since the last roster epoch: it drains
the epoch's airborne drones, and powered and airborne time are segments
closed at each change (``_Mission._refresh_senders``). A third
differential test runs each draw so and with a reference that samples
every drone at every tick, and requires the same powered and airborne
times, per-tick batteries, output bytes and event count.
"""
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from swarmsim import energy, failure
from swarmsim.config import (
    MAX_SDS_NO_VIDEO,
    MAX_SDS_VIDEO,
    VIDEO_BANDWIDTHS_MBPS,
    WLAN_DATA_RATES_MBPS,
    WLAN_PROC_RATES_PPS,
    ConfigError,
    parse_config,
)
from swarmsim.energy import MAX_SESSIONS
from swarmsim.failure import FailureKind
from swarmsim.netsim import EventQueue
from swarmsim.output import emit_csv, emit_report
from swarmsim.runner import ACK_STAGGER_US, _Mission, run_scenario
from swarmsim.protocol import SD_STATUS_PERIOD_US
from swarmsim.swarm import Phase, PhaseEvent

HORIZON_S = 430.0


def _seconds(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _or(default, values):
    """``values``, or often the default, so that draws mix ordinary
    missions with edge cases."""
    return st.just(default) | values


@st.composite
def mission_configs(draw):
    """A config-file dict with all 22 settable values and 0-4 failures."""
    video = draw(st.booleans())
    n_sds = draw(st.integers(1, MAX_SDS_VIDEO + 2 if video else MAX_SDS_NO_VIDEO))
    failures = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(FailureKind.ALL))
        drone = st.integers(1, n_sds + 1)
        failures.append({
            "kind": kind,
            "drone_id": draw(drone if kind == FailureKind.SD_SUDDEN else st.none() | drone),
            "at_s": draw(_seconds(0, HORIZON_S)),
        })
    return {
        "name": draw(st.text("abcXYZ019_-. #", min_size=1, max_size=12)),
        "seed": draw(st.integers(0, 2**32)),
        "duration_s": draw(_seconds(0.001, 1) | _seconds(1, HORIZON_S)),
        "n_sds": n_sds,
        "profile": draw(st.sampled_from([1, 2])),
        "infection_rate": draw(_or(0.025, _seconds(0, 1))),
        "measure_from_s": draw(_or(0.0, _seconds(0, HORIZON_S))),
        "wlan": {
            "data_rate_mbps": draw(st.sampled_from(WLAN_DATA_RATES_MBPS)),
            "proc_rate_pps": draw(st.sampled_from(WLAN_PROC_RATES_PPS)),
            "edca": draw(st.booleans()),
            "overhead_bytes": draw(_or(90, st.integers(0, 10_000))),
            "buffer_bits": draw(_or(1_000_000, st.integers(1, 2_000_000))),
        },
        "video": {
            "enabled": video,
            "bandwidth_mbps": draw(st.sampled_from(VIDEO_BANDWIDTHS_MBPS)),
            "max_calls": draw(st.none() | st.integers(1, 20)),
            "forced_calls": draw(st.integers(0, 4)),
            "call_duration_s": draw(_seconds(0.001, 20)),
        },
        "mission": {
            "session_duration_s": draw(_seconds(0.001, 600)),
            "n_sessions": draw(st.integers(1, MAX_SESSIONS)),
            "reposition_s": draw(_seconds(0, 120)),
            "transit_distance_m": draw(_seconds(0, 3_000)),
            "n_targets": draw(st.none() | st.integers(0, n_sds)),
        },
        "failures": failures,
    }


def _outputs(cfg, out: Path) -> tuple[bytes, bytes]:
    """CSV and report bytes of one run; ``run_scenario`` returns only once
    its end-of-run invariants hold."""
    result = run_scenario(cfg)
    return (emit_csv([result], out / "run.csv").read_bytes(),
            emit_report([result], out / "run.txt").read_bytes())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=mission_configs())
def test_a_random_mission_runs_clean_and_reruns_byte_identical(data):
    try:
        cfg = parse_config(data)
    except ConfigError:  # the only error a config may raise, and only here
        return
    with tempfile.TemporaryDirectory() as tmp:
        first = _outputs(cfg, Path(tmp))
        assert _outputs(cfg, Path(tmp)) == first


def _counting_events(q) -> list:
    """Record what each of ``q``'s ``run_until`` and ``run_all`` calls
    returns: the events it dispatched."""
    events = []

    def counted(run):
        def counting(*args):
            events.append(run(*args))
            return events[-1]
        return counting

    q.run_until, q.run_all = counted(q.run_until), counted(q.run_all)
    return events


def _observed(mission, out: Path) -> tuple:
    """CSV and report bytes, the events ``run_until`` and ``run_all``
    dispatched, the clock at the end, the status report counts and each
    drone's last activity of one run of ``mission``."""
    q, events = mission.q, _counting_events(mission.q)
    result = mission.run()
    state = mission.state
    return (emit_csv([result], out / "run.csv").read_bytes(),
            emit_report([result], out / "run.txt").read_bytes(), events, q.now,
            mission.reports_to_leader, state.buffered_reports, state.lost_reports,
            {i: d.telemetry.last_heard for i, d in state.drones.items()})


def _run_settling(cfg, out: Path, settle: bool) -> tuple:
    """What ``_observed`` returns of one run, with undisturbed status and
    flight-ack rounds settled in closed form or, if not ``settle``, left to
    the train."""
    mission = _Mission(cfg)
    if not settle:
        mission._settle_round = lambda times, ids, i: False
        mission._settle_acks = lambda times, ids, i: False
    return _observed(mission, out)


# two-session missions whose collection rounds settle; the 110 s round's
# last status ack ends at 110.007131 s
SETTLING = {"name": "settle", "seed": 3, "duration_s": 430, "n_sds": 6, "profile": 2,
            "infection_rate": 0.0,
            "mission": {"session_duration_s": 120, "n_sessions": 2, "reposition_s": 60,
                        "transit_distance_m": 100, "n_targets": 4}}


SETTLE_EXAMPLES = [
    # rounds to the leader, to it dead and to the backup from 180.003 s
    dict(SETTLING, failures=[{"kind": "ld_sudden", "at_s": 100}]),
    # under profile 1, to a dead leader that no deadline before the horizon finds
    dict(SETTLING, profile=1, duration_s=145, failures=[{"kind": "ld_sudden", "at_s": 100}]),
    # a soft handover at the 100 s tick; SD 4 is lost between two beacon
    # slots of the 130 s round, whose remainder settles
    dict(SETTLING, failures=[{"kind": "ld_predicted", "at_s": 95},
                             {"kind": "sd_sudden", "drone_id": 4, "at_s": 130.0035}]),
    # a beacon and its ack outlast the 1 ms beacon stagger, or a beacon does
    # not fit the WLAN buffer, so no round settles
    dict(SETTLING, wlan={"data_rate_mbps": 6, "overhead_bytes": 400}),
    dict(SETTLING, profile=1, wlan={"buffer_bits": 800}),
    # the horizon falls before the last round's last ack ends, and an event
    # falls at the instant it ends: neither round settles
    dict(SETTLING, duration_s=110.00705),
    dict(SETTLING, failures=[{"kind": "ld_predicted", "at_s": 110.007131}]),
    # one SD and a 1 s horizon: run_all settles the acks of the 1 s
    # broadcast, and the run ends at the ack's completion, 100 us before
    # its delivery
    dict(SETTLING, n_sds=1, duration_s=1, mission=dict(SETTLING["mission"], n_targets=1)),
    # soft handovers from leader 1 to SD 3 at the 40 s tick and from 3 to SD
    # 2 at the 220 s tick; the acks of the reposition flight's 219.9998 s
    # broadcast, registered for SDs 1, 2 and 4, fall after that tick, when
    # SDs 1, 3 and 4 ack: no epoch but the round's own settles it, and
    # SD 3's slot, the leader's hole when the round was registered, stays
    # empty
    dict(SETTLING, n_sds=3,
         mission=dict(SETTLING["mission"], session_duration_s=119.9998, n_targets=3),
         failures=[{"kind": "ld_predicted", "at_s": 35}, {"kind": "ld_predicted", "at_s": 215}]),
]


def with_settle_examples(test):
    """``test`` with each of ``SETTLE_EXAMPLES`` as an explicit example."""
    for data in reversed(SETTLE_EXAMPLES):
        test = example(data=data)(test)
    return test


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=mission_configs())
@with_settle_examples
def test_a_settled_status_round_runs_as_its_slots_would(data):
    try:
        cfg = parse_config(data)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        assert _run_settling(cfg, Path(tmp), True) == _run_settling(cfg, Path(tmp), False)


def _run_ack_slots(cfg, out: Path, ranges: bool) -> tuple:
    """What ``_observed`` returns of one run, with each flight round's acks
    on a range of the roster's ids or, if not ``ranges``, by the rule before
    ranges: a roster with holes acks on list slots of its ids, which no
    closed form settles. Also the events in each ``run_until`` and
    ``run_all`` call of the hole slots, ids of the range whose SD was gone
    from the roster when the round was registered; and whether a round with
    holes ran."""
    mission, holes = _Mission(cfg), []
    q, wlan, horizon = mission.q, mission.wlan, mission.horizon
    train, acks = wlan.train, mission.flight_acks

    def ack_train(times, ids, packet_for, on_deliver=None, tie=None, settle=None):
        if settle == mission._settle_acks:  # a flight round, on a range of ids
            gone = [t for t, x in zip(times, ids) if x not in acks]
            holes.extend(gone)
            if gone and not ranges:
                ids = list(acks)
                times, settle = [q.now + x * ACK_STAGGER_US for x in ids], None
        return train(times, ids, packet_for, on_deliver, tie, settle)

    wlan.train = ack_train
    seen = _observed(mission, out)
    # run_until(horizon) runs every slot up to the horizon, run_all the rest
    counted = [sum(t <= horizon for t in holes), sum(t > horizon for t in holes)]
    return seen, counted, bool(holes)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=mission_configs())
@with_settle_examples
def test_range_ack_slots_run_as_list_slots_would(data):
    try:
        cfg = parse_config(data)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        got, counted, with_holes = _run_ack_slots(cfg, Path(tmp), True)
        want, _, _ = _run_ack_slots(cfg, Path(tmp), False)
    # each hole slot is one more processed event in its call, and nothing
    # else differs: bytes, clock, report counts and last activity
    events, want_events = got[2], want[2]
    assert [a - b for a, b in zip(events, want_events)] == counted
    assert got[:2] + got[3:] == want[:2] + want[3:]


def _sample_every_drone(mission):
    """A status tick's telemetry update that visits every drone, as the
    runner once did: each live drone gains a tick of powered time, each
    airborne one a tick of airborne time and its role's drain, and each
    returning drone at its waypoint lands, one ``_move`` per drone. The
    runner's segments add nothing."""
    state = mission.state
    mission._close_segment = lambda drone_id, first, alive, up: None
    drain_pct_per_s = {role: 100.0 / (energy.flight_budget_min(role) * 60.0)
                       for role in ("ld", "sd")}

    def update(now):
        for d in state.drones.values():
            if not d.alive:
                continue
            mission.alive_us[d.id] += SD_STATUS_PERIOD_US
            if d.airborne:
                mission.airborne_us[d.id] += SD_STATUS_PERIOD_US
                role = "ld" if d.id == state.leader_id else "sd"
                drain = drain_pct_per_s[role] * (SD_STATUS_PERIOD_US / 1e6)
                d.telemetry.battery_pct = max(0.0, d.telemetry.battery_pct - drain)
            if d.phase is Phase.RETURNING and d.waypoint is not None:
                if d.position == d.waypoint:
                    mission._move([d], PhaseEvent.LANDED_AT_BASE)
    return update


def _run_sampling(cfg, out: Path, epochs: bool) -> tuple:
    """Each drone's powered and airborne time, every drone's battery after
    each tick's update, the CSV and report bytes and the events dispatched
    of one run, with the roster epoch's segments and lists or, if not
    ``epochs``, with every drone sampled at every tick."""
    mission = _Mission(cfg)
    update = mission._update_telemetry if epochs else _sample_every_drone(mission)
    batteries, drones = [], mission.state.drones.values()

    def recording(now):
        update(now)
        batteries.append((now, [d.telemetry.battery_pct for d in drones]))

    mission._update_telemetry = recording
    events = _counting_events(mission.q)
    result = mission.run()
    return (mission.alive_us, mission.airborne_us, batteries,
            emit_csv([result], out / "run.csv").read_bytes(),
            emit_report([result], out / "run.txt").read_bytes(), events)


# a soft handover in flight at the 40 s tick (the overheated leader stays
# an SD), then an SD lost in the session and the new leader lost
HANDOVERS = dict(SETTLING, failures=[{"kind": "ld_predicted", "at_s": 35},
                                     {"kind": "sd_sudden", "drone_id": 4, "at_s": 100},
                                     {"kind": "ld_sudden", "at_s": 215}])
# two SDs fly two 700 s hops: the leader runs low, is sent home alone at
# 1,350 s and lands by itself at 1,380 s; the new leader keeps command
# unfit from 1,360 s, and the mission lands at 1,700 s
LONG_HOPS = {"name": "hops", "seed": 1, "n_sds": 2, "duration_s": 1800,
             "infection_rate": 0.0,
             "mission": {"n_sessions": 3, "session_duration_s": 60, "reposition_s": 700,
                         "transit_distance_m": 100}}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=mission_configs())
@example(data=HANDOVERS)
@example(data=LONG_HOPS)
def test_the_epoch_telemetry_equals_sampling_every_drone_each_tick(data):
    try:
        cfg = parse_config(data)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        assert _run_sampling(cfg, Path(tmp), True) == _run_sampling(cfg, Path(tmp), False)


def deadline_beside_polling(cfg) -> tuple[list, list, list]:
    """Run ``cfg`` beside a probe that polls for a silent leader at every
    slot of each watchdog grid, with the polling watchdog's guards (the
    mission aborted or landed, no live SD) and its one handover per loss;
    it records and acts on nothing else. Each probe series takes its tie
    right after its grid's, so it sees at each slot what a series on the
    grid's tie saw. Returns the instants the deadline fired, its
    detections and the probe's, each as (time, leader id)."""
    take_tie, probe_ties = EventQueue.take_tie, []

    def take_two_ties(q):
        tie = take_tie(q)
        probe_ties.append(take_tie(q))
        return tie

    with mock.patch.object(EventQueue, "take_tie", take_two_ties):
        mission = _Mission(cfg)
    q, state, detect = mission.q, mission.state, failure.detect_ld_loss
    fired, detected, polled = [], [], []

    def poll(timeout):
        if state.aborted or mission.mission_phase is Phase.LANDED:
            return
        found = detect(state, q.now, timeout)
        if found is None or not state.has_alive_sd():
            return
        assert not state.drones[found.leader_id].alive, "polling detected a live leader"
        if found.leader_id not in [leader for _, leader in polled]:
            polled.append((q.now, found.leader_id))

    def series(first, period, last, timeout, tie):
        def tick():  # as EventQueue.every runs a series
            if q.now + period <= last:
                q.schedule_tied(q.now + period, tie, tick)
            poll(timeout)
        q.schedule_tied(first, tie, tick)

    for (first, period, last, timeout, _), tie in zip(mission.watchdog_grids, probe_ties):
        series(first, period, last, timeout, tie)

    def spy(state, now, timeout):
        found = detect(state, now, timeout)
        detected.append((now, found.leader_id))
        return found

    deadline = mission._detect_leader_loss

    def firing(timeout, lost_at):
        fired.append(q.now)
        deadline(timeout, lost_at)

    mission._detect_leader_loss = firing
    with mock.patch.object(failure, "detect_ld_loss", spy):
        mission.run()
    return fired, detected, polled


def _has_leader_loss(data) -> bool:
    return any(f["kind"] == FailureKind.LD_SUDDEN for f in data["failures"])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=mission_configs().filter(_has_leader_loss))
def test_the_deadline_detects_each_loss_where_polling_did(data):
    try:
        cfg = parse_config(data)
    except ConfigError:
        return
    _, detected, polled = deadline_beside_polling(cfg)
    assert detected == polled


# two sessions: flight windows [0, 90], [210, 270] and [390, 420] s, the
# landing at 420 s, and collection in between
TWO_SESSIONS = {"name": "deadline", "seed": 3, "duration_s": 430, "n_sds": 6,
                "profile": 2, "infection_rate": 0.0,
                "mission": {"session_duration_s": 120, "n_sessions": 2, "reposition_s": 60,
                            "transit_distance_m": 100, "n_targets": 4}}


@pytest.mark.parametrize("duration_s, kills_s, fired_s, detected_s", [
    # early in a session: last heard at the 90 s beacons, so the 150 s slot
    # is within the 60 s timeout and the 180 s slot is not
    (430, [100], [180.002], [180.002]),
    # late in a session: no collection slot is due before the session
    # ends, so the reposition flight's first slot detects the loss
    (430, [190], [210.202], [210.202]),
    # on the return leg, heard at 419.4 s: the 420.002 s slot is the first
    # due, and the mission has landed at 420 s
    (430, [419.5], [420.002], []),
    # the first slot due, 60.202 s, lies past the 60 s horizon
    (60, [59.7], [], []),
    # the backup leads from 40.603 s and is lost in turn
    (430, [40, 250], [40.602, 250.602], [40.602, 250.602]),
])
def test_the_deadline_detects_where_polling_did(duration_s, kills_s, fired_s, detected_s):
    cfg = parse_config(dict(TWO_SESSIONS, duration_s=duration_s, failures=[
        {"kind": "ld_sudden", "at_s": at_s} for at_s in kills_s]))
    fired, detected, polled = deadline_beside_polling(cfg)
    assert fired == [round(t * 1e6) for t in fired_s]
    assert [t for t, _ in detected] == [round(t * 1e6) for t in detected_s]
    assert detected == polled


def test_a_silence_of_exactly_the_timeout_is_not_yet_detected():
    # the leader is last heard at 40.002 s and lost at 40.1 s: at the
    # 40.602 s slot its silence equals the 0.6 s timeout, so the 40.802 s
    # slot detects the loss and the backup leads 1 ms later
    mission = _Mission(parse_config(dict(TWO_SESSIONS, failures=[
        {"kind": "ld_sudden", "at_s": 40.1}])))
    telemetry = mission.state.leader().telemetry
    mission.q.schedule(40_050_000, lambda: setattr(telemetry, "last_heard", 40_002_000))
    assert mission.run().recovery_times_s == [0.703]
