"""End-to-end scenario orchestration.

A run executes the mission timeline on one event queue: launch, formation
(30 s), transit at cruise speed, deployment (30 s), then data-collection
sessions separated by repositioning hops, and the return leg. Periodic
traffic rides role-resolved boundary ticks so that leadership changes take
effect mid-stream: every 10 s each live worker beacons its status to the
acting leader, who aggregates and flushes to the ground station every 30 s
(the reports of a flush the long-range link drops are lost); in flight
the leader broadcasts a waypoint update every 0.2 s and every worker
acknowledges it. Escalated cases file a 500-byte report and, when
enabled, a bidirectional video call relayed through the leader.

Periodic WLAN control sends are trains and the other periodic processes
(the status tick, the flush, the frames of each video call) are
self-rescheduling series, so the queue holds one entry per process
instead of one per slot of the horizon. A train (``Link.train``) offers
each flight window's waypoint broadcasts, the acks of each broadcast or,
per status tick and on its tie, every drone's beacon. It runs its slots
inline while no other event intervenes and completes in place a flight
ack that finds the WLAN idle and finishes first. An ack or beacon slot
looks its sender up in a roster table (``flight_acks``, ``beacons``) that
holds the SDs that send now with their cached packets, and under profile 2
the leader acks each beacon it receives with a status ack sent then; every
event that changes who sends (a mission transition, a landing, a loss, a
handover, an abort) refreshes the tables in place, so a refresh between
two slots of one train reaches the later slot. The acting leader's state
lives with the tables: the refresh also keeps the leader while alive,
whether it relays and its waypoint broadcast. The leader's relays (video
and case traffic from the WLAN onto the long-range link and back) read
that state; they are delivery callbacks, which a link runs inline when the
delivery is the next event anyway; each link caches, per packet size,
class, flow and source, what admitting a packet needs. ``run_until`` and
``run_all`` count inline slots, in-place completions and inline deliveries
as processed events. A status round or a flight-ack round that no other
event interrupts is settled in closed form by ``Link.settle``, which decides
when it applies and counts the packets and events. The runner keeps the
epoch's beacon and ack counters (``_epoch_rows``), adds a status round's
reports and the leader's last activity (``_settle_round``), and settles an
ack round only in the roster epoch that registered it (``_settle_acks``).
Any other round runs slot by slot.

The refresh also starts a roster epoch, so the status tick costs what
changed, not the swarm size. Each drone's powered and airborne time is a
segment of status ticks, closed at the refresh that changes the drone's
(alive, airborne) state and at the end of the run; the epoch lists the
airborne drones with their role's battery drain, the returning drones, the
live SDs' count and the flight ack ids. A tick counts itself, drains the
airborne list, lands the returning drones that reached the DMC with one
``_move`` and moves no drone when none is airborne; its beacon slots are
ranges. A broadcast's ack slots are a range too, over the epoch's ids from
its first SD's to its last's, so ``Link.settle`` takes the step as its gap
and finds a slot's index at once. A hole's slot, a gone SD's or the
leader's, offers nothing and counts as one processed event, as a beacon
slot of the leader or a landed SD does; the leader's stays empty in its
epoch's rounds even if a handover demotes it to an SD before the slot.

A watchdog run by the backup detects a leader silent for longer than the
detection timeout (0.6 s in flight, 60 s while collecting) at a slot of its
window's grid: 2 ms after each 0.2 s broadcast in flight, every 30 s while
collecting. Only a lost leader falls silent, so nothing polls: the
detection is computed at the loss and scheduled once, at the first grid
slot past the timeout from the leader's last activity, on the tie the
window's polling series would have taken, so it runs at the same instant
and in the same order as a poll at every slot would. It triggers a hard
handover; predicted failures trigger a soft handover directly. A hard
handover that finds no SD fit to lead aborts the mission, and ``_abort``
alone marks a mission aborted, always after the leader is lost. The
runner sends a demoted leader low on battery home. Each phase change it
makes is a phase-machine edge taken in ``_move``, which refreshes the
roster tables; ``failure.isolate_drone`` is the only other phase writer.
At the end, each drone's airborne, powered and video time is priced by its
final role against its batteries; an overdraw is a deviation.
Identical (config, seed) pairs produce identical results.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import groupby

from . import energy as energy_mod
from . import failure as failure_mod
from .config import ScenarioConfig, parse_config, to_dict
from .errors import ConfigError, RunInvariantError
from .netsim import (
    BEST_EFFORT,
    CONTROL,
    VIDEO,
    EventQueue,
    Metrics,
    MetricsRecord,
    Packet,
    WimaxParams,
    build_wlan_link,
    build_wimax_link,
    max_simultaneous_calls,
    metrics_snapshot,
)
from .output import emit_csv, emit_report  # noqa: F401  perfbench and test_acceptance use these
from .protocol import (
    ACK_LEN,
    BROADCAST_ID,
    CASE_REPORT_LEN,
    DMC_ID,
    HEADER_LEN,
    LD_STATUS_PERIOD_US,
    MOVE_TO_WAYPOINT_LEN,
    MOVE_TO_WAYPOINT_PERIOD_US,
    MTU,
    SD_STATUS_PERIOD_US,
    STATUS_SD_LEN,
    VIDEO_FRAME_RATE,
    VideoCallSpec,
    fragment_payload,
    status_report_ld_length,
)
from .swarm import (
    SPAN_M,
    MissionPlan,
    Phase,
    PhaseEvent,
    assign_targets,
    can_collect,
    formation_positions,
    advance_kinematics,
    init_swarm,
    transition_phase,
    validate_phase_trace,
)

WATCHDOG_MARGIN_US = 2_000
CALL_STAGGER_US = 10_000
BEACON_STAGGER_US = 1_000
ACK_STAGGER_US = 200
# an SD sends no beacon or acknowledgement once landed or lost; the phases
# are module globals, and _GONE a tuple, because identity tests against them
# are cheaper than hashing an Enum member into a set
_LANDED, _RETURNING = Phase.LANDED, Phase.RETURNING
_GONE = (_LANDED, Phase.FAILED, Phase.ISOLATED)


@dataclass
class RunResult:
    config: dict
    seed: int
    metrics: MetricsRecord
    energy: dict[int, dict[str, float]]
    phase_trace: list[str]
    deviations: list[str]
    aborted: bool
    collected_targets: list[int]
    pending_targets: list[int]
    recovery_times_s: list[float]
    sd_reports_delivered: int
    sd_reports_lost: int
    calls_started: int


def _target_grid(m: int, center: tuple[float, float], pitch: float = 24.0):
    cols = math.isqrt(m)
    if cols * cols < m:
        cols += 1
    cx, cy = center
    out = []
    for k in range(m):
        r, c = divmod(k, cols)
        out.append((cx + (c - (cols - 1) / 2.0) * pitch,
                    cy + (r - (m // cols) / 2.0) * pitch))
    return tuple(out)


class _Mission:
    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.q = EventQueue()
        self.metrics = Metrics(measure_from_us=int(cfg.measure_from_s * 1e6))
        self.wlan = build_wlan_link(self.q, cfg.wlan, self.metrics, "wlan")
        wimax = WimaxParams()
        self.wimax_ul = build_wimax_link(self.q, wimax, self.metrics, "wimax_ul")
        self.wimax_dl = build_wimax_link(self.q, wimax, self.metrics, "wimax_dl")
        self.rng = random.Random(cfg.seed)
        self.horizon = int(cfg.duration_s * 1e6)

        m = cfg.mission
        center = (min(m.transit_distance_m, SPAN_M), SPAN_M / 2.0)
        n_targets = cfg.n_sds if m.n_targets is None else m.n_targets
        plan = MissionPlan(target_positions=_target_grid(max(n_targets, 1), center))
        self.state = init_swarm(plan, cfg.n_sds)
        self.n_targets = n_targets
        self.mission_phase = Phase.CONFIGURED
        self.trace: list[Phase] = [Phase.CONFIGURED]

        self.reports_to_leader = 0  # status reports the WLAN delivered to the leader
        self.reports_delivered = 0
        self.calls_started = 0
        # (caller, start) of each call in progress
        self.active_calls: set[tuple[int, int]] = set()
        self.ended_at = self.horizon  # the instant the mission landed or aborted
        self.kept_command: int | None = None  # leader that found no SD fit to lead
        self.warned_no_sds = False
        self.airborne_us: dict[int, int] = {d: 0 for d in self.state.drones}
        self.alive_us: dict[int, int] = {d: 0 for d in self.state.drones}
        self.video_us: dict[int, int] = {d: 0 for d in self.state.drones}
        # the status ticks run so far; drone id -> its open (first tick,
        # alive, airborne) segment; the roster epoch's airborne drones as
        # (telemetry, drain per tick of its role), returning drones, live SD
        # count, flight ack ids and the ack slots' lookup: all kept by
        # _refresh_senders from the launch
        self.ticks, self.segments = 0, {}
        self.airborne, self.returning, self.live_sds = [], [], 0
        self.ack_ids, self.ack_of = range(0), None
        # SD id -> its flight ack or beacon to the acting leader, for the SDs
        # that send now, each stamped when offered; kept from the launch on
        # by _refresh_senders, with the acting leader's state, which nothing
        # reads before then
        self.flight_acks: dict[int, Packet] = {}
        self.beacons: dict[int, Packet] = {}
        self.live_leader, self.leader_up = None, False
        self.waypoint_pkt, self.down_relay = None, (None, None)
        self.round_rows = self.ack_rows = None

        # battery drain per airborne tick, from the derated budget per role
        self.drain_per_tick = {role: 100.0 / (energy_mod.flight_budget_min(role) * 60.0)
                               * (SD_STATUS_PERIOD_US / 1e6) for role in ("ld", "sd")}

        if cfg.video.enabled and cfg.video.max_calls is None:
            call = VideoCallSpec(cfg.video.bandwidth_mbps * 1e6)
            self.max_calls = max_simultaneous_calls(cfg.wlan, wimax, call)
        else:
            self.max_calls = cfg.video.max_calls or 0

        self._build_timeline()

    # -- timeline ---------------------------------------------------------

    def _build_timeline(self) -> None:
        m = self.cfg.mission
        times = energy_mod.mission_times(m)
        transit_us, session_us, reposition_us = (
            times.transit_us, times.session_us, times.hop_us)
        form_end = times.formation_us
        area_at = form_end + transit_us
        collect_start = area_at + times.deploy_us

        self.flight_windows: list[tuple[int, int]] = [(0, collect_start)]
        self.collection_windows: list[tuple[int, int]] = []
        t = collect_start
        for i in range(m.n_sessions):
            start, end = t, t + session_us
            self.collection_windows.append((start, end))
            if i < m.n_sessions - 1:
                self.flight_windows.append((end, end + reposition_us))
                t = end + reposition_us
            else:
                t = end
        mission_end = t
        land_at = mission_end + transit_us
        self.flight_windows.append((mission_end, land_at))

        H = self.horizon
        ev = self._at

        ev(0, lambda: self._mission_transition(PhaseEvent.LAUNCH_COMMAND))
        ev(form_end, lambda: self._mission_transition(PhaseEvent.FORMATION_FORMED))
        ev(form_end, lambda: self._mission_transition(PhaseEvent.TRANSIT_STARTED))
        ev(area_at, lambda: self._mission_transition(PhaseEvent.AREA_REACHED))
        ev(collect_start, lambda: self._mission_transition(PhaseEvent.DEPLOYMENT_COMPLETE))

        for i, (start, end) in enumerate(self.collection_windows):
            ev(start, lambda i=i: self._start_session(i))
            classify_at = start + 60_000_000
            if classify_at < end:
                ev(classify_at, lambda i=i, t0=classify_at: self._classify_session(i, t0))
            ev(end, self._finish_session)
            if i == m.n_sessions - 1:
                ev(end, lambda: self._mission_transition(
                    PhaseEvent.DATA_SUFFICIENT_CONFIRMATION))
            else:
                ev(end, lambda: self._mission_transition(PhaseEvent.SESSION_COMPLETE))
                ev(end + reposition_us, lambda: self._mission_transition(
                    PhaseEvent.REPOSITION_COMPLETE))
        ev(land_at, lambda: self._mission_transition(PhaseEvent.LANDED_AT_BASE))

        # periodic WLAN sends run as trains, the flush and the telemetry
        # ticks as series; events at equal times run in the order their
        # trains, series and watchdog grids take ties here. Per-drone send
        # slots are staggered so synchronized reports do not collide in the
        # transmit queue (deterministic stand-in for channel-access backoff).
        every = self.q.every
        self.status_tie = every(SD_STATUS_PERIOD_US, SD_STATUS_PERIOD_US, H, self._status_tick)
        every(LD_STATUS_PERIOD_US, LD_STATUS_PERIOD_US, H, self._flush_tick)
        # the watchdog's slots per window as (first, period, last, timeout,
        # tie), up to the horizon; _arm_deadline picks one at a leader loss
        grids = self.watchdog_grids = []
        take_tie = self.q.take_tie
        for a, b in self.flight_windows:
            first = a + MOVE_TO_WAYPOINT_PERIOD_US
            slots = range(first, min(b, H) + 1, MOVE_TO_WAYPOINT_PERIOD_US)
            self.wlan.train(slots, slots, self._waypoint, self._on_waypoint_delivered)
            first, last = first + WATCHDOG_MARGIN_US, min(b + WATCHDOG_MARGIN_US, H)
            if first <= last:
                grids.append((first, MOVE_TO_WAYPOINT_PERIOD_US, last,
                              failure_mod.FLIGHT_DETECTION_TIMEOUT_US, take_tie()))
        for a, b in self.collection_windows:
            first = a + LD_STATUS_PERIOD_US + WATCHDOG_MARGIN_US
            last = min(b + WATCHDOG_MARGIN_US, H)
            if first <= last:
                grids.append((first, LD_STATUS_PERIOD_US, last,
                              failure_mod.COLLECTION_DETECTION_TIMEOUT_US, take_tie()))

        for f in self.cfg.failures:
            if f.at_us <= H:
                self.q.schedule(f.at_us, lambda f=f: self._apply_failure(f))

    def _at(self, t: int, fn) -> None:
        if t <= self.horizon:
            self.q.schedule(t, fn)

    # -- mission phases ---------------------------------------------------

    def _mission_transition(self, event: PhaseEvent) -> None:
        """Move the mission, and the drones that keep its phase, along the
        edge for ``event``; a drone sent home alone rejoins at the landing."""
        if self.state.aborted or self.mission_phase is Phase.LANDED:
            return
        was = self.mission_phase
        self.mission_phase = transition_phase(was, event)
        self.trace.append(self.mission_phase)
        if self.mission_phase is Phase.LANDED:
            self.ended_at = self.q.now
        self._move([d for d in self.state.drones.values() if d.phase is was], event)
        self._update_waypoints()

    def _move(self, drones, event: PhaseEvent) -> None:
        """Take each drone along the phase machine's edge for ``event``, then
        refill the roster tables: the runner's one writer of drone phases."""
        for d in drones:
            d.phase = transition_phase(d.phase, event)
        self._refresh_senders()

    def _update_waypoints(self) -> None:
        state = self.state
        plan = state.plan
        center = plan.target_positions[0] if plan.target_positions else plan.dmc_position
        leader = state.leader()
        if self.mission_phase in (Phase.IN_FORMATION, Phase.TRANSIT, Phase.DEPLOYING):
            leader.waypoint = center
            # a drone sent home alone keeps its course to the DMC
            sds = [d for d in state.alive_sds() if d.phase is not Phase.RETURNING]
            slots = formation_positions(max(len(sds), 1), center)
            for d, slot in zip(sds, slots):
                d.waypoint = slot
        elif self.mission_phase in (Phase.COLLECTING, Phase.REPORTING):
            for sd_id, target in state.assignments.items():
                if target < len(plan.target_positions):
                    state.drones[sd_id].waypoint = plan.target_positions[target]
        elif self.mission_phase in (Phase.RETURNING, Phase.LANDED):
            for d in state.drones.values():
                d.waypoint = plan.dmc_position
                if self.mission_phase is Phase.LANDED and d.alive:
                    d.position = plan.dmc_position

    # -- sessions ---------------------------------------------------------

    def _start_session(self, index: int) -> None:
        state = self.state
        if state.aborted:
            return
        # every session visits every target, so a target deferred or
        # orphaned in the last session is among them
        state.pending_targets = []
        state.assignments = {}
        deferred = assign_targets(state, list(range(self.n_targets)))
        if deferred:
            state.deviations.append(
                f"session {index}: {len(deferred)} targets deferred; "
                f"only {self.n_targets - len(deferred)} SDs available"
            )
        self._update_waypoints()

    def _classify_session(self, index: int, now: int) -> None:
        state = self.state
        if state.aborted:
            return
        cfg = self.cfg
        callers: list[int] = []
        for sd_id in self._assigned_sds():
            if self.rng.random() < cfg.infection_rate:
                self._send_case_report(sd_id, now)
                callers.append(sd_id)
        if cfg.video.enabled:
            forced = [d.id for d in state.alive_sds() if can_collect(d)][:cfg.video.forced_calls]
            for sd_id in forced:
                if sd_id not in callers:
                    callers.append(sd_id)
            for k, sd_id in enumerate(callers):
                if len(self.active_calls) >= self.max_calls:
                    state.deviations.append(
                        f"session {index}: call from SD {sd_id} rejected; "
                        f"{self.max_calls} calls already active"
                    )
                    continue
                self.calls_started += 1
                self._start_call(sd_id, now + (k + 1) * CALL_STAGGER_US)

    def _finish_session(self) -> None:
        state = self.state
        if state.aborted:
            return
        state.collected.extend(state.assignments[i] for i in self._assigned_sds())
        state.assignments = {}

    def _assigned_sds(self) -> list[int]:
        """The SDs that hold a target, in id order; each can collect it, as
        a lost or promoted SD hands its target on and a drone sent home
        alone is a demoted leader, which holds none."""
        state = self.state
        for sd_id, target in state.assignments.items():
            if not can_collect(state.drones[sd_id]):
                raise RunInvariantError(
                    f"t={self.q.now}us SD {sd_id} holds target {target} "
                    f"but cannot collect it")
        return sorted(state.assignments)

    # -- traffic ----------------------------------------------------------

    def _senders(self) -> tuple:
        """The flight acks and beacons of the live, unlanded SDs to the
        acting leader, in id order, with no beacons once the mission is over;
        its waypoint broadcast until the end; the leader while alive, else
        None; and whether it relays."""
        state = self.state
        leader_id, leader = state.leader_id, state.leader()
        sds = [i for i, d in state.drones.items() if i != leader_id and d.phase not in _GONE]
        acks = {i: Packet(0, HEADER_LEN + ACK_LEN, CONTROL, "flight_ack", i, leader_id)
                for i in sds}
        live = leader if leader.alive else None
        up = live is not None  # an abort has lost the leader
        if state.aborted or self.mission_phase is _LANDED:
            return acks, {}, None, live, up
        beacons = {i: Packet(0, HEADER_LEN + STATUS_SD_LEN, CONTROL, "sd_status", i, leader_id)
                   for i in sds}
        waypoint = Packet(0, HEADER_LEN + MOVE_TO_WAYPOINT_LEN, CONTROL, "move_to_waypoint",
                          leader_id, BROADCAST_ID) if up else None
        return acks, beacons, waypoint, live, up

    def _refresh_senders(self) -> None:
        """Start a roster epoch; every phase change, handover and abort ends
        with this. Refill the roster tables in place (a train holds their
        ``get``); set the acting leader's state, which the relays read, and
        drop the last video_down relay as (forwarded packet, relay), which
        the copies of one fragment reuse, and the epoch's cached beacon and
        ack rows. Close each drone's segment whose (alive, airborne) state
        changed at the ticks counted so far, and open the next; list the
        airborne drones with their role's drain, the returning ones, the
        live SDs' count and the ``range`` of ids from the first flight ack's
        to the last's."""
        *fresh, self.waypoint_pkt, self.live_leader, self.leader_up = self._senders()
        for table, rows in zip((self.flight_acks, self.beacons), fresh):
            table.clear()
            table.update(rows)
        self.down_relay, self.round_rows, self.ack_rows = (None, None), None, None
        state, segments, ticks = self.state, self.segments, self.ticks
        leader_id, drain = state.leader_id, self.drain_per_tick
        # replaced, never changed: trains hold them. The leader's slot stays
        # empty in this epoch's rounds, though a later epoch may demote it
        ids, get = list(self.flight_acks), self.flight_acks.get
        ack_ids = self.ack_ids = range(ids[0], ids[-1] + 1) if ids else range(0)
        self.ack_of = (get if leader_id not in ack_ids
                       else lambda x: None if x == leader_id else get(x))
        airborne, returning, live_sds = [], [], 0
        for i, d in state.drones.items():
            alive, up = d.alive, d.airborne
            seg = segments.get(i)
            if seg is None or seg[1] is not alive or seg[2] is not up:
                if seg is not None:
                    self._close_segment(i, *seg)
                segments[i] = (ticks, alive, up)
            if up:
                airborne.append((d.telemetry, drain["ld" if i == leader_id else "sd"]))
                if d.phase is _RETURNING:
                    returning.append(d)
            if alive and i != leader_id:
                live_sds += 1
        self.airborne, self.returning, self.live_sds = airborne, returning, live_sds

    def _close_segment(self, drone_id: int, first: int, alive: bool, up: bool) -> None:
        """Add a segment's ticks, from ``first`` to now, to the drone's
        powered and airborne time."""
        span = (self.ticks - first) * SD_STATUS_PERIOD_US
        if alive:
            self.alive_us[drone_id] += span
        if up:
            self.airborne_us[drone_id] += span

    def _status_tick(self, now: int) -> None:
        # no drone beacons once the mission is over
        if self.state.aborted or self.mission_phase is _LANDED:
            return
        # every drone, ids 1 to n + 1, has a beacon slot up to the horizon,
        # on the tick's tie
        last = min(len(self.state.drones), (self.horizon - now) // BEACON_STAGGER_US)
        self.wlan.train(range(now + BEACON_STAGGER_US, now + (last + 1) * BEACON_STAGGER_US,
                              BEACON_STAGGER_US), range(1, last + 1),
                        self.beacons.get, self._on_status_delivered, self.status_tie,
                        self._settle_round)
        self._update_telemetry(now)
        self._check_leader_prediction(now)
        if self.airborne:  # kinematics moves only airborne drones
            advance_kinematics(self.state, SD_STATUS_PERIOD_US)

    def _on_status_delivered(self, pkt: Packet) -> None:
        self.reports_to_leader += 1
        state, leader = self.state, self.live_leader
        if leader is None:
            state.lost_reports += 1
            return
        state.buffered_reports += 1
        if self.cfg.profile == 2:  # the leader acks the beacon now
            now = leader.telemetry.last_heard = self.q.now
            self.wlan.send(Packet(now, HEADER_LEN + ACK_LEN, CONTROL, "status_ack",
                                  leader.id, pkt.src))

    def _settle_round(self, times: range, ids: range, i: int) -> bool:
        """Settle the beacon slots ``i`` onwards of a status round with
        ``Link.settle`` once the epoch's rows exist, and add the round's
        reports and the leader's last activity; else return False and leave
        the slots to the train. ``ids`` is the tick's range of drone ids."""
        cached = self.round_rows or self._round_rows()
        settled = cached and self.wlan.settle(times, ids, i, *cached)
        if not settled:
            return False
        n, heard = settled
        self.reports_to_leader += n
        state, leader = self.state, self.live_leader
        if leader is None:
            state.lost_reports += n
        else:
            state.buffered_reports += n
            if self.cfg.profile == 2 and n:  # it acked each beacon as it came
                leader.telemetry.last_heard = heard
        return True

    def _round_rows(self) -> tuple | None:
        """Cache and return this roster epoch's beacon rows (``_epoch_rows``)
        with the live leader's status ack under profile 2 (one key serves
        all its acks; else None); or None until the rows exist."""
        cached, leader = self._epoch_rows(self.beacons), self.live_leader
        if cached is None:
            return None
        ack = (Packet(0, HEADER_LEN + ACK_LEN, CONTROL, "status_ack", leader.id)
               if leader is not None and self.cfg.profile == 2 else None)
        self.round_rows = (*cached, ack)
        return self.round_rows

    def _epoch_rows(self, table: dict[int, Packet]) -> tuple | None:
        """This roster epoch's (SD id, counter) rows of a roster table in id
        order and one of its packets, which all have one size; or None until
        there is a packet and a measured offer made each one's counter. The
        scan starts from the last sender, which offers last in a round, and
        stops at the first counter missing, so a round whose counters are
        still being made costs one lookup per attempt."""
        counter, rows, pkt = self.wlan.counter, [], None
        for sd_id, pkt in reversed(table.items()):
            c = counter(pkt)
            if c is None:
                return None
            rows.append((sd_id, c))
        if pkt is None:
            return None
        rows.reverse()
        return rows, pkt

    def _flush_tick(self, now: int) -> None:
        state = self.state
        if not self.leader_up or self.mission_phase is _LANDED:
            return
        n = self.live_sds
        if n == 0:
            if not self.warned_no_sds:
                state.deviations.append(f"t={now}us leader has no SDs to aggregate")
                self.warned_no_sds = True
            return
        batch, state.buffered_reports = state.buffered_reports, 0
        self.live_leader.telemetry.last_heard = now
        pkt = Packet(now, HEADER_LEN + status_report_ld_length(n), CONTROL,
                     "ld_status", src=state.leader_id, dst=DMC_ID)
        if not self.wimax_ul.send(pkt, lambda p: self._on_flush_delivered(p, batch)):
            state.lost_reports += batch

    def _on_flush_delivered(self, pkt: Packet, batch: int) -> None:
        self.reports_delivered += batch
        if self.cfg.profile == 2:
            self.wimax_dl.send(Packet(self.q.now, HEADER_LEN + ACK_LEN, CONTROL, "status_ack",
                                      src=DMC_ID, dst=pkt.src))

    def _waypoint(self, _t: int) -> Packet | None:
        """A live leader's broadcast, until the end; it marks its activity."""
        pkt = self.waypoint_pkt
        if pkt is not None:
            self.live_leader.telemetry.last_heard = self.q.now
        return pkt

    def _on_waypoint_delivered(self, pkt: Packet) -> None:
        # a slot per id of the roster's range, in id order: the slots' time order
        now, ids = self.q.now, self.ack_ids
        self.wlan.train(range(now + ids.start * ACK_STAGGER_US, now + ids.stop * ACK_STAGGER_US,
                              ACK_STAGGER_US), ids, self.ack_of, settle=self._settle_acks)

    def _settle_acks(self, times: range, ids: range, i: int) -> bool:
        """Settle the ack slots ``i`` onwards of a flight round registered in
        this roster epoch (a later one holds other ids) with ``Link.settle``
        once the epoch's rows exist; else return False and leave the slots to
        the train. An ack has no delivery callback."""
        if ids is not self.ack_ids:
            return False
        cached = self.ack_rows = self.ack_rows or self._epoch_rows(self.flight_acks)
        return bool(cached) and self.wlan.settle(
            times, ids, i, *cached, delivers=False) is not None

    def _send_case_report(self, sd_id: int, now: int) -> None:
        pkt = Packet(now, HEADER_LEN + CASE_REPORT_LEN, BEST_EFFORT, "case_report",
                     src=sd_id, dst=DMC_ID)
        self.wlan.send(pkt, self._relay_case_report)

    def _relay_case_report(self, pkt: Packet) -> None:
        if self.leader_up:
            self.live_leader.telemetry.last_heard = self.q.now
            self.wimax_ul.send(pkt, self._ack_case_report)

    def _ack_case_report(self, pkt: Packet) -> None:
        ack = Packet(self.q.now, HEADER_LEN + ACK_LEN, CONTROL, "case_ack",
                     src=DMC_ID, dst=pkt.src)
        self.wimax_dl.send(ack, self._relay_case_ack)

    def _relay_case_ack(self, pkt: Packet) -> None:
        if self.leader_up:
            leader = self.live_leader
            leader.telemetry.last_heard = self.q.now
            self.wlan.send(Packet(pkt.created_at, pkt.size_bytes, CONTROL, "case_ack",
                                  src=leader.id, dst=pkt.dst))

    # -- video ------------------------------------------------------------

    def _start_call(self, sd_id: int, start: int) -> None:
        cfg = self.cfg
        spec = VideoCallSpec(cfg.video.bandwidth_mbps * 1e6)
        # every frame of a call has the same length and every link the same
        # MTU, so one list of (packet size, fragments of that size) serves
        # the whole call in both directions
        sizes = [(HEADER_LEN + frag, len(list(same)))
                 for frag, same in groupby(fragment_payload(spec.frame_len, MTU))]
        dur_us = int(cfg.video.call_duration_s * 1e6)
        end = start + dur_us
        frame_gap = 1_000_000 // VIDEO_FRAME_RATE
        self.q.every(start, frame_gap, min(end - 1, self.horizon),
                     lambda t: self._video_frame(t, sd_id, sizes))
        end = min(end, self.horizon)
        self.active_calls.add((sd_id, start))
        self._at(end, lambda: self._end_call(sd_id, start, end))

    def _end_call(self, sd_id: int, start: int, end: int) -> None:
        """End a call at ``end``, its scheduled end or its caller's loss,
        unless it has ended already: free its slot and charge it up to
        ``end``, or the landing or abort if earlier. A call staggered past
        that instant never ran."""
        if (sd_id, start) not in self.active_calls:
            return
        self.active_calls.remove((sd_id, start))
        self.video_us[sd_id] += max(0, min(end, self.ended_at) - start)

    def _video_frame(self, now: int, sd_id: int, sizes: list[tuple[int, int]]) -> None:
        """Offer one frame's fragments up the WLAN, then down the long-range
        link: per distinct size, one packet sent as ``n`` copies."""
        state = self.state
        sd = state.drones.get(sd_id)
        if state.aborted or self.mission_phase is _LANDED or sd is None or not sd.alive:
            return
        for size, n in sizes:
            self.wlan.send(Packet(now, size, VIDEO, "video_up", sd_id, DMC_ID),
                           self._relay_video_up, n)
        for size, n in sizes:
            self.wimax_dl.send(Packet(now, size, VIDEO, "video_down", DMC_ID, sd_id),
                               self._relay_video_down, n)

    def _relay_video_up(self, pkt: Packet) -> None:
        if self.leader_up:
            self.wimax_ul.send(pkt)

    def _relay_video_down(self, pkt: Packet) -> None:
        if self.leader_up:
            src, relay = self.down_relay
            if pkt is not src:  # a copy of the last fragment reuses its relay
                relay = Packet(pkt.created_at, pkt.size_bytes, VIDEO, "video_down",
                               self.live_leader.id, pkt.dst)
                self.down_relay = (pkt, relay)
            self.wlan.send(relay)

    # -- telemetry, prediction, failures ----------------------------------

    def _update_telemetry(self, now: int) -> None:
        """Count the tick, which the open segments then span; drain each of
        the epoch's airborne drones by its role's drain; land the returning
        drones that reached their waypoint with one ``_move``. The cost is
        the airborne drones', not the swarm's."""
        self.ticks += 1
        for telemetry, drain in self.airborne:
            telemetry.battery_pct = max(0.0, telemetry.battery_pct - drain)
        home = [d for d in self.returning if d.position == d.waypoint]
        if home:
            self._move(home, PhaseEvent.LANDED_AT_BASE)

    def _check_leader_prediction(self, now: int) -> None:
        state = self.state
        leader = state.leader()
        if not leader.alive or state.aborted:
            return
        if failure_mod.predict_failure(leader.telemetry):
            # a leader that found no SD fit to lead, or none alive, keeps
            # command; no SD becomes fit later, so it does not ask again
            if leader.id != self.kept_command:
                if failure_mod.soft_handover(state, now) is None:
                    self.kept_command = leader.id
                elif leader.telemetry.battery_pct < failure_mod.BATTERY_FLOOR_PCT:
                    leader.waypoint = state.plan.dmc_position
                    self._move([leader], PhaseEvent.SENT_HOME)
                self._after_handover()

    def _arm_deadline(self, last_heard: int) -> None:
        """Schedule the detection of the leader lost now, silent since
        ``last_heard``: at the first watchdog slot after now whose window's
        timeout that silence exceeds, on that window's tie, so it runs
        where a watchdog polling every slot would first have detected the
        loss. None is scheduled when that slot would pass the horizon."""
        now = self.q.now
        due = []
        for first, period, last, timeout, tie in self.watchdog_grids:
            after = max(now, last_heard + timeout)
            t = first + max(0, (after - first) // period + 1) * period
            if t <= last:
                due.append((t, tie, timeout))
        if due:
            t, tie, timeout = min(due)
            self.q.schedule_tied(t, tie, lambda: self._detect_leader_loss(timeout, now))

    def _detect_leader_loss(self, timeout_us: int, lost_at: int) -> None:
        """The watchdog's deadline: the backup detects the silent leader and
        takes command after the processing delay, unless the mission is over
        or no SD is left to run the watchdog."""
        state, now = self.state, self.q.now
        if state.aborted or self.mission_phase is _LANDED or not state.has_alive_sd():
            return
        detection = failure_mod.detect_ld_loss(state, now, timeout_us)
        if detection is None:
            raise RunInvariantError(
                f"t={now}us the watchdog's deadline found leader {state.leader_id} heard")
        promote_at = now + failure_mod.PROMOTION_PROCESSING_US
        self.q.schedule(promote_at, lambda: self._complete_hard_handover(detection, lost_at))

    def _complete_hard_handover(self, detection, lost_at: int) -> None:
        """Promote a successor to the lost leader, which is isolated, unless
        an SD's loss has aborted the mission since the detection."""
        state = self.state
        if state.aborted:
            return
        if failure_mod.hard_handover(state, detection, self.q.now, lost_at) is None:
            self._abort("no drone left to lead")
            return
        failure_mod.isolate_drone(state, detection.leader_id)
        self._after_handover()

    def _after_handover(self) -> None:
        """The acting leader, new or kept, is heard now; waypoints and the
        roster tables follow it."""
        self.state.leader().telemetry.last_heard = self.q.now
        self._update_waypoints()
        self._refresh_senders()

    def _apply_failure(self, f) -> None:
        state = self.state
        if state.aborted or self.mission_phase is Phase.LANDED:
            self._failure_not_applied(
                f, "mission aborted" if state.aborted else "mission over")
            return
        if f.kind == failure_mod.FailureKind.LD_SUDDEN:
            target = state.drones.get(f.drone_id) if f.drone_id else state.leader()
            if target is None or not target.alive:
                self._failure_not_applied(f, "drone is not alive")
                return
            if target.id != state.leader_id:
                self._failure_not_applied(f, "drone is not the acting leader")
                return
            self._lose(target)
            if not any(failure_mod.can_lead(sd) for sd in state.alive_sds()):
                self._abort("leader lost with no SD able to lead")
            else:
                self._arm_deadline(target.telemetry.last_heard)
        elif f.kind == failure_mod.FailureKind.LD_PREDICTED:
            leader = state.leader()
            if not leader.alive:
                self._failure_not_applied(f, "leader is not alive")
                return
            if f.drone_id not in (None, leader.id):
                self._failure_not_applied(f, "drone is not the acting leader")
                return
            # overheating trips the prediction without driving the old
            # leader home, so it stays in the swarm as an SD; the handover
            # itself runs at the next status cycle, where the leader
            # evaluates its own telemetry
            leader.telemetry.temperature_c = failure_mod.TEMPERATURE_CEILING_C + 15.0
        elif f.kind == failure_mod.FailureKind.SD_SUDDEN:
            sd = state.drones.get(f.drone_id)
            if sd is None or not sd.alive:
                self._failure_not_applied(f, "drone is not alive")
                return
            if sd.id == state.leader_id:
                self._failure_not_applied(f, "drone is the acting leader")
                return
            self._lose(sd)
            failure_mod.isolate_drone(state, sd.id)
            failure_mod.reallocate_tasks(state, sd.id)
            if not state.leader().alive and not any(
                    failure_mod.can_lead(d) for d in state.alive_sds()):
                self._abort("last SD lost with the leader down")

    def _lose(self, drone) -> None:
        """Fail a drone and end its calls at this instant."""
        self._move([drone], PhaseEvent.FAILURE_DETECTED)
        for call in [c for c in self.active_calls if c[0] == drone.id]:
            self._end_call(*call, self.q.now)

    def _abort(self, reason: str) -> None:
        """End the mission; every cause loses the leader first."""
        if self.state.leader().alive:
            raise RunInvariantError(
                f"t={self.q.now}us abort ({reason}) with leader {self.state.leader_id} alive")
        self.state.aborted = True
        self.ended_at = self.q.now
        self.state.deviations.append(f"t={self.q.now}us {reason}; mission aborted")
        self._refresh_senders()

    def _failure_not_applied(self, f, reason: str) -> None:
        drone = self.state.leader_id if f.drone_id is None else f.drone_id
        self.state.deviations.append(
            f"t={self.q.now}us {f.kind} of drone {drone} not applied: {reason}")

    # -- run --------------------------------------------------------------

    def run(self) -> RunResult:
        """Run to the horizon, check the end-of-run invariants (each a
        ``RunInvariantError``), close the open segments and price them.

        An aborted mission has lost its leader and has no live SD that
        ``failure.can_lead``. The converse does not hold: a leader whose
        soft handover found no SD fit to lead keeps command
        (``kept_command``) while unfit itself, and the mission goes on."""
        self.q.run_until(self.horizon)
        self.q.run_all()
        state = self.state
        for link in (self.wlan, self.wimax_ul, self.wimax_dl):
            if not link.idle:
                raise RunInvariantError(f"link {link.name} is not idle after the run")
        if (self.mission_phase is Phase.LANDED and not state.aborted
                and not validate_phase_trace(self.trace)):
            raise RunInvariantError(
                "landed mission has a malformed phase trace: "
                + " ".join(p.value for p in self.trace))
        buffered = state.buffered_reports
        if self.reports_to_leader != self.reports_delivered + state.lost_reports + buffered:
            raise RunInvariantError(
                f"{self.reports_to_leader} status reports reached the leader, but "
                f"{self.reports_delivered} were delivered, {state.lost_reports} lost "
                f"and {buffered} are still buffered")
        if (self.flight_acks, self.beacons, self.waypoint_pkt,
                self.live_leader, self.leader_up) != self._senders():
            leader = self.live_leader and self.live_leader.id
            raise RunInvariantError(
                f"roster tables {sorted(self.flight_acks)} and {sorted(self.beacons)} "
                f"(acks, beacons) or leader {leader}, relaying {self.leader_up}, "
                f"miss the final state")
        if state.aborted:
            leader, fit = state.leader(), [d.id for d in state.alive_sds()
                                           if failure_mod.can_lead(d)]
            if leader.alive or fit:
                raise RunInvariantError(
                    f"aborted mission with leader {leader.id} "
                    f"{'alive' if leader.alive else 'lost'} and SDs {fit} able to lead")
        for i, seg in self.segments.items():
            self._close_segment(i, *seg)
        record = metrics_snapshot(self.metrics, self.q.now)
        ledger = self._energy_ledger()
        for drone_id, entry in sorted(ledger.items()):
            over = energy_mod.overdrawn(entry["rotor_wh"], entry["compute_wh"])
            if over:
                state.deviations.append(
                    f"drone {drone_id} overdrew its {' and '.join(over)} battery: "
                    f"rotor {entry['rotor_wh']:.1f} Wh, compute {entry['compute_wh']:.1f} Wh")
        return RunResult(
            config=to_dict(self.cfg),
            seed=self.cfg.seed,
            metrics=record,
            energy=ledger,
            phase_trace=[p.value for p in self.trace],
            deviations=list(state.deviations),
            aborted=state.aborted,
            collected_targets=sorted(state.collected),
            pending_targets=sorted(state.pending_targets),
            recovery_times_s=[t / 1e6 for t in state.recovery_times_us],
            sd_reports_delivered=self.reports_delivered,
            sd_reports_lost=state.lost_reports,
            calls_started=self.calls_started,
        )

    def _energy_ledger(self) -> dict[int, dict[str, float]]:
        """Each drone's draw over the simulated time, priced by its final role."""
        ledger = {}
        for d in self.state.drones.values():
            role = "ld" if d.id == self.state.leader_id else "sd"
            rotor, compute = energy_mod.price(
                role, self.airborne_us[d.id] / 1e6, self.alive_us[d.id] / 1e6,
                self.video_us[d.id] / 1e6)
            ledger[d.id] = {
                "role": role,
                "rotor_wh": rotor,
                "compute_wh": compute,
                "total_wh": rotor + compute,
            }
        return ledger


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    """Execute one scenario deterministically. A ``RunInvariantError`` names
    the run and its seed, which reproduce the defect."""
    try:
        return _Mission(cfg).run()
    except RunInvariantError as ex:
        raise RunInvariantError(f"run {cfg.name!r} seed {cfg.seed}: {ex}") from ex


SWEEPABLE_AXES = (
    "n_sds", "duration_s", "infection_rate", "seed",
    "wlan.data_rate_mbps", "wlan.proc_rate_pps",
    "video.bandwidth_mbps", "video.forced_calls",
    "mission.n_sessions",
)


def sweep_points(base: ScenarioConfig, axis: str, values) -> list[ScenarioConfig]:
    """The config of each point of a sweep, in value order, with seeds
    derived as base seed + index over the sorted values. Every point is
    parsed here, so a bad axis, a bad value or a repeated one is a
    ``ConfigError`` before any point runs."""
    if axis not in SWEEPABLE_AXES:
        raise ConfigError(f"axis {axis!r} is not sweepable; pick one of {SWEEPABLE_AXES}")
    try:
        ordered = sorted(values)
    except TypeError as ex:
        raise ConfigError(f"values for axis {axis!r} cannot be ordered: {values!r}") from ex
    if any(a == b for a, b in zip(ordered, ordered[1:])):
        raise ConfigError(f"values for axis {axis!r} repeat: {values!r}")
    points = []
    for i, value in enumerate(ordered):
        d = to_dict(base)
        node = d
        *parents, leaf = axis.split(".")
        for p in parents:
            node = node[p]
        node[leaf] = value
        if axis != "seed":
            d["seed"] = base.seed + i
        d["name"] = f"{base.name}-{axis.replace('.', '_')}-{value}"
        points.append(parse_config(d, name=d["name"]))
    return points


def sweep(base: ScenarioConfig, axis: str, values) -> list[RunResult]:
    """One run per point of ``sweep_points``; results come back in value order."""
    return [run_scenario(cfg) for cfg in sweep_points(base, axis, values)]
