"""Deterministic discrete-event engine and link models.

Links are overhead-augmented rate servers: a packet occupies the medium for
(wire bytes x 8) / data_rate, waits in a bounded buffer behind earlier
traffic, and spends a fixed pipelined processing delay after leaving the
wire. No carrier-sense or PHY contention is modeled; rates, buffers, and
processing rates drive every metric. Arrivals that would overflow the
buffer are dropped and counted, never raised, each in one counter per
(link, class, flow, source); every coarser figure is a sum taken at
snapshot time. Each link admits a packet with one lookup: per (size,
class, flow, source) it caches the wire bits, the transmission time, the
counter and the class queue, so the MTU check and ``tx_time_us`` run once
per size. The counter rides with the packet to its drop or delivery. A
packet offered to an idle link starts service at once, and a completion
goes straight onto the heap. A link serves one packet at a time and keeps
it on itself, so every completion is the link's one ``_finish`` callback,
which counts the delivery and its latency in the counter itself. A queue
item carries its packet's creation time, which windows and latencies read:
``send`` and ``burst`` take ``created_at``, a train the slot time.

A burst (``Link.burst``) offers a run of ``n`` copies of one packet, such
as a video frame's equal fragments, as exactly ``n`` sends in a row would:
one lookup and one queue item per run, the copies that fit admitted and
the rest dropped, each counted once. Nothing completes within one instant's
admission and only the first admitted copy can find the link idle, so the
ties and events are those of the sends.

A delivery callback takes its tie when its packet completes, before the
next queued packet is served, just as scheduling it would. When it is the
next event anyway (before the heap's first entry and within the running
``run_until`` limit) it runs inline at its delivery time instead of
through the heap; relays, whose deliveries send onto the next link, mostly
run this way.

A train (``Link.train``) offers a run of callback-free packets at given
slots from one heap entry, each created at its slot time, so a sender may
hand it the same packet at every slot. Like an ``EventQueue.every``
series it takes one tie when it is registered, so events order exactly as
if each slot were its own event. While nothing on the heap comes first,
it runs its next slot inline, and completes inline a packet that found
the link idle.
The event counts of ``run_until`` and ``run_all`` include these inline
slots, completions and deliveries.

Every link is a strict-priority server; FIFO is the one-class case. The
short-range WLAN is one shared medium carrying both directions, FIFO or
with EDCA priorities. The long-range link is served per direction at its
sustained rate with real-time flows (video, case reports) strictly
prioritized over best effort; at a sustained-rate server the shaped token
bucket never becomes the binding constraint, so it is not simulated
separately. Priority orders service only: all classes share one buffer,
so video that fills it crowds out the leader's control flushes, which
are then dropped.

All timestamps are integer microseconds. Runs with the same seed and
configuration produce identical event traces.
"""
from __future__ import annotations

import heapq
import logging
import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

from .errors import RunInvariantError
from .protocol import HEADER_LEN, MTU, VIDEO_FRAME_RATE, VideoCallSpec, fragment_payload

logger = logging.getLogger(__name__)

CONTROL = "control"
VIDEO = "video"
BEST_EFFORT = "best_effort"
EDCA_ORDER = (CONTROL, VIDEO, BEST_EFFORT)
FIFO_ORDER = ("fifo",)
WIMAX_ORDER = ("rt", "be")


def tx_time_us(bits: int, rate_bps: int) -> int:
    """Wire occupancy of a packet, rounded to the nearest microsecond."""
    return (bits * 1_000_000 + rate_bps // 2) // rate_bps


class EventQueue:
    """Timestamped callbacks dequeued in (time, insertion order)."""

    def __init__(self):
        self.now = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._tie = 0
        # time bound of the running run_until/run_all, which no inline
        # event may pass; and the count of events run without the heap
        self._limit: float = 0
        self._inline = 0

    def schedule(self, t: int, fn: Callable[[], None]) -> None:
        if t < self.now:
            raise RunInvariantError(f"cannot schedule at {t} before now={self.now}")
        heapq.heappush(self._heap, (t, self._tie, fn))
        self._tie += 1

    def every(self, first: int, period: int, last: int,
              fn: Callable[[int], None]) -> None:
        """Call ``fn(t)`` at first, first + period, ... while t <= last.

        The series holds one heap entry and one tie, taken now, so its
        events order against others exactly as if every slot had been
        scheduled here; each dispatch pushes the next slot before ``fn``
        runs.
        """
        if first < self.now:
            raise RunInvariantError(f"cannot schedule at {first} before now={self.now}")
        if period <= 0:  # the series would repeat one instant forever
            raise RunInvariantError("period must be positive")
        if first > last:
            return
        heap, tie = self._heap, self._tie
        self._tie += 1

        def tick() -> None:
            t = self.now
            if t + period <= last:
                heapq.heappush(heap, (t + period, tie, tick))
            fn(t)

        heapq.heappush(heap, (first, tie, tick))

    def run_until(self, t_end: int) -> int:
        """Process every event with timestamp <= t_end; now ends at t_end.

        Returns the number of events processed, train slots, completions
        and deliveries run inline (see the module docstring) included.
        """
        heap, pop = self._heap, heapq.heappop
        self._limit = t_end
        inline = self._inline
        count = 0
        while heap and heap[0][0] <= t_end:
            self.now, _, fn = pop(heap)
            fn()
            count += 1
        self.now = max(self.now, t_end)
        return count + self._inline - inline

    def run_all(self) -> int:
        """Drain the queue completely; returns the events processed, train
        slots, completions and deliveries run inline included."""
        heap, pop = self._heap, heapq.heappop
        self._limit = math.inf
        inline = self._inline
        count = 0
        while heap:
            self.now, _, fn = pop(heap)
            fn()
            count += 1
        return count + self._inline - inline


class Packet(NamedTuple):
    """An immutable datagram; a relay that changes no field forwards it as is."""

    created_at: int
    size_bytes: int          # header + payload, before link overhead
    access_class: str = CONTROL
    flow: str = "misc"
    src: int = 0
    dst: int = 0


@dataclass(frozen=True)
class WlanParams:
    data_rate_bps: int = 54_000_000
    buffer_bits: int = 1_000_000
    proc_rate_pps: int = 10_000
    overhead_bytes: int = 90     # MAC + LLC + IPv6 + UDP
    edca: bool = False


@dataclass(frozen=True)
class WimaxParams:
    max_sustained_bps: int = 10_000_000
    buffer_bits: int = 1_000_000
    overhead_bytes: int = 54


def _percentile_rank(q: float, n: int) -> int:
    """Zero-based index of the nearest-rank q-th percentile of n sorted samples."""
    return max(0, math.ceil(q / 100.0 * n) - 1)


_FIELDS = ("offered_pkts", "offered_bits", "delivered_pkts",
           "delivered_bits", "dropped_pkts", "dropped_bits")


class _Counter:
    """One key's counts and its (link, class) latency table."""

    __slots__ = _FIELDS + ("latencies",)

    def __init__(self, latencies: dict[int, int]):
        self.offered_pkts = 0
        self.offered_bits = 0
        self.delivered_pkts = 0
        self.delivered_bits = 0
        self.dropped_pkts = 0
        self.dropped_bits = 0
        self.latencies = latencies


class Metrics:
    """One counter per (link, class, flow, source); ``metrics_snapshot``
    sums them into per-link, per-class, per-flow and per-source views.

    Packets created before ``measure_from_us`` are invisible to every
    counter, which keeps windowed conservation exact. Latencies are integer
    microseconds, kept per (link, class) as a table of value -> count.
    """

    def __init__(self, measure_from_us: int = 0):
        self.measure_from_us = measure_from_us
        self.counters: dict[tuple[str, str, str, int], _Counter] = {}
        self.latencies: dict[tuple[str, str], dict[int, int]] = {}

    def offered(self, link: str, pkt: Packet, wire_bits: int) -> _Counter:
        """Count a measured offer and return the packet's counter, which its
        drop or delivery then updates."""
        key = (link, pkt.access_class, pkt.flow, pkt.src)
        c = self.counters.get(key)
        if c is None:
            table = self.latencies.setdefault((link, pkt.access_class), {})
            c = self.counters[key] = _Counter(table)
        c.offered_pkts += 1
        c.offered_bits += wire_bits
        return c

    def dropped(self, c: _Counter, wire_bits: int) -> None:
        c.dropped_pkts += 1
        c.dropped_bits += wire_bits

    def delivered(self, c: _Counter, wire_bits: int, latency_us: int) -> None:
        """Unused here (``Link._finish`` counts in place); perfbench patches it by name."""
        c.delivered_pkts += 1
        c.delivered_bits += wire_bits
        table = c.latencies
        table[latency_us] = table.get(latency_us, 0) + 1


@dataclass(frozen=True)
class LatencyStats:
    count: int
    mean_us: float
    p50_us: int
    p95_us: int
    p99_us: int
    max_us: int

    @staticmethod
    def from_counts(counts: dict[int, int]) -> "LatencyStats":
        """Exact statistics of a non-empty table of sample value -> count."""
        n = sum(counts.values())
        ranks = [_percentile_rank(q, n) for q in (50, 95, 99)]
        values = sorted(counts)
        picks = []
        seen = 0
        for value in values:
            seen += counts[value]
            while len(picks) < len(ranks) and ranks[len(picks)] < seen:
                picks.append(value)
        return LatencyStats(
            count=n,
            mean_us=sum(v * c for v, c in counts.items()) / n,
            p50_us=picks[0],
            p95_us=picks[1],
            p99_us=picks[2],
            max_us=values[-1],
        )


@dataclass(frozen=True)
class MetricsRecord:
    window_us: int
    links: dict
    by_class: dict
    by_flow: dict
    latency: dict            # (link, class) -> LatencyStats
    offered_bits_by_src: dict

    def loss_ratio(self, link: str) -> float:
        c = self.links[link]
        return c["dropped_pkts"] / c["offered_pkts"] if c["offered_pkts"] else 0.0

    def throughput_bps(self, link: str) -> float:
        if self.window_us <= 0:
            return 0.0
        return self.links[link]["delivered_bits"] * 1e6 / self.window_us


def _sum_by(counters: dict, group) -> dict:
    """Counter fields summed per ``group(key)``, sorted by group."""
    out: dict = {}
    for key, c in counters.items():
        total = out.setdefault(group(key), dict.fromkeys(_FIELDS, 0))
        for field in _FIELDS:
            total[field] += getattr(c, field)
    return dict(sorted(out.items()))


def metrics_snapshot(metrics: Metrics, now_us: int) -> MetricsRecord:
    """Freeze counters into a record; valid only once every link drained."""
    counters = metrics.counters
    links = _sum_by(counters, lambda k: k[0])
    for link, c in links.items():
        queued_p = c["offered_pkts"] - c["delivered_pkts"] - c["dropped_pkts"]
        if queued_p:
            raise RunInvariantError(
                f"link {link}: {queued_p} packets still queued; drain before snapshot"
            )
    by_src = _sum_by(counters, lambda k: (k[0], k[2], k[3]))
    return MetricsRecord(
        window_us=max(0, now_us - metrics.measure_from_us),
        links=links,
        by_class=_sum_by(counters, lambda k: k[:2]),
        by_flow=_sum_by(counters, lambda k: (k[0], k[2])),
        latency={k: LatencyStats.from_counts(v)
                 for k, v in sorted(metrics.latencies.items()) if v},
        offered_bits_by_src={k: c["offered_bits"] for k, c in by_src.items()},
    )


class _Train:
    """The pending slots of one ``Link.train``. The heap holds its bound
    ``step``: a closure that pushed itself would form a reference cycle,
    which only the cyclic garbage collector frees."""

    __slots__ = ("link", "slots", "times", "packet_for", "tie", "next")

    def __init__(self, link: "Link", slots: list, times: list[int],
                 packet_for: Callable, tie: int):
        self.link, self.slots, self.times = link, slots, times
        self.packet_for, self.tie = packet_for, tie
        self.next = 0  # index of the slot the next step runs

    def step(self) -> None:
        link, times, tie = self.link, self.times, self.tie
        q, admit, finish_fn = link.queue, link._admit, link._finish
        packet_for, slots = self.packet_for, self.slots
        heap, limit = q._heap, q._limit
        n, i, ran = len(times), self.next, 0
        while True:
            pkt = packet_for(slots[i][1])
            item = None if pkt is None else admit(pkt, None, times[i])
            i += 1
            if item is not None and not link._busy:
                # the link was idle and serves the packet now. Its
                # completion would take a tie later than every pending
                # one, so it goes first only at a strictly earlier time;
                # run inline, it takes no tie, which reorders nothing
                finish = q.now + item[2]
                link._busy = item
                if (finish <= limit and (i == n or finish < times[i])
                        and (not heap or finish < heap[0][0])):
                    q.now = finish
                    finish_fn()
                    ran += 1
                else:
                    q.schedule(finish, finish_fn)
            if i == n:
                break
            t = times[i]
            if t > limit or heap and (heap[0][0] < t or heap[0][0] == t and heap[0][1] < tie):
                self.next = i
                heapq.heappush(heap, (t, tie, self.step))
                break
            q.now = t
            ran += 1
        q._inline += ran


class Link:
    """Bounded-buffer rate server over ``class_order``, highest priority
    first; a packet whose ``class_key`` is not listed joins the lowest."""

    def __init__(
        self,
        queue: EventQueue,
        name: str,
        rate_bps: int,
        buffer_bits: int,
        overhead_bytes: int,
        metrics: Metrics,
        proc_delay_us: int = 0,
        class_order: tuple[str, ...] = FIFO_ORDER,
        class_key: Callable[[Packet], str] | None = None,
    ):
        self.queue = queue
        self.name = name
        self.rate_bps = rate_bps
        self.buffer_bits = buffer_bits
        self.overhead_bytes = overhead_bytes
        self.metrics = metrics
        self.proc_delay_us = proc_delay_us
        self.class_key = class_key or (lambda p: p.access_class)
        self._queues = {cls: deque() for cls in class_order}
        self._by_priority = tuple(self._queues.values())
        self._lowest = self._by_priority[-1]
        self._buffered_bits = 0
        # the item in service, None while idle; a queue item is a non-empty
        # tuple, so the attribute's truth says whether the link is busy
        self._busy: tuple | None = None
        # (size, class, flow, source) -> (wire bits, transmission time,
        # Metrics counter, class queue); see _admit
        self._admits: dict[tuple, tuple] = {}

    @property
    def idle(self) -> bool:
        """Not serving, nothing queued and no buffered bits."""
        return not (self._busy or any(self._by_priority) or self._buffered_bits)

    def send(self, pkt: Packet, on_deliver: Callable[[Packet], None] | None = None) -> bool:
        """Offer a packet at the current simulation time.

        Returns False when the buffer is full (counted as a drop).
        """
        item = self._admit(pkt, on_deliver, pkt.created_at)
        if item is None:
            return False
        if not self._busy:
            self._serve(item)  # an idle link has nothing queued ahead
        return True

    def burst(self, runs: list[tuple[Packet, int]],
              on_deliver: Callable[[Packet], None] | None = None) -> None:
        """Offer ``n`` copies of ``pkt`` for each ``(pkt, n)`` of ``runs``, in
        turn, exactly as ``n`` calls of ``send(pkt, on_deliver)`` would. A
        run costs one ``_admits`` lookup and one queue item: the copies the
        free buffer holds are admitted and the rest dropped, each outcome
        counted once. A later run of smaller packets may still fit."""
        admits, metrics = self._admits, self.metrics
        for pkt, n in runs:
            key = pkt[1:5]
            entry = admits.get(key)
            if entry is None:
                entry = self._new_admission(pkt, key)
            wire, tx, counter, waiting = entry
            created = pkt.created_at
            if created < metrics.measure_from_us:
                counter = None
            elif counter is None:
                counter = metrics.offered(self.name, pkt, wire)
                admits[key] = (wire, tx, counter, waiting)
                counter.offered_pkts += n - 1
                counter.offered_bits += (n - 1) * wire
            else:
                counter.offered_pkts += n
                counter.offered_bits += n * wire
            admitted = min(n, (self.buffer_bits - self._buffered_bits) // wire)
            if admitted < n and counter is not None:
                counter.dropped_pkts += n - admitted
                counter.dropped_bits += (n - admitted) * wire
            if not admitted:
                continue
            self._buffered_bits += admitted * wire
            item = (pkt, wire, tx, on_deliver, counter, created)
            if not self._busy:
                self._serve(item)
                admitted -= 1
            waiting.extend((item,) * admitted)

    def train(self, slots: list[tuple[int, object]],
              packet_for: Callable[[object], Packet | None]) -> None:
        """Offer ``packet_for(x)`` at each slot ``(t, x)`` of ``slots``, which
        are in time order; a slot whose ``packet_for`` returns None offers
        nothing. Train packets have no delivery callback, and each is
        created at its slot time ``t``: the ``created_at`` of the packet
        ``packet_for`` returns is ignored.

        Like ``EventQueue.every``, the train takes one tie now, so its slots
        order against other events exactly as if each had been scheduled
        here, and it holds one heap entry. While its next slot comes before
        the heap's first entry and the running ``run_until`` limit, it runs
        that slot inline. A packet that finds the link idle
        and would finish before all three is completed inline too; any
        other completion is scheduled as ``send`` schedules it. Inline
        slots and completions count as processed events.
        """
        q = self.queue
        times = [t for t, _ in slots]
        if not times:
            return
        if times[0] < q.now:
            raise RunInvariantError(f"cannot schedule at {times[0]} before now={q.now}")
        if times != sorted(times):
            raise RunInvariantError("train slots must be in time order")
        train = _Train(self, slots, times, packet_for, q._tie)
        q._tie += 1
        heapq.heappush(q._heap, (times[0], train.tie, train.step))

    def _admit(self, pkt: Packet, on_deliver, created: int) -> tuple | None:
        """Count an offer of a packet created at ``created`` and take it into
        the buffer, queued if the link is busy. Returns the packet's item,
        which the caller serves if the link is idle, or None when the buffer
        is full (a drop).

        Everything but the counts is fixed by the packet's size, class, flow
        and source, so it is looked up once per admission in ``_admits``;
        its counter is None until the first measured offer.
        """
        key = pkt[1:5]
        entry = self._admits.get(key)
        if entry is None:
            entry = self._new_admission(pkt, key)
        wire, tx, counter, waiting = entry
        if created < self.metrics.measure_from_us:
            counter = None
        elif counter is None:
            counter = self.metrics.offered(self.name, pkt, wire)
            self._admits[key] = (wire, tx, counter, waiting)
        else:
            counter.offered_pkts += 1
            counter.offered_bits += wire
        if self._buffered_bits + wire > self.buffer_bits:
            if counter is not None:
                self.metrics.dropped(counter, wire)
            return None
        self._buffered_bits += wire
        item = (pkt, wire, tx, on_deliver, counter, created)
        if self._busy:
            waiting.append(item)
        return item

    def _new_admission(self, pkt: Packet, key: tuple) -> tuple:
        """Make and cache the ``_admits`` entry of a key's first offer."""
        if pkt.size_bytes > MTU:
            raise RunInvariantError(
                f"{pkt.size_bytes}-byte packet exceeds MTU {MTU}; fragment first"
            )
        wire = (pkt.size_bytes + self.overhead_bytes) * 8
        entry = self._admits[key] = (
            wire, tx_time_us(wire, self.rate_bps), None,
            self._queues.get(self.class_key(pkt), self._lowest))
        return entry

    def _serve(self, item: tuple) -> None:
        self._busy = item
        q = self.queue
        heapq.heappush(q._heap, (q.now + item[2], q._tie, self._finish))
        q._tie += 1

    def _finish(self) -> None:
        """Complete and count the packet in service; serve the next one."""
        pkt, wire, _, cb, counter, created = self._busy
        self._buffered_bits -= wire
        q = self.queue
        deliver_at = q.now + self.proc_delay_us
        if counter is not None:
            counter.delivered_pkts += 1
            counter.delivered_bits += wire
            table, latency = counter.latencies, deliver_at - created
            table[latency] = table.get(latency, 0) + 1
        if cb is not None:
            # the delivery takes its tie before the next packet is served,
            # as scheduling it here would, so equal times keep their order
            tie = q._tie
            q._tie = tie + 1
        for waiting in self._by_priority:
            if waiting:
                self._serve(waiting.popleft())
                break
        else:
            self._busy = None
        if cb is None:
            return
        # run inline when the delivery is the next event anyway
        heap = q._heap
        if deliver_at <= q._limit and (not heap or (deliver_at, tie) < heap[0]):
            q.now = deliver_at
            q._inline += 1
            cb(pkt)
        else:
            heapq.heappush(heap, (deliver_at, tie, partial(cb, pkt)))


def build_wlan_link(queue: EventQueue, params: WlanParams, metrics: Metrics,
                    name: str = "wlan") -> Link:
    return Link(
        queue, name,
        rate_bps=params.data_rate_bps,
        buffer_bits=params.buffer_bits,
        overhead_bytes=params.overhead_bytes,
        metrics=metrics,
        proc_delay_us=1_000_000 // params.proc_rate_pps,
        class_order=EDCA_ORDER if params.edca else FIFO_ORDER,
    )


def _wimax_class(pkt: Packet) -> str:
    # real-time service covers video and escalation reports
    return "rt" if pkt.access_class == VIDEO or pkt.flow == "case_report" else "be"


def build_wimax_link(queue: EventQueue, params: WimaxParams, metrics: Metrics,
                     name: str = "wimax") -> Link:
    return Link(
        queue, name,
        rate_bps=params.max_sustained_bps,
        buffer_bits=params.buffer_bits,
        overhead_bytes=params.overhead_bytes,
        metrics=metrics,
        proc_delay_us=0,
        class_order=WIMAX_ORDER,
        class_key=_wimax_class,
    )


def _per_call_wire_bps(call: VideoCallSpec, overhead_bytes: int) -> float:
    """One direction's offered load including fragment headers and overhead."""
    frags = fragment_payload(call.frame_len, MTU)
    wire_bytes = call.frame_len + len(frags) * (HEADER_LEN + overhead_bytes)
    return wire_bytes * 8 * VIDEO_FRAME_RATE


def max_simultaneous_calls(wlan: WlanParams, wimax: WimaxParams,
                           call: VideoCallSpec) -> int:
    """Admission limit for concurrent video calls.

    The binding figure is the shared WLAN medium's radio bandwidth against
    the raw bidirectional call rate (each call loads the medium in both
    directions). Header-aware and long-range-link bounds are computed for
    diagnosis and logged when they are tighter, because the long-range hop
    saturates long before the WLAN under full video load.
    """
    bw = int(call.bandwidth_bps)
    radio_bound = int(wlan.data_rate_bps // (2 * bw))
    wlan_hdr_bps = _per_call_wire_bps(call, wlan.overhead_bytes)
    wlan_hdr_bound = int(wlan.data_rate_bps // (2 * wlan_hdr_bps))
    wimax_bps = _per_call_wire_bps(call, wimax.overhead_bytes)
    wimax_bound = int(wimax.max_sustained_bps // wimax_bps)
    if min(wlan_hdr_bound, wimax_bound) < radio_bound:
        logger.warning(
            "admitting %d calls at %.0f Mbps by WLAN radio bandwidth; "
            "header-aware WLAN bound is %d and the long-range link sustains "
            "only %d per direction -- expect loss beyond the tighter bound",
            radio_bound, bw / 1e6, wlan_hdr_bound, wimax_bound,
        )
    return radio_bound
