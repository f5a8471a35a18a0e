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
it on itself; its ``_finish`` callback completes it and serves the next,
pushing the next completion itself: one call fewer than through ``_serve``.
A train slot that finds the link idle and completes, or with a delivery
callback is delivered, before any other event, on a key that has its
counter or is not yet measured, is completed in place: no buffer charge,
queue item, busy state or tie. Its callback runs at the delivery, once the
train's next slot is on the heap. Every counted delivery goes through
``_finish``, which counts it and its latency in the counter itself. A queue
item carries its packet's creation time, which windows and latencies read:
``send`` takes it as ``created``, by default ``created_at``, and a train
passes the slot time.

``Link.send`` may offer ``n`` copies of one packet, such as a video frame's
equal fragments, exactly as ``n`` sends in a row would: one lookup and one
queue item for all of them, the copies that fit admitted and the rest
dropped, each counted once. Nothing completes within one instant's
admission and only the first admitted copy can find the link idle, so the
ties and events are those of the sends. Every offer but an in-place
completion goes through ``send``. That exception is measured (2-core
Xeon, CPython 3.11): without it, ``run_s`` rose 21.7% on ``video_fifo``,
whose acks mostly complete in place (5 pairs of 4 s runs); with callback
slots in it, a waypoint broadcast skips ``send``, the heap and a full
``_finish``, and ``failover_batch`` fell about 17% (``BENCH_36.json``).

A delivery callback takes its tie when its packet completes, before the
next queued packet is served, just as scheduling it would. When it is the
next event anyway (before the heap's first entry and within the running
``run_until`` limit) it runs inline at its delivery time instead of
through the heap; relays, whose deliveries send onto the next link, mostly
run this way.

Periodic control sends are trains, periodic checks ``EventQueue.every``
series. A train (``Link.train``) offers packets, with or without a
delivery callback, at given slots from one heap entry, each created at its
slot time, so a sender may hand it the same packet at every slot. Like a
series it takes one tie when registered, or reuses an earlier one, so
events order as if each slot were its own event scheduled then. While
nothing on the heap comes first, it runs its next slot inline and offers
its packet through ``send``, unless it completes it in place. The event
counts of ``run_until`` and ``run_all`` include these inline slots,
completions and deliveries. ``Link.settle`` accounts for a train's
remaining ``range`` slots in closed form when nothing else can run among
them: the link is idle, each packet and the reply its delivery sends fit
the buffer and end before the next slot, and the round ends within the
limit and before the heap's first entry. A packet with a delivery
callback counts its completion and its delivery as events, and the reply
one more; a callback-free packet counts its in-place completion alone, and
its part of the round, with the clock, ends at that completion, not at the
delivery ``proc_delay_us`` later. It takes no tie, as the round's events would
order only among themselves. A train registered while a run is in progress
tries its hook at once, so the event that registers it does so last.

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
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
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
_row_x = itemgetter(0)  # the x of a Link.settle row (x, counter)


def tx_time_us(bits: int, rate_bps: int) -> int:
    """Wire occupancy of a packet, rounded to the nearest microsecond."""
    return (bits * 1_000_000 + rate_bps // 2) // rate_bps


class EventQueue:
    """Timestamped callbacks dequeued in (time, insertion order)."""

    def __init__(self):
        self.now = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._tie = 0
        # the running run_until/run_all's time bound, which no inline event
        # may pass (-inf between runs), and the events run without the heap
        self._limit: float = -math.inf
        self._inline = 0

    def schedule(self, t: int, fn: Callable[[], None]) -> None:
        if t < self.now:
            raise RunInvariantError(f"cannot schedule at {t} before now={self.now}")
        heapq.heappush(self._heap, (t, self._tie, fn))
        self._tie += 1

    def take_tie(self) -> int:
        """Take a tie now for an event that ``schedule_tied`` may push later,
        so that it orders against others as if it had been scheduled now."""
        tie = self._tie
        self._tie += 1
        return tie

    def schedule_tied(self, t: int, tie: int, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` at ``t`` on a tie from ``take_tie``; no other
        entry of that tie may share ``t``."""
        if t < self.now:
            raise RunInvariantError(f"cannot schedule at {t} before now={self.now}")
        heapq.heappush(self._heap, (t, tie, fn))

    def every(self, first: int, period: int, last: int,
              fn: Callable[[int], None]) -> int | None:
        """Call ``fn(t)`` at first, first + period, ... while t <= last.

        The series holds one heap entry and one tie, taken now, so its
        events order against others exactly as if every slot had been
        scheduled here; each dispatch pushes the next slot before ``fn``
        runs. Returns the tie, which a ``Link.train`` may reuse, or None
        for a series with no slot.
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
        return tie

    def run_until(self, t_end: int) -> int:
        """Process every event with timestamp <= t_end; now ends at t_end.

        Returns the number of events processed, train slots, completions
        and deliveries run inline (see the module docstring) included.
        """
        count = self._run(t_end)
        self.now = max(self.now, t_end)
        return count

    def run_all(self) -> int:
        """Drain the queue; returns what ``run_until`` returns."""
        return self._run(math.inf)

    def _run(self, limit: float) -> int:
        """The loop of ``run_until`` and ``run_all``, up to ``limit``."""
        heap, pop = self._heap, heapq.heappop
        self._limit = limit
        inline = self._inline
        count = 0
        while heap and heap[0][0] <= limit:
            self.now, _, fn = pop(heap)
            fn()
            count += 1
        self._limit = -math.inf
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

    __slots__ = ("link", "times", "xs", "packet_for", "on_deliver", "tie", "settle", "next")

    def __init__(self, link: "Link", times, xs, packet_for: Callable,
                 on_deliver: Callable | None, tie: int, settle: Callable | None):
        self.link, self.times, self.xs = link, times, xs
        self.packet_for, self.on_deliver, self.tie, self.settle = (
            packet_for, on_deliver, tie, settle)
        self.next = 0  # index of the slot the next step runs

    def step(self) -> None:
        link, times, xs, tie, cb = self.link, self.times, self.xs, self.tie, self.on_deliver
        q, i = link.queue, self.next
        if self.settle is not None and self.settle(times, xs, i):
            q._inline += len(times) - i - 1  # the settled slots after the first
            return
        send, cached, finish = link.send, link._cached, link._finish
        room, proc, measure_from = link.buffer_bits, link.proc_delay_us, link._measure_from
        packet_for, heap, limit = self.packet_for, q._heap, q._limit
        # i + ran counts what runs inline: the slots after the first and the
        # completions made in place
        n, ran = len(times), -i - 1
        t = times[i]
        while True:
            pkt = packet_for(xs[i])
            i += 1
            if pkt is not None:
                # a packet on an idle link completes in place (module docstring),
                # taking no tie: its completion's or delivery's tie would come after
                # every pending one, so it goes first only at a strictly earlier time
                entry = None if link._busy else cached(pkt[1:5])
                if entry is not None:
                    wire, tx, counter, _ = entry
                    measured, end = t >= measure_from, t + tx if cb is None else t + tx + proc
                if (entry is not None and (counter is not None or not measured)
                        and wire <= room and end <= limit and (i == n or end < times[i])
                        and (not heap or end < heap[0][0])):
                    q.now = end
                    ran += 1
                    if measured:
                        counter.offered_pkts += 1
                        counter.offered_bits += wire
                        finish(counter, wire, tx + proc)
                    if cb is not None:  # its callback finds the next slot on the heap
                        q._inline += i + ran + 1
                        if i < n:
                            self.next = i
                            heapq.heappush(heap, (times[i], tie, self.step))
                        cb(pkt)
                        return
                else:
                    send(pkt, cb, 1, t)
            if i == n:
                break
            t = times[i]
            # an entry (time, tie, fn) is less than (t, tie) if it comes first
            if t > limit or heap and heap[0] < (t, tie):
                self.next = i
                heapq.heappush(heap, (t, tie, self.step))
                break
            q.now = t
        q._inline += i + ran


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
        # Metrics counter, class queue); see send. A train's in-place
        # completion reads an entry through _cached and never makes one
        self._admits: dict[tuple, tuple] = {}
        self._cached = self._admits.get
        self._measure_from = metrics.measure_from_us

    @property
    def idle(self) -> bool:
        """Not serving, nothing queued and no buffered bits."""
        return not (self._busy or any(self._by_priority) or self._buffered_bits)

    def send(self, pkt: Packet, on_deliver: Callable[[Packet], None] | None = None,
             n: int = 1, created: int | None = None) -> bool:
        """Offer ``n`` copies of a packet now, exactly as ``n`` sends in a row
        would; returns False when no copy fits. Each copy is created at
        ``created``, by default ``pkt.created_at``. What is fixed by the
        packet's size, class, flow and source is looked up once in
        ``_admits``; its counter is None until the first measured offer.
        """
        key = pkt[1:5]
        entry = self._admits.get(key)
        if entry is None:
            entry = self._new_admission(pkt, key)
        wire, tx, counter, waiting = entry
        if created is None:
            created = pkt.created_at
        bits = n * wire
        if created < self._measure_from:
            counter = None
        elif counter is None:
            counter = self.metrics.offered(self.name, pkt, wire)
            self._admits[key] = (wire, tx, counter, waiting)
            counter.offered_pkts += n - 1
            counter.offered_bits += bits - wire
        else:
            counter.offered_pkts += n
            counter.offered_bits += bits
        if self._buffered_bits + bits > self.buffer_bits:
            admitted = (self.buffer_bits - self._buffered_bits) // wire
            if counter is not None:
                counter.dropped_pkts += n - admitted
                counter.dropped_bits += bits - admitted * wire
            if not admitted:
                return False
            n, bits = admitted, admitted * wire
        self._buffered_bits += bits
        item = (pkt, wire, tx, on_deliver, counter, created)
        if self._busy:
            waiting.append(item)
        else:
            self._serve(item)  # an idle link has nothing queued ahead
        if n > 1:
            waiting.extend((item,) * (n - 1))
        return True

    def train(self, times, xs, packet_for: Callable[[object], Packet | None],
              on_deliver: Callable[[Packet], None] | None = None,
              tie: int | None = None,
              settle: Callable[[object, object, int], bool] | None = None) -> None:
        """Offer ``packet_for(xs[i])`` at each time ``times[i]``, where
        ``times`` is an ascending list or ``range``; a slot whose
        ``packet_for`` returns None offers nothing. Each packet is created
        at its slot time, whatever its ``created_at``, and ``on_deliver``
        gets it as ``packet_for`` returned it.

        Like ``EventQueue.every``, the train takes one tie now, or reuses
        ``tie`` taken earlier (no other entry of that tie may share a slot's
        time), so its slots order as if each were scheduled when the tie
        was taken. It holds one heap entry and runs its next slot inline
        while that comes before the heap's first entry and the ``run_until``
        limit. A packet that finds the link idle and would finish, or with
        ``on_deliver`` be delivered, before all three is completed in place
        (see the module docstring); any other packet is offered with
        ``send``, and ``_finish`` delivers it. Inline slots, completions and
        deliveries count as processed events.
        ``settle(times, xs, i)``, if given, is called at each pop with ``i``
        the slot due now, and at registration with ``i`` 0 while a run is in
        progress, so a caller registers a settling train as its last act; a
        true result means it accounted for slots ``i`` onwards, as
        ``Link.settle`` does for ``range`` slots, and the train ends.
        """
        if not times:
            return
        q = self.queue
        if times[0] < q.now:
            raise RunInvariantError(f"cannot schedule at {times[0]} before now={q.now}")
        if type(times) is not range and times != sorted(times):
            raise RunInvariantError("train slots must be in time order")
        if settle is not None and times[0] <= q._limit and settle(times, xs, 0):
            q._inline += len(times)  # every slot, the first one too
            return
        if tie is None:
            tie = q.take_tie()
        train = _Train(self, times, xs, packet_for, on_deliver, tie, settle)
        heapq.heappush(q._heap, (times[0], tie, train.step))

    def counter(self, pkt: Packet) -> _Counter | None:
        """The counter of ``pkt``'s key; None until a measured offer made it."""
        entry = self._admits.get(pkt[1:5])
        return entry and entry[2]

    def settle(self, times: range, xs, i: int, rows: list, pkt: Packet,
               reply: Packet | None = None,
               delivers: bool = True) -> tuple[int, int | None] | None:
        """Account for a train's slots ``i`` onwards in closed form as running
        them would, if nothing else can run among them (module docstring);
        the train counts the slots, and ``times``'s step is the gap between
        them. ``xs`` ascends, and ``rows`` lists by ``x`` the slots that send
        as (x, its key's ``counter``), each packet of ``pkt``'s size, offered
        before; any other slot offers nothing.
        The rows with x from ``xs[i]`` to ``xs[-1]`` send; bisection finds
        them, so the loop walks only their counters.
        If the packets have a delivery callback (``delivers``), each is served
        and delivered, two events, and ``reply``, if given, goes out at each
        delivery on a key with a counter, one more; if not, each is completed
        in place, one event, and the round ends at its last completion.
        Returns the packets sent and the last one's delivery time (None if
        none), or None, having counted nothing."""
        admits, proc, room = self._admits, self.proc_delay_us, self.buffer_bits
        entry = admits.get(pkt[1:5])
        if entry is None or entry[0] > room or not self.idle:
            return None
        wire, tx = entry[:2]
        latency = tx + proc
        span, events = (latency, 2) if delivers else (tx, 1)
        if reply is not None:
            entry = admits.get(reply[1:5])
            if entry is None or entry[2] is None or entry[0] > room:
                return None
            reply_wire, reply_tx, reply_counter = entry[:3]
            span, events = span + reply_tx, events + 1
        q = self.queue
        heap, end = q._heap, times[-1] + span
        if end > q._limit or heap and end >= heap[0][0]:
            return None
        if span >= times.step:
            return None
        # the rows that send, from slot i's x to the last slot's
        lo = bisect_left(rows, xs[i], key=_row_x)
        hi = bisect_right(rows, xs[-1], lo, key=_row_x)
        finish, n = self._finish, hi - lo
        for _, c in rows[lo:hi]:
            c.offered_pkts += 1
            c.offered_bits += wire
            finish(c, wire, latency)
        q._inline += events * n
        if not n:
            q.now = times[-1]
            return 0, None
        if reply is not None:
            reply_counter.offered_pkts += n
            reply_counter.offered_bits += n * reply_wire
            for _ in range(n):
                finish(reply_counter, reply_wire, reply_tx + proc)
        t = times[xs.index(rows[hi - 1][0])]
        q.now = max(times[-1], t + span)  # the time of the round's last event
        return n, t + latency

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

    def _finish(self, done: _Counter | None = None, bits: int = 0, latency: int = 0) -> None:
        """Complete and count the packet in service, serve the next one and
        deliver the completed one, inline when that is the next event; or,
        given a counter, only count a delivery completed in place or settled
        in closed form: every counted delivery is one call, which the
        benchmark's tracer counts."""
        if done is not None:
            done.delivered_pkts += 1
            done.delivered_bits += bits
            table = done.latencies
            table[latency] = table.get(latency, 0) + 1
            return
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
            if waiting:  # serve the next packet here, as _serve would
                item = self._busy = waiting.popleft()
                heapq.heappush(q._heap, (q.now + item[2], q._tie, self._finish))
                q._tie += 1
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
