"""Event queue, link servers, priority classes, capacity, and metrics.

The FIFO link model is checked for exact equality against an independent
closed-form single-queue calculator: with arrival times arr[i] and wire
times tx[i], departure obeys dep[i] = max(arr[i], dep[i-1]) + tx[i] and
delivery adds the fixed processing delay.
"""
import logging
import math
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from swarmsim.errors import RunInvariantError
from swarmsim.netsim import (
    EventQueue,
    LatencyStats,
    Link,
    Metrics,
    MetricsRecord,
    Packet,
    WimaxParams,
    WlanParams,
    build_wimax_link,
    build_wlan_link,
    max_simultaneous_calls,
    metrics_snapshot,
    tx_time_us,
)
from swarmsim.protocol import VideoCallSpec


class TestPacket:
    def test_fields_cannot_be_reassigned(self):
        pkt = Packet(0, 21, flow="sd_status", src=2, dst=1)
        with pytest.raises(AttributeError):
            pkt.src = 3
        assert pkt == Packet(0, 21, "control", "sd_status", 2, 1)


class TestEventQueue:
    def test_schedule_at_now_runs_next(self):
        q = EventQueue()
        seen = []
        q.schedule(0, lambda: seen.append("a"))
        q.run_until(0)
        assert seen == ["a"]

    def test_same_timestamp_keeps_insertion_order(self):
        q = EventQueue()
        seen = []
        for tag in ("a", "b", "c"):
            q.schedule(5, lambda t=tag: seen.append(t))
        q.run_all()
        assert seen == ["a", "b", "c"]

    def test_scheduling_into_the_past_rejected(self):
        q = EventQueue()
        q.schedule(10, lambda: None)
        q.run_until(10)
        with pytest.raises(RunInvariantError):
            q.schedule(9, lambda: None)

    def test_run_until_advances_clock_without_events(self):
        q = EventQueue()
        q.run_until(500)
        assert q.now == 500

    def test_series_calls_every_slot_from_one_heap_entry(self):
        q = EventQueue()
        seen = []
        q.every(10, 5, 30, seen.append)
        assert len(q._heap) == 1
        assert q.run_until(22) == 3
        assert len(q._heap) == 1
        q.run_all()
        assert seen == [10, 15, 20, 25, 30]

    def test_series_past_its_last_slot_schedules_nothing(self):
        q = EventQueue()
        q.every(31, 5, 30, lambda t: None)
        assert q.run_all() == 0

    def test_series_starting_in_the_past_rejected(self):
        q = EventQueue()
        q.run_until(10)
        with pytest.raises(RunInvariantError):
            q.every(9, 5, 30, lambda t: None)

    def test_series_needs_a_positive_period(self):
        with pytest.raises(RunInvariantError):
            EventQueue().every(0, 0, 30, lambda t: None)

    @settings(max_examples=200)
    @given(items=st.lists(st.tuples(
        st.booleans(),                                  # series or one-shot
        st.integers(0, 20), st.integers(1, 6), st.integers(0, 30),
        st.none() | st.integers(0, 6),                  # child one-shot delay
        st.none() | st.tuples(st.integers(0, 6), st.integers(1, 6),
                              st.integers(0, 12)),      # series started by a one-shot
    ), max_size=10))
    def test_series_order_equals_prescheduled_slots(self, items):
        def prescheduled(q, first, period, last, fn):
            for t in range(first, last + 1, period):
                q.schedule(t, lambda t=t: fn(t))

        def dispatch_log(every):
            q = EventQueue()
            log = []

            def event(label, child, nested):
                def fire(t):
                    log.append((q.now, t, label))
                    if child is not None:
                        q.schedule(q.now + child, lambda: log.append((q.now, label + "/c")))
                    if nested is not None:
                        first, period, span = nested
                        every(q, q.now + first, period, q.now + span,
                              event(label + "/s", child, None))
                return fire

            for i, (series, t, period, last, child, nested) in enumerate(items):
                if series:
                    every(q, t, period, last, event(str(i), child, None))
                else:
                    fire = event(str(i), child, nested)
                    q.schedule(t, lambda fire=fire: fire(q.now))
            q.run_all()
            return log

        assert dispatch_log(EventQueue.every) == dispatch_log(prescheduled)


class TestTransmissionTime:
    def test_rounding_to_nearest_microsecond(self):
        assert tx_time_us(888, 54_000_000) == 16
        assert tx_time_us(888, 6_000_000) == 148
        assert tx_time_us(12_432, 10_000_000) == 1243


def deliver_one(link, pkt):
    """Push one packet through an otherwise idle link; returns its latency."""
    got = []
    link.send(pkt, on_deliver=lambda p: got.append(link.queue.now))
    link.queue.run_all()
    assert got, "packet was dropped"
    return got[0] - pkt.created_at


class TestWlanLink:
    def test_idle_status_latency_at_54mbps(self):
        q = EventQueue()
        link = build_wlan_link(q, WlanParams(), Metrics())
        # 21-byte status + 90-byte overhead = 888 wire bits:
        # 16 us on air plus 100 us processing
        assert deliver_one(link, Packet(0, 21)) == 116

    def test_idle_status_latency_at_6mbps(self):
        q = EventQueue()
        link = build_wlan_link(q, WlanParams(data_rate_bps=6_000_000), Metrics())
        assert deliver_one(link, Packet(0, 21)) == 248

    def test_full_buffer_drops_arrivals(self):
        q = EventQueue()
        metrics = Metrics()
        link = build_wlan_link(q, WlanParams(buffer_bits=10_000), Metrics())
        link.metrics = metrics
        accepted = sum(link.send(Packet(0, 500)) for _ in range(10))
        q.run_all()
        assert accepted < 10
        counters = metrics_snapshot(metrics, q.now).links["wlan"]
        assert counters["dropped_pkts"] == 10 - accepted
        assert counters["delivered_pkts"] == accepted

    def test_oversize_packet_must_be_fragmented_first(self):
        q = EventQueue()
        link = build_wlan_link(q, WlanParams(), Metrics())
        with pytest.raises(RunInvariantError):
            link.send(Packet(0, 8334))


class TestPriorityClasses:
    def _loaded_link(self, edca):
        q = EventQueue()
        link = build_wlan_link(q, WlanParams(edca=edca), Metrics())
        order = []
        for i in range(10):
            link.send(Packet(0, 1400, access_class="video", flow=f"v{i}"),
                      on_deliver=lambda p: order.append(p.access_class))
        link.send(Packet(0, 21, access_class="control"),
                  on_deliver=lambda p: order.append(p.access_class))
        q.run_all()
        return order

    def test_control_jumps_queued_video_with_priority_on(self):
        order = self._loaded_link(edca=True)
        # the first frame already holds the medium; control goes second
        assert order.index("control") == 1

    def test_control_waits_its_turn_with_priority_off(self):
        order = self._loaded_link(edca=False)
        assert order.index("control") == 10

    def test_empty_medium_latency_identical_either_way(self):
        lat = {}
        for edca in (False, True):
            q = EventQueue()
            link = build_wlan_link(q, WlanParams(edca=edca), Metrics())
            lat[edca] = deliver_one(link, Packet(0, 21, access_class="control"))
        assert lat[False] == lat[True]


class TestWimaxLink:
    def test_idle_1500_byte_latency(self):
        q = EventQueue()
        link = build_wimax_link(q, WimaxParams(), Metrics())
        assert deliver_one(link, Packet(0, 1500, access_class="video")) == 1243

    def test_sustained_overload_is_shed_not_queued_forever(self):
        q = EventQueue()
        metrics = Metrics()
        link = build_wimax_link(q, WimaxParams(), metrics)
        # 12 Mbps offered against a 10 Mbps server for one second
        interval = 1_000_000 // 1000
        for i in range(1000):
            q.schedule(i * interval,
                       lambda i=i: link.send(Packet(i * interval, 1446,
                                                    access_class="video")))
        q.run_all()
        rec = metrics_snapshot(metrics, q.now)
        assert rec.links["wimax"]["dropped_pkts"] > 0
        assert rec.throughput_bps("wimax") <= 10_000_000 * 1.01

    def test_sparse_control_flow_sees_no_loss(self):
        q = EventQueue()
        metrics = Metrics()
        link = build_wimax_link(q, WimaxParams(), metrics)
        for i in range(10):
            q.schedule(i * 30_000_000,
                       lambda t=i * 30_000_000: link.send(Packet(t, 140)))
        q.run_all()
        rec = metrics_snapshot(metrics, 300_000_000)
        assert rec.loss_ratio("wimax") == 0.0
        assert rec.latency[("wimax", "control")].max_us == tx_time_us(194 * 8, 10_000_000)

    def test_real_time_class_preempts_best_effort_backlog(self):
        q = EventQueue()
        link = build_wimax_link(q, WimaxParams(), Metrics())
        order = []
        for i in range(5):
            link.send(Packet(0, 1400, flow="bulk"),
                      on_deliver=lambda p: order.append(p.flow))
        link.send(Packet(0, 500, flow="case_report"),
                  on_deliver=lambda p: order.append(p.flow))
        q.run_all()
        assert order.index("case_report") == 1


COUNTER_FIELDS = ("offered_pkts", "offered_bits", "delivered_pkts",
                  "delivered_bits", "dropped_pkts", "dropped_bits")


class ReferenceServer:
    """The link model written plainly: enqueue behind the buffer check,
    serve the highest non-empty class, finish after ``tx_time_us``, release
    the buffer at finish and deliver after the processing delay. Counts go
    to ``tally`` and ``latencies`` for packets created at or after
    ``measure_from``."""

    def __init__(self, q, name, rate_bps, buffer_bits, overhead_bytes,
                 proc_delay_us, class_order, class_key, measure_from):
        self.q, self.name = q, name
        self.rate_bps, self.buffer_bits = rate_bps, buffer_bits
        self.overhead_bytes, self.proc_delay_us = overhead_bytes, proc_delay_us
        self.class_order, self.class_key = class_order, class_key
        self.measure_from = measure_from
        self.waiting = {cls: [] for cls in class_order}
        self.buffered = 0
        self.busy = False
        self.tally: dict = {}
        self.latencies: dict = {}

    def _count(self, pkt, field, bits):
        if pkt.created_at < self.measure_from:
            return
        key = (self.name, pkt.access_class, pkt.flow, pkt.src)
        c = self.tally.setdefault(key, dict.fromkeys(COUNTER_FIELDS, 0))
        c[f"{field}_pkts"] += 1
        c[f"{field}_bits"] += bits

    def send(self, pkt, on_deliver=None):
        wire = (pkt.size_bytes + self.overhead_bytes) * 8
        self._count(pkt, "offered", wire)
        if self.buffered + wire > self.buffer_bits:
            self._count(pkt, "dropped", wire)
            return False
        self.buffered += wire
        cls = self.class_key(pkt)
        if cls not in self.waiting:
            cls = self.class_order[-1]
        self.waiting[cls].append((pkt, wire, on_deliver))
        if not self.busy:
            self._start()
        return True

    def _start(self):
        for cls in self.class_order:
            if self.waiting[cls]:
                pkt, wire, cb = self.waiting[cls].pop(0)
                self.busy = True
                self.q.schedule(self.q.now + tx_time_us(wire, self.rate_bps),
                                lambda: self._finish(pkt, wire, cb))
                return
        self.busy = False

    def _finish(self, pkt, wire, cb):
        self.buffered -= wire
        deliver_at = self.q.now + self.proc_delay_us
        self._count(pkt, "delivered", wire)
        if pkt.created_at >= self.measure_from:
            self.latencies.setdefault((self.name, pkt.access_class), []).append(
                deliver_at - pkt.created_at)
        if cb is not None:
            self.q.schedule(deliver_at, lambda: cb(pkt))
        self._start()

    def record(self, window_us):
        def sum_by(group):
            out = {}
            for key, c in self.tally.items():
                total = out.setdefault(group(key), dict.fromkeys(COUNTER_FIELDS, 0))
                for field in COUNTER_FIELDS:
                    total[field] += c[field]
            return out

        return MetricsRecord(
            window_us=window_us,
            links=sum_by(lambda k: k[0]),
            by_class=sum_by(lambda k: k[:2]),
            by_flow=sum_by(lambda k: (k[0], k[2])),
            latency={k: LatencyStats.from_counts(dict(Counter(v)))
                     for k, v in self.latencies.items()},
            offered_bits_by_src={k: c["offered_bits"]
                                 for k, c in sum_by(lambda k: (k[0], k[2], k[3])).items()},
        )


LINK_KINDS = {
    # name: (builder, params, class order, class key)
    "fifo": (build_wlan_link, WlanParams, ("fifo",), lambda p: p.access_class),
    "edca": (build_wlan_link, lambda **kw: WlanParams(edca=True, **kw),
             ("control", "video", "best_effort"), lambda p: p.access_class),
    "long_range": (build_wimax_link, WimaxParams, ("rt", "be"),
                   lambda p: "rt" if p.access_class == "video"
                   or p.flow == "case_report" else "be"),
}


class TestLinkAgainstReferenceServer:
    @settings(max_examples=150)
    @given(
        kind=st.sampled_from(sorted(LINK_KINDS)),
        buffer_bits=st.sampled_from([3_000, 12_000, 1_000_000]),
        measure_from=st.sampled_from([0, 120]),
        sends=st.lists(st.tuples(
            st.integers(0, 200),                                   # send time
            st.integers(0, 100),                                   # created this much earlier
            st.sampled_from(["control", "video", "best_effort"]),
            st.sampled_from(["sd_status", "case_report", "video_up"]),
            st.integers(0, 3),                                     # source
            st.integers(1, 1500),                                  # bytes
            st.sampled_from(["none", "record", "reply"]),          # delivery callback
        ), min_size=1, max_size=40),
    )
    def test_same_returns_deliveries_and_snapshot(self, kind, buffer_bits,
                                                  measure_from, sends):
        builder, params, class_order, class_key = LINK_KINDS[kind]
        p = params(buffer_bits=buffer_bits)
        real_q, ref_q = EventQueue(), EventQueue()
        metrics = Metrics(measure_from_us=measure_from)
        real = builder(real_q, p, metrics, "link")
        ref = ReferenceServer(
            ref_q, "link", real.rate_bps, buffer_bits, p.overhead_bytes,
            real.proc_delay_us, class_order, class_key, measure_from)

        def drive(q, link):
            returns, deliveries = [], []

            def record(pkt):
                deliveries.append((q.now, pkt))

            def reply(pkt):
                record(pkt)
                answer = Packet(q.now, 40, "control", "ack", pkt.dst, pkt.src)
                returns.append(link.send(answer, record))

            callbacks = {"none": None, "record": record, "reply": reply}
            for t, back, cls, flow, src, size, mode in sends:
                pkt = Packet(max(0, t - back), size, cls, flow, src, 1)
                q.schedule(t, lambda pkt=pkt, cb=callbacks[mode]:
                           returns.append(link.send(pkt, cb)))
            events = q.run_all()
            return returns, deliveries, events

        assert drive(real_q, real) == drive(ref_q, ref)
        assert real_q.now == ref_q.now
        assert metrics_snapshot(metrics, real_q.now) == ref.record(
            max(0, real_q.now - measure_from))


def one_event_per_slot(server, times, xs, packet_for, on_deliver=None):
    """A train as the reference server takes it: each slot its own event,
    scheduled at registration, sending its packet created at the slot time."""
    for t, x in zip(times, xs):
        def offer(t=t, x=x):
            pkt = packet_for(x)
            if pkt is not None:
                server.send(pkt._replace(created_at=t), on_deliver)
        server.q.schedule(t, offer)


def drive_with_trains(q, link, sends, register_trains, split):
    """Schedule ``sends`` (time, class, flow, bytes, callback, source) after
    ``register_trains(callbacks)`` and run to ``split``, then to the end.
    A delivery is recorded without its creation time, which a train
    ignores in the packet it hands on; latencies show it."""
    returns, deliveries = [], []

    def record(pkt):
        deliveries.append((q.now, pkt[1:]))

    def reply(pkt):
        record(pkt)
        answer = Packet(q.now, 40, "control", "ack", pkt.dst, pkt.src)
        returns.append(link.send(answer, record))

    def last_reply(pkt):
        record(pkt)
        # created now, with no delivery callback, as the callback's last act
        link.send(Packet(q.now, 40, "control", "ack", pkt.dst, pkt.src))

    callbacks = {"none": None, "record": record, "reply": reply, "last_reply": last_reply}
    register_trains(callbacks)
    for t, cls, flow, size, mode, src in sends:
        pkt = Packet(t, size, cls, flow, src, 1)
        q.schedule(t, lambda pkt=pkt, cb=callbacks[mode]:
                   returns.append(link.send(pkt, cb)))
    first = (q.run_until(split), q.now)
    return returns, deliveries, first, q.run_all()


def reference_pair(kind, buffer_bits, measure_from):
    """A real link and the reference server, each on its own queue."""
    builder, params, class_order, class_key = LINK_KINDS[kind]
    p = params(buffer_bits=buffer_bits)
    metrics = Metrics(measure_from_us=measure_from)
    real = builder(EventQueue(), p, metrics, "link")
    ref = ReferenceServer(
        EventQueue(), "link", real.rate_bps, buffer_bits, p.overhead_bytes,
        real.proc_delay_us, class_order, class_key, measure_from)
    return real, ref, metrics


# what a delivery does: nothing, record it, answer it with a send, or
# answer it with a send that has no callback as its last act
CALLBACK_MODES = ["none", "record", "reply", "last_reply"]
SENDS = st.lists(st.tuples(
    st.integers(0, 30).map(lambda k: 10 * k),              # send time
    st.sampled_from(["control", "video", "best_effort"]),
    st.sampled_from(["sd_status", "case_report", "video_up"]),
    st.integers(1, 1500),                                  # bytes
    st.sampled_from(CALLBACK_MODES),                       # delivery callback
    # the trains' sources, so that sends and trains share counters
    st.integers(0, 3),                                     # source
), max_size=20)


class TestTrainsAgainstReferenceServer:
    @settings(max_examples=150)
    @given(
        kind=st.sampled_from(sorted(LINK_KINDS)),
        buffer_bits=st.sampled_from([3_000, 12_000, 1_000_000]),
        measure_from=st.sampled_from([0, 120]),
        # times are multiples of 10 us so that slots, sends and completions
        # often coincide
        sends=SENDS,
        trains=st.lists(st.tuples(
            st.integers(0, 20).map(lambda k: 10 * k),              # registration time
            st.sampled_from(["control", "video", "best_effort"]),
            st.sampled_from(["flight_ack", "case_report"]),
            st.integers(1, 600),                                   # bytes
            st.sampled_from(CALLBACK_MODES),                       # delivery callback
            st.lists(st.tuples(
                st.integers(0, 4).map(lambda k: 10 * k),           # gap to the previous slot
                st.one_of(st.none(), st.tuples(
                    st.integers(0, 3),                             # source
                    st.integers(0, 100))),                         # created this much earlier
            ), min_size=1, max_size=12),
        ), min_size=1, max_size=4),
        split=st.integers(0, 80).map(lambda k: 5 * k),             # run_until bound
    )
    def test_same_returns_deliveries_events_and_snapshot(self, kind, buffer_bits, measure_from,
                                                         sends, trains, split):
        real, ref, metrics = reference_pair(kind, buffer_bits, measure_from)

        def registering(q, link, register):
            def register_trains(callbacks):
                for t, cls, flow, size, mode, gaps in trains:
                    times, senders, at = [], [], t
                    for gap, sender in gaps:
                        at += gap
                        times.append(at)
                        senders.append(sender)

                    def packet_for(sender, cls=cls, flow=flow, size=size):
                        if sender is None:  # a skipped slot
                            return None
                        # created earlier than its slot, which a train ignores
                        src, back = sender
                        return Packet(max(0, q.now - back), size, cls, flow, src, 1)
                    q.schedule(t, lambda times=times, senders=senders, packet_for=packet_for,
                               cb=callbacks[mode]:
                               register(link, times, senders, packet_for, cb))
            return register_trains

        real_q, ref_q = real.queue, ref.q
        assert (drive_with_trains(real_q, real, sends, registering(real_q, real, Link.train),
                                  split)
                == drive_with_trains(ref_q, ref, sends,
                                     registering(ref_q, ref, one_event_per_slot), split))
        assert real_q.now == ref_q.now
        assert metrics_snapshot(metrics, real_q.now) == ref.record(
            max(0, real_q.now - measure_from))

    @settings(max_examples=150)
    @given(
        kind=st.sampled_from(sorted(LINK_KINDS)),
        buffer_bits=st.sampled_from([3_000, 1_000_000]),
        sends=SENDS,
        mode=st.sampled_from(CALLBACK_MODES),
        size=st.integers(1, 600),
        # slot offsets after each tick of a 60 us series, inside its period
        offsets=st.lists(st.integers(1, 5).map(lambda k: 10 * k), min_size=1, max_size=5,
                         unique=True).map(sorted),
        split=st.integers(0, 80).map(lambda k: 5 * k),
    )
    def test_a_train_on_an_earlier_tie_orders_as_if_scheduled_then(
            self, kind, buffer_bits, sends, mode, size, offsets, split):
        # each tick of a series registers a train on the series' tie, taken
        # before the sends are scheduled, so a slot runs before a send at
        # the same time: the reference schedules every slot with the series
        period, last = 60, 240
        real, ref, metrics = reference_pair(kind, buffer_bits, 0)

        def packet_for(offset):
            return Packet(0, size, "control", "flight_ack", offset // 20, 1)

        def trains_on_the_series_tie(callbacks):
            tie = None

            def tick(t):
                real.train([t + o for o in offsets], offsets, packet_for,
                           callbacks[mode], tie)
            tie = real.queue.every(0, period, last, tick)

        def slots_with_the_series(callbacks):
            ref.q.every(0, period, last, lambda t: None)
            for t in range(0, last + 1, period):
                one_event_per_slot(ref, [t + o for o in offsets], offsets, packet_for,
                                   callbacks[mode])

        assert (drive_with_trains(real.queue, real, sends, trains_on_the_series_tie, split)
                == drive_with_trains(ref.q, ref, sends, slots_with_the_series, split))
        assert real.queue.now == ref.q.now
        assert metrics_snapshot(metrics, real.queue.now) == ref.record(real.queue.now)

    @staticmethod
    def spaced_train(kind, buffer_bits, measure_from, sends, size, mode, gaps, split):
        """``drive_with_trains`` of one train, registered at 40 ms, long after
        ``sends``, with slots ``gaps`` apart from there, each offering
        ``size`` bytes from source 2 with the ``mode`` callback, against the
        reference; wide gaps let a slot find the link idle and deliver before
        anything else. Returns the slots that ``send`` never saw: the ones
        completed in place."""
        real, ref, metrics = reference_pair(kind, buffer_bits, measure_from)
        times = list(accumulate(gaps, initial=40_000))[1:]
        offered, send = [], real.send

        def spy(pkt, on_deliver=None, n=1, created=None):
            if created is not None:  # a train slot's offer
                offered.append(created)
            return send(pkt, on_deliver, n, created)
        real.send = spy

        def packet_for(_x):
            return Packet(0, size, "control", "flight_ack", 2, 1)

        def registering(q, register, link):
            return lambda callbacks: q.schedule(
                40_000, lambda: register(link, times, range(len(times)), packet_for,
                                         callbacks[mode]))

        assert (drive_with_trains(real.queue, real, sends,
                                  registering(real.queue, Link.train, real), split)
                == drive_with_trains(ref.q, ref, sends,
                                     registering(ref.q, one_event_per_slot, ref), split))
        assert real.queue.now == ref.q.now
        assert metrics_snapshot(metrics, real.queue.now) == ref.record(
            max(0, real.queue.now - measure_from))
        return len(times) - len(offered)

    @settings(max_examples=100)
    @given(
        kind=st.sampled_from(sorted(LINK_KINDS)),
        buffer_bits=st.sampled_from([3_000, 1_000_000]),
        measure_from=st.sampled_from([0, 42_500]),
        sends=SENDS,
        size=st.integers(1, 600),
        mode=st.sampled_from(CALLBACK_MODES),
        gaps=st.lists(st.sampled_from([0, 10, 150, 1_000]), min_size=1, max_size=8),
        split=st.integers(0, 50).map(lambda k: 1_000 * k),
    )
    def test_spaced_slots_match_the_reference_in_place_or_not(
            self, kind, buffer_bits, measure_from, sends, size, mode, gaps, split):
        self.spaced_train(kind, buffer_bits, measure_from, sends, size, mode, gaps, split)

    @pytest.mark.parametrize("measure_from, in_place", [(0, 3), (42_500, 2)])
    def test_spaced_callback_slots_complete_in_place(self, measure_from, in_place):
        # slots at 41 to 44 ms, each delivery answered: the first slot's key
        # has no cache entry, so send makes it; after that a slot completes
        # in place unless it is its key's first measured offer (43 ms when
        # measuring starts at 42.5 ms), which send counts
        assert self.spaced_train("fifo", 1_000_000, measure_from, [], 10, "reply",
                                 [1_000] * 4, 60_000) == in_place

    def test_a_delivery_due_after_the_next_slot_waits_for_it(self):
        # 10 bytes finish 15 us after the slot at 0 us, before the slot at
        # 50 us, and are delivered 100 us later: the reply to the first
        # packet goes out after the second packet, as in the reference
        real, ref, metrics = reference_pair("fifo", 1_000_000, 0)

        def packet_for(src):
            return Packet(0, 10, "control", "flight_ack", src, 1)

        def registering(register, link):
            return lambda callbacks: register(link, [0, 50], [2, 3], packet_for,
                                              callbacks["reply"])

        got = drive_with_trains(real.queue, real, [], registering(Link.train, real), 1_000)
        assert got == drive_with_trains(ref.q, ref, [], registering(one_event_per_slot, ref),
                                        1_000)
        assert [(t, pkt[:3]) for t, pkt in got[1]] == [
            (115, (10, "control", "flight_ack")), (165, (10, "control", "flight_ack")),
            (234, (40, "control", "ack")), (284, (40, "control", "ack"))]
        assert metrics_snapshot(metrics, real.queue.now) == ref.record(real.queue.now)

    def test_slots_out_of_time_order_rejected(self):
        q = EventQueue()
        link = build_wlan_link(q, WlanParams(), Metrics())
        with pytest.raises(RunInvariantError, match="time order"):
            link.train([5, 4], [2, 3], lambda src: None)
        q.run_until(10)
        with pytest.raises(RunInvariantError):
            link.train(range(9, 20), range(11), lambda src: None)

    def test_inline_slots_count_as_events(self):
        q = EventQueue()
        link = build_wlan_link(q, WlanParams(), Metrics())
        link.train(range(0, 500, 100), range(5),
                   lambda src: Packet(q.now, 10, flow="flight_ack", src=src))
        # the first slot comes off the heap, the next two slots and their
        # completions run inline; the 200 us slot's completion at 215 us
        # lies past the bound and waits on the heap
        assert q.run_until(205) == 5
        assert q.now == 205
        assert q.run_all() == 5
        assert link.idle

    def test_inline_deliveries_count_as_events(self):
        q = EventQueue()
        link = build_wlan_link(q, WlanParams(), Metrics())
        seen = []

        def record(pkt):
            seen.append((q.now, pkt.flow))

        # each packet occupies the medium for 15 us and is delivered 100 us
        # after that
        for t, flow in ((0, "first"), (300, "second"), (600, "third")):
            q.schedule(t, lambda t=t, flow=flow: link.send(Packet(t, 10, flow=flow), record))
        q.schedule(200, lambda: None)
        q.schedule(400, lambda: None)
        # the first delivery (115 us) is the next event and runs inline;
        # the second (415 us) waits behind the 400 us entry and the third
        # (715 us) lies past the bound, so both go on the heap
        assert q.run_until(700) == 10
        assert q._inline == 1
        assert seen == [(115, "first"), (415, "second")]
        assert q.now == 700
        assert q.run_all() == 1
        assert seen[-1] == (715, "third") and q.now == 715
        assert q._inline == 1 and link.idle

    def test_delivery_runs_before_a_completion_at_the_same_time(self):
        # the delivery's tie is taken before the next packet is served, as
        # if it were scheduled, so with EDCA the ack it sends is served
        # ahead of the video queued behind
        q = EventQueue()
        link = build_wlan_link(q, WlanParams(edca=True), Metrics())
        seen = []

        def record(pkt):
            seen.append((q.now, pkt.flow))

        def reply(pkt):
            record(pkt)
            link.send(Packet(q.now, 45, flow="ack"), record)

        # 45 bytes occupy the medium for 20 us and 585 bytes for 100 us,
        # the processing delay: "a" is delivered at 120 us, as "b" finishes
        link.send(Packet(0, 45, "video", "a"), reply)
        link.send(Packet(0, 585, "video", "b"), record)
        link.send(Packet(0, 45, "video", "c"), record)
        q.run_all()
        assert seen == [(120, "a"), (220, "b"), (240, "ack"), (260, "c")]


class TestInPlaceCompletion:
    """A train slot that finds its link idle and completes next, on a key
    with its counter or not yet measured, is completed in place: nothing is
    buffered, queued or scheduled, and ``_finish`` is called only to count a
    measured delivery. With a delivery callback, "next" is measured at the
    delivery, and the callback runs there once the train's next slot is on
    the heap. Any other slot is offered to ``send``; a served packet's
    ``_finish`` delivers it. A settle hook is tried at registration too,
    while a run is in progress."""

    @staticmethod
    def finish_calls(link):
        """Record each ``_finish`` call with the link's state when it runs:
        (arguments, item in service, buffered bits, heap length)."""
        calls, finish = [], link._finish

        def spy(*args):
            calls.append((args, link._busy, link._buffered_bits, len(link.queue._heap)))
            finish(*args)
        link._finish = spy
        return calls

    def test_a_callback_free_slot_completes_in_place(self):
        q, metrics = EventQueue(), Metrics()
        link = build_wlan_link(q, WlanParams(), metrics)
        ack = Packet(0, 10, flow="flight_ack", src=2)
        link.send(ack)  # the key's first measured offer makes its counter
        q.run_all()
        q.schedule(1_000, lambda: None)
        link.train([200], [2], lambda src: ack)
        calls = self.finish_calls(link)
        # 10 bytes and 90 of overhead occupy the medium for 15 us and are
        # delivered 100 us later; only the 1 ms entry is left on the heap
        assert q.run_until(500) == 2
        counter = metrics.counters["wlan", "control", "flight_ack", 2]
        assert calls == [((counter, 800, 115), None, 0, 1)]
        assert link._busy is None and link._buffered_bits == 0 and len(q._heap) == 1
        assert metrics.latencies == {("wlan", "control"): {115: 2}}
        assert (counter.offered_pkts, counter.delivered_pkts, counter.delivered_bits) == (
            2, 2, 1_600)

    def test_a_slot_that_would_finish_as_the_next_one_starts_is_served(self):
        # the 100 us slot's ack would complete at 115 us, the next slot's
        # time; a completion through the heap would come after that slot, so
        # the ack is served and the next one finds the 800-bit buffer full
        q, metrics = EventQueue(), Metrics()
        link = build_wlan_link(q, WlanParams(buffer_bits=800), metrics)
        ack = Packet(0, 10, flow="flight_ack", src=2)
        link.send(ack)  # the key's counter
        q.run_all()
        link.train([100, 115], [2, 2], lambda src: ack)
        assert q.run_all() == 3
        counter = metrics.counters["wlan", "control", "flight_ack", 2]
        assert (counter.offered_pkts, counter.delivered_pkts, counter.dropped_pkts) == (3, 2, 1)

    def test_a_slot_on_an_idle_link_that_the_buffer_cannot_hold_is_dropped(self):
        # an 800-bit ack against a 799-bit buffer, at each of two slots
        q, metrics = EventQueue(), Metrics()
        link = build_wlan_link(q, WlanParams(buffer_bits=799), metrics)
        link.train([0, 100], [2, 2], lambda src: Packet(0, 10, flow="flight_ack", src=src))
        assert q.run_all() == 2
        counter = metrics.counters["wlan", "control", "flight_ack", 2]
        assert (counter.offered_pkts, counter.delivered_pkts, counter.dropped_pkts) == (2, 0, 2)
        assert link.idle and metrics.latencies == {("wlan", "control"): {}}

    def test_a_first_measured_offer_is_served_and_finish_delivers_it(self):
        # the slot's key has no counter yet, so the slot offers its packet to
        # send, which makes the counter and serves the packet as created at
        # the slot, 100 us; its completion at 115 us is the next heap entry
        q, metrics = EventQueue(), Metrics()
        link = build_wlan_link(q, WlanParams(), metrics)
        q.schedule(1_000, lambda: None)
        ack = Packet(0, 10, flow="flight_ack", src=2)
        link.train([100], [2], lambda src: ack)
        calls = self.finish_calls(link)
        assert q.run_until(500) == 2
        counter = metrics.counters["wlan", "control", "flight_ack", 2]
        assert calls == [((), (ack, 800, 15, None, counter, 100), 800, 1)]
        assert link.idle and len(q._heap) == 1
        assert metrics.latencies == {("wlan", "control"): {115: 1}}
        assert (counter.offered_pkts, counter.delivered_pkts) == (1, 1)

    def test_an_unmeasured_slot_counts_its_events_but_no_offer_or_delivery(self):
        q, metrics = EventQueue(), Metrics(measure_from_us=1_000)
        link = build_wlan_link(q, WlanParams(), metrics)
        seen = []

        def record(pkt):
            seen.append((q.now, pkt.src))

        def status(src):
            return Packet(0, 10, flow="sd_status", src=src)

        link.train([0, 300], [2, 3], status, record)
        calls = self.finish_calls(link)
        # each slot, its completion through the heap and its inline
        # delivery, before the next slot
        assert q.run_until(500) == 6
        assert seen == [(115, 2), (415, 3)]
        # each completion is one bare call on the packet in service, created
        # at its slot and counted nowhere; the 300 us slot waits on the heap
        # while the first completes
        assert calls == [((), (status(2), 800, 15, record, None, 0), 800, 1),
                         ((), (status(3), 800, 15, record, None, 300), 800, 0)]
        assert metrics.counters == {} and metrics.latencies == {}
        assert link.idle and not q._heap

    def test_a_train_tries_settle_at_each_pop_and_ends_when_it_settles(self):
        # slots at 0, 300 and 600 us: the first pop runs the 0 us slot, whose
        # packet completes in place, and stops before the 200 us entry; at
        # the 300 us pop ``settle`` takes both remaining slots, which count
        # as two events and offer nothing here
        q, metrics = EventQueue(), Metrics()
        link = build_wlan_link(q, WlanParams(), metrics)
        q.schedule(200, lambda: None)
        pops = []

        def settle(times, xs, i):
            pops.append((q.now, xs[i:]))
            return i > 0

        link.train([0, 300, 600], [2, 3, 4],
                   lambda src: Packet(0, 10, flow="flight_ack", src=src), settle=settle)
        assert q.run_until(1_000) == 5
        assert pops == [(0, [2, 3, 4]), (300, [3, 4])]
        assert [key[3] for key in metrics.counters] == [2]
        assert link.idle and not q._heap

    STATUS = Packet(0, 10, flow="sd_status", src=2)

    def status_slots(self, slots, head=None, reply=False):
        """A train of ``STATUS`` beacons at ``slots``, each recorded at its
        delivery, after a ``send`` made the key's counter, with an entry at
        ``head`` if given. With ``reply``, each delivery sends a 45-byte
        ack and records the heap's (time, tie) entries before that send.
        Returns the queue, the link, the metrics, the deliveries, the
        ``_finish`` calls and the train's tie."""
        q, metrics = EventQueue(), Metrics()
        link = build_wlan_link(q, WlanParams(), metrics)
        link.send(self.STATUS)
        q.run_all()
        if head is not None:
            q.schedule(head, lambda: None)
        seen = []

        def deliver(pkt):
            seen.append((q.now, pkt.src, sorted(entry[:2] for entry in q._heap)))
            if reply:
                link.send(Packet(q.now, 45, flow="ack", src=1))

        tie = q._tie
        link.train(slots, [2] * len(slots), lambda src: self.STATUS, deliver)
        return q, link, metrics, seen, self.finish_calls(link), tie

    def test_an_idle_link_callback_slot_is_delivered_in_place(self):
        # 10 bytes occupy the medium for 15 us and are delivered 100 us
        # later: the 200 us slot, its completion and its delivery at 315 us
        # are three events, and none takes a tie
        q, link, metrics, seen, calls, tie = self.status_slots([200], head=1_000)
        ties = q._tie
        assert ties == tie + 1
        assert q.run_until(500) == 3
        assert q._tie == ties
        counter = metrics.counters["wlan", "control", "sd_status", 2]
        assert calls == [((counter, 800, 115), None, 0, 1)]
        assert seen == [(315, 2, [(1_000, tie - 1)])]
        assert link.idle and len(q._heap) == 1 and q.now == 500
        assert metrics.latencies == {("wlan", "control"): {115: 2}}
        assert (counter.offered_pkts, counter.delivered_pkts) == (2, 2)

    @pytest.mark.parametrize("slots, head, limit, in_place", [
        ([200, 315], None, 1_000, False),
        ([200, 316], None, 1_000, True),
        ([200], 315, 1_000, False),
        ([200], 316, 1_000, True),
        ([200], None, 314, False),
        ([200], None, 315, True),
    ], ids=["at-next-slot", "before-next-slot", "at-head", "before-head", "past-limit",
            "at-limit"])
    def test_a_callback_slot_goes_through_send_unless_its_delivery_is_next(
            self, slots, head, limit, in_place):
        # the first slot's delivery at 315 us against the next slot, the
        # heap's first entry and the run_until bound
        q, link, metrics, seen, calls, _ = self.status_slots(slots, head)
        q.run_until(limit)
        q.run_all()
        counter = metrics.counters["wlan", "control", "sd_status", 2]
        assert calls[0][0] == ((counter, 800, 115) if in_place else ())
        assert seen[0][:2] == (315, 2) and link.idle
        assert metrics.latencies == {("wlan", "control"): {115: len(slots) + 1}}

    def test_a_callback_that_sends_finds_the_next_slot_on_the_heap(self):
        # the 200 us beacon is delivered in place at 315 us, where the 500 us
        # slot already waits on the train's tie; the 45-byte ack sent then
        # completes at 335 us on a later tie. Each beacon is three events,
        # each ack's completion one
        q, link, metrics, seen, calls, tie = self.status_slots([200, 500], reply=True)
        assert q.run_all() == 2 * 3 + 2
        assert [entry[:2] for entry in seen] == [(315, 2), (615, 2)]
        assert seen[0][2] == [(500, tie)]
        ack = metrics.counters["wlan", "control", "ack", 1]
        assert (ack.offered_pkts, ack.delivered_pkts) == (2, 2)
        assert link.idle

    def flight_round(self, at_registration):
        """A flight-like round of callback-free acks from SDs 2 to 5, 200 us
        apart, registered with a settle hook by an event at 10 ms (whose run
        settles it at once) or before the first run (so it settles at its
        first pop, at 10.4 ms). Returns what must not depend on which, the
        clock after each hook among it, and where the hook ran as (clock,
        slot index)."""
        q, metrics = EventQueue(), Metrics()
        link = build_wlan_link(q, WlanParams(), metrics)
        acks = {x: Packet(0, 10, flow="flight_ack", src=x, dst=1) for x in range(2, 6)}
        for pkt in acks.values():
            link.send(pkt)
        q.run_all()
        rows = [(x, link.counter(pkt)) for x, pkt in acks.items()]
        times, hooks, ends = range(10_400, 11_200, 200), [], []

        def settle(times, xs, i):
            hooks.append((q.now, i))
            settled = link.settle(times, xs, i, rows, acks[2], delivers=False)
            ends.append(q.now)
            return settled is not None

        def register():
            link.train(times, range(2, 6), acks.get, settle=settle)
        if at_registration:
            q.schedule(10_000, register)
        else:
            register()
            q.schedule(10_000, lambda: None)
        q.schedule(20_000, lambda: None)
        events = q.run_until(15_000)
        return (events, TestSettle.counts(metrics), ends, q.run_all(), link.idle), hooks

    def test_a_round_settled_at_registration_counts_what_one_settled_at_its_first_pop_does(
            self):
        got, hooks = self.flight_round(True)
        assert hooks == [(10_000, 0)]
        expected, first_pop = self.flight_round(False)
        assert first_pop == [(10_400, 0)]
        # the 10 ms event, four ack slots and their four completions; the
        # clock ends at the last one, 11.015 ms
        assert got == expected and got[0] == 9 and got[2] == [11_015]

    def test_no_hook_runs_at_registration_outside_a_run(self):
        q, metrics = EventQueue(), Metrics()
        link = build_wlan_link(q, WlanParams(), metrics)
        hooks = []

        def settle(times, xs, i):
            hooks.append((q.now, i))
            return False

        def register(first):
            link.train([first, first + 300], [2, 3], lambda src: None, settle=settle)
        assert q._limit == -math.inf
        register(0)
        assert hooks == []
        q.run_all()
        assert hooks == [(0, 0)] and q._limit == -math.inf
        register(1_000)
        assert hooks == [(0, 0)]
        q.run_until(999)
        assert hooks == [(0, 0)] and q._limit == -math.inf
        q.schedule(1_000, lambda: register(1_500))
        q.run_until(2_000)
        # at the pops of the train registered outside a run (its 1.3 ms
        # slot waits behind the 1 ms event), at the registration inside the
        # run and at that train's pop
        assert hooks == [(0, 0), (1_000, 0), (1_000, 0), (1_300, 1), (1_500, 0)]


class TestSettle:
    """``Link.settle`` against the slots it stands for: a status-like train
    of ``range`` slots whose delivery callback sends a reply, and a
    flight-like train of callback-free acks on ``range`` slots, one of
    whose SDs may be gone, run with and without the closed form; and each
    condition under which it must refuse.

    Every beacon has 40 bytes and 90 of overhead: 19 us on the medium,
    delivered 100 us later; every reply has 10 bytes: 15 us. So a round's
    last event comes 134 us after its last slot."""

    PERIOD = 10_000
    ACK = Packet(0, 10, flow="status_ack", src=3)

    @staticmethod
    def beacon(src):
        return Packet(0, 40, flow="sd_status", src=src, dst=3)

    def status_rounds(self, settling, replies):
        """One 50 ms run of a status tick every 10 ms, each registering a
        train on the tick's tie with beacon slots 1 ms apart from 1 ms on
        for ids 1 to 5, of which 3 sends nothing. The 20 ms round is cut by
        an event at 22.5 ms, the 30 ms round finds the link busy at its
        last slot with a 1,500-byte packet that ends after the beacon's
        reply would, and ``run_until`` ends within the 40 ms round.
        Three probes share one instant after each round: one scheduled
        before the run, one by the tick and one after the round.
        Returns what must not depend on ``settling``, and the rounds settled."""
        q, metrics = EventQueue(), Metrics()
        link = build_wlan_link(q, WlanParams(), metrics)
        beacons = {x: self.beacon(x) for x in (1, 2, 4, 5)}
        ack = self.ACK if replies else None
        # round -> [deliveries, last delivery time]; the probes in the
        # order they ran; the _finish calls
        heard, probes, settled, finishes = {}, [], [], []
        finish = link._finish

        def counting_finish(*args):
            finishes.append(q.now)
            finish(*args)

        link._finish = counting_finish

        def delivered(n, at):
            got = heard.setdefault(at // self.PERIOD, [0, None])
            got[0] += n
            got[1] = at

        def on_deliver(pkt):
            delivered(1, q.now)
            if replies:
                link.send(self.ACK._replace(created_at=q.now, dst=pkt.src))

        def settle(times, xs, i):
            rows = [(x, link.counter(pkt)) for x, pkt in beacons.items()]
            if any(c is None for _, c in rows):
                return False
            got = link.settle(times, xs, i, rows, beacons[1], ack)
            if got is not None:
                settled.append((times[i], got))
                if got[0]:
                    delivered(*got)
            return got is not None

        def tick(t):
            link.train(range(t + 1_000, t + 6_000, 1_000), range(1, 6), beacons.get,
                       on_deliver, tie, settle if settling else None)
            q.schedule(t + 9_000, lambda: probes.append(("tick", t)))

        tie = q.every(0, self.PERIOD, 40_000, tick)
        for t in range(0, 50_000, self.PERIOD):
            q.schedule(t + 9_000, lambda t=t: probes.append(("before", t)))
            q.schedule(t + 8_000, lambda t=t: q.schedule(
                t + 9_000, lambda: probes.append(("after", t))))
        q.schedule(22_500, lambda: probes.append(("cut", 22_500)))
        q.schedule(34_999, lambda: link.send(Packet(34_999, 1_500, flow="video")))
        events = [q.run_until(41_100), q.run_until(50_000), q.run_all()]
        counters = {key: (tuple(getattr(c, f) for f in c.__slots__[:-1]), dict(c.latencies))
                    for key, c in metrics.counters.items()}
        return (counters, metrics.latencies, len(finishes), events, probes, heard,
                q.now, link.idle), settled

    @pytest.mark.parametrize("replies", [True, False])
    def test_a_settled_round_counts_what_its_slots_would(self, replies):
        got, settled = self.status_rounds(True, replies)
        want, none = self.status_rounds(False, replies)
        assert got == want and none == []
        # the 0 ms round runs slot by slot, making the counters; the 10 ms
        # round settles whole, the 20 ms round from its first slot after
        # the cut, the 30 ms round not at all, and the 40 ms round, whose
        # end lies past the first limit, in the next run
        assert [(t, n) for t, (n, _) in settled] == [
            (11_000, 4), (23_000, 2), (42_000, 3)]
        assert settled[0][1] == (4, 15_119)
        probes = got[4]
        assert probes[:3] == [("before", 0), ("tick", 0), ("after", 0)]

    def attempt(self, params=WlanParams(), reply=ACK, reply_at=1, step=1_000,
                head=None, limit=20_000, i=0, busy=False, buffered=False):
        """Make the counters of beacons 1, 2 and 4 by offers created at 1 us,
        when measuring starts, and offer the reply's key created at
        ``reply_at`` (if not None). Then call ``settle`` at slot ``i`` of
        slots 1 to 4 (3 sends nothing), ``step`` apart from 10 ms, within
        ``run_until(limit)`` and with an entry at ``head``. Returns its
        result and whether it changed the counters, events, ties or clock."""
        q, metrics = EventQueue(), Metrics(measure_from_us=1)
        link = build_wlan_link(q, params, metrics)
        beacons = [(x, self.beacon(x)._replace(created_at=1)) for x in (1, 2, 4)]
        for _, pkt in beacons:
            link.send(pkt)
        if reply is not None and reply_at is not None:
            link.send(reply._replace(created_at=reply_at))
        q.run_all()
        rows = [(x, link.counter(pkt)) for x, pkt in beacons]
        if head is not None:
            q.schedule(head, lambda: None)

        def state():
            return ([(tuple(getattr(c, f) for f in c.__slots__[:-1]), dict(c.latencies))
                     for c in metrics.counters.values()], q._inline, q._tie, q.now)

        times, got = range(10_000, 10_000 + 4 * step, step), []

        def attempt():
            if busy:
                link.send(Packet(q.now, 1_500, flow="video"))
            if buffered:  # bits the link holds though it serves nothing
                link._buffered_bits = 1
            before = state()
            got.append(link.settle(times, range(1, 5), i, rows, beacons[0][1], reply))
            got.append(state() != before)

        q.schedule(times[i], attempt)
        q.run_until(limit)
        return got

    def test_an_undisturbed_round_settles_with_its_last_delivery_time(self):
        # the last beacon goes at 13 ms and is delivered at 13.119 ms; its
        # reply, the round's last event, ends at 13.134 ms
        assert self.attempt() == [(3, 13_119), True]
        assert self.attempt(reply=None) == [(3, 13_119), True]

    @pytest.mark.parametrize("case, accepted", [
        # at the last slot, a 1,500-byte packet in service ends at 13.235 ms,
        # after the round would, so only the link's state shows it
        (dict(busy=True, i=3), False),
        (dict(i=3), True),
        (dict(buffered=True), False),
        # a 1,040-bit beacon or a 1,200-bit reply that a 1,100-bit buffer
        # cannot hold, whichever it is
        (dict(params=WlanParams(buffer_bits=1_000)), False),
        (dict(params=WlanParams(buffer_bits=1_100),
              reply=Packet(0, 60, flow="status_ack", src=3)), False),
        (dict(params=WlanParams(buffer_bits=1_100)), True),
        # a reply key never offered, or offered only before measuring began
        (dict(reply_at=None), False),
        (dict(reply_at=0), False),
        # the reply of one slot would end as the next slot starts
        (dict(step=134), False),
        (dict(step=135), True),
        (dict(head=13_134), False),
        (dict(head=13_135), True),
        (dict(limit=13_133), False),
        (dict(limit=13_134), True),
    ], ids=["busy", "idle", "buffered", "big-packet", "big-reply", "fits", "no-reply-key",
            "unmeasured-reply",
            "span-is-step", "span-under-step", "ends-at-head", "ends-before-head",
            "ends-past-limit", "ends-at-limit"])
    def test_settle_refuses_a_round_that_something_could_interrupt(self, case, accepted):
        result, counted = self.attempt(**case)
        assert (result is not None, counted) == (accepted, accepted)

    # a flight round: callback-free acks of 10 bytes, 15 us on the medium
    # and delivered 100 us later, on the slots of SDs 2 to 6, of which SD 4
    # is gone: its slot offers nothing
    FLIGHT_IDS, GONE = range(2, 7), 4

    @staticmethod
    def flight_ack(src):
        return Packet(0, 10, flow="flight_ack", src=src, dst=1)

    @staticmethod
    def counts(metrics):
        """Each counter's fields and latency table."""
        return [(tuple(getattr(c, f) for f in c.__slots__[:-1]), dict(c.latencies))
                for c in metrics.counters.values()]

    def flight_rounds(self, settling, ids=FLIGHT_IDS, gone=GONE):
        """One run of a broadcast every 10 ms from 0 to 40 ms, each
        registering a callback-free train of acks at ``200 * id`` us after
        it for ``ids`` but ``gone``, as the runner's flight rounds are: on a
        ``range`` of slot times for a ``range`` of ids, else, never settled,
        on a list. The 20 ms round is cut by an event at 20.7 ms, the 30 ms
        round finds the link busy from its 31 ms slot with a 1,500-byte
        packet sent at 30.999 ms, and ``run_until`` ends within the 40 ms
        round, which ``run_all`` finishes. Returns what must not depend on
        ``settling`` (the events apart, which a hole's slots add to), the
        events per call, and the rounds settled."""
        q, metrics = EventQueue(), Metrics()
        link = build_wlan_link(q, WlanParams(), metrics)
        acks = {x: self.flight_ack(x) for x in ids if x != gone}
        settled, finishes = [], []
        finish = link._finish

        def counting_finish(*args):
            finishes.append(q.now)
            finish(*args)

        link._finish = counting_finish

        def settle(times, xs, i):
            rows = [(x, link.counter(pkt)) for x, pkt in acks.items()]
            if any(c is None for _, c in rows):
                return False
            got = link.settle(times, xs, i, rows, acks[ids[0]], delivers=False)
            if got is not None:
                settled.append((times[i], got))
            return got is not None

        def broadcast(t):
            times = (range(t + 200 * ids.start, t + 200 * ids.stop, 200)
                     if type(ids) is range else [t + 200 * x for x in ids])
            link.train(times, ids, acks.get, settle=settle if settling else None)

        q.every(0, self.PERIOD, 40_000, broadcast)
        q.schedule(20_700, lambda: None)
        q.schedule(30_999, lambda: link.send(Packet(30_999, 1_500, flow="video")))
        events = [q.run_until(41_100), q.run_all()]
        return (self.counts(metrics), metrics.latencies, len(finishes), q.now,
                link.idle), events, settled

    def test_a_settled_flight_round_counts_what_its_slots_would(self):
        got, events, settled = self.flight_rounds(True)
        assert (got, events) == self.flight_rounds(False)[:2]
        # the 0 ms round runs slot by slot, making the counters; the 10 ms
        # round settles whole, the 20 ms round from its first slot after
        # the cut, SD 4's, the 30 ms round not at all, and the 40 ms round's
        # last slot, past the first limit, in run_all, which ends at that
        # ack's completion, 100 us before its delivery
        assert settled == [(10_400, (4, 11_315)), (20_800, (2, 21_315)),
                           (41_200, (1, 41_315))]
        assert got[3] == 41_215

    def test_a_range_over_a_hole_runs_as_the_list_without_it(self):
        # each round's slot of the gone SD 4, at 0.8 ms, offers nothing and
        # is one more event; all five run within the first limit
        for settling in (True, False):
            got, events, _ = self.flight_rounds(settling)
            want, list_events, none = self.flight_rounds(False, [2, 3, 5, 6])
            assert got == want and none == []
            assert [a - b for a, b in zip(events, list_events)] == [5, 0]

    def test_a_flight_round_on_range_slots_equals_one_on_the_equal_list(self):
        # ids 2 to 5 have no hole, so a range of them and their list give the
        # same slots; settled or not, the counters, latency tables, _finish
        # calls, events and clock are those of the list's slots
        want = self.flight_rounds(False, [2, 3, 4, 5], None)
        got, events, settled = self.flight_rounds(True, range(2, 6), None)
        assert (got, events) == want[:2] and self.flight_rounds(False, range(2, 6), None) == want
        # the 40 ms round's last ack ends at 41.015 ms, within the first
        # limit, so that round settles whole
        assert [(t, n) for t, (n, _) in settled] == [(10_400, 4), (20_800, 2), (40_400, 4)]

    @pytest.mark.parametrize("gone", [None, 4], ids=["range", "hole"])
    def test_a_remainder_settles_only_the_rows_from_its_slot_on(self, gone):
        # rows 1 to 7, but SD ``gone``, around slots 2 to 6; settled from its
        # second slot, x = 3, a round counts one offer and one delivery for
        # each row from 3 to 6, and none for rows 1, 2 and 7, which lie
        # outside the remaining slots
        q, metrics = EventQueue(), Metrics()
        link = build_wlan_link(q, WlanParams(), metrics)
        acks = {x: self.flight_ack(x) for x in range(1, 8) if x != gone}
        for pkt in acks.values():
            link.send(pkt)
        q.run_all()
        rows = [(x, link.counter(pkt)) for x, pkt in acks.items()]
        before = {x: (c.offered_pkts, c.delivered_pkts) for x, c in rows}
        xs = range(2, 7)
        times = range(10_000 + 200 * xs.start, 10_000 + 200 * xs.stop, 200)
        got = []
        q.schedule(times[1], lambda: got.append(
            link.settle(times, xs, 1, rows, acks[2], delivers=False)))
        q.run_until(20_000)
        # the last ack goes at 11.2 ms and is delivered 115 us later
        assert got == [(4 - (gone is not None), 11_315)]
        assert {x: (c.offered_pkts - before[x][0], c.delivered_pkts - before[x][1])
                for x, c in rows} == {x: (1, 1) if 3 <= x <= 6 else (0, 0) for x in acks}

    def flight_attempt(self, params=WlanParams(), gap=200, head=None, limit=20_000,
                       busy=False):
        """Make the counters of the ``FLIGHT_IDS`` acks but the gone SD's by
        offers, then call ``settle`` on their callback-free slots ``gap``
        apart from 10 ms, within ``run_until(limit)`` and with an entry at
        ``head``. Returns its result, the events it counted and the clock
        after it, or None and None when it changed nothing."""
        q, metrics = EventQueue(), Metrics()
        link = build_wlan_link(q, params, metrics)
        acks = [(x, self.flight_ack(x)) for x in self.FLIGHT_IDS if x != self.GONE]
        for _, pkt in acks:
            link.send(pkt)
        q.run_all()
        rows = [(x, link.counter(pkt)) for x, pkt in acks]
        if head is not None:
            q.schedule(head, lambda: None)
        times, got = range(10_000, 10_000 + 5 * gap, gap), []

        def attempt():
            if busy:
                link.send(Packet(q.now, 1_500, flow="video"))
            before, inline = self.counts(metrics), q._inline
            got.append(link.settle(times, self.FLIGHT_IDS, 0, rows, acks[0][1],
                                   delivers=False))
            changed = (self.counts(metrics), q._inline) != (before, inline)
            got.extend([q._inline - inline, q.now] if changed else [None, None])

        q.schedule(times[0], attempt)
        q.run_until(limit)
        return got

    def test_an_undisturbed_flight_round_ends_at_its_last_completion(self):
        # four acks, one event each, and no event for the gone SD's slot;
        # the last goes at 10.8 ms, completes at 10.815 ms and is delivered
        # at 10.915 ms
        assert self.flight_attempt() == [(4, 10_915), 4, 10_815]

    @pytest.mark.parametrize("case, accepted", [
        # a 1,500-byte packet in service ends at 10.236 ms, before the round
        (dict(busy=True), False),
        (dict(head=10_815), False),
        (dict(head=10_816), True),
        # the gap between slots, the range's step, against the 15 us ack
        (dict(gap=15), False),
        (dict(gap=16), True),
        (dict(limit=10_814), False),
        (dict(limit=10_815), True),
        # an 800-bit ack
        (dict(params=WlanParams(buffer_bits=799)), False),
        (dict(params=WlanParams(buffer_bits=800)), True),
    ], ids=["busy", "ends-at-head", "ends-before-head", "gap-is-tx", "gap-over-tx",
            "ends-past-limit", "ends-at-limit", "big-packet", "fits"])
    def test_settle_refuses_a_flight_round_that_something_could_interrupt(self, case,
                                                                          accepted):
        result, events, now = self.flight_attempt(**case)
        assert (result is not None, events is not None) == (accepted, accepted)


class TestCopiesAgainstReferenceServer:
    """``Link.send`` of ``n`` copies against the reference server taking each
    copy as its own ``send``."""

    @settings(max_examples=150)
    @given(
        kind=st.sampled_from(sorted(LINK_KINDS)),
        buffer_bits=st.sampled_from([3_000, 12_000, 1_000_000]),
        measure_from=st.sampled_from([0, 120]),
        # times are multiples of 10 us so that offers and completions often
        # coincide
        offers=st.lists(st.tuples(
            st.integers(0, 30).map(lambda k: 10 * k),              # offer time
            st.integers(0, 100),                                   # created this much earlier
            st.sampled_from(["control", "video", "best_effort"]),
            st.sampled_from(["sd_status", "case_report", "video_up"]),
            st.integers(0, 3),                                     # source
            st.sampled_from(["none", "record", "reply"]),          # delivery callback
            st.booleans(),                                         # n copies, or single sends
            st.lists(st.tuples(
                st.integers(1, 1500),                              # bytes
                st.integers(1, 6),                                 # copies
            ), min_size=1, max_size=4),
        ), min_size=1, max_size=20),
        split=st.integers(0, 80).map(lambda k: 5 * k),             # run_until bound
    )
    def test_same_returns_deliveries_events_and_snapshot(self, kind, buffer_bits,
                                                         measure_from, offers, split):
        builder, params, class_order, class_key = LINK_KINDS[kind]
        p = params(buffer_bits=buffer_bits)
        real_q, ref_q = EventQueue(), EventQueue()
        metrics = Metrics(measure_from_us=measure_from)
        real = builder(real_q, p, metrics, "link")
        ref = ReferenceServer(
            ref_q, "link", real.rate_bps, buffer_bits, p.overhead_bytes,
            real.proc_delay_us, class_order, class_key, measure_from)

        def drive(q, link, send_copies):
            returns, deliveries = [], []

            def record(pkt):
                deliveries.append((q.now, pkt))

            def reply(pkt):
                record(pkt)
                answer = Packet(q.now, 40, "control", "ack", pkt.dst, pkt.src)
                returns.append(link.send(answer, record))

            def copies(runs, cb):
                for pkt, n in runs:
                    returns.append(send_copies(pkt, cb, n))

            def sends(runs, cb):
                for pkt, n in runs:
                    returns.extend(link.send(pkt, cb) for _ in range(n))

            callbacks = {"none": None, "record": record, "reply": reply}
            for t, back, cls, flow, src, mode, as_copies, sizes in offers:
                runs = [(Packet(max(0, t - back), size, cls, flow, src, 1), n)
                        for size, n in sizes]
                offer = copies if as_copies else sends
                q.schedule(t, lambda runs=runs, cb=callbacks[mode], offer=offer:
                           offer(runs, cb))
            first = (q.run_until(split), q.now)
            return returns, deliveries, first, q.run_all()

        def ref_copies(pkt, cb, n):
            # True when any of the n sends was admitted
            return any([ref.send(pkt, cb) for _ in range(n)])

        assert drive(real_q, real, real.send) == drive(ref_q, ref, ref_copies)
        assert real_q.now == ref_q.now
        assert metrics_snapshot(metrics, real_q.now) == ref.record(
            max(0, real_q.now - measure_from))

    def test_a_short_copy_fits_after_full_ones_were_dropped(self):
        q = EventQueue()
        metrics = Metrics()
        link = build_wlan_link(q, WlanParams(buffer_bits=12_000), metrics)
        # 600 bytes are 5,520 wire bits, so two of three copies fit; the
        # 20-byte packet's 880 bits fit in the 960 bits left
        assert link.send(Packet(0, 600, flow="video_up"), n=3)
        assert link.send(Packet(0, 20, flow="video_up"), n=1)
        q.run_all()
        c = metrics_snapshot(metrics, q.now).links["wlan"]
        assert (c["offered_pkts"], c["dropped_pkts"], c["delivered_pkts"]) == (4, 1, 3)
        assert c["dropped_bits"] == 5_520 and link.idle


class TestRelaysAgainstReferenceServers:
    """Delivery callbacks that forward the packet onto a second link, as
    the runner relays video through the leader: WLAN (100 us processing)
    to the long-range link (none) and back. A delivery that is the next
    event runs inline, so this drives that rule across links."""

    @settings(max_examples=150)
    @given(
        edca=st.booleans(),
        buffer_bits=st.sampled_from([3_000, 12_000, 1_000_000]),
        measure_from=st.sampled_from([0, 120]),
        # times are multiples of 50 us so that sends, completions and
        # deliveries often coincide
        sends=st.lists(st.tuples(
            st.integers(0, 10).map(lambda k: 50 * k),              # send time
            st.sampled_from(["wlan", "long_range"]),               # first hop
            st.sampled_from(["control", "video", "best_effort"]),
            st.sampled_from(["sd_status", "case_report", "video_up"]),
            st.integers(0, 3),                                     # source
            # sizes whose wire time is 20, 100 or 200 us on the WLAN (45,
            # 585, 1260 bytes) or 100 or 200 us on the long-range link (71,
            # 196); the WLAN's processing delay is 100 us
            st.one_of(st.sampled_from([45, 585, 1260, 71, 196]),
                      st.integers(1, 1500)),                       # bytes
            st.sampled_from(["record", "reply", "last_reply", "relay",
                             "relay_back"]),                       # on delivery
        ), min_size=1, max_size=40),
        split=st.integers(0, 40).map(lambda k: 25 * k),            # run_until bound
    )
    def test_same_returns_deliveries_events_and_snapshots(self, edca, buffer_bits,
                                                          measure_from, sends, split):
        wlan_p = WlanParams(buffer_bits=buffer_bits, edca=edca)
        long_p = WimaxParams(buffer_bits=buffer_bits)
        real_q, ref_q = EventQueue(), EventQueue()
        wlan_m, long_m = Metrics(measure_from), Metrics(measure_from)
        real = (build_wlan_link(real_q, wlan_p, wlan_m, "wlan"),
                build_wimax_link(real_q, long_p, long_m, "long_range"))
        _, _, wlan_order, wlan_key = LINK_KINDS["edca" if edca else "fifo"]
        _, _, long_order, long_key = LINK_KINDS["long_range"]
        ref = (ReferenceServer(ref_q, "wlan", real[0].rate_bps, buffer_bits,
                               wlan_p.overhead_bytes, real[0].proc_delay_us,
                               wlan_order, wlan_key, measure_from),
               ReferenceServer(ref_q, "long_range", real[1].rate_bps, buffer_bits,
                               long_p.overhead_bytes, 0, long_order, long_key,
                               measure_from))
        assert real[0].proc_delay_us == 100

        def drive(q, wlan, long_range):
            # one log of sends and deliveries, so equal-time order shows
            log = []

            def send(link, pkt, cb):
                log.append((q.now, link.name, pkt, link.send(pkt, cb)))

            def record(pkt):
                log.append((q.now, "delivered", pkt))

            def reply(link):
                # an ack back on the same link, as the leader acks a status
                def answer(pkt):
                    record(pkt)
                    send(link, Packet(q.now, 45, "control", "ack", pkt.dst, pkt.src),
                         record)
                return answer

            def last_reply(link):
                # the same ack with no delivery callback, as the callback's last act
                def answer(pkt):
                    record(pkt)
                    send(link, Packet(q.now, 45, "control", "ack", pkt.dst, pkt.src), None)
                return answer

            def forward(link, then):
                def relay(pkt):
                    record(pkt)
                    send(link, pkt, then)
                return relay

            hops = {"wlan": (wlan, long_range), "long_range": (long_range, wlan)}
            for t, hop, cls, flow, src, size, mode in sends:
                first, second = hops[hop]
                cb = {"record": record, "reply": reply(first),
                      "last_reply": last_reply(first),
                      "relay": forward(second, record),
                      "relay_back": forward(second, forward(first, record))}[mode]
                pkt = Packet(t, size, cls, flow, src, 1)
                q.schedule(t, lambda pkt=pkt, link=first, cb=cb: send(link, pkt, cb))
            cut = (q.run_until(split), q.now)
            return log, cut, q.run_all()

        assert drive(real_q, *real) == drive(ref_q, *ref)
        assert real_q.now == ref_q.now
        for metrics, server in zip((wlan_m, long_m), ref):
            assert metrics_snapshot(metrics, real_q.now) == server.record(
                max(0, real_q.now - measure_from))


class TestCapacity:
    def test_video_call_bounds_at_54mbps(self):
        wlan = WlanParams()
        wimax = WimaxParams()
        assert max_simultaneous_calls(wlan, wimax, VideoCallSpec(2_000_000)) == 13
        assert max_simultaneous_calls(wlan, wimax, VideoCallSpec(4_000_000)) == 6
        assert max_simultaneous_calls(wlan, wimax, VideoCallSpec(6_000_000)) == 4

    def test_tighter_bounds_are_logged_not_hidden(self, caplog):
        with caplog.at_level(logging.WARNING, logger="swarmsim.netsim"):
            max_simultaneous_calls(WlanParams(), WimaxParams(), VideoCallSpec(2_000_000))
        assert any("long-range link sustains only" in r.message for r in caplog.records)

    def test_bound_scales_with_radio_rate(self):
        fast = WlanParams(data_rate_bps=108_000_000)
        assert max_simultaneous_calls(fast, WimaxParams(), VideoCallSpec(2_000_000)) == 27


class TestMetrics:
    def test_conservation_per_link(self):
        q = EventQueue()
        metrics = Metrics()
        link = build_wlan_link(q, WlanParams(buffer_bits=50_000), metrics)
        for i in range(200):
            q.schedule(i * 10, lambda t=i * 10: link.send(Packet(t, 1400)))
        q.run_all()
        c = metrics_snapshot(metrics, q.now).links["wlan"]
        assert c["offered_pkts"] == c["delivered_pkts"] + c["dropped_pkts"] == 200
        assert c["offered_bits"] == c["delivered_bits"] + c["dropped_bits"]

    def test_empty_metrics_snapshot_to_no_links(self):
        # a run that ends before its first send has nothing to report
        record = metrics_snapshot(Metrics(), 1_000_000)
        assert record.links == {} and record.latency == {}
        assert record.window_us == 1_000_000

    def test_snapshot_refuses_queued_packets(self):
        q = EventQueue()
        metrics = Metrics()
        link = build_wlan_link(q, WlanParams(), metrics)
        for _ in range(5):
            link.send(Packet(0, 1400))
        with pytest.raises(RunInvariantError):
            metrics_snapshot(metrics, 10)

    def test_warmup_window_excludes_earlier_packets(self):
        q = EventQueue()
        metrics = Metrics(measure_from_us=1_000)
        link = build_wlan_link(q, WlanParams(), metrics)
        link.send(Packet(0, 21))
        q.run_until(500)
        q.schedule(2_000, lambda: link.send(Packet(2_000, 21)))
        q.run_all()
        assert metrics_snapshot(metrics, q.now).links["wlan"]["offered_pkts"] == 1

    def test_uplink_downlink_byte_asymmetry_visible_per_source(self):
        q = EventQueue()
        metrics = Metrics()
        link = build_wlan_link(q, WlanParams(), metrics)
        link.send(Packet(0, 21, flow="sd_status", src=2, dst=1))
        link.send(Packet(0, 10, flow="ack", src=1, dst=2))
        q.run_all()
        bits = metrics_snapshot(metrics, q.now).offered_bits_by_src
        assert bits[("wlan", "sd_status", 2)] == (21 + 90) * 8
        assert bits[("wlan", "ack", 1)] == (10 + 90) * 8

    def test_new_class_flow_pair_gets_its_own_counters(self):
        q = EventQueue()
        metrics = Metrics()
        link = build_wlan_link(q, WlanParams(), metrics)
        link.send(Packet(0, 21, flow="sd_status"))
        q.run_all()
        # same flow under a new class, then a new flow under a known class
        link.send(Packet(q.now, 500, access_class="best_effort", flow="sd_status"))
        link.send(Packet(q.now, 30, flow="ack"))
        q.run_all()
        record = metrics_snapshot(metrics, q.now)
        assert record.by_class[("wlan", "control")]["delivered_pkts"] == 2
        assert record.by_class[("wlan", "best_effort")]["delivered_pkts"] == 1
        assert record.by_flow[("wlan", "sd_status")]["delivered_pkts"] == 2
        assert record.by_flow[("wlan", "ack")]["delivered_pkts"] == 1
        assert record.links["wlan"]["delivered_pkts"] == 3
        assert sorted(record.latency) == [("wlan", "best_effort"), ("wlan", "control")]

    @settings(max_examples=60)
    @given(traffic=st.lists(st.tuples(
        st.integers(0, 300),                                       # send time
        st.sampled_from(["wlan", "wimax"]),
        st.sampled_from(["control", "video", "best_effort"]),
        st.sampled_from(["sd_status", "video_up", "case_report", "ack"]),
        st.integers(0, 12),                                        # source
        st.integers(1, 1500),                                      # bytes
    ), min_size=1, max_size=80))
    def test_views_sum_to_the_link_totals(self, traffic):
        q = EventQueue()
        metrics = Metrics()
        links = {
            "wlan": build_wlan_link(q, WlanParams(buffer_bits=20_000, edca=True), metrics),
            "wimax": build_wimax_link(q, WimaxParams(buffer_bits=20_000), metrics),
        }
        for t, link, cls, flow, src, size in traffic:
            pkt = Packet(t, size, cls, flow, src)
            q.schedule(t, lambda link=links[link], pkt=pkt: link.send(pkt))
        q.run_all()
        record = metrics_snapshot(metrics, q.now)
        assert sum(c["offered_pkts"] for c in record.links.values()) == len(traffic)
        for view in (record.by_class, record.by_flow):
            sums = {}
            for (link, _), c in view.items():
                total = sums.setdefault(link, dict.fromkeys(c, 0))
                for field, value in c.items():
                    total[field] += value
            assert sums == record.links
        src_bits = {}
        for (link, _, _), bits in record.offered_bits_by_src.items():
            src_bits[link] = src_bits.get(link, 0) + bits
        assert src_bits == {link: c["offered_bits"] for link, c in record.links.items()}


class TestLatencyStats:
    @settings(max_examples=200)
    @given(samples=st.lists(st.integers(0, 50) | st.integers(0, 10**9), min_size=1))
    def test_count_table_equals_sorted_list_statistics(self, samples):
        s = sorted(samples)

        def nearest_rank(q):
            return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]

        stats = LatencyStats.from_counts(dict(Counter(samples)))
        assert stats == LatencyStats(
            count=len(s),
            mean_us=sum(s) / len(s),
            p50_us=nearest_rank(50),
            p95_us=nearest_rank(95),
            p99_us=nearest_rank(99),
            max_us=s[-1],
        )


def fifo_oracle(arrivals, sizes, rate_bps, overhead, proc_delay_us):
    """Closed-form delivery times for a single FIFO rate server."""
    dep = 0
    out = []
    for arr, size in zip(arrivals, sizes):
        wire = (size + overhead) * 8
        dep = max(arr, dep) + tx_time_us(wire, rate_bps)
        out.append(dep + proc_delay_us)
    return out


@st.composite
def traces(draw):
    n = draw(st.integers(1, 60))
    gaps = draw(st.lists(st.integers(0, 400), min_size=n, max_size=n))
    arrivals = []
    t = 0
    for g in gaps:
        t += g
        arrivals.append(t)
    sizes = draw(st.lists(st.integers(2, 1492), min_size=n, max_size=n))
    return arrivals, sizes


class TestOracleEquivalence:
    def _simulate(self, arrivals, sizes, rate_bps, proc_rate_pps,
                  buffer_bits=10**9):
        q = EventQueue()
        metrics = Metrics()
        params = WlanParams(data_rate_bps=rate_bps, proc_rate_pps=proc_rate_pps,
                            buffer_bits=buffer_bits)
        link = build_wlan_link(q, params, metrics)
        delivered = []
        for arr, size in zip(arrivals, sizes):
            q.schedule(arr, lambda a=arr, s=size: link.send(
                Packet(a, s), on_deliver=lambda p: delivered.append(q.now)))
        q.run_all()
        return delivered

    def test_bursty_trace_matches_oracle_exactly(self):
        arrivals = [0, 0, 0, 5, 5, 1000, 1001, 1002, 50_000] + list(range(60_000, 160_000, 101))
        sizes = [(37 * i) % 1400 + 2 for i in range(len(arrivals))]
        assert len(arrivals) <= 1000
        got = self._simulate(arrivals, sizes, 6_000_000, 5_000)
        want = fifo_oracle(arrivals, sizes, 6_000_000, 90, 200)
        assert got == want

    @settings(max_examples=60)
    @given(trace=traces(), rate=st.sampled_from([6, 18, 36, 54]),
           proc=st.sampled_from([5_000, 10_000, 20_000]))
    def test_random_traces_match_oracle_exactly(self, trace, rate, proc):
        arrivals, sizes = trace
        got = self._simulate(arrivals, sizes, rate * 1_000_000, proc)
        want = fifo_oracle(arrivals, sizes, rate * 1_000_000, 90, 1_000_000 // proc)
        assert got == want

    @settings(max_examples=30)
    @given(trace=traces())
    def test_latency_monotone_in_data_rate(self, trace):
        arrivals, sizes = trace
        totals = []
        for rate in (6, 18, 36, 54):
            deliveries = fifo_oracle(arrivals, sizes, rate * 1_000_000, 90, 100)
            totals.append(sum(d - a for d, a in zip(deliveries, arrivals)))
        assert totals == sorted(totals, reverse=True)

    @settings(max_examples=30)
    @given(trace=traces())
    def test_latency_monotone_in_processing_rate(self, trace):
        arrivals, sizes = trace
        totals = []
        for proc in (5_000, 10_000, 20_000):
            got = self._simulate(arrivals, sizes, 54_000_000, proc)
            totals.append(sum(d - a for d, a in zip(got, arrivals)))
        assert totals == sorted(totals, reverse=True)
