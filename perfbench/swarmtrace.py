"""Span tracer for the traced benchmark pass.

Spans are recorded from the benchmark's side of each layer boundary: while
``Tracer.installed()`` is active, the public entry points the runner calls
into (``Link.send``, ``Metrics.offered/dropped/delivered``, the runner's
imported ``advance_kinematics``, ``fragment_payload`` and
``metrics_snapshot``, the failure functions it calls through the module,
and the energy ledger) are replaced by wrappers that open and close a span.
Every callback handed to ``EventQueue.schedule`` is wrapped the same way,
so each dispatched event is a ``queue.callback`` span under the
``queue.loop`` span of ``run_until``/``run_all``. The link's service
completion (``Link._finish``) has no public entry point and is wrapped
directly.

Spans are kept in flat arrays (name, parent, start, end) for the whole
pass and reduced afterwards; a span's self time is its duration minus the
durations of its direct children.
"""
from __future__ import annotations

import contextlib
from array import array
from time import perf_counter

from swarmsim import failure, netsim, runner

SPANS = (
    "config.parse",
    "runner.build",
    "queue.loop",
    "queue.callback",
    "link.send",
    "link.finish",
    "metrics",
    "netsim.snapshot",
    "protocol.fragment",
    "swarm.kinematics",
    "failure",
    "energy.ledger",
    "runner.emit_csv",
    "runner.emit_report",
)
SPAN_ID = {name: i for i, name in enumerate(SPANS)}

# failure-layer functions the runner calls through ``failure_mod.<name>``
FAILURE_ENTRIES = ("predict_failure", "soft_handover", "hard_handover",
                   "detect_ld_loss", "isolate_drone", "reallocate_tasks")

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracer for untraced passes: every span is a no-op."""

    scheduled = 0
    peak_pending = 0

    def begin_mission(self) -> None:
        pass

    def span(self, name: str):
        return _NULL


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters (call between passes)."""
        self._name = array("B")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._cur = -1
        self.send_calls: dict[str, int] = {}
        self.finish_calls: dict[str, int] = {}
        self.begin_mission()

    def begin_mission(self) -> None:
        """Restart the per-mission queue counters."""
        self.scheduled = 0
        self.dispatched = 0
        self.peak_pending = 0

    # -- recording ---------------------------------------------------------

    def open(self, nid: int) -> int:
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._cur)
        self._end.append(0.0)
        self._cur = idx
        self._start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self._end[idx] = perf_counter()
        self._cur = self._parent[idx]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(SPAN_ID[name])
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, name: str, fn):
        nid = SPAN_ID[name]

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def _wrap_link(self, name: str, fn, counts: dict[str, int]):
        nid = SPAN_ID[name]

        def traced(link, *args, **kwargs):
            counts[link.name] = counts.get(link.name, 0) + 1
            idx = self.open(nid)
            try:
                return fn(link, *args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def _wrap_schedule(self, schedule):
        nid = SPAN_ID["queue.callback"]

        def traced_schedule(queue, t, fn):
            def callback():
                self.dispatched += 1
                idx = self.open(nid)
                try:
                    fn()
                finally:
                    self.close(idx)
            schedule(queue, t, callback)
            self.scheduled += 1
            pending = self.scheduled - self.dispatched
            if pending > self.peak_pending:
                self.peak_pending = pending
        return traced_schedule

    @contextlib.contextmanager
    def installed(self):
        """Patch the layer entry points for the duration of the block."""
        Link, Metrics = netsim.Link, netsim.Metrics
        patches = [
            (netsim.EventQueue, "schedule",
             self._wrap_schedule(netsim.EventQueue.__dict__["schedule"])),
            (Link, "send", self._wrap_link("link.send", Link.__dict__["send"],
                                           self.send_calls)),
            (Link, "_finish", self._wrap_link("link.finish", Link.__dict__["_finish"],
                                              self.finish_calls)),
            (runner._Mission, "_energy_ledger",
             self._wrap("energy.ledger", runner._Mission.__dict__["_energy_ledger"])),
            (runner, "advance_kinematics",
             self._wrap("swarm.kinematics", runner.advance_kinematics)),
            (runner, "fragment_payload",
             self._wrap("protocol.fragment", runner.fragment_payload)),
            (runner, "metrics_snapshot",
             self._wrap("netsim.snapshot", runner.metrics_snapshot)),
        ]
        for method in ("offered", "dropped", "delivered"):
            patches.append((Metrics, method, self._wrap("metrics", Metrics.__dict__[method])))
        for entry in FAILURE_ENTRIES:
            patches.append((failure, entry, self._wrap("failure", getattr(failure, entry))))

        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, summed duration and summed self time."""
        n = len(SPANS)
        count = [0] * n
        total = [0.0] * n
        own = [0.0] * n
        names, parents = self._name, self._parent
        for i, (start, end) in enumerate(zip(self._start, self._end)):
            d = end - start
            nid = names[i]
            count[nid] += 1
            total[nid] += d
            own[nid] += d
            p = parents[i]
            if p >= 0:
                own[names[p]] -= d
        return {name: {"count": count[i], "total_s": total[i], "self_s": own[i]}
                for i, name in enumerate(SPANS)}
