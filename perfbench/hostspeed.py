"""Host speed gauge: a fixed pure-Python kernel, timed while missions run.

On a shared host the same work can take twice as long in slow phases that
last from seconds to minutes, longer than a pass. The gauge runs a short
slice of a fixed kernel every ``EVERY_S`` of CPU time, between the
benchmark's timed segments, and times it. The kernel is a small event
loop of the simulator's kind: a heap of timestamped closures, each of
which builds a frozen dataclass, updates dict counters through a method
call, appends a sample and schedules itself again. It uses no swarmsim
code, so a change to the simulator does not move it.

A mission's slowdown is the kernel's CPU time per step during that mission
over ``REF_STEP_S``; the mission's CPU time divided by its slowdown reads as
CPU seconds on a host that runs the kernel at ``REF_STEP_S`` per step.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from time import process_time as clock

STEPS = 150            # kernel steps per sample (0.4-0.8 ms)
EVERY_S = 0.02         # CPU seconds between samples
# kernel CPU seconds per step in the fast phases of the 2-core Xeon host
# (Python 3.11.7) the benchmark was tuned on
REF_STEP_S = 2.7e-6
FLOWS = 256


@dataclass(frozen=True)
class _Packet:
    created_at: int
    size: int
    kind: str


class _Counter:
    def __init__(self):
        self.totals: dict[tuple[str, int], int] = {}

    def add(self, key: tuple[str, int], n: int) -> None:
        totals = self.totals
        totals[key] = totals.get(key, 0) + n


class Gauge:
    """Samples the kernel's speed; ``kernel_s`` and ``steps`` accumulate."""

    def __init__(self):
        self._rng = random.Random(12345)
        self._heap: list = []
        self._tie = 0
        self._now = 0
        self._counter = _Counter()
        self._latency: list[int] = []
        for flow in range(FLOWS):
            self._schedule(flow * 10, self._flow(flow))
        self._due = 0.0
        self.kernel_s = 0.0
        self.steps = 0

    def _schedule(self, t: int, fn) -> None:
        heapq.heappush(self._heap, (t, self._tie, fn))
        self._tie += 1

    def _flow(self, flow: int):
        kind = "video" if flow & 1 else "control"

        def send():
            packet = _Packet(self._now, 100 + flow, kind)
            self._counter.add((packet.kind, flow & 7), packet.size)
            self._latency.append(self._now - packet.created_at + packet.size)
            if len(self._latency) > 512:
                self._latency.clear()
            self._schedule(self._now + 1 + int(self._rng.expovariate(0.01)), send)
        return send

    def sample(self, force: bool = False) -> None:
        """Run and time one slice of the kernel if one is due (or ``force``)."""
        t0 = clock()
        if not force and t0 < self._due:
            return
        heap, pop = self._heap, heapq.heappop
        for _ in range(STEPS):
            self._now, _, fn = pop(heap)
            fn()
        t1 = clock()
        self.kernel_s += t1 - t0
        self.steps += STEPS
        self._due = t1 + EVERY_S


class NullGauge:
    """Gauge that never samples: times stay unscaled."""

    kernel_s = 0.0
    steps = 0

    def sample(self, force: bool = False) -> None:
        pass
