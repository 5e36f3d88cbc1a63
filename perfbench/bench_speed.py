"""Machine-speed probe: timings scaled to a fixed reference speed.

The benchmark runs on shared hosts whose speed drifts by tens of
percent over seconds and minutes, as other tenants load the same cores
and caches.  Raw times of the same code then differ more between runs
than the changes they should detect.  The probe is a fixed pure-Python
loop that does not touch burstcover; at the reference speed it takes
PROBE_REF_NS.  The worker runs it before and after set-up and, during
the timed pass, between queries at most every PROBE_EVERY_NS, outside
every query's timing.  Set-up is scaled by PROBE_REF_NS over the mean of
its two probes, and a query by PROBE_REF_NS over the median of the
PROBE_WINDOW probes nearest it on each side: a single probe is noisier
than the drift it tracks, and a query longer than the probe interval
runs through more than one.  A change to burstcover moves the scaled
times in full, while drift of the machine, which slows the probe and the
program alike, cancels.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

PROBE_REF_NS = 1_000_000   # the probe's time at the reference speed
PROBE_EVERY_NS = 50_000_000
PROBE_STEPS = 5_000
PROBE_REPEATS = 3
PROBE_WINDOW = 2


def _probe_loop(steps: int) -> int:
    """Shift-register steps marking a small table: interpreter-bound work."""
    seen = bytearray(1 << 12)
    f, hits = 1, 0
    for _ in range(steps):
        f <<= 1
        if f & 0x10000:
            f ^= 0x1100B
        i = f & 0xFFF
        hits += seen[i]
        seen[i] = 1
    return hits


def probe_ns() -> int:
    """Best of PROBE_REPEATS timings of the probe loop, in ns."""
    best = None
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter_ns()
        _probe_loop(PROBE_STEPS)
        dt = perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return best


def scale(before_ns: int, after_ns: int) -> float:
    """Factor from raw time to reference time, given the bracketing probes."""
    return 2 * PROBE_REF_NS / (before_ns + after_ns)


class ProbedLatencies(list):
    """Query latencies (ns) that probe the machine's speed as they are appended.

    An append that comes PROBE_EVERY_NS or more after the last probe runs
    a new probe; the query was timed before the append, so the probe falls
    between queries.  scaled() gives every latency in reference ns.
    """

    def __init__(self):
        super().__init__()
        self.probes = [(0, probe_ns())]  # (latencies before the probe, probe ns)
        self._last_ns = perf_counter_ns()

    def append(self, ns: int) -> None:
        super().append(ns)
        if perf_counter_ns() - self._last_ns >= PROBE_EVERY_NS:
            self.probe()

    def probe(self) -> None:
        self.probes.append((len(self), probe_ns()))
        self._last_ns = perf_counter_ns()

    def scaled(self) -> list[float]:
        if self.probes[-1][0] != len(self):
            self.probe()
        probe_times = [p for _, p in self.probes]
        out: list[float] = []
        # segment j holds the latencies between probes j and j + 1
        for j, ((i0, _), (i1, _)) in enumerate(zip(self.probes, self.probes[1:])):
            near = probe_times[max(0, j + 1 - PROBE_WINDOW):j + 1 + PROBE_WINDOW]
            f = PROBE_REF_NS / statistics.median(near)
            out.extend(ns * f for ns in self[i0:i1])
        return out

    def speed(self) -> float:
        """Mean speed over the pass, as reference probe time over probe time."""
        return sum(PROBE_REF_NS / p for _, p in self.probes) / len(self.probes)
