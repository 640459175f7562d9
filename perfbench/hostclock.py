"""Host-speed calibration: every reported host time is scaled by a probe.

The benchmark runs on a few cores of a shared host.  Other tenants move
the speed of those cores by up to 1.8x, in phases of a few seconds to a
few minutes, and neither steal time nor the process's CPU time shows it
(both read as if the process had the core to itself).  A run's raw
timings are therefore mostly those of the phases it happened to fall in.

So the benchmark times a fixed reference loop, :func:`probe`, right
before and right after each timed piece of work (a lap of a policy run,
a chunk of serve ops, a set-up), and scales the piece's host seconds by
``REFERENCE_S / probe``, with ``probe`` the mean of the two probes that
bracket it.  A scaled time reads as the time the piece would take on a
host where the probe takes :data:`REFERENCE_S`.  A policy run lasts up
to two seconds, longer than some of the host's phases, so it is cut
into laps of :data:`LAP_S` through its progress hook (:class:`Laps`).
The probe mixes the two kinds of work the program does: Python dict
updates and a numpy sort.  Both the parent and a change are scaled by the same probe, so a
change to the program moves its scaled times as it moves its raw ones.
"""

from __future__ import annotations

import statistics
from array import array
from time import perf_counter
from typing import List, Tuple

import numpy as np

#: The probe's seconds at the reference speed: a round figure within
#: its usual times on the 2-core x86-64 host the benchmark was built on
#: (medians of 21-35 ms per run, as the host's speed moved).
REFERENCE_S = 0.025

#: Seconds of work between two probes inside a policy run.
LAP_S = 0.2

#: Kept small (400 KB here, a 4096-key dict in the loop) so that the
#: probe adds little to the process's peak RSS, an end-to-end metric.
_VALUES = np.random.default_rng(0).integers(0, 1 << 30, 50_000)


def probe() -> float:
    """Seconds one pass of the reference loop takes now."""
    started = perf_counter()
    counts: dict = {}
    for i in range(80_000):
        key = i * 40503 & 0xFFF
        counts[key] = counts.get(key, 0) + 1
    np.unique(_VALUES % 100_003)
    return perf_counter() - started


class HostClock:
    """Scales for pieces of work timed one after another.

    Probes once when made; each :meth:`scale` probes again and returns
    the scale for the piece timed since the previous probe.
    """

    def __init__(self) -> None:
        self.probes: List[float] = [probe()]

    def scale(self) -> float:
        self.probes.append(probe())
        return REFERENCE_S / ((self.probes[-2] + self.probes[-1]) / 2)

    def median_probe(self) -> float:
        return statistics.median(self.probes)


class Laps:
    """Scaled seconds of one piece of work that reports progress as it runs.

    Pass it as the piece's progress hook.  A call at least :data:`LAP_S`
    after the lap began ends the lap, probes the host and begins the next
    lap; the probe's own time is left out.  With ``stamps`` every call
    also records the time, for the per-call intervals.
    """

    def __init__(self, host: HostClock, stamps: bool = False) -> None:
        self.host = host
        self.seconds = 0.0
        self.stamps = array("d") if stamps else None
        #: (stamps recorded, probe seconds, scale) at each lap's end.
        self._marks: List[Tuple[int, float, float]] = []
        self._lap = perf_counter()

    def __call__(self, *progress) -> None:
        now = perf_counter()
        if self.stamps is not None:
            self.stamps.append(now)
        if now - self._lap >= LAP_S:
            self._end_lap(now)

    def _end_lap(self, now: float) -> None:
        scale = self.host.scale()
        self.seconds += (now - self._lap) * scale
        self._lap = perf_counter()
        stamped = len(self.stamps) if self.stamps is not None else 0
        self._marks.append((stamped, self._lap - now, scale))

    def stop(self) -> float:
        """End the last lap; the piece's scaled seconds."""
        self._end_lap(perf_counter())
        return self.seconds

    def intervals(self) -> np.ndarray:
        """Scaled seconds between consecutive stamps, probes left out.

        Interval ``i`` runs from stamp ``i`` to stamp ``i + 1`` and takes
        the scale of the lap that stamp ``i + 1`` fell in.  Call after
        :meth:`stop`.
        """
        gaps = np.diff(np.frombuffer(self.stamps, dtype=np.float64))
        ends = np.array([mark[0] for mark in self._marks], dtype=np.int64)
        pauses = np.array([mark[1] for mark in self._marks])
        scales = np.array([mark[2] for mark in self._marks])
        # A lap that ended at stamp k - 1 probed before stamp k.
        inside = ends <= len(gaps)
        gaps[ends[inside] - 1] -= pauses[inside]
        return gaps * np.repeat(scales, np.diff(ends, prepend=0))[1:]
