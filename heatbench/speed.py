"""How fast the machine runs right now, from a fixed reference probe.

On a shared host the speed of one core drifts by 1.5x to 2x in phases of
seconds to minutes, and a 30 s run cannot average that out.  The worker
therefore runs ``probe`` (fixed work that uses nothing from the package)
every PROBE_EVERY_S seconds between ops, and gives every time at the speed
at which one probe takes PROBE_REF_S: an op's CPU time is multiplied by
PROBE_REF_S over the median of the probes around it.  A change to the
package cannot change the probe, so a gain still shows in full.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np
from scipy import integrate, special

#: normalised times are at the speed where one probe takes this long (about
#: the median on the machine the notes' numbers come from)
PROBE_REF_S = 1.2e-3
#: the worker probes between ops once this much wall time has passed
PROBE_EVERY_S = 0.2
#: probes on each side of an op whose median sets the op's speed
WINDOW = 5

_RNG = np.random.default_rng(0)
_XS = np.linspace(0.1, 10.0, 2400)


def _loop():
    acc = 0.0
    for i in range(1, 1300):
        acc += math.log(i) / i


def _quad():
    for k in range(6):
        integrate.quad(lambda x, k=k: math.exp(-x * x) * math.cos(3.0 * x + k), 0.0, 8.0)


def _special():
    special.gammaln(_XS)
    special.kv(1.5, _XS)


def _paths():
    for _ in range(6):
        np.cumsum(_RNG.standard_normal((449, 3)), axis=0).sum(axis=1)


#: the styles of work the workloads' ops do, one part each: a Python loop,
#: adaptive quadrature over a Python integrand, scipy special functions
#: over an array, numpy random paths.  A shared host slows these styles by
#: different amounts; their mix tracks all three workloads.
PARTS = (_loop, _quad, _special, _paths)


def probe() -> float:
    """CPU seconds of one run of the fixed work PARTS."""
    t = time.process_time()
    for part in PARTS:
        part()
    return time.process_time() - t


class SpeedLog:
    """Probe times by the wall time they were taken at."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []

    def record(self, at: float, duration: float) -> None:
        self.times.append(at)
        self.durations.append(duration)

    def probe_now(self) -> None:
        self.record(time.perf_counter(), probe())

    def maybe_probe(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.probe_now()

    def scale(self, at: float) -> float:
        """Factor that takes a CPU time measured at wall time ``at`` to the
        reference speed: PROBE_REF_S over the median of the WINDOW probes
        on each side of ``at``."""
        i = bisect.bisect(self.times, at)
        return PROBE_REF_S / statistics.median(self.durations[max(0, i - WINDOW): i + WINDOW])
