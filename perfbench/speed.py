"""Host-speed probe: end-to-end times are reported at a fixed reference speed.

The benchmark shares a few cores of a host with other tenants, and the
speed of those cores swings by up to 50% for seconds to minutes at a time.
The swings show in user CPU time as much as in wall time, and no steal
time is reported, so neither clock alone can remove them. A fixed probe,
benchmark code that calls nothing in ``saldet``, is timed right before and
right after every timed call. The call's wall time is scaled by
``PROBE_REF_S`` over the mean of those two probes: it is reported as the
time the call would take on a host where the probe takes ``PROBE_REF_S``.
A change to ``saldet`` cannot change the probe, so it moves the scaled
times exactly as it moves the wall times at a steady host speed.

The probe mixes the three kinds of work the workloads do: numpy calls on
small arrays, pure-Python loops over dicts, and one pass over a 256x256
grid. On the 2-core Xeon at 2.1 GHz the benchmark was tuned on it took
between about 1.8 and 3.5 ms as the host's speed swung.
"""

import statistics
import time

import numpy as np

PROBE_REF_S = 0.0025
PROBE_REPEATS = 3

_RNG = np.random.default_rng(0)
_X = _RNG.normal(size=(7, 16))
_W = _RNG.normal(size=(16, 64))
_GRID = _RNG.normal(size=(256, 256))
_LABELS = (np.arange(256 * 256) % 1024).reshape(256, 256)


def _kernel() -> float:
    acc = 0.0
    for i in range(200):
        h = np.maximum(_X @ _W, 0.0)
        acc += float(h.sum(axis=0)[i % 64])
    table = {}
    for i in range(5000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
    acc += sum(table.values())
    sums = np.bincount(_LABELS.ravel(), weights=_GRID.ravel(), minlength=1024)
    return acc + float(sums[3])


def probe() -> float:
    """Median wall time of a few probe kernels, in seconds.

    One untimed kernel first brings the probe's arrays back into the CPU
    caches, which the timed call before it may have evicted.
    """
    _kernel()
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Clock:
    """Wall clock whose readings are scaled to the reference host speed.

    The time between two probes is one segment, scaled by the mean speed
    of the probes at its ends; probe time itself is in no segment.
    ``raw`` and ``scaled`` are the running totals of all segments.
    """

    def __init__(self):
        probe()  # warm-up: first-call costs are not host speed
        self._last_probe = probe()
        self._last_end = time.perf_counter()
        self.raw = 0.0
        self.scaled = 0.0

    def _advance(self, now: float) -> float:
        """Close the segment ending at ``now``; returns its scale factor."""
        p = probe()
        factor = 2.0 * PROBE_REF_S / (self._last_probe + p)
        self.raw += now - self._last_end
        self.scaled += (now - self._last_end) * factor
        self._last_probe = p
        self._last_end = time.perf_counter()
        return factor

    def mark(self) -> tuple[float, float]:
        """Close the current segment; returns the (raw, scaled) totals."""
        self._advance(time.perf_counter())
        return self.raw, self.scaled

    def timed(self, fn, *args, **kwargs):
        """Call ``fn``; returns (its result, its wall time scaled)."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        end = time.perf_counter()
        return result, (end - start) * self._advance(end)
