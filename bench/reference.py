"""A fixed pure-Python reference kernel, timed between slices of trials to
take the host's speed out of the timings.

The benchmark runs on shared virtual CPUs whose speed drifts by a third or
more for seconds to minutes at a time, and CPU time drifts with wall time.
A trial's CPU time divided by the kernel's time, measured in the same
process a fraction of a second apart, does not drift.  The timing metrics
therefore report each trial with its CPU part rescaled to a nominal machine
on which one kernel call takes NOMINAL_S; time spent waiting (on a socket,
a timer) is kept as measured.

The kernel uses nothing from hamsync, so no change to the program moves it.
Do not change it: every normalised figure is relative to it.
"""

from __future__ import annotations

from time import perf_counter

NOMINAL_S = 1e-3  # one kernel call on the nominal machine
CALLS = 5  # calls per measurement between slices; the median is kept

# GF(2^8) log/exp tables for the polynomial 0x11d
_EXP = [0] * 510
_LOG = [0] * 256
_x = 1
for _i in range(255):
    _EXP[_i] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= 0x11D
_EXP[255:] = _EXP[:255]
_COEFFS = tuple((i * 37 + 11) & 0xFF for i in range(64))


def _mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def kernel() -> int:
    """Horner evaluation of a fixed polynomial at 95 points, with a dict
    tally: table lookups, small-int arithmetic, calls and hashing, the
    interpreter work hamsync's trials are made of."""
    acc = 0
    seen: dict[int, int] = {}
    for point in range(1, 96):
        value = 0
        for c in _COEFFS:
            value = _mul(value, point) ^ c
        seen[value] = seen.get(value, 0) + 1
        acc ^= value << (point & 7)
    return acc ^ len(seen)


def kernel_seconds(calls: int = CALLS) -> float:
    """Median time of a number of kernel calls."""
    times = []
    for _ in range(calls):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    times.sort()
    return times[calls // 2]


def normalise(wall: float, cpu: float, ref: float) -> float:
    """A trial's time on the nominal machine: its CPU part (at most its wall
    time) scaled by NOMINAL_S / ref, plus the rest of its wall time."""
    cpu = min(cpu, wall)
    return wall - cpu + cpu * NOMINAL_S / ref
