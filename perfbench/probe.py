"""The host's momentary speed, sampled while an execution runs.

On a shared host the speed of one core swings by up to 2x, in spells that
last from under a second to minutes, so the same execution can take 0.6 s in
one minute and 1.0 s in the next.  No statistic over the executions of one
run removes that when a spell outlasts the run.  So while an execution runs,
a timer interrupts it every INTERVAL_S seconds and times one of three small
fixed kernels, each written in the style of one of the package's hot loops:

- ``poly``: a polynomial product reduced mod p in a Python loop (polyverify);
- ``dot``: truncated dot products with ``sum(map(mul, ...))`` (qseries);
- ``obj``: arithmetic on small objects in F_ell^2, and ``pow`` mod ell
  (ffield and galrep).

``REFERENCE_S`` holds each kernel's duration on a fast spell of the host the
benchmark was defined on.  The mean of reference / measured over an
execution's samples is the share of that speed it ran at, and the
execution's own time (samples excluded) times that share is its time at the
reference speed.  The kernels never call thetatwist, so a change to the
package changes the time but not the yardstick.
"""

import signal
import time
from operator import mul

INTERVAL_S = 0.01

_MOD = 691
_POLY = [(i * 7919 + 13) % 1000003 for i in range(40)]
_DOT = [(i * 7919 + 13) % _MOD for i in range(120)]
_DOT_REVERSED = _DOT[::-1]


def _poly():
    out = [0] * (2 * len(_POLY) - 1)
    for i, x in enumerate(_POLY):
        for j, y in enumerate(_POLY):
            out[i + j] = (out[i + j] + x * y) % 1000003
    return out


def _dot():
    n = len(_DOT)
    return [sum(map(mul, _DOT[: k + 1], _DOT_REVERSED[n - 1 - k :])) % _MOD for k in range(n)]


class _Quad:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a % _MOD, b % _MOD, c

    def __mul__(self, other):
        return _Quad(self.a * other.a + self.c * self.b * other.b, self.a * other.b + self.b * other.a, self.c)


def _obj():
    x, y = _Quad(3, 5, 2), _Quad(1, 0, 2)
    for _ in range(300):
        y = y * x
    return y.a, [pow(i, 345, _MOD) for i in range(1, 100)]


KERNELS = (("poly", _poly), ("dot", _dot), ("obj", _obj))

#: seconds per sampled kernel call on a fast spell (the lowest tenth of
#: four minutes of samples) of a 2-core Xeon VM, CPython 3.11.7
REFERENCE_S = {"poly": 0.000183, "dot": 0.000393, "obj": 0.000212}


class SpeedProbe:
    """Samples the kernels in turn on SIGALRM between start() and stop()."""

    def __init__(self):
        self.ratios = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # so that the samples bracket the execution

    def _sample(self, signum=None, frame=None):
        if self._busy:  # the timer fired again while a preempted kernel ran
            return
        self._busy = True
        name, kernel = KERNELS[len(self.ratios) % len(KERNELS)]
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.spent += elapsed
        self.ratios.append(REFERENCE_S[name] / elapsed)
        self._busy = False

    def speed(self):
        """Mean share of the reference speed over the samples."""
        return sum(self.ratios) / len(self.ratios)
