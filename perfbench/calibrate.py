"""The machine's speed at the moment, from a fixed pure-Python kernel.

The benchmark's host is shared: the same op can take 1.7 times as long a
minute later, in CPU time as in wall time, with no steal time to show for
it.  So every op's time is scaled to a reference speed by the time of this
kernel, measured as close to the op as can be (see NOTES.md):

- an op that runs in this process is interrupted every SAMPLE_INTERVAL_S
  to time one rep, and the time the reps took is taken off the op's time;
- an op that runs in another process is bracketed by reps just before and
  just after it.

Set-up, a fresh process start, tracks this kernel less well; run.py scales
it by a reference process start instead.

The kernel does the kind of work fibhess does -- frozen-dataclass Gaussian
integers with 300-bit parts, multiplied and summed into a dict term map --
but none of fibhess's code, so no change to the program moves it.  It runs
with the garbage collector off, so the size of the caller's heap does not
move it either.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from dataclasses import dataclass

clock = time.perf_counter
# Seconds one rep takes at the reference speed.  The reps take about this
# long on the 2-vCPU Xeon the bounds were set on, in its usual state.
REFERENCE_REP_S = 0.0025
SAMPLE_INTERVAL_S = 0.02


@dataclass(frozen=True)
class _Gauss:
    re: int
    im: int

    def __mul__(self, other: "_Gauss") -> "_Gauss":
        return _Gauss(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)

    def __add__(self, other: "_Gauss") -> "_Gauss":
        return _Gauss(self.re + other.re, self.im + other.im)


_FACTOR = {(i, j): _Gauss(3 ** (150 + i + j) + i, j - i) for i in range(7) for j in range(4)}


def kernel() -> int:
    """One rep: the product of a 28-term polynomial with itself."""
    out: dict = {}
    for (i1, j1), c1 in _FACTOR.items():
        for (i2, j2), c2 in _FACTOR.items():
            key = (i1 + i2, j1 + j2)
            v = c1 * c2
            old = out.get(key)
            out[key] = v if old is None else old + v
    return len(out)


def _rep() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        kernel()
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def reps(seconds: float) -> list[float]:
    """Time reps, at least one, until they have taken ``seconds``."""
    samples = [_rep()]
    total = samples[0]
    while total < seconds:
        samples.append(_rep())
        total += samples[-1]
    return samples


class Sampler:
    """Runs a function while SIGALRM times one rep every SAMPLE_INTERVAL_S.

    After each call, ``reps`` holds the rep times and ``spent`` the seconds
    the handler took, which the caller takes off the call's wall time.  A
    call that ends before the first interrupt gets one rep just after it.
    """

    def __init__(self):
        self.reps: list[float] = []
        self.spent = 0.0

    def _on_alarm(self, signum, frame) -> None:
        start = clock()
        self.reps.append(_rep())
        self.spent += clock() - start

    def call(self, fn, *args):
        self.reps, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            return fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            if not self.reps:
                self.reps.append(_rep())


def around(windows: list[list[float]]) -> list[list[float]]:
    """For each of ``len(windows) - 1`` ops, the reps on both its sides,
    from windows timed before the first op and after every op."""
    return [windows[i] + windows[i + 1] for i in range(len(windows) - 1)]


def scaled(times: list[float], speeds: list[list[float]],
           reference: float = REFERENCE_REP_S) -> list[float]:
    """``times`` taken to the reference speed: each by the ``reference``
    rep time over the mean of the reps that ``speeds`` holds for it."""
    if len(speeds) != len(times):
        raise ValueError(f"{len(times)} times, {len(speeds)} sets of calibration reps")
    return [t * reference / statistics.fmean(r) for t, r in zip(times, speeds)]
