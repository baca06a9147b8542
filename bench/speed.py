"""Scaling measured times to a reference machine speed.

The machine this benchmark runs on is shared: the speed of its CPUs
changes by up to 1.7x within seconds, and a whole 20-second run can
land in a slow stretch, so raw wall and CPU times spread by 15-20%
between runs.  Each measured time is therefore rescaled by a fixed
probe of the same kind of work, timed close to it, to "seconds at the
reference speed".  The probes belong to the benchmark, not to
copoly2d, so a change to the library moves the scaled time and not the
probe.

- Passes: a pure-Python kernel of exact rational arithmetic, the kind
  of work the library does, is timed every 0.1 s from a SIGALRM
  handler; its mean speed over the pass scales the pass, where the
  kernel takes K_REF seconds at the reference speed.
- Interpreter set-up: process start, imports and page faults slow down
  less than arithmetic does, so a set-up run is scaled instead by bare
  interpreter starts (`python -c pass`) just before and after it, which
  take BARE_REF seconds at the reference speed.
"""
from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# Probe seconds at the reference speed: about their times on an idle
# 2.1 GHz Intel Xeon core under CPython 3.11, so that scaled times read
# close to that machine's unloaded wall times.
K_REF = 0.00065
BARE_REF = 0.038
INTERVAL = 0.1


def kernel() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    return acc


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def bare_start_seconds(env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - t0


class Sampler:
    """Times the kernel every INTERVAL seconds of wall time while active."""

    def __init__(self):
        self.samples: list = []

    def _tick(self, signum, frame):
        self.samples.append(kernel_seconds())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def factor(self) -> float:
        """K_REF times the mean kernel speed: reference seconds per second."""
        samples = self.samples or [kernel_seconds()]
        return K_REF * statistics.fmean(1 / k for k in samples)

    def spent(self) -> float:
        """Seconds the sampled kernels themselves took."""
        return sum(self.samples)
