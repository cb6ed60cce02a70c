"""Host speed, sampled while each timed span runs.

The host this benchmark was tuned on (a 2-vCPU VM) switches between speed
levels up to 2x apart, several times a second and for whole seconds at a
time, so raw wall times of two 28-second runs of the same code can differ
by as much as the bounds allow.  :func:`timed` therefore also measures the
host's speed during the span: a fixed stdlib-only ``Fraction`` loop that
runs no bellpoly code is timed three times before the span, three times
after it, and every SAMPLE_INTERVAL_S during it (from a SIGALRM handler,
so no thread is started).  The normalised time is the span's wall time
scaled to a host on which that loop takes REFERENCE_PROBE_MS: a program
that does more work reads slower by the same factor on any host.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PROBE_ROUNDS = 20  # rounds of the Fraction loop in one probe
SAMPLE_INTERVAL_S = 0.01  # probes during a span, one per interval
ENDPOINT_PROBES = 3  # probes right before and right after a span
# About the median probe time on the host the benchmark was tuned on, so
# that normalised times read close to wall times there.
REFERENCE_PROBE_MS = 0.12


def fraction_loop_ms(rounds: int) -> float:
    """Milliseconds for ``rounds`` rounds of a fixed ``Fraction`` loop."""
    start = time.perf_counter_ns()
    total = Fraction(0)
    for i in range(rounds):
        total += Fraction(i % 13, 17) * Fraction(i % 7 + 1, 19)
    return (time.perf_counter_ns() - start) / 1e6


def probe_ms() -> float:
    """One speed sample: the median of three short loops, so that a loop
    interrupted by the scheduler does not count."""
    return statistics.median(fraction_loop_ms(PROBE_ROUNDS) for _ in range(3))


def calibrate() -> float:
    """Milliseconds for 10,000 rounds of the loop (median of 3), recorded
    beside the metrics to show host drift between runs."""
    return statistics.median(fraction_loop_ms(10_000) for _ in range(3))


def timed(fn):
    """Run ``fn()``; returns (its result, wall seconds, normalised seconds).

    The wall time leaves out the probes taken during the span.  Any
    exception from ``fn`` propagates after the sampling has stopped.
    """
    probes = [probe_ms() for _ in range(ENDPOINT_PROBES)]
    spent_ns = 0

    def sample(signum, frame):
        nonlocal spent_ns
        start = time.perf_counter_ns()
        probes.append(probe_ms())
        spent_ns += time.perf_counter_ns() - start

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    start = time.perf_counter_ns()
    try:
        result = fn()
    finally:
        elapsed_ns = time.perf_counter_ns() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    probes.extend(probe_ms() for _ in range(ENDPOINT_PROBES))
    wall = (elapsed_ns - spent_ns) / 1e9
    return result, wall, wall * REFERENCE_PROBE_MS / statistics.mean(probes)
