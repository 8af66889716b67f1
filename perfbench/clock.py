"""Pass timing, normalized for the speed of a shared machine.

On a shared two-vCPU KVM guest (Intel Xeon) the speed swings by up to 1.7x
within seconds as other tenants load the host, which moved raw pass times by
5-25% between runs of the same code.  So the clock times a fixed probe, which
calls no unitscan code, around every ``with`` block and at most
PROBE_INTERVAL_S apart inside long calls, and scales the pass's wall and
CPU time by PROBE_NOMINAL_S over the mean probe time.  A normalized second
is a second on a machine where the probe takes PROBE_NOMINAL_S.  Raw times
are kept alongside.
"""

from __future__ import annotations

import functools
import resource
from contextlib import contextmanager
from time import perf_counter

from tracing import ROOT, patched
from unitscan import cubic, heuristics, quadratic

PROBE_NOMINAL_S = 0.02
PROBE_INTERVAL_S = 0.5

# Calls into which a serial pass may place a probe: each runs for well under
# PROBE_INTERVAL_S, and long scans make many of them.
CHECKPOINTS = (
    (cubic, "_cubic_chunk"),
    (quadratic, "_quad_chunk"),
    (heuristics, "_wieferich_chunk"),
    (heuristics, "_count_injective"),
)


def probe() -> float:
    """Seconds taken by fixed samples of the work the scans do: interpreted
    integer arithmetic, the builtin modular pow, and a bytearray sieve."""
    t0 = perf_counter()
    x, m = 1234567, (2**31 - 1) ** 2
    for i in range(17_000):
        x = (x * x + i) % m
    for q in range(1_000_003, 1_030_003, 15):
        x ^= pow(2, q - 1, q * q)
    n = 70_000
    mark = bytearray([1]) * n
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        mark[q::q] = bytearray((n - q - 1) // q + 1)
    x += sum(1 for i in range(n) if mark[i])
    return perf_counter() - t0


def cpu_seconds() -> float:
    """User+sys CPU time of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Clock:
    """Wall and CPU time summed over the ``with`` blocks of one pass, raw and
    normalized.  With a tracer, each block is also a root span; the probes
    stay outside of it."""

    def __init__(self, tracer=None):
        self.raw_wall = self.raw_cpu = 0.0
        self.probes: list[float] = []
        self.tracer = tracer
        self._probe_end = None
        self._running = False

    @property
    def scale(self) -> float:
        return PROBE_NOMINAL_S * len(self.probes) / sum(self.probes)

    @property
    def wall(self) -> float:
        return self.raw_wall * self.scale

    @property
    def cpu(self) -> float:
        return self.raw_cpu * self.scale

    def _probe(self) -> None:
        self.probes.append(probe())
        self._probe_end = perf_counter()

    def _start(self) -> None:
        self._running = True
        self._cpu0 = cpu_seconds()
        self._t0 = perf_counter()

    def _stop(self) -> None:
        self._running = False
        self.raw_wall += perf_counter() - self._t0
        self.raw_cpu += cpu_seconds() - self._cpu0

    def __enter__(self):
        if self._probe_end is None or perf_counter() - self._probe_end > PROBE_INTERVAL_S:
            self._probe()
        if self.tracer:
            self.tracer.enter()
        self._start()

    def __exit__(self, *exc):
        self._stop()
        if self.tracer:
            self.tracer.exit(ROOT)
        self._probe()

    def checkpoint(self) -> None:
        """Pause for a probe once PROBE_INTERVAL_S of work has run without one."""
        if self._running and perf_counter() - self._probe_end >= PROBE_INTERVAL_S:
            self._stop()
            self._probe()
            self._start()


@contextmanager
def checkpoints(clock: Clock):
    """Let a serial pass probe between the CHECKPOINTS calls.  Never use it
    with a pool: forked workers would run the probes."""

    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            clock.checkpoint()
            return fn(*args, **kwargs)

        return wrapper

    with patched([(mod, attr, wrap) for mod, attr in CHECKPOINTS]):
        yield clock
