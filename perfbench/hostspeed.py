"""Host-speed probe: wall seconds of program work at a fixed reference speed.

The benchmark shares a few cores of a host whose speed drifts by tens
of percent within a minute (other tenants, busy SMT siblings), so a raw
wall-clock rate measures the host as much as the program.  While the
probe runs, an interval timer interrupts the program every ``PERIOD_S``
wall seconds and runs a fixed pure-Python workload (heap, dict and float
work, the simulator's own mix).  The probes sample the same moments as
the program, so ``REFERENCE_PROBE_S / mean probe time`` is the host's
speed over the span measured: multiplying the program's wall seconds
(minus the time spent in probes) by it gives the seconds the same work
takes on a host where one probe takes ``REFERENCE_PROBE_S``.

Python runs signal handlers between bytecodes of the main thread and
retries system calls a signal interrupts, so a probe neither sees nor
changes the program's state; it costs about a tenth of the wall time.
Interval timers are not inherited by child processes.  Probes would
make a wall-paced run late and would land inside the spans of a traced
run, so neither runs under one.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import Callable, TypeVar

T = TypeVar("T")

#: Wall seconds between probes.
PERIOD_S = 0.02
#: Seconds one probe takes on the reference host.  It only sets the
#: scale of the reported seconds: one probe took 1 to 2.5 ms on the
#: 2-CPU Xeon host the benchmark was tuned on, as that host's load
#: varied.
REFERENCE_PROBE_S = 0.002
#: Loop iterations of one probe.
PROBE_ITEMS = 3000


def probe_work() -> float:
    """A fixed unit of interpreter work; returns a value so none of it
    can be skipped."""
    heap: list[int] = []
    table: dict[int, float] = {}
    total = 0.0
    for i in range(PROBE_ITEMS):
        heapq.heappush(heap, (i * 7919) % 10007)
        table[i & 1023] = total
        total += i * 0.5
        if len(heap) > 64:
            heapq.heappop(heap)
    return total


class HostProbe:
    """Runs :func:`probe_work` every ``PERIOD_S`` while started.

    ``spent_s`` and ``count`` only grow; a caller reads them at both
    ends of a span and takes the differences.
    """

    def __init__(self) -> None:
        self.spent_s = 0.0
        self.count = 0
        self._busy = False
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        try:
            probe_work()
        finally:
            self.spent_s += time.perf_counter() - start
            self.count += 1
            self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self) -> "HostProbe":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


#: The process's probe; its counters stay 0 while it is not started.
PROBE = HostProbe()


def probed(fn: Callable[..., T], *args) -> tuple[T, tuple[float, float, int]]:
    """``fn(*args)`` run under :data:`PROBE`, with its wall seconds and
    the seconds and count of the probes that ran meanwhile."""
    spent_s, count = PROBE.spent_s, PROBE.count
    with PROBE:
        start = time.perf_counter()
        result = fn(*args)
        wall_s = time.perf_counter() - start
    return result, (wall_s, PROBE.spent_s - spent_s, PROBE.count - count)


def speed(spent_s: float, count: int) -> float:
    """Host speed relative to the reference from ``count`` probes that
    took ``spent_s`` seconds in all (1.0 when nothing was probed)."""
    return REFERENCE_PROBE_S * count / spent_s if count else 1.0


def reference_s(wall_s: float, probe_s: float, host_speed: float) -> float:
    """``wall_s``, of which ``probe_s`` went to probes, re-expressed at
    the reference speed."""
    return (wall_s - probe_s) * host_speed
