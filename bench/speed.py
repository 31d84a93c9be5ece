"""The host's CPU speed during a measuring window, from a fixed probe loop.

On a shared virtual machine the same CPU work takes 30-70% longer in
spells when other guests load the host, and the load drifts over minutes,
so two runs of one call a few minutes apart can differ by a quarter in
CPU time.  A background thread of the benchmark runs a short pure-Python
loop every `PERIOD_S` for the whole window, so it samples the host's
speed while the child processes run (on the other vCPU, as one child runs
at a time) and between them.  The mean of the loop's CPU times tracks how
loaded the host was during the window.  Multiplying a call's CPU time by
`REFERENCE_S / mean probe time` gives its CPU time at the reference
speed, the speed at which the probe takes `REFERENCE_S`.

The probe depends on nothing in the package under test, so a change to
the package moves the calls' CPU time and not the scale.
"""

from __future__ import annotations

import statistics
import threading
import time

# The probe's CPU time at the reference speed: about its mean on a 2-vCPU
# Xeon at 2.1 GHz (Python 3.11) while the host is busy.  A fixed constant,
# so it only sets the unit; the scale's movement comes from the probes.
REFERENCE_S = 0.004
PROBE_ITERATIONS = 15_000
# One probe of about 4 ms every 50 ms: some 7% of one vCPU.
PERIOD_S = 0.05


def probe() -> float:
    """CPU seconds of this thread for one fixed loop of integer arithmetic
    and dict updates, the kind of work the package does."""
    start = time.thread_time()
    table: dict[int, int] = {}
    acc = 0
    for i in range(PROBE_ITERATIONS):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + i
        acc = (acc * 31 + k) % 1000003
    return time.thread_time() - start


class SpeedProbe:
    """Probes the host's speed from a background thread while the context
    is open; the thread has stopped when the context is left."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while True:
            self.samples.append(probe())
            if self._stop.wait(self.period_s):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self) -> float:
        """The factor from this window's CPU times to the reference
        speed."""
        return REFERENCE_S / statistics.fmean(self.samples)
