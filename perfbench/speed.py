"""Machine-speed probe, so that times measured on a shared machine compare.

On a shared sandbox the speed a process gets swings by up to 1.7 times
within minutes (presumably when another tenant's work shares the core), and
every pure-Python workload slows with it.  Medians over a run do not average
this out.  ``SpeedProbe`` samples the speed while the benchmark's work runs:
a timer signal interrupts the work every ``interval`` seconds, and the
handler times ``probe()``, a fixed piece of tuple, frozenset and dict work
that never touches finsat.  A measured interval is then rescaled to the
speed at which ``probe()`` takes ``PROBE_REF_S``:

    scaled = (wall - time spent in probes) * PROBE_REF_S / median probe time

A change to finsat moves the scaled time exactly as it moves the raw time;
only the machine's state is divided out.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Median time of ``probe()`` on the 2-CPU sandbox the bounds were set on.
PROBE_REF_S = 0.00085


def probe() -> float:
    start = time.perf_counter()
    acc: dict = {}
    for i in range(1500):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, 0) + len(frozenset(key))
    return time.perf_counter() - start


class SpeedProbe:
    def __init__(self) -> None:
        self._samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self._samples.append(probe())

    def start(self, interval: float) -> None:
        self._samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> tuple[float, float]:
        """Stop sampling.  Returns the time the probes took, to subtract
        from the measured interval, and the factor that rescales the rest
        to the reference speed."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        spent = sum(self._samples)
        if not self._samples:  # shorter than one interval
            self._samples.append(probe())
        return spent, PROBE_REF_S / statistics.median(self._samples)
