"""The machine-speed probe: fixed numpy work timed in a process of its own.

It runs outside the measured process, so the program's threads (the
prefetcher, a speculating slot) cannot hold its interpreter lock, and
it shares no code with the program, so no optimisation moves it.  Idle
between probes: the sidecar blocks on its pipe and uses no processor.
"""

from __future__ import annotations

import subprocess
import sys
from typing import List

_SIDECAR = r"""
import sys, time
import numpy as np
axis = np.arange(12.0)
def work():
    # many small array operations, like the program's own inner loops:
    # what a busy neighbour slows is allocation and cache traffic
    total = 0.0
    for k in range(60):
        xx, yy = np.meshgrid(axis, axis)
        inside = (xx * 0.3 + yy * 0.7) > (k % 7)
        total += float(xx[inside].sum())
    return total
for _ in sys.stdin:
    start = time.perf_counter_ns()
    work()
    sys.stdout.write(str(time.perf_counter_ns() - start) + "\n")
    sys.stdout.flush()
"""


class Probe:
    """``probe()`` works ~1.5 ms in the sidecar and returns how long it took (ms)."""

    def __init__(self) -> None:
        self.readings: List[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _SIDECAR],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )
        for _ in range(5):  # the first rounds pay for start-up
            self._read()

    def _read(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return int(self._proc.stdout.readline()) / 1e6

    def probe(self) -> float:
        reading = self._read()
        self.readings.append(reading)
        return reading

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=10)
        self._proc.stdout.close()
