"""Host speed, sampled on the CPU that runs the measured code.

On a shared host the same code runs up to twice as slow from one second to
the next, and for minutes at a time; process CPU time grows with it as much
as wall time does, so neither is steady from one run to the next.
`HostSpeed` pins this process, and so every process it starts afterwards,
to one CPU, and starts a sampler process there that wakes every few
milliseconds and times a fixed pure-Python loop.  The scheduler interleaves
the sampler with the measured code at a grain far finer than the host's
phases, so the samples around an operation show the speed the operation
ran at.  `scaled` turns an operation's CPU seconds into CPU seconds at the
reference speed, at which the loop takes REF_S.  The loop is the
benchmark's own code, so a change to the program does not move it.

The sampler, run as a script, prints `ready`, then samples until its
standard input closes and writes its samples to standard output.
"""

from __future__ import annotations

import bisect
import os
import select
import statistics
import subprocess
import sys
import time
from array import array

GAP_S = 0.004  # sleep between samples: the sampler takes about a tenth of the CPU
PAD_S = 0.05  # samples this far either side of an operation also describe it
# The loop's time on an uncontended core of the 2-vCPU Xeon VM the bounds
# were set on; it only scales the reported times.
REF_S = 0.00035


def calibration_loop() -> int:
    d: dict[int, int] = {}
    total = 0
    for i in range(2000):
        k = (i * 7919) % 1009
        d[k] = d.get(k, 0) + 1
        total += len(d)
    return total


class HostSpeed:
    """Pins the caller to one CPU and samples the host's speed there until
    `stop`.  Use as a context manager: the sampler always ends with it."""

    def __init__(self):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self.cpu = cpu
        self.times = array("d")
        self.loop_s = array("d")
        self._proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        if self._proc.stdout.readline() != b"ready\n":
            self.stop()
            raise RuntimeError("the host speed sampler did not start")

    def stop(self):
        if self._proc is None:
            return
        proc, self._proc = self._proc, None
        out, _ = proc.communicate(timeout=60)
        samples = array("d", out)
        self.times, self.loop_s = samples[0::2], samples[1::2]
        if proc.returncode != 0:
            raise RuntimeError(f"the host speed sampler exited {proc.returncode}")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        if exc_type is None:
            self.stop()
        elif self._proc is not None:
            self._proc.kill()
            self._proc.communicate()
            self._proc = None

    def factor(self, start: float, end: float) -> float:
        """Mean of REF_S / loop time over the samples from start - PAD_S to
        end + PAD_S: the share of the reference speed the host gave."""
        lo = bisect.bisect_left(self.times, start - PAD_S)
        hi = bisect.bisect_right(self.times, end + PAD_S)
        if lo == hi:
            raise RuntimeError(f"no host speed sample between {start:.3f} and {end:.3f}")
        return statistics.fmean(REF_S / s for s in self.loop_s[lo:hi])

    def scaled(self, cpu_s: float, start: float, end: float) -> float:
        """CPU seconds spent from start to end, at the reference speed."""
        return cpu_s * self.factor(start, end)


def sample() -> None:
    print("ready", flush=True)
    out = array("d")
    while not select.select([sys.stdin], [], [], GAP_S)[0]:
        start = time.perf_counter()
        calibration_loop()
        out.append(start)
        out.append(time.perf_counter() - start)
    sys.stdout.buffer.write(out.tobytes())


if __name__ == "__main__":
    sample()
