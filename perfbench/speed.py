"""Host speed probe: scales measured seconds to a reference speed.

A small shared VM can drift in speed by 20-30% over seconds to
minutes: a fixed CPU loop shows it, and no steal time is reported.
The drift mostly hits every CPU of the VM at once, so a light probe on
a spare CPU tracks the speed the measured process sees.  On a 2-CPU
VM, a probe on one CPU and a CPU-bound loop on the other agreed with a
correlation of 0.95 over 3-second buckets.  Slowdowns confined to the
measured process's CPU stay unseen.

``python3 speed.py FILE`` runs the probe: every ``PERIOD_S`` it times a
fixed pure-Python loop in thread CPU time, so time spent descheduled by
the guest does not count, and appends ``<monotonic> <seconds>`` to
FILE until it is killed.  :class:`HostSpeed` starts it and turns a
measured interval into reference seconds: seconds on a host where the
loop takes ``REFERENCE_S``.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

#: iterations of the probe loop (about 1.5 ms), and the pause between
#: samples: the probe takes about 1.5% of one CPU.
LOOP = 20_000
PERIOD_S = 0.1
#: the loop's time on a reference host; a factor of 1 means the host
#: ran at that speed during the interval.
REFERENCE_S = 0.0015
#: fewest samples a factor is averaged over; shorter intervals borrow
#: the samples nearest to them.
MIN_SAMPLES = 8


class ProbeError(RuntimeError):
    """The probe stopped writing samples."""


class HostSpeed:
    """The probe process and the factors read from its samples."""

    def __init__(self, path, cwd):
        self.path = path
        path.write_text("")
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(path)], cwd=cwd)

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def _samples(self):
        with open(self.path, encoding="ascii") as handle:
            return [tuple(map(float, line.split()))
                    for line in handle if line.endswith("\n")]

    def factor(self, start, end):
        """Reference seconds per measured second over ``[start, end]``
        (``time.monotonic`` values)."""
        limit = time.monotonic() + 2.0
        while True:
            samples = self._samples()
            if samples and samples[-1][0] >= end:
                break
            if self.proc.poll() is not None or time.monotonic() > limit:
                raise ProbeError("host speed probe stopped sampling")
            time.sleep(PERIOD_S)
        inside = [d for t, d in samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            middle = (start + end) / 2.0
            nearest = sorted(samples, key=lambda s: abs(s[0] - middle))
            inside = [d for _, d in nearest[:MIN_SAMPLES]]
        return REFERENCE_S / statistics.fmean(inside)


def probe(path):
    with open(path, "a", encoding="ascii", buffering=1) as handle:
        while True:
            at = time.monotonic()
            start = time.thread_time()
            total = 0
            for i in range(LOOP):
                total += i * i
            handle.write(f"{at:.6f} {time.thread_time() - start:.9f}\n")
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    probe(sys.argv[1])
