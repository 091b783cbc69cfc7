"""Host-speed probe: a small child process sharing the benchmark's CPU.

The shared host's speed drifts by up to 1.8x over seconds to minutes, and a
median inside one run cannot remove that. So the benchmark pins itself to one
CPU and starts this probe on the same CPU. Every 0.2 s the probe runs a fixed
kernel (an interpreter loop plus complex array arithmetic; it never touches
the package) and reports the CPU time it took. The CPU time of that kernel
tracks how fast that CPU runs at that moment. It excludes time spent waiting
for the benchmark's own slices. A timed interval is then scaled by the mean
probe time inside it (see ``HostProbe.scale``). The probe takes about 1.5% of
the CPU.

Run as a script, this file is the probe child: ``probe.py CPU``.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

#: Probe CPU time of the reference host; scaled times read as times there.
REFERENCE_S = 0.0025
PERIOD_S = 0.2
MAX_LIFETIME_S = 900.0


def _child(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    import numpy as np

    data = np.random.default_rng(0).standard_normal((64, 19, 19))
    parent = os.getppid()
    end = time.monotonic() + MAX_LIFETIME_S
    while time.monotonic() < end and os.getppid() == parent:
        wall = time.perf_counter()
        c0 = time.process_time()
        acc = 0
        for k in range(15_000):
            acc += k * k
        np.abs(np.exp(1j * data).mean(axis=0))
        print(f"{wall!r} {time.process_time() - c0!r}", flush=True)
        time.sleep(PERIOD_S)


class HostProbe:
    """``with HostProbe() as probe:`` runs the child; ``scale`` needs ``stop()`` first."""

    def __enter__(self) -> "HostProbe":
        self._affinity = os.sched_getaffinity(0)
        self.cpu = min(self._affinity)
        os.sched_setaffinity(0, {self.cpu})
        self.samples: list[tuple[float, float]] = []
        self._proc = subprocess.Popen(
            [sys.executable, __file__, str(self.cpu)],
            stdout=subprocess.PIPE, text=True,
        )
        first = self._proc.stdout.readline()  # the child has imported numpy
        if not first:
            self._proc.wait(timeout=30)
            raise RuntimeError("host probe did not start")
        self.samples.append(_parse(first))
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
        os.sched_setaffinity(0, self._affinity)

    def stop(self) -> None:
        """Stop the child and collect its samples; safe to call twice."""
        if self._proc.returncode is None:
            self._proc.terminate()
            out, _ = self._proc.communicate(timeout=30)
            self.samples += [_parse(line) for line in out.splitlines() if line.strip()]

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean probe time in [t0, t1] (perf_counter).

        The mean, not the median: an interval that spans a fast and a slow
        phase of the host takes the time-weighted average of their speeds.
        The top and bottom tenth of the samples are dropped first. An
        interval holding fewer than three samples uses the three nearest.
        """
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        if len(inside) < 3:
            mid = 0.5 * (t0 + t1)
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:3]
            inside = [d for _, d in nearest]
        return REFERENCE_S / _trimmed_mean(inside)

    def mean_s(self) -> float:
        return _trimmed_mean([d for _, d in self.samples])


def _trimmed_mean(values: list[float], cut: float = 0.1) -> float:
    values = sorted(values)
    k = int(len(values) * cut)
    return statistics.fmean(values[k : len(values) - k])


def _parse(line: str) -> tuple[float, float]:
    wall, dt = line.split()
    return float(wall), float(dt)


if __name__ == "__main__":
    _child(int(sys.argv[1]))
