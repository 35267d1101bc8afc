"""The benchmark's time scale: a kernel sampled on the measured CPU, in a process of its own.

Every time metric is reported in reference seconds: measured seconds x
CAL_REF_S / the median duration of a short fixed kernel (a burst) sampled
during the same interval on the same CPU (wall time for wall-clock
metrics, process CPU time for ``cpu_s``). On a shared VM, neighbours slow
a core by 1.3-2x for seconds to minutes at a time; bursts interleaved with
the measured work slow with it, so the ratio stays put where the raw time
does not. Bursts taken only before and after a 2-s pass tracked it far
worse: the slowdowns come and go within a pass.

The sampler is a separate process, so nothing the code under test leaves
running in its own process (a thread pool, a busy background thread, a
held GIL) can slow the bursts and cancel out. It must share the measured
process's CPU; run.py pins itself, and so every process it starts, to one
CPU. A burst every SAMPLE_INTERVAL_S takes about 10% of that CPU, which
adds to measured wall time but not to measured CPU time.

Usage: ``python3 calibrate.py`` runs a burst every SAMPLE_INTERVAL_S; each
line read on stdin is answered with ``WALL CPU COUNT``, the median wall
and CPU seconds of the bursts since the previous answer and their number.
It exits at the end of its input.
"""

import os
import select
import statistics
import subprocess
import sys
import time

import numpy as np

SAMPLE_INTERVAL_S = 0.02
SOLVE_ROUNDS = 10
VECTOR_ROUNDS = 35
TEXT_ROUNDS = 120
RECORDS = 500
# About the median seconds of a sampled burst on an idle vCPU of a shared
# 2-vCPU x86-64 VM (Python 3.11, numpy 2.4, OpenBLAS 0.3, one BLAS thread);
# back to back, its fastest bursts took 1.0 ms.
CAL_REF_S = 0.002
CLOSE_TIMEOUT_S = 30.0

_X = np.linspace(-1.0, 1.0, 8000).reshape(4000, 2)


def burst():
    """Wall and CPU seconds of a fixed reference computation.

    Four parts of about equal time, after the work the workloads do: a
    solver round on 4000 rows (clip, then a small least-squares solve),
    gradient steps on 400 rows (small-array numpy with Python overhead),
    formatting and parsing of CSV fields, and building and sorting small
    result records. On a shared VM this mix tracked the workloads'
    slowdowns better than any one part alone.
    """
    small = _X[::10]
    w = np.array([0.5, 0.1])
    fields = {}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(SOLVE_ROUNDS):
        u = np.clip(_X @ w, 0.0, 1.0)
        w = np.linalg.lstsq(_X[:64], u[:64], rcond=None)[0]
    for _ in range(VECTOR_ROUNDS):
        s = small @ w
        w = w - 1e-3 * (small.T @ (s - np.clip(s, 0.0, 1.0)))
    for i in range(TEXT_ROUNDS):
        line = ",".join(repr(v) for v in (i * 0.5, i * 0.25, float(i % 7)))
        fields[line[:8]] = [float(f) for f in line.split(",")]
    records = [{"start": i, "path": [i, i + 1], "status": (i, str(i))} for i in range(RECORDS)]
    records.sort(key=lambda r: -r["start"])
    return time.perf_counter() - wall0, time.process_time() - cpu0


class Calibrator:
    """A running sampler process; ``lap`` reads the bursts since the last lap."""

    def __init__(self, env=None):
        self._proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True, env=env)

    def lap(self):
        """Median wall and CPU seconds of the bursts since the previous lap."""
        self._proc.stdin.write("lap\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration process exited with {self._proc.wait()}")
        wall, cpu, _ = line.split()
        return float(wall), float(cpu)

    def close(self):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def main():
    burst()  # the first call pays numpy's lazy set-up
    samples = []
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], SAMPLE_INTERVAL_S)
        if not ready:
            samples.append(burst())
            continue
        if not sys.stdin.readline():
            return 0
        if not samples:
            samples.append(burst())
        walls, cpus = zip(*samples)
        print(f"{statistics.median(walls)!r} {statistics.median(cpus)!r} {len(samples)}",
              flush=True)
        samples = []


if __name__ == "__main__":
    sys.exit(main())
