"""A clock that reads seconds at a fixed reference CPU speed.

On a shared host the same code runs up to ~1.5x slower while a neighbour
loads the CPU, in phases of seconds to tens of seconds.  ``SpeedProbe``
times a fixed reference kernel every ``INTERVAL_S`` from a SIGALRM handler,
in whatever code is running, and scales the wall time until the next sample
by ``NOMINAL_S`` over the kernel's time.  The kernel's own time is left
out.  Keep the measured work on the CPU the probe runs on.

Run as a script, it runs the pubcoord CLI under a probe of its own and
writes the probe's reading at exit, as JSON, to the file named first:

    python3 perfbench/speed.py REPORT.json gen kuhn --ranks 4 --out g.json
"""
from __future__ import annotations

import atexit
import json
import random
import runpy
import signal
import sys
import time
from contextlib import contextmanager

import numpy as np


class SpeedProbe:
    NOMINAL_S = 0.005
    INTERVAL_S = 0.1

    def __init__(self) -> None:
        # cache-resident work: small dict, tuples, tiny numpy arrays (CFR)
        self._keys = [(i & 63, i % 5) for i in range(400)]
        self._table = {key: i for i, key in enumerate(set(self._keys))}
        self._vec = np.linspace(-1.0, 1.0, 4)
        # big-heap work: a ~13 MB dict, larger than L2 (conversion)
        rng = random.Random(0)
        self._heap = {i: i ^ 0x5555 for i in range(150_000)}
        self._heap_keys = [rng.randrange(150_000) for _ in range(4000)]
        self._running = False
        # (scaled seconds so far, wall time they reach, current scale),
        # replaced as one object so that a tick cannot tear a read
        self._state = (0.0, time.perf_counter(),
                       self.NOMINAL_S / self.sample())

    def sample(self) -> float:
        """Seconds the reference kernel takes now."""
        t0 = time.perf_counter()
        acc, table, vec, heap = 0, self._table, self._vec, self._heap
        for key in self._keys:
            acc += table[key] + len((key, acc))
            pos = np.maximum(vec, 0.0)
            vec = pos / pos.sum() - 0.25
        for key in self._heap_keys:
            acc += heap[key]
        return time.perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        scaled, since, scale = self._state
        t = time.perf_counter()
        speed = self.sample()
        self._state = (scaled + (t - since) * scale, time.perf_counter(),
                       self.NOMINAL_S / speed)

    @property
    def scale(self) -> float:
        return self._state[2]

    def now(self) -> float:
        scaled, since, scale = self._state
        return scaled + (time.perf_counter() - since) * scale

    def _timer(self, on: bool) -> None:
        interval = self.INTERVAL_S if on else 0.0
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._state = (self.now(), time.perf_counter(), self.scale)
        self._running = True
        self._timer(True)
        try:
            yield self
        finally:
            self._timer(False)
            self._running = False
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def paused(self):
        """Stop sampling while a subprocess with a probe of its own runs.

        The clock then advances by the seconds the caller stores under
        ``"scaled"`` in the yielded dict, or else by the wall time at the
        last scale."""
        self._timer(False)
        base, t0, scale = self.now(), time.perf_counter(), self.scale
        clock: dict = {}
        try:
            yield clock
        finally:
            raw = time.perf_counter() - t0
            self._state = (base + clock.get("scaled", raw * scale),
                           time.perf_counter(), scale)
            self._timer(self._running)


def _run_cli(report: str, args: list[str]) -> None:
    probe = SpeedProbe()
    t0 = time.perf_counter()

    def write_report() -> None:
        with open(report, "w") as f:
            json.dump({"scaled": probe.now(),
                       "raw": time.perf_counter() - t0}, f)
    atexit.register(write_report)
    sys.argv = ["pubcoord", *args]
    with probe.running():
        runpy.run_module("pubcoord.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    _run_cli(sys.argv[1], sys.argv[2:])
