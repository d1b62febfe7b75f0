"""Host speed, from a fixed calibration kernel timed around each measurement.

On a shared host the same code can run twice as slow for tens of seconds
at a time.  The kernel below uses only the standard library, so no change
to abrsim can make it faster or slower.  It runs with the garbage collector
off, so the size of the benchmark's heap does not change its time either.
Speed is REFERENCE_S divided by the kernel's best-of-three time now: 1.0
means the kernel takes REFERENCE_S, and a host-time sample multiplied by
the speed is that sample in seconds at the reference speed.
"""

from __future__ import annotations

import gc
import json
import time

REFERENCE_S = 0.02
REPEATS = 3


def _step(acc: float, i: int) -> float:
    return acc * 0.5 + i


def _kernel() -> float:
    # A mix of what abrsim spends its time on: small dicts, JSON lines,
    # slice-and-sum over floats and small Python calls.
    records = [{"event": "fetch_issued", "time_s": i * 0.37, "chunk": i, "level": i % 10,
                "buffer_s": i * 1.1, "reason": "hold"} for i in range(1500)]
    text = "".join(json.dumps(r) + "\n" for r in records)
    times = [json.loads(line)["time_s"] for line in text.splitlines()]
    acc = 0.0
    for i in range(1, 300):
        acc += sum(times[:i]) / i
    for i in range(15000):
        acc = _step(acc, i)
    return acc


def host_speed() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return REFERENCE_S / best


class SpeedProbe:
    """Speed during a timed section: the mean of the probes just before and after it.

    The probe after one section serves as the probe before the next.
    """

    def __init__(self) -> None:
        self._last: float | None = None

    def start(self) -> None:
        if self._last is None:
            self._last = host_speed()

    def stop(self) -> float:
        now = host_speed()
        speed = (self._last + now) / 2
        self._last = now
        return speed


class UnitSpeed:
    """Stands in for SpeedProbe where host seconds are reported unscaled."""

    def start(self) -> None:
        pass

    def stop(self) -> float:
        return 1.0
