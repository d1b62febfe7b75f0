"""Piecewise-constant bandwidth traces and analytic transfer arithmetic.

A trace is a list of (timestamp_s, bandwidth_kbps) samples, first timestamp 0,
strictly increasing.  Bandwidth holds constant from one sample to the next.
Two tail conventions apply:

* non-looping: the final sample's bandwidth extends indefinitely; a download
  that outlives the trace with a zero tail raises TraceExhaustedError.
* looping: the trace repeats with period equal to the final timestamp, so the
  final sample only marks the wrap point and its bandwidth is unused.

All volume arithmetic is in kilobits.  Integrals are evaluated from a prefix
table, which makes transferred(a, b) = cum(b) - cum(a) exactly additive in
floating point.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass


class TraceError(ValueError):
    """Trace failed to parse or violates a structural constraint."""


class TraceExhaustedError(RuntimeError):
    """A requested volume can never complete on a non-looping trace."""


@dataclass(frozen=True)
class BandwidthTrace:
    samples: tuple[tuple[float, float], ...]
    loop: bool = False

    def __post_init__(self) -> None:
        samples = tuple((float(t), float(bw)) for t, bw in self.samples)
        object.__setattr__(self, "samples", samples)
        if not samples:
            raise TraceError("trace has no samples")
        if samples[0][0] != 0.0:
            raise TraceError(f"first sample must be at timestamp 0, got {samples[0][0]}")
        for k, (t, bw) in enumerate(samples):
            if not math.isfinite(t) or not math.isfinite(bw):
                raise TraceError(f"sample {k + 1} is not finite: ({t}, {bw})")
            if bw < 0:
                raise TraceError(f"sample {k + 1} has negative bandwidth {bw}")
            if k and t <= samples[k - 1][0]:
                raise TraceError(
                    f"sample {k + 1} timestamp {t} does not increase past {samples[k - 1][0]}"
                )
        if self.loop:
            if len(samples) < 2:
                raise TraceError("a looping trace needs at least 2 samples to define its period")
            if not any(bw > 0 for _, bw in samples[:-1]):
                raise TraceError("a looping trace needs positive bandwidth inside its period")
        times = tuple(t for t, _ in samples)
        rates = tuple(bw for _, bw in samples)
        prefix = [0.0]
        for k in range(1, len(samples)):
            prefix.append(prefix[-1] + rates[k - 1] * (times[k] - times[k - 1]))
        object.__setattr__(self, "_times", times)
        object.__setattr__(self, "_rates", rates)
        object.__setattr__(self, "_prefix", tuple(prefix))

    @property
    def duration_s(self) -> float:
        """Final sample timestamp; the loop period when looping."""
        return self._times[-1]

    def _segment_cum(self, t: float) -> float:
        # Kilobits delivered over [0, t] ignoring looping; t past the end
        # extends the final sample's rate.
        i = bisect_right(self._times, t) - 1
        return self._prefix[i] + (t - self._times[i]) * self._rates[i]

    def _cum(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"trace time must be >= 0, got {t}")
        if not self.loop:
            return self._segment_cum(t)
        period = self._times[-1]
        per_loop = self._prefix[-1]
        wraps = math.floor(t / period)
        rem = t - wraps * period
        if rem < 0:  # guard against floor/multiply rounding
            wraps -= 1
            rem += period
        return wraps * per_loop + self._segment_cum(rem)


def download_finish_time(trace: BandwidthTrace, start_s: float, volume_kilobits: float) -> float:
    """Earliest t >= start_s at which volume_kilobits have been delivered.

    Raises TraceExhaustedError when a non-looping trace ends with zero
    bandwidth before the volume completes.
    """
    if volume_kilobits <= 0:
        raise ValueError(f"volume must be > 0, got {volume_kilobits}")
    if start_s < 0:
        raise ValueError(f"start must be >= 0, got {start_s}")
    # `trace._cum(start_s) + volume_kilobits`, then the inverse of `_cum`, with
    # `_cum` and `_segment_cum` inlined: the same operations in the same order.
    times, rates, prefix = trace._times, trace._rates, trace._prefix
    if not trace.loop:
        i = bisect_right(times, start_s) - 1
        target = prefix[i] + (start_s - times[i]) * rates[i] + volume_kilobits
        total = prefix[-1]
        if target > total:
            tail_rate = rates[-1]
            if tail_rate <= 0:
                missing = target - total
                raise TraceExhaustedError(
                    f"trace exhausted at {times[-1]}s with {missing:.6g} kilobits "
                    "undelivered and zero residual bandwidth"
                )
            return times[-1] + (target - total) / tail_rate
        j = bisect_left(prefix, target)
        return times[j - 1] + (target - prefix[j - 1]) / rates[j - 1]
    period = times[-1]
    per_loop = prefix[-1]
    wraps = math.floor(start_s / period)
    rem = start_s - wraps * period
    if rem < 0:  # guard against floor/multiply rounding
        wraps -= 1
        rem += period
    i = bisect_right(times, rem) - 1
    target = wraps * per_loop + (prefix[i] + (rem - times[i]) * rates[i]) + volume_kilobits
    wraps = math.floor(target / per_loop)
    rem = target - wraps * per_loop
    if rem < 0:
        wraps -= 1
        rem += per_loop
    if rem == 0.0:
        # Landed exactly on a period multiple; finish inside the previous
        # period at the earliest point covering a full period's volume.
        wraps -= 1
        rem = per_loop
    # Earliest offset into one period delivering rem, 0 < rem <= per_loop.
    j = bisect_left(prefix, rem)
    return wraps * period + (times[j - 1] + (rem - prefix[j - 1]) / rates[j - 1])


def load_trace(path: str) -> BandwidthTrace:
    """Parse a `timestamp_s,bandwidth_kbps` CSV.

    Blank lines and `#` comments are skipped; one leading non-numeric header
    line is tolerated.  The returned trace does not loop; opt in per run.
    """
    samples: list[tuple[float, float]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise TraceError(f"{path}: cannot read trace: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise TraceError(f"{path}: not UTF-8 text: {exc}") from exc
    content = [(lineno, line) for lineno, line in enumerate((raw.strip() for raw in lines), start=1)
               if line and not line.startswith("#")]
    for k, (lineno, line) in enumerate(content):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise TraceError(f"{path}:{lineno}: expected `timestamp_s,bandwidth_kbps`, got {line!r}")
        try:
            t, bw = float(parts[0]), float(parts[1])
        except ValueError:
            if k == 0:
                continue  # header row
            raise TraceError(f"{path}:{lineno}: non-numeric sample {line!r}") from None
        samples.append((t, bw))
    try:
        return BandwidthTrace(tuple(samples))
    except TraceError as exc:
        raise TraceError(f"{path}: {exc}") from exc


def save_trace(trace: BandwidthTrace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("timestamp_s,bandwidth_kbps\n")
        for t, bw in trace.samples:
            # repr round-trips floats exactly, so load(save(t)) == t
            fh.write(f"{t!r},{bw!r}\n")


def synthesize_oscillating_trace(
    seed: int,
    duration_s: float = 300.0,
    low_kbps: tuple[float, float] = (1500.0, 2100.0),
    high_kbps: tuple[float, float] = (3200.0, 4200.0),
    phase_s: tuple[float, float] = (16.0, 44.0),
    start_high: bool | None = None,
    lead_phase_s: tuple[float, float] | None = None,
) -> BandwidthTrace:
    """Square-wave style trace alternating between two bandwidth bands.

    Phase lengths and per-phase rates are drawn from a seeded RNG, so the
    same seed always yields the same trace.  The final sample marks the end
    of the recording (its rate repeats the last phase for non-loop use).

    `start_high` pins which band the trace opens with (default: coin flip),
    and `lead_phase_s` gives the opening phase its own duration range, which
    is useful for letting clients build buffer before the first swing.
    """
    if duration_s <= 0:
        raise ValueError(f"duration must be > 0, got {duration_s}")
    rng = random.Random(seed)
    end = round(duration_s, 3)
    samples: list[tuple[float, float]] = []
    t = 0.0
    high = bool(rng.getrandbits(1)) if start_high is None else start_high
    first = True
    bw = 0.0
    while round(t, 3) < end:
        band = high_kbps if high else low_kbps
        bw = round(rng.uniform(*band), 3)
        samples.append((round(t, 3), bw))
        span = phase_s if (lead_phase_s is None or not first) else lead_phase_s
        t += rng.uniform(*span)
        first = False
        high = not high
    samples.append((end, bw))
    return BandwidthTrace(tuple(samples))
