"""Piecewise-constant bandwidth traces and analytic transfer arithmetic.

A trace is a list of (timestamp_s, bandwidth_kbps) samples, first timestamp 0,
strictly increasing.  Bandwidth holds constant from one sample to the next.
Two tail conventions apply, chosen by `download_finish_time`'s `loop`, not the trace:

* non-looping: the final sample's bandwidth extends indefinitely; a download
  that outlives the trace with a zero tail raises TraceExhaustedError.
* looping: the trace repeats with period equal to the final timestamp, so the
  final sample only marks the wrap point and its bandwidth is unused.  The
  trace needs at least 2 samples and a positive, finite period volume.

All volume arithmetic is in kilobits.  Integrals are evaluated from a prefix
table, which makes transferred(a, b) = cum(b) - cum(a) exactly additive in
floating point.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .manifest import json_value, read_text, write_text_atomically

# The oscillating generator's bands (kbps) and phase lengths (s), each a uniform range.
SYNTH_LOW_KBPS = (1500.0, 2100.0)
SYNTH_HIGH_KBPS = (3200.0, 4200.0)
SYNTH_PHASE_S = (16.0, 44.0)


class TraceExhaustedError(RuntimeError):
    """A requested volume can never complete: a non-looping trace runs dry, a
    looping one would need more periods than a float counts, or the finish time
    is past the float range or within the clock's rounding step of the start."""


@dataclass(frozen=True)
class BandwidthTrace:
    """Validated samples and their prefix table; whether they loop is each download's choice."""

    samples: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        samples = tuple((json_value(t, 0.0, f"sample {k} timestamp"),
                         json_value(bw, 0.0, f"sample {k} bandwidth"))
                        for k, (t, bw) in enumerate(self.samples, start=1))
        object.__setattr__(self, "samples", samples)
        if not samples:
            raise ValueError("trace has no samples")
        if samples[0][0] != 0.0:
            raise ValueError(f"first sample must be at timestamp 0, got {samples[0][0]}")
        for k, (t, bw) in enumerate(samples):
            if bw < 0:
                raise ValueError(f"sample {k + 1} has negative bandwidth {bw}")
            if k and t <= samples[k - 1][0]:
                raise ValueError(
                    f"sample {k + 1} timestamp {t} does not increase past {samples[k - 1][0]}"
                )
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


def download_finish_time(trace: BandwidthTrace, start_s: float, volume_kilobits: float,
                         loop: bool = False) -> float:
    """Earliest t >= start_s at which volume_kilobits have been delivered, the
    trace repeating when `loop` is true.

    Raises ValueError when a looping trace has fewer than 2 samples or a period
    volume that is not positive and finite; TraceExhaustedError when a
    non-looping trace ends with zero bandwidth before the volume completes, a
    looping one needs more periods than a float counts, or the finish time
    overflows or rounds onto `start_s`.
    """
    if volume_kilobits <= 0:
        raise ValueError(f"volume must be > 0, got {volume_kilobits}")
    if start_s < 0:
        raise ValueError(f"start must be >= 0, got {start_s}")
    # The kilobits delivered by `start_s` plus the volume, then that curve's inverse, inlined:
    # the operations, in order, of `reference_finish_time` in tests/helpers.py.
    times, rates, prefix = trace._times, trace._rates, trace._prefix
    if not loop:
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
            finish = times[-1] + (target - total) / tail_rate
            if finish == math.inf:
                raise TraceExhaustedError(f"trace cannot deliver {volume_kilobits} kilobits from {start_s}s: "
                                          f"at its {tail_rate} kbps tail rate the finish time overflows")
        else:
            j = bisect_left(prefix, target)
            finish = times[j - 1] + (target - prefix[j - 1]) / rates[j - 1]
    else:
        if len(times) < 2:
            raise ValueError("a looping trace needs at least 2 samples to define its period")
        period, per_loop = times[-1], prefix[-1]
        if not 0.0 < per_loop < math.inf:
            raise ValueError(f"a looping trace needs a positive, finite volume per period: its {period}s "
                             f"period carries {per_loop} kilobits")
        try:  # a quotient past the float range has no floor
            wraps = math.floor(start_s / period)
            rem = start_s - wraps * period
            if rem < 0:  # guard against floor/multiply rounding
                wraps -= 1
                rem += period
            i = bisect_right(times, rem) - 1
            target = wraps * per_loop + (prefix[i] + (rem - times[i]) * rates[i]) + volume_kilobits
            wraps = math.floor(target / per_loop)
        except OverflowError:
            raise TraceExhaustedError(
                f"looping trace cannot deliver {volume_kilobits} kilobits from {start_s}s: its {period}s "
                f"period carries {per_loop} kilobits, and the loop count overflows"
            ) from None
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
        finish = wraps * period + (times[j - 1] + (rem - prefix[j - 1]) / rates[j - 1])
        if finish == math.inf:
            raise TraceExhaustedError(f"looping trace cannot deliver {volume_kilobits} kilobits from {start_s}s: its "
                                      f"{period}s period carries {per_loop} kilobits, and the finish time overflows")
    if not finish > start_s:  # a large clock can round a short download away
        raise TraceExhaustedError(f"trace delivers {volume_kilobits} kilobits from {start_s}s at its {rates[i]} kbps "
                                  "rate there in less than the clock's rounding step")
    return finish


def load_trace(path: str) -> BandwidthTrace:
    """Parse a `timestamp_s,bandwidth_kbps` CSV.

    Blank lines and `#` comments are skipped; one leading non-numeric header
    line is tolerated.
    """
    samples: list[tuple[float, float]] = []
    lines = read_text(path, "trace").split("\n")
    content = [(lineno, line) for lineno, line in enumerate((raw.strip() for raw in lines), start=1)
               if line and not line.startswith("#")]
    for k, (lineno, line) in enumerate(content):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected `timestamp_s,bandwidth_kbps`, got {line!r}")
        try:
            t, bw = float(parts[0]), float(parts[1])
        except ValueError:
            if k == 0:
                continue  # header row
            raise ValueError(f"{path}:{lineno}: non-numeric sample {line!r}") from None
        samples.append((t, bw))
    try:
        return BandwidthTrace(tuple(samples))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_trace(trace: BandwidthTrace, path: str) -> None:
    # repr round-trips floats exactly, so load(save(t)) == t
    rows = "".join([f"{t!r},{bw!r}\n" for t, bw in trace.samples])
    write_text_atomically(path, "timestamp_s,bandwidth_kbps\n" + rows)


def synthesize_oscillating_trace(seed: int, duration_s: float = 300.0) -> BandwidthTrace:
    """Square-wave style trace alternating between two bandwidth bands.

    The opening band, each phase's length and each phase's rate are drawn
    from a seeded RNG, so the same seed always yields the same trace.  The
    final sample marks the end of the recording (its rate repeats the last
    phase for non-loop use).
    """
    if duration_s <= 0:
        raise ValueError(f"duration must be > 0, got {duration_s}")
    rng = random.Random(seed)
    end = round(duration_s, 3)
    samples: list[tuple[float, float]] = []
    t = 0.0
    high = bool(rng.getrandbits(1))
    bw = 0.0
    while round(t, 3) < end:
        bw = round(rng.uniform(*(SYNTH_HIGH_KBPS if high else SYNTH_LOW_KBPS)), 3)
        samples.append((round(t, 3), bw))
        t += rng.uniform(*SYNTH_PHASE_S)
        high = not high
    samples.append((end, bw))
    return BandwidthTrace(tuple(samples))
