"""Shared builders for the test suite."""

import math
import random
from bisect import bisect_left

from abrsim.abr import POLICIES, Observation
from abrsim.manifest import NETFLIX_LADDER_KBPS, BitrateLadder, VideoManifest
from abrsim.simulator import SessionConfig, run_session
from abrsim.trace import BandwidthTrace, TraceExhaustedError


def events(log, kind=None):
    """The log's records, or those of one event kind; the dicts themselves, not copies."""
    if kind is None:
        return list(log.records)
    return [r for r in log.records if r["event"] == kind]


def transferred_kilobits(trace: BandwidthTrace, start_s: float, end_s: float) -> float:
    """Kilobits the trace delivers over [start_s, end_s]."""
    if start_s < 0 or end_s < start_s:
        raise ValueError(f"need 0 <= start <= end, got [{start_s}, {end_s}]")
    return trace._cum(end_s) - trace._cum(start_s)


class RunningMean:
    """Left-to-right total and count of the values added so far.

    The reference for the folds the engine keeps as local totals and counts
    (throughput and SSIM drift in `simulator._drive`).
    """

    __slots__ = ("total", "count")

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def add(self, value: float) -> None:
        self.total += value
        self.count += 1

    def mean(self, empty: float = 0.0) -> float:
        """total / count, or `empty` before any value was added."""
        return self.total / self.count if self.count else empty


def reference_finish_time(trace: BandwidthTrace, start_s: float, volume_kilobits: float) -> float:
    """`download_finish_time` as first written, through `_cum` and an inverse within one period.

    The library inlines these steps; it must agree with this reference bit
    for bit and raise the same errors with the same text.
    """
    times, rates, prefix = trace._times, trace._rates, trace._prefix

    def invert_within_period(kilobits):
        j = bisect_left(prefix, kilobits)
        return times[j - 1] + (kilobits - prefix[j - 1]) / rates[j - 1]

    if volume_kilobits <= 0:
        raise ValueError(f"volume must be > 0, got {volume_kilobits}")
    if start_s < 0:
        raise ValueError(f"start must be >= 0, got {start_s}")
    target = trace._cum(start_s) + volume_kilobits
    if not trace.loop:
        total = prefix[-1]
        if target > total:
            if rates[-1] <= 0:
                raise TraceExhaustedError(
                    f"trace exhausted at {times[-1]}s with {target - total:.6g} kilobits "
                    "undelivered and zero residual bandwidth"
                )
            return times[-1] + (target - total) / rates[-1]
        return invert_within_period(target)
    period, per_loop = times[-1], prefix[-1]
    wraps = math.floor(target / per_loop)
    rem = target - wraps * per_loop
    if rem < 0:
        wraps -= 1
        rem += per_loop
    if rem == 0.0:
        return (wraps - 1) * period + invert_within_period(per_loop)
    return wraps * period + invert_within_period(rem)


def make_ladder(rates=NETFLIX_LADDER_KBPS) -> BitrateLadder:
    return BitrateLadder(tuple(float(r) for r in rates))


def monotone_rows(chunks: int, levels: int, floor=0.75, ceiling=0.98):
    """Identical rows, SSIM strictly increasing in level."""
    row = tuple(floor + (ceiling - floor) * j / (levels - 1) for j in range(levels))
    return tuple(row for _ in range(chunks))


def make_manifest(chunks=5, rates=NETFLIX_LADDER_KBPS, duration=4.0, ssim=None, sizes=None):
    ladder = make_ladder(rates)
    if ssim is None:
        ssim = monotone_rows(chunks, ladder.count)
    return VideoManifest(
        chunk_count=chunks,
        chunk_duration_s=duration,
        ladder=ladder,
        ssim=tuple(tuple(row) for row in ssim),
        chunk_kilobits=tuple(tuple(row) for row in sizes) if sizes is not None else None,
    )


def constant_trace(kbps: float, until_s: float | None = None, loop=False) -> BandwidthTrace:
    """Constant-rate trace; open-ended unless until_s caps it with a zero tail."""
    if until_s is None:
        return BandwidthTrace(((0.0, float(kbps)),))
    return BandwidthTrace(((0.0, float(kbps)), (float(until_s), 0.0)), loop=loop)


def random_trace(rng: random.Random, segments=None, rate_range=(100.0, 8000.0), loop=False):
    """Random piecewise-constant trace with strictly increasing timestamps."""
    n = segments if segments is not None else rng.randint(2, 6)
    times = [0.0]
    for _ in range(n - 1):
        times.append(times[-1] + rng.uniform(2.0, 30.0))
    rates = [rng.uniform(*rate_range) for _ in range(n)]
    if loop:
        rates[-1] = 0.0  # unused past the wrap point
    return BandwidthTrace(tuple(zip(times, rates)), loop=loop)


def make_observation(manifest, chunk=2, buffer_s=60.0, capacity=120.0, critical=12.0,
                     prev_level=1, estimate=1000.0, drift=0.0) -> Observation:
    return Observation(
        chunk=chunk,
        buffer_s=buffer_s,
        buffer_capacity_s=capacity,
        critical_threshold_s=critical,
        prev_level=prev_level if chunk > 1 else None,
        bandwidth_estimate_kbps=estimate,
        ssim_delta_mean=drift,
        manifest=manifest,
    )


def replay_pool():
    """(log, manifest) pairs: every policy on random looping traces, one stall, one truncation."""
    rng = random.Random(808)
    entries = []
    manifest = make_manifest(chunks=25, ssim=monotone_rows(25, 10))
    for policy in list(POLICIES) * 3:
        trace = random_trace(rng, segments=rng.randint(2, 6),
                             rate_range=(250.0, 7000.0), loop=True)
        log, _ = run_session(manifest, trace, SessionConfig(policy=policy, loop_trace=True))
        entries.append((log, manifest))
    sizes = tuple(
        (50000.0, 60000.0) if c == 1 else (940.0, 1500.0) for c in range(3)
    )
    stall_manifest = make_manifest(chunks=3, rates=(235, 375), sizes=sizes)
    stall_log, _ = run_session(stall_manifest, constant_trace(10000.0), SessionConfig())
    entries.append((stall_log, stall_manifest))
    short_manifest = make_manifest(chunks=2, rates=(235, 375))
    cut_log, _ = run_session(short_manifest, constant_trace(100.0, until_s=10.0), SessionConfig())
    entries.append((cut_log, short_manifest))
    return entries
