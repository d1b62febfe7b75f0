"""Shared builders for the test suite."""

import math
import random
from bisect import bisect_left, bisect_right

from abrsim.abr import POLICIES, Observation
from abrsim.manifest import NETFLIX_LADDER_KBPS, BitrateLadder, VideoManifest
from abrsim.simulator import SessionConfig, run_session
from abrsim.trace import BandwidthTrace, TraceExhaustedError


def events(log, kind=None):
    """The log's records, or those of one event kind; the dicts themselves, not copies."""
    if kind is None:
        return list(log.records)
    return [r for r in log.records if r["event"] == kind]


def transferred_kilobits(trace: BandwidthTrace, start_s: float, end_s: float, loop: bool = False) -> float:
    """Kilobits the trace delivers over [start_s, end_s], looping when `loop` is true."""
    if start_s < 0 or end_s < start_s:
        raise ValueError(f"need 0 <= start <= end, got [{start_s}, {end_s}]")
    return cumulative_kilobits(trace, end_s, loop) - cumulative_kilobits(trace, start_s, loop)


def cumulative_kilobits(trace: BandwidthTrace, t: float, loop: bool = False) -> float:
    """Kilobits the trace delivers over [0, t], looping when `loop` is true."""
    if t < 0:
        raise ValueError(f"trace time must be >= 0, got {t}")
    times, rates, prefix = trace._times, trace._rates, trace._prefix

    def segment_cum(t):
        # Ignoring looping; t past the end extends the final sample's rate.
        i = bisect_right(times, t) - 1
        return prefix[i] + (t - times[i]) * rates[i]

    if not loop:
        return segment_cum(t)
    wraps, rem = period_offset(trace, t)
    return wraps * prefix[-1] + segment_cum(rem)


def period_offset(trace: BandwidthTrace, t: float) -> tuple:
    """The whole periods of a looping trace before time t, and t's offset into the next."""
    period = trace._times[-1]
    wraps = math.floor(t / period)
    rem = t - wraps * period
    if rem < 0:  # guard against floor/multiply rounding
        wraps -= 1
        rem += period
    return wraps, rem


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


def reference_finish_time(trace: BandwidthTrace, start_s: float, volume_kilobits: float,
                          loop: bool = False) -> float:
    """`download_finish_time` as first written, through `cumulative_kilobits` and an inverse within one period.

    The library inlines these steps; it must agree with this reference bit
    for bit and raise the same errors with the same text.
    """
    times, rates, prefix = trace._times, trace._rates, trace._prefix

    def invert_within_period(kilobits):
        j = bisect_left(prefix, kilobits)
        return times[j - 1] + (kilobits - prefix[j - 1]) / rates[j - 1]

    def after_start(finish):
        # A finish time the clock cannot tell from the start: name the rate at the start.
        if not finish > start_s:
            offset = period_offset(trace, start_s)[1] if loop else start_s
            raise TraceExhaustedError(
                f"trace delivers {volume_kilobits} kilobits from {start_s}s at its "
                f"{rates[bisect_right(times, offset) - 1]} kbps rate there in less than the clock's rounding step")
        return finish

    if volume_kilobits <= 0:
        raise ValueError(f"volume must be > 0, got {volume_kilobits}")
    if start_s < 0:
        raise ValueError(f"start must be >= 0, got {start_s}")
    if loop and len(times) < 2:
        raise ValueError("a looping trace needs at least 2 samples to define its period")
    if loop and not 0.0 < prefix[-1] < math.inf:
        raise ValueError(f"a looping trace needs a positive, finite volume per period: its {times[-1]}s "
                         f"period carries {prefix[-1]} kilobits")
    target = cumulative_kilobits(trace, start_s, loop) + volume_kilobits
    if not loop:
        total = prefix[-1]
        if target > total:
            if rates[-1] <= 0:
                raise TraceExhaustedError(
                    f"trace exhausted at {times[-1]}s with {target - total:.6g} kilobits "
                    "undelivered and zero residual bandwidth"
                )
            finish = times[-1] + (target - total) / rates[-1]
            if finish == math.inf:
                raise TraceExhaustedError(f"trace cannot deliver {volume_kilobits} kilobits from {start_s}s: "
                                          f"at its {rates[-1]} kbps tail rate the finish time overflows")
        else:
            finish = invert_within_period(target)
        return after_start(finish)
    period, per_loop = times[-1], prefix[-1]
    wraps = math.floor(target / per_loop)
    rem = target - wraps * per_loop
    if rem < 0:
        wraps -= 1
        rem += per_loop
    if rem == 0.0:
        finish = (wraps - 1) * period + invert_within_period(per_loop)
    else:
        finish = wraps * period + invert_within_period(rem)
    if finish == math.inf:
        raise TraceExhaustedError(f"looping trace cannot deliver {volume_kilobits} kilobits from {start_s}s: its "
                                  f"{period}s period carries {per_loop} kilobits, and the finish time overflows")
    return after_start(finish)


def reference_ssim_rows(ladder: BitrateLadder, chunk_count: int, profile) -> tuple:
    """`synthesize_manifest`'s SSIM table as first written: every cell from the full formula.

    The library computes each rung's decay once and shares the full-lift
    row; it must agree with this reference bit for bit.
    """
    rng = random.Random(profile.jitter_seed)
    r1 = ladder.levels_kbps[0]
    scale = max(profile.knee_kbps - r1, 1e-6)
    lift = profile.q_ceiling - profile.q_floor
    rows = []
    for _ in range(chunk_count):
        m = 1.0 + profile.per_chunk_spread * rng.uniform(-1.0, 1.0)
        m = min(max(m, 0.0), 1.0)
        rows.append(
            tuple(
                round(profile.q_ceiling - lift * m * math.exp(-(r - r1) / scale), 6)
                for r in ladder.levels_kbps
            )
        )
    return tuple(rows)


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
        chunk_duration_s=duration,
        ladder=ladder,
        ssim=tuple(tuple(row) for row in ssim),
        chunk_kilobits=tuple(tuple(row) for row in sizes) if sizes is not None else None,
    )


def chunk_volume(manifest: VideoManifest, chunk: int, level: int) -> float:
    """Kilobits to transfer for one chunk at one level.

    Uses the measured size table when present, else the nominal
    bitrate x duration product.  Either index out of range is an IndexError.
    """
    if not (1 <= chunk <= manifest.chunk_count and 1 <= level <= manifest.ladder.count):
        raise IndexError(f"chunk {chunk} or level {level} outside the manifest")
    if manifest.chunk_kilobits is not None:
        return manifest.chunk_kilobits[chunk - 1][level - 1]
    return manifest.ladder.levels_kbps[level - 1] * manifest.chunk_duration_s


def constant_trace(kbps: float, until_s: float | None = None) -> BandwidthTrace:
    """Constant-rate trace; open-ended unless until_s caps it with a zero tail."""
    if until_s is None:
        return BandwidthTrace(((0.0, float(kbps)),))
    return BandwidthTrace(((0.0, float(kbps)), (float(until_s), 0.0)))


def random_trace(rng: random.Random, segments=None, rate_range=(100.0, 8000.0)):
    """Random piecewise-constant trace with strictly increasing timestamps."""
    n = segments if segments is not None else rng.randint(2, 6)
    times = [0.0]
    for _ in range(n - 1):
        times.append(times[-1] + rng.uniform(2.0, 30.0))
    rates = [rng.uniform(*rate_range) for _ in range(n)]
    return BandwidthTrace(tuple(zip(times, rates)))


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
        trace = random_trace(rng, segments=rng.randint(2, 6), rate_range=(250.0, 7000.0))
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
