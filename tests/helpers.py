"""Shared builders for the test suite."""

import random

from abrsim.abr import POLICIES, Observation
from abrsim.manifest import NETFLIX_LADDER_KBPS, BitrateLadder, VideoManifest
from abrsim.simulator import SessionConfig, run_session
from abrsim.trace import BandwidthTrace


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
