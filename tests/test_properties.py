"""Property tests: random manifests, traces and configs through the engine.

Every config that passes validation must end in a complete session or in a
truncated one, never in an exception. A complete session displays every
chunk and conserves time, and every log replays clean after a JSONL round
trip.  Scaling every rate by a power of two changes only the rates.
"""

import math
import re
from dataclasses import replace

from hypothesis import HealthCheck, example, given, reject, seed, settings
from hypothesis import strategies as st

from abrsim.abr import POLICIES
from abrsim.manifest import BitrateLadder, VideoManifest
from abrsim.simulator import JsonlWriter, SessionConfig, SessionEventLog, replay_diff, run_session
from abrsim.trace import BandwidthTrace, TraceExhaustedError, download_finish_time
from helpers import constant_trace, events, make_manifest, reference_finish_time

RATES = st.one_of(st.just(0.0), st.floats(20.0, 10000.0))


@st.composite
def manifests(draw):
    levels = draw(st.integers(2, 5))
    ladder = BitrateLadder(tuple(sorted(draw(st.lists(
        st.integers(50, 9000), min_size=levels, max_size=levels, unique=True)))))
    chunks = draw(st.integers(1, 10))
    row = st.lists(st.floats(0.3, 1.0), min_size=levels, max_size=levels)
    sizes = draw(st.none() | st.lists(
        st.lists(st.floats(1.0, 60000.0), min_size=levels, max_size=levels),
        min_size=chunks, max_size=chunks))
    return VideoManifest(
        chunk_count=chunks,
        chunk_duration_s=draw(st.sampled_from([0.5, 1.0, 2.0, 4.0])),
        ladder=ladder,
        ssim=tuple(tuple(r) for r in draw(st.lists(row, min_size=chunks, max_size=chunks))),
        chunk_kilobits=None if sizes is None else tuple(tuple(r) for r in sizes),
    )


@st.composite
def traces(draw):
    """A single sample, zero-rate holes in a finite trace, or a looping trace."""
    kind = draw(st.sampled_from(["single", "holes", "loop"]))
    if kind == "single":
        return BandwidthTrace(((0.0, draw(RATES)),))
    n = draw(st.integers(2, 6))
    times = [0.0]
    for gap in draw(st.lists(st.floats(0.1, 30.0), min_size=n - 1, max_size=n - 1)):
        times.append(times[-1] + gap)
    rates = draw(st.lists(RATES, min_size=n, max_size=n))
    if kind == "loop":
        rates[0] = draw(st.floats(20.0, 10000.0))  # the period must carry data
    return BandwidthTrace(tuple(zip(times, rates)), loop=kind == "loop")


@st.composite
def sessions(draw):
    manifest = draw(manifests())
    trace = draw(traces())
    chunk_len = manifest.chunk_duration_s
    headroom = draw(st.sampled_from([1e-9, 1e-6, 1e-3]) | st.floats(0.01, 40.0))
    capacity = chunk_len + chunk_len * headroom
    try:
        config = SessionConfig(
            policy=draw(st.sampled_from(list(POLICIES))),
            buffer_capacity_s=capacity,
            critical_threshold_s=draw(st.floats(0.0, capacity, exclude_min=True, exclude_max=True)),
            loop_trace=trace.loop,
            resume_threshold_s=draw(st.sampled_from([0.0, capacity - chunk_len])
                                    | st.floats(0.0, capacity - chunk_len)),
        )
    except ValueError:
        reject()
    return manifest, trace, config


@seed(20261018)
@settings(max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sessions())
def test_every_valid_session_completes_or_truncates(session):
    manifest, trace, config = session
    log, report = run_session(manifest, trace, config)
    kinds = [r["event"] for r in log.records]

    assert report.partial == ("session_truncated" in kinds)
    if report.partial:
        assert kinds[-1] == "session_truncated"
    else:
        assert kinds[-1] == "session_end"
        displayed = [r["chunk"] for r in events(log, "chunk_display_start")]
        assert displayed == list(range(1, manifest.chunk_count + 1))
        content_s = manifest.chunk_count * manifest.chunk_duration_s
        expected = report.startup_delay_s + content_s + report.rebuffering_total_s
        assert abs(report.wall_clock_s - expected) <= 1e-6 + 1e-9 * report.wall_clock_s

    again = SessionEventLog.from_jsonl(log.to_jsonl())
    assert again.records == log.records
    assert replay_diff(again, manifest, SessionConfig.from_header(again.header)) == []


# Hand-picked sessions the writer property must cover whatever is drawn: a
# stall on measured sizes, a stall held to a resume threshold, a truncation
# mid-stall, and a truncation before playback starts.
STALL_SIZES = ((940.0, 1500.0), (50000.0, 50001.0)) + ((940.0, 1500.0),) * 4
STALLING = make_manifest(chunks=6, rates=(235, 375), sizes=STALL_SIZES)
HELD = SessionConfig(buffer_capacity_s=20.0, critical_threshold_s=2.0, resume_threshold_s=12.0)
STALLED = (STALLING, constant_trace(10000.0), SessionConfig())
RESUMED = (STALLING, constant_trace(10000.0), HELD)
CUT_MID_STALL = (STALLING, constant_trace(10000.0, until_s=5.15), HELD)
CUT_AT_START = (make_manifest(chunks=2, rates=(235, 375)), constant_trace(100.0, until_s=5.0),
                SessionConfig(policy="festive"))


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sessions())
@example(STALLED)
@example(RESUMED)
@example(CUT_MID_STALL)
@example(CUT_AT_START)
def test_writer_sink_matches_the_event_log(session):
    manifest, trace, config = session
    log, report = run_session(manifest, trace, config)
    writer, tallied = run_session(manifest, trace, config, JsonlWriter())
    assert "".join(writer.lines) == log.to_jsonl()
    assert tallied == report


def scale_rates(manifest, trace, factor):
    """The session with every trace bandwidth, ladder rate and chunk size times `factor`."""
    sizes = manifest.chunk_kilobits
    return (replace(manifest, ladder=BitrateLadder(tuple(r * factor for r in manifest.ladder.levels_kbps)),
                    chunk_kilobits=None if sizes is None else tuple(
                        tuple(v * factor for v in row) for row in sizes)),
            replace(trace, samples=tuple((t, bw * factor) for t, bw in trace.samples)))


# Throughput lands exactly on a rung, where a rate offset by any figure in
# another unit picks another level.
ON_A_RUNG = (make_manifest(chunks=8, rates=(235, 375, 560)), constant_trace(375.0), SessionConfig())

# A truncation names the kilobits left undelivered, printed to 6 significant digits.
UNDELIVERED = re.compile(r"with (\S+) kilobits undelivered")


@seed(20261018)
@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sessions())
@example(STALLED)
@example(CUT_MID_STALL)
@example(CUT_AT_START)
@example(ON_A_RUNG)
def test_a_power_of_two_rate_scale_changes_only_the_rates(session):
    # Every rate the engine reads is a kbps figure and every time a ratio of
    # kilobits to kbps, so a power-of-two scale is exact: a units slip shared by
    # the engine and replay would show here as a changed level, time or buffer.
    manifest, trace, config = session
    log, report = run_session(manifest, trace, config)
    for factor in (2.0, 0.25):
        scaled_log, scaled_report = run_session(*scale_rates(manifest, trace, factor), config)
        assert len(scaled_log.records) == len(log.records)
        diagnostic = report.diagnostic
        for rec, scaled in zip(log.records, scaled_log.records):
            expected = dict(rec)
            for key in ("throughput_kbps", "bandwidth_estimate_kbps"):
                if key in rec:
                    expected[key] = rec[key] * factor
            if "ladder_kbps" in rec:
                expected["ladder_kbps"] = [r * factor for r in rec["ladder_kbps"]]
            undelivered = UNDELIVERED.search(rec.get("diagnostic", ""))
            if undelivered:  # a volume: it scales exactly, then each text rounds it to 6 digits
                got = UNDELIVERED.search(scaled["diagnostic"])
                assert math.isclose(float(got[1]), float(undelivered[1]) * factor, rel_tol=2e-5)
                diagnostic = expected["diagnostic"] = UNDELIVERED.sub(got[0], rec["diagnostic"])
            assert scaled == expected
        assert scaled_report == replace(report, mean_bitrate_kbps=report.mean_bitrate_kbps * factor,
                                        diagnostic=diagnostic)


@st.composite
def transfers(draw):
    """A looping or non-looping trace, a start time and a volume.

    Whole-number gaps and rates keep the arithmetic exact often enough to
    land starts on period multiples and targets on the wrap point; one draw
    in five has a negative start or a non-positive volume.
    """
    loop = draw(st.booleans())
    n = draw(st.integers(2 if loop else 1, 6))
    whole = draw(st.integers(0, 2)) == 0
    gap = st.integers(1, 30).map(float) if whole else st.floats(0.1, 30.0)
    positive = st.integers(1, 9000).map(float) if whole else st.floats(20.0, 10000.0)
    times = [0.0]
    for g in draw(st.lists(gap, min_size=n - 1, max_size=n - 1)):
        times.append(times[-1] + g)
    rates = draw(st.lists(st.just(0.0) | positive, min_size=n, max_size=n))
    if loop:
        rates[0] = draw(positive)  # the period must carry data
    trace = BandwidthTrace(tuple(zip(times, rates)), loop=loop)
    period, volume_per_period = times[-1], trace._prefix[-1]
    start = draw(st.floats(0.0, 4 * (period or 30.0))
                 | st.integers(0, 4).map(lambda k: k * period))  # exact period multiples
    volume = draw(st.floats(1e-6, 1e6)
                  | st.integers(1, 4).map(lambda k: k * volume_per_period))  # whole periods
    bad = draw(st.sampled_from([None] * 8 + ["start", "volume"]))
    if bad == "start":
        start = draw(st.floats(-10.0, -1e-9))
    elif bad == "volume":
        volume = draw(st.floats(-100.0, 0.0))
    return trace, start, volume


def _outcome(finish_time, trace, start_s, volume):
    """The finish time, or the error's type and text; floats compare with ==."""
    try:
        return "finish", finish_time(trace, start_s, volume)
    except (ValueError, TraceExhaustedError) as exc:
        return type(exc).__name__, str(exc)


WRAP_TRACE = BandwidthTrace(((0.0, 100.0), (5.0, 0.0), (10.0, 0.0)), loop=True)


@seed(20261018)
@settings(max_examples=400, deadline=None, database=None)
@given(transfers())
@example((WRAP_TRACE, 0.0, 500.0))  # lands on the wrap point: finishes at 5 s, not 10 s
@example((WRAP_TRACE, 10.0, 1000.0))  # from a period multiple onto a later one
@example((BandwidthTrace(((0.0, 3635.5), (5.3, 4731.8), (30.0, 0.0)), loop=True),
          84.1, 153.9))  # a start in a later segment of a later period, where rounding shows
@example((constant_trace(100.0, until_s=10.0), 3.0, 5000.0))  # zero tail: exhausted
@example((constant_trace(100.0), -1.0, 10.0))
@example((constant_trace(100.0), 1.0, 0.0))
def test_finish_time_matches_the_reference_bit_for_bit(transfer):
    assert _outcome(download_finish_time, *transfer) == _outcome(reference_finish_time, *transfer)
