import random
from fractions import Fraction

import pytest

from abrsim import aggregate, session_metrics
from abrsim.metrics import (
    AGGREGATE_CSV_COLUMNS,
    SESSION_CSV_COLUMNS,
    SessionReport,
    SessionTally,
    aggregates_csv,
    sessions_csv,
)
from abrsim.simulator import SessionEventLog
from helpers import make_manifest, monotone_rows

LADDER3 = (235.0, 375.0, 560.0)


def log_of(levels, *, chunk_count=None, stalls=(), end_s=None, truncated_s=None,
           start_s=1.0, ladder=LADDER3):
    """Assemble a synthetic event log with the given display sequence."""
    records = [{
        "event": "session_start", "policy": "sba", "policy_params": {},
        "buffer_capacity_s": 120.0, "critical_threshold_s": 12.0,
        "startup_policy": "play_after_first_chunk", "resume_threshold_s": 0.0,
        "loop_trace": False,
        "chunk_count": chunk_count if chunk_count is not None else len(levels),
        "chunk_duration_s": 4.0, "ladder_kbps": list(ladder),
    }]
    if start_s is not None:
        records.append({"event": "playback_start", "time_s": start_s})
    for i, lvl in enumerate(levels):
        records.append({
            "event": "chunk_display_start", "time_s": (start_s or 0.0) + 4.0 * i,
            "chunk": i + 1, "level": lvl,
        })
    for open_t, close_t in stalls:
        records.append({"event": "playback_stall", "time_s": open_t})
        if close_t is not None:
            records.append({"event": "playback_resume", "time_s": close_t})
    if truncated_s is not None:
        records.append({"event": "session_truncated", "time_s": truncated_s,
                        "chunk": len(levels) + 1, "diagnostic": "trace exhausted"})
    if end_s is not None:
        records.append({"event": "session_end", "time_s": end_s})
    return SessionEventLog(records)


def manifest3(chunks):
    return make_manifest(chunks=chunks, rates=LADDER3, ssim=monotone_rows(chunks, 3))


def report_of(**kwargs):
    base = dict(policy="sba", buffer_capacity_s=120.0, critical_threshold_s=12.0,
                loop_trace=False, trace_label="t", startup_delay_s=1.0,
                rebuffering_total_s=0.0, rebuffer_count=0, instability=0.0,
                mean_ssim=0.9, mean_bitrate_kbps=1000.0, displayed=(),
                wall_clock_s=100.0, partial=False, diagnostic="")
    base.update(kwargs)
    return SessionReport(**base)


# --- session_metrics ---


def test_instability_counts_switches():
    levels = [1, 1, 3, 3, 1]
    report = session_metrics(log_of(levels, end_s=21.0), manifest3(5))
    assert report.instability == 2.0
    assert report.mean_bitrate_kbps == (235.0 * 3 + 560.0 * 2) / 5


def test_mean_ssim_over_displayed_chunks():
    rows = ((0.9, 0.95), (0.95, 0.96), (1.0, 1.0))
    manifest = make_manifest(chunks=3, rates=(235, 375), ssim=rows)
    report = session_metrics(log_of([1, 1, 1], ladder=(235.0, 375.0), end_s=13.0), manifest)
    assert report.mean_ssim == pytest.approx(0.95)


def test_stalls_pair_up():
    log = log_of([1, 1, 1], stalls=((10.0, 12.0), (20.0, 23.0)), end_s=30.0)
    report = session_metrics(log, manifest3(3))
    assert report.rebuffering_total_s == pytest.approx(5.0)
    assert report.rebuffer_count == 2
    assert report.partial is False


def test_open_stall_closed_at_truncation():
    log = log_of([1, 1], chunk_count=4, stalls=((10.0, None),), truncated_s=15.0)
    report = session_metrics(log, manifest3(4))
    assert report.rebuffering_total_s == pytest.approx(5.0)
    assert report.rebuffer_count == 1
    assert report.partial is True
    assert report.wall_clock_s == 15.0
    assert report.diagnostic == "trace exhausted"


def test_open_stall_without_truncation_counts_zero_span():
    log = log_of([1], chunk_count=2, stalls=((10.0, None),))
    report = session_metrics(log, manifest3(2))
    assert report.rebuffering_total_s == 0.0
    assert report.rebuffer_count == 1
    assert report.partial is True
    assert report.wall_clock_s is None


def test_resume_without_stall_rejected():
    log = log_of([1], end_s=5.0)
    log.records.insert(2, {"event": "playback_resume", "time_s": 2.0})
    with pytest.raises(ValueError, match="playback_resume"):
        session_metrics(log, manifest3(1))


def test_startup_delay_reported_separately():
    report = session_metrics(log_of([1, 1], start_s=2.5, end_s=11.0), manifest3(2))
    assert report.startup_delay_s == 2.5
    assert report.rebuffering_total_s == 0.0


def test_short_display_run_is_partial():
    log = log_of([1, 1, 1], chunk_count=5, end_s=13.0)
    report = session_metrics(log, manifest3(5))
    assert report.partial is True


def test_no_displays_yields_zero_means():
    log = log_of([], chunk_count=2)
    report = session_metrics(log, manifest3(2))
    assert report.mean_ssim == 0.0
    assert report.mean_bitrate_kbps == 0.0
    assert report.displayed == ()
    assert report.partial is True


def test_metrics_needs_session_start():
    bare = SessionEventLog([{"event": "playback_start", "time_s": 0.0}])
    with pytest.raises(ValueError, match="session_start"):
        session_metrics(bare, manifest3(1))


def test_stored_log_levels_stay_checked():
    # A stored log is outside input: the reducer prices its levels with the
    # manifest's checked lookups, so level 0 cannot wrap to the top rung.
    for level in (0, -1, 4):
        with pytest.raises(IndexError, match=f"level {level} outside 1..3"):
            session_metrics(log_of([1, level], end_s=9.0), manifest3(2))


@pytest.mark.parametrize("levels, error, text", [
    ([1, 0], IndexError, "level 0 outside 1..3"),
    ([1, 4], IndexError, "level 4 outside 1..3"),
    ([1, 2, 3], IndexError, "chunk 3 outside 1..2"),  # one display more than the manifest has chunks
])
def test_a_level_list_failing_the_range_check_raises_the_checked_lookup_error(levels, error, text):
    with pytest.raises(error) as raised:
        session_metrics(log_of(levels, end_s=9.0), manifest3(2))
    assert str(raised.value) == text


@pytest.mark.parametrize("level", [2.0, "2", None, True, float("nan")])
def test_a_stored_level_that_is_no_int_is_named_by_its_display(level):
    # `true` would price as level 1 and 2.0 or null would raise a bare TypeError.
    with pytest.raises(ValueError) as raised:
        session_metrics(log_of([1, 1, level], end_s=13.0), manifest3(3))
    assert str(raised.value) == f"display 3 has level {level!r}, not an integer"


@pytest.mark.parametrize("index, field, value, text", [
    (2, "level", None, "record 3 (chunk_display_start) lacks level"),
    (0, "chunk_count", None, "record 1 (session_start) lacks chunk_count"),
    (4, "time_s", "1", "record 5 (playback_stall) has time_s '1', not a number"),
], ids=["display-without-level", "header-without-chunk-count", "stall-time-a-string"])
def test_a_stored_record_the_tally_cannot_read_is_named(index, field, value, text):
    # These raised a bare KeyError or TypeError naming no record.
    log = log_of([1, 2], stalls=[(5.0, 6.0)], end_s=9.0)
    if value is None:
        del log.records[index][field]
    else:
        log.records[index][field] = value
    with pytest.raises(ValueError) as raised:
        session_metrics(log, manifest3(2))
    assert str(raised.value) == text


def test_a_report_needs_the_session_start_record():
    with pytest.raises(ValueError, match="^log does not start with a session_start record$"):
        SessionTally().report(manifest3(1))


def test_displayed_holds_the_levels_that_price_the_means():
    manifest = manifest3(2)
    report = session_metrics(log_of([1, 3], end_s=9.0), manifest)
    assert report.displayed == (1, 3)
    rates = [manifest.ladder.levels_kbps[level - 1] for level in report.displayed]
    ssims = [manifest.ssim[i][level - 1] for i, level in enumerate(report.displayed)]
    assert (rates, ssims) == ([235.0, 560.0], [0.75, 0.98])
    assert report.mean_bitrate_kbps == (235.0 + 560.0) / 2
    assert report.mean_ssim == (0.75 + 0.98) / 2


# --- aggregate ---


def test_aggregate_means_fields():
    reports = [report_of(rebuffering_total_s=0.0, instability=2.0),
               report_of(rebuffering_total_s=10.0, instability=4.0)]
    agg = aggregate(reports)
    assert agg.session_count == 2
    assert agg.rebuffering_total_s == 5.0
    assert agg.instability == 3.0


def test_aggregate_single_report_is_identity():
    r = report_of(rebuffering_total_s=1.25, instability=7.0, mean_ssim=0.875,
                  mean_bitrate_kbps=2350.0)
    agg = aggregate([r])
    assert agg.rebuffering_total_s == 1.25
    assert agg.instability == 7.0
    assert agg.mean_ssim == 0.875
    assert agg.mean_bitrate_kbps == 2350.0


def test_aggregate_excludes_partial_by_default():
    ok = report_of(rebuffering_total_s=2.0)
    broken = report_of(rebuffering_total_s=100.0, partial=True)
    assert aggregate([ok, broken]).rebuffering_total_s == 2.0


def test_aggregate_rejects_mixed_configurations():
    with pytest.raises(ValueError, match="mixed"):
        aggregate([report_of(), report_of(buffer_capacity_s=240.0)])
    with pytest.raises(ValueError, match="mixed"):
        aggregate([report_of(), report_of(policy="bba")])


def test_aggregate_rejects_empty_pool():
    with pytest.raises(ValueError, match="no reports"):
        aggregate([])
    with pytest.raises(ValueError, match="no reports"):
        aggregate([report_of(partial=True)])


def test_aggregate_matches_exact_means():
    rng = random.Random(7)
    reports = [
        report_of(
            rebuffering_total_s=rng.uniform(0.0, 30.0),
            rebuffer_count=rng.randint(0, 9),
            instability=float(rng.randint(0, 40)),
            mean_ssim=rng.uniform(0.7, 0.99),
            mean_bitrate_kbps=rng.uniform(235.0, 5800.0),
            startup_delay_s=rng.uniform(0.1, 3.0),
        )
        for _ in range(24)
    ]
    agg = aggregate(reports)
    for field, got in [
        ("rebuffering_total_s", agg.rebuffering_total_s),
        ("rebuffer_count", agg.rebuffer_count),
        ("instability", agg.instability),
        ("mean_ssim", agg.mean_ssim),
        ("mean_bitrate_kbps", agg.mean_bitrate_kbps),
        ("startup_delay_s", agg.startup_delay_s),
    ]:
        exact = sum(Fraction(getattr(r, field)) for r in reports) / 24
        assert abs(Fraction(got) - exact) <= abs(exact) * Fraction(1, 10**12)


# --- csv emission ---


def test_sessions_csv_layout():
    r = report_of(trace_label="t01", rebuffering_total_s=2.5, instability=3.0,
                  mean_ssim=0.9375, mean_bitrate_kbps=1000.0)
    text = sessions_csv([r])
    lines = text.splitlines()
    assert lines[0] == ",".join(SESSION_CSV_COLUMNS)
    assert lines[1] == "t01,sba,120,12,2.5,3,0.9375,1000,0"
    partial = report_of(trace_label="t02", partial=True)
    assert sessions_csv([partial]).splitlines()[1].endswith(",1")


def test_aggregates_csv_layout():
    agg = aggregate([report_of(rebuffering_total_s=1.0, instability=2.0,
                               mean_ssim=0.925, mean_bitrate_kbps=3000.0)])
    lines = aggregates_csv([agg]).splitlines()
    assert lines[0] == ",".join(AGGREGATE_CSV_COLUMNS)
    assert lines[1] == "sba,120,12,1,2,0.925,3000"


def test_csv_columns_are_stable():
    assert AGGREGATE_CSV_COLUMNS == (
        "policy", "BS", "Lc", "rebuffering_s", "instability", "mean_ssim",
        "mean_bitrate_kbps",
    )
    assert SESSION_CSV_COLUMNS == ("trace",) + AGGREGATE_CSV_COLUMNS + ("partial",)
