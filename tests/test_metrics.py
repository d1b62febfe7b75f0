import random
from fractions import Fraction

import pytest

from abrsim import aggregate, session_metrics
from abrsim.metrics import (
    AGGREGATE_CSV_COLUMNS,
    SESSION_CSV_COLUMNS,
    SessionReport,
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
    with pytest.raises(ValueError) as raised:
        session_metrics(log, manifest3(1))
    assert str(raised.value) == "record 3 (playback_resume): no playback_stall is open"


def test_startup_delay_reported_separately():
    report = session_metrics(log_of([1, 1], start_s=2.5, end_s=11.0), manifest3(2))
    assert report.startup_delay_s == 2.5
    assert report.rebuffering_total_s == 0.0


@pytest.mark.parametrize("event, value, n", [
    ("playback_start", "1", 2), ("session_end", "9", 7), ("playback_stall", True, 5), ("playback_resume", True, 6),
], ids=["string-startup", "string-end", "true-stall", "true-resume"])
def test_a_time_that_is_no_number_is_named(event, value, n):
    log = log_of([1, 2], stalls=((6.0, 7.0),), end_s=9.0)
    next(r for r in log.records if r["event"] == event)["time_s"] = value
    with pytest.raises(ValueError) as raised:
        session_metrics(log, manifest3(2))
    assert str(raised.value) == f"record {n} ({event}): time_s must be a finite number, got {value!r}"


def test_a_second_session_start_is_refused():
    # It was skipped, so the report kept the first header where replay calls the log a mismatch.
    log = log_of([1, 2], end_s=9.0)
    log.records.insert(2, {**log.records[0], "policy": "bba", "buffer_capacity_s": 999.0})
    with pytest.raises(ValueError, match=r"^record 3 \(session_start\): only record 1 opens a session$"):
        session_metrics(log, manifest3(2))


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
    # A stored log is outside input: its levels are range-checked before the
    # report indexes the manifest by them, so level 0 cannot wrap to the top rung.
    for level in (0, -1, 4):
        with pytest.raises(ValueError) as raised:
            session_metrics(log_of([1, level], end_s=9.0), manifest3(2))
        assert str(raised.value) == f"record 4 (chunk_display_start): level {level} outside 1..3"


@pytest.mark.parametrize("levels, text", [
    ([1, 0], "record 4 (chunk_display_start): level 0 outside 1..3"),
    ([1, 4], "record 4 (chunk_display_start): level 4 outside 1..3"),
    ([1, 2, 3], "record 5 (chunk_display_start): chunk 3 outside 1..2"),  # one display more than chunks
    ([4, 2.0], "record 3 (chunk_display_start): level 4 outside 1..3"),  # the first display that fails
])
def test_a_level_list_failing_the_range_check_raises_the_checked_lookup_error(levels, text):
    # These raised the manifest's IndexError, which names no record and is no ValueError.
    with pytest.raises(ValueError) as raised:
        session_metrics(log_of(levels, chunk_count=2, end_s=9.0), manifest3(2))
    assert str(raised.value) == text


@pytest.mark.parametrize("level", [2.0, "2", None, True, float("nan")])
def test_a_stored_level_that_is_no_int_is_named_by_its_display(level):
    # `true` would price as level 1 and 2.0 or null would raise a bare TypeError.
    with pytest.raises(ValueError) as raised:
        session_metrics(log_of([1, 1, level], end_s=13.0), manifest3(3))
    assert str(raised.value) == f"record 5 (chunk_display_start): level must be an integer, got {level!r}"


@pytest.mark.parametrize("index, field, value, text", [
    (2, "level", None, "record 3 (chunk_display_start) lacks level"),
    (0, "chunk_count", None, "record 1 (session_start) lacks chunk_count"),
    (4, "time_s", "1", "record 5 (playback_stall): time_s must be a finite number, got '1'"),
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


@pytest.mark.parametrize("field", ["policy", "loop_trace", "buffer_capacity_s", "critical_threshold_s"])
def test_a_header_without_a_field_the_report_reads_is_named(field):
    # These raised a bare KeyError.
    log = log_of([1, 2], end_s=9.0)
    del log.header[field]
    with pytest.raises(ValueError) as raised:
        session_metrics(log, manifest3(2))
    assert str(raised.value) == f"record 1 (session_start) lacks {field}"


@pytest.mark.parametrize("field, value, text", [
    ("chunk_count", True, "chunk_count must be an integer, got True"),
    ("chunk_count", 2.5, "chunk_count must be an integer, got 2.5"),
    ("policy", 7, "policy must be a string, got 7"),
    ("loop_trace", 0, "loop_trace must be true or false, got 0"),
    ("buffer_capacity_s", "120", "buffer_capacity_s must be a finite number, got '120'"),
    ("ladder_kbps", ["x", 375.0, 560.0], "ladder_kbps[1] must be a finite number, got 'x'"),
], ids=["true-chunk-count", "fractional-chunk-count", "numeric-policy", "numeric-loop-trace", "string-capacity",
        "string-rung"])
def test_a_header_field_of_another_json_type_is_named(field, value, text):
    # `true` counted one chunk, so two displays made a complete session; 2.5 made it partial.
    log = log_of([1, 2], end_s=9.0)
    log.header[field] = value
    with pytest.raises(ValueError) as raised:
        session_metrics(log, manifest3(2))
    assert str(raised.value) == f"record 1 (session_start): {text}"


@pytest.mark.parametrize("edit, grid, text", [
    ({}, {"chunks": 5, "rates": (100.0, 200.0, 300.0)}, "chunk_count 3 is not the manifest's 5"),
    ({}, {"duration": 2.0}, "chunk_duration_s 4.0 is not the manifest's 2.0"),
    ({"chunk_duration_s": 4}, {}, "chunk_duration_s 4 is not the manifest's 4.0"),
    ({}, {"rates": (100.0, 200.0, 300.0)},
     "ladder_kbps [235.0, 375.0, 560.0] is not the manifest's [100.0, 200.0, 300.0]"),
], ids=["chunk-count", "chunk-duration", "int-chunk-duration", "ladder"])
def test_a_log_of_another_manifest_is_refused_at_its_header(edit, grid, text):
    # The levels were priced by any manifest given: this 3-chunk log on (235, 375, 560), reduced against
    # 5 chunks on (100, 200, 300), reported 100 kbps where the run gave 235, and no partial session.
    log = log_of([1, 1, 1], end_s=13.0)
    log.header.update(edit)
    grid = {"chunks": 3, "rates": LADDER3, **grid}
    with pytest.raises(ValueError) as raised:
        session_metrics(log, make_manifest(**grid, ssim=monotone_rows(grid["chunks"], 3)))
    assert str(raised.value) == f"record 1 (session_start): {text}"


def test_a_truncation_record_is_checked_against_its_row():
    log = log_of([1], chunk_count=2, truncated_s=6.0)
    del log.records[-1]["diagnostic"]
    with pytest.raises(ValueError, match=r"^record 4 \(session_truncated\) lacks diagnostic$"):
        session_metrics(log, manifest3(2))


def test_a_record_of_no_event_kind_is_named():
    # It was skipped, so the log reported complete where replay calls it a mismatch.
    log = log_of([1, 2], end_s=9.0)
    log.records.insert(2, {"event": "bogus"})
    with pytest.raises(ValueError, match=r"^record 3 \(bogus\): no such event kind$"):
        session_metrics(log, manifest3(2))


DISPLAY = {"event": "chunk_display_start", "time_s": 5.0}


@pytest.mark.parametrize("levels, display, other, display_first_text, other_first_text", [
    ([1], {**DISPLAY, "chunk": 2, "level": 0}, {"event": "session_end", "time_s": "x"},
     "record 4 (chunk_display_start): level 0 outside 1..3",
     "record 4 (session_end): time_s must be a finite number, got 'x'"),
    ([1, 2], {**DISPLAY, "chunk": 3, "level": 1}, {"event": "playback_resume", "time_s": 6.0},
     "record 5 (chunk_display_start): chunk 3 outside 1..2",
     "record 5 (playback_resume): no playback_stall is open"),
    ([1], {**DISPLAY, "chunk": 2}, {"event": "bogus"},
     "record 4 (chunk_display_start) lacks level",
     "record 4 (bogus): no such event kind"),
], ids=["level-0-and-string-end", "display-past-the-chunks-and-unmatched-resume", "display-without-level-and-bogus"])
@pytest.mark.parametrize("display_first", [True, False], ids=["display-first", "display-second"])
def test_of_two_faulty_records_the_first_is_named(levels, display, other, display_first_text, other_first_text,
                                                  display_first):
    # The log is checked in the one walk the tally reads it in, so a bad
    # display is named before a later bad record of any other kind.
    log = log_of(levels, chunk_count=2)
    log.records += [display, other] if display_first else [other, display]
    with pytest.raises(ValueError) as raised:
        session_metrics(log, manifest3(2))
    assert str(raised.value) == (display_first_text if display_first else other_first_text)


def test_of_a_display_only_the_level_is_read():
    log = log_of([1, 2], end_s=9.0)
    log.records[2]["time_s"] = "x"
    assert session_metrics(log, manifest3(2)).displayed == (1, 2)
    # A later display that fails does not bring the first one's time into the check.
    log.records[3]["level"] = 0
    with pytest.raises(ValueError) as raised:
        session_metrics(log, manifest3(2))
    assert str(raised.value) == "record 4 (chunk_display_start): level 0 outside 1..3"


def test_a_report_needs_the_session_start_record():
    log = log_of([1], end_s=5.0)
    del log.records[0]
    with pytest.raises(ValueError, match="^log does not start with a session_start record$"):
        session_metrics(log, manifest3(1))


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
            instability=float(rng.randint(0, 40)),
            mean_ssim=rng.uniform(0.7, 0.99),
            mean_bitrate_kbps=rng.uniform(235.0, 5800.0),
        )
        for _ in range(24)
    ]
    agg = aggregate(reports)
    for field, got in [
        ("rebuffering_total_s", agg.rebuffering_total_s),
        ("instability", agg.instability),
        ("mean_ssim", agg.mean_ssim),
        ("mean_bitrate_kbps", agg.mean_bitrate_kbps),
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
