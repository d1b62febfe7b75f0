"""Quality-of-experience metrics computed from session event logs.

Four headline metrics per session:

* rebuffering_total_s - wall time spent in mid-session stalls.  The startup
  delay (first fetch to first displayed frame) is reported separately and
  never counted as rebuffering.
* instability - number of level switches between consecutively displayed
  chunks.
* mean_ssim - mean SSIM over displayed chunks at their fetched levels.
* mean_bitrate_kbps - mean ladder bitrate over displayed chunks.

Aggregates are field-wise arithmetic means over sessions of one policy and
scenario.  Truncated sessions are flagged partial and excluded.
HEADLINE_METRICS is the one list of the four that every CSV, plot file and
comparison table is built from.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .estimators import mean
from .manifest import VideoManifest


@dataclass(frozen=True)
class SessionReport:
    policy: str
    buffer_capacity_s: float
    critical_threshold_s: float
    loop_trace: bool
    trace_label: str
    startup_delay_s: float | None
    rebuffering_total_s: float
    rebuffer_count: int
    instability: float
    mean_ssim: float
    mean_bitrate_kbps: float
    displayed: tuple[tuple[int, float, float], ...]  # (level, ssim, bitrate) per chunk
    wall_clock_s: float | None
    partial: bool
    diagnostic: str


@dataclass(frozen=True)
class AggregateReport:
    policy: str
    buffer_capacity_s: float
    critical_threshold_s: float
    loop_trace: bool
    session_count: int
    rebuffering_total_s: float
    rebuffer_count: float
    instability: float
    mean_ssim: float
    mean_bitrate_kbps: float
    startup_delay_s: float


def session_metrics(log, manifest: VideoManifest) -> SessionReport:
    """Reduce one event log to a SessionReport."""
    records = log.records
    if not records or records[0].get("event") != "session_start":
        raise ValueError("log does not start with a session_start record")
    header = records[0]

    displayed_levels: list[int] = []
    startup: float | None = None
    end_time: float | None = None
    truncated_at: float | None = None
    diagnostic = ""
    stall_open: float | None = None
    stall_total = 0.0
    stall_count = 0
    for rec in records[1:]:
        kind = rec["event"]
        if kind == "chunk_display_start":
            displayed_levels.append(rec["level"])
        elif kind == "playback_start":
            startup = rec["time_s"]
        elif kind == "playback_stall":
            stall_open = rec["time_s"]
        elif kind == "playback_resume":
            if stall_open is None:
                raise ValueError("playback_resume without an open stall")
            stall_total += rec["time_s"] - stall_open
            stall_count += 1
            stall_open = None
        elif kind == "session_end":
            end_time = rec["time_s"]
        elif kind == "session_truncated":
            truncated_at = rec["time_s"]
            diagnostic = rec.get("diagnostic", "")
    if stall_open is not None:
        # Session cut off mid-stall; count the open interval up to the cut.
        cut = truncated_at if truncated_at is not None else stall_open
        stall_total += cut - stall_open
        stall_count += 1

    partial = truncated_at is not None or end_time is None
    partial = partial or len(displayed_levels) < header["chunk_count"]

    ssims = [manifest.ssim_at(i + 1, lvl) for i, lvl in enumerate(displayed_levels)]
    rates = [manifest.ladder.rate_kbps(lvl) for lvl in displayed_levels]
    instability = float(
        sum(1 for a, b in zip(displayed_levels, displayed_levels[1:]) if a != b)
    )
    return SessionReport(
        policy=header["policy"],
        buffer_capacity_s=header["buffer_capacity_s"],
        critical_threshold_s=header["critical_threshold_s"],
        loop_trace=header["loop_trace"],
        trace_label="",
        startup_delay_s=startup,
        rebuffering_total_s=stall_total,
        rebuffer_count=stall_count,
        instability=instability,
        mean_ssim=mean(ssims),
        mean_bitrate_kbps=mean(rates),
        displayed=tuple(
            (lvl, ssims[i], rates[i]) for i, lvl in enumerate(displayed_levels)
        ),
        wall_clock_s=end_time if end_time is not None else truncated_at,
        partial=partial,
        diagnostic=diagnostic,
    )


def aggregate(reports) -> AggregateReport:
    """Field-wise mean over the complete sessions of one policy and scenario."""
    pool = [r for r in reports if not r.partial]
    if not pool:
        raise ValueError("no reports to aggregate")
    keys = {(r.policy, r.buffer_capacity_s, r.critical_threshold_s, r.loop_trace) for r in pool}
    if len(keys) > 1:
        raise ValueError(f"refusing to aggregate across mixed configurations: {sorted(keys)}")
    sample = pool[0]
    return AggregateReport(
        policy=sample.policy,
        buffer_capacity_s=sample.buffer_capacity_s,
        critical_threshold_s=sample.critical_threshold_s,
        loop_trace=sample.loop_trace,
        session_count=len(pool),
        rebuffering_total_s=mean(r.rebuffering_total_s for r in pool),
        rebuffer_count=mean(r.rebuffer_count for r in pool),
        instability=mean(r.instability for r in pool),
        mean_ssim=mean(r.mean_ssim for r in pool),
        mean_bitrate_kbps=mean(r.mean_bitrate_kbps for r in pool),
        startup_delay_s=mean(r.startup_delay_s or 0.0 for r in pool),
    )


class Metric(NamedTuple):
    column: str  # CSV column and comparison-table heading
    attr: str  # SessionReport and AggregateReport field
    plot: str  # plots/<plot>.csv
    best: Callable  # min or max: which value the comparison table marks
    fmt: str  # comparison-table format


HEADLINE_METRICS = (
    Metric("rebuffering_s", "rebuffering_total_s", "rebuffering", min, "{:.3f}"),
    Metric("instability", "instability", "instability", min, "{:.3f}"),
    Metric("mean_ssim", "mean_ssim", "mean_ssim", max, "{:.4f}"),
    Metric("mean_bitrate_kbps", "mean_bitrate_kbps", "mean_bitrate", max, "{:.3f}"),
)
AGGREGATE_CSV_COLUMNS = ("policy", "BS", "Lc") + tuple(m.column for m in HEADLINE_METRICS)
SESSION_CSV_COLUMNS = ("trace",) + AGGREGATE_CSV_COLUMNS + ("partial",)


def sessions_csv(reports) -> str:
    """One CSV row per session, traces identified by label."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SESSION_CSV_COLUMNS)
    for r in reports:
        writer.writerow([r.trace_label, *_row(r), int(r.partial)])
    return out.getvalue()


def aggregates_csv(aggregates) -> str:
    """One CSV row per policy and scenario."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(AGGREGATE_CSV_COLUMNS)
    for a in aggregates:
        writer.writerow(_row(a))
    return out.getvalue()


def _row(report) -> list:
    """Policy, scenario and headline metrics of one session or aggregate."""
    head = [report.policy, _num(report.buffer_capacity_s), _num(report.critical_threshold_s)]
    return head + [_num(getattr(report, m.attr)) for m in HEADLINE_METRICS]


def _num(value: float) -> str:
    # repr keeps full precision and round-trips, so re-runs emit identical bytes
    if value == int(value):
        return str(int(value))
    return repr(value)
