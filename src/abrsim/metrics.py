"""Quality-of-experience metrics computed from session events.

Four headline metrics per session:

* rebuffering_total_s - wall time spent in mid-session stalls.  The startup
  delay (first fetch to first displayed frame) is never counted as
  rebuffering; it is the report field `startup_delay_s`, which no CSV, plot
  or table prints.
* instability - number of level switches between consecutively displayed
  chunks.
* mean_ssim - mean SSIM over displayed chunks at their fetched levels.
* mean_bitrate_kbps - mean ladder bitrate over displayed chunks.

Aggregates are the arithmetic means of the four over the sessions of one
policy and scenario.  Truncated sessions are flagged partial and excluded.
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
    displayed: tuple[int, ...]  # level per displayed chunk; its SSIM and rate are manifest lookups
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
    instability: float
    mean_ssim: float
    mean_bitrate_kbps: float


class SessionTally:
    """Online reduction of one session's event records to a SessionReport.

    Its feeder appends each displayed level to `levels` and passes every
    record that is not per-chunk to `record`, which keeps the header and the
    playback, stall, end and truncation times.  It checks nothing: a
    JsonlWriter feeds it what the engine builds, and `session_metrics` a
    stored log once it opens with a header, its records fit their EVENTS
    rows, each resume closes a stall, and each level is an int in 1..R on
    one of the manifest's chunks, so `report` prices them by direct indexing.
    """

    def __init__(self) -> None:
        self.header: dict | None = None
        self.levels: list[int] = []
        self.startup = self.end_time = self.truncated_at = self.stall_open = None  # times in s
        self.diagnostic = ""
        self.stall_total, self.stall_count = 0.0, 0

    def record(self, rec: dict) -> None:
        kind = rec["event"]
        if kind == "session_start" and self.header is None:
            self.header = rec
        elif kind == "playback_start":
            self.startup = rec["time_s"]
        elif kind == "playback_stall":
            self.stall_open = rec["time_s"]
        elif kind == "playback_resume":
            self.stall_total += rec["time_s"] - self.stall_open
            self.stall_count += 1
            self.stall_open = None
        elif kind == "session_end":
            self.end_time = rec["time_s"]
        elif kind == "session_truncated":
            self.truncated_at = rec["time_s"]
            self.diagnostic = rec["diagnostic"]

    def report(self, manifest: VideoManifest) -> SessionReport:
        header = self.header
        stall_total, stall_count = self.stall_total, self.stall_count
        if self.stall_open is not None:
            # Session cut off mid-stall; count the open interval up to the cut.
            cut = self.truncated_at if self.truncated_at is not None else self.stall_open
            stall_total += cut - self.stall_open
            stall_count += 1
        levels = self.levels
        partial = (self.truncated_at is not None or self.end_time is None
                   or len(levels) < header["chunk_count"])
        ssim, levels_kbps = manifest.ssim, manifest.ladder.levels_kbps
        ssims = [ssim[i][lvl - 1] for i, lvl in enumerate(levels)]
        rates = [levels_kbps[lvl - 1] for lvl in levels]
        return SessionReport(
            policy=header["policy"],
            buffer_capacity_s=header["buffer_capacity_s"],
            critical_threshold_s=header["critical_threshold_s"],
            loop_trace=header["loop_trace"],
            trace_label="",
            startup_delay_s=self.startup,
            rebuffering_total_s=stall_total,
            rebuffer_count=stall_count,
            instability=float(sum(1 for a, b in zip(levels, levels[1:]) if a != b)),
            mean_ssim=mean(ssims),
            mean_bitrate_kbps=mean(rates),
            displayed=tuple(levels),
            wall_clock_s=self.end_time if self.end_time is not None else self.truncated_at,
            partial=partial,
            diagnostic=self.diagnostic,
        )


def aggregate(reports) -> AggregateReport:
    """Headline-metric means over the complete sessions of one policy and scenario."""
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
        **{m.attr: mean(getattr(r, m.attr) for r in pool) for m in HEADLINE_METRICS},
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
    return _csv(SESSION_CSV_COLUMNS, ([r.trace_label, *_row(r), int(r.partial)] for r in reports))


def aggregates_csv(aggregates) -> str:
    """One CSV row per policy and scenario."""
    return _csv(AGGREGATE_CSV_COLUMNS, (_row(a) for a in aggregates))


def _csv(columns, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
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
