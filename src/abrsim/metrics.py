"""Quality-of-experience reports, their aggregates and their CSV files.

`abrsim.simulator.SessionTally`, beside the event table it reads, reduces
one session's events to a SessionReport.  Four headline metrics per session:

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
