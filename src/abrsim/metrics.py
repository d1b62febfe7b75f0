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

    `record` takes every record: a display adds its level, and the header and
    the playback, stall, end and truncation records their times; fetches and
    completions carry nothing the report needs.  `report` rejects a level
    that is no int (a stored log is outside input), naming its display, and
    prices the levels by direct indexing once their min and max lie in 1..R;
    a list that fails that or the indexing goes through the manifest's
    checked lookups, which word the error.  A stall time `record` subtracts,
    or a time `report` stores, that is no number (a bool is none) raises
    TypeError, whose record `session_metrics` names.
    """

    def __init__(self) -> None:
        self.header: dict | None = None
        self.levels: list[int] = []
        self.startup = self.end_time = self.truncated_at = self.stall_open = None  # times in s
        self.diagnostic = ""
        self.stall_total, self.stall_count = 0.0, 0

    def record(self, rec: dict) -> None:
        kind = rec["event"]
        if kind == "chunk_display_start":
            self.levels.append(rec["level"])
        elif kind == "session_start" and self.header is None:
            self.header = rec
        elif kind == "playback_start":
            self.startup = rec["time_s"]
        elif kind == "playback_stall":
            self.stall_open = rec["time_s"]
        elif kind == "playback_resume":
            if self.stall_open is None:
                raise ValueError("playback_resume without an open stall")
            resumed = rec["time_s"]
            if not {type(resumed), type(self.stall_open)} <= {int, float}:  # a bool is no number
                raise TypeError("a stall time is no number")
            self.stall_total += resumed - self.stall_open
            self.stall_count += 1
            self.stall_open = None
        elif kind == "session_end":
            self.end_time = rec["time_s"]
        elif kind == "session_truncated":
            self.truncated_at = rec["time_s"]
            self.diagnostic = rec.get("diagnostic", "")

    def report(self, manifest: VideoManifest) -> SessionReport:
        header = self.header
        if header is None:
            raise ValueError("log does not start with a session_start record")
        times = (self.startup, self.end_time, self.truncated_at, self.stall_open)
        if not {*map(type, times)} <= {int, float, type(None)}:  # a bool is no number
            raise TypeError("a stored time is no number")
        stall_total, stall_count = self.stall_total, self.stall_count
        if self.stall_open is not None:
            # Session cut off mid-stall; count the open interval up to the cut.
            cut = self.truncated_at if self.truncated_at is not None else self.stall_open
            stall_total += cut - self.stall_open
            stall_count += 1
        levels = self.levels
        partial = (self.truncated_at is not None or self.end_time is None
                   or len(levels) < header["chunk_count"])
        if not {*map(type, levels)} <= {int}:  # a bool is no level
            i = next(i for i, lvl in enumerate(levels, start=1) if type(lvl) is not int)
            raise ValueError(f"display {i} has level {levels[i - 1]!r}, not an integer")
        ladder = manifest.ladder
        try:
            if levels and not 1 <= min(levels) <= max(levels) <= ladder.count:
                raise IndexError  # level 0 would wrap to the top rung
            ssim, levels_kbps = manifest.ssim, ladder.levels_kbps
            ssims = [ssim[i][lvl - 1] for i, lvl in enumerate(levels)]  # a display past the last chunk raises
            rates = [levels_kbps[lvl - 1] for lvl in levels]
        except IndexError:  # the checked lookups raise, naming the chunk or level out of range
            ssims = [manifest.ssim_at(i, lvl) for i, lvl in enumerate(levels, start=1)]
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


# The field of each kind of stored record on which a SessionTally can trip; all but a level are numbers.
_TALLIED = {"session_start": "chunk_count", "chunk_display_start": "level", **dict.fromkeys(
    ("playback_start", "playback_stall", "playback_resume", "session_end", "session_truncated"), "time_s")}


def session_metrics(log, manifest: VideoManifest) -> SessionReport:
    """Reduce one stored event log to a SessionReport through a SessionTally."""
    log.header  # raises LogFormatError, a ValueError, unless the log opens with session_start
    records = log.records
    tally = SessionTally()
    record = tally.record
    try:
        for rec in records:
            record(rec)
        return tally.report(manifest)
    except (KeyError, TypeError):  # name the first record (counted from 1) whose field the tally cannot read
        for n, rec in enumerate(records, start=1):
            name = _TALLIED.get(rec.get("event"))
            if name and (name not in rec or name != "level" and type(rec[name]) not in (int, float)):
                what = f"has {name} {rec[name]!r}, not a number" if name in rec else f"lacks {name}"
                raise ValueError(f"record {n} ({rec['event']}) {what}") from None
        raise


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
