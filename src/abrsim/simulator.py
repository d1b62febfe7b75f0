"""Deterministic single-client session engine.

The engine plays one video session against one bandwidth trace with one
chunk download in flight at a time and a drain-while-playing buffer.  Every
event is resolved analytically (no fixed timestep), one pass per chunk:

1. If the buffer lacks more than one chunk of headroom, wait for the instant
   it drains back to that bound.
2. Decide the chunk's level (chunk 1 at the startup level) and fetch it.  An
   estimate out of the float range, or a trace that cannot deliver, truncates.
3. If the buffer empties before the download lands, playback stalls.
4. The download completes: the buffer gains one chunk duration and the
   throughput sample is recorded.  Playback starts with chunk 1; a stall
   ends at the first completion that brings the buffer to the resume
   threshold (0 by default, so the next completion) or delivers the last
   chunk, since no later download could fill the buffer further.

The buffer drains one second of content per second of wall clock while
playing; after the last chunk it drains out and the session ends.

Each event goes once, as it happens, to a sink: a SessionEventLog keeps the
records (JSON Lines on disk, fixed field order), and a JsonlWriter encodes
each line and tallies the report in the same call.  EVENTS is the one schema
of all nine record kinds.  Both sinks' per-chunk methods are compiled from it,
and `check_record` checks a stored record against it in `json_value`'s one
wording (`record 7 (playback_stall): time_s must be a finite number, got 'x'`,
`record 1 (session_start) lacks policy`) wherever a stored log is read; a log
opens only through `open_log`, which also holds its header to the manifest's
grid.  A SessionTally reduces the records to a report; `session_metrics` feeds
one a stored log in one walk that checks each record as the tally reads it.
`replay_diff` re-runs the engine once to verify that every value a log
records (decisions, estimates, buffer levels, event times) is reproduced
exactly.  A third sink feeds it each logged completion time as it reaches
that chunk, with no separate walk of the log, compares each event with the
logged record as the engine emits it and keeps all from the first mismatch.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import MISSING, dataclass, field, fields
from itertools import islice
from operator import itemgetter

from .abr import Observation, decide, make_policy
from .estimators import mean
from .manifest import VideoManifest, json_value, parse_json, read_text, write_text_atomically
from .metrics import SessionReport
from .trace import BandwidthTrace, TraceExhaustedError, download_finish_time

# The scanner of a whole log decoded in one call: its key memo lasts one call,
# so all the log's records share it.
_scan_once = json.JSONDecoder().scan_once
_ascii_str = json.encoder.encode_basestring_ascii
# Two objects on one line, which a whole-file decode would split into two records.
_objects_on_one_line = re.compile(r"\}[ \t\r]*,[ \t\r]*\{").search
_event_of = itemgetter("event")


@dataclass(frozen=True)
class SessionConfig:
    policy: str = "sba"
    buffer_capacity_s: float = 120.0
    critical_threshold_s: float = 12.0
    loop_trace: bool = False
    policy_params: dict = field(default_factory=dict)
    resume_threshold_s: float = 0.0

    def __post_init__(self) -> None:
        # Each field but `policy` has its default's JSON type; checked, not converted, as a header echoes it.
        for f in fields(self)[1:]:
            like = f.default if f.default_factory is MISSING else f.default_factory()
            json_value(getattr(self, f.name), like, f.name)
        make_policy(self.policy, self.policy_params)  # raises on an unknown id or bad parameters
        if not 0.0 < self.critical_threshold_s < self.buffer_capacity_s:
            raise ValueError(
                f"need 0 < critical threshold < buffer capacity, got "
                f"{self.critical_threshold_s} vs {self.buffer_capacity_s}"
            )
        if self.resume_threshold_s < 0:
            raise ValueError(f"resume threshold must be >= 0, got {self.resume_threshold_s}")


# The one schema of the event records: each kind's fields after "event", in order, each with an
# example of its JSON type (`json_value`'s `like`).  `check_record` checks a stored record against
# its row; both sinks' `fetch`, `complete` and `display` are compiled at import from the rows
# SINK_METHODS names.
EVENTS = {
    "session_start": (("policy", ""), ("policy_params", {}), ("buffer_capacity_s", 0.0),
                      ("critical_threshold_s", 0.0), ("startup_policy", ""), ("resume_threshold_s", 0.0),
                      ("loop_trace", False), ("chunk_count", 0), ("chunk_duration_s", 0.0), ("ladder_kbps", [0.0])),
    "fetch_issued": (("time_s", 0.0), ("chunk", 0), ("level", 0), ("buffer_s", 0.0),
                     ("bandwidth_estimate_kbps", 0.0), ("ssim_delta_mean", 0.0), ("reason", "")),
    "download_complete": (("time_s", 0.0), ("chunk", 0), ("throughput_kbps", 0.0)),
    "playback_start": (("time_s", 0.0),),
    "chunk_display_start": (("time_s", 0.0), ("chunk", 0), ("level", 0)),
    "playback_stall": (("time_s", 0.0),),
    "playback_resume": (("time_s", 0.0),),
    "session_end": (("time_s", 0.0),),
    "session_truncated": (("time_s", 0.0), ("chunk", 0), ("diagnostic", "")),
}
SINK_METHODS = {"fetch": "fetch_issued", "complete": "download_complete", "display": "chunk_display_start"}


def check_record(rec: dict, n: int) -> None:
    """Raise a ValueError unless stored record `n` (counted from 1) has every field of its
    EVENTS row with that field's JSON type, as `json_value` words it."""
    kind = rec["event"]
    row = EVENTS[kind]
    try:  # the record's name is only formatted for an error
        for name, like in row:
            json_value(rec[name], like, name)
    except KeyError:
        raise ValueError(f"record {n} ({kind}) lacks {name}") from None
    except ValueError as exc:
        raise ValueError(f"record {n} ({kind}): {exc}") from None


def open_log(log: SessionEventLog, manifest: VideoManifest) -> SessionConfig:
    """The config a stored log's header holds, once it fits its EVENTS row and the manifest's grid."""
    header = log.header
    check_record(header, 1)
    for name, value in (("chunk_count", manifest.chunk_count), ("chunk_duration_s", manifest.chunk_duration_s),
                        ("ladder_kbps", list(manifest.ladder.levels_kbps))):
        if not _same(header[name], value):
            raise ValueError(f"record 1 (session_start): {name} {header[name]!r} is not the manifest's {value!r}")
    return SessionConfig(**{f.name: header[f.name] for f in fields(SessionConfig)})


_TALLIED = EVENTS.keys() - SINK_METHODS.values() - {"session_start"}  # the kinds `SessionTally.record` reads


class SessionTally:
    """Online reduction of one session's event records to a SessionReport.

    Its feeder appends each displayed level to `levels` and passes every
    record of a _TALLIED kind to `record`, which keeps the playback, stall,
    end and truncation times.  It checks nothing; `report` takes the config
    and prices the levels by direct indexing: a JsonlWriter feeds it what
    the engine builds, and `session_metrics` what it has checked.
    """

    def __init__(self) -> None:
        self.levels: list[int] = []
        self.startup = self.end_time = self.truncated_at = self.stall_open = None  # times in s
        self.diagnostic = ""
        self.stall_total, self.stall_count = 0.0, 0

    def record(self, rec: dict) -> None:
        kind = rec["event"]
        if kind == "playback_start":
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

    def report(self, config: SessionConfig, manifest: VideoManifest) -> SessionReport:
        stall_total, stall_count = self.stall_total, self.stall_count
        if self.stall_open is not None:
            # Session cut off mid-stall; count the open interval up to the cut.
            cut = self.truncated_at if self.truncated_at is not None else self.stall_open
            stall_total += cut - self.stall_open
            stall_count += 1
        levels = self.levels
        ssim, levels_kbps = manifest.ssim, manifest.ladder.levels_kbps
        ssims = [ssim[i][lvl - 1] for i, lvl in enumerate(levels)]
        rates = [levels_kbps[lvl - 1] for lvl in levels]
        return SessionReport(
            policy=config.policy,
            buffer_capacity_s=config.buffer_capacity_s,
            critical_threshold_s=config.critical_threshold_s,
            loop_trace=config.loop_trace,
            trace_label="",
            startup_delay_s=self.startup,
            rebuffering_total_s=stall_total,
            rebuffer_count=stall_count,
            instability=float(sum(1 for a, b in zip(levels, levels[1:]) if a != b)),
            mean_ssim=mean(ssims),
            mean_bitrate_kbps=mean(rates),
            displayed=tuple(levels),
            wall_clock_s=self.end_time if self.end_time is not None else self.truncated_at,
            partial=self.truncated_at is not None or self.end_time is None or len(levels) < manifest.chunk_count,
            diagnostic=self.diagnostic,
        )


def _chunk_event_methods(body: str, tails: dict) -> list:
    """One function per SINK_METHODS row, compiled as `collections.namedtuple` builds
    its methods: from `body` formatted with the row's `args`, its record as a dict
    literal, an f-string `template` writing `json.dumps`'s bytes for it, the `guard`
    that the template fits (exact types, finite floats), the test `differs` that a
    record `r` is not that dict (`!=` on its size, kind and each field, or a field
    of another JSON type) and `tails[method]`."""
    source = []
    for method, kind in SINK_METHODS.items():
        fields = [(name, type(like)) for name, like in EVENTS[kind]]
        names = [name for name, _ in fields]
        by_type = {typ: [name for name, t in fields if t is typ] for typ in (float, int, str)}
        guard = [" is ".join([f"type({name})" for name in group] + [typ.__name__])
                 for typ, group in by_type.items() if group] + [f"_isfinite({' + '.join(by_type[float])})"]
        value = {name: f"{{_ascii_str({name})}}" if typ is str else f"{{{name}!r}}" for name, typ in fields}
        pairs = [f'"event": "{kind}"'] + [f'"{name}": {{}}' for name in names]
        differs = [f"len(r) != {len(fields) + 1}", f'r["event"] != "{kind}"'] + [
            f'(v := r["{name}"]) != {name} or type(v) is not {typ.__name__}' for name, typ in fields]
        source.append(body.format(
            method=method, args=", ".join(names), guard=" and ".join(guard), tail=tails.get(method, ""),
            differs=" or ".join(differs),
            record="{" + ", ".join(pairs).format(*names) + "}",
            template="f'{{" + ", ".join(pairs).format(*value.values()) + "}}\\n'"))
    namespace = {"__name__": __name__, "_isfinite": math.isfinite, "_ascii_str": _ascii_str,
                 "_dumps": json.dumps}
    exec(compile("".join(source), "<chunk event sinks>", "exec"), namespace)
    return [namespace[method] for method in SINK_METHODS]


@dataclass
class SessionEventLog:
    """Ordered event records; one JSON object per line on disk.

    Also the engine's default sink: `fetch`, `complete` and `display`, compiled
    from their EVENTS rows, build the three per-chunk records, and `record` appends
    any other one.
    """

    records: list[dict] = field(default_factory=list)

    fetch, complete, display = _chunk_event_methods("""
def {method}(self, {args}):
    self.records.append({record})
""", {})

    def record(self, rec: dict) -> None:
        self.records.append(rec)

    @property
    def header(self) -> dict:
        if not self.records or self.records[0].get("event") != "session_start":
            raise ValueError("log does not start with a session_start record")
        return self.records[0]

    def to_jsonl(self) -> str:
        return "".join(json.dumps(r) + "\n" for r in self.records)

    @classmethod
    def from_jsonl(cls, text: str) -> "SessionEventLog":
        # One decode of the whole text as a JSON array, kept only where it must
        # give what the line-by-line loop below gives.  A log's lines are its
        # "\n"-separated lines, as in JSON Lines, and valid JSON holds a "\n"
        # only between tokens.  With one item per line and every item an object,
        # a comma joining two lines can be off the top level only if some line
        # holds a top-level comma, that is two objects on one line.
        if text.endswith("\n") and not _objects_on_one_line(text):
            joined = "[" + text[:-1].replace("\n", ",") + "]"
            try:
                records, end = _scan_once(joined, 0)
                # Only an object has an "event" key: any other item raises TypeError.
                fits = (end == len(joined) and len(records) == text.count("\n")
                        and set(map(type, map(_event_of, records))) == {str})
            except (StopIteration, ValueError, RecursionError, KeyError, TypeError):
                fits = False
            if fits:
                return cls(records)
        # Line by line, which words every error.
        records = []
        for lineno, line in enumerate(text.split("\n"), start=1):
            if not line.strip(" \t\r"):  # JSON's whitespace only: `strip()` would drop "\x0c" too
                continue
            rec = parse_json(line, f"line {lineno}")
            if not isinstance(rec, dict) or not isinstance(rec.get("event"), str):
                raise ValueError(f"line {lineno}: record must be an object with an `event` field")
            records.append(rec)
        if not records:
            raise ValueError("log is empty")
        return cls(records)

    def write(self, path: str) -> None:
        write_text_atomically(path, self.to_jsonl())

    @classmethod
    def read(cls, path: str) -> "SessionEventLog":
        return cls.from_jsonl(read_text(path, "log"))


class JsonlWriter(SessionTally):
    """Sink that encodes each event as its log line and tallies it in the same call.

    `"".join(lines)` is byte for byte what `SessionEventLog.to_jsonl` gives.  Its
    `fetch`, `complete` and `display`, compiled from their EVENTS rows, format a
    per-chunk event whose fields have exactly their row's types (a `bool` is no
    `int`) and whose floats are finite from a template with the calls
    `json.dumps` makes (`repr`, `encode_basestring_ascii`); any other goes
    through `json.dumps`.  `display` also tallies the displayed level.
    """

    def __init__(self) -> None:
        super().__init__()
        self.lines: list[str] = []

    fetch, complete, display = _chunk_event_methods("""
def {method}(self, {args}):
    if {guard}:
        self.lines.append({template})
    else:
        self.lines.append(_dumps({record}) + "\\n")
    {tail}
""", {"display": "self.levels.append(level)"})

    def record(self, rec: dict) -> None:
        self.lines.append(json.dumps(rec) + "\n")
        super().record(rec)


def run_session(
    manifest: VideoManifest, trace: BandwidthTrace, config: SessionConfig, sink=None
) -> tuple:
    """Simulate one session into `sink` (a new SessionEventLog by default); returns it and the report.

    A sink that is a SessionTally, as a JsonlWriter is, reports from its own
    tally; `session_metrics` reduces a log.  A trace that cannot carry the session
    to completion yields a truncated log and a partial report; one that cannot loop,
    in a looping session, raises a ValueError at the first download.  No
    TraceExhaustedError leaves it: `_drive` turns each into a truncation.
    """
    if sink is None:
        sink = SessionEventLog()
    loop = config.loop_trace  # a closure: a keyword partial would copy its keywords on every call
    _drive(manifest, config, lambda t, kilobits: download_finish_time(trace, t, kilobits, loop), sink)
    if isinstance(sink, SessionTally):
        return sink, sink.report(config, manifest)
    return sink, session_metrics(sink, manifest)


def session_metrics(log, manifest: VideoManifest) -> SessionReport:
    """Reduce one stored event log to a SessionReport in one walk through a SessionTally.

    `open_log` checks the header; each later record is checked as the tally
    reads it, so a ValueError names the first that fails.  A display is
    appended while its level is an int in 1..R on one of the manifest's
    chunks; any other goes through `check_record` and a range test.  A record
    of a _TALLIED kind goes through `check_record`, and a resume must close a
    stall; a second header and a kind outside EVENTS are refused.  Of a
    per-chunk record only a display's level is read.
    """
    config = open_log(log, manifest)
    tally = SessionTally()
    levels, record = tally.levels, tally.record
    level_count, chunk_count = manifest.ladder.count, manifest.chunk_count
    for n, rec in enumerate(islice(log.records, 1, None), start=2):
        kind = rec["event"]
        if kind == "chunk_display_start":
            level = rec.get("level")
            if not (type(level) is int and 0 < level <= level_count and len(levels) < chunk_count):
                check_record(rec, n)
                for name, index, top in (("chunk", len(levels) + 1, chunk_count), ("level", level, level_count)):
                    if not 1 <= index <= top:  # the chunk is named before the level
                        raise ValueError(f"record {n} (chunk_display_start): {name} {index} outside 1..{top}")
            levels.append(level)
        elif kind in _TALLIED:
            check_record(rec, n)
            if kind == "playback_resume" and tally.stall_open is None:
                raise ValueError(f"record {n} (playback_resume): no playback_stall is open")
            record(rec)
        elif kind == "session_start":
            raise ValueError(f"record {n} (session_start): only record 1 opens a session")
        elif kind not in EVENTS:
            raise ValueError(f"record {n} ({kind}): no such event kind")
    return tally.report(config, manifest)


def check_capacity(capacity_s: float, chunk_duration_s: float) -> None:
    # A buffer must hold one chunk with room to spare: at capacity == chunk duration the
    # fetch gate opens only on an empty buffer, where round-off can leave it a hair below zero.
    if capacity_s <= chunk_duration_s:
        raise ValueError(f"buffer capacity {capacity_s:g}s must exceed the manifest's "
                         f"{chunk_duration_s:g}s chunk duration")


def _drive(manifest: VideoManifest, config: SessionConfig, finish_fn, sink) -> None:
    """Run the per-chunk loop with an injected download-completion source,
    `finish_fn(send_time_s, volume_kilobits)`, called for chunks 1, 2, ... in order.

    Each event goes to `sink` once, as it happens.  Nothing the config and
    the manifest proved is checked again: only the buffer and the estimate
    per chunk and the policy's level per decision.
    """
    chunk_len = manifest.chunk_duration_s
    total_chunks = manifest.chunk_count
    capacity = config.buffer_capacity_s
    critical = config.critical_threshold_s
    check_capacity(capacity, chunk_len)
    if config.resume_threshold_s > capacity - chunk_len:
        raise ValueError(
            f"resume threshold {config.resume_threshold_s}s unreachable: the fetch gate "
            f"caps a stalled buffer at {capacity - chunk_len}s"
        )
    floor_rate = manifest.ladder.levels_kbps[0]
    level_count = manifest.ladder.count
    ssim = manifest.ssim
    nominal = tuple(rate * chunk_len for rate in manifest.ladder.levels_kbps)
    volumes = manifest.chunk_kilobits or (nominal,) * total_chunks  # kilobits per chunk and level

    # Deciding chunk l sees the mean throughput of downloads 1..l-1 and the
    # mean SSIM delta of the transitions into chunks 2..l-1, each a
    # left-to-right fold of a total and a count.
    throughput_total, throughput_count = 0.0, 0
    drift_total, drift_count = 0.0, 0
    policy = make_policy(config.policy, config.policy_params)

    # The header, in its EVENTS row's order.  "startup_policy" names the only startup rule;
    # it is still written, so replay still checks it.
    sink.record({"event": "session_start", "policy": config.policy, "policy_params": dict(config.policy_params),
                 "buffer_capacity_s": capacity, "critical_threshold_s": critical,
                 "startup_policy": "play_after_first_chunk", "resume_threshold_s": config.resume_threshold_s,
                 "loop_trace": config.loop_trace, "chunk_count": total_chunks, "chunk_duration_s": chunk_len,
                 "ladder_kbps": list(manifest.ladder.levels_kbps)})
    fetch, complete, display = sink.fetch, sink.complete, sink.display

    now = 0.0
    play_pos = 0.0
    buffer = 0.0
    playing = False
    chunks_done = 0
    next_display = 1
    levels: list[int] = []

    def advance_to(t: float) -> None:
        # Drain the buffer up to time t, emitting display-start events for
        # every chunk boundary the playhead crosses.
        nonlocal now, play_pos, buffer, next_display
        if playing and t > now:
            new_pos = play_pos + (t - now)
            while next_display <= chunks_done and (next_display - 1) * chunk_len < new_pos:
                boundary = (next_display - 1) * chunk_len
                display(now + max(boundary - play_pos, 0.0), next_display, levels[next_display - 1])
                next_display += 1
            play_pos = new_pos
            buffer = chunks_done * chunk_len - play_pos
        now = t

    for chunk in range(1, total_chunks + 1):
        if not capacity - buffer > chunk_len:
            # One chunk of headroom or less: wait for the drain to capacity - chunk_len.
            advance_to(now + (buffer - (capacity - chunk_len)))
        prev_level = levels[-1] if levels else None
        estimate = throughput_total / throughput_count if throughput_count else floor_rate
        drift = drift_total / drift_count if drift_count else 0.0
        if not 0.0 <= buffer <= capacity:  # round-off in the drain arithmetic
            raise ValueError(f"buffer {buffer} outside [0, {capacity}]")
        send_t = now
        try:  # an estimate or a download the float clock cannot carry truncates the session at this fetch
            if not 0.0 < estimate < math.inf:  # throughputs near the float range's end, or a replayed completion time
                raise TraceExhaustedError(f"the mean throughput of chunks 1-{chunk - 1} is {estimate:g} kbps, "
                                          f"after chunk {chunk - 1} downloaded at {throughput:g} kbps")
            decision = decide(policy, Observation(chunk, buffer, capacity, critical, prev_level,
                                                  estimate, drift, manifest))
            level = decision.level
            if not 1 <= level <= level_count:
                raise IndexError(f"level {level} outside 1..{level_count}")
            if chunk >= 2:
                drift_total += ssim[chunk - 1][level - 1] - ssim[chunk - 2][prev_level - 1]
                drift_count += 1
            fetch(send_t, chunk, level, buffer, estimate, drift, decision.reason)
            volume = volumes[chunk - 1][level - 1]
            finish_t = finish_fn(send_t, volume)
        except TraceExhaustedError as exc:
            sink.record({"event": "session_truncated", "time_s": send_t, "chunk": chunk,
                         "diagnostic": str(exc)})
            return
        levels.append(level)
        if playing and now + buffer < finish_t:
            # Buffer empties before the download lands: stall.
            advance_to(now + buffer)
            play_pos = chunks_done * chunk_len
            buffer = 0.0
            playing = False
            sink.record({"event": "playback_stall", "time_s": now})
        advance_to(finish_t)
        chunks_done += 1
        buffer = chunks_done * chunk_len - play_pos
        duration = finish_t - send_t
        throughput = volume / duration
        complete(finish_t, chunk, throughput)
        throughput_total += throughput
        throughput_count += 1
        policy.observe(throughput, duration)
        if not playing and (chunk == 1 or buffer >= config.resume_threshold_s or chunk == total_chunks):
            playing = True
            sink.record({"event": "playback_start", "time_s": now} if chunk == 1
                        else {"event": "playback_resume", "time_s": now})
            # Boundaries at or behind the playhead become displayable the moment playback (re)starts.
            while next_display <= chunks_done and (next_display - 1) * chunk_len <= play_pos:
                display(now, next_display, levels[next_display - 1])
                next_display += 1

    # Everything downloaded: drain out and close the session.
    advance_to(now + buffer)
    if next_display <= total_chunks:  # past about 2**53 chunk durations the drains round away
        sink.record({"event": "session_truncated", "time_s": now, "chunk": next_display, "diagnostic":
                     f"the clock at {now:g}s cannot advance by the {buffer:g}s of buffer left to play"})
    else:
        sink.record({"event": "session_end", "time_s": now})


class _ReplaySink:
    """Sink that compares each event, as the engine emits it, with the next logged record.

    Its `fetch`, `complete` and `display`, compiled from their EVENTS rows, compare
    field by field and build no record while the events match.  From the
    first event that differs, lacks a field or outlives the log, every event
    is kept as the record a SessionEventLog would build.  `finish` is the
    engine's download-completion source: it reads the logged completions up to a
    truncation on a cursor of its own, so a diverged log still feeds them in order.
    """

    def __init__(self, records: list) -> None:
        self.logged = records
        self.matched = 0  # leading logged records the engine reproduced
        self.kept = []  # the records it emitted from the first difference on
        # The logged completions `finish` has not read yet, each with its number (counted from 1).
        self.completions = ((n, r) for n, r in enumerate(records, start=1)
                            if r.get("event") in ("download_complete", "session_truncated"))
        self.chunk = 0  # the last chunk `finish` was asked for

    def finish(self, send_time_s: float, volume_kilobits: float) -> float:
        # The engine asks for chunks 1, 2, ... in order and stops at the first error.
        self.chunk = chunk = self.chunk + 1
        n, r = next(self.completions, (0, None))
        if r is None:
            raise ValueError(f"log holds no completion for chunk {chunk}")
        time_s, logged, kbps = r.get("time_s"), r.get("chunk"), r.get("throughput_kbps")
        # A completion in its row's exact types with finite floats is one `check_record` passes unchanged.
        if not (r["event"] == "download_complete" and type(time_s) is type(kbps) is float
                and type(logged) is int and math.isfinite(time_s + kbps)):
            check_record(r, n)
            if r["event"] == "session_truncated":  # the log ends here, as the truncation says
                raise TraceExhaustedError(r["diagnostic"])
            time_s, logged = r["time_s"], r["chunk"]
        if logged != chunk:
            raise ValueError(f"record {n} (download_complete): chunk logged {logged!r}, replay {chunk!r}")
        if time_s <= send_time_s:
            raise ValueError(f"record {n} (download_complete): time_s {time_s} precedes its fetch at {send_time_s}")
        return float(time_s)

    fetch, complete, display = _chunk_event_methods("""
def {method}(self, {args}):
    if not self.kept:
        try:
            r = self.logged[self.matched]
            if not ({differs}):
                self.matched += 1
                return
        except (IndexError, KeyError, TypeError):
            pass
    self.kept.append({record})
""", {})

    def record(self, rec: dict) -> None:
        if not self.kept and self.matched < len(self.logged) and _same(self.logged[self.matched], rec):
            self.matched += 1
        else:
            self.kept.append(rec)


def replay_diff(log: SessionEventLog, manifest: VideoManifest, config: SessionConfig) -> list[str]:
    """Human-readable list of mismatches; empty when the log verifies.

    The engine is re-run once with download finish times read from the log;
    every regenerated record (decisions, estimates, buffer levels, event
    times) must equal the logged one exactly.
    """
    sink = _ReplaySink(log.records)
    try:
        _drive(manifest, config, sink.finish, sink)
        if not sink.kept and sink.matched == len(log.records):
            return []
        # Each reproduced record stands in for itself, so the walk skips it.
        return _diff_records(log.records, log.records[:sink.matched] + sink.kept)
    except ValueError as exc:  # a config the engine refuses, or a completion `finish` cannot feed it
        return [f"log is not replayable: {exc}"]


def _diff_records(original: list[dict], regenerated: list[dict]) -> list[str]:
    # The field walk finds nothing in an equal record, so only unequal records
    # are walked; an equal record still reaches the cap check, which decides
    # where a long list is cut.
    diffs = []
    if len(original) != len(regenerated):
        diffs.append(f"record count differs: logged {len(original)}, replay {len(regenerated)}")
    for idx, (a, b) in enumerate(zip(original, regenerated), start=1):
        if not _same(a, b):
            if set(a.keys()) != set(b.keys()):
                diffs.append(f"record {idx}: fields {sorted(a)} vs {sorted(b)}")
                continue
            diffs += [f"record {idx} ({a.get('event')}): {key} logged {logged!r}, replay {b[key]!r}"
                      for key, logged in a.items() if not _same(logged, b[key])]
        if len(diffs) >= 20:
            diffs.append("...")
            break
    return diffs


def _same(a, b) -> bool:
    """`a == b`, with every value of the same JSON type: `true` is no 1, and 1 is no 1.0."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(_same(value, b[key]) for key, value in a.items())
    if type(a) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b
