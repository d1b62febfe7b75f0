"""Deterministic single-client session engine.

The engine plays one video session against one bandwidth trace with one
chunk download in flight at a time and a drain-while-playing buffer.  Every
event is resolved analytically (no fixed timestep), one pass per chunk:

1. If the buffer lacks more than one chunk of headroom, wait for the instant
   it drains back to that bound.
2. Decide the chunk's level (chunk 1 at the startup level) and fetch it.  A
   non-looping trace that cannot deliver it truncates the session here.
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
each line and tallies the report in the same call.  `replay_diff` re-runs
the engine with download completion times taken from a log to verify that
every other recorded value - decisions, estimates, buffer levels, event
times - is reproduced.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

from .abr import Observation, decide, make_policy
from .manifest import VideoManifest
from .metrics import SessionTally, session_metrics
from .trace import BandwidthTrace, TraceExhaustedError, download_finish_time

# Largest absolute (and relative) gap between a logged and a replayed number
# that still counts as reproduced.
TOLERANCE_S = 1e-9

# One decoder's scanner for every log line: around the same parse, each
# `json.loads` call adds type and BOM checks and two whitespace scans, about
# a quarter of the per-line cost on engine-written logs.
_scan_once = json.JSONDecoder().scan_once
_ascii_str = json.encoder.encode_basestring_ascii


class LogFormatError(ValueError):
    """Event log text is structurally unusable."""


@dataclass
class SessionConfig:
    policy: str = "sba"
    buffer_capacity_s: float = 120.0
    critical_threshold_s: float = 12.0
    loop_trace: bool = False
    policy_params: dict = field(default_factory=dict)
    resume_threshold_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("buffer_capacity_s", "critical_threshold_s", "resume_threshold_s"):
            value = getattr(self, name)
            try:
                finite = math.isfinite(value)
            except (TypeError, OverflowError):  # not a number, or an int beyond float range
                finite = False
            if not finite:
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not isinstance(self.policy_params, dict):
            raise ValueError(f"policy_params must be an object, got {self.policy_params!r}")
        make_policy(self.policy, self.policy_params)  # raises on an unknown id or bad parameters
        if not 0.0 < self.critical_threshold_s < self.buffer_capacity_s:
            raise ValueError(
                f"need 0 < critical threshold < buffer capacity, got "
                f"{self.critical_threshold_s} vs {self.buffer_capacity_s}"
            )
        if self.resume_threshold_s < 0:
            raise ValueError(f"resume threshold must be >= 0, got {self.resume_threshold_s}")

    @classmethod
    def from_header(cls, header: dict) -> "SessionConfig":
        """The config a log's `session_start` record (written by `_drive`) holds."""
        missing = [k for k in ("policy", "buffer_capacity_s", "critical_threshold_s") if k not in header]
        if missing:
            raise LogFormatError(f"session_start record lacks {', '.join(missing)}")
        return cls(
            policy=header["policy"],
            buffer_capacity_s=header["buffer_capacity_s"],
            critical_threshold_s=header["critical_threshold_s"],
            loop_trace=header.get("loop_trace", False),
            policy_params=header.get("policy_params", {}),
            resume_threshold_s=header.get("resume_threshold_s", 0.0),
        )


@dataclass
class SessionEventLog:
    """Ordered event records; one JSON object per line on disk.

    Also the engine's default sink: `fetch`, `complete` and `display` build
    the three per-chunk records, and `record` appends any other one.
    """

    records: list[dict] = field(default_factory=list)

    def fetch(self, t, chunk, level, buffer_s, estimate, drift, reason) -> None:
        self.records.append(
            {"event": "fetch_issued", "time_s": t, "chunk": chunk, "level": level, "buffer_s": buffer_s,
             "bandwidth_estimate_kbps": estimate, "ssim_delta_mean": drift, "reason": reason}
        )

    def complete(self, t, chunk, throughput) -> None:
        self.records.append({"event": "download_complete", "time_s": t, "chunk": chunk,
                             "throughput_kbps": throughput})

    def display(self, t, chunk, level) -> None:
        self.records.append({"event": "chunk_display_start", "time_s": t, "chunk": chunk, "level": level})

    def record(self, rec: dict) -> None:
        self.records.append(rec)

    @property
    def header(self) -> dict:
        if not self.records or self.records[0].get("event") != "session_start":
            raise LogFormatError("log does not start with a session_start record")
        return self.records[0]

    def to_jsonl(self) -> str:
        return "".join(json.dumps(r) + "\n" for r in self.records)

    @classmethod
    def from_jsonl(cls, text: str) -> "SessionEventLog":
        records = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                rec, end = _scan_once(line, 0)
            except (StopIteration, json.JSONDecodeError):  # the C scanner raises both
                end = None
            if end != len(line):
                # Surrounding whitespace, a BOM or extra text: `json.loads`
                # decides whether the line is valid and words the error.
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise LogFormatError(f"line {lineno}: not valid JSON: {exc}") from exc
            if not isinstance(rec, dict) or not isinstance(rec.get("event"), str):
                raise LogFormatError(f"line {lineno}: record must be an object with an `event` field")
            records.append(rec)
        if not records:
            raise LogFormatError("log is empty")
        return cls(records)

    def write(self, path: str) -> None:
        write_text_atomically(path, self.to_jsonl())

    @classmethod
    def read(cls, path: str) -> "SessionEventLog":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise LogFormatError(f"{path}: not UTF-8 text: {exc}") from exc
        return cls.from_jsonl(text)


class JsonlWriter(SessionTally):
    """Sink that encodes each event as its log line and tallies it in the same call.

    `"".join(lines)` is byte for byte what `SessionEventLog.to_jsonl` gives.  A
    per-chunk event with exactly-`int` chunk and level, an exactly-`str` reason
    and finite floats is formatted from a template with the calls `json.dumps`
    makes (`repr`, `encode_basestring_ascii`); any other goes through `json.dumps`.
    """

    def __init__(self) -> None:
        super().__init__()
        self.lines: list[str] = []

    def fetch(self, t, chunk, level, buffer_s, estimate, drift, reason) -> None:
        if (type(t) is type(buffer_s) is type(estimate) is type(drift) is float
                and type(chunk) is type(level) is int and type(reason) is str
                and math.isfinite(t + buffer_s + estimate + drift)):
            self.lines.append(
                f'{{"event": "fetch_issued", "time_s": {t!r}, "chunk": {chunk!r}, "level": {level!r}, '
                f'"buffer_s": {buffer_s!r}, "bandwidth_estimate_kbps": {estimate!r}, '
                f'"ssim_delta_mean": {drift!r}, "reason": {_ascii_str(reason)}}}\n'
            )
        else:
            self.lines.append(_dumps_event("fetch", t, chunk, level, buffer_s, estimate, drift, reason))

    def complete(self, t, chunk, throughput) -> None:
        if type(t) is type(throughput) is float and type(chunk) is int and math.isfinite(t + throughput):
            self.lines.append(
                f'{{"event": "download_complete", "time_s": {t!r}, "chunk": {chunk!r}, '
                f'"throughput_kbps": {throughput!r}}}\n'
            )
        else:
            self.lines.append(_dumps_event("complete", t, chunk, throughput))

    def display(self, t, chunk, level) -> None:
        if type(t) is float and type(chunk) is type(level) is int and math.isfinite(t):
            self.lines.append(f'{{"event": "chunk_display_start", "time_s": {t!r}, "chunk": {chunk!r}, '
                              f'"level": {level!r}}}\n')
        else:
            self.lines.append(_dumps_event("display", t, chunk, level))
        self.levels.append(level)

    def record(self, rec: dict) -> None:
        self.lines.append(json.dumps(rec) + "\n")
        super().record(rec)


def _dumps_event(method: str, *event) -> str:
    log = SessionEventLog()  # the line `to_jsonl` writes for the record this sink method builds
    getattr(log, method)(*event)
    return log.to_jsonl()


def write_text_atomically(path: str, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then rename it over `path`.

    On any error the temporary file is removed and an existing `path`
    keeps its old bytes.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def run_session(
    manifest: VideoManifest, trace: BandwidthTrace, config: SessionConfig, sink=None
) -> tuple:
    """Simulate one session into `sink` (a new SessionEventLog by default); returns it and the report.

    A SessionTally sink, such as a JsonlWriter, reports from its own tally;
    `session_metrics` reduces a log.  A trace that cannot carry the session
    to completion yields a truncated log and a partial report, not an error.
    """
    if sink is None:
        sink = SessionEventLog()
    # A trace already in the config's loop mode (as `run_batch` passes them) is
    # not rebuilt, so it is not validated again.
    run_trace = trace if trace.loop == config.loop_trace else replace(trace, loop=config.loop_trace)

    def finish_fn(chunk: int, send_time_s: float, volume_kilobits: float) -> float:
        return download_finish_time(run_trace, send_time_s, volume_kilobits)

    _drive(manifest, config, finish_fn, sink)
    if isinstance(sink, SessionTally):
        return sink, sink.report(manifest)
    return sink, session_metrics(sink, manifest)


def _drive(manifest: VideoManifest, config: SessionConfig, finish_fn, sink) -> None:
    """Run the per-chunk loop with an injected download-completion source.

    Each event goes to `sink` once, as it happens.  Nothing the config and
    the manifest proved is checked again: only the buffer and the estimate
    per chunk and the policy's level per decision.
    """
    chunk_len = manifest.chunk_duration_s
    total_chunks = manifest.chunk_count
    capacity = config.buffer_capacity_s
    critical = config.critical_threshold_s
    if capacity <= chunk_len:
        # At capacity == chunk_len the fetch gate opens only on an empty
        # buffer, where round-off can leave it a hair below zero.
        raise ValueError(
            f"buffer capacity {capacity}s cannot hold one {chunk_len}s chunk with room to spare"
        )
    if config.resume_threshold_s > capacity - chunk_len:
        raise ValueError(
            f"resume threshold {config.resume_threshold_s}s unreachable: the fetch gate "
            f"caps a stalled buffer at {capacity - chunk_len}s"
        )
    if not 0.0 < critical < capacity:  # a config edited after it was built
        raise ValueError(f"need 0 < critical threshold < capacity, got {critical} vs {capacity}")
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

    sink.record(
        {
            "event": "session_start",
            "policy": config.policy,
            "policy_params": dict(config.policy_params),
            "buffer_capacity_s": capacity,
            "critical_threshold_s": critical,
            # The only startup rule; still written, so replay still checks it.
            "startup_policy": "play_after_first_chunk",
            "resume_threshold_s": config.resume_threshold_s,
            "loop_trace": config.loop_trace,
            "chunk_count": total_chunks,
            "chunk_duration_s": chunk_len,
            "ladder_kbps": list(manifest.ladder.levels_kbps),
        }
    )
    fetch, complete, display = sink.fetch, sink.complete, sink.display

    now = 0.0
    play_pos = 0.0
    buffer = 0.0
    playing = False
    stalled = False
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

    def emit_due_display_starts(t: float) -> None:
        # Boundaries at or behind the playhead become displayable the moment
        # playback (re)starts.
        nonlocal next_display
        while next_display <= chunks_done and (next_display - 1) * chunk_len <= play_pos + 1e-12:
            display(t, next_display, levels[next_display - 1])
            next_display += 1

    for chunk in range(1, total_chunks + 1):
        if not capacity - buffer > chunk_len:
            # One chunk of headroom or less: wait for the drain to capacity - chunk_len.
            advance_to(now + (buffer - (capacity - chunk_len)))
        prev_level = levels[-1] if levels else None
        estimate = throughput_total / throughput_count if throughput_count else floor_rate
        drift = drift_total / drift_count if drift_count else 0.0
        if not 0.0 <= buffer <= capacity:  # round-off in the drain arithmetic
            raise ValueError(f"buffer {buffer} outside [0, {capacity}]")
        if not 0.0 < estimate < math.inf:  # a replayed completion time can make it 0 or inf
            raise ValueError(f"bandwidth estimate must be > 0, got {estimate}")
        decision = decide(policy, Observation(chunk, buffer, capacity, critical, prev_level,
                                              estimate, drift, manifest))
        level = decision.level
        if not 1 <= level <= level_count:
            raise IndexError(f"level {level} outside 1..{level_count}")
        if chunk >= 2:
            drift_total += ssim[chunk - 1][level - 1] - ssim[chunk - 2][prev_level - 1]
            drift_count += 1
        fetch(now, chunk, level, buffer, estimate, drift, decision.reason)
        send_t = now
        volume = volumes[chunk - 1][level - 1]
        try:
            finish_t = finish_fn(chunk, send_t, volume)
        except TraceExhaustedError as exc:
            sink.record({"event": "session_truncated", "time_s": send_t, "chunk": chunk,
                         "diagnostic": str(exc)})
            return
        if not finish_t > send_t:  # a large clock can round a short download away
            raise ValueError(
                f"chunk {chunk} download finishes at {finish_t}s, not after its fetch at {send_t}s"
            )
        levels.append(level)
        if playing and now + buffer < finish_t:
            # Buffer empties before the download lands: stall.
            advance_to(now + buffer)
            play_pos = chunks_done * chunk_len
            buffer = 0.0
            playing = False
            stalled = True
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
        if chunk == 1:
            playing = True
            sink.record({"event": "playback_start", "time_s": now})
            emit_due_display_starts(now)
        elif stalled and (buffer >= config.resume_threshold_s or chunk == total_chunks):
            stalled = False
            playing = True
            sink.record({"event": "playback_resume", "time_s": now})
            emit_due_display_starts(now)

    # Everything downloaded: drain out and close the session.
    advance_to(now + buffer)
    sink.record({"event": "session_end", "time_s": now})


class _ReplayInconsistency(Exception):
    """Logged data contradicts the re-derived session."""


class _LoggedCompletions:
    """Download-completion source that feeds finish times back from a log."""

    def __init__(self, log: SessionEventLog):
        self.completions = [
            (r["chunk"], r["time_s"]) for r in log.records if r.get("event") == "download_complete"
        ]
        truncations = [r for r in log.records if r.get("event") == "session_truncated"]
        self.truncation = truncations[0] if truncations else None
        self.pos = 0

    def __call__(self, chunk: int, send_time_s: float, volume_kilobits: float) -> float:
        if self.pos >= len(self.completions):
            if self.truncation is not None:
                raise TraceExhaustedError(str(self.truncation.get("diagnostic", "trace exhausted")))
            raise _ReplayInconsistency(f"log holds no completion for chunk {chunk}")
        logged_chunk, logged_time = self.completions[self.pos]
        if logged_chunk != chunk:
            raise _ReplayInconsistency(
                f"logged completion is for chunk {logged_chunk}, engine expected {chunk}"
            )
        if not isinstance(logged_time, (int, float)) or logged_time <= send_time_s:
            raise _ReplayInconsistency(
                f"logged completion time {logged_time} precedes its fetch at {send_time_s}"
            )
        self.pos += 1
        return float(logged_time)


def replay_diff(log: SessionEventLog, manifest: VideoManifest, config: SessionConfig) -> list[str]:
    """Human-readable list of mismatches; empty when the log verifies.

    The engine is re-run with download finish times read from the log; every
    regenerated record (decisions, estimates, buffer levels, event times)
    must match the logged one within TOLERANCE_S.
    """
    log.header  # raises LogFormatError on structurally broken logs
    try:
        regenerated = SessionEventLog()
        _drive(manifest, config, _LoggedCompletions(log), regenerated)
    except _ReplayInconsistency as exc:
        return [str(exc)]
    except (ValueError, TraceExhaustedError) as exc:
        return [f"log is not replayable: {exc}"]
    return _diff_records(log.records, regenerated.records, TOLERANCE_S)


def _diff_records(original: list[dict], regenerated: list[dict], tolerance: float) -> list[str]:
    # The field walk finds nothing in an equal record (`_close` accepts equal
    # numbers), so only unequal records are walked; an equal record still
    # reaches the cap check, which decides where a long list is cut.
    if original == regenerated:
        return []
    diffs = []
    if len(original) != len(regenerated):
        diffs.append(f"record count differs: logged {len(original)}, replay {len(regenerated)}")
    for idx, (a, b) in enumerate(zip(original, regenerated)):
        if a != b:
            if set(a.keys()) != set(b.keys()):
                diffs.append(f"record {idx}: fields {sorted(a)} vs {sorted(b)}")
                continue
            for key, logged in a.items():
                fresh = b[key]
                if isinstance(logged, bool) or isinstance(fresh, bool):
                    same = logged == fresh
                elif isinstance(logged, (int, float)) and isinstance(fresh, (int, float)):
                    same = _close(float(logged), float(fresh), tolerance)
                else:
                    same = logged == fresh
                if not same:
                    diffs.append(f"record {idx} ({a.get('event')}): {key} logged {logged!r}, replay {fresh!r}")
        if len(diffs) >= 20:
            diffs.append("...")
            break
    return diffs


def _close(a: float, b: float, tol: float) -> bool:
    # An infinity matches only itself: its gap to anything else is infinite,
    # and so is the relative bound.
    return a == b or math.isfinite(a - b) and abs(a - b) <= max(tol, tol * max(abs(a), abs(b)))
