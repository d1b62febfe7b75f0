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

Everything observable is appended to a SessionEventLog (JSON Lines on disk,
fixed field order), and `replay_diff` re-runs the engine with download
completion times taken from a log to verify that every other recorded value
- decisions, estimates, buffer levels, event times - is reproduced.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

from .abr import Observation, decide, make_policy
from .estimators import RunningMean
from .manifest import VideoManifest
from .metrics import SessionReport, session_metrics
from .trace import BandwidthTrace, TraceExhaustedError, download_finish_time

# Largest absolute (and relative) gap between a logged and a replayed number
# that still counts as reproduced.
TOLERANCE_S = 1e-9

# One decoder for every log line: around the same parse, each `json.loads`
# call adds type and BOM checks and two whitespace scans, about a quarter
# of the per-line cost on engine-written logs.
_DECODER = json.JSONDecoder()

# Key order of the three records the engine writes once per chunk; all but
# a handful of a log's lines have one of these shapes.
_FETCH_ISSUED_KEYS = ("event", "time_s", "chunk", "level", "buffer_s",
                      "bandwidth_estimate_kbps", "ssim_delta_mean", "reason")
_DOWNLOAD_COMPLETE_KEYS = ("event", "time_s", "chunk", "throughput_kbps")
_DISPLAY_START_KEYS = ("event", "time_s", "chunk", "level")
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
    """Ordered event records; one JSON object per line on disk."""

    records: list[dict] = field(default_factory=list)

    def events(self, kind: str | None = None):
        if kind is None:
            return list(self.records)
        return [r for r in self.records if r["event"] == kind]

    @property
    def header(self) -> dict:
        if not self.records or self.records[0].get("event") != "session_start":
            raise LogFormatError("log does not start with a session_start record")
        return self.records[0]

    def to_jsonl(self) -> str:
        """`json.dumps(r) + "\\n"` per record, byte for byte.

        The engine's per-chunk records are formatted from templates with
        the calls `json.dumps` makes for them (`repr` for an exact int or a
        finite float, `encode_basestring_ascii` for a str).  A template is
        used only when the record is a plain dict with exactly the template's
        keys in order and values of exactly those types; anything else goes
        through `json.dumps`, which also raises what it would raise.
        """
        lines = []
        for r in self.records:
            if type(r) is dict:
                kind = r.get("event")
                if kind == "fetch_issued" and tuple(r) == _FETCH_ISSUED_KEYS:
                    _, t, c, lv, b, e, d, why = r.values()
                    if (type(t) is type(b) is type(e) is type(d) is float and type(c) is type(lv) is int
                            and type(why) is str and math.isfinite(t + b + e + d)):
                        lines.append(
                            f'{{"event": "fetch_issued", "time_s": {t!r}, "chunk": {c!r}, '
                            f'"level": {lv!r}, "buffer_s": {b!r}, "bandwidth_estimate_kbps": {e!r}, '
                            f'"ssim_delta_mean": {d!r}, "reason": {_ascii_str(why)}}}\n'
                        )
                        continue
                elif kind == "download_complete" and tuple(r) == _DOWNLOAD_COMPLETE_KEYS:
                    _, t, c, x = r.values()
                    if type(t) is type(x) is float and type(c) is int and math.isfinite(t + x):
                        lines.append(
                            f'{{"event": "download_complete", "time_s": {t!r}, "chunk": {c!r}, '
                            f'"throughput_kbps": {x!r}}}\n'
                        )
                        continue
                elif kind == "chunk_display_start" and tuple(r) == _DISPLAY_START_KEYS:
                    _, t, c, lv = r.values()
                    if type(t) is float and type(c) is type(lv) is int and math.isfinite(t):
                        lines.append(
                            f'{{"event": "chunk_display_start", "time_s": {t!r}, "chunk": {c!r}, '
                            f'"level": {lv!r}}}\n'
                        )
                        continue
            lines.append(json.dumps(r) + "\n")
        return "".join(lines)

    @classmethod
    def from_jsonl(cls, text: str) -> "SessionEventLog":
        records = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                rec, end = _DECODER.raw_decode(line)
            except json.JSONDecodeError:
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
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_jsonl(fh.read())


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
    manifest: VideoManifest, trace: BandwidthTrace, config: SessionConfig
) -> tuple[SessionEventLog, SessionReport]:
    """Simulate one session; returns its event log and metrics report.

    A non-looping trace that cannot carry the session to completion yields a
    truncated log and a report flagged partial rather than an exception.
    """
    run_trace = replace(trace, loop=config.loop_trace)

    def finish_fn(chunk: int, send_time_s: float, volume_kilobits: float) -> float:
        return download_finish_time(run_trace, send_time_s, volume_kilobits)

    log = _drive(manifest, config, finish_fn)
    return log, session_metrics(log, manifest)


def _drive(manifest: VideoManifest, config: SessionConfig, finish_fn) -> SessionEventLog:
    """Run the per-chunk loop with an injected download-completion source."""
    chunk_len = manifest.chunk_duration_s
    total_chunks = manifest.chunk_count
    capacity = config.buffer_capacity_s
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
    floor_rate = manifest.ladder.rate_kbps(1)

    # Deciding chunk l sees the throughput of downloads 1..l-1 and the SSIM
    # deltas of the transitions into chunks 2..l-1.
    throughput_mean = RunningMean()
    drift_mean = RunningMean()
    policy = make_policy(config.policy, config.policy_params)

    log = SessionEventLog()
    log.records.append(
        {
            "event": "session_start",
            "policy": config.policy,
            "policy_params": dict(config.policy_params),
            "buffer_capacity_s": capacity,
            "critical_threshold_s": config.critical_threshold_s,
            # The only startup rule; still written, so replay still checks it.
            "startup_policy": "play_after_first_chunk",
            "resume_threshold_s": config.resume_threshold_s,
            "loop_trace": config.loop_trace,
            "chunk_count": total_chunks,
            "chunk_duration_s": chunk_len,
            "ladder_kbps": list(manifest.ladder.levels_kbps),
        }
    )

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
                log.records.append(
                    {
                        "event": "chunk_display_start",
                        "time_s": now + max(boundary - play_pos, 0.0),
                        "chunk": next_display,
                        "level": levels[next_display - 1],
                    }
                )
                next_display += 1
            play_pos = new_pos
            buffer = chunks_done * chunk_len - play_pos
        now = t

    def emit_due_display_starts(t: float) -> None:
        # Boundaries at or behind the playhead become displayable the moment
        # playback (re)starts.
        nonlocal next_display
        while next_display <= chunks_done and (next_display - 1) * chunk_len <= play_pos + 1e-12:
            log.records.append(
                {
                    "event": "chunk_display_start",
                    "time_s": t,
                    "chunk": next_display,
                    "level": levels[next_display - 1],
                }
            )
            next_display += 1

    for chunk in range(1, total_chunks + 1):
        if not capacity - buffer > chunk_len:
            # One chunk of headroom or less: wait for the drain to capacity - chunk_len.
            advance_to(now + (buffer - (capacity - chunk_len)))
        prev_level = levels[-1] if levels else None
        estimate = throughput_mean.mean(floor_rate)
        drift = drift_mean.mean()
        obs = Observation(
            chunk=chunk,
            buffer_s=buffer,
            buffer_capacity_s=capacity,
            critical_threshold_s=config.critical_threshold_s,
            prev_level=prev_level,
            bandwidth_estimate_kbps=estimate,
            ssim_delta_mean=drift,
            manifest=manifest,
        )
        decision = decide(policy, obs)
        if chunk >= 2:
            drift_mean.add(
                manifest.ssim_at(chunk, decision.level) - manifest.ssim_at(chunk - 1, prev_level)
            )
        log.records.append(
            {
                "event": "fetch_issued",
                "time_s": now,
                "chunk": chunk,
                "level": decision.level,
                "buffer_s": buffer,
                "bandwidth_estimate_kbps": estimate,
                "ssim_delta_mean": drift,
                "reason": decision.reason,
            }
        )
        send_t = now
        volume = manifest.chunk_volume(chunk, decision.level)
        try:
            finish_t = finish_fn(chunk, send_t, volume)
        except TraceExhaustedError as exc:
            log.records.append(
                {"event": "session_truncated", "time_s": send_t, "chunk": chunk, "diagnostic": str(exc)}
            )
            return log
        levels.append(decision.level)
        if playing and now + buffer < finish_t:
            # Buffer empties before the download lands: stall.
            advance_to(now + buffer)
            play_pos = chunks_done * chunk_len
            buffer = 0.0
            playing = False
            stalled = True
            log.records.append({"event": "playback_stall", "time_s": now})
        advance_to(finish_t)
        chunks_done += 1
        buffer = chunks_done * chunk_len - play_pos
        throughput = volume / (finish_t - send_t)
        log.records.append(
            {"event": "download_complete", "time_s": finish_t, "chunk": chunk,
             "throughput_kbps": throughput}
        )
        throughput_mean.add(throughput)
        policy.observe(throughput, finish_t - send_t)
        if chunk == 1:
            playing = True
            log.records.append({"event": "playback_start", "time_s": now})
            emit_due_display_starts(now)
        elif stalled and (buffer >= config.resume_threshold_s or chunk == total_chunks):
            stalled = False
            playing = True
            log.records.append({"event": "playback_resume", "time_s": now})
            emit_due_display_starts(now)

    # Everything downloaded: drain out and close the session.
    advance_to(now + buffer)
    log.records.append({"event": "session_end", "time_s": now})
    return log


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
        regenerated = _drive(manifest, config, _LoggedCompletions(log))
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
