import copy
import dataclasses
import glob
import itertools
import json
import math
import os
import random
import re

import pytest

from abrsim import POLICIES, SessionConfig, load_manifest, load_runspec, load_trace, replay_diff, run_session
from abrsim.abr import Decision, Policy
from abrsim.batch import validate_runspec
from abrsim.simulator import SessionEventLog, open_log
from abrsim.trace import BandwidthTrace, download_finish_time
from helpers import chunk_volume, constant_trace, events, make_manifest, monotone_rows


def sba_config(**kwargs):
    return SessionConfig(policy="sba", **kwargs)


# --- config validation ---


def test_config_rejects_unknown_policy():
    with pytest.raises(ValueError, match="unknown policy"):
        SessionConfig(policy="rate_hog")
    with pytest.raises(ValueError, match="bad parameters"):
        SessionConfig(policy="bba", policy_params={"bogus": 1})


def test_a_built_config_cannot_leave_its_checks():
    # SessionConfig checks the pair once, when it is built; the engine trusts it.
    config = sba_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.critical_threshold_s = 120.0
    for critical in (120.0, 130.0, 0.0):
        with pytest.raises(ValueError, match="need 0 < critical threshold < buffer capacity"):
            dataclasses.replace(config, critical_threshold_s=critical)


def test_config_rejects_bad_threshold():
    with pytest.raises(ValueError, match="critical threshold"):
        SessionConfig(critical_threshold_s=120.0, buffer_capacity_s=120.0)


def test_config_rejects_bad_resume_threshold():
    with pytest.raises(ValueError, match="resume threshold"):
        SessionConfig(resume_threshold_s=-1.0)


@pytest.mark.parametrize("field", ["buffer_capacity_s", "critical_threshold_s", "resume_threshold_s"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), 10**400, "120", None])
def test_config_rejects_non_finite_numbers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        SessionConfig(**{field: value})


@pytest.mark.parametrize("field", ["buffer_capacity_s", "critical_threshold_s", "resume_threshold_s"])
def test_config_rejects_a_bool_for_seconds(field):
    # A bool is no number here, as in spec fields, manifest cells and policy parameters.
    with pytest.raises(ValueError, match=f"^{field} must be a finite number, got True$"):
        SessionConfig(**{field: True})


@pytest.mark.parametrize("value", ["no", "yes", 0, 1, None])
def test_config_loop_trace_must_be_a_bool(value):
    # A truthy "no" would loop the trace and be written into the log header as "no".
    with pytest.raises(ValueError, match=f"^loop_trace must be true or false, got {re.escape(repr(value))}$"):
        SessionConfig(loop_trace=value)
    manifest = make_manifest(chunks=2)
    header = run_session(manifest, constant_trace(1000.0), SessionConfig())[0].header
    with pytest.raises(ValueError, match="loop_trace must be true or false"):
        open_log(SessionEventLog([{**header, "loop_trace": value}]), manifest)


def test_run_rejects_capacity_below_chunk():
    manifest = make_manifest(chunks=2)
    with pytest.raises(ValueError, match="must exceed"):
        run_session(manifest, constant_trace(1000.0), sba_config(
            buffer_capacity_s=3.0, critical_threshold_s=1.0))


def test_run_rejects_capacity_equal_to_chunk():
    # At capacity == chunk duration the fetch gate opens only on an empty
    # buffer, which round-off can leave a hair below zero; on this link it
    # did, and the session crashed on the buffer check.
    manifest = make_manifest(chunks=20)
    for lc in (1.0, 2.0, 3.0):
        with pytest.raises(ValueError, match="must exceed"):
            run_session(manifest, constant_trace(1000.0), sba_config(
                buffer_capacity_s=4.0, critical_threshold_s=lc))


def test_run_rejects_unreachable_resume_threshold():
    manifest = make_manifest(chunks=2)
    with pytest.raises(ValueError, match=r"7\.0s unreachable: the fetch gate caps a stalled buffer at 6\.0s$"):
        run_session(manifest, constant_trace(1000.0), sba_config(
            buffer_capacity_s=10.0, critical_threshold_s=3.0, resume_threshold_s=7.0))


# --- the engine's own checks: once per session, chunk and decision ---


def test_engine_rejects_a_policy_level_outside_the_ladder(monkeypatch):
    class Rogue(Policy):
        def __init__(self, level):
            self.level = level

        def decide(self, obs):
            return Decision(self.level, "rogue")

    monkeypatch.setitem(POLICIES, "rogue", Rogue)
    for level in (0, -1, 11):  # -1 would index the top rung if the engine did not check it
        with pytest.raises(IndexError, match=f"level {level} outside 1..10"):
            run_session(make_manifest(), constant_trace(1000.0),
                        SessionConfig(policy="rogue", policy_params={"level": level}))


def test_replay_rejects_an_estimate_that_is_not_positive_and_finite():
    # A first completion logged a denormal after its fetch makes the next estimate inf, which
    # truncates the replay there: the fetch logged next differs.  One logged at Infinity, which
    # made it 0.0, is no JSON number.
    manifest, log = replayable_log()
    n = log.records.index(events(log, "download_complete")[0]) + 1

    def replayed(time_s):
        tampered = SessionEventLog(copy.deepcopy(log.records))
        events(tampered, "download_complete")[0]["time_s"] = time_s
        return replay_diff(tampered, manifest, open_log(log, manifest))

    assert replayed(float("inf")) == [
        f"log is not replayable: record {n} (download_complete): time_s must be a finite number, got inf"]
    fetch = sorted(events(log, "fetch_issued")[1])
    assert replayed(5e-324)[-1] == f"record {n + 3}: fields {fetch} vs ['chunk', 'diagnostic', 'event', 'time_s']"


def test_a_download_that_rounds_to_no_time_truncates_the_session():
    # Chunk 1 weighs 1e20 kilobits, so the clock reaches 1e17 s and the
    # millisecond download of chunk 2 rounds to no time at all.
    sizes = ((1e20, 1e20),) + ((1.0, 2.0),) * 4
    manifest = make_manifest(chunks=5, rates=(235, 375), sizes=sizes)
    log, report = run_session(manifest, constant_trace(1000.0), SessionConfig())
    assert report.partial and report.diagnostic == (
        "trace delivers 1.0 kilobits from 1e+17s at its 1000.0 kbps rate there in less than the clock's rounding step")
    assert log.records[-1]["chunk"] == 2
    assert replay_diff(log, manifest, open_log(log, manifest)) == []


# --- full-session walkthrough on a constant trace ---


def test_constant_trace_session_walkthrough():
    # 10 Mbps constant link, 30 chunks: the first chunk downloads in
    # 940/10000 s, the next three land inside the critical zone, and from
    # chunk 5 on the estimate selects the ladder top, which then holds.
    manifest = make_manifest(chunks=30, ssim=monotone_rows(30, 10))
    trace = constant_trace(10000.0)
    log, report = run_session(manifest, trace, sba_config())

    fetches = events(log, "fetch_issued")
    assert [f["level"] for f in fetches] == [1, 1, 1, 1] + [10] * 26
    assert [f["reason"] for f in fetches[:5]] == [
        "startup", "critical_drop", "critical_drop", "critical_drop", "upgrade",
    ]
    assert all(f["reason"] == "hold" for f in fetches[5:])

    assert [r["event"] for r in log.records[:6]] == [
        "session_start", "fetch_issued", "download_complete",
        "playback_start", "chunk_display_start", "fetch_issued",
    ]
    assert log.records[-1]["event"] == "session_end"
    assert not events(log, "playback_stall")

    # Completion times follow from chaining the finish-time solver over the
    # chosen volumes; fetch k+1 is issued at completion k.
    t = 0.0
    for fetch, done in zip(fetches, events(log, "download_complete")):
        assert fetch["time_s"] == pytest.approx(t, abs=1e-9)
        volume = chunk_volume(manifest, fetch["chunk"], fetch["level"])
        t = download_finish_time(trace, t, volume)
        assert done["time_s"] == pytest.approx(t, abs=1e-9)

    starts = events(log, "chunk_display_start")
    assert [s["chunk"] for s in starts] == list(range(1, 31))
    gaps = [b["time_s"] - a["time_s"] for a, b in zip(starts, starts[1:])]
    assert all(g == pytest.approx(4.0, abs=1e-9) for g in gaps)

    assert report.partial is False
    assert len(report.displayed) == 30
    assert report.rebuffering_total_s == 0.0
    assert report.rebuffer_count == 0
    assert report.instability == 1
    assert report.mean_bitrate_kbps == (4 * 235.0 + 26 * 5800.0) / 30
    assert report.startup_delay_s == pytest.approx(0.094, abs=1e-9)
    assert report.wall_clock_s == pytest.approx(report.startup_delay_s + 120.0, abs=1e-9)


def test_single_chunk_session():
    manifest = make_manifest(chunks=1)
    log, report = run_session(manifest, constant_trace(10000.0), sba_config())
    assert [r["event"] for r in log.records] == [
        "session_start", "fetch_issued", "download_complete",
        "playback_start", "chunk_display_start", "session_end",
    ]
    assert len(report.displayed) == 1
    assert report.instability == 0
    assert report.wall_clock_s == pytest.approx(0.094 + 4.0, abs=1e-9)


# --- starvation and stalls ---


def test_non_looping_trace_truncates_session():
    manifest = make_manifest(chunks=2, rates=(235, 375))
    trace = constant_trace(100.0, until_s=10.0)
    log, report = run_session(manifest, trace, sba_config())
    assert log.records[-1]["event"] == "session_truncated"
    assert log.records[-1]["chunk"] == 2
    assert log.records[-1]["time_s"] == pytest.approx(9.4, abs=1e-9)
    assert report.partial is True
    assert len(report.displayed) == 1
    assert "exhausted" in report.diagnostic


def test_oversized_chunk_stalls_playback():
    # Chunk 2 weighs 50000 kilobits: five seconds on a 10 Mbps link, while
    # the buffer holds only four, so playback stalls for one second.
    sizes = ((940.0, 1500.0), (50000.0, 60000.0), (940.0, 1500.0))
    manifest = make_manifest(chunks=3, rates=(235, 375), sizes=sizes)
    log, report = run_session(manifest, constant_trace(10000.0), sba_config())

    stalls = events(log, "playback_stall")
    resumes = events(log, "playback_resume")
    assert len(stalls) == 1 and len(resumes) == 1
    assert stalls[0]["time_s"] == pytest.approx(4.094, abs=1e-9)
    assert resumes[0]["time_s"] == pytest.approx(5.094, abs=1e-9)
    assert report.rebuffer_count == 1
    assert report.rebuffering_total_s == pytest.approx(1.0, abs=1e-9)
    assert report.partial is False
    assert report.wall_clock_s == pytest.approx(0.094 + 12.0 + 1.0, abs=1e-9)


def test_resume_threshold_delays_restart():
    sizes = ((940.0, 1500.0), (50000.0, 60000.0), (940.0, 1500.0), (940.0, 1500.0))
    manifest = make_manifest(chunks=4, rates=(235, 375), sizes=sizes)
    log, report = run_session(
        manifest, constant_trace(10000.0), sba_config(resume_threshold_s=6.0)
    )
    resumes = events(log, "playback_resume")
    assert len(resumes) == 1
    # One buffered chunk is not enough; the resume waits for the next one.
    assert resumes[0]["time_s"] == pytest.approx(5.188, abs=1e-9)
    assert report.rebuffering_total_s == pytest.approx(5.188 - 4.094, abs=1e-9)
    stalled_fetch = events(log, "fetch_issued")[2]
    assert stalled_fetch["buffer_s"] == pytest.approx(4.0, abs=1e-9)
    # Chunks 2 and 3 landed during the stall: the resume shows chunk 2, at the
    # playhead, at once; chunk 3 follows one chunk duration later.
    n = log.records.index(resumes[0])
    assert [(r["event"], r.get("chunk")) for r in log.records[n + 1:n + 3]] == [
        ("chunk_display_start", 2), ("fetch_issued", 4)]
    assert log.records[n + 1]["time_s"] == resumes[0]["time_s"]
    displays = {r["chunk"]: r["time_s"] for r in events(log, "chunk_display_start")}
    assert displays[3] == pytest.approx(5.188 + 4.0, abs=1e-9)


def test_a_resume_at_a_large_clock_shows_every_chunk_at_or_behind_the_playhead():
    # Chunk 1 weighs 1e20 kilobits, so the clock reaches 1e17 s, where its step is 16 s:
    # each 16 s download stalls playback, and the drain into the stall rounds to no time,
    # so the playhead jumps past chunks it wrote no display for.  The resume writes them.
    sizes = ((1e20, 1e20),) + ((16000.0, 16000.0),) * 5
    manifest = make_manifest(chunks=6, rates=(235, 375), sizes=sizes, duration=2.0)
    log, report = run_session(manifest, constant_trace(1000.0), SessionConfig(resume_threshold_s=4.0))

    def shown_at(resume):
        after = log.records[log.records.index(resume) + 1:]
        return [r["chunk"] for r in itertools.takewhile(
            lambda r: r["event"] == "chunk_display_start" and r["time_s"] == resume["time_s"], after)]

    assert [shown_at(r) for r in events(log, "playback_resume")] == [[2], [3, 4], [5, 6]]
    assert sorted(r["chunk"] for r in events(log, "chunk_display_start")) == [1, 2, 3, 4, 5, 6]
    assert not report.partial
    assert replay_diff(log, manifest, open_log(log, manifest)) == []


@pytest.mark.parametrize("policy, displayed", [("bba", (1, 1, 1, 2)), ("sba", (1, 2, 2, 2))])
def test_a_chunk_the_clock_cannot_play_out_truncates_the_session(policy, displayed):
    # Chunk 1 takes the clock past about 2**53 chunk durations, where the drains round
    # away: chunk 4 is fetched with the buffer exactly at capacity, and after the last
    # download the final drain cannot reach chunk 5.  That session ended with session_end.
    capacity = 3 * 0.1 - 0.1
    manifest = make_manifest(chunks=5, rates=(235, 375), duration=0.1)
    trace = BandwidthTrace(((0.0, 10000.0), (0.00235 + 1e-9, 1e-15)))
    config = SessionConfig(policy=policy, buffer_capacity_s=capacity, critical_threshold_s=0.05,
                           resume_threshold_s=capacity - 0.1)
    log, report = run_session(manifest, trace, config)
    end = log.records[-1]
    assert (end["event"], end.get("chunk")) == ("session_truncated", 5)
    assert report.partial and report.diagnostic == end["diagnostic"] != ""
    assert report.displayed == displayed
    assert "session_end" not in [r["event"] for r in log.records]
    assert replay_diff(log, manifest, config) == []


def test_stall_ends_when_the_last_chunk_lands_below_the_resume_threshold():
    # The last chunk ends the stall at 6.094 s with 4 s buffered, short of
    # the 6 s threshold: no later download could fill the buffer further.
    sizes = ((940.0, 1500.0), (50000.0, 60000.0))
    manifest = make_manifest(chunks=2, rates=(235, 375), sizes=sizes)
    config = SessionConfig(buffer_capacity_s=20.0, critical_threshold_s=2.0, resume_threshold_s=6.0)
    log, report = run_session(manifest, constant_trace(10000.0), config)
    assert [r["event"] for r in log.records[-5:]] == [
        "playback_stall", "download_complete", "playback_resume", "chunk_display_start", "session_end",
    ]
    assert events(log, "playback_resume")[0]["time_s"] == pytest.approx(6.094, abs=1e-9)
    assert events(log, "chunk_display_start")[-1]["chunk"] == 2
    assert report.partial is False
    assert report.rebuffer_count == 1
    assert report.rebuffering_total_s == pytest.approx(2.0, abs=1e-9)
    assert not replay_diff(log, manifest, config)


def test_fetch_gate_holds_one_chunk_of_headroom():
    # 10 s buffer, 4 s chunks: fetches wait until occupancy drains to 6 s.
    manifest = make_manifest(chunks=6, rates=(235, 375))
    log, report = run_session(
        manifest,
        constant_trace(1000.0),
        sba_config(buffer_capacity_s=10.0, critical_threshold_s=3.0),
    )
    fetches = events(log, "fetch_issued")
    assert all(f["buffer_s"] <= 6.0 + 1e-9 for f in fetches)
    gated = [f for f in fetches if f["buffer_s"] == pytest.approx(6.0, abs=1e-9)]
    assert len(gated) >= 3
    assert not events(log, "playback_stall")
    assert len(report.displayed) == 6


def test_looping_trace_carries_long_session():
    manifest = make_manifest(chunks=40)
    trace = constant_trace(5000.0, until_s=30.0)
    log, report = run_session(manifest, trace, sba_config(loop_trace=True))
    assert report.partial is False
    assert len(report.displayed) == 40
    assert log.header["loop_trace"] is True


# --- log serialization ---


def test_log_roundtrips_through_jsonl(tmp_path):
    manifest = make_manifest(chunks=5)
    log, _ = run_session(manifest, constant_trace(3000.0), sba_config())
    again = SessionEventLog.from_jsonl(log.to_jsonl())
    assert again.records == log.records
    path = tmp_path / "session.jsonl"
    log.write(str(path))
    assert SessionEventLog.read(str(path)).records == log.records


def test_read_names_a_log_that_is_not_utf8(tmp_path):
    path = tmp_path / "session.jsonl"
    path.write_bytes(b'{"event": "session_start", "policy": "\xff"}\n')
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not UTF-8 text: 'utf-8' codec"):
        SessionEventLog.read(str(path))


def test_failed_log_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "session.jsonl"
    path.write_bytes(b'{"event": "session_start"}\n')
    log, _ = run_session(make_manifest(chunks=5), constant_trace(3000.0), sba_config())

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError(28, "No space left on device")

    # The helper every abrsim file write goes through lives in abrsim.manifest.
    monkeypatch.setattr("abrsim.manifest.open", lambda *a, **k: HalfWriter(open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="No space left"):
        log.write(str(path))
    assert path.read_bytes() == b'{"event": "session_start"}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["session.jsonl"]
    monkeypatch.undo()
    log.write(str(path))
    assert path.read_text() == log.to_jsonl()
    assert [p.name for p in tmp_path.iterdir()] == ["session.jsonl"]


def test_runs_are_deterministic():
    manifest = make_manifest(chunks=12)
    first, _ = run_session(manifest, constant_trace(2000.0), sba_config())
    second, _ = run_session(manifest, constant_trace(2000.0), sba_config())
    assert first.to_jsonl() == second.to_jsonl()


def test_from_jsonl_rejects_broken_text():
    with pytest.raises(ValueError, match="empty"):
        SessionEventLog.from_jsonl("\n  \n")
    with pytest.raises(ValueError, match="line 2"):
        SessionEventLog.from_jsonl('{"event": "session_start"}\nnot json\n')
    with pytest.raises(ValueError, match="line 1"):
        SessionEventLog.from_jsonl("[1, 2]\n")
    with pytest.raises(ValueError, match="event"):
        SessionEventLog.from_jsonl('{"time_s": 1.0}\n')


@pytest.mark.parametrize("line", ["\x0c", "\x85", "\u2028", "\x0c \t"])
def test_a_line_of_whitespace_json_does_not_allow_is_refused(line):
    # `str.strip()` empties these lines, so they were skipped as blank.
    with pytest.raises(ValueError) as raised:
        SessionEventLog.from_jsonl('{"event": "a"}\n' + line + "\n")
    assert str(raised.value) == "line 2: not valid JSON: Expecting value: line 1 column 1 (char 0)"


def test_header_requires_session_start():
    log = SessionEventLog([{"event": "fetch_issued"}])
    with pytest.raises(ValueError, match="session_start"):
        log.header


# --- replay verification ---


def replayable_log():
    manifest = make_manifest(chunks=10)
    log, _ = run_session(manifest, constant_trace(4000.0), sba_config())
    return manifest, log


def test_replay_accepts_faithful_log():
    manifest, log = replayable_log()
    assert not replay_diff(log, manifest, open_log(log, manifest))


def test_replay_accepts_truncated_log():
    manifest = make_manifest(chunks=2, rates=(235, 375))
    log, _ = run_session(manifest, constant_trace(100.0, until_s=10.0), sba_config())
    assert log.records[-1]["event"] == "session_truncated"
    assert not replay_diff(log, manifest, open_log(log, manifest))


def test_replay_checks_a_truncation_shaped_like_a_completion():
    # With a float throughput_kbps in place of its diagnostic, the truncation has every
    # field of a completion in its exact type; it must still be checked as a truncation.
    manifest = make_manifest(chunks=8, duration=2.0)
    log, _ = run_session(manifest, constant_trace(3000.0, until_s=1.0), SessionConfig())
    last = log.records[-1]
    assert (last["event"], len(log.records)) == ("session_truncated", 17)
    del last["diagnostic"]
    last["throughput_kbps"] = 3000.0
    assert replay_diff(log, manifest, open_log(log, manifest)) == [
        "log is not replayable: record 17 (session_truncated) lacks diagnostic"]


def bundled_session():
    """The bundled manifest and the log of a default-config session on its `trace_00.csv`."""
    scenario = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenarios", "comparison")
    manifest = load_manifest(os.path.join(scenario, "manifest.json"))
    log, _ = run_session(manifest, load_trace(os.path.join(scenario, "traces", "trace_00.csv")), SessionConfig())
    return manifest, log


def test_replay_names_the_chunk_a_log_lacks_a_completion_for():
    # No session_truncated record says where the log ends, so the missing last
    # completion is an inconsistency, not a trace that ran dry.
    manifest, log = bundled_session()
    last = events(log, "download_complete")[-1]
    assert last["chunk"] == 150 and not events(log, "session_truncated")
    log.records.remove(last)
    assert replay_diff(log, manifest, open_log(log, manifest)) == [
        "log is not replayable: log holds no completion for chunk 150"]


@pytest.mark.parametrize("kind, field, value", [
    ("fetch_issued", "level", True),
    ("fetch_issued", "chunk", 1.0),
    ("fetch_issued", "time_s", 0),
    ("fetch_issued", "time_s", False),
    ("session_start", "chunk_count", 150.0),
    ("session_start", "chunk_duration_s", 4),
    ("session_start", "ladder_kbps", [235, 375.0, 560.0, 750.0, 1050.0, 1750.0, 2350.0, 3000.0, 4300.0, 5800.0]),
], ids=["bool-level", "float-chunk", "int-time", "bool-time", "float-chunk-count", "int-duration", "int-rung"])
def test_replay_reports_a_value_of_another_json_type(kind, field, value):
    # Each edit is == to the value the engine writes (True == 1 == 1.0), yet no log the engine writes holds it.
    manifest, log = bundled_session()
    record = events(log, kind)[0]
    replayed = record[field]
    assert value == replayed
    record[field] = value
    log = SessionEventLog.from_jsonl(log.to_jsonl())
    index = [r["event"] for r in log.records].index(kind) + 1  # records are counted from 1
    assert replay_diff(log, manifest, SessionConfig()) == [
        f"record {index} ({kind}): {field} logged {value!r}, replay {replayed!r}"]


def one_step(value, rng):
    """`value` one step off in its own JSON type: the next float either way, an int +-1, a string + "x"."""
    if type(value) is float:
        return math.nextafter(value, rng.choice((-math.inf, math.inf)))
    if type(value) is int:
        return value + rng.choice((-1, 1))
    return value + "x"


@pytest.mark.parametrize("seed", [1, 2])
def test_replay_refuses_every_one_step_edit_of_a_bundled_log(seed):
    # Replay proves a log is what its header's config writes on the logged completion times, so a
    # step on any value below the header must show, read as `abrsim replay` reads it: under the
    # edited log's own header.  A step on the header's grid is refused as it opens, at record 1.
    scenario = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenarios", "comparison")
    manifest = load_manifest(os.path.join(scenario, "manifest.json"))
    configs = validate_runspec(load_runspec(os.path.join(scenario, "runspec.json")))
    traces = sorted(glob.glob(os.path.join(scenario, "traces", "trace_*.csv")))
    rng = random.Random(seed)
    passed = []
    for _ in range(2):
        config, path = rng.choice(configs), rng.choice(traces)
        records = run_session(manifest, load_trace(path), config)[0].records
        for _ in range(150):
            n = rng.randrange(2, len(records) + 1)  # counted from 1, below the header
            key = rng.choice(list(records[n - 1]))
            log = SessionEventLog(records[:n - 1] + [{**records[n - 1], key: one_step(records[n - 1][key], rng)}]
                                  + records[n:])
            try:
                caught = replay_diff(log, manifest, open_log(log, manifest)) != []
            except ValueError as exc:
                caught = str(exc).startswith("record ")
            if not caught:
                passed.append((config.policy, os.path.basename(path), n, key, log.records[n - 1][key]))
        header = records[0]
        ladder = list(header["ladder_kbps"])
        k = rng.randrange(len(ladder))
        ladder[k] = one_step(ladder[k], rng)
        for key, value in (("chunk_count", one_step(header["chunk_count"], rng)),
                           ("chunk_duration_s", one_step(header["chunk_duration_s"], rng)), ("ladder_kbps", ladder)):
            with pytest.raises(ValueError, match=rf"^record 1 \(session_start\): {key} .* is not the manifest's "):
                open_log(SessionEventLog([{**header, key: value}] + records[1:]), manifest)
    assert passed == []


@pytest.mark.parametrize("samples, rates", [
    (((0.0, 1e-300), (10.0, 1e-300)), (1e299, 1e300)),
    (((0.0, 1000.0), (5e-324, 1000.0)), (235.0, 375.0)),
], ids=["tiny-rate-under-a-huge-ladder", "subnormal-period"])
def test_a_loop_count_past_the_float_range_truncates_the_session(samples, rates):
    manifest = make_manifest(chunks=3, rates=rates)
    log, report = run_session(manifest, BandwidthTrace(samples), sba_config(loop_trace=True))
    assert report.partial
    assert log.records[-1]["event"] == "session_truncated"
    assert "the loop count overflows" in report.diagnostic
    assert not replay_diff(log, manifest, open_log(log, manifest))


def test_only_a_looping_session_refuses_a_period_that_carries_no_volume():
    manifest = make_manifest(chunks=3, rates=(235.0, 375.0))
    trace = BandwidthTrace(((0.0, 5e-324), (0.5, 0.0)))  # 5e-324 kbps x 0.5 s rounds to 0 kilobits
    with pytest.raises(ValueError, match=r"its 0\.5s period carries 0\.0 kilobits$"):
        run_session(manifest, trace, sba_config(loop_trace=True))
    log, report = run_session(manifest, trace, sba_config())
    assert report.partial and log.records[-1]["event"] == "session_truncated"


def test_replay_flags_tampered_level():
    manifest, log = replayable_log()
    tampered = SessionEventLog(copy.deepcopy(log.records))
    fetch = events(tampered, "fetch_issued")[3]
    fetch["level"] += 1
    diffs = replay_diff(tampered, manifest, open_log(log, manifest))
    assert diffs and any("level" in d for d in diffs)


def test_replay_flags_shifted_completion():
    manifest, log = replayable_log()
    tampered = SessionEventLog(copy.deepcopy(log.records))
    events(tampered, "download_complete")[2]["time_s"] += 0.5
    assert replay_diff(tampered, manifest, open_log(log, manifest))


def test_replay_reports_sub_nanosecond_jitter():
    # Replay is exact: a completion time moved by 1e-12 s moves the throughput
    # the engine derives from it, and the log no longer verifies.
    manifest, log = replayable_log()
    jittered = SessionEventLog(copy.deepcopy(log.records))
    rec = events(jittered, "download_complete")[2]
    rec["time_s"] += 1e-12
    diffs = replay_diff(jittered, manifest, open_log(log, manifest))
    index = jittered.records.index(rec) + 1  # records are counted from 1
    assert diffs[0].startswith(f"record {index} (download_complete): throughput_kbps logged "
                               f"{rec['throughput_kbps']!r}, replay ")
    assert not any("download_complete): time_s" in d for d in diffs)  # a logged completion is replay's input


def test_replay_verifies_startup_policy_header():
    # The field has one value and no config knob, but it is still written
    # and still compared, so an edited header does not verify.
    manifest, log = replayable_log()
    edited = SessionEventLog(copy.deepcopy(log.records))
    edited.records[0]["startup_policy"] = "play_after_two_chunks"
    diffs = replay_diff(edited, manifest, open_log(log, manifest))
    assert diffs == [
        "record 1 (session_start): startup_policy logged 'play_after_two_chunks', "
        "replay 'play_after_first_chunk'"
    ]


def test_replay_flags_dropped_record():
    manifest, log = replayable_log()
    clipped = SessionEventLog(copy.deepcopy(log.records[:-1]))
    diffs = replay_diff(clipped, manifest, open_log(log, manifest))
    assert diffs


def test_replay_reports_wrong_chunk_order():
    manifest, log = replayable_log()
    shuffled = SessionEventLog(copy.deepcopy(log.records))
    dones = events(shuffled, "download_complete")
    dones[0]["chunk"], dones[1]["chunk"] = dones[1]["chunk"], dones[0]["chunk"]
    diffs = replay_diff(shuffled, manifest, open_log(log, manifest))
    assert diffs and "chunk" in diffs[0]


def test_replay_snapshot_line_format():
    # One line per record, each a JSON object with an event name.
    _, log = replayable_log()
    for line in log.to_jsonl().splitlines():
        rec = json.loads(line)
        assert isinstance(rec["event"], str)
