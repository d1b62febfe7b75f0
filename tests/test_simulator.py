import copy
import json
import re

import pytest

from abrsim import POLICIES, SessionConfig, replay_diff, run_session
from abrsim.abr import Decision, Policy
from abrsim import simulator
from abrsim.simulator import LogFormatError, SessionEventLog
from abrsim.trace import download_finish_time
from helpers import constant_trace, events, make_manifest, monotone_rows


def sba_config(**kwargs):
    return SessionConfig(policy="sba", **kwargs)


# --- config validation ---


def test_config_rejects_unknown_policy():
    with pytest.raises(ValueError, match="unknown policy"):
        SessionConfig(policy="rate_hog")
    with pytest.raises(ValueError, match="bad parameters"):
        SessionConfig(policy="bba", policy_params={"bogus": 1})


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


def test_run_rejects_capacity_below_chunk():
    manifest = make_manifest(chunks=2)
    with pytest.raises(ValueError, match="cannot hold"):
        run_session(manifest, constant_trace(1000.0), sba_config(
            buffer_capacity_s=3.0, critical_threshold_s=1.0))


def test_run_rejects_capacity_equal_to_chunk():
    # At capacity == chunk duration the fetch gate opens only on an empty
    # buffer, which round-off can leave a hair below zero; on this link it
    # did, and the session crashed on the buffer check.
    manifest = make_manifest(chunks=20)
    for lc in (1.0, 2.0, 3.0):
        with pytest.raises(ValueError, match="cannot hold"):
            run_session(manifest, constant_trace(1000.0), sba_config(
                buffer_capacity_s=4.0, critical_threshold_s=lc))


def test_run_rejects_unreachable_resume_threshold():
    manifest = make_manifest(chunks=2)
    with pytest.raises(ValueError, match="unreachable"):
        run_session(manifest, constant_trace(1000.0), sba_config(
            buffer_capacity_s=10.0, critical_threshold_s=3.0, resume_threshold_s=7.0))


# --- the engine's own checks: once per session, chunk and decision ---


def test_engine_rejects_a_critical_threshold_outside_capacity():
    # SessionConfig checks the pair when it is built; the engine checks it
    # again once per session, for a config edited after it was built.
    for critical in (120.0, 0.0, float("nan")):
        config = sba_config()
        config.critical_threshold_s = critical
        with pytest.raises(ValueError, match="need 0 < critical threshold < capacity"):
            run_session(make_manifest(), constant_trace(1000.0), config)


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
    # A first completion logged at Infinity makes the next estimate 0.0; one
    # logged a denormal after its fetch makes it inf.  Either stops the replay.
    manifest, log = replayable_log()
    for time_s, estimate in ((float("inf"), "0.0"), (5e-324, "inf")):
        tampered = SessionEventLog(copy.deepcopy(log.records))
        events(tampered, "download_complete")[0]["time_s"] = time_s
        assert replay_diff(tampered, manifest, SessionConfig.from_header(log.header)) == [
            f"log is not replayable: bandwidth estimate must be > 0, got {estimate}"]


def test_a_download_that_rounds_to_no_time_is_a_value_error():
    # Chunk 1 weighs 1e20 kilobits, so the clock reaches 1e17 s and the
    # millisecond download of chunk 2 rounds to no time at all.
    sizes = ((1e20, 1e20),) + ((1.0, 2.0),) * 4
    manifest = make_manifest(chunks=5, rates=(235, 375), sizes=sizes)
    with pytest.raises(ValueError, match=re.escape(
            "chunk 2 download finishes at 1e+17s, not after its fetch at 1e+17s")):
        run_session(manifest, constant_trace(1000.0), SessionConfig())


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
        volume = manifest.chunk_volume(fetch["chunk"], fetch["level"])
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
    trace = constant_trace(5000.0, until_s=30.0, loop=False)
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
    with pytest.raises(LogFormatError, match=f"^{re.escape(str(path))}: not UTF-8 text: 'utf-8' codec"):
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

    monkeypatch.setattr(simulator, "open", lambda *a, **k: HalfWriter(open(*a, **k)), raising=False)
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
    with pytest.raises(LogFormatError, match="empty"):
        SessionEventLog.from_jsonl("\n  \n")
    with pytest.raises(LogFormatError, match="line 2"):
        SessionEventLog.from_jsonl('{"event": "session_start"}\nnot json\n')
    with pytest.raises(LogFormatError, match="line 1"):
        SessionEventLog.from_jsonl("[1, 2]\n")
    with pytest.raises(LogFormatError, match="event"):
        SessionEventLog.from_jsonl('{"time_s": 1.0}\n')


def test_header_requires_session_start():
    log = SessionEventLog([{"event": "fetch_issued"}])
    with pytest.raises(LogFormatError, match="session_start"):
        log.header


# --- replay verification ---


def replayable_log():
    manifest = make_manifest(chunks=10)
    log, _ = run_session(manifest, constant_trace(4000.0), sba_config())
    return manifest, log


def test_replay_accepts_faithful_log():
    manifest, log = replayable_log()
    assert not replay_diff(log, manifest, SessionConfig.from_header(log.header))


def test_replay_accepts_truncated_log():
    manifest = make_manifest(chunks=2, rates=(235, 375))
    log, _ = run_session(manifest, constant_trace(100.0, until_s=10.0), sba_config())
    assert log.records[-1]["event"] == "session_truncated"
    assert not replay_diff(log, manifest, SessionConfig.from_header(log.header))


def test_replay_flags_tampered_level():
    manifest, log = replayable_log()
    tampered = SessionEventLog(copy.deepcopy(log.records))
    fetch = events(tampered, "fetch_issued")[3]
    fetch["level"] += 1
    diffs = replay_diff(tampered, manifest, SessionConfig.from_header(log.header))
    assert diffs and any("level" in d for d in diffs)


def test_replay_flags_shifted_completion():
    manifest, log = replayable_log()
    tampered = SessionEventLog(copy.deepcopy(log.records))
    events(tampered, "download_complete")[2]["time_s"] += 0.5
    assert replay_diff(tampered, manifest, SessionConfig.from_header(log.header))


def test_replay_tolerates_sub_tolerance_jitter():
    manifest, log = replayable_log()
    jittered = SessionEventLog(copy.deepcopy(log.records))
    rec = events(jittered, "download_complete")[2]
    rec["time_s"] += 1e-12
    assert not replay_diff(jittered, manifest, SessionConfig.from_header(log.header))


def test_replay_verifies_startup_policy_header():
    # The field has one value and no config knob, but it is still written
    # and still compared, so an edited header does not verify.
    manifest, log = replayable_log()
    edited = SessionEventLog(copy.deepcopy(log.records))
    edited.records[0]["startup_policy"] = "play_after_two_chunks"
    diffs = replay_diff(edited, manifest, SessionConfig.from_header(log.header))
    assert diffs == [
        "record 0 (session_start): startup_policy logged 'play_after_two_chunks', "
        "replay 'play_after_first_chunk'"
    ]


def test_replay_flags_dropped_record():
    manifest, log = replayable_log()
    clipped = SessionEventLog(copy.deepcopy(log.records[:-1]))
    diffs = replay_diff(clipped, manifest, SessionConfig.from_header(log.header))
    assert diffs


def test_replay_reports_wrong_chunk_order():
    manifest, log = replayable_log()
    shuffled = SessionEventLog(copy.deepcopy(log.records))
    dones = events(shuffled, "download_complete")
    dones[0]["chunk"], dones[1]["chunk"] = dones[1]["chunk"], dones[0]["chunk"]
    diffs = replay_diff(shuffled, manifest, SessionConfig.from_header(log.header))
    assert diffs and "chunk" in diffs[0]


def test_replay_snapshot_line_format():
    # One line per record, each a JSON object with an event name.
    _, log = replayable_log()
    for line in log.to_jsonl().splitlines():
        rec = json.loads(line)
        assert isinstance(rec["event"], str)
