"""Differential tests: replay's fast paths against the field-by-field originals.

`_diff_records` skips records that compare equal, `replay_diff` first
compares each event as the engine emits it, and `from_jsonl` decodes a whole
log in one call when its guard holds. The reference functions below are the
plain versions they replaced; the fast paths must return what they return
for every input. Two values match only when they are equal and of one JSON
type at every depth.
"""

import copy
import json
import math
import random

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from abrsim import replay_diff, simulator
from abrsim.simulator import (
    SessionEventLog,
    _diff_records,
    _drive,
    _ReplaySink,
    open_log,
)
from helpers import events, replay_pool


def same_json_value(a, b):
    """a == b, where a bool, an int and a float are three JSON types (True == 1 == 1.0 is no match)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return sorted(a) == sorted(b) and all(same_json_value(a[key], b[key]) for key in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(same_json_value(x, y) for x, y in zip(a, b))
    return a == b


def reference_diff_records(original, regenerated):
    diffs = []
    if len(original) != len(regenerated):
        diffs.append(f"record count differs: logged {len(original)}, replay {len(regenerated)}")
    for idx, (a, b) in enumerate(zip(original, regenerated), start=1):
        if set(a.keys()) != set(b.keys()):
            diffs.append(f"record {idx}: fields {sorted(a)} vs {sorted(b)}")
            continue
        for key, logged in a.items():
            fresh = b[key]
            if not same_json_value(logged, fresh):
                diffs.append(f"record {idx} ({a.get('event')}): {key} logged {logged!r}, replay {fresh!r}")
        if len(diffs) >= 20:
            diffs.append("...")
            break
    return diffs


def reference_from_jsonl(text):
    records = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip(" \t\r"):  # a blank line holds only JSON's whitespace
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: not valid JSON: {exc}") from exc
        if not isinstance(rec, dict) or not isinstance(rec.get("event"), str):
            raise ValueError(f"line {lineno}: record must be an object with an `event` field")
        records.append(rec)
    if not records:
        raise ValueError("log is empty")
    return records


# --- record diffs ---


def assert_same_diffs(original, regenerated):
    expected = reference_diff_records(original, regenerated)
    assert _diff_records(original, regenerated) == expected
    return expected


def assert_replay_matches_reference(log, manifest, opened):
    """replay_diff on `log`, under the config `opened` holds, against the reference diff of its regenerated records."""
    config = open_log(opened, manifest)
    try:
        regenerated = SessionEventLog()
        _drive(manifest, config, _ReplaySink(log.records).finish, regenerated)
        regenerated = regenerated.records
    except ValueError as exc:
        # replay_diff reports these before any record is compared.
        assert replay_diff(log, manifest, config) == [f"log is not replayable: {exc}"]
        return None
    expected = reference_diff_records(log.records, regenerated)
    assert replay_diff(log, manifest, config) == expected
    assert_same_diffs(log.records, regenerated)
    return expected


def test_clean_logs_diff_like_the_reference():
    for log, manifest in replay_pool():
        assert assert_replay_matches_reference(log, manifest, log) == []


def tamper(value, rng):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + rng.choice((1, -1))
    if isinstance(value, float):
        return value + rng.choice((0.37, 1e-6, -2.0)) * (1.0 + abs(value))
    return str(value) + "_tampered"


def test_single_field_tampers_diff_like_the_reference():
    entries = replay_pool()
    rng = random.Random(4040)
    compared = 0
    for _ in range(200):
        log, manifest = entries[rng.randrange(len(entries))]
        tampered = SessionEventLog(copy.deepcopy(log.records))
        candidates = [(i, key) for i, rec in enumerate(tampered.records) for key in rec
                      if (i, key) != (0, "event")]
        i, key = candidates[rng.randrange(len(candidates))]
        tampered.records[i][key] = tamper(tampered.records[i][key], rng)
        if assert_replay_matches_reference(tampered, manifest, log) is not None:
            compared += 1
    assert compared > 150


def test_jitter_nan_and_missing_keys_diff_like_the_reference():
    log, manifest = replay_pool()[0]
    jittered = SessionEventLog(copy.deepcopy(log.records))
    for rec in jittered.records[1:]:
        for key, value in rec.items():
            if isinstance(value, float):
                rec[key] = value + 1e-12
    assert assert_replay_matches_reference(jittered, manifest, log)[0] == (
        "record 2 (fetch_issued): time_s logged 1e-12, replay 0.0")

    for event, key in [("fetch_issued", "buffer_s"), ("chunk_display_start", "time_s"),
                       ("fetch_issued", "bandwidth_estimate_kbps")]:
        poisoned = SessionEventLog(copy.deepcopy(log.records))
        events(poisoned, event)[3][key] = float("nan")
        assert assert_replay_matches_reference(poisoned, manifest, log)

    for event, key in [("fetch_issued", "reason"), ("chunk_display_start", "level"),
                       ("playback_start", "time_s")]:
        clipped = SessionEventLog(copy.deepcopy(log.records))
        del events(clipped, event)[0][key]
        assert assert_replay_matches_reference(clipped, manifest, log)


def test_a_mismatch_before_an_engine_error_reports_the_error():
    # The sink keeps the events from the edited fetch on; the engine raises
    # at the later completion of the same run, and that error is the result.
    log, manifest = replay_pool()[0]
    edited = SessionEventLog(copy.deepcopy(log.records))
    events(edited, "fetch_issued")[1]["reason"] = "edited"
    events(edited, "download_complete")[5]["chunk"] = 99
    diffs = replay_diff(edited, manifest, open_log(edited, manifest))
    assert diffs == ["log is not replayable: record 16 (download_complete): chunk logged 99, replay 6"]
    assert assert_replay_matches_reference(edited, manifest, log) is None


def test_replay_drives_the_engine_once_whatever_the_outcome(monkeypatch):
    log, manifest = replay_pool()[1]
    edited = copy.deepcopy(log.records)
    events(SessionEventLog(edited), "fetch_issued")[5]["buffer_s"] += 1.0
    calls = []

    def counting_drive(*args):
        calls.append(args)
        return _drive(*args)

    monkeypatch.setattr(simulator, "_drive", counting_drive)
    for records, verifies in ((log.records, True), (edited, False), (log.records[:-1], False),
                              (log.records + [{"event": "session_end", "time_s": 1.0}], False)):
        calls.clear()
        diffs = replay_diff(SessionEventLog(records), manifest, open_log(log, manifest))
        assert (diffs == []) is verifies
        assert len(calls) == 1


def test_short_and_long_logs_diff_like_the_reference():
    log, manifest = replay_pool()[1]
    for records in (log.records[:-1], log.records + [{"event": "session_end", "time_s": 1.0}],
                    log.records[:1] + log.records[2:]):
        diffs = assert_replay_matches_reference(SessionEventLog(copy.deepcopy(records)), manifest, log)
        assert diffs and diffs[0].startswith("record count differs")


def test_count_mismatch_and_cap_diff_like_the_reference():
    log, manifest = replay_pool()[1]
    records = log.records
    assert_same_diffs(records[:-1], copy.deepcopy(records))
    assert_same_diffs(copy.deepcopy(records), records[:-3])
    assert_same_diffs(records + [{"event": "session_end", "time_s": 1.0}], copy.deepcopy(records))

    shifted = copy.deepcopy(records)
    for rec in shifted[1:]:
        if "time_s" in rec:
            rec["time_s"] += 1.0
    capped = assert_same_diffs(shifted, records)
    assert len(capped) == 21 and capped[-1] == "..."

    # Field-set mismatches skip the cap check, so where the cap fires depends
    # on which records around them are equal.
    mixed = copy.deepcopy(records)
    for rec in mixed[1::2]:
        rec["extra"] = 1
    assert_same_diffs(mixed, records)
    renamed = copy.deepcopy(records)
    for rec in renamed[1:25]:
        rec["extra"] = 1
    assert_same_diffs(renamed, records)


@pytest.mark.parametrize("logged, fresh", [
    (True, 1), (1, True), (False, 0), (True, 2), (True, 1.0),
    (1, 1.0), (0.0, -0.0), (4, 4.0000000001), (1e300, 1.0000000001e300),
    ("1", 1), (None, 0.0), ([1, 2], [1, 2.0]), ({"a": 1}, {"a": True}),
    (float("nan"), float("nan")), (float("nan"), 1.0), (float("inf"), 1e308),
    (float("inf"), float("-inf")),
])
def test_mixed_types_diff_like_the_reference(logged, fresh):
    original = [{"event": "session_start"}, {"event": "x", "v": logged, "w": 1.0}]
    regenerated = [{"event": "session_start"}, {"event": "x", "v": fresh, "w": 1.0}]
    assert_same_diffs(original, regenerated)


def test_infinite_tamper_is_reported():
    log, manifest = replay_pool()[0]
    lines = log.to_jsonl().splitlines()
    display = next(i for i, line in enumerate(lines) if '"chunk_display_start"' in line)
    fetch = next(i for i, line in enumerate(lines) if '"fetch_issued"' in line and i > display)
    edited = [json.loads(line) for line in lines]
    edited[display]["time_s"] = math.inf
    edited[fetch]["buffer_s"] = -math.inf
    # json.dumps writes the infinities as the non-standard tokens the decoder reads back.
    tampered = SessionEventLog.from_jsonl("".join(json.dumps(r) + "\n" for r in edited))
    assert tampered.records[display]["time_s"] == math.inf
    diffs = replay_diff(tampered, manifest, open_log(tampered, manifest))
    assert diffs == [
        f"record {display + 1} (chunk_display_start): time_s logged inf, "
        f"replay {log.records[display]['time_s']!r}",
        f"record {fetch + 1} (fetch_issued): buffer_s logged -inf, replay {log.records[fetch]['buffer_s']!r}",
    ]


# --- log decoding ---


def decode_outcome(parse, text):
    try:
        records = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    # json.dumps tells 1 from 1.0 and True from 1, and writes NaN as NaN.
    return "records", json.dumps(records)


def assert_same_decoding(text):
    expected = decode_outcome(reference_from_jsonl, text)
    assert decode_outcome(lambda t: SessionEventLog.from_jsonl(t).records, text) == expected
    return expected


@pytest.mark.parametrize("text", [
    '\n\n{"event": "a"}\n   \n\t\n{"event": "b"}\n\n',
    '  {"event": "a"}  \n\t{"event": "b", "v": 1}\t\n',
    '\u00a0{"event": "a"}\n{"event": "b"}\u3000\n',
    '{"event": "a"}\r\n{"event": "b"}\r\n',
    '{"event": "a"}\r{"event": "b"}\x0c{"event": "c"} ',
    '﻿{"event": "a"}\n',
    '{"event": "a"}\n﻿{"event": "b"}\n',
    '{"event": "a"}{"event": "b"}\n',
    '{"event": "a"} {"event": "b"}\n',
    '{"event": "a"}x\n',
    '{"event": "a"},\n',
    '{"event": "a"} // note\n',
    '{"event": "a", "v": NaN, "w": Infinity, "x": -Infinity, "y": 1e400}\n',
    '{"event": "a", "v": nan}\n',
    "null\n",
    '[{"event": "a"}]\n',
    "[1, 2]\n",
    '"event"\n',
    "42\n",
    '{"event": 5}\n',
    '{"time_s": 1.0}\n',
    '{"event": "a", "s": "caf\\u00e9 \\ud83d\\ude00"}\n',
    '{"event": "a", "s": "line break"}\n',
    '{"event": "a", "n": [1, 1.0, true, null, {"k": -0.0}]}\n',
    '{"event": "a"',
    "",
    " \n\t\n",
    # Unguarded, a whole-file decode reads the next two as three objects from three lines.
    '{"event": "a", "k": [1\n{"x": 2}]}\n{"event": "b"},{"event": "c"}\n',
    '{"event": "a", "k": [1\n{"x": 2}]}\n{"event": "b"} ,\t{"event": "c"}\n',
    '{"event": "a", "k": [1\n{"x": 2}]}\n{"event": "b"}\r,\r{"event": "c"}\n',
    '{"event": "a", "s": "x\u2028y"}\n',
    '{"event": "a", "s": "x\x85y"}\n',
    '{"event": "a"}\n{"event": "b"}',
    '{"event": "a", "n": [{"k": 1},{"k": 2}]}\n{"event": "b"}\n',
])
def test_text_decodes_like_the_reference(text):
    assert_same_decoding(text)


# Pieces that split one object over lines, put two on one line, or hide a
# line break or a comma inside a string.
LOG_PIECES = ['{"event": "a"}', '{"event": "b", "k": [1', '{"x": 2}]}', '{"event": "c", "s": "', '"}',
              '{"k": 1}', '[', ']', '{', '}', ',', ' ,\t', ' ', '\t', '\n', '\n', '\r', '\u2028', '\x85',
              '\x0c', '"', '1', '{"event": 5}', '\ufeff']


@seed(20261018)
@settings(max_examples=400, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(LOG_PIECES), max_size=12))
def test_pieced_logs_decode_like_the_reference(pieces):
    assert_same_decoding("".join(pieces))


def test_an_engine_log_decodes_in_one_call(monkeypatch):
    calls = []
    scan = simulator._scan_once
    monkeypatch.setattr(simulator, "_scan_once", lambda text, idx: calls.append(idx) or scan(text, idx))
    log, _ = replay_pool()[0]
    assert SessionEventLog.from_jsonl(log.to_jsonl()).records == log.records
    assert len(calls) == 1
    # Two objects on one line: the whole-file decode is not tried.
    calls.clear()
    SessionEventLog.from_jsonl('{"event": "a", "n": [{"k": 1},{"k": 2}]}\n{"event": "b"}\n')
    assert len(calls) == 0


def test_a_clean_log_verifies_in_one_pass(monkeypatch):
    def no_second_pass(*args):
        raise AssertionError("the record-list pass ran")

    monkeypatch.setattr(simulator, "_diff_records", no_second_pass)
    for log, manifest in replay_pool():
        assert replay_diff(log, manifest, open_log(log, manifest)) == []


def test_engine_logs_decode_like_the_reference():
    for log, _ in replay_pool():
        kind, _ = assert_same_decoding(log.to_jsonl())
        assert kind == "records"


def test_mutated_logs_decode_like_the_reference():
    log, _ = replay_pool()[0]
    base = log.to_jsonl()
    alphabet = ' \t\r\n{}[]",:.-+eE0123456789xNaInfity﻿ '
    rng = random.Random(5150)
    kinds = set()
    for _ in range(300):
        text = list(base)
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(text))
            op = rng.randrange(3)
            if op == 0:
                text.insert(pos, rng.choice(alphabet))
            elif op == 1:
                del text[pos]
            else:
                text[pos] = rng.choice(alphabet)
        kinds.add(assert_same_decoding("".join(text))[0])
    assert kinds == {"records", "error"}
