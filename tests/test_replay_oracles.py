"""Differential tests: replay's fast paths against the field-by-field originals.

`_diff_records` skips records that compare equal and `from_jsonl` decodes
lines with one reused decoder. The reference functions below are the plain
versions both replaced; the fast paths must return what they return for
every input, except that exactly equal infinities now match. Both sides
share the rule that an infinity matches nothing else.
"""

import copy
import json
import math
import random

import pytest

from abrsim import replay_diff
from abrsim.simulator import (
    TOLERANCE_S,
    LogFormatError,
    SessionConfig,
    SessionEventLog,
    _close,
    _diff_records,
    _drive,
    _LoggedCompletions,
    _ReplayInconsistency,
)
from abrsim.trace import TraceExhaustedError
from helpers import events, replay_pool


def reference_diff_records(original, regenerated, tolerance):
    diffs = []
    if len(original) != len(regenerated):
        diffs.append(f"record count differs: logged {len(original)}, replay {len(regenerated)}")
    for idx, (a, b) in enumerate(zip(original, regenerated)):
        if set(a.keys()) != set(b.keys()):
            diffs.append(f"record {idx}: fields {sorted(a)} vs {sorted(b)}")
            continue
        for key, logged in a.items():
            fresh = b[key]
            if isinstance(logged, bool) or isinstance(fresh, bool):
                same = logged == fresh
            elif isinstance(logged, (int, float)) and isinstance(fresh, (int, float)):
                same = reference_close(float(logged), float(fresh), tolerance)
            else:
                same = logged == fresh
            if not same:
                diffs.append(f"record {idx} ({a.get('event')}): {key} logged {logged!r}, replay {fresh!r}")
        if len(diffs) >= 20:
            diffs.append("...")
            break
    return diffs


def reference_close(a, b, tol):
    return math.isfinite(a - b) and abs(a - b) <= max(tol, tol * max(abs(a), abs(b)))


def reference_from_jsonl(text):
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LogFormatError(f"line {lineno}: not valid JSON: {exc}") from exc
        if not isinstance(rec, dict) or not isinstance(rec.get("event"), str):
            raise LogFormatError(f"line {lineno}: record must be an object with an `event` field")
        records.append(rec)
    if not records:
        raise LogFormatError("log is empty")
    return records


# --- record diffs ---


def assert_same_diffs(original, regenerated):
    expected = reference_diff_records(original, regenerated, TOLERANCE_S)
    assert _diff_records(original, regenerated, TOLERANCE_S) == expected
    return expected


def assert_replay_matches_reference(log, manifest, header):
    """replay_diff on `log` against the reference diff of its regenerated records."""
    config = SessionConfig.from_header(header)
    try:
        regenerated = SessionEventLog()
        _drive(manifest, config, _LoggedCompletions(log), regenerated)
        regenerated = regenerated.records
    except (_ReplayInconsistency, ValueError, TraceExhaustedError):
        # replay_diff reports these before any record is compared.
        return None
    expected = reference_diff_records(log.records, regenerated, TOLERANCE_S)
    assert replay_diff(log, manifest, config) == expected
    assert_same_diffs(log.records, regenerated)
    return expected


def test_clean_logs_diff_like_the_reference():
    for log, manifest in replay_pool():
        assert assert_replay_matches_reference(log, manifest, log.header) == []


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
        if assert_replay_matches_reference(tampered, manifest, log.header) is not None:
            compared += 1
    assert compared > 150


def test_jitter_nan_and_missing_keys_diff_like_the_reference():
    log, manifest = replay_pool()[0]
    jittered = SessionEventLog(copy.deepcopy(log.records))
    for rec in jittered.records[1:]:
        for key, value in rec.items():
            if isinstance(value, float):
                rec[key] = value + 1e-12
    assert assert_replay_matches_reference(jittered, manifest, log.header) == []

    for event, key in [("fetch_issued", "buffer_s"), ("chunk_display_start", "time_s"),
                       ("fetch_issued", "bandwidth_estimate_kbps")]:
        poisoned = SessionEventLog(copy.deepcopy(log.records))
        events(poisoned, event)[3][key] = float("nan")
        assert assert_replay_matches_reference(poisoned, manifest, log.header)

    for event, key in [("fetch_issued", "reason"), ("chunk_display_start", "level"),
                       ("playback_start", "time_s")]:
        clipped = SessionEventLog(copy.deepcopy(log.records))
        del events(clipped, event)[0][key]
        assert assert_replay_matches_reference(clipped, manifest, log.header)


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


def test_exactly_equal_infinities_now_match():
    inf = float("inf")
    original = [{"event": "x", "v": inf}, {"event": "y", "v": -inf}]
    regenerated = [{"event": "x", "v": math.inf}, {"event": "y", "v": -math.inf}]
    assert reference_diff_records(original, regenerated, TOLERANCE_S) == [
        "record 0 (x): v logged inf, replay inf",
        "record 1 (y): v logged -inf, replay -inf",
    ]
    assert _diff_records(original, regenerated, TOLERANCE_S) == []
    assert _close(inf, inf, TOLERANCE_S) and not reference_close(inf, inf, TOLERANCE_S)


def test_an_infinity_matches_nothing_but_itself():
    inf = float("inf")
    for a, b in [(inf, 1e308), (inf, 0.0), (inf, -inf), (-inf, -1.0)]:
        assert not _close(a, b, TOLERANCE_S) and not _close(b, a, TOLERANCE_S)
    assert _close(-inf, -inf, TOLERANCE_S)


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
    diffs = replay_diff(tampered, manifest, SessionConfig.from_header(tampered.header))
    assert diffs == [
        f"record {display} (chunk_display_start): time_s logged inf, "
        f"replay {log.records[display]['time_s']!r}",
        f"record {fetch} (fetch_issued): buffer_s logged -inf, replay {log.records[fetch]['buffer_s']!r}",
    ]


# --- log decoding ---


def decode_outcome(parse, text):
    try:
        records = parse(text)
    except LogFormatError as exc:
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
])
def test_text_decodes_like_the_reference(text):
    assert_same_decoding(text)


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
