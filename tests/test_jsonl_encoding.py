"""`SessionEventLog.to_jsonl` writes exactly what `json.dumps` writes.

The engine's per-chunk records go through templates; everything else, and
every record a template does not fit, goes through `json.dumps`.  Random
records of every event kind, with edge-case values and broken shapes, must
give the same text as `json.dumps`, or the same exception.
"""

import json
import sys

from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from abrsim.simulator import SessionEventLog

# Engine key order of every event kind, and each field's JSON type.
SHAPES = {
    "session_start": {
        "policy": "str", "policy_params": "dict", "buffer_capacity_s": "float",
        "critical_threshold_s": "float", "startup_policy": "str", "resume_threshold_s": "float",
        "loop_trace": "bool", "chunk_count": "int", "chunk_duration_s": "float",
        "ladder_kbps": "list",
    },
    "fetch_issued": {
        "time_s": "float", "chunk": "int", "level": "int", "buffer_s": "float",
        "bandwidth_estimate_kbps": "float", "ssim_delta_mean": "float", "reason": "str",
    },
    "download_complete": {"time_s": "float", "chunk": "int", "throughput_kbps": "float"},
    "chunk_display_start": {"time_s": "float", "chunk": "int", "level": "int"},
    "playback_start": {"time_s": "float"},
    "playback_stall": {"time_s": "float"},
    "playback_resume": {"time_s": "float"},
    "session_truncated": {"time_s": "float", "chunk": "int", "diagnostic": "str"},
    "session_end": {"time_s": "float"},
}


class LoudInt(int):
    def __repr__(self):
        return "LoudInt()"


class LoudFloat(float):
    def __repr__(self):
        return "LoudFloat()"


class LoudStr(str):
    def __str__(self):
        return "LoudStr()"


class LoudDict(dict):
    def items(self):  # what `json.dumps` walks in a dict subclass
        return list(super().items())[::-1]


HUGE_INTS = [10**5000, -(10**5000)] if hasattr(sys, "get_int_max_str_digits") else [10**400]
EDGE_FLOATS = [-0.0, 0.0, 5e-324, 2.225073858507201e-308, 1e308, -1e308, 1.7976931348623157e308,
               float("nan"), float("inf"), float("-inf"), LoudFloat(1.5)]
EDGE_INTS = [0, 1, -3, 2**64, True, False, LoudInt(3)] + HUGE_INTS
EDGE_STRS = ['"', "\\", '\\"', "\x00", "\x1f\x7f", "\n\r\t", " ", "é", "汉字", "😀",
             "\ud800", "</script>", LoudStr("hold")]
# A value of another JSON type, or none at all, in place of a field's own.
ODD = [None, True, 2, 2.5, "x", [1.0, "y"], {"k": -0.0}]

FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS + ODD)
VALUES = {
    "float": FLOATS,
    "int": st.integers(-(2**70), 2**70) | st.sampled_from(EDGE_INTS + ODD),
    "str": st.text(max_size=8) | st.sampled_from(EDGE_STRS + ODD),
    "bool": st.sampled_from([True, False] + ODD),
    "dict": st.sampled_from([{}, {"upgrade_only": True}, {"x": float("nan")}, {3: "é"}]),
    "list": st.lists(FLOATS, max_size=3),
}
KEYS = st.sampled_from(["", "time_s", "é", 7, 1.5, float("nan"), None, True])


@st.composite
def records(draw):
    kind = draw(st.sampled_from(sorted(SHAPES)))
    event = draw(st.sampled_from([kind, kind, kind, LoudStr(kind), "other"]))
    items = [("event", event)] + [
        (key, draw(VALUES[typ])) for key, typ in SHAPES[kind].items()
    ]
    edit = draw(st.sampled_from(["none", "none", "drop", "rename", "extra", "reorder", "subclass"]))
    if edit == "drop":
        del items[draw(st.integers(0, len(items) - 1))]
    elif edit == "rename":
        at = draw(st.integers(0, len(items) - 1))
        items[at] = (draw(KEYS), items[at][1])
    elif edit == "extra":
        items.insert(draw(st.integers(0, len(items))), (draw(KEYS), draw(VALUES["float"])))
    elif edit == "reorder":
        items = draw(st.permutations(items))
    return (LoudDict if edit == "subclass" else dict)(items)


def dumps_outcome(records):
    try:
        return "".join(json.dumps(r) + "\n" for r in records)
    except Exception as exc:  # noqa: BLE001 - the exception is the expected outcome
        return type(exc), exc.args


def to_jsonl_outcome(records):
    try:
        return SessionEventLog(records).to_jsonl()
    except Exception as exc:  # noqa: BLE001
        return type(exc), exc.args


FETCH = {"event": "fetch_issued", "time_s": 1.5, "chunk": 2, "level": 3, "buffer_s": 4.0,
         "bandwidth_estimate_kbps": 2350.0, "ssim_delta_mean": -0.0, "reason": "upgrade"}


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(records(), min_size=1, max_size=4))
@example([{**FETCH, "time_s": float("nan")}])
@example([{**FETCH, "buffer_s": float("inf")}, {**FETCH, "buffer_s": 1e308, "time_s": 1e308}])
@example([{**FETCH, "chunk": True}, {**FETCH, "level": LoudInt(2)}, {**FETCH, "time_s": LoudFloat(1.0)}])
@example([{**FETCH, "reason": 'é"\\\x00 '}, {**FETCH, "reason": LoudStr("hold")}])
@example([{**FETCH, "chunk": HUGE_INTS[0]}])
@example([{"event": "download_complete", "time_s": 5e-324, "chunk": 1, "throughput_kbps": -0.0},
          {"event": "chunk_display_start", "time_s": 2.225073858507201e-308, "chunk": 1, "level": 1}])
@example([{"event": "chunk_display_start", "chunk": 1, "time_s": 0.0, "level": 1},
          {"event": "chunk_display_start", "time_s": 0.0, "level": 2, "chunk": 1},
          {"event": "download_complete", "time_s": 0.5, "chunk": 1, "throughput": 9.0}])
@example([LoudDict(FETCH)])
@example([{"event": "chunk_display_start", "time_s": 0.0, "chunk": 1, "level": 1, 7: None}])
def test_to_jsonl_matches_json_dumps(recs):
    assert to_jsonl_outcome(recs) == dumps_outcome(recs)
