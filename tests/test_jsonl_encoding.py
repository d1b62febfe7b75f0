"""Both sinks write exactly what `json.dumps` writes.

`JsonlWriter` formats the engine's three per-chunk events from templates and
sends every event a template does not fit through `json.dumps`;
`SessionEventLog` keeps the record, and `to_jsonl` is `json.dumps` per
record.  Random events with edge-case values, fed to both sinks' `fetch`,
`complete` and `display`, must give the same text as `json.dumps` of the
engine's record, or the same exception.
"""

import json
import sys

from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from abrsim.simulator import JsonlWriter, SessionEventLog

# Engine key order of each per-chunk event, after "event", and each field's
# JSON type; the sink methods take the fields in this order.
SHAPES = {
    "fetch_issued": {
        "time_s": "float", "chunk": "int", "level": "int", "buffer_s": "float",
        "bandwidth_estimate_kbps": "float", "ssim_delta_mean": "float", "reason": "str",
    },
    "download_complete": {"time_s": "float", "chunk": "int", "throughput_kbps": "float"},
    "chunk_display_start": {"time_s": "float", "chunk": "int", "level": "int"},
}
METHODS = {"fetch_issued": "fetch", "download_complete": "complete", "chunk_display_start": "display"}


class LoudInt(int):
    def __repr__(self):
        return "LoudInt()"


class LoudFloat(float):
    def __repr__(self):
        return "LoudFloat()"


class LoudStr(str):
    def __str__(self):
        return "LoudStr()"


HUGE_INTS = [10**5000, -(10**5000)] if hasattr(sys, "get_int_max_str_digits") else [10**400]
EDGE_FLOATS = [-0.0, 0.0, 5e-324, 2.225073858507201e-308, 1e308, -1e308, 1.7976931348623157e308,
               float("nan"), float("inf"), float("-inf"), LoudFloat(1.5)]
EDGE_INTS = [0, 1, -3, 2**64, True, False, LoudInt(3)] + HUGE_INTS
EDGE_STRS = ['"', "\\", '\\"', "\x00", "\x1f\x7f", "\n\r\t", " ", "é", "汉字", "😀",
             "\ud800", "</script>", LoudStr("hold")]
# A value of another JSON type in place of a field's own.
ODD = [None, True, 2, 2.5, "x", [1.0, "y"], {"k": -0.0}]

VALUES = {
    "float": st.floats() | st.sampled_from(EDGE_FLOATS + ODD),
    "int": st.integers(-(2**70), 2**70) | st.sampled_from(EDGE_INTS + ODD),
    "str": st.text(max_size=8) | st.sampled_from(EDGE_STRS + ODD),
}


@st.composite
def chunk_events(draw):
    kind = draw(st.sampled_from(sorted(SHAPES)))
    return kind, tuple(draw(VALUES[typ]) for typ in SHAPES[kind].values())


def outcome(encode):
    try:
        return encode()
    except Exception as exc:  # noqa: BLE001 - the exception is the expected outcome
        return type(exc), exc.args


def dumps_text(events):
    return "".join(json.dumps({"event": kind, **dict(zip(SHAPES[kind], fields))}) + "\n"
                   for kind, fields in events)


def sink_text(sink, events):
    for kind, fields in events:
        getattr(sink, METHODS[kind])(*fields)
    return "".join(sink.lines) if isinstance(sink, JsonlWriter) else sink.to_jsonl()


FETCH = ("fetch_issued", (1.5, 2, 3, 4.0, 2350.0, -0.0, "upgrade"))


def fetch_with(**fields):
    values = dict(zip(SHAPES["fetch_issued"], FETCH[1]), **fields)
    return "fetch_issued", tuple(values.values())


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(chunk_events(), min_size=1, max_size=4))
@example([FETCH])
@example([fetch_with(time_s=float("nan"))])
@example([fetch_with(buffer_s=float("inf")), fetch_with(buffer_s=1e308, time_s=1e308)])
@example([fetch_with(chunk=True), fetch_with(level=LoudInt(2)), fetch_with(time_s=LoudFloat(1.0))])
@example([fetch_with(level=False)])
@example([fetch_with(reason='é"\\\x00 '), fetch_with(reason="\ud800"), fetch_with(reason=LoudStr("hold"))])
@example([fetch_with(chunk=HUGE_INTS[0])])
@example([("download_complete", (5e-324, 1, -0.0)),
          ("chunk_display_start", (2.225073858507201e-308, 1, 1))])
@example([("download_complete", (1.0, 1, float("-inf"))),
          ("chunk_display_start", (float("nan"), 1, True))])
def test_to_jsonl_matches_json_dumps(evs):
    expected = outcome(lambda: dumps_text(evs))
    assert outcome(lambda: sink_text(JsonlWriter(), evs)) == expected
    assert outcome(lambda: sink_text(SessionEventLog(), evs)) == expected
