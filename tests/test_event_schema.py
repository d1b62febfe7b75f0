"""README's event-log section and the records the engine writes agree with the one event table."""

import inspect
import json
import os
import re

from abrsim import simulator
from abrsim.simulator import EVENTS, SINK_METHODS, SessionConfig, check_record, run_session
from abrsim.trace import BandwidthTrace
from helpers import make_manifest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_text():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def test_readme_example_lines_have_the_table_keys_in_order():
    examples = {}
    for line in readme_text().splitlines():
        kind = re.match(r'\{"event": "(\w+)"', line)
        if kind:
            examples[kind.group(1)] = json.loads(line)
    assert sorted(examples) == sorted(EVENTS)
    for kind, row in EVENTS.items():
        example = examples[kind]
        assert list(example) == ["event"] + [name for name, _ in row]
        assert [type(example[name]) for name, _ in row] == [type(like) for _, like in row]


def test_readme_names_every_event_kind_the_engine_emits():
    emitted = set(re.findall(r'"event": "(\w+)"', inspect.getsource(simulator._drive)))
    assert emitted | set(SINK_METHODS.values()) == set(EVENTS)
    text = readme_text()
    assert [kind for kind in sorted(EVENTS) if f"`{kind}`" not in text and f'"{kind}"' not in text] == []


def test_every_record_the_engine_writes_has_its_row_in_order():
    # A drop to 50 kbps at 2 s stalls both sessions; the second trace runs dry at 120 s.
    samples = ((0.0, 3000.0), (2.0, 50.0), (60.0, 3000.0))
    kinds = set()
    for trace in (BandwidthTrace(samples), BandwidthTrace(samples + ((120.0, 0.0),))):
        log, report = run_session(make_manifest(chunks=30), trace, SessionConfig())
        assert report.rebuffer_count
        for n, rec in enumerate(log.records, start=1):
            assert list(rec) == ["event"] + [name for name, _ in EVENTS[rec["event"]]]
            check_record(rec, n)
            kinds.add(rec["event"])
    assert report.partial and kinds == set(EVENTS)
