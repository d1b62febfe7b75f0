"""README's event-log section agrees with the engine's one event schema."""

import inspect
import json
import os
import re

from abrsim import simulator
from abrsim.simulator import CHUNK_EVENTS

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_text():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def test_readme_example_lines_have_the_table_keys_in_order():
    examples = {}
    for line in readme_text().splitlines():
        kind = re.match(r'\{"event": "(\w+)"', line)
        if kind and kind.group(1) != "session_start":  # the header example is abridged
            examples[kind.group(1)] = json.loads(line, object_pairs_hook=list)
    for kind, fields in CHUNK_EVENTS.values():
        pairs = examples[kind]
        assert [key for key, _ in pairs] == ["event"] + [name for name, _ in fields]
        assert [type(value) for _, value in pairs[1:]] == [typ for _, typ in fields]


def test_readme_names_every_event_kind_the_engine_emits():
    emitted = set(re.findall(r'"event": "(\w+)"', inspect.getsource(simulator)))
    emitted |= {kind for kind, _ in CHUNK_EVENTS.values()}
    assert len(emitted) >= 9 and {"session_start", "session_truncated", "session_end"} <= emitted
    text = readme_text()
    assert [kind for kind in sorted(emitted) if f"`{kind}`" not in text and f'"{kind}"' not in text] == []
