"""Trace serialization: the bytes of ``json.dumps`` with sorted keys and
compact separators, whatever the values."""

import json

from hypothesis import given, settings, strategies as st

from graftsim.trace import Event, Trace

# Integers reach 2^64 either side; text covers control and non-ASCII
# characters, in keys and values alike, and always draws a few of them.
TEXT = st.text(max_size=6) | st.sampled_from(["\x00\t\x1f\x7f", "é✓\u2028𝄞", "\"\\/"])
SCALARS = st.none() | st.booleans() | st.integers(-2**64, 2**64) | TEXT
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12)
OBJECTS = st.dictionaries(TEXT, VALUES, max_size=4)
EVENTS = st.builds(Event, height=st.integers(0, 2**64), actor=TEXT, kind=TEXT, data=OBJECTS)


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def event_dict(event):
    return {"actor": event.actor, "data": event.data, "height": event.height,
            "kind": event.kind}


@settings(max_examples=100, deadline=None)
@given(event=EVENTS)
def test_event_line_is_json_dumps(event):
    assert event.to_json() == dumps(event_dict(event))


@settings(max_examples=50, deadline=None)
@given(header=OBJECTS, events=st.lists(EVENTS, max_size=4), summary=OBJECTS)
def test_trace_serialization_is_json_dumps(header, events, summary):
    trace = Trace(header, events=events, summary=summary)
    lines = [dumps({"type": "header", **header})]
    lines += [dumps(event_dict(e)) for e in events]
    lines.append(dumps({"type": "summary", **summary}))
    assert trace.serialize() == "\n".join(lines) + "\n"
