"""Trace serialization: the bytes of ``json.dumps`` with sorted keys and
compact separators, whatever the values."""

import json
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from drivers import EventListTrace, serialize_by_dumps, strategies_added
from graftsim import harness, trace as trace_module
from graftsim.contract import deepest_leaf_path
from graftsim.harness import (
    MODE_OFFCHAIN,
    MODE_ONCHAIN,
    Scenario,
    bundled_data_dir,
    bundled_scenarios,
    load_scenario,
    run,
)
from graftsim.strategies import honest
from graftsim.trace import SIG_SHAPE, SIGNATURE_SENT, Event, Trace
from graftsim.treegen import chain_tree, complete_binary_tree, random_tree
from test_acceptance import _bo3_attack_matrix, _random_attack_cases

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


def traced(header, events, summary):
    """A trace of ``header``, each of ``events`` added in turn, and ``summary``."""
    trace = Trace(header)
    for event in events:
        trace.add(*event)
    trace.summary = summary
    return trace


def event_lines(trace):
    """The event lines of ``trace.serialize()``: all but the header and the summary."""
    return trace.serialize().split("\n")[1:-2]


@settings(max_examples=100, deadline=None)
@given(event=EVENTS)
def test_event_line_is_json_dumps(event):
    assert event_lines(traced({}, [event], {})) == [dumps(event_dict(event))]


@settings(max_examples=50, deadline=None)
@given(header=OBJECTS, events=st.lists(EVENTS, max_size=4), summary=OBJECTS)
def test_trace_serialization_is_json_dumps(header, events, summary):
    trace = traced(header, events, summary)
    assert trace.serialize() == serialize_by_dumps(trace)


# -- the per-shape line formats ---------------------------------------------

# Characters that mean something to ``%`` formatting or to JSON strings.
AWKWARD = ("%", "%%", "%s", "{}", '"\\')


@pytest.mark.parametrize("events", [
    [Event(0, "A", "Empty", {})],
    [Event(7, "B", "One", {"only": "value"})],
    [Event(1, actor, kind, {key: key, "x" + key: [key, {key: 1}]})
     for actor in AWKWARD for kind in AWKWARD for key in AWKWARD],
    # One key set inserted in two orders.
    [Event(2, "A", "Order", {"b": 1, "a": 2}), Event(3, "A", "Order", {"a": 3, "b": 4})],
    # One kind with two key sets.
    [Event(4, "A", "Keys", {"a": 1}), Event(5, "A", "Keys", {"a": 1, "b": None})],
    # Values of one shape that compare equal but encode differently.
    [Event(6, "A", "Flag", {"v": True}), Event(6, "A", "Flag", {"v": 1}),
     Event(6, "A", "Flag", {"v": 1.0}), Event(6, "A", "Flag", {"v": "1"})],
], ids=["empty-data", "one-key", "format-characters", "two-orders", "two-key-sets",
        "true-against-one"])
def test_event_lines_of_every_shape_are_json_dumps(events):
    trace = traced({"type": "ignored"}, events, {})
    assert trace.serialize() == serialize_by_dumps(trace)
    assert event_lines(trace) == [dumps(event_dict(e)) for e in events]


@pytest.mark.parametrize("data", [{1: "x"}, {"a": 1, 2: "x"}, {None: 0}, {(1,): 0}])
def test_a_data_key_that_is_not_a_string_raises(data):
    with pytest.raises(TypeError):
        traced({}, [Event(0, "A", "Bad", data)], {}).serialize()
    with pytest.raises(TypeError):
        traced({}, [Event(0, "A", "Good", {"a": 1}), Event(0, "A", "Bad", data)], {}).serialize()


@pytest.mark.parametrize("kind", [1, True, 1.0, None])
def test_a_kind_that_is_not_a_string_raises(kind):
    """Equal kinds of different types, such as 1 and True, would share a
    cached line format, and so one encoding."""
    with pytest.raises(TypeError):
        traced({}, [Event(0, "A", "Good", {}), Event(0, "A", kind, {})], {}).serialize()


def test_the_shape_cache_stays_within_its_bound():
    bound = trace_module._MAX_SHAPES
    events = [Event(i, "A", f"Kind{i % 7}", {f"k{i}": i, "shared": "%s"})
              for i in range(bound + 50)]
    # The first shape again, after the cache has evicted it.
    events.append(events[0])
    trace = traced({}, events, {})
    assert trace.serialize() == serialize_by_dumps(trace)
    assert 0 < trace_module._line_format.cache_info().currsize <= bound


# -- blocks of lines ---------------------------------------------------------

BLOCK = trace_module._BLOCK
# Values that mean something to ``%``, to JSON strings or to ASCII escaping.
ODD = ("%", "%s%%", '"', "\\", "\u2028", "é✓𝄞", "plain")


def _odd(i):
    return ODD[i % len(ODD)]


def _block_trace(last_run):
    """A trace long enough to be formatted in blocks: runs longer than the
    block bound, message rows appended directly beside ``add`` rows of the
    same shape, a run with a value that is not a ``str`` in its middle, and
    a last run of ``last_run`` rows."""
    trace = Trace({"label": "blocks"})
    for i in range(3 * BLOCK + 5):
        if i % 9 == 4:
            # Equal to ``SIG_SHAPE``, but a new tuple.
            trace.add(i, "B", SIGNATURE_SENT, {"digest": f"d{i}{_odd(i)}", "to": "A",
                                               "tx": _odd(i)})
        else:
            trace.rows.append((SIG_SHAPE, i, "A" + _odd(i), f"d{i}", "B", "T" + _odd(i)))
    # The same kind with its keys in another order is another shape.
    for i in range(5):
        trace.add(i, "A", SIGNATURE_SENT, {"tx": _odd(i), "to": "B", "digest": f"d{i}"})
        trace.rows.append((SIG_SHAPE, i, "A", f"d{i}", "B", _odd(i)))
    for i in range(BLOCK + 3):
        text = {BLOCK // 2: 7, BLOCK // 2 + 1: None}.get(i, _odd(i))
        trace.add(i, _odd(i), "Note", {"text": text, "at": [i, _odd(i)]})
    for i in range(last_run):
        trace.add(i, "C", "Last", {"b": _odd(i), "a": f"{i}%d"})
    trace.summary = {"outcome": "leaf"}
    return trace


@pytest.mark.parametrize("last_run", [1, trace_module._MIN_BLOCK, BLOCK, BLOCK + 1, 2 * BLOCK],
                         ids=["one", "shortest-block", "one-block", "block-and-one",
                              "two-blocks"])
def test_blocks_of_lines_are_json_dumps(last_run):
    trace = _block_trace(last_run)
    assert len(trace.rows) >= trace_module._MIN_GROUPED
    assert trace.serialize() == serialize_by_dumps(trace)


# -- run rows ----------------------------------------------------------------

# Sizes at and around the serializer's bounds: a group of ``_MIN_BLOCK``
# plain rows of one shape is formatted as a block, and a block holds
# ``_BLOCK`` lines.
SIZES = st.sampled_from([0, 1, 2, 3, trace_module._MIN_BLOCK - 1, trace_module._MIN_BLOCK,
                         BLOCK - 1, BLOCK, BLOCK + 1])
# Message values: mostly text, which is encoded in C, and now and then a
# value that is not a ``str``, which sends its run or block to the encoder.
MESSAGE_VALUES = TEXT | st.integers(-2**64, 2**64) | st.none() | st.lists(TEXT, max_size=2)
HEIGHTS = st.integers(0, 2**64)


def _messages(size):
    return st.lists(st.tuples(MESSAGE_VALUES, MESSAGE_VALUES), min_size=size, max_size=size)


# One sender's messages at one height, as a burst is: segments (to,
# items) with the same number of items each, and up to one more segment
# than ``_MIN_BLOCK``, so that run rows follow each other as long as
# plain rows do in a block.
SEGMENTS = st.tuples(
    st.sampled_from([1, 2, trace_module._MIN_BLOCK - 1, trace_module._MIN_BLOCK,
                     trace_module._MIN_BLOCK + 1]),
    SIZES,
).flatmap(lambda counts: st.lists(st.tuples(TEXT, _messages(counts[1])),
                                  min_size=counts[0], max_size=counts[0]))
# Pieces of a trace: an ``add`` event; messages as ``SIG_SHAPE`` rows
# appended to ``rows`` by hand, or added as events with the same keys (an
# equal shape, but not the same tuple); and messages written segment by
# segment with ``add_messages``.
PIECES = st.one_of(
    st.tuples(st.just("event"), EVENTS),
    st.tuples(st.sampled_from(["rows", "added", "segments"]), HEIGHTS, TEXT, SEGMENTS),
)


def _message_event(height, sender, to, item):
    tx, digest = item
    return Event(height, sender, SIGNATURE_SENT, {"digest": digest, "to": to, "tx": tx})


def _pieces_traces(pieces, filler):
    """Three traces of ``pieces`` after ``filler`` plain events: one with
    each segment written by ``add_messages``, one with every segment
    expanded into ``SIG_SHAPE`` rows, and the ``EventListTrace`` reference."""
    trace, expanded = Trace({"label": "runs"}), Trace({"label": "runs"})
    reference = EventListTrace({"label": "runs"})
    for i in range(filler):
        for t in (trace, expanded):
            t.add(i, "F", "Filler", {"at": i})
        reference.events.append(Event(i, "F", "Filler", {"at": i}))
    for piece in pieces:
        if piece[0] == "event":
            for t in (trace, expanded):
                t.add(*piece[1])
            reference.events.append(piece[1])
            continue
        what, height, sender, segments = piece
        for to, items in segments:
            events = [_message_event(height, sender, to, item) for item in items]
            reference.events.extend(events)
            for t in (trace, expanded):
                if what == "segments" and t is trace:
                    trace.add_messages(height, sender, to, items)
                elif what == "added":
                    for event in events:
                        t.add(*event)
                else:
                    t.rows.extend((SIG_SHAPE, height, sender, digest, to, tx)
                                  for tx, digest in items)
    for t in (trace, expanded, reference):
        t.summary = {"outcome": "leaf"}
    return trace, expanded, reference


@settings(max_examples=60, deadline=None)
@given(pieces=st.lists(PIECES, max_size=6),
       filler=st.sampled_from([0, trace_module._MIN_GROUPED - 1, trace_module._MIN_GROUPED]),
       data=st.data())
def test_runs_read_as_their_messages(pieces, filler, data):
    """Every read of a trace with run rows equals the same read of the
    trace with each run expanded into ``SIG_SHAPE`` rows, and of the
    events kept as a list: ``events`` (length, iteration, indexing,
    slices, ``index``), ``count``, ``find`` and ``serialize``."""
    trace, expanded, reference = _pieces_traces(pieces, filler)
    events = reference.events
    size = len(events)
    for t in (trace, expanded):
        view = t.events
        assert view is t.events
        assert len(view) == size
        assert list(view) == events
        assert all(view[i] == events[i] for i in range(-size, size))
        for index in (size, -size - 1):
            with pytest.raises(IndexError):
                view[index]
        for _ in range(3):
            cut = slice(data.draw(st.integers(-size - 2, size + 2) | st.none()),
                        data.draw(st.integers(-size - 2, size + 2) | st.none()),
                        data.draw(st.sampled_from([None, 1, 2, 7, -1, -3])))
            assert view[cut] == events[cut]
        for i in range(0, size, max(1, size // 16)):
            assert view.index(events[i]) == events.index(events[i])
        for kind in {e.kind for e in events} | {SIGNATURE_SENT, "Absent"}:
            assert t.count(kind) == reference.count(kind), kind
            assert t.find(kind) == reference.find(kind), kind
    assert trace.serialize() == expanded.serialize() == serialize_by_dumps(reference)
    if any(len(items) >= trace_module._MIN_RUN
           for piece in pieces if piece[0] == "segments" for _, items in piece[3]):
        assert len(trace.rows) < len(expanded.rows)


def test_a_segment_of_one_message_is_a_plain_row():
    trace = Trace({})
    trace.add_messages(3, "A", "B", [("T", "d")])
    trace.add_messages(3, "A", "C", [])
    assert trace.rows == [(SIG_SHAPE, 3, "A", "d", "B", "T")]


def test_a_run_keeps_its_items_as_a_tuple():
    """Rows stay immutable: a run holds a tuple, a copy of a list given."""
    trace, items = Trace({}), [("T1", "d1"), ("T2", "d2")]
    trace.add_messages(0, "A", "B", items)
    items.append(("T3", "d3"))
    (row,) = trace.rows
    assert row[-1] == (("T1", "d1"), ("T2", "d2"))
    assert [e.data["tx"] for e in trace.events] == ["T1", "T2"]


def test_every_index_of_a_view_reads_its_event():
    """Runs in the first rows, next to each other and next to plain rows:
    each index, from either end, finds its row and its item in it."""
    trace, events = Trace({}), []
    trace.add(0, "A", "Start", {})
    events.append(Event(0, "A", "Start", {}))
    for to, size in (("B", 3), ("C", 2), ("D", 1), ("E", 4)):
        items = [(f"T{to}{i}", f"d{to}{i}") for i in range(size)]
        trace.add_messages(1, "A", to, items)
        events += [_message_event(1, "A", to, item) for item in items]
    trace.add(2, "A", "End", {})
    events.append(Event(2, "A", "End", {}))
    assert len(trace.rows) == 6
    assert [trace.events[i] for i in range(len(events))] == events
    assert [trace.events[-i] for i in range(1, len(events) + 1)] == events[::-1]


def test_write_writes_the_serialized_bytes(tmp_path):
    """The file holds ``serialize()`` encoded as UTF-8, each newline a
    single ``"\\n"``: written in text mode with the default newline, it
    would hold ``os.linesep`` instead, which is ``"\\r\\n"`` on Windows."""
    trace = run(load_scenario(bundled_data_dir() / "bo3_happy.scn"))
    trace.header["note"] = "é✓𝄞\r\n"
    path = tmp_path / "trace.jsonl"
    trace.write(path)
    assert path.read_bytes() == trace.serialize().encode("utf-8")


# -- the package's own traces -----------------------------------------------

def _assert_rows_read_as_the_reference(trace):
    """Every read of ``trace``'s rows equals the same read of its events
    kept as a list: the lines, ``count``, ``find`` and the summary's
    message count and appended transactions."""
    reference = EventListTrace.of(trace)
    label = trace.header.get("label")
    assert trace.serialize() == serialize_by_dumps(reference), label
    for kind in {e.kind for e in reference.events} | {"Absent"}:
        assert trace.count(kind) == reference.count(kind), (label, kind)
        assert trace.find(kind) == reference.find(kind), (label, kind)
    messages, appended = reference.summary_counts()
    assert (trace.summary["message_count"], trace.summary["appended"]) == \
        (messages, appended), label


ADVERSARY_PARAMS = {
    "staller": lambda seed: {"stall_after_steps": seed % 3},
    "premature_init": lambda seed: {"trigger_step": 1 + seed % 3},
    "rollback_attacker": lambda seed: {},
    "silent_aborter": lambda seed: {"refuse_at_step": seed % 3},
}


def _reference_scenarios():
    """The bundled scenarios, the 144 runs of ACCEPTANCE 5, a cooperative
    off-chain ``chain_tree(16)`` and ``random_tree`` seeds 0-24 against
    every bundled adversary, which between them end at the leaf and at the
    height cap, with failed appends."""
    for path in bundled_scenarios():
        yield load_scenario(path)
    bo3_tree = load_scenario(bundled_data_dir() / "bo3_happy.scn").tree
    yield from _bo3_attack_matrix(bo3_tree)
    yield from _random_attack_cases(100)
    tree = chain_tree(16)
    yield Scenario(
        label="chain16", tree=tree, mode=MODE_OFFCHAIN,
        strategies={p: ("honest", {}) for p in tree.participants},
        path=tuple(tree.node(i).name for i in deepest_leaf_path(tree)), t=1)
    for seed in range(25):
        tree, path_names, oracle = random_tree(seed)
        for adversary, params in ADVERSARY_PARAMS.items():
            strategies = {p: ("honest", {}) for p in tree.participants}
            strategies[tree.participants[-1]] = (adversary, params(seed))
            yield Scenario(
                label=f"rnd-{seed}-{adversary}", tree=tree, mode=MODE_OFFCHAIN,
                strategies=strategies, path=tuple(path_names), oracle=tuple(oracle),
                t=1 + seed % 2, patience=2, seed=seed)


def test_package_traces_serialize_as_the_reference():
    outcomes, failed_appends, runs = set(), 0, 0
    for scenario in _reference_scenarios():
        trace = run(scenario)
        _assert_rows_read_as_the_reference(trace)
        outcomes.add(trace.summary["outcome"])
        runs += 1
        failed_appends += sum(e.data["outcome"] != "ok" for e in trace.find("Append"))
    assert outcomes == {"leaf", "height_cap"}
    assert failed_appends > 0
    assert runs == 10 + 144 + 1 + 100


# -- generated trees and the live view ---------------------------------------

def _generated_scenario(tree, mode, t):
    path = tuple(tree.node(i).name for i in deepest_leaf_path(tree))
    return Scenario(label=f"generated-{mode}", tree=tree, mode=mode, path=path,
                    strategies={p: ("honest", {}) for p in tree.participants}, t=t)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(("random", "chain", "binary")), size=st.integers(0, 5000),
       mode=st.sampled_from((MODE_OFFCHAIN, MODE_ONCHAIN)), t=st.integers(1, 2))
def test_generated_rows_read_as_the_reference(kind, size, mode, t):
    if kind == "random":
        tree, path_names, oracle = random_tree(size)
        scenario = Scenario(label=f"rnd-{size}", tree=tree, mode=mode,
                            strategies={p: ("honest", {}) for p in tree.participants},
                            path=tuple(path_names), oracle=tuple(oracle), t=t, seed=size)
    elif kind == "chain":
        scenario = _generated_scenario(chain_tree(2 + size % 12), mode, t)
    else:
        scenario = _generated_scenario(complete_binary_tree(1 + size % 4), mode, t)
    _assert_rows_read_as_the_reference(run(scenario))


@pytest.mark.parametrize("tree, mode", [(chain_tree(32), MODE_OFFCHAIN),
                                        (complete_binary_tree(6), MODE_ONCHAIN)],
                         ids=["offchain-chain32", "onchain-binary6"])
def test_serialize_builds_its_text_once(tree, mode):
    """``serialize`` joins its lines once, closing newline included: the
    allocation peak stays under 2.9 times the text.  Appending the newline
    to the joined text copies it whole, which puts the peak near 3.4.  So
    does formatting the on-chain run's 254-message stipulation as one
    block: the block bound keeps the encoded values of one block alive,
    not those of a whole run."""
    trace = run(_generated_scenario(tree, mode, 1))
    tracemalloc.start()
    try:
        text = trace.serialize()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.9 * len(text)


def test_the_event_view_is_live_and_read_only(monkeypatch):
    made, views, lengths = [], [], []

    class Recorded(Trace):
        def __init__(self, header):
            super().__init__(header)
            made.append(self)

    def watcher(observation, params):
        if not views:
            views.append(made[0].events)
        lengths.append(len(views[0]))
        return honest(observation, params)

    monkeypatch.setattr(harness, "Trace", Recorded)
    scenario = load_scenario(bundled_data_dir() / "bo3_happy.scn")
    with strategies_added({"watcher": watcher}):
        trace = run(replace(scenario, strategies={p: ("watcher", {})
                                                  for p in scenario.strategies}))
    view = views[0]
    assert made == [trace]
    assert lengths == sorted(lengths) and lengths[0] < lengths[-1] < len(view)
    assert len(view) == len(trace.events) == len(list(view))
    events = list(view)
    assert view[-1] == events[-1] and view[2:5] == events[2:5]
    assert all(view.index(e) == events.index(e) for e in events)
    assert not hasattr(view, "append")
    with pytest.raises(TypeError):
        view[0] = events[0]
    # Each read is a fresh ``Event``: changing its data changes no row.
    view[0].data["value"] = -1
    assert view[0] == events[0] != Event(events[0].height, events[0].actor,
                                         events[0].kind, {**events[0].data, "value": -1})
