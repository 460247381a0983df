"""Trace serialization: the bytes of ``json.dumps`` with sorted keys and
compact separators, whatever the values."""

import functools
import json
import math
import tracemalloc
from dataclasses import replace
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from drivers import EventListTrace, exchange_plan, serialize_by_dumps, strategies_added
from graftsim import harness, trace as trace_module
from graftsim.contract import PayoutShare, deepest_leaf_path
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
from graftsim.onchain import Exchange, ExchangeLayout, OnchainSession
from graftsim.trace import SIG_SHAPE, SIGNATURE_SENT, TXSET_SENT, Event, Trace
from graftsim.treegen import chain_tree, complete_binary_tree, random_tree
from test_acceptance import _bo3_attack_matrix, _random_attack_cases

# Integers reach 2^64 either side; text covers control and non-ASCII
# characters, in keys and values alike, and always draws a few of them.
TEXT = st.text(max_size=6) | st.sampled_from(["\x00\t\x1f\x7f", "é✓\u2028𝄞", "\"\\/"])


class Level(IntEnum):
    """An ``int`` subclass, which the row fallback leaves to the encoder."""
    LOW = -1
    HIGH = 2**40


# Floats always draw NaN and both infinities now and then, which the
# encoder writes as ``NaN``, ``Infinity`` and ``-Infinity``.
FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
SCALARS = st.none() | st.booleans() | st.integers(-2**64, 2**64) | FLOATS \
    | st.sampled_from(Level) | TEXT
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
    # Rows that mix ``bool``s, exact ``int``s, an ``int`` subclass and text.
    [Event(8, "A", "Mix", {"b": True, "i": 1, "s": "x", "n": -2**70}),
     Event(8, "A", "Mix", {"b": 0, "i": False, "s": Level.HIGH, "n": 1}),
     Event(8, "A", "Mix", {"b": False, "i": -0, "s": True, "n": Level.LOW})],
    [Event(9, "A", "Floats", {"f": math.nan, "g": math.inf, "h": -math.inf, "i": 2**64})],
], ids=["empty-data", "one-key", "format-characters", "two-orders", "two-key-sets",
        "true-against-one", "bools-and-ints", "floats"])
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
    # So is the table of shapes that rows share.
    assert 0 < len(trace_module._SHAPES) <= bound
    assert trace_module._SHAPES[events[0].kind, *events[0].data] is trace.rows[-1][0]


def test_rows_of_equal_shapes_share_one_tuple():
    trace = traced({}, [Event(0, "A", "Kind", {"a": 1, "b": "x"}),
                        Event(1, "B", "Other", {"a": 2}),
                        Event(2, "C", "Kind", {"a": 3, "b": "y"})], {})
    first, other, last = (row[0] for row in trace.rows)
    assert first is last and first == ("Kind", "a", "b")
    assert other is not first


@pytest.mark.parametrize("keys", [(True, 1), (1, True), (1, 1.0, True, "1")])
def test_equal_keys_of_other_types_read_back_their_own(keys):
    """``True``, ``1`` and ``1.0`` are equal, so rows whose shapes hold
    them must not share a shape: each event reads back its own key, and
    its own kind."""
    events = [Event(0, "A", "Flag", {key: 0}) for key in keys] + \
        [Event(0, "A", key, {}) for key in keys]
    read = traced({}, events, {}).events
    assert [(type(e.kind), e.kind, [(type(k), k) for k in e.data]) for e in read] == \
        [(type(e.kind), e.kind, [(type(k), k) for k in e.data]) for e in events]


# -- long traces -------------------------------------------------------------

# Values that mean something to ``%``, to JSON strings or to ASCII escaping.
ODD = ("%", "%s%%", '"', "\\", "\u2028", "é✓𝄞", "plain")


def _odd(i):
    return ODD[i % len(ODD)]


def _long_trace(last_run):
    """A trace of a few hundred rows: long stretches of rows of one shape,
    message rows appended directly beside ``add`` rows of the same shape,
    a stretch with values that are not a ``str`` in its middle, and a last
    stretch of ``last_run`` rows."""
    trace = Trace({"label": "long"})
    for i in range(197):
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
    for i in range(67):
        text = {32: 7, 33: None}.get(i, _odd(i))
        trace.add(i, _odd(i), "Note", {"text": text, "at": [i, _odd(i)]})
    for i in range(last_run):
        trace.add(i, "C", "Last", {"b": _odd(i), "a": f"{i}%d"})
    trace.summary = {"outcome": "leaf"}
    return trace


@pytest.mark.parametrize("last_run", [1, 8, 64, 65, 128])
def test_a_long_trace_of_odd_values_is_json_dumps(last_run):
    trace = _long_trace(last_run)
    assert len(trace.rows) >= 256
    assert trace.serialize() == serialize_by_dumps(trace)


# -- burst rows --------------------------------------------------------------

# Message values: mostly text, which is encoded in C, and now and then a
# value that is not a ``str``, which sends its burst to the encoder.
MESSAGE_VALUES = TEXT | st.integers(-2**64, 2**64) | st.none() | st.lists(TEXT, max_size=2)
HEIGHTS = st.integers(0, 2**64)
# 1-4 participants, all text or, since they are sorted, all integers.
PARTIES = st.lists(TEXT, min_size=1, max_size=4, unique=True) \
    | st.lists(st.integers(-2**64, 2**64), min_size=1, max_size=4, unique=True)
ITEM = st.tuples(MESSAGE_VALUES, MESSAGE_VALUES)


@st.composite
def bursts(draw):
    """One sender's queue of a drawn exchange, cut at drawn positions
    into bursts: (height, sender, exchange, cuts), the cuts sorted and
    distinct from 0 to the queue's end, so each burst sends something and
    some span a phase end."""
    parties = draw(PARTIES)
    exchange = Exchange(ExchangeLayout.of(parties, draw(st.lists(ITEM, max_size=9)), draw(ITEM),
                                          draw(st.booleans())))
    inner = draw(st.lists(st.integers(1, max(1, exchange.size - 1)), max_size=6))
    cuts = sorted({0, exchange.size, *(c for c in inner if c < exchange.size)})
    return draw(HEIGHTS), draw(st.sampled_from(parties)), exchange, cuts


def _burst_events(height, sender, exchange, start, stop):
    """The events of ``exchange_plan`` at positions ``start`` to ``stop``
    of ``sender``'s queue."""
    layout = exchange.layout
    queue = [m for m in exchange_plan(layout.participants, layout.body, layout.final,
                                      layout.body_at > 0) if m.sender == sender]
    return [Event(height, sender, SIGNATURE_SENT,
                  {"digest": m.digest, "to": m.recipient, "tx": m.subject})
            if m.kind == "sig" else
            Event(height, sender, TXSET_SENT, {"count": len(layout.body) + 1, "to": m.recipient})
            for m in queue[start:stop]]


# Pieces of a trace: an ``add`` event, or a sender's queue cut into bursts.
PIECES = st.one_of(st.tuples(st.just("event"), EVENTS), st.tuples(st.just("bursts"), bursts()))


def _pieces_traces(pieces):
    """Three traces of ``pieces``: one with each burst written by
    ``add_burst``, one with each of its messages written by ``add``, and
    the ``EventListTrace`` reference."""
    trace, expanded = Trace({"label": "bursts"}), Trace({"label": "bursts"})
    reference = EventListTrace({"label": "bursts"})
    for what, piece in pieces:
        if what == "event":
            for t in (trace, expanded):
                t.add(*piece)
            reference.events.append(piece)
            continue
        height, sender, exchange, cuts = piece
        for start, stop in zip(cuts, cuts[1:]):
            events = _burst_events(height, sender, exchange, start, stop)
            trace.add_burst(height, sender, exchange.layout, start, stop)
            for event in events:
                expanded.add(*event)
            reference.events.extend(events)
    for t in (trace, expanded, reference):
        t.summary = {"outcome": "leaf"}
    return trace, expanded, reference


@settings(max_examples=80, deadline=None)
@given(pieces=st.lists(PIECES, max_size=6), data=st.data())
def test_runs_read_as_their_messages(pieces, data):
    """Every read of a trace with burst rows equals the same read of the
    trace with each message written by ``add``, and of the events of
    ``exchange_plan`` kept as a list: ``events`` (length, iteration,
    indexing, slices, ``index``), ``count``, ``find`` and ``serialize``."""
    trace, expanded, reference = _pieces_traces(pieces)
    events = reference.events
    size = len(events)
    for t in (trace, expanded):
        read = t.events
        assert len(read) == size
        assert list(read) == events
        assert all(read[i] == events[i] for i in range(-size, size))
        for index in (size, -size - 1):
            with pytest.raises(IndexError):
                read[index]
        for _ in range(3):
            cut = slice(data.draw(st.integers(-size - 2, size + 2) | st.none()),
                        data.draw(st.integers(-size - 2, size + 2) | st.none()),
                        data.draw(st.sampled_from([None, 1, 2, 7, -1, -3])))
            assert read[cut] == events[cut]
        for i in range(0, size, max(1, size // 16)):
            assert read.index(events[i]) == events.index(events[i])
        for kind in {e.kind for e in events} | {SIGNATURE_SENT, TXSET_SENT, "Absent"}:
            assert t.count(kind) == reference.count(kind), kind
            assert t.find(kind) == reference.find(kind), kind
    assert trace.serialize() == expanded.serialize() == serialize_by_dumps(reference)
    # A row per ``add`` event and per burst, however many recipients it has.
    assert len(trace.rows) == sum(1 if what == "event" else len(piece[3]) - 1
                                  for what, piece in pieces)


def test_every_index_of_a_view_reads_its_event():
    """Bursts in the first rows, next to each other and next to plain
    rows, across the ends of the transaction sets and of the body: each
    index, from either end, finds its row and its message in it."""
    exchange = Exchange(ExchangeLayout.of("ABCDE", [("T1", "d1"), ("T2", "d2")], ("R", "dr"), True))
    trace, events = Trace({}), []
    for start, stop in ((0, 3), (3, 5), (5, 6), (6, 13), (13, exchange.size)):
        trace.add_burst(1, "C", exchange.layout, start, stop)
        events += _burst_events(1, "C", exchange, start, stop)
    trace.add(2, "A", "Middle", {})
    events.append(Event(2, "A", "Middle", {}))
    trace.add_burst(3, "A", exchange.layout, 4, 9)
    events += _burst_events(3, "A", exchange, 4, 9)
    assert len(trace.rows) == 7 and len(events) == 22
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


def _with_many_parties(tree, count):
    """``tree`` with ``count`` participants, ``P00`` on, each depositing
    what the first one does, and every leaf split evenly among them: most
    of a burst's recipients then get one message of it."""
    parties = tuple(f"P{i:02d}" for i in range(count))
    split = tuple(PayoutShare(p, Fraction(1, count)) for p in parties)
    nodes = {i: replace(node, outputs=split) if node.outputs else node
             for i, node in tree.nodes.items()}
    deposit = tree.deposits[tree.participants[0]]
    return replace(tree, participants=parties, deposits=dict.fromkeys(parties, deposit),
                   nodes=nodes)


ADVERSARY_PARAMS = {
    "staller": lambda seed: {"stall_after_steps": seed % 3},
    "premature_init": lambda seed: {"trigger_step": 1 + seed % 3},
    "rollback_attacker": lambda seed: {},
    "silent_aborter": lambda seed: {"refuse_at_step": seed % 3},
}


def _reference_scenarios():
    """The bundled scenarios, the 144 runs of ACCEPTANCE 5, a cooperative
    off-chain ``chain_tree(16)``, a cooperative off-chain ``chain_tree(8)``
    with eight participants and ``random_tree`` seeds 0-24 against every
    bundled adversary, which between them end at the leaf and at the
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
    yield _generated_scenario(_with_many_parties(chain_tree(8), 8), MODE_OFFCHAIN, 1)
    for seed in range(25):
        tree, path_names, oracle = random_tree(seed)
        for adversary, params in ADVERSARY_PARAMS.items():
            strategies = {p: ("honest", {}) for p in tree.participants}
            strategies[tree.participants[-1]] = (adversary, params(seed))
            yield Scenario(
                label=f"rnd-{seed}-{adversary}", tree=tree, mode=MODE_OFFCHAIN,
                strategies=strategies, path=tuple(path_names), oracle=tuple(oracle),
                t=1 + seed % 2, patience=2, seed=seed)


@functools.lru_cache(maxsize=None)
def _reference_traces():
    return tuple(run(scenario) for scenario in _reference_scenarios())


def test_package_traces_serialize_as_the_reference():
    outcomes, failed_appends, runs = set(), 0, 0
    for trace in _reference_traces():
        _assert_rows_read_as_the_reference(trace)
        outcomes.add(trace.summary["outcome"])
        runs += 1
        failed_appends += sum(e.data["outcome"] != "ok" for e in trace.find("Append"))
    assert outcomes == {"leaf", "height_cap"}
    assert failed_appends > 0
    assert runs == 10 + 144 + 2 + 100


def test_every_burst_row_is_hashable():
    """Rows stay immutable: a burst row holds the exchange's layout, whose
    fields are tuples and ints, and no mutable object such as the exchange."""
    bursts = [row for trace in _reference_traces() for row in trace.rows
              if row[0] is trace_module._BURST]
    assert bursts
    for row in bursts:
        hash(row)


@pytest.mark.parametrize("count", [2, 8, 32])
def test_rows_grow_with_bursts_not_recipients(monkeypatch, count):
    """Off-chain ``chain_tree(8)`` with ``count`` participants: each
    ``OnchainSession.send`` that sends something writes one row, whatever the
    number of its recipients, and every other event is a row of its own."""
    sends = []
    send = OnchainSession.send

    def counted(session, sender):
        sends.append(send(session, sender))
        return sends[-1]

    monkeypatch.setattr(OnchainSession, "send", counted)
    trace = run(_generated_scenario(_with_many_parties(chain_tree(8), count), MODE_OFFCHAIN, 1))
    messages = trace.count(SIGNATURE_SENT) + trace.count(TXSET_SENT)
    assert messages == sum(sends)
    assert len(trace.rows) == sum(1 for sent in sends if sent) + len(trace.events) - messages


# -- generated trees and the events read -------------------------------------

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


@pytest.mark.parametrize("tree, mode", [
    (chain_tree(32), MODE_OFFCHAIN),
    (complete_binary_tree(6), MODE_ONCHAIN),
    (_with_many_parties(chain_tree(8), 8), MODE_OFFCHAIN),
], ids=["offchain-chain32", "onchain-binary6", "offchain-chain8-k8"])
def test_serialize_builds_its_text_once(tree, mode):
    """``serialize`` joins its lines once, closing newline included: the
    allocation peak stays under 2.9 times the text.  Appending the newline
    to the joined text copies it whole, which puts the peak near 3.4.  A
    burst row's lines to one recipient, such as those of the on-chain
    run's 254-message stipulation, are one string, and no burst's lines
    are joined before the whole text, so the peak is the lines and their
    joined copy."""
    trace = run(_generated_scenario(tree, mode, 1))
    tracemalloc.start()
    try:
        text = trace.serialize()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.9 * len(text)


def test_an_events_read_is_a_snapshot(monkeypatch):
    """``trace.events`` is a list built from the rows on each read: a read
    that a strategy takes mid-run keeps its length while later reads grow,
    and changing a read, or the ``data`` of an event in it, changes no
    row, no later read and no serialized byte."""
    made, reads, lengths = [], [], []

    class Recorded(Trace):
        def __init__(self, header):
            super().__init__(header)
            made.append(self)

    def watcher(observation, params):
        reads.append(made[0].events)
        lengths.append(len(reads[-1]))
        return honest(observation, params)

    monkeypatch.setattr(harness, "Trace", Recorded)
    scenario = load_scenario(bundled_data_dir() / "bo3_happy.scn")
    with strategies_added({"watcher": watcher}):
        trace = run(replace(scenario, strategies={p: ("watcher", {})
                                                  for p in scenario.strategies}))
    events = trace.events
    assert made == [trace]
    assert [len(read) for read in reads] == lengths
    assert lengths == sorted(lengths) and lengths[0] < lengths[-1] < len(events)
    assert all(read == events[:len(read)] for read in reads)
    rows, text = list(trace.rows), trace.serialize()
    read = trace.events
    assert type(read) is list and read == events and read is not trace.events
    read.append(read[0])
    read[1] = read[2]
    read[0].data["value"] = -1
    assert read[0] != events[0] and len(read) == len(events) + 1
    assert trace.rows == rows and trace.events == events and trace.serialize() == text
