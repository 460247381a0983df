"""Run traces: an ordered event log plus everything needed to replay it.

Each event is written as one immutable row, ``(shape, height, actor,
*values)``, where ``shape`` is ``(kind, *data keys)`` with the keys in
insertion order.  A burst's messages to one recipient are one run row,
which holds the burst's slice of (tx, digest) items and stands for one
``SignatureSent`` event per item.  ``Trace.events`` reads the rows back as
``Event``s, a run's only when the read reaches it.  Events serialize to
JSON Lines with sorted keys, so two runs of the same scenario produce
byte-identical files; a run's lines are formatted with its sender,
recipient and height encoded once.  A trace also keeps the actual
(instance, witness) pairs of every successful append, which lets tests
re-apply just the appends to a fresh ledger and compare terminal states.
"""

from __future__ import annotations

import functools
import json
from bisect import bisect_right
from collections.abc import Sequence
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import countOf, index as as_index, itemgetter
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Tuple, Union

from .ledger import AppendWitness, ChainState, TxInstance

# Event kinds
DEPOSIT = "Deposit"
TXSET_SENT = "TxSetSent"
SIGNATURE_SENT = "SignatureSent"
ORACLE_REVEAL = "OracleReveal"
STEP_PROPOSED = "StepProposed"
STEP_AGREED = "StepAgreed"
STEP_REFUSED = "StepRefused"
GRAFT_PROPOSED = "GraftProposed"
GRAFT_SEALED = "GraftSealed"
APPEND = "Append"
INIT_APPENDED = "InitAppended"
GRAFT_APPENDED = "GraftAppended"
FAILSAFE_TRIGGERED = "FailsafeTriggered"
SECRET_PUBLISHED = "SecretPublished"
STIPULATION_COMPLETE = "StipulationComplete"
STIPULATION_ABORTED = "StipulationAborted"

# The shape of a message row, ``(SIG_SHAPE, height, sender, digest, to,
# tx)``, which ``Trace.add_messages`` writes.
SIG_SHAPE = (SIGNATURE_SENT, "digest", "to", "tx")

# A run row, ``(_RUN, height, sender, to, items)``: the ``SignatureSent``
# events of ``sender`` to ``to`` at ``height``, one per (tx, digest) item,
# in order.  Its kind is no ``str``, so no ``add`` row has its shape and no
# read by kind matches it.  ``add_messages`` writes a segment of fewer than
# ``_MIN_RUN`` messages as ``SIG_SHAPE`` rows: a run of one costs a head, a
# middle and a tail for one line, and with runs of one, ``serialize`` of an
# off-chain ``chain_tree(8)`` with 8 or 32 participants, where most
# segments are of one message, took about 1.3 times as long.
_RUN = (object(),)
_MIN_RUN = 2

# Run outcomes
OUTCOME_LEAF = "leaf"
OUTCOME_ABORTED = "aborted"
OUTCOME_HEIGHT_CAP = "height_cap"

# One encoder for every value that is not a ``str``: ``json.dumps`` with
# these options would build an equal one per call.  A ``str`` it encodes
# with ``encode_basestring_ascii``, which the lines call directly.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# The package's events have literal keys and few shapes (14 over the
# three benchmark workloads); the bound keeps callers that serialize
# arbitrary events from growing the cache of line formats without limit.
_MAX_SHAPES = 1024

_SHAPE = itemgetter(0)


@functools.lru_cache(maxsize=_MAX_SHAPES)
def _line_format(shape: Tuple) -> Tuple[str, Callable[[Tuple], Tuple]]:
    """The ``%`` format of an event line of this shape, and a function
    that picks from a row of it the actor and the data values in sorted
    key order, whose encodings fill it ahead of the height.  The constant
    parts are encoded here once, with every ``%`` in them doubled."""
    # Shapes are cached by equality, under which 1, 1.0 and True are one
    # kind, though each encodes differently.
    for part in shape:
        if not isinstance(part, str):
            raise TypeError(f"event kinds and data keys must be str, not {type(part).__name__}")
    kind, *keys = shape
    def quoted(text: str) -> str:
        return _ENCODER.encode(text).replace("%", "%%")
    order = sorted(range(len(keys)), key=keys.__getitem__)
    fields = ",".join(quoted(keys[i]) + ":%s" for i in order)
    fmt = '{"actor":%s,"data":{' + fields + '},"height":%d,"kind":' + quoted(kind) + "}"
    columns = (2, *(3 + i for i in order))
    # ``itemgetter`` of one index returns the item, not a 1-tuple.
    pick = itemgetter(*columns) if keys else (lambda row: (row[2],))
    return fmt, pick


def _run_text(row: Tuple, encode: Callable[[object], str]) -> str:
    """The lines of a run row joined by ``"\\n"``: ``SIG_SHAPE``'s line
    with the actor, ``to`` and height encoded once, as a head, a middle
    and a tail around each item's digest and tx.  No encoded value holds a
    NUL, which JSON escapes, so NULs mark the two places.  (A list of
    ``digest + mid + tx`` measured faster than joining in C by ``map`` and
    ``zip`` at every run length of the package's traces.)"""
    _, height, actor, to, items = row
    filled = _line_format(SIG_SHAPE)[0] % (encode(actor), "\0", encode(to), "\0", height)
    head, mid, tail = filled.split("\0")
    return head + (tail + "\n" + head).join([encode(digest) + mid + encode(tx)
                                             for tx, digest in items]) + tail


def _run_lines(row: Tuple) -> str:
    """``_run_text`` in C alone, or through the encoder if a value is not
    a ``str``."""
    try:
        return _run_text(row, encode_basestring_ascii)
    except TypeError:
        return _run_text(row, _ENCODER.encode)


def _row_lines(rows: Iterable[Tuple]) -> Iterator[str]:
    """Each row's line, filled into its shape's cached format: the bytes of
    ``json.dumps`` with sorted keys and compact separators, for an ``int``
    height and ``str`` data keys.  A row whose actor and values are all
    ``str``, as every signature's are, is encoded in C alone; any other value
    raises ``TypeError`` there and the row goes through the encoder, which
    gives every ``str`` the same bytes.  A run row gives its lines joined."""
    esc, enc = encode_basestring_ascii, _ENCODER.encode
    last = None
    for row in rows:
        if row[0] is not last:
            # ``last`` is never ``_RUN``, so every run row comes here.
            if row[0] is _RUN:
                yield _run_lines(row)
                continue
            last = row[0]
            fmt, pick = _line_format(last)
        try:
            line = fmt % (*map(esc, pick(row)), row[1])
        except TypeError:
            line = fmt % (*map(enc, pick(row)), row[1])
        yield line


class Event(NamedTuple):
    """One trace event, as ``Trace.events`` and ``Trace.find`` give it
    back, with a fresh ``data`` dict per read: the read form of a row."""
    height: int
    actor: str
    kind: str
    data: Dict


def _event(row: Tuple) -> Event:
    shape = row[0]
    return Event(row[1], row[2], shape[0], dict(zip(shape[1:], row[3:])))


def _plain(row: Tuple) -> List[Tuple]:
    """The rows of one event each that a row stands for: itself, or one
    ``SIG_SHAPE`` row per item of a run."""
    if row[0] is not _RUN:
        return [row]
    _, height, sender, to, items = row
    return [(SIG_SHAPE, height, sender, digest, to, tx) for tx, digest in items]


class EventView(Sequence):
    """A live, read-only view of a trace's rows as ``Event``s: it grows as
    the trace does, and each read builds its ``Event``.  ``_ends`` holds,
    for each row read so far, the number of events up to its end, so an
    index finds its row by bisection."""
    __slots__ = ("_rows", "_ends")

    def __init__(self, rows: List[Tuple]) -> None:
        self._rows = rows
        self._ends: List[int] = []

    def _indexed(self) -> List[int]:
        """``_ends``, extended over the rows written since the last read."""
        ends, rows = self._ends, self._rows
        total = ends[-1] if ends else 0
        for row in rows[len(ends):]:
            total += len(row[4]) if row[0] is _RUN else 1
            ends.append(total)
        return ends

    def __len__(self) -> int:
        ends = self._indexed()
        return ends[-1] if ends else 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index, size = as_index(index), len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("event index out of range")
        ends = self._ends
        at = bisect_right(ends, index)
        row = self._rows[at]
        if row[0] is _RUN:
            _, height, sender, to, items = row
            tx, digest = items[index - (ends[at - 1] if at else 0)]
            row = (SIG_SHAPE, height, sender, digest, to, tx)
        return _event(row)

    def __iter__(self) -> Iterator[Event]:
        return map(_event, chain.from_iterable(map(_plain, self._rows)))


class Trace:
    """A run's header, its event rows, its successful appends and its
    terminal summary, which ``summarize_run`` fills in.  ``add`` writes an
    event as its row, and ``add_messages`` a segment of a burst.
    ``events``, ``count``, ``find`` and ``serialize`` read the rows."""

    def __init__(self, header: Dict) -> None:
        self.header = header
        self.rows: List[Tuple] = []
        self.appends: List[Tuple[TxInstance, AppendWitness, int]] = []
        self.summary: Dict = {}
        # One view for every read, so that its index of the rows is built once.
        self._view = EventView(self.rows)

    @property
    def events(self) -> EventView:
        return self._view

    def add(self, height: int, actor: str, kind: str, data: Dict) -> None:
        """Write the event ``Event(height, actor, kind, data)`` as its row."""
        self.rows.append(((kind, *data), height, actor, *data.values()))

    def add_messages(self, height: int, sender: str, to: str,
                     items: Sequence[Tuple[str, str]]) -> None:
        """Write the ``SignatureSent`` events of ``sender`` to ``to`` at
        ``height``, one per (tx, digest) item in order, as one run row, or
        as ``SIG_SHAPE`` rows for fewer than ``_MIN_RUN`` items."""
        if len(items) < _MIN_RUN:
            self.rows.extend([(SIG_SHAPE, height, sender, digest, to, tx)
                              for tx, digest in items])
        else:
            self.rows.append((_RUN, height, sender, to, tuple(items)))

    def count(self, kind: str) -> int:
        rows = self.rows
        plain = countOf(map(itemgetter(0), map(_SHAPE, rows)), kind)
        if kind != SIGNATURE_SENT:
            return plain
        return plain + sum(len(row[4]) for row in rows if row[0] is _RUN)

    def find(self, kind: str) -> List[Event]:
        runs = kind == SIGNATURE_SENT
        return [_event(plain) for row in self.rows if row[0][0] == kind or runs and row[0] is _RUN
                for plain in _plain(row)]

    def serialize(self) -> str:
        lines = [_ENCODER.encode({"type": "header", **self.header})]
        lines.extend(_row_lines(self.rows))
        lines.append(_ENCODER.encode({"type": "summary", **self.summary}))
        # The closing newline, so the text is joined once and not copied.
        lines.append("")
        return "\n".join(lines)

    def write(self, path: Union[str, Path]) -> None:
        # ``newline=""`` writes each "\n" as it is, on every platform.
        Path(path).write_text(self.serialize(), encoding="utf-8", newline="")


def witness_summary(witness: AppendWitness) -> Dict:
    return {
        "reveals": sorted(r.commitment.label for r in witness.reveals),
        "sigs": sorted(f"{s.signer}:{s.role}" for s in witness.signatures),
    }


def summarize_run(trace: Trace, chain: ChainState, outcome: str) -> Dict:
    """Fill in the trace's terminal summary from the final chain state:
    a run completes at the height where it reached a leaf."""
    appended = [[e.data["name"], e.data["digest"], e.height, e.data["role"]]
                for e in trace.find(APPEND) if e.data["outcome"] == "ok"]
    trace.summary = {
        "outcome": outcome,
        "final_height": chain.height,
        "completion_height": chain.height if outcome == OUTCOME_LEAF else None,
        "onchain_tx_count": chain.non_deposit_count(),
        "fees_paid": chain.fee * chain.non_deposit_count(),
        "deposits": chain.deposit_total(),
        "payouts": dict(sorted(chain.participant_utxo_values().items())),
        "message_count": trace.count(SIGNATURE_SENT),
        "appended": appended,
        "chain": chain.snapshot(),
    }
    return trace.summary


def replay_appends(trace: Trace, fee: int) -> ChainState:
    """Re-apply only the recorded appends to a fresh ledger.

    The replayed chain advances to each append's recorded height first;
    every append must succeed exactly as it did in the original run.
    """
    chain = ChainState(fee)
    for tx, witness, height in trace.appends:
        if height > chain.height:
            chain.tick(height - chain.height)
        error = chain.try_append(tx, witness)
        if error is not None:
            raise AssertionError(f"replay diverged at {tx.name}: {error.code}")
    final_height = trace.summary.get("final_height", chain.height)
    if final_height > chain.height:
        chain.tick(final_height - chain.height)
    return chain
