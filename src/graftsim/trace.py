"""Run traces: an ordered event log plus everything needed to replay it.

Each event is written as one immutable row, ``(shape, height, actor,
*values)``, where ``shape`` is ``(kind, *data keys)`` with the keys in
insertion order; ``Trace.events`` reads the rows back as ``Event``s.
Events serialize to JSON Lines with sorted keys, so two runs of the same
scenario produce byte-identical files.  A trace also keeps the actual
(instance, witness) pairs of every successful append, which lets tests
re-apply just the appends to a fresh ledger and compare terminal states.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Sequence
from itertools import chain, groupby
from json.encoder import encode_basestring_ascii
from operator import countOf, itemgetter
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

# The shapes of the messages, which ``Session.send`` appends as rows
# directly: ``(SIG_SHAPE, height, sender, digest, to, tx)`` and
# ``(TXSET_SHAPE, height, sender, count, to)``.
SIG_SHAPE = (SIGNATURE_SENT, "digest", "to", "tx")
TXSET_SHAPE = (TXSET_SENT, "count", "to")

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

# A trace of at least ``_MIN_GROUPED`` rows is taken in runs of rows of one
# shape, and a run of at least ``_MIN_BLOCK`` rows is formatted in blocks of
# at most ``_BLOCK`` lines, each filled by one ``%`` with arguments gathered
# in C.  Shorter traces, such as adversary runs (at most 151 rows in the
# ACCEPTANCE 5 sweep), and shorter runs are formatted row by row, which
# costs less than grouping the rows and setting up the columns.  The block
# bound keeps the arguments of one block, and so the peak memory of
# ``serialize``, small.
_MIN_GROUPED = 256
_MIN_BLOCK = 8
_BLOCK = 64

_SHAPE, _HEIGHT = itemgetter(0), itemgetter(1)


@functools.lru_cache(maxsize=_MAX_SHAPES)
def _line_format(shape: Tuple) -> Tuple[str, Callable[[Tuple], Tuple],
                                        Tuple[Callable[[Tuple], object], ...]]:
    """The ``%`` format of an event line of this shape, a function that
    picks from a row of it the actor and the data values in sorted key
    order, whose encodings fill it ahead of the height, and one getter per
    such column.  The constant parts are encoded here once, with every
    ``%`` in them doubled."""
    # Shapes are cached and grouped by equality, under which 1, 1.0 and
    # True are one kind, though each encodes differently.
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
    return fmt, pick, tuple(map(itemgetter, columns))


def _block_args(encode: Callable[[object], str], columns: Tuple, rows: List[Tuple]) -> Tuple:
    """The arguments of a block of ``rows``' lines, row after row: each
    column's values encoded, then the height."""
    return tuple(chain.from_iterable(zip(
        *[map(encode, map(column, rows)) for column in columns], map(_HEIGHT, rows))))


def _row_lines(rows: Iterable[Tuple]) -> Iterator[str]:
    """Each row's line, filled into its shape's cached format: the bytes of
    ``json.dumps`` with sorted keys and compact separators, for an ``int``
    height and ``str`` data keys.  A row whose actor and values are all
    ``str``, as every message's are, is encoded in C alone; any other value
    raises ``TypeError`` there and the row goes through the encoder, which
    gives every ``str`` the same bytes."""
    esc, enc = encode_basestring_ascii, _ENCODER.encode
    last = None
    for row in rows:
        if row[0] is not last:
            last = row[0]
            fmt, pick, _ = _line_format(last)
        try:
            line = fmt % (*map(esc, pick(row)), row[1])
        except TypeError:
            line = fmt % (*map(enc, pick(row)), row[1])
        yield line


def _block_lines(rows: Iterable[Tuple]) -> Iterator[str]:
    """``_row_lines``, with each run of at least ``_MIN_BLOCK`` rows of
    one shape as blocks of lines joined by ``"\\n"``.  A block with a value
    that is not a ``str`` goes through the encoder whole."""
    esc, enc = encode_basestring_ascii, _ENCODER.encode
    for shape, run in groupby(rows, _SHAPE):
        run = list(run)
        if len(run) < _MIN_BLOCK:
            yield from _row_lines(run)
            continue
        fmt, _, columns = _line_format(shape)
        for start in range(0, len(run), _BLOCK):
            batch = run[start:start + _BLOCK]
            try:
                args = _block_args(esc, columns, batch)
            except TypeError:
                args = _block_args(enc, columns, batch)
            yield "\n".join([fmt] * len(batch)) % args


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


class EventView(Sequence):
    """A live, read-only view of a trace's rows as ``Event``s: it grows as
    the trace does, and each read builds its ``Event``."""
    __slots__ = ("_rows",)

    def __init__(self, rows: List[Tuple]) -> None:
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [_event(row) for row in self._rows[index]]
        return _event(self._rows[index])

    def __iter__(self) -> Iterator[Event]:
        return map(_event, self._rows)


class Trace:
    """A run's header, its event rows, its successful appends and its
    terminal summary, which ``summarize_run`` fills in.  ``add`` writes an
    event as its row; ``Session.send`` appends message rows to ``rows``
    directly.  ``events``, ``find`` and ``serialize`` read the rows."""

    def __init__(self, header: Dict) -> None:
        self.header = header
        self.rows: List[Tuple] = []
        self.appends: List[Tuple[TxInstance, AppendWitness, int]] = []
        self.summary: Dict = {}

    @property
    def events(self) -> EventView:
        return EventView(self.rows)

    def add(self, height: int, actor: str, kind: str, data: Dict) -> None:
        """Write the event ``Event(height, actor, kind, data)`` as its row."""
        self.rows.append(((kind, *data), height, actor, *data.values()))

    def count(self, kind: str) -> int:
        return countOf(map(itemgetter(0), map(_SHAPE, self.rows)), kind)

    def find(self, kind: str) -> List[Event]:
        return [_event(row) for row in self.rows if row[0][0] == kind]

    def serialize(self) -> str:
        lines = [_ENCODER.encode({"type": "header", **self.header})]
        rows = self.rows
        lines.extend(_row_lines(rows) if len(rows) < _MIN_GROUPED else _block_lines(rows))
        lines.append(_ENCODER.encode({"type": "summary", **self.summary}))
        # The closing newline, so the text is joined once and not copied.
        lines.append("")
        return "\n".join(lines)

    def write(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.serialize(), encoding="utf-8")


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
