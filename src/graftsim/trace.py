"""Run traces: an ordered event log plus everything needed to replay it.

Each event is written as one immutable row, ``(shape, height, actor,
*values)``, where ``shape`` is ``(kind, *data keys)`` with the keys in
insertion order, one tuple shared by the rows of equal shapes.  A burst
of one sender's messages is one row too, which holds the exchange's
immutable layout and the burst's positions in the sender's queue, and
stands for one ``TxSetSent`` or ``SignatureSent`` event per position.
``Trace.events`` builds a fresh list of the events on each read;
``count`` and ``find`` expand a burst only for those two kinds.  Events
serialize to JSON Lines with sorted keys, so two runs of the same
scenario produce byte-identical files.  ``serialize`` appends each line
to one list of pieces, newline included, and joins the list once.  A
burst's signatures go in by reference: five pieces each, the layout's
own digest and subject among them, with its sender and height encoded
once and each recipient once.  A trace also keeps the actual (instance,
witness) pairs of every successful append, which lets tests re-apply
just the appends to a fresh ledger and compare terminal states.
"""

from __future__ import annotations

import functools
import json
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import countOf, itemgetter
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Tuple, Union

from .exchange import ExchangeLayout
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

# The shapes of the rows a burst expands into: ``(SIG_SHAPE, height,
# sender, digest, to, tx)`` and ``(TXSET_SHAPE, height, sender, count, to)``.
SIG_SHAPE = (SIGNATURE_SENT, "digest", "to", "tx")
TXSET_SHAPE = (TXSET_SENT, "count", "to")

# A burst row, ``(_BURST, height, sender, layout, start, stop)``: the
# messages at positions ``start`` to ``stop`` of ``sender``'s queue in the
# exchange laid out as ``layout`` (``exchange.ExchangeLayout``), sent at
# ``height``.  Its kind is no ``str``, so no ``add`` row has its shape and
# no read by kind matches it.
_BURST = (object(),)

# Run outcomes
OUTCOME_LEAF = "leaf"
OUTCOME_ABORTED = "aborted"
OUTCOME_HEIGHT_CAP = "height_cap"

# A line encodes each value by its exact type (``_TEXT_OF``): a ``str`` with
# ``encode_basestring_ascii``, an ``int`` with ``int.__repr__``, and any
# other, a ``bool`` or an ``int`` subclass included, with one encoder, as
# ``json.dumps`` with these options would build an equal one per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_TEXT_OF = {str: encode_basestring_ascii, int: int.__repr__}

# The package's events have literal keys and few shapes (14 over the
# three benchmark workloads); the bound keeps callers that serialize
# arbitrary events from growing the cache of line formats without limit.
_MAX_SHAPES = 1024

_SHAPE = itemgetter(0)

# The shape of each ``add`` row so far, so that rows of equal shapes share
# one tuple.  Only shapes whose parts are all exactly ``str`` are kept:
# ``1`` and ``True`` are equal, so a kept shape holding one would be handed
# to a row holding the other, which would then read back the wrong key.  No
# other value equals a ``str`` (a ``str`` subclass does, and has the same
# text).  Emptied when full, as ``_line_format``'s cache is bounded.
_SHAPES: Dict[Tuple, Tuple] = {}


def _kept(shape: Tuple) -> Tuple:
    """``shape``, kept in ``_SHAPES`` if its parts are all exactly ``str``."""
    for part in shape:
        if type(part) is not str:
            return shape
    if len(_SHAPES) >= _MAX_SHAPES:
        _SHAPES.clear()
    _SHAPES[shape] = shape
    return shape


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
    fmt = '{"actor":%s,"data":{' + fields + '},"height":%d,"kind":' + quoted(kind) + "}\n"
    columns = (2, *(3 + i for i in order))
    # ``itemgetter`` of one index returns the item, not a 1-tuple.
    pick = itemgetter(*columns) if keys else (lambda row: (row[2],))
    return fmt, pick


# The constant parts of the two message lines, which their values go
# between: the actor, then the data values in sorted key order.  The last
# part holds the height's ``%d`` and the line's newline.  A signature's
# values are all ``str``: ``_SIG_PARTS[True]`` holds their quotes too, for
# values that go in bare (``_bare``).
_TXSET_PARTS = _line_format(TXSET_SHAPE)[0].split("%s")
_SIG_PARTS = {bare: _line_format(SIG_SHAPE)[0].replace("%s", '"%s"' if bare else "%s").split("%s")
              for bare in (False, True)}
_SUBJECT, _DIGEST = itemgetter(0), itemgetter(1)
# The bytes of printable ASCII but ``"`` and ``\\``: the characters a JSON
# string holds as they are.
_AS_IS = bytes(range(0x20, 0x7F)).translate(None, b'"\\')


def _bare(layout: ExchangeLayout) -> bool:
    """Is every string of ``layout`` its own JSON text once quoted?  It
    is if the strings joined are ASCII and deleting every byte of
    ``_AS_IS`` from them leaves none, all in C.  A value that is not a
    ``str`` answers no."""
    try:
        text = "".join([*layout.participants, *chain.from_iterable(layout.body), *layout.final])
    except TypeError:
        return False
    return text.isascii() and not text.encode("ascii").translate(None, _AS_IS)


def _burst_pieces(pieces: List[str], row: Tuple, bare: bool) -> None:
    """Append a burst row's lines to ``pieces``: its transaction sets,
    then its signatures.  A signature is five pieces: the burst's head,
    the digest, the recipient's middle, the subject and the burst's
    end, so the sender and the height are encoded once per burst and
    each recipient once per segment.  If ``bare``, the layout's strings
    go in as they are, and the quotes are part of the constant pieces;
    otherwise each goes in as its ``encode_basestring_ascii`` form.  A
    value that is not a ``str`` raises ``TypeError``, with part of the
    burst written."""
    _, height, sender, layout, start, stop = row
    # ``str.__str__`` gives a ``str`` itself back, and a subclass's text.
    text = str.__str__ if bare else encode_basestring_ascii
    split, actor = layout.txsets_end(start, stop), text(sender)
    if start < split:
        q = '"' * bare
        first, count_at, to_at, tail = _TXSET_PARTS
        head = first + q + actor + q + count_at + int.__repr__(layout.txset_count) + to_at + q
        end = q + tail % height
        for to, _ in layout.segments(sender, start, split):
            pieces += (head, text(to), end)
    first, digest_at, to_at, tx_at, tail = _SIG_PARTS[bare]
    head, end = first + actor + digest_at, tail % height
    for to, items in layout.segments(sender, split, stop):
        mid = to_at + text(to) + tx_at
        if len(items) == 1:
            # One message, as most are when a burst has many recipients.
            (tx, digest), = items
            if not bare:
                tx, digest = text(tx), text(digest)
            pieces += (head, digest, mid, tx, end)
        else:
            digests, subjects = map(_DIGEST, items), map(_SUBJECT, items)
            if not bare:
                digests, subjects = map(text, digests), map(text, subjects)
            pieces += chain.from_iterable(zip(repeat(head), digests, repeat(mid), subjects,
                                              repeat(end)))


def _row_pieces(pieces: List[str], rows: Iterable[Tuple], bare_of: Dict[int, bool]) -> None:
    """Append each row's lines to ``pieces``.  A plain row is its line,
    filled into its shape's cached format with each value encoded by its
    type (``_TEXT_OF``): the bytes of ``json.dumps`` with sorted keys and
    compact separators, for an ``int`` height and ``str`` data keys.  A
    burst row goes in by ``_burst_pieces``, bare if its layout is, which
    ``bare_of`` keeps by the layout's ``id``: the rows keep every layout
    alive, so no two share an ``id``.  If the burst holds a value that is
    not a ``str``, what it wrote is cut, and it goes in as its messages'
    rows."""
    enc, text_of = _ENCODER.encode, _TEXT_OF.get
    for row in rows:
        if row[0] is _BURST:
            key, mark = id(row[3]), len(pieces)
            bare = bare_of.get(key)
            if bare is None:
                bare = bare_of[key] = _bare(row[3])
            try:
                _burst_pieces(pieces, row, bare)
            except TypeError:
                del pieces[mark:]
                _row_pieces(pieces, _plain(row), bare_of)
        else:
            fmt, pick = _line_format(row[0])
            pieces.append(fmt % (*[text_of(type(v), enc)(v) for v in pick(row)], row[1]))


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


def _plain(row: Tuple) -> Iterable[Tuple]:
    """The rows of one event each that a row stands for: itself, or one
    per message of a burst."""
    if row[0] is not _BURST:
        return (row,)
    _, height, sender, layout, start, stop = row
    rows: List[Tuple] = []
    for to, items in layout.segments(sender, start, stop):
        if items is None:
            rows.append((TXSET_SHAPE, height, sender, layout.txset_count, to))
        else:
            rows += [(SIG_SHAPE, height, sender, digest, to, tx) for tx, digest in items]
    return rows


class Trace:
    """A run's header, its event rows, its successful appends and its
    terminal summary, which ``summarize_run`` fills in.  ``add`` writes an
    event as its row, and ``add_burst`` a burst of messages.  ``events``,
    ``count``, ``find`` and ``serialize`` read the rows."""

    def __init__(self, header: Dict) -> None:
        self.header = header
        self.rows: List[Tuple] = []
        self.appends: List[Tuple[TxInstance, AppendWitness, int]] = []
        self.summary: Dict = {}

    @property
    def events(self) -> List[Event]:
        """A fresh list of the trace's events, built from the rows."""
        return list(map(_event, chain.from_iterable(map(_plain, self.rows))))

    def add(self, height: int, actor: str, kind: str, data: Dict) -> None:
        """Write the event ``Event(height, actor, kind, data)`` as its row,
        whose shape is the one kept for equal shapes (``_SHAPES``)."""
        shape = (kind, *data)
        self.rows.append((_SHAPES.get(shape) or _kept(shape), height, actor, *data.values()))

    def add_burst(self, height: int, sender: str, layout: ExchangeLayout, start: int,
                  stop: int) -> None:
        """Write the messages at positions ``start`` to ``stop`` of
        ``sender``'s queue in the exchange laid out as ``layout``, sent at
        ``height``, as one row."""
        self.rows.append((_BURST, height, sender, layout, start, stop))

    def count(self, kind: str) -> int:
        count = countOf(map(itemgetter(0), map(_SHAPE, self.rows)), kind)
        if kind in (SIGNATURE_SENT, TXSET_SENT):
            for row in (row for row in self.rows if row[0] is _BURST):
                split = row[3].txsets_end(row[4], row[5])
                count += split - row[4] if kind == TXSET_SENT else row[5] - split
        return count

    def find(self, kind: str) -> List[Event]:
        sent = kind in (SIGNATURE_SENT, TXSET_SENT)
        return [_event(plain) for row in self.rows if row[0][0] == kind or sent and row[0] is _BURST
                for plain in _plain(row) if plain[0][0] == kind]

    def serialize(self) -> str:
        """The trace as JSON Lines, each line closed by ``"\\n"``: its
        pieces go into one list, which is joined once."""
        pieces = [_ENCODER.encode({"type": "header", **self.header}), "\n"]
        _row_pieces(pieces, self.rows, {})
        pieces += (_ENCODER.encode({"type": "summary", **self.summary}), "\n")
        return "".join(pieces)

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
