"""Run traces: an ordered event log plus everything needed to replay it.

Events serialize to JSON Lines with sorted keys, so two runs of the same
scenario produce byte-identical files.  A trace also keeps the actual
(instance, witness) pairs of every successful append, which lets tests
re-apply just the appends to a fresh ledger and compare terminal states.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

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

# Run outcomes
OUTCOME_LEAF = "leaf"
OUTCOME_ABORTED = "aborted"
OUTCOME_HEIGHT_CAP = "height_cap"

# One encoder for every line: ``json.dumps`` with these options would build
# an equal one per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# Event line formats by shape, ``(kind, *data keys)`` in insertion order.
# An entry depends on its shape alone, so every trace can share it.  The
# package's events have literal keys and few shapes (14 over the three
# benchmark workloads); the cache is cleared once it holds ``_MAX_SHAPES``,
# so callers that serialize arbitrary events cannot grow it without limit.
_FORMATS: Dict[Tuple, Tuple[str, Tuple[str, ...]]] = {}
_MAX_SHAPES = 1024


def _line_format(kind: str, data: Dict) -> Tuple[str, Tuple[str, ...]]:
    """The ``%`` format of an event line of this shape, and the data keys
    whose encoded values fill it, sorted.  The constant parts are encoded
    here once, with every ``%`` in them doubled."""
    for key in data:
        if not isinstance(key, str):
            raise TypeError(f"event data keys must be str, not {type(key).__name__}")
    def quoted(text: str) -> str:
        return _ENCODER.encode(text).replace("%", "%%")
    keys = tuple(sorted(data))
    fields = ",".join(quoted(key) + ":%s" for key in keys)
    return '{"actor":%s,"data":{' + fields + '},"height":%d,"kind":' + quoted(kind) + "}", keys


def _event_lines(events: Iterable[Event]) -> Iterator[str]:
    """Each event's line, filled into its shape's cached format: the bytes
    of ``json.dumps`` with sorted keys and compact separators, for an
    ``int`` height and ``str`` data keys."""
    enc = _ENCODER.encode
    formats = _FORMATS
    for height, actor, kind, data in events:
        shape = (kind, *data)
        try:
            fmt, keys = formats[shape]
        except KeyError:
            if len(formats) >= _MAX_SHAPES:
                formats.clear()
            fmt, keys = formats[shape] = _line_format(kind, data)
        yield fmt % (enc(actor), *map(enc, map(data.__getitem__, keys)), height)


class Event(NamedTuple):
    height: int
    actor: str
    kind: str
    data: Dict

    def to_json(self) -> str:
        return next(_event_lines((self,)))


@dataclass
class Trace:
    header: Dict
    events: List[Event] = field(default_factory=list)
    appends: List[Tuple[TxInstance, AppendWitness, int]] = field(default_factory=list)
    summary: Dict = field(default_factory=dict)

    def add(self, event: Event) -> Event:
        self.events.append(event)
        return event

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def find(self, kind: str) -> List[Event]:
        return [e for e in self.events if e.kind == kind]

    @property
    def outcome(self) -> str:
        return self.summary.get("outcome", "")

    def serialize(self) -> str:
        lines = [_ENCODER.encode({"type": "header", **self.header})]
        lines.extend(_event_lines(self.events))
        lines.append(_ENCODER.encode({"type": "summary", **self.summary}))
        return "\n".join(lines) + "\n"

    def write(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.serialize(), encoding="utf-8")


def witness_summary(witness: AppendWitness) -> Dict:
    return {
        "reveals": sorted(r.commitment.label for r in witness.reveals),
        "sigs": sorted(f"{s.signer}:{s.role}" for s in witness.signatures),
    }


def summarize_run(trace: Trace, chain: ChainState, fee: int, outcome: str,
                  completion_height: Optional[int] = None) -> Dict:
    """Fill in the trace's terminal summary from the final chain state."""
    messages = 0
    appended = []
    for e in trace.events:
        if e.kind == SIGNATURE_SENT:
            messages += 1
        elif e.kind == APPEND and e.data["outcome"] == "ok":
            appended.append([e.data["name"], e.data["digest"], e.height, e.data["role"]])
    trace.summary = {
        "outcome": outcome,
        "final_height": chain.height,
        "completion_height": completion_height,
        "onchain_tx_count": chain.non_deposit_count(),
        "fees_paid": fee * chain.non_deposit_count(),
        "deposits": chain.deposit_total(),
        "payouts": dict(sorted(chain.participant_utxo_values().items())),
        "message_count": messages,
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
