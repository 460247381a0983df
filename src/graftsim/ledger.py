"""Simulated UTxO ledger with block heights and per-input relative timelocks.

A transaction instance is immutable: its digest covers the input
references, relative timelock, outputs, display name, and compilation
salt.  ``ChainState.check`` validates an instance against a witness in a
fixed order and reports the first rule it violates; ``try_append`` is
that check followed by the append, so outcomes are stable across runs
and a dry run gives exactly the ledger's answer.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple

from .contract import CONTINUATION, OutputSpec
from .witness import (
    EDGE,
    IMPLICIT,
    Reveal,
    SecretCommitment,
    Signature,
    check_reveal,
    tx_digest,
    verify,
)

InputRef = Tuple[str, int]  # (source digest hex, output index)


class TxInstance(NamedTuple):
    digest: str
    name: str
    inputs: Tuple[InputRef, ...]
    rel_timelock: int
    required_signers: FrozenSet[str]       # all-participant signatures
    edge_signers: FrozenSet[str]           # execution-time authorizations
    required_reveals: FrozenSet[SecretCommitment]
    outputs: Tuple[OutputSpec, ...]

    @property
    def is_deposit(self) -> bool:
        return not self.inputs

    def output_total(self) -> int:
        return sum(o.value for o in self.outputs)


def make_tx(
    name: str,
    salt: bytes,
    inputs: Tuple[InputRef, ...],
    rel_timelock: int,
    required_signers: FrozenSet[str] = frozenset(),
    edge_signers: FrozenSet[str] = frozenset(),
    required_reveals: FrozenSet[SecretCommitment] = frozenset(),
    outputs: Tuple[OutputSpec, ...] = (),
) -> TxInstance:
    digest = tx_digest(name, salt, inputs, rel_timelock, outputs)
    return TxInstance(digest, name, tuple(inputs), rel_timelock,
                      frozenset(required_signers), frozenset(edge_signers),
                      frozenset(required_reveals), tuple(outputs))


@dataclass(frozen=True)
class AppendWitness:
    signatures: FrozenSet[Signature] = frozenset()
    reveals: FrozenSet[Reveal] = frozenset()


EMPTY_WITNESS = AppendWitness()


# ---------------------------------------------------------------------------
# Append errors, in the order the rules are checked

@dataclass(frozen=True)
class AppendError:
    """The first rule an append broke; each field is a key of the trace's
    outcome object."""

    @property
    def code(self) -> str:
        return type(self).__name__

    def detail(self) -> Dict:
        return asdict(self)


@dataclass(frozen=True)
class MissingInput(AppendError):
    input: InputRef


@dataclass(frozen=True)
class MissingSignature(AppendError):
    signer: str
    role: str = IMPLICIT


@dataclass(frozen=True)
class MissingReveal(AppendError):
    label: str


@dataclass(frozen=True)
class TimelockNotExpired(AppendError):
    needed_height: int


@dataclass(frozen=True)
class ValueMismatch(AppendError):
    expected: int
    got: int


class ChainState:
    """Height, appended transactions, and the live UTxO set.

    Every height test goes through ``reached``, which remembers the least
    height it answered "not yet" for since the chain last moved: until
    then no such answer can change (``next_flip``).
    """

    def __init__(self, fee: int) -> None:
        self.fee = fee
        self.height = 0
        self.appended: Dict[str, Tuple[TxInstance, int]] = {}
        self.utxos: Dict[InputRef, OutputSpec] = {}
        self.next_flip: Optional[int] = None

    def tick(self, blocks: int = 1) -> int:
        self.height += blocks
        self.next_flip = None
        return self.height

    def reached(self, height: int) -> bool:
        """Is the chain at ``height`` or past it?  A "no" lowers
        ``next_flip`` to ``height``."""
        if self.height >= height:
            return True
        if self.next_flip is None or height < self.next_flip:
            self.next_flip = height
        return False

    def is_unspent(self, ref: InputRef) -> bool:
        return ref in self.utxos

    def enabled_at(self, tx: TxInstance) -> Optional[int]:
        """Earliest height at which the timelock rule passes, assuming the
        inputs stay unspent.  None if an input is missing."""
        if tx.is_deposit:
            return 0
        latest = 0
        for ref in tx.inputs:
            if ref not in self.utxos:
                return None
            src_height = self.appended[ref[0]][1]
            latest = max(latest, src_height + tx.rel_timelock)
        return latest

    def check(self, tx: TxInstance, witness: AppendWitness = EMPTY_WITNESS) -> Optional[AppendError]:
        """Would ``try_append`` accept this?  Returns None if so, otherwise
        the first violated rule: inputs, signatures, reveals, timelocks,
        value conservation — in that order.  Appends nothing."""
        if tx.digest in self.appended:
            return MissingInput((tx.digest, 0)) if tx.is_deposit else MissingInput(tx.inputs[0])

        if not tx.is_deposit:
            for ref in tx.inputs:
                if ref not in self.utxos:
                    return MissingInput(ref)

        for signer in sorted(tx.required_signers):
            if not any(s.signer == signer and s.role == IMPLICIT and verify(s, tx.digest)
                       for s in witness.signatures):
                return MissingSignature(signer, IMPLICIT)
        for signer in sorted(tx.edge_signers):
            if not any(s.signer == signer and s.role == EDGE and verify(s, tx.digest)
                       for s in witness.signatures):
                return MissingSignature(signer, EDGE)

        for commitment in sorted(tx.required_reveals):
            if not any(r.commitment == commitment and check_reveal(r)
                       for r in witness.reveals):
                return MissingReveal(commitment.label)

        if not tx.is_deposit:
            needed = self.enabled_at(tx)
            if not self.reached(needed):
                return TimelockNotExpired(needed)

            input_total = sum(self.utxos[ref].value for ref in tx.inputs)
            if tx.output_total() + self.fee != input_total:
                return ValueMismatch(input_total - self.fee, tx.output_total())
        return None

    def try_append(self, tx: TxInstance, witness: AppendWitness = EMPTY_WITNESS) -> Optional[AppendError]:
        """Validate with ``check`` and append.  Returns None on success,
        otherwise the first violated rule, appending nothing."""
        error = self.check(tx, witness)
        if error is not None:
            return error
        for ref in tx.inputs:
            del self.utxos[ref]
        for index, output in enumerate(tx.outputs):
            self.utxos[(tx.digest, index)] = output
        self.appended[tx.digest] = (tx, self.height)
        return None

    # -- accounting helpers -------------------------------------------------

    def deposit_total(self) -> int:
        return sum(tx.output_total() for tx, _ in self.appended.values() if tx.is_deposit)

    def non_deposit_count(self) -> int:
        return sum(1 for tx, _ in self.appended.values() if not tx.is_deposit)

    def utxo_total(self) -> int:
        return sum(o.value for o in self.utxos.values())

    def conservation_holds(self) -> bool:
        """Every appended non-deposit transaction burned exactly one fee."""
        return self.utxo_total() + self.fee * self.non_deposit_count() == self.deposit_total()

    def participant_utxo_values(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for output in self.utxos.values():
            if output.beneficiary != CONTINUATION:
                totals[output.beneficiary] = totals.get(output.beneficiary, 0) + output.value
        return totals

    def snapshot(self) -> Dict:
        """Canonical description of the terminal state, for replay checks."""
        return {
            "height": self.height,
            "appended": sorted((d, h) for d, (_, h) in self.appended.items()),
            "utxos": sorted((ref[0], ref[1], o.value, o.beneficiary)
                            for ref, o in self.utxos.items()),
        }
