"""Simulated authorization layer: digests, signatures, secret commitments.

Nothing here touches real key material.  A Signature is an identity record
bound to a canonical transaction digest, which reproduces the one property
the protocols depend on: an authorization issued for one transaction
variant verifies against that variant only.  Secrets follow the usual
hash-lock pattern (commit to ``H(label || nonce)``, later reveal the
preimage).  All randomness is derived from a caller-supplied seed so runs
are reproducible bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

# Signature roles.  IMPLICIT signatures are the all-participant signatures
# exchanged up front for every transaction of a compiled tree; EDGE
# signatures are granted at execution time by the participants named on a
# branch.  The two are distinct authorizations even when signer and digest
# coincide.
IMPLICIT = "implicit"
EDGE = "edge"

NONCE_SIZE = 16


def hash_bytes(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# ---------------------------------------------------------------------------
# Canonical serialization: length-prefixed, field-ordered, fixed-width
# big-endian integers.  Structural equality of the serialized fields is
# exactly digest equality; a value too wide for its field raises OverflowError.

DIGEST_SIZE = 32


def encode_value(value: int) -> bytes:
    """A 64-bit field, such as an output's value."""
    return value.to_bytes(8, "big")


def _text(raw: bytes) -> bytes:
    """``raw`` after its length in 16 bits."""
    return len(raw).to_bytes(2, "big") + raw


def _head(name: str, salt: bytes, input_count: int) -> bytes:
    """The encoding of a transaction template up to its input list."""
    return b"TX1" + _text(name.encode("utf-8")) + _text(salt) + input_count.to_bytes(2, "big")


def encode_outputs(outputs: Tuple[Tuple[int, str], ...]) -> bytes:
    """The encoding of an output list, a template's last field: the count
    in 16 bits, then each (value, beneficiary) pair, the value in 64 bits
    and the beneficiary as text."""
    return len(outputs).to_bytes(2, "big") + b"".join(
        encode_value(value) + _text(beneficiary.encode("utf-8"))
        for value, beneficiary in outputs)


def tx_digest(
    name: str,
    salt: bytes,
    inputs: Tuple[Tuple[str, int], ...],
    rel_timelock: int,
    outputs: Tuple[Tuple[int, str], ...],
) -> str:
    """Canonical digest of a transaction template, as a hex string.

    ``inputs`` are (source digest hex, output index) pairs; ``outputs`` are
    (value, beneficiary) pairs.  The salt scopes the digest to one
    compilation, so identically shaped transactions from different
    sessions never collide.  The preimage is the fields in order: text and
    bytes with a 16-bit length, counts and indices in 16 bits, the
    timelock in 32 and values in 64.  ``spend_templates`` gives the same
    encoding in parts for spends of one transaction's first output.
    """
    preimage = (_head(name, salt, len(inputs))
                + b"".join(_text(bytes.fromhex(src)) + idx.to_bytes(2, "big")
                           for src, idx in inputs)
                + rel_timelock.to_bytes(4, "big") + encode_outputs(outputs))
    return hashlib.sha256(preimage).hexdigest()


def spend_templates(salt: bytes,
                    spends: Iterable[Tuple[str, int]]) -> List[Tuple[bytes, bytes]]:
    """For each (name, rel_timelock) of ``spends``, the encoding of a
    template that spends output 0 of one source transaction under
    ``rel_timelock``, as the parts before and after the source's raw
    digest; the output list follows.  So for a source digest ``raw``,
    ``sha256(before + raw + after + encode_outputs(outputs))`` is
    ``tx_digest(name, salt, ((raw.hex(), 0),), rel_timelock, outputs)``,
    unhexed.  The salt's part is encoded once."""
    # After the name: the rest of ``_head(name, salt, 1)``, then the
    # source digest's length.
    rest = _text(salt) + (1).to_bytes(2, "big") + DIGEST_SIZE.to_bytes(2, "big")
    return [(b"TX1" + _text(name.encode("utf-8")) + rest,
             (0).to_bytes(2, "big") + rel_timelock.to_bytes(4, "big"))
            for name, rel_timelock in spends]


def one_output_template(beneficiary: str) -> Tuple[bytes, bytes]:
    """The encoding of a list of one output to ``beneficiary``, as the
    parts before and after its value: ``before + encode_value(value) +
    after`` is ``encode_outputs(((value, beneficiary),))``."""
    return (1).to_bytes(2, "big"), _text(beneficiary.encode("utf-8"))


def scenario_salt(seed: int, scope: str = "") -> bytes:
    """Compilation salt derived from a scenario seed.

    ``scope`` separates compilations that share a seed (for example the
    on-chain and off-chain instantiations of the same contract).
    """
    return hash_bytes(b"salt/" + encode_value(seed) + scope.encode("utf-8"))[:NONCE_SIZE]


# ---------------------------------------------------------------------------
# Signatures

@dataclass(frozen=True, order=True)
class Signature:
    signer: str
    digest: str
    role: str = IMPLICIT


def sign(signer: str, digest: str, role: str = IMPLICIT) -> Signature:
    """Produce the (deterministic) signature of ``signer`` over ``digest``."""
    return Signature(signer, digest, role)


def verify(sig: Signature, digest: str) -> bool:
    """A signature verifies against exactly the digest it was issued for."""
    return sig.digest == digest


# ---------------------------------------------------------------------------
# Secret commitments

@dataclass(frozen=True, order=True)
class SecretCommitment:
    label: str
    hash_hex: str
    owner: str


@dataclass(frozen=True)
class Reveal:
    commitment: SecretCommitment
    preimage: bytes


def commit(label: str, nonce: bytes, owner: str) -> SecretCommitment:
    preimage = label.encode("utf-8") + nonce
    return SecretCommitment(label, hash_bytes(preimage).hex(), owner)


def check_reveal(reveal: Reveal) -> bool:
    return hash_bytes(reveal.preimage).hex() == reveal.commitment.hash_hex


class CommitmentSet:
    """All secret commitments of one run, with their (private) preimages.

    Nonces are derived from the scenario seed, so the same seed always
    produces the same commitments.  Duplicate commitment hashes across
    distinct labels are rejected outright.
    """

    def __init__(self, declarations: Iterable[Tuple[str, str]], seed: int) -> None:
        self._commitments: Dict[str, SecretCommitment] = {}
        self._preimages: Dict[str, bytes] = {}
        base = scenario_salt(seed)
        for label, owner in declarations:
            if label in self._commitments:
                raise ValueError(f"duplicate secret label {label!r}")
            nonce = hash_bytes(b"nonce/" + base + label.encode("utf-8"))[:NONCE_SIZE]
            self._commitments[label] = commit(label, nonce, owner)
            self._preimages[label] = label.encode("utf-8") + nonce
        hashes = {c.hash_hex for c in self._commitments.values()}
        if len(hashes) != len(self._commitments):
            raise ValueError("commitment hash collision between distinct labels")

    def __contains__(self, label: str) -> bool:
        return label in self._commitments

    def __getitem__(self, label: str) -> SecretCommitment:
        return self._commitments[label]

    def owner(self, label: str) -> str:
        return self._commitments[label].owner

    def reveal(self, label: str) -> Reveal:
        """The opening of one commitment; only meaningful for its owner."""
        return Reveal(self._commitments[label], self._preimages[label])
