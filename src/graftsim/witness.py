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
from typing import Dict, Iterable, Tuple

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

def _u64(value: int) -> bytes:
    return value.to_bytes(8, "big")


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
    sessions never collide.  Fields are hashed in one pass as they are
    encoded: text and bytes with a 16-bit length, counts and indices in 16
    bits, the timelock in 32 and values in 64.  The encoding is split at
    the input list: ``tx_prefix`` is the part before it, and
    ``prefixed_digest`` hashes that part and the rest.
    """
    return prefixed_digest(tx_prefix(name, salt, len(inputs)), inputs, rel_timelock, outputs)


def tx_prefix(name: str, salt: bytes, input_count: int) -> bytes:
    """The encoding of a transaction template up to its input list: the
    name, the salt and the number of inputs.  Every instance of one
    contract node that spends ``input_count`` outputs shares it, wherever
    its subtree is grafted."""
    raw = name.encode("utf-8")
    return (b"TX1" + len(raw).to_bytes(2, "big") + raw
            + len(salt).to_bytes(2, "big") + salt + input_count.to_bytes(2, "big"))


def prefixed_digest(
    prefix: bytes,
    inputs: Tuple[Tuple[str, int], ...],
    rel_timelock: int,
    outputs: Tuple[Tuple[int, str], ...],
) -> str:
    """``tx_digest`` of the template whose encoding up to the input list is
    ``prefix``, which must count ``len(inputs)`` inputs (see ``tx_prefix``)."""
    h = hashlib.sha256(prefix)
    for src, idx in inputs:
        ref = bytes.fromhex(src)
        h.update(len(ref).to_bytes(2, "big") + ref + idx.to_bytes(2, "big"))
    h.update(rel_timelock.to_bytes(4, "big") + len(outputs).to_bytes(2, "big"))
    for value, beneficiary in outputs:
        raw = beneficiary.encode("utf-8")
        h.update(value.to_bytes(8, "big") + len(raw).to_bytes(2, "big") + raw)
    return h.hexdigest()


def scenario_salt(seed: int, scope: str = "") -> bytes:
    """Compilation salt derived from a scenario seed.

    ``scope`` separates compilations that share a seed (for example the
    on-chain and off-chain instantiations of the same contract).
    """
    return hash_bytes(b"salt/" + _u64(seed) + scope.encode("utf-8"))[:NONCE_SIZE]


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

    def labels(self) -> Tuple[str, ...]:
        return tuple(sorted(self._commitments))

    def owner(self, label: str) -> str:
        return self._commitments[label].owner

    def reveal(self, label: str) -> Reveal:
        """The opening of one commitment; only meaningful for its owner."""
        return Reveal(self._commitments[label], self._preimages[label])
