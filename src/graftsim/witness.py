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
from typing import Dict, Iterable, Set, Tuple

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
# exactly digest equality.

def _u16(value: int) -> bytes:
    return value.to_bytes(2, "big")


def _u32(value: int) -> bytes:
    return value.to_bytes(4, "big")


def _u64(value: int) -> bytes:
    return value.to_bytes(8, "big")


def _blob(data: bytes) -> bytes:
    return _u16(len(data)) + data


def _text(value: str) -> bytes:
    return _blob(value.encode("utf-8"))


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
    sessions never collide.
    """
    parts = [b"TX1", _text(name), _blob(salt), _u16(len(inputs))]
    for src, idx in inputs:
        parts.append(_blob(bytes.fromhex(src)))
        parts.append(_u16(idx))
    parts.append(_u32(rel_timelock))
    parts.append(_u16(len(outputs)))
    for value, beneficiary in outputs:
        parts.append(_u64(value))
        parts.append(_text(beneficiary))
    return hash_bytes(b"".join(parts)).hex()


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


class SignatureStore:
    """One participant's accumulated view of received signatures.

    Maps a transaction digest to the set of (signer, role) pairs seen for
    it.  The store only ever grows.
    """

    def __init__(self) -> None:
        self._by_digest: Dict[str, Set[Tuple[str, str]]] = {}

    def add(self, sig: Signature) -> "SignatureStore":
        self._by_digest.setdefault(sig.digest, set()).add((sig.signer, sig.role))
        return self

    def has(self, signer: str, digest: str, role: str = IMPLICIT) -> bool:
        return (signer, role) in self._by_digest.get(digest, ())

    def signers(self, digest: str, role: str = IMPLICIT) -> Set[str]:
        return {s for s, r in self._by_digest.get(digest, ()) if r == role}


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
