"""Authorization layer: digests, signatures, commitments, reveals; the
reference signature store."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from graftsim.contract import MAX_AMOUNT, MAX_NAME_BYTES, MAX_TIMELOCK, OutputSpec
from graftsim.witness import (
    CommitmentSet,
    EDGE,
    IMPLICIT,
    Reveal,
    check_reveal,
    commit,
    encode_outputs,
    one_output_template,
    scenario_salt,
    sign,
    spend_templates,
    tx_digest,
    verify,
)

from drivers import SignatureStore, spend_template

SALT = scenario_salt(7)
SRC = "ab" * 32


class TestDigests:
    def test_deterministic(self):
        a = tx_digest("T", SALT, ((SRC, 0),), 5, ((10, "A"),))
        b = tx_digest("T", SALT, ((SRC, 0),), 5, ((10, "A"),))
        assert a == b
        assert len(a) == 64 and int(a, 16) >= 0

    @pytest.mark.parametrize("variant", [
        dict(name="U"),
        dict(salt=scenario_salt(8)),
        dict(inputs=((SRC, 1),)),
        dict(inputs=()),
        dict(rel=6),
        dict(outputs=((11, "A"),)),
        dict(outputs=((10, "B"),)),
        dict(outputs=((10, "A"), (0, "B"))),
    ])
    def test_any_field_change_changes_digest(self, variant):
        base = tx_digest("T", SALT, ((SRC, 0),), 5, ((10, "A"),))
        other = tx_digest(
            variant.get("name", "T"),
            variant.get("salt", SALT),
            variant.get("inputs", ((SRC, 0),)),
            variant.get("rel", 5),
            variant.get("outputs", ((10, "A"),)))
        assert other != base

    def test_scoped_salts_differ(self):
        assert scenario_salt(1, "onchain") != scenario_salt(1, "offchain")
        assert scenario_salt(1) != scenario_salt(2)


# The piecewise encoding, kept as the reference the one-pass ``tx_digest``
# must equal: each field encoded on its own, the parts joined, then hashed.

def _u16(value):
    return value.to_bytes(2, "big")


def _blob(data):
    return _u16(len(data)) + data


def _text(value):
    return _blob(value.encode("utf-8"))


def reference_tx_digest(name, salt, inputs, rel_timelock, outputs):
    parts = [b"TX1", _text(name), _blob(salt), _u16(len(inputs))]
    for src, idx in inputs:
        parts.append(_blob(bytes.fromhex(src)))
        parts.append(_u16(idx))
    parts.append(rel_timelock.to_bytes(4, "big"))
    parts.append(_u16(len(outputs)))
    for value, beneficiary in outputs:
        parts.append(value.to_bytes(8, "big"))
        parts.append(_text(beneficiary))
    return hashlib.sha256(b"".join(parts)).hexdigest()


# Short names, and names at the limit: a participant's name of MAX_NAME_BYTES,
# its deposit's "Dep_" name of 2^16 - 1 bytes, and two-byte characters.
LONG_NAMES = {"longest": "x" * MAX_NAME_BYTES, "deposit": "Dep_" + "x" * MAX_NAME_BYTES,
              "accented": "é" * (MAX_NAME_BYTES // 2),
              "deposit-accented": "Dep_ü" + "x" * (MAX_NAME_BYTES - 2)}
names = st.one_of(st.text(max_size=12), st.sampled_from(sorted(LONG_NAMES)).map(LONG_NAMES.get))
refs = st.tuples(st.binary(max_size=32).map(bytes.hex), st.integers(0, 2 ** 16 - 1))
outs = st.builds(OutputSpec, st.integers(0, MAX_AMOUNT), names)


@settings(max_examples=200, deadline=None)
@given(names, st.binary(max_size=40), st.lists(refs, max_size=3).map(tuple),
       st.integers(0, MAX_TIMELOCK), st.lists(outs, max_size=3).map(tuple))
def test_one_pass_digest_equals_the_piecewise_reference(name, salt, inputs, rel, outputs):
    assert tx_digest(name, salt, inputs, rel, outputs) == \
        reference_tx_digest(name, salt, inputs, rel, tuple(map(tuple, outputs)))


@settings(max_examples=200, deadline=None)
@given(names, st.binary(max_size=40), st.binary(min_size=32, max_size=32),
       st.integers(0, MAX_TIMELOCK), st.lists(outs, max_size=3).map(tuple),
       st.integers(0, MAX_AMOUNT), names)
def test_the_templates_fill_to_the_one_pass_digest(name, salt, raw, rel, outputs, value, payee):
    # What compilation hashes per node: a spend of one source's output 0,
    # filled in with the source's raw digest and the outputs.
    before, after = spend_template(name, salt, rel)
    assert spend_templates(salt, [(name, rel), ("", 0), (name, rel)]) == \
        [(before, after), spend_template("", salt, 0), (before, after)]
    assert hashlib.sha256(before + raw + after + encode_outputs(outputs)).hexdigest() == \
        tx_digest(name, salt, ((raw.hex(), 0),), rel, outputs)
    pay_before, pay_after = one_output_template(payee)
    assert pay_before + value.to_bytes(8, "big") + pay_after == \
        encode_outputs(((value, payee),))


WIDE = 2 ** 16
OK = ("T", SALT, ((SRC, 0),), 5, ((10, "A"),))


@pytest.mark.parametrize("field, value", [
    (0, "x" * WIDE), (0, "é" * (WIDE // 2)), (1, bytes(WIDE)),
    (2, ((SRC, 0),) * WIDE), (2, ((bytes(WIDE).hex(), 0),)), (2, ((SRC, WIDE),)),
    (2, ((SRC, -1),)), (3, 2 ** 32), (3, -1), (4, ((0, "A"),) * WIDE),
    (4, ((MAX_AMOUNT + 1, "A"),)), (4, ((-1, "A"),)), (4, ((10, "b" * WIDE),)),
], ids=["name", "name-non-ascii", "salt", "input-count", "input-digest", "input-index",
        "input-index-negative", "timelock", "timelock-negative", "output-count", "value",
        "value-negative", "beneficiary"])
def test_one_past_each_limit_overflows_in_both(field, value):
    args = list(OK)
    args[field] = value
    for digest in (tx_digest, reference_tx_digest):
        with pytest.raises(OverflowError):
            digest(*args)


class TestSignatures:
    def test_verify_binds_to_digest(self):
        sig = sign("A", "00" * 32)
        assert verify(sig, "00" * 32)
        assert not verify(sig, "11" * 32)

    def test_roles_are_distinct_authorizations(self):
        store = SignatureStore()
        store.add("A", "aa", IMPLICIT)
        assert store.has("A", "aa", IMPLICIT)
        assert not store.has("A", "aa", EDGE)
        store.add("A", "aa", EDGE)
        assert store.signers("aa", EDGE) == {"A"}
        assert store.signers("aa", IMPLICIT) == {"A"}

    def test_store_accumulates(self):
        store = SignatureStore()
        for signer in ("A", "B", "C"):
            store.add(signer, "aa")
        store.add("A", "aa", IMPLICIT)  # duplicates collapse
        assert store.signers("aa") == {"A", "B", "C"}
        assert store.signers("bb") == set()
        assert not store.has("A", "bb")


class TestCommitments:
    def test_reveal_round_trip(self):
        commitments = CommitmentSet([("W1", "oracle"), ("SA", "A")], seed=3)
        reveal = commitments.reveal("W1")
        assert check_reveal(reveal)
        assert reveal.commitment.label == "W1"
        assert commitments.owner("SA") == "A"
        assert "SA" in commitments and "W1" in commitments and "W2" not in commitments

    def test_wrong_preimage_fails(self):
        commitments = CommitmentSet([("W1", "oracle")], seed=3)
        reveal = commitments.reveal("W1")
        forged = Reveal(reveal.commitment, reveal.preimage + b"x")
        assert not check_reveal(forged)

    def test_same_seed_reproduces_commitments(self):
        one = CommitmentSet([("W1", "oracle")], seed=5)
        two = CommitmentSet([("W1", "oracle")], seed=5)
        assert one["W1"] == two["W1"]

    def test_different_seed_changes_commitments(self):
        one = CommitmentSet([("W1", "oracle")], seed=5)
        two = CommitmentSet([("W1", "oracle")], seed=6)
        assert one["W1"].hash_hex != two["W1"].hash_hex

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            CommitmentSet([("W1", "oracle"), ("W1", "A")], seed=1)

    def test_commit_binds_owner_and_label(self):
        c = commit("lbl", b"n" * 16, "A")
        assert c.label == "lbl" and c.owner == "A"
