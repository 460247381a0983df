"""Chain rules: append validation order, timelocks, value conservation."""

from dataclasses import is_dataclass

import pytest
from hypothesis import given, settings, strategies as st

from graftsim.contract import OutputSpec
from graftsim.ledger import (
    AppendWitness,
    ChainState,
    EMPTY_WITNESS,
    MissingInput,
    MissingReveal,
    MissingSignature,
    TimelockNotExpired,
    ValueMismatch,
    make_tx,
)
from graftsim.trace import DEPOSIT, Event
from graftsim.witness import (
    CommitmentSet,
    EDGE,
    IMPLICIT,
    Reveal,
    SecretCommitment,
    Signature,
    scenario_salt,
    sign,
)

from drivers import Message, check_by_scan

SALT = scenario_salt(11)


def deposit(name="Dep_A", value=20):
    return make_tx(name, SALT, inputs=(), rel_timelock=0,
                   outputs=(OutputSpec(value, "A"),))


def witness_for(tx, signers=("A", "B"), edge=(), reveals=()):
    sigs = frozenset({sign(s, tx.digest, IMPLICIT) for s in signers}
                     | {sign(s, tx.digest, EDGE) for s in edge})
    return AppendWitness(signatures=sigs, reveals=frozenset(reveals))


COMMITMENTS = CommitmentSet([("S", "oracle"), ("T", "A")], seed=1)


@pytest.mark.parametrize("record", [
    Event(0, "A", DEPOSIT, {"value": 20}),
    Message("A", "B", "sig", "Dep_A", "aa", 1),
    deposit(),
    OutputSpec(20, "A"),
    sign("A", "aa"),
    COMMITMENTS["S"],
    COMMITMENTS.reveal("S"),
    AppendWitness(frozenset({sign("A", "aa")}), frozenset({COMMITMENTS.reveal("S")})),
], ids=lambda record: type(record).__name__)
def test_records_are_immutable_tuples(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    assert record == tuple(record) and not is_dataclass(record)


def test_witness_records_hash_sort_and_build_as_their_fields():
    """A signature, commitment, reveal or witness hashes and sorts as the
    tuple of its fields, builds from keywords, and keeps its defaults."""
    sigs = [sign("B", "aa"), sign("A", "bb"), sign("A", "aa", EDGE), sign("A", "aa")]
    reveal = COMMITMENTS.reveal("T")
    for record in (*sigs, COMMITMENTS["S"], reveal, AppendWitness(frozenset(sigs))):
        assert hash(record) == hash(tuple(record))
    assert sorted(sigs) == sorted(sigs, key=tuple) == [
        sign("A", "aa", EDGE), sign("A", "aa"), sign("A", "bb"), sign("B", "aa")]
    assert sorted(COMMITMENTS[label] for label in "TS") == [COMMITMENTS["S"], COMMITMENTS["T"]]
    assert Signature(signer="A", digest="aa", role=EDGE) == ("A", "aa", EDGE)
    commitment = SecretCommitment(label="T", hash_hex=reveal.commitment.hash_hex, owner="A")
    assert Reveal(commitment=commitment, preimage=reveal.preimage) == reveal
    assert AppendWitness(reveals=frozenset({reveal})).signatures == frozenset()
    assert sign("A", "aa").role == IMPLICIT and Signature("A", "aa").role == IMPLICIT
    assert AppendWitness() == EMPTY_WITNESS == (frozenset(), frozenset())


SIGNERS = ("A", "B", "C")
WRONG_DIGEST = "ff" * 32


def _owed(tx):
    """Every signature ``tx`` requires, in both roles."""
    return ([sign(s, tx.digest) for s in tx.required_signers]
            + [sign(s, tx.digest, EDGE) for s in tx.edge_signers])


@settings(max_examples=300, deadline=None)
@given(required=st.frozensets(st.sampled_from(SIGNERS)),
       edge=st.frozensets(st.sampled_from(SIGNERS)),
       owed=st.booleans(),
       signed=st.frozensets(st.tuples(st.sampled_from(SIGNERS + ("X",)), st.booleans(),
                                      st.sampled_from((IMPLICIT, EDGE)))),
       reveals=st.dictionaries(st.sampled_from("ST"), st.sampled_from(("none", "right", "wrong"))),
       source=st.sampled_from(("unspent", "unspent", "unspent", "missing", "appended")),
       rel=st.integers(0, 2), ticks=st.integers(0, 2), value=st.sampled_from((19, 20)))
def test_check_reports_the_first_error_of_a_scan(required, edge, owed, signed, reveals, source,
                                                 rel, ticks, value):
    """Over drawn signer sets and witnesses (every owed signature or not,
    plus signatures of strangers, on another digest or in the other role,
    and right, wrong or no reveals), ``ChainState.check`` reports the
    error ``check_by_scan`` does, with the same effect on ``next_flip``."""
    chains = [ChainState(fee=1) for _ in range(2)]
    dep = deposit()
    tx = make_tx("T1", SALT, inputs=(("00" * 32 if source == "missing" else dep.digest, 0),),
                 rel_timelock=rel, required_signers=required, edge_signers=edge,
                 required_reveals=frozenset(COMMITMENTS[label] for label in reveals),
                 outputs=(OutputSpec(value, "A"),))
    sigs = {sign(s, tx.digest if right else WRONG_DIGEST, role) for s, right, role in signed}
    witness = AppendWitness(
        frozenset(sigs.union(_owed(tx)) if owed else sigs),
        frozenset(COMMITMENTS.reveal(label) if how == "right" else
                  Reveal(COMMITMENTS[label], COMMITMENTS.reveal(label).preimage + b"x")
                  for label, how in reveals.items() if how != "none"))
    for chain in chains:
        assert chain.try_append(dep) is None
        chain.tick(ticks)
        if source == "appended":
            chain.try_append(tx, AppendWitness(frozenset(_owed(tx)), frozenset(
                COMMITMENTS.reveal(label) for label in reveals)))
    assert chains[0].check(tx, witness) == check_by_scan(chains[1], tx, witness)
    assert chains[0].next_flip == chains[1].next_flip
    assert chains[0].check(dep) == check_by_scan(chains[1], dep, EMPTY_WITNESS)


class TestAppendRules:
    def setup_method(self):
        self.chain = ChainState(fee=1)
        self.dep = deposit()
        assert self.chain.try_append(self.dep) is None

    def spend(self, name="T1", rel=0, value=19, signers=frozenset({"A", "B"}),
              edge=frozenset(), reveals=frozenset()):
        return make_tx(name, SALT, inputs=((self.dep.digest, 0),),
                       rel_timelock=rel, required_signers=signers,
                       edge_signers=edge, required_reveals=reveals,
                       outputs=(OutputSpec(value, "A"),))

    def test_deposit_skips_input_and_value_rules(self):
        assert self.chain.deposit_total() == 20
        assert self.chain.is_unspent((self.dep.digest, 0))

    def test_successful_spend(self):
        tx = self.spend()
        assert self.chain.try_append(tx, witness_for(tx)) is None
        assert not self.chain.is_unspent((self.dep.digest, 0))
        assert self.chain.is_unspent((tx.digest, 0))
        assert self.chain.conservation_holds()

    def test_missing_input(self):
        tx = make_tx("T1", SALT, inputs=(("00" * 32, 0),), rel_timelock=0,
                     outputs=(OutputSpec(5, "A"),))
        error = self.chain.try_append(tx, EMPTY_WITNESS)
        assert isinstance(error, MissingInput)
        assert error.code == "MissingInput"

    def test_double_spend_rejected(self):
        tx = self.spend()
        assert self.chain.try_append(tx, witness_for(tx)) is None
        rival = self.spend(name="T2")
        assert isinstance(self.chain.try_append(rival, witness_for(rival)),
                          MissingInput)

    def test_missing_implicit_signature(self):
        tx = self.spend()
        error = self.chain.try_append(tx, witness_for(tx, signers=("A",)))
        assert isinstance(error, MissingSignature)
        assert (error.signer, error.role) == ("B", IMPLICIT)

    def test_missing_edge_signature(self):
        tx = self.spend(edge=frozenset({"B"}))
        error = self.chain.try_append(tx, witness_for(tx))  # implicit only
        assert isinstance(error, MissingSignature)
        assert (error.signer, error.role) == ("B", EDGE)

    def test_implicit_signature_does_not_count_as_edge(self):
        tx = self.spend(edge=frozenset({"A"}))
        witness = witness_for(tx, signers=("A", "B"))
        error = self.chain.try_append(tx, witness)
        assert isinstance(error, MissingSignature) and error.role == EDGE

    def test_signature_bound_to_other_digest_rejected(self):
        tx = self.spend()
        bad = AppendWitness(
            signatures=frozenset({sign("A", "ff" * 32), sign("B", tx.digest)}),
            reveals=frozenset())
        error = self.chain.try_append(tx, bad)
        assert isinstance(error, MissingSignature) and error.signer == "A"

    def test_missing_reveal(self):
        commitments = CommitmentSet([("S", "oracle")], seed=1)
        tx = self.spend(reveals=frozenset({commitments["S"]}))
        error = self.chain.try_append(tx, witness_for(tx))
        assert isinstance(error, MissingReveal)
        assert error.label == "S"

    def test_reveal_accepted(self):
        commitments = CommitmentSet([("S", "oracle")], seed=1)
        tx = self.spend(reveals=frozenset({commitments["S"]}))
        witness = witness_for(tx, reveals=(commitments.reveal("S"),))
        assert self.chain.try_append(tx, witness) is None

    def test_timelock_counts_from_source_height(self):
        tx = self.spend(rel=3)
        error = self.chain.try_append(tx, witness_for(tx))
        assert isinstance(error, TimelockNotExpired)
        assert error.needed_height == 3
        self.chain.tick(2)
        assert isinstance(self.chain.try_append(tx, witness_for(tx)),
                          TimelockNotExpired)
        self.chain.tick(1)
        assert self.chain.try_append(tx, witness_for(tx)) is None

    def test_enabled_at_uses_worst_input(self):
        tx = self.spend(rel=3)
        assert self.chain.enabled_at(tx) == 3
        self.chain.tick(5)
        other = deposit("Dep_B", 10)
        assert self.chain.try_append(other) is None
        both = make_tx("T2", SALT,
                       inputs=((self.dep.digest, 0), (other.digest, 0)),
                       rel_timelock=3, outputs=(OutputSpec(29, "A"),))
        # second input landed at height 5, so 5 + 3 dominates 0 + 3
        assert self.chain.enabled_at(both) == 8

    def test_an_appended_instance_cannot_be_appended_again(self):
        # A deposit has no input to spend twice: it names its own output.
        assert self.chain.check(self.dep) == MissingInput((self.dep.digest, 0))
        tx = self.spend()
        assert self.chain.try_append(tx, witness_for(tx)) is None
        assert self.chain.check(tx, witness_for(tx)) == MissingInput((self.dep.digest, 0))

    def test_a_deposit_is_enabled_from_the_start(self):
        self.chain.tick(4)
        assert self.chain.enabled_at(deposit("Dep_B", 10)) == 0
        assert self.chain.enabled_at(self.dep) == 0

    def test_value_mismatch(self):
        tx = self.spend(value=20)  # forgets the fee
        error = self.chain.try_append(tx, witness_for(tx))
        assert isinstance(error, ValueMismatch)
        assert (error.expected, error.got) == (19, 20)

    def test_rule_order_inputs_before_signatures(self):
        tx = make_tx("T1", SALT, inputs=(("00" * 32, 0),), rel_timelock=0,
                     required_signers=frozenset({"A"}), outputs=(OutputSpec(5, "A"),))
        assert isinstance(self.chain.try_append(tx, EMPTY_WITNESS), MissingInput)

    def test_rule_order_signatures_before_timelock(self):
        tx = self.spend(rel=99)
        assert isinstance(self.chain.try_append(tx, EMPTY_WITNESS), MissingSignature)

    def test_rule_order_timelock_before_value(self):
        tx = self.spend(rel=99, value=500)
        assert isinstance(self.chain.try_append(tx, witness_for(tx)),
                          TimelockNotExpired)


class TestAccounting:
    def test_conservation_over_a_chain_of_spends(self):
        chain = ChainState(fee=2)
        dep = deposit(value=30)
        assert chain.try_append(dep) is None
        prev, value = dep, 30
        for i in range(3):
            value -= 2
            tx = make_tx(f"T{i}", SALT, inputs=((prev.digest, 0),),
                         rel_timelock=0, outputs=(OutputSpec(value, "A"),))
            assert chain.try_append(tx, EMPTY_WITNESS) is None
            prev = tx
        assert chain.non_deposit_count() == 3
        assert chain.utxo_total() == 24
        assert chain.conservation_holds()
        assert chain.participant_utxo_values() == {"A": 24}

    def test_snapshot_is_order_insensitive(self):
        chain = ChainState(fee=1)
        for name in ("Dep_B", "Dep_A"):
            assert chain.try_append(deposit(name)) is None
        snap = chain.snapshot()
        assert snap["height"] == 0
        assert len(snap["appended"]) == 2
        assert snap["utxos"] == sorted(snap["utxos"])
