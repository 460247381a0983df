"""Direct on-chain execution: compilation, stipulation exchange, stepping."""

import dataclasses

import pytest

from graftsim.contract import CONTINUATION, MAX_TIMELOCK, SecretDecl, iter_preorder
from graftsim.harness import MODE_ONCHAIN, Scenario, run
from graftsim.ledger import MissingSignature
from graftsim.onchain import (
    ABORTED,
    FINALIZED,
    OnchainSession,
    ProtocolError,
    RUNNING,
    compile_onchain,
    make_deposits,
    tree_parts,
)
from graftsim.trace import (
    SECRET_PUBLISHED,
    SIGNATURE_SENT,
    STEP_AGREED,
    STEP_PROPOSED,
    STEP_REFUSED,
    STIPULATION_ABORTED,
    STIPULATION_COMPLETE,
    Trace,
    TXSET_SENT,
)
from graftsim.treegen import chain_tree, complete_binary_tree, random_tree
from graftsim.witness import CommitmentSet, scenario_salt

from drivers import (
    burst_of,
    deliver_one,
    instances_by_landing,
    next_for,
    plan_of,
    spend_template,
    stipulate,
    subtree_heights_by_preorder,
)


def commitments_for(tree, seed=1):
    return CommitmentSet([(s.label, s.owner) for s in tree.secrets], seed)


def compiled_instances(tree, salt):
    """Every instance of ``compile_onchain``, as a session builds it on
    landing each node; the compilation's deposits are ``make_deposits``'."""
    comp = compile_onchain(tree, commitments_for(tree), salt)
    assert comp.deposits == make_deposits(tree, salt)
    return instances_by_landing(comp.parts, comp.root, comp.digests)


def session_for(tree, seed=1):
    salt = scenario_salt(seed, "onchain")
    return OnchainSession(compile_onchain(tree, commitments_for(tree, seed), salt),
                          Trace({"label": "test"}))


def by_name(tree):
    return {tree.node(i).name: i for i in iter_preorder(tree)}


def renamed_and_waiting(tree):
    """``tree`` with non-ASCII node names, and waits of 0 and
    ``MAX_TIMELOCK`` on alternate non-root nodes."""
    nodes = {}
    for i, (node_id, node) in enumerate(tree.nodes.items()):
        edge = node.edge if node_id == tree.root else \
            dataclasses.replace(node.edge, wait=(0, MAX_TIMELOCK)[i % 2])
        nodes[node_id] = dataclasses.replace(node, name=f"{node.name}\u00e9\u4e2d\U0001F600",
                                             edge=edge)
    return dataclasses.replace(tree, nodes=nodes)


PART_TREES = {"chain": chain_tree(9), "binary": complete_binary_tree(4),
              "random7": random_tree(7)[0], "random11": random_tree(11)[0], "bo3": None}


@pytest.mark.parametrize("name", PART_TREES)
@pytest.mark.parametrize("renamed", [False, True], ids=["as-built", "renamed"])
def test_tree_parts_equal_the_per_node_reference(name, renamed, bo3_tree):
    tree = PART_TREES[name] or bo3_tree
    if renamed:
        tree = renamed_and_waiting(tree)
        assert {0, MAX_TIMELOCK} <= {node.edge.wait for node in tree.nodes.values()}
    commitments, salt = commitments_for(tree), scenario_salt(5, "onchain")
    parts = tree_parts(tree, commitments, salt)
    assert parts.nodes == {node_id: spend_template(node.name, salt, node.edge.wait)
                           for node_id, node in tree.nodes.items()}
    assert {node_id: parts.reveals(node_id) for node_id in tree.nodes} == {
        node_id: frozenset(commitments[label] for label in node.edge.reveals)
        for node_id, node in tree.nodes.items()}
    assert parts.heights == subtree_heights_by_preorder(tree)


class TestCompilation:
    def test_edge_requirements_become_instance_fields(self, three_party):
        instances = compiled_instances(three_party, scenario_salt(1, "onchain"))
        named = {three_party.node(i).name: inst for i, inst in instances.items()}
        assert named["T1"].rel_timelock == 5
        assert named["T5"].rel_timelock == 10
        assert named["T2"].edge_signers == frozenset({"B"})
        assert {c.label for c in named["T2"].required_reveals} == {"SA"}
        assert named["T3"].edge_signers == frozenset({"C"})
        assert named["T4"].edge_signers == frozenset({"A", "B"})

    def test_every_instance_requires_all_participants(self, three_party):
        instances = compiled_instances(three_party, scenario_salt(1, "onchain"))
        for inst in instances.values():
            assert inst.required_signers == frozenset({"A", "B", "C"})

    def test_root_spends_all_deposits(self, three_party):
        salt = scenario_salt(1, "onchain")
        deposits = make_deposits(three_party, salt)
        instances = compiled_instances(three_party, salt)
        root = instances[three_party.root]
        assert set(root.inputs) == {(d.digest, 0) for d in deposits.values()}
        assert root.outputs[0].beneficiary == CONTINUATION
        assert root.outputs[0].value == 29  # 30 deposited, one fee burned

    def test_children_spend_parent_continuation(self, three_party):
        instances = compiled_instances(three_party, scenario_salt(1, "onchain"))
        ids = by_name(three_party)
        parent = instances[ids["T2"]]
        child = instances[ids["T4"]]
        assert child.inputs == ((parent.digest, 0),)

    def test_leaf_payouts_split_the_remaining_balance(self, three_party):
        instances = compiled_instances(three_party, scenario_salt(1, "onchain"))
        ids = by_name(three_party)
        t1 = instances[ids["T1"]]  # depth 1: balance 28, thirds, A gets remainder
        assert [(o.value, o.beneficiary) for o in t1.outputs] == \
            [(28 - 9 - 9, "A"), (9, "B"), (9, "C")]
        t4 = instances[ids["T4"]]  # depth 2: balance 27, halves
        assert [(o.value, o.beneficiary) for o in t4.outputs] == \
            [(14, "A"), (13, "B")]

    def test_different_salts_give_disjoint_digests(self, three_party):
        one = compile_onchain(three_party, commitments_for(three_party),
                              scenario_salt(1, "onchain"))
        two = compile_onchain(three_party, commitments_for(three_party),
                              scenario_salt(2, "onchain"))
        assert set(one.digests.values()).isdisjoint(two.digests.values())


class TestExchangePlan:
    def test_three_party_message_counts(self, three_party):
        session = session_for(three_party)
        messages = plan_of(session.stipulation)
        assert len(messages) == 42
        assert sum(1 for m in messages if m.kind == "txset") == 6
        assert sum(1 for m in messages if m.kind == "sig" and m.phase == 1) == 30
        assert sum(1 for m in messages if m.kind == "sig" and m.phase == 2) == 6

    def test_bet_contract_message_count(self, bo3_tree):
        session = session_for(bo3_tree)
        assert len(plan_of(session.stipulation)) == 32  # 2 txsets + 28 body + 2 root

    def test_phase_gating_blocks_final_signatures(self, three_party):
        exchange = session_for(three_party).stipulation
        plan = plan_of(exchange)
        # Everyone sends all it can, one message at a time, except that C
        # withholds its last phase-1 message.
        held = "C"
        before_final = sum(1 for m in plan if m.sender == held and m.phase < 2)
        while any(deliver_one(exchange, p) for p in three_party.participants
                  if p != held or exchange.sent[p] < before_final - 1):
            pass
        for sender in three_party.participants:
            mine = [m for m in plan if m.sender == sender]
            if sender == held:
                assert next_for(exchange, sender) == mine[before_final - 1]
                assert mine[before_final - 1].phase == 1
                assert exchange.owes(sender)
            else:  # every body message out, the final signatures still gated
                assert exchange.sent[sender] == sum(1 for m in mine if m.phase < 2)
                assert next_for(exchange, sender) is None
                assert not exchange.owes(sender)
        assert exchange.first_blocker() == held
        assert deliver_one(exchange, held).phase == 1
        assert all(next_for(exchange, p).phase == 2 for p in three_party.participants)
        # Now every phase is open to C: its burst is all its final signatures.
        assert burst_of(exchange, held) == [m for m in plan
                                            if m.sender == held and m.phase == 2]
        assert next_for(exchange, held) is None and not exchange.owes(held)

    def test_deliver_with_nothing_open_returns_none(self, three_party):
        exchange = session_for(three_party).stipulation
        # A's transaction sets; its signatures wait for B's and C's.
        assert burst_of(exchange, "A") == plan_of(exchange)[:2]
        assert exchange.sent == {"A": 2, "B": 0, "C": 0}
        assert burst_of(exchange, "A") == [] and burst_of(exchange, "Z") == []
        assert exchange.sent == {"A": 2, "B": 0, "C": 0}
        assert next_for(exchange, "A") is None and exchange.pending_from_others("A")
        assert not exchange.owes("A")
        while any(exchange.deliver(p) for p in three_party.participants):
            pass
        assert exchange.complete and not exchange.pending_from_others("A")
        sent = dict(exchange.sent)
        assert all(burst_of(exchange, p) == [] for p in three_party.participants)
        assert exchange.sent == sent

    def test_a_burst_runs_to_the_lowest_phase_among_the_others(self, three_party):
        exchange = session_for(three_party).stipulation
        mine = {p: [m for m in plan_of(exchange) if m.sender == p]
                for p in three_party.participants}
        assert burst_of(exchange, "A") == [m for m in mine["A"] if m.phase == 0]
        assert burst_of(exchange, "B") == [m for m in mine["B"] if m.phase == 0]
        # Everyone else's next message is in phase 1: C sends through it.
        assert burst_of(exchange, "C") == [m for m in mine["C"] if m.phase < 2]
        assert burst_of(exchange, "A") == [m for m in mine["A"] if m.phase == 1]
        # B alone holds up phase 2, so B sends everything it has left.
        assert burst_of(exchange, "B") == [m for m in mine["B"] if m.phase > 0]
        assert burst_of(exchange, "C") == [m for m in mine["C"] if m.phase == 2]
        assert burst_of(exchange, "A") == [m for m in mine["A"] if m.phase == 2]
        assert exchange.complete

    def test_first_blocker_names_lowest_phase_holdout(self, three_party):
        exchange = session_for(three_party).stipulation
        plan = plan_of(exchange)
        for m in plan:
            if m.phase == 0:
                assert deliver_one(exchange, m.sender) == m
        first_body = next(m for m in plan if m.phase == 1)
        assert exchange.first_blocker() == first_body.sender


class TestStipulation:
    def test_full_run_lands_the_root(self, three_party):
        session = session_for(three_party)
        assert stipulate(session) is True
        assert session.phase == RUNNING
        assert session.anchor.digest in session.chain.appended
        assert session.trace.count(STIPULATION_COMPLETE) == 1
        # deposits are spent into the root
        for dep in session.deposits.values():
            assert not session.chain.is_unspent((dep.digest, 0))

    def test_withholding_any_message_leaves_deposits_untouched(self, three_party):
        session = session_for(three_party)
        assert stipulate(session, withhold_at=17) is False
        assert session.phase == ABORTED
        assert session.chain.non_deposit_count() == 0
        for dep in session.deposits.values():
            assert session.chain.is_unspent((dep.digest, 0))
        assert session.trace.count(STIPULATION_ABORTED) == 1

    def test_root_not_appendable_midway(self, three_party):
        session = session_for(three_party)
        session.stipulation.deliver("A")
        assert not session.anchor_appendable("A")
        error = session.append_anchor("A")
        assert isinstance(error, MissingSignature)
        assert error.role == "implicit"

    def test_message_census_equals_two_per_instance_pair(self, bo3_tree):
        session = session_for(bo3_tree)
        stipulate(session)
        assert session.trace.count(SIGNATURE_SENT) == 30  # 2 * 15 instances
        assert session.trace.count(TXSET_SENT) == 2


class TestStepping:
    def test_step_requires_published_edge_material(self, three_party):
        session = session_for(three_party)
        stipulate(session)
        ids = by_name(three_party)
        tx = session.ahead[ids["T3"]]
        error = session.append_child("A", ids["T3"])
        assert isinstance(error, MissingSignature)
        assert (error.signer, error.role) == ("C", "edge")
        session.publish_edge_auth(tx.digest, "C")
        assert session.append_child("A", ids["T3"]) is None
        assert session.phase == FINALIZED

    def test_step_rejects_non_child(self, three_party):
        session = session_for(three_party)
        stipulate(session)
        ids = by_name(three_party)
        with pytest.raises(ProtocolError):
            session.append_child("A", ids["T4"])  # grandchild of the current node

    def test_owner_supplies_own_reveal(self, three_party):
        session = session_for(three_party)
        stipulate(session)
        ids = by_name(three_party)
        session.publish_edge_auth(session.digests[ids["T2"]], "B")
        # actor A owns SA, so no published reveal is needed
        assert session.append_child("A", ids["T2"]) is None

    def test_timelocked_leaf_waits(self, three_party):
        session = session_for(three_party)
        stipulate(session)
        ids = by_name(three_party)
        error = session.append_child("A", ids["T1"])
        assert error is not None and error.code == "TimelockNotExpired"
        session.chain.tick(5)
        assert session.append_child("A", ids["T1"]) is None


class TestStepAgreement:
    def test_step_signers_are_authorizers_and_secret_owners(self, three_party):
        session = session_for(three_party)
        ids = by_name(three_party)
        assert session.step_signers(ids["T2"]) == {"A", "B"}  # A owns SA, B authorizes
        assert session.step_signers(ids["T3"]) == {"C"}
        assert session.step_signers(ids["T1"]) == set()  # a bare timelock

    def test_edge_satisfiable_follows_the_chain_and_the_agreement(self, three_party):
        session = session_for(three_party)
        ids = by_name(three_party)
        t2, t4, t5 = ids["T2"], ids["T4"], ids["T5"]
        assert not session.edge_satisfiable(t2)  # the root is not on-chain yet
        stipulate(session)
        assert session.edge_satisfiable(t2) and session.edge_satisfiable(ids["T3"])
        assert not session.edge_satisfiable(ids["T1"])  # nobody has to agree
        assert not session.edge_satisfiable(t4)  # T2 is not on-chain yet
        session.agree_step(t2, session.step_signers(t2))
        assert not session.edge_satisfiable(t2)  # agreed once, appended next
        assert [e.data["label"] for e in session.trace.find(SECRET_PUBLISHED)] == ["SA"]
        assert session.edge_pool[session.digests[t2]] == {"B"}
        assert session.append_child("C", t2) is None  # C holds neither SA nor B's auth
        assert session.edge_satisfiable(t4)

    def test_a_timelock_alone_is_appended_not_agreed(self, three_party):
        session = session_for(three_party)
        stipulate(session)
        ids = by_name(three_party)
        session.agree_step(ids["T2"], {"A", "B"})
        assert session.append_child("A", ids["T2"]) is None
        t5 = ids["T5"]
        assert not session.edge_satisfiable(t5) and not session.child_ready("A", t5)
        session.chain.tick(10)
        assert not session.edge_satisfiable(t5) and session.child_ready("A", t5)


class TestProposals:
    """Step agreement as the session keeps it: the open proposal, who owes
    an agreement, and the sticky refusal."""

    def test_proposer_agrees_at_once_and_a_non_signer_cannot(self, three_party):
        session = session_for(three_party)
        stipulate(session)
        t2 = by_name(three_party)["T2"]  # A owns SA, B authorizes
        assert session.propose("A", t2)
        assert session.proposal == ("A", t2)
        assert not session.owes_agreement("A") and session.owes_agreement("B")
        assert not session.owes_agreement("C")
        assert not session.agree("C") and not session.agree("A")
        assert session.agree("B")
        assert session.proposal is None and t2 in session.agreed_steps
        kinds = [e.kind for e in session.trace.events
                 if e.kind in (STEP_PROPOSED, STEP_AGREED, SECRET_PUBLISHED)]
        assert kinds == [STEP_PROPOSED, STEP_AGREED, SECRET_PUBLISHED]

    def test_a_sole_signer_proposal_is_agreed_on_the_spot(self, three_party):
        session = session_for(three_party)
        stipulate(session)
        t3 = by_name(three_party)["T3"]
        assert session.step_signers(t3) == {"C"}
        assert session.propose("C", t3)
        assert session.proposal is None and t3 in session.agreed_steps
        assert session.edge_pool[session.digests[t3]] == {"C"}

    def test_others_owe_while_the_agreement_waits(self, three_party):
        session = session_for(three_party)
        stipulate(session)
        t2 = by_name(three_party)["T2"]
        assert not any(session.others_owe(p) for p in "ABC")
        session.propose("C", t2)  # C need not agree, but has
        assert session.others_owe("C")
        assert not session.others_owe("A") and not session.others_owe("B")
        session.agree("A")
        assert session.others_owe("A") and session.others_owe("C")
        session.agree("B")
        assert not any(session.others_owe(p) for p in "ABC")

    def test_refusal_closes_the_proposal_and_sticks(self, three_party):
        session = session_for(three_party)
        stipulate(session)
        ids = by_name(three_party)
        assert not session.refuse("B")  # nothing to refuse
        assert session.propose("A", ids["T2"])
        assert session.refuse("B")
        assert session.proposal is None and session.step_refused
        assert session.trace.events[-1].kind == STEP_REFUSED
        assert session.trace.events[-1].data == {"child": "T2"}
        assert session.propose("C", ids["T3"])  # a later step still goes through
        assert ids["T3"] in session.agreed_steps and session.step_refused

    def test_proposals_need_a_running_session_and_no_open_proposal(self, three_party):
        session = session_for(three_party)
        ids = by_name(three_party)
        assert not session.propose("A", ids["T2"])  # still stipulating
        stipulate(session)
        assert not session.propose("A", None)
        assert not session.propose("A", ids["T4"])  # a grandchild of the root
        assert session.propose("A", ids["T2"])
        assert not session.propose("C", ids["T3"])
        assert session.proposal == ("A", ids["T2"])
        assert [e.kind for e in session.trace.events].count(STEP_PROPOSED) == 1

    def test_a_step_waits_for_its_oracle_secret(self, three_party):
        # B authorizes T2, and the oracle, not A, now holds its secret.
        tree = dataclasses.replace(three_party, secrets=(SecretDecl("SA", "oracle"),))
        session = session_for(tree)
        stipulate(session)
        t2 = by_name(tree)["T2"]
        assert session.step_signers(t2) == {"B"}
        assert not session.propose("B", t2)
        assert session.proposal is None and session.trace.count(STEP_PROPOSED) == 0
        session.publish_reveal(session.commitments.reveal("SA"))
        assert session.propose("B", t2)
        assert t2 in session.agreed_steps and session.trace.count(STEP_PROPOSED) == 1

    def test_onchain_defaults(self, three_party):
        session = session_for(three_party)
        assert session.step_origin is None
        assert (session.steps_sealed, session.pending_graft, session.latest_sealed) == \
            (0, None, None)
        stipulate(session)
        assert session.step_origin == three_party.root
        for move in (session.trigger_failsafe, session.append_init):
            with pytest.raises(ProtocolError):
                move("A")
        for index in (None, 0):
            with pytest.raises(ProtocolError):
                session.append_graft("A", index)


class TestBaselineDriver:
    """All-honest on-chain ``run`` checks.  The separate baseline driver
    these tests once exercised is gone: this ``run`` is the baseline."""

    @staticmethod
    def honest_onchain_run(tree, path, oracle=(), seed=0):
        return run(Scenario(
            label="onchain-baseline", tree=tree, mode=MODE_ONCHAIN,
            strategies={p: ("honest", {}) for p in tree.participants},
            path=tuple(path), oracle=tuple(oracle), seed=seed))

    def test_bet_contract_full_descent(self, bo3_tree):
        trace = self.honest_onchain_run(
            bo3_tree, ["Bet", "L??", "LW?", "LWL"],
            oracle=((2, "L1"), (4, "W2"), (6, "L3")), seed=0)
        assert trace.summary["outcome"] == "leaf"
        assert trace.summary["onchain_tx_count"] == 4
        assert trace.summary["completion_height"] == 6
        assert trace.summary["payouts"] == {"B": 96}
        heights = [h for _, _, h, _ in trace.summary["appended"]]
        assert heights == sorted(heights)

    def test_authorization_path(self, three_party):
        trace = self.honest_onchain_run(three_party, ["T0", "T2", "T4"], seed=1)
        assert trace.summary["outcome"] == "leaf"
        assert trace.summary["onchain_tx_count"] == 3
        assert trace.summary["payouts"] == {"A": 14, "B": 13}

    def test_single_node_contract(self):
        from graftsim.treegen import chain_tree
        tree = chain_tree(1)
        trace = self.honest_onchain_run(tree, ["N1"], seed=0)
        assert trace.summary["onchain_tx_count"] == 1
        assert trace.summary["outcome"] == "leaf"
        assert trace.count(SIGNATURE_SENT) == 2
