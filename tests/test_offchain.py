"""Off-chain execution: anchors, grafts, timelock ladder, failsafe."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from graftsim.contract import (
    CONTINUATION,
    iter_preorder,
    load_contract_file,
    resolve_path,
)
from graftsim.harness import bundled_data_dir, load_scenario, run
from graftsim.ledger import MissingInput, MissingSignature, TimelockNotExpired
from graftsim.offchain import compile_offchain
from graftsim.onchain import FAILSAFE, FINALIZED, ROLE_GRAFT_ROOT, ProtocolError, RUNNING
from graftsim import strategies
from graftsim.strategies import AGREE, TARGET_INIT, Action, _cooperates_until_running, honest
from graftsim.trace import (
    APPEND,
    FAILSAFE_TRIGGERED,
    GRAFT_SEALED,
    INIT_APPENDED,
    OUTCOME_LEAF,
    SIGNATURE_SENT,
    STEP_AGREED,
    STEP_PROPOSED,
    TXSET_SENT,
)
from graftsim.treegen import chain_tree, complete_binary_tree, random_tree
from graftsim.witness import CommitmentSet, scenario_salt

from drivers import (
    subtree_height,
    finalize,
    instances_by_landing,
    offchain_step,
    plan_of,
    start_offchain,
    stipulate,
    strategies_added,
)


BO3_PATH = ["Bet", "L??", "LW?", "LWL"]


def ids_by_name(tree):
    return {tree.node(i).name: i for i in iter_preorder(tree)}


def reveal_oracle(session, *labels):
    for label in labels:
        session.publish_reveal(session.commitments.reveal(label))


class TestCompilation:
    def test_anchor_chain(self, bo3_tree):
        commitments = CommitmentSet([(s.label, s.owner) for s in bo3_tree.secrets], 0)
        comp = compile_offchain(bo3_tree, commitments, scenario_salt(0, "offchain"), t=2)
        assert set(comp.anchor.inputs) == {(d.digest, 0) for d in comp.deposits.values()}
        assert [(o.value, o.beneficiary) for o in comp.anchor.outputs] == [(99, CONTINUATION)]
        assert comp.init.inputs == ((comp.anchor.digest, 0),)
        assert [(o.value, o.beneficiary) for o in comp.init.outputs] == [(98, CONTINUATION)]
        assert comp.init.rel_timelock == 0

    def test_shadow_root_spends_init_under_full_height_timelock(self, bo3_tree):
        commitments = CommitmentSet([(s.label, s.owner) for s in bo3_tree.secrets], 0)
        comp = compile_offchain(bo3_tree, commitments, scenario_salt(0, "offchain"), t=2)
        shadow_root = comp.shadow_root
        assert comp.digests[bo3_tree.root] == shadow_root.digest
        assert shadow_root.inputs == ((comp.init.digest, 0),)
        assert shadow_root.rel_timelock == subtree_height(bo3_tree, bo3_tree.root) * 2 == 6

    def test_rejects_degenerate_timelock_unit(self, bo3_tree):
        commitments = CommitmentSet([(s.label, s.owner) for s in bo3_tree.secrets], 0)
        with pytest.raises(ProtocolError):
            compile_offchain(bo3_tree, commitments, scenario_salt(0, "offchain"), t=0)


class TestStipulation:
    def test_message_plan_counts(self, bo3_tree):
        session = start_offchain(bo3_tree, seed=0, t=2)
        messages = plan_of(session.stipulation)
        assert len(messages) == 36
        assert sum(1 for m in messages if m.kind == "txset") == 2
        # body covers Init plus every shadow instance, in both directions
        assert sum(1 for m in messages if m.kind == "sig" and m.phase == 1) == 32
        assert sum(1 for m in messages if m.subject == "Head") == 2

    def test_completion_seals_the_shadow(self, bo3_tree):
        session = start_offchain(bo3_tree, seed=0, t=2)
        assert stipulate(session) is True
        assert session.phase == RUNNING
        assert session.anchor.digest in session.chain.appended
        assert session.init.digest not in session.chain.appended
        assert session.ladder == [session.shadow] and session.latest_sealed is session.shadow
        sealed = session.trace.find(GRAFT_SEALED)
        assert len(sealed) == 1
        assert sealed[0].data["index"] == 0 and sealed[0].data["origin"] == "Bet"
        assert session.trace.count(SIGNATURE_SENT) == 34
        assert session.trace.count(TXSET_SENT) == 2

    def test_withholding_keeps_deposits_unspent(self, bo3_tree):
        session = start_offchain(bo3_tree, seed=0, t=2)
        assert stipulate(session, withhold_at=20) is False
        assert session.chain.non_deposit_count() == 0
        for dep in session.deposits.values():
            assert session.chain.is_unspent((dep.digest, 0))

    def test_init_refused_before_head(self, bo3_tree):
        session = start_offchain(bo3_tree, seed=0, t=2)
        with pytest.raises(ProtocolError):
            session.append_init("A")


class TestGrafts:
    def test_timelock_ladder_strictly_decreases(self, bo3_tree):
        for t in (1, 2, 5):
            session = start_offchain(bo3_tree, seed=0, t=t)
            stipulate(session)
            ids = ids_by_name(bo3_tree)
            expected = [3 * t, 2 * t, 1 * t, 0]
            for name, label in (("L??", "L1"), ("LW?", "W2"), ("LWL", "L3")):
                reveal_oracle(session, label)
                offchain_step(session, ids[name])
            assert [g.index for g in session.ladder] == [0, 1, 2, 3]
            locks = [g.root_instance.rel_timelock for g in session.ladder]
            assert locks == expected
            assert all(a > b for a, b in zip(locks, locks[1:]))

    def test_graft_copies_keyed_by_original_node_ids(self, bo3_tree):
        session = start_offchain(bo3_tree, seed=0, t=2)
        stipulate(session)
        ids = ids_by_name(bo3_tree)
        reveal_oracle(session, "L1")
        graft = offchain_step(session, ids["L??"])
        assert set(graft.digests) == set(iter_preorder(bo3_tree, ids["L??"]))
        assert len(graft.digests) == 7
        # cleared root edge: the graft root needs no reveal, only the ladder
        root = graft.root_instance
        assert root.edge_signers == frozenset() and root.required_reveals == frozenset()
        # but body copies keep their own edge requirements
        body_ll = instances_by_landing(session.parts, root, graft.digests)[ids["LL"]]
        assert {c.label for c in body_ll.required_reveals} == {"L2"}
        # an agreement authorizes the body copies of a node, not a graft root
        assert session.copies(ids["LL"]) == [session.shadow.digests[ids["LL"]],
                                             graft.digests[ids["LL"]]]
        assert session.copies(ids["L??"]) == [session.shadow.digests[ids["L??"]]]

    def test_exchange_size_per_step(self, bo3_tree):
        session = start_offchain(bo3_tree, seed=0, t=2)
        stipulate(session)
        ids = ids_by_name(bo3_tree)
        before = session.trace.count(SIGNATURE_SENT)
        reveal_oracle(session, "L1")
        offchain_step(session, ids["L??"])  # subtree of 7 nodes
        assert session.trace.count(SIGNATURE_SENT) - before == 14
        reveal_oracle(session, "W2")
        offchain_step(session, ids["LW?"])  # 4 nodes
        assert session.trace.count(SIGNATURE_SENT) - before == 14 + 8
        reveal_oracle(session, "L3")
        offchain_step(session, ids["LWL"])  # leaf
        assert session.trace.count(SIGNATURE_SENT) - before == 14 + 8 + 2
        assert session.steps_sealed == 3
        assert session.step_origin == ids["LWL"]

    @pytest.mark.parametrize("tree", [complete_binary_tree(4)] +
                             [random_tree(seed)[0] for seed in range(50)])
    def test_height_map_matches_subtree_height(self, tree):
        session = start_offchain(tree, seed=0, t=3)
        assert session.parts.heights == {n: subtree_height(tree, n) for n in iter_preorder(tree)}
        assert session.shadow.root_instance.rel_timelock == session.parts.heights[tree.root] * 3

    @pytest.mark.parametrize("tree", [complete_binary_tree(4)] +
                             [random_tree(seed)[0] for seed in range(50)])
    def test_graft_body_is_signed_in_preorder(self, tree):
        for child in tree.node(tree.root).children:
            session = start_offchain(tree, seed=0, t=2)
            stipulate(session)
            graft = session.create_graft(child)
            sender, recipient = sorted(tree.participants)[:2]
            signed = [(m.phase, m.subject, m.digest) for m in plan_of(graft.exchange)
                      if (m.sender, m.recipient) == (sender, recipient)]
            body = [n for n in iter_preorder(tree, child) if n != child]
            root = graft.root_instance
            assert signed == [(0, tree.node(n).name, graft.digests[n]) for n in body] \
                + [(1, root.name, root.digest)]
            assert root.rel_timelock == subtree_height(tree, child) * 2

    def test_graft_guards(self, bo3_tree):
        session = start_offchain(bo3_tree, seed=0, t=2)
        with pytest.raises(ProtocolError):
            session.create_graft(1)  # still stipulating
        stipulate(session)
        ids = ids_by_name(bo3_tree)
        with pytest.raises(ProtocolError):
            session.create_graft(ids["LW?"])  # not a child of the head
        session.create_graft(ids["L??"])
        with pytest.raises(ProtocolError):
            session.create_graft(ids["W??"])  # previous exchange unfinished

    def test_unsatisfiable_edge_blocks_the_step(self, bo3_tree):
        session = start_offchain(bo3_tree, seed=0, t=2)
        stipulate(session)
        ids = ids_by_name(bo3_tree)
        assert not session.edge_satisfiable(ids["L??"])  # oracle has not spoken
        with pytest.raises(ProtocolError):
            offchain_step(session, ids["L??"])
        reveal_oracle(session, "L1")
        assert session.edge_satisfiable(ids["L??"])

    def test_wait_edges_anchor_on_last_settled_step(self, three_party):
        session = start_offchain(three_party, seed=1, t=1)
        stipulate(session)  # Head lands at height 0
        t1, t2, t5 = 1, 2, 5
        assert not session.edge_satisfiable(t1)  # needs 5 blocks after Head
        session.chain.tick(5)
        assert session.edge_satisfiable(t1)
        assert session.edge_satisfiable(t2)  # reveal owned by a participant
        offchain_step(session, t2)  # seals at height 5
        assert not session.edge_satisfiable(t5)  # needs 10 more from the seal
        session.chain.tick(9)
        assert not session.edge_satisfiable(t5)
        session.chain.tick(1)
        assert session.edge_satisfiable(t5)


class TestProposals:
    """Step agreement off-chain: everyone signs every graft, and no step is
    proposed while a graft exchange is under way."""

    def test_agreement_opens_a_graft_exchange_that_blocks_proposals(self, bo3_tree):
        session = start_offchain(bo3_tree, seed=0, t=2)
        stipulate(session)
        ids = ids_by_name(bo3_tree)
        reveal_oracle(session, "L1", "W2")
        assert not session.propose("A", ids["LW?"])  # not a child of the origin
        assert session.propose("A", ids["L??"])
        assert session.owes_agreement("B") and not session.owes_agreement("A")
        assert session.others_owe("A") and not session.others_owe("B")
        assert session.pending_graft is None
        assert session.agree("B")
        graft = session.pending_graft
        assert graft is not None and graft.origin == ids["L??"]
        assert session.proposal is None and session.step_origin == bo3_tree.root
        assert session.others_owe("A") and session.others_owe("B")  # the graft exchange
        assert not session.propose("B", ids["LW?"])
        assert session.proposal is None and session.trace.count(STEP_PROPOSED) == 1
        while any(session.send(p) for p in bo3_tree.participants):
            pass
        assert session.ladder[-1] is graft and session.steps_sealed == 1
        assert session.step_origin == ids["L??"]
        assert not any(session.others_owe(p) for p in bo3_tree.participants)
        assert session.propose("B", ids["LW?"])

    def test_a_step_waits_for_its_oracle_secret(self, bo3_tree):
        session = start_offchain(bo3_tree, seed=0, t=2)
        stipulate(session)
        lq = ids_by_name(bo3_tree)["L??"]
        assert not session.propose("A", lq)  # the oracle has not revealed L1
        assert session.proposal is None and session.trace.count(STEP_PROPOSED) == 0
        reveal_oracle(session, "L1")
        assert session.propose("A", lq) and session.trace.count(STEP_PROPOSED) == 1

    def test_refusal_sticks_and_the_failsafe_still_works(self, bo3_tree):
        session = start_offchain(bo3_tree, seed=0, t=2)
        stipulate(session)
        ids = ids_by_name(bo3_tree)
        reveal_oracle(session, "L1")
        assert session.propose("A", ids["L??"])
        assert session.refuse("B")
        assert session.step_refused and session.proposal is None
        assert session.pending_graft is None
        assert session.trigger_failsafe("A") is None
        assert session.step_refused
        assert not session.propose("A", ids["L??"])  # Init is on-chain

    def test_graft_appends_need_a_graft_to_land(self, bo3_tree):
        session = start_offchain(bo3_tree, seed=0, t=2)
        with pytest.raises(ProtocolError, match="no sealed graft has index 0"):
            session.append_graft("A", 0)
        stipulate(session)
        # The ledger, not the session, refuses a graft while Init is off-chain
        # and once it is spent, and the refusal is logged as a failed append.
        appends = session.trace.count(APPEND)
        assert isinstance(session.append_graft("A", 0), MissingInput)  # Init is not on-chain
        assert session.trace.count(APPEND) == appends + 1
        assert session.append_init("A") is None
        session.chain.tick(session.shadow.root_instance.rel_timelock)
        assert session.rollback_target() == 0
        assert session.append_graft("B", 0) is None
        assert isinstance(session.append_graft("A", 0), MissingInput)  # Init is spent


class TestHalfSignedGrafts:
    def test_withheld_body_signature_blocks_everyone(self, bo3_tree):
        session = start_offchain(bo3_tree, seed=0, t=2)
        stipulate(session)
        ids = ids_by_name(bo3_tree)
        reveal_oracle(session, "L1")
        result = offchain_step(session, ids["L??"], withhold_at=5)
        assert result is None
        graft = session.pending_graft
        assert graft is not None and graft not in session.ladder
        session.append_init("A")
        assert session.pending_graft is None and graft not in session.ladder
        session.chain.tick(20)  # well past every timelock
        for actor in bo3_tree.participants:
            assert not session.ready(actor, graft.root_instance, graft.exchange)
            # root signatures were phase-gated behind the withheld body message
        error = session.append("A", graft.root_instance, graft.exchange, ROLE_GRAFT_ROOT)
        assert isinstance(error, MissingSignature)
        with pytest.raises(ProtocolError, match="no sealed graft has index 1"):
            session.append_graft("A", graft.index)  # never sealed, so off the ladder

    def test_failsafe_falls_back_to_last_sealed_state(self, bo3_tree):
        session = start_offchain(bo3_tree, seed=0, t=2)
        stipulate(session)
        ids = ids_by_name(bo3_tree)
        reveal_oracle(session, "L1")
        offchain_step(session, ids["L??"])
        reveal_oracle(session, "W2")
        offchain_step(session, ids["LW?"], withhold_at=3)  # half signed
        assert session.steps_sealed == 1
        assert session.latest_sealed.origin == ids["L??"]
        trace = finalize(session, BO3_PATH)
        # Head, Init, L?? graft root, then LW? and LWL through its body
        assert trace.summary["onchain_tx_count"] == 5
        names = [name for name, _, _, _ in trace.summary["appended"]]
        assert names == ["Head", "Init", "L??", "LW?", "LWL"]


class TestFailsafe:
    def test_second_trigger_is_refused(self, bo3_tree):
        session = start_offchain(bo3_tree, seed=0, t=2)
        stipulate(session)
        assert session.trigger_failsafe("B") is None
        assert session.phase == FAILSAFE and session.init.digest in session.chain.appended
        with pytest.raises(ProtocolError, match="failsafe"):
            session.trigger_failsafe("B")
        assert session.trace.count(FAILSAFE_TRIGGERED) == 1
        assert session.trace.count(INIT_APPENDED) == 1

    def test_init_discards_pending_graft(self, bo3_tree):
        session = start_offchain(bo3_tree, seed=0, t=2)
        stipulate(session)
        ids = ids_by_name(bo3_tree)
        reveal_oracle(session, "L1")
        graft = session.create_graft(ids["L??"])
        assert session.pending_graft is graft
        session.append_init("A")
        assert session.pending_graft is None and graft not in session.ladder
        assert session.ladder == [session.shadow]
        assert not any(session.send(p) for p in bo3_tree.participants)

    def test_init_closes_the_open_proposal(self):
        """B appends Init while a step proposal waits on its agreement, and
        would agree to it once the phase is ``failsafe``.  Init closes the
        proposal, so nothing is left to agree to, no graft is created
        outside ``running``, and the honest settlement reaches the leaf."""
        @_cooperates_until_running
        def init_then_agree(obs, params):
            if obs.proposal is not None and not obs.i_agreed:
                return Action(AGREE) if obs.phase == FAILSAFE \
                    else Action(strategies.APPEND, TARGET_INIT)
            return honest(obs, params)

        scenario = load_scenario(bundled_data_dir() / "bo3_happy.scn")
        with strategies_added({"init_then_agree": init_then_agree}):
            trace = run(replace(scenario, strategies={"A": ("honest", {}),
                                                      "B": ("init_then_agree", {})}))
        [proposed], [init] = trace.find(STEP_PROPOSED), trace.find(INIT_APPENDED)
        assert proposed.actor == "A" and init.actor == "B" and init.height == proposed.height
        assert trace.count(STEP_AGREED) == 0 and trace.count(GRAFT_SEALED) == 1
        assert trace.summary["outcome"] == OUTCOME_LEAF and trace.summary["final_height"] == 8

    def test_failsafe_after_two_steps_costs_four_transactions(self, bo3_tree):
        session = start_offchain(bo3_tree, seed=0, t=2)
        stipulate(session)
        ids = ids_by_name(bo3_tree)
        reveal_oracle(session, "L1")
        offchain_step(session, ids["L??"])
        reveal_oracle(session, "W2")
        offchain_step(session, ids["LW?"])
        session.trigger_failsafe("A")
        reveal_oracle(session, "L3")
        trace = finalize(session, BO3_PATH)
        assert trace.summary["onchain_tx_count"] == 4
        assert trace.summary["payouts"] == {"B": 96}
        # the LW? graft root waited out its own ladder rung (1 * t)
        heights = {name: h for name, _, h, _ in trace.summary["appended"]}
        assert heights["LW?"] - heights["Init"] == 2


def _sealed_session(seed, steps, t):
    """An off-chain session of bo3 (``seed`` None) or ``random_tree(seed)``
    with up to ``steps`` steps of its branch sealed by the drivers, each
    edge's secrets published and its wait ticked out."""
    if seed is None:
        tree, path_names = load_contract_file(bundled_data_dir() / "bo3.contract"), BO3_PATH
    else:
        tree, path_names, _ = random_tree(seed)
    session = start_offchain(tree, seed=0, t=t)
    stipulate(session)
    for child in resolve_path(tree, path_names)[1:1 + steps]:
        for label in tree.node(child).edge.reveals:
            if label not in session.reveal_pool:
                reveal_oracle(session, label)
        while not session.edge_satisfiable(child):
            session.chain.tick()
        offchain_step(session, child)
    return session


class TestSettleByIndex:
    """``append_graft(actor, index)`` lands any sealed graft by its ladder
    index, and the ledger alone decides which can: after Init lands at h,
    index i waits for h plus its root's timelock, so the newest lands
    first, and its landing spends Init for every other index."""

    @settings(deadline=None, max_examples=60)
    @given(seed=st.none() | st.integers(0, 10 ** 6), steps=st.integers(1, 4),
           t=st.integers(1, 3), delay=st.integers(0, 3), data=st.data())
    def test_the_newest_graft_lands_first_at_every_index(self, seed, steps, t, delay, data):
        session = _sealed_session(seed, steps, t)
        ladder = session.ladder
        newest = len(ladder) - 1
        assert newest == session.steps_sealed >= 1
        actor = data.draw(st.sampled_from(session.tree.participants))
        session.chain.tick(delay)
        assert session.append_init(actor) is None
        h = session.chain.height
        init_output = (session.init.digest, 0)
        rows = len(session.trace.rows)
        for index in (None, -1, len(ladder)):
            with pytest.raises(ProtocolError, match="no sealed graft has index"):
                session.append_graft(actor, index)
        assert len(session.trace.rows) == rows
        # Every index, oldest first, at every height until one lands.
        landed = None
        while landed is None:
            for index, graft in enumerate(ladder):
                error = session.append_graft(actor, index)
                if error is None:
                    landed = index
                    break
                needed = h + graft.root_instance.rel_timelock
                assert error == TimelockNotExpired(needed) and session.chain.height < needed
            else:
                session.chain.tick()
        assert landed == newest
        assert session.chain.height == h + ladder[newest].root_instance.rel_timelock
        session.chain.tick(ladder[0].root_instance.rel_timelock)  # past every timelock
        for index in range(newest):
            assert session.append_graft(actor, index) == MissingInput(init_output)


class TestFullDescent:
    def test_leaf_graft_settles_in_three_transactions(self, bo3_tree):
        session = start_offchain(bo3_tree, seed=0, t=2)
        stipulate(session)
        ids = ids_by_name(bo3_tree)
        for name, label in (("L??", "L1"), ("LW?", "W2"), ("LWL", "L3")):
            reveal_oracle(session, label)
            offchain_step(session, ids[name])
        trace = finalize(session)
        assert session.phase == FINALIZED
        assert trace.summary["onchain_tx_count"] == 3
        assert trace.summary["completion_height"] == 0  # leaf rung is timelock-free
        assert trace.summary["payouts"] == {"B": 97}
        assert trace.summary["message_count"] == 58

    def test_single_node_contract(self):
        tree = chain_tree(1)
        session = start_offchain(tree, seed=0, t=3)
        stipulate(session)
        assert session.trace.count(SIGNATURE_SENT) == 6
        trace = finalize(session)
        assert trace.summary["onchain_tx_count"] == 3
        payouts = trace.summary["payouts"]
        assert sum(payouts.values()) == tree.deposit_total() - 3 * tree.fee

    def test_early_authorized_exit(self, bo3_tree):
        session = start_offchain(bo3_tree, seed=0, t=2)
        stipulate(session)
        ids = ids_by_name(bo3_tree)
        reveal_oracle(session, "L1")
        offchain_step(session, ids["L??"])
        offchain_step(session, ids["Out_L"])  # authorization-only edge
        trace = finalize(session)
        assert trace.summary["onchain_tx_count"] == 3
        assert trace.summary["payouts"] == {"A": 25, "B": 72}


class TestReadiness:
    def test_graft_body_waits_for_the_actors_own_published_authorization(self, three_party):
        # The one readiness rule the ledger does not decide: the ledger
        # would accept C's append of T3 with C's own authorization in C's
        # witness, but off-chain continuation waits until it is published.
        session = start_offchain(three_party, seed=0, t=1)
        stipulate(session)
        assert session.append_init("A") is None
        shadow = session.shadow
        session.chain.tick(shadow.root_instance.rel_timelock)
        assert session.ready("C", shadow.root_instance, shadow.exchange)
        assert session.append_graft("C", shadow.index) is None
        t3 = ids_by_name(three_party)["T3"]
        tx = session.ahead[t3]
        assert tx.edge_signers == {"C"} and tx.digest not in session.edge_pool
        assert session.ready("C", tx, session.stipulation)
        assert not session.child_ready("C", t3)
        session.publish_edge_auth(tx.digest, "C")
        assert session.child_ready("C", t3)
