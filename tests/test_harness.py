"""Scenario loading and the round engine, pinned on the bundled scenarios."""

import gc
import json
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import graftsim
from graftsim import harness
from graftsim.contract import (
    ContractTree,
    Edge,
    NodeTemplate,
    PayoutShare,
    validate_tree,
)
from graftsim.harness import (
    MODE_OFFCHAIN,
    MODE_ONCHAIN,
    Scenario,
    ScenarioError,
    bundled_data_dir,
    bundled_scenarios,
    compare,
    default_height_cap,
    load_scenario,
    run,
    scenario_from_dict,
)
from graftsim.onchain import RUNNING, STIPULATING, ProtocolError
from graftsim.strategies import (
    IDLE,
    PROPOSE,
    REFUSE,
    SEND,
    TARGET_ANCHOR,
    TARGET_FAILSAFE,
    TARGET_INIT,
    TARGET_GRAFT,
    Action,
    STRATEGIES,
    honest,
    register,
)
from graftsim.treegen import chain_tree
from graftsim.trace import (
    APPEND,
    FAILSAFE_TRIGGERED,
    GRAFT_APPENDED,
    GRAFT_PROPOSED,
    GRAFT_SEALED,
    STEP_AGREED,
    STEP_PROPOSED,
    STEP_REFUSED,
    STIPULATION_ABORTED,
    STIPULATION_COMPLETE,
)

from drivers import census_by_replay, events_and_summary, message_census, subtree_height

BO3_PATH = ["Bet", "L??", "LW?", "LWL"]

# outcome, tx count, final height, signature messages, payouts, appends
GOLDEN = {
    "bo3_happy": ("leaf", 3, 7, 58, {"B": 97},
                  [("Head", 1), ("Init", 7), ("LWL", 7)]),
    "bo3_onchain": ("leaf", 4, 6, 30, {"B": 96},
                    [("Bet", 1), ("L??", 2), ("LW?", 4), ("LWL", 6)]),
    "bo3_staller": ("leaf", 5, 12, 51, {"B": 95},
                    [("Head", 1), ("Init", 8), ("L??", 12), ("LW?", 12), ("LWL", 12)]),
    "bo3_failsafe_start": ("leaf", 6, 8, 34, {"B": 94},
                           [("Head", 1), ("Init", 2), ("Bet", 8), ("L??", 8),
                            ("LW?", 8), ("LWL", 8)]),
    "bo3_breakeven": ("leaf", 4, 8, 56, {"B": 96},
                      [("Head", 1), ("Init", 6), ("LW?", 8), ("LWL", 8)]),
    "bo3_earlyout": ("leaf", 3, 4, 50, {"A": 25, "B": 72},
                     [("Head", 1), ("Init", 4), ("Out_L", 4)]),
    "bo3_premature": ("leaf", 5, 7, 48, {"B": 95},
                      [("Head", 1), ("Init", 3), ("L??", 7), ("LW?", 7), ("LWL", 7)]),
    "bo3_rollback": ("leaf", 5, 8, 48, {"B": 95},
                     [("Head", 1), ("Init", 4), ("L??", 8), ("LW?", 8), ("LWL", 8)]),
    "bo3_nohonest": ("height_cap", 3, 30, 48, {},
                     [("Head", 1), ("Init", 4), ("Bet", 10)]),
    "bo3_aborter": ("leaf", 5, 9, 48, {"B": 95},
                    [("Head", 1), ("Init", 5), ("L??", 9), ("LW?", 9), ("LWL", 9)]),
}


def scn_dict(**overrides):
    base = {
        "label": "adhoc",
        "contract": "bo3.contract",
        "mode": "offchain",
        "strategies": {"A": {"name": "honest"}},
        "path": BO3_PATH,
    }
    base.update(overrides)
    return base


def scn_for(tree, mode):
    """An all-honest run of ``tree``, a bo3 contract, down ``BO3_PATH``."""
    return Scenario(label=mode, tree=tree, mode=mode, path=tuple(BO3_PATH),
                    oracle=((2, "L1"), (4, "W2"), (6, "L3")),
                    strategies={p: ("honest", {}) for p in tree.participants})


def load(name):
    return load_scenario(bundled_data_dir() / f"{name}.scn")


class TestScenarioLoading:
    def test_ten_scenarios_ship_with_the_package(self):
        names = [p.stem for p in bundled_scenarios()]
        assert sorted(GOLDEN) == names == sorted(names)

    def test_missing_key(self):
        data = scn_dict()
        del data["path"]
        with pytest.raises(ScenarioError, match="missing required key"):
            scenario_from_dict(data, bundled_data_dir())

    def test_unknown_mode(self):
        with pytest.raises(ScenarioError, match="unknown mode"):
            scenario_from_dict(scn_dict(mode="sidechain"), bundled_data_dir())

    def test_unknown_strategy(self):
        bad = scn_dict(strategies={"A": {"name": "byzantine"}})
        with pytest.raises(ScenarioError, match="unknown strategy"):
            scenario_from_dict(bad, bundled_data_dir())

    def test_unknown_participant(self):
        bad = scn_dict(strategies={"Z": {"name": "honest"}})
        with pytest.raises(ScenarioError, match="unknown participant"):
            scenario_from_dict(bad, bundled_data_dir())

    def test_path_must_reach_a_leaf(self):
        with pytest.raises(ScenarioError, match="end at a leaf"):
            scenario_from_dict(scn_dict(path=["Bet", "L??"]), bundled_data_dir())

    def test_oracle_labels_must_exist(self):
        bad = scn_dict(oracle=[[2, "NOPE"]])
        with pytest.raises(ScenarioError, match="unknown secret"):
            scenario_from_dict(bad, bundled_data_dir())

    def test_oracle_heights_must_be_non_negative(self):
        bad = scn_dict(oracle=[[-1, "L1"]])
        with pytest.raises(ScenarioError, match="non-negative"):
            scenario_from_dict(bad, bundled_data_dir())

    def test_order_must_be_a_permutation(self):
        bad = scn_dict(order=["A"])
        with pytest.raises(ScenarioError, match="permutation"):
            scenario_from_dict(bad, bundled_data_dir())

    def test_missing_participants_default_to_honest(self):
        scn = scenario_from_dict(scn_dict(), bundled_data_dir())
        assert scn.strategies["B"] == ("honest", {})

    def test_fee_override(self):
        scn = scenario_from_dict(scn_dict(fee=3), bundled_data_dir())
        assert scn.tree.fee == 3

    def test_defaults(self):
        scn = scenario_from_dict(scn_dict(), bundled_data_dir())
        assert (scn.t, scn.patience, scn.seed, scn.order, scn.height_cap) == \
            (1, 2, 0, None, None)

    def test_invalid_json_file(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(bad)

    def test_non_object_json_file(self, tmp_path):
        bad = tmp_path / "list.scn"
        bad.write_text(json.dumps([1, 2]), encoding="utf-8")
        with pytest.raises(ScenarioError, match="JSON object"):
            load_scenario(bad)


class TestBundledRuns:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_pinned_outcome(self, name):
        outcome, txs, height, messages, payouts, appends = GOLDEN[name]
        summary = run(load(name)).summary
        assert summary["outcome"] == outcome
        assert summary["onchain_tx_count"] == txs
        assert summary["final_height"] == height
        assert summary["message_count"] == messages
        assert summary["payouts"] == payouts
        assert summary["fees_paid"] == txs * 1

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_pinned_append_sequence(self, name):
        *_, appends = GOLDEN[name]
        trace = run(load(name))
        got = [(n, h) for n, _, h, _ in trace.summary["appended"]]
        assert got == appends

    def test_runs_are_deterministic(self):
        first = run(load("bo3_staller")).serialize()
        second = run(load("bo3_staller")).serialize()
        assert first == second

    def test_poll_order_override_is_honored(self):
        scn = scenario_from_dict(
            scn_dict(order=["B", "A"], t=2,
                     oracle=[[2, "L1"], [4, "W2"], [6, "L3"]]),
            bundled_data_dir())
        trace = run(scn)
        assert trace.header["order"] == ["B", "A"]
        assert trace.summary["outcome"] == "leaf"

    def test_happy_run_negotiates_each_step(self):
        trace = run(load("bo3_happy"))
        assert trace.count(STEP_PROPOSED) == 3
        assert trace.count(STEP_AGREED) == 3  # one non-proposer agreement each
        assert trace.count(STEP_REFUSED) == 0

    def test_aborter_run_shows_the_refusal(self):
        trace = run(load("bo3_aborter"))
        assert trace.count(STEP_REFUSED) == 1

    def test_failsafe_start_records_the_trigger(self):
        trace = run(load("bo3_failsafe_start"))
        assert trace.count(FAILSAFE_TRIGGERED) == 1

    def test_rollback_attack_is_rebuffed_by_the_ladder(self):
        trace = run(load("bo3_rollback"))
        failures = [e for e in trace.find(APPEND)
                    if e.actor == "B" and e.data["outcome"] != "ok"]
        assert failures and all(
            e.data["outcome"]["error"] == "TimelockNotExpired" for e in failures)
        # the newest sealed state won the race anyway
        assert run(load("bo3_rollback")).summary["payouts"] == {"B": 95}

    def test_unguarded_rollback_lands_the_stale_state(self):
        # negative control: with no honest party racing it, the oldest
        # graft (the whole-contract shadow) redeems Init once its longer
        # timelock expires, freezing the pot at the stale state.
        trace = run(load("bo3_nohonest"))
        names = [n for n, _, _, _ in trace.summary["appended"]]
        assert names[-1] == "Bet"
        assert trace.summary["payouts"] == {}


class TestEngineWatchdog:
    def test_stalled_stipulation_gets_aborted(self, bo3_tree):
        @register("mute")
        def mute(observation, params):
            return Action(IDLE)
        try:
            scn = Scenario(
                label="stall", tree=bo3_tree, mode=MODE_OFFCHAIN,
                strategies={"A": ("mute", {}), "B": ("honest", {})},
                path=tuple(BO3_PATH), patience=2)
            trace = run(scn)
        finally:
            del STRATEGIES["mute"]
        assert trace.summary["outcome"] == "aborted"
        assert trace.summary["onchain_tx_count"] == 0
        assert trace.summary["payouts"] == {"A": 50, "B": 50}  # deposits intact
        aborted = trace.find(STIPULATION_ABORTED)
        assert aborted and aborted[0].data["withholder"] == "A"

    @pytest.mark.parametrize("name, target, graft", [
        ("bo3_onchain", TARGET_INIT, None),
        ("bo3_onchain", TARGET_FAILSAFE, None),
        ("bo3_onchain", TARGET_GRAFT, "latest"),
        ("bo3_onchain", TARGET_GRAFT, "oldest"),
        ("bo3_happy", TARGET_FAILSAFE, None),
        ("bo3_happy", TARGET_GRAFT, None),
    ], ids=["bo3_onchain-init", "bo3_onchain-failsafe", "bo3_onchain-latest_graft",
            "bo3_onchain-oldest_graft", "bo3_happy-failsafe", "bo3_happy-graft"])
    def test_a_move_the_session_refuses_is_no_progress(self, name, target, graft):
        # After stipulation A asks for the same append on every poll: an
        # off-chain move in an on-chain run (the newest or the oldest
        # graft among them), the failsafe again once Init has landed, or a
        # graft with no index.  The run carries on without A's move.
        @register("insistent")
        def insistent(observation, params):
            if observation.phase == STIPULATING:
                return honest(observation, params)
            index = {"latest": observation.steps_sealed, "oldest": 0}.get(graft)
            return Action(graftsim.strategies.APPEND, target, index=index)
        scn = load(name)
        try:
            trace = run(replace(scn, strategies={**scn.strategies, "A": ("insistent", {})}))
        finally:
            del STRATEGIES["insistent"]
        assert trace.summary["outcome"] == "leaf"


    def test_an_observation_read_after_its_poll_raises(self, bo3_tree):
        # A strategy that keeps its observation and reads a field it had
        # not read before, on its next poll, would see a later state.
        kept = []

        @register("hoarder")
        def hoarder(observation, params):
            if kept:
                kept[0].rollback_target  # honest never reads it
            kept.append(observation)
            return honest(observation, params)
        try:
            scn = Scenario(
                label="hoard", tree=bo3_tree, mode=MODE_OFFCHAIN,
                strategies={"A": ("hoarder", {}), "B": ("honest", {})},
                path=tuple(BO3_PATH))
            with pytest.raises(ProtocolError, match="rollback_target.*after its strategy"):
                run(scn)
        finally:
            del STRATEGIES["hoarder"]
        assert len(kept) == 1


    def test_a_strategy_may_replace_fields_of_its_observation(self):
        # ``dataclasses.replace`` copies the observation with every field
        # filled; the copy outlives the poll without raising.
        copies = []

        @register("replacer")
        def replacer(observation, params):
            copies.append(replace(observation, mode=observation.mode))
            return honest(copies[-1], params)
        scn = load("bo3_happy")
        try:
            trace = run(replace(scn, strategies={**scn.strategies, "A": ("replacer", {})}))
        finally:
            del STRATEGIES["replacer"]
        assert events_and_summary(trace) == events_and_summary(run(scn))
        for copy in copies:
            assert copy == replace(copy)  # reads every field, long after its poll


class TestStepAgreement:
    def test_no_step_is_agreed_before_its_edge_can_be_met(self):
        # A proposes the branch's next step whenever nothing else is under
        # way, without reading ``next_child_proposable``.  With no oracle
        # reveal no edge below Bet can be met, so no step may be agreed,
        # and nothing settles on a secret nobody revealed.
        @register("eager")
        def eager(observation, params):
            if observation.phase == RUNNING and observation.proposal is None \
                    and not observation.pending_graft and not observation.owes_message \
                    and observation.next_child is not None:
                return Action(PROPOSE, child=observation.next_child)
            return honest(observation, params)
        scn = replace(load("bo3_happy"), oracle=())
        try:
            trace = run(replace(scn, strategies={**scn.strategies, "A": ("eager", {})}))
        finally:
            del STRATEGIES["eager"]
        assert trace.summary["outcome"] == "height_cap"
        assert trace.count(STEP_PROPOSED) == trace.count(STEP_AGREED) == 0
        assert trace.summary["payouts"] == {}


class TestEarlyHead:
    def test_head_landed_before_stipulation_completes_seals_the_shadow(self):
        # A sends what it can at height 0.  At height 1, holding B's Head
        # signature, it lands Head before sending its own, so stipulation
        # never completes; then it refuses every proposal.  Phase gating
        # had every shadow signature delivered before any Head signature,
        # so the shadow is sealed when Head lands and B's failsafe settles
        # through it.
        @register("early_head")
        def early_head(observation, params):
            if observation.phase == STIPULATING:
                if observation.height == 0 and observation.owes_message:
                    return Action(SEND)
                if observation.height >= 1:
                    return Action(graftsim.strategies.APPEND, TARGET_ANCHOR)
                return Action(IDLE)
            if observation.proposal is not None and not observation.i_agreed:
                return Action(REFUSE)
            return Action(IDLE)
        scn = replace(load("bo3_happy"), order=("B", "A"))
        try:
            trace = run(replace(scn, strategies={**scn.strategies, "A": ("early_head", {})}))
        finally:
            del STRATEGIES["early_head"]
        summary = trace.summary
        assert (summary["outcome"], summary["final_height"]) == ("leaf", 9)
        assert [name for name, *_ in summary["appended"]] == \
            ["Head", "Init", "Bet", "L??", "LW?", "LWL"]
        assert summary["payouts"] == {"B": 94}
        assert trace.count(STIPULATION_COMPLETE) == 0
        head = next(e for e in trace.find(APPEND) if e.data["name"] == "Head")
        assert (head.actor, head.height) == ("A", 1)
        sealed = trace.find(GRAFT_SEALED)
        assert [(e.actor, e.height, e.data["index"]) for e in sealed] == [("A", 1, 0)]
        assert trace.events.index(sealed[0]) == trace.events.index(head) + 1
        assert [(e.actor, e.height, e.data["index"]) for e in trace.find(GRAFT_APPENDED)] == \
            [("B", 9, 0)]


class TestEmptyPlanGraft:
    def test_a_one_participant_chain_reaches_its_leaf_offchain(self):
        # Every graft of a one-participant contract has an empty signature
        # plan, so the session seals it when it is created.  Unsealed, the
        # first graft stayed pending and the run idled to its height cap.
        nodes = {0: NodeTemplate(0, "R", children=(1,)),
                 1: NodeTemplate(1, "M", children=(2,)),
                 2: NodeTemplate(2, "L", outputs=(PayoutShare("A", Fraction(1)),))}
        tree = ContractTree(participants=("A",), deposits={"A": 20}, fee=1, root=0,
                            nodes=nodes)
        assert validate_tree(tree) == []
        trace = run(Scenario(label="solo", tree=tree, mode=MODE_OFFCHAIN,
                             path=("R", "M", "L"), strategies={"A": ("honest", {})}))
        summary = trace.summary
        assert (summary["outcome"], summary["final_height"]) == ("leaf", 0)
        assert [name for name, *_ in summary["appended"]] == ["Head", "Init", "L"]
        assert summary["payouts"] == {"A": 17}
        assert summary["message_count"] == 0
        assert [(e.actor, e.data["index"]) for e in trace.find(GRAFT_SEALED)] == \
            [("A", 0), ("session", 1), ("session", 2)]
        proposed = trace.find(GRAFT_PROPOSED)
        sealed = trace.find(GRAFT_SEALED)[1:]
        assert [trace.events.index(e) + 1 for e in proposed] == \
            [trace.events.index(e) for e in sealed]


class TestSendBurst:
    def test_one_send_delivers_every_message_the_actor_can_send_now(self):
        # After a SEND the actor owes nothing more in that poll, so its
        # next choice at that height is never SEND again.
        polls = []

        @register("recorder")
        def recorder(observation, params):
            action = honest(observation, params)
            polls.append((observation.actor, observation.height, action.kind,
                          observation.owes_message))
            return action
        scn = load("bo3_happy")
        try:
            trace = run(replace(scn, strategies={p: ("recorder", {}) for p in scn.strategies}))
        finally:
            del STRATEGIES["recorder"]
        assert events_and_summary(trace) == events_and_summary(run(scn))
        sends = [i for i, (_, _, kind, _) in enumerate(polls) if kind == SEND]
        assert 0 < len(sends) < trace.summary["message_count"]
        for i in sends:
            actor, height = polls[i][:2]
            after = [p for p in polls[i + 1:] if p[:2] == (actor, height)]
            assert not after or not after[0][3]


class TestComparison:
    def test_bundled_pair(self):
        result = compare(load("bo3_happy"), load("bo3_onchain"))
        assert result.fees_saved_vs_baseline == 1
        assert result.extra_delay_blocks == 1
        assert result.offchain["onchain_tx_count"] == 3
        assert result.onchain["onchain_tx_count"] == 4

    def test_a_capped_side_adds_no_delay(self):
        # Only the off-chain run completes: the delay between completions
        # is then undefined and reported as 0.
        result = compare(load("bo3_happy"), replace(load("bo3_onchain"), height_cap=0))
        assert result.onchain["outcome"] == "height_cap"
        assert result.onchain["completion_height"] is None
        assert result.offchain["completion_height"] is not None
        assert result.extra_delay_blocks == 0

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError, match="offchain and one onchain"):
            compare(load("bo3_onchain"), load("bo3_onchain"))

    def test_branch_mismatch_rejected(self):
        off = load("bo3_earlyout")
        with pytest.raises(ValueError, match="different branches"):
            compare(off, load("bo3_onchain"))


class TestCensusAndCaps:
    def test_census_matches_engine_message_counts(self, bo3_tree):
        assert message_census(bo3_tree, BO3_PATH, mode=MODE_OFFCHAIN, t=2) == 58
        assert message_census(bo3_tree, BO3_PATH, mode=MODE_ONCHAIN) == 30
        # Waits far past the default height cap still reach the leaf.
        chain = chain_tree(3)
        nodes = dict(chain.nodes)
        nodes[2] = replace(nodes[2], edge=Edge(wait=300))
        nodes[3] = replace(nodes[3], edge=Edge(wait=200))
        waits = replace(chain, nodes=nodes)
        for mode in (MODE_OFFCHAIN, MODE_ONCHAIN):
            assert message_census(waits, mode=mode) \
                == census_by_replay(waits, [1, 2, 3], mode), mode

    def test_census_refuses_a_run_that_misses_the_leaf(self, monkeypatch):
        monkeypatch.setattr(harness, "default_height_cap", lambda scenario, height: 0)
        with pytest.raises(ValueError, match="ended at height_cap"):
            message_census(chain_tree(3))

    def test_deep_contracts_compile_without_recursion(self):
        # Deeper than the interpreter's default recursion limit of 1000.
        assert message_census(chain_tree(1500), mode=MODE_ONCHAIN) == 3000
        deep = chain_tree(5000)
        assert subtree_height(deep, deep.root) == 4999

    def test_compare_on_a_deep_contract(self):
        # A 1,500-node chain plus a leaf "Out" below its root: deeper than
        # the recursion limit, with a one-step branch to run.
        chain = chain_tree(1500)
        out = max(chain.nodes) + 1
        nodes = dict(chain.nodes)
        nodes[chain.root] = replace(nodes[chain.root],
                                    children=nodes[chain.root].children + (out,))
        nodes[out] = NodeTemplate(out, "Out", outputs=chain.nodes[out - 1].outputs)
        tree = replace(chain, nodes=nodes)
        off, on = (Scenario(label=mode, tree=tree, mode=mode, path=("N1", "Out"),
                            strategies={p: ("honest", {}) for p in tree.participants})
                   for mode in (MODE_OFFCHAIN, MODE_ONCHAIN))
        comparison = compare(off, on)
        assert comparison.offchain["outcome"] == comparison.onchain["outcome"] == "leaf"

    def test_default_height_cap_scales_with_the_contract(self, bo3_tree):
        scn = scenario_from_dict(scn_dict(t=2, oracle=[[6, "L3"]]), bundled_data_dir())
        # 10 * (last reveal 6 + (height 3 + 2) * t 2 + patience 2 + 5)
        assert default_height_cap(scn, subtree_height(scn.tree, scn.tree.root)) == 230

    @pytest.mark.parametrize("name", ["bo3_happy", "bo3_onchain"])
    def test_a_run_walks_the_tree_for_heights_once(self, monkeypatch, name):
        # Loading's check of the shadow's timelock, the shadow's and each
        # graft's timelock and the default cap of every run read the
        # tree's one walk, kept in its record; ``subtree_height`` walks
        # through ``subtree_heights``.
        walks = []
        heights = graftsim.contract.subtree_heights
        def counted(tree):
            walks.append(tree)
            return heights(tree)
        monkeypatch.setattr(graftsim.contract, "subtree_heights", counted)
        scn = load_scenario(bundled_data_dir() / f"{name}.scn")
        assert run(scn).summary["outcome"] == "leaf"
        assert run(scn).summary["outcome"] == "leaf"
        assert len(walks) == 1


class TestCompiledRecord:
    """Runs of one tree share its compiled record (``ContractTree.compiled``),
    which lives exactly as long as the tree."""

    def test_a_new_tree_has_a_record_of_its_own(self):
        tree = load_scenario(bundled_data_dir() / "bo3_happy.scn").tree
        record = tree.compiled
        assert run(scn_for(tree, MODE_OFFCHAIN)).summary["outcome"] == "leaf"
        assert list(record.runs) == [(0, MODE_OFFCHAIN, 1)]
        for other in (replace(tree), tree.with_fee(tree.fee)):
            assert other == tree and other.compiled is not record
            assert other.compiled.runs == {}
        assert tree.compiled is record

    @pytest.mark.parametrize("mode", [MODE_OFFCHAIN, MODE_ONCHAIN])
    def test_an_invalid_tree_raises_on_every_run(self, bo3_tree, mode):
        # A duplicate secret label is refused as an invalid contract, as
        # every other fault is, before anything is compiled.
        tree = replace(bo3_tree, secrets=bo3_tree.secrets * 2)
        for _ in range(2):
            with pytest.raises(ProtocolError, match="invalid contract: DuplicateSecret"):
                run(scn_for(tree, mode))
        assert tree.compiled.runs == {}

    @pytest.mark.parametrize("mode", [MODE_OFFCHAIN, MODE_ONCHAIN])
    def test_a_cooperative_run_builds_no_digest_index(self, bo3_tree, mode):
        # Every witness of a cooperative run is asked once the whole body it
        # reads has been exchanged, so no layout the record keeps, the
        # stipulation's or a graft's, builds its index (``item_of``).
        tree = replace(bo3_tree)
        assert run(scn_for(tree, mode)).summary["outcome"] == "leaf"
        comp, = tree.compiled.runs.values()
        grafts = getattr(comp, "grafts", {})
        layouts = [comp.stipulation, *(layout for _, _, layout in grafts.values())]
        assert len(layouts) == (4 if mode == MODE_OFFCHAIN else 1)
        assert all("item_of" not in vars(layout) for layout in layouts)

    def test_a_dropped_tree_frees_its_record(self):
        tree = chain_tree(4)
        scenario = Scenario(label="dropped", tree=tree, mode=MODE_OFFCHAIN,
                            path=("N1", "N2", "N3", "N4"),
                            strategies={p: ("honest", {}) for p in tree.participants})
        trace = run(scenario)
        assert trace.summary["outcome"] == "leaf" and tree.compiled.runs
        dropped = weakref.ref(tree)
        del tree, scenario, trace
        gc.collect()
        assert dropped() is None


def test_traces_match_the_goldens_across_hash_seeds(tmp_path):
    """Trace bytes do not depend on set or dict iteration order."""
    golden = Path(__file__).parent / "golden"
    script = ("import sys\n"
              "from graftsim.cli import main\n"
              "for scn, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
              "    main(['run', scn, '--trace', out])\n")
    names = ("bo3_happy", "bo3_onchain", "bo3_staller")
    src = str(Path(graftsim.__file__).parents[1])
    for hash_seed in ("0", "1", "2", "4294967295"):
        args = []
        for name in names:
            args += [str(bundled_data_dir() / f"{name}.scn"), str(tmp_path / f"{name}.trace")]
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", script, *args], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        for name in names:
            assert (tmp_path / f"{name}.trace").read_bytes() == \
                (golden / f"{name}.trace").read_bytes(), (hash_seed, name)


def test_public_names_resolve():
    assert len(set(graftsim.__all__)) == len(graftsim.__all__)
    for name in graftsim.__all__:
        assert hasattr(graftsim, name), name
    # An edge is one ``Edge``; the per-requirement classes are gone.
    for name in ("After", "AuthBy", "RevealReq", "EdgeRequirement"):
        assert not hasattr(graftsim, name) and not hasattr(graftsim.contract, name)
    assert not hasattr(graftsim.onchain, "edge_parts")
