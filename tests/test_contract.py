"""Structural model: tree queries, validation, payouts, serialization."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest

from graftsim.contract import (
    CONTINUATION,
    MAX_AMOUNT,
    MAX_NAME_BYTES,
    MAX_PARTICIPANTS,
    MAX_TIMELOCK,
    NO_EDGE,
    ContractParseError,
    Edge,
    NodeTemplate,
    PathError,
    PayoutShare,
    SecretDecl,
    UnknownNodeError,
    contract_from_dict,
    contract_to_dict,
    deepest_leaf_path,
    iter_preorder,
    leaves,
    parent_map,
    path_to,
    resolve_path,
    resolve_payout,
    subtree_height,
    validate_tree,
)
from graftsim.offchain import compile_offchain
from graftsim.onchain import compile_onchain
from graftsim.treegen import chain_tree, random_tree
from graftsim.witness import CommitmentSet

from drivers import balance_at, subtree_size


def names(tree, ids):
    return [tree.node(i).name for i in ids]


class TestQueries:
    def test_preorder_visits_every_node_once(self, bo3_tree):
        order = list(iter_preorder(bo3_tree))
        assert len(order) == 15
        assert len(set(order)) == 15
        assert order[0] == bo3_tree.root

    def test_preorder_respects_child_order(self, bo3_tree):
        assert names(bo3_tree, iter_preorder(bo3_tree))[:5] == \
            ["Bet", "W??", "Out_W", "WW", "WL?"]

    def test_leaves(self, bo3_tree):
        assert sorted(names(bo3_tree, leaves(bo3_tree))) == sorted(
            ["Out_W", "WW", "Out_WL", "WLL", "WLW", "LWW", "LWL", "Out_LW",
             "LL", "Out_L"])

    def test_parent_map_inverts_children(self, bo3_tree):
        parents = parent_map(bo3_tree)
        for node_id in iter_preorder(bo3_tree):
            for child in bo3_tree.node(node_id).children:
                assert parents[child] == node_id
        assert bo3_tree.root not in parents

    def test_path_to_leaf(self, bo3_tree):
        leaf = next(i for i in leaves(bo3_tree) if bo3_tree.node(i).name == "LWL")
        assert names(bo3_tree, path_to(bo3_tree, leaf)) == \
            ["Bet", "L??", "LW?", "LWL"]

    def test_resolve_path_roundtrips(self, bo3_tree):
        ids = resolve_path(bo3_tree, ["Bet", "L??", "LW?", "LWL"])
        assert names(bo3_tree, ids) == ["Bet", "L??", "LW?", "LWL"]

    def test_resolve_path_rejects_non_child(self, bo3_tree):
        with pytest.raises(PathError, match="'LWL' is not a child of 'Bet'"):
            resolve_path(bo3_tree, ["Bet", "LWL"])
        with pytest.raises(PathError, match="must start at the root 'Bet'"):
            resolve_path(bo3_tree, ["L??"])

    def test_resolve_path_names_an_unknown_node(self, bo3_tree):
        for names in (["Nope"], ["Bet", "L??", "Nope"]):
            with pytest.raises(UnknownNodeError, match="Nope"):
                resolve_path(bo3_tree, names)

    def test_subtree_height_counts_edges(self, bo3_tree):
        by_name = {bo3_tree.node(i).name: i for i in iter_preorder(bo3_tree)}
        assert subtree_height(bo3_tree, by_name["Bet"]) == 3
        assert subtree_height(bo3_tree, by_name["L??"]) == 2
        assert subtree_height(bo3_tree, by_name["LW?"]) == 1
        assert subtree_height(bo3_tree, by_name["LWL"]) == 0

    def test_subtree_size(self, bo3_tree):
        by_name = {bo3_tree.node(i).name: i for i in iter_preorder(bo3_tree)}
        assert subtree_size(bo3_tree, by_name["Bet"]) == 15
        assert subtree_size(bo3_tree, by_name["L??"]) == 7
        assert subtree_size(bo3_tree, by_name["LW?"]) == 4
        assert subtree_size(bo3_tree, by_name["LWL"]) == 1

    def test_balance_at_charges_one_fee_per_step(self, bo3_tree):
        by_name = {bo3_tree.node(i).name: i for i in iter_preorder(bo3_tree)}
        assert balance_at(bo3_tree, by_name["Bet"]) == 99
        assert balance_at(bo3_tree, by_name["L??"]) == 98
        assert balance_at(bo3_tree, by_name["LWL"]) == 96

    def test_deepest_leaf_path_prefers_depth_then_smallest_id(self, bo3_tree):
        path = deepest_leaf_path(bo3_tree)
        assert len(path) == 4  # a depth-3 leaf, not a depth-2 one
        assert names(bo3_tree, path)[1] == "W??"  # first subtree wins ties


def _edit_node(node_id, **fields):
    """A one-field edit of a tree: its ``nodes``, with node ``node_id``'s
    ``fields`` replaced."""
    return lambda tree: {"nodes": {**tree.nodes,
                                   node_id: replace(tree.nodes[node_id], **fields)}}


class TestValidation:
    def test_bundled_contract_is_valid(self, bo3_tree):
        assert validate_tree(bo3_tree) == []

    def test_three_party_is_valid(self, three_party):
        assert validate_tree(three_party) == []

    def _kinds(self, tree):
        return {e.kind for e in validate_tree(tree)}

    def test_missing_deposit(self, three_party):
        tree = replace(three_party, deposits={"A": 10, "B": 10})
        assert "MissingDeposit" in self._kinds(tree)

    def test_negative_deposit_and_fee(self, three_party):
        tree = replace(three_party, deposits={"A": -1, "B": 10, "C": 10}, fee=-2)
        assert "NegativeValue" in self._kinds(tree)

    def test_unknown_edge_signer(self, three_party):
        nodes = dict(three_party.nodes)
        nodes[3] = replace(nodes[3], edge=Edge(auth=frozenset({"Z"})))
        assert "UnknownParticipant" in self._kinds(replace(three_party, nodes=nodes))

    def test_undeclared_secret(self, three_party):
        nodes = dict(three_party.nodes)
        nodes[3] = replace(nodes[3], edge=Edge(reveals=("nope",)))
        assert "UnknownSecret" in self._kinds(replace(three_party, nodes=nodes))

    def test_values_the_encoding_cannot_hold(self, three_party):
        nodes = dict(three_party.nodes)
        nodes[1] = replace(nodes[1], edge=Edge(wait=MAX_TIMELOCK))
        nodes[3] = replace(nodes[3], name="x" * MAX_NAME_BYTES)
        at_limit = replace(three_party, nodes=nodes,
                           deposits={"A": MAX_AMOUNT - 20, "B": 10, "C": 10})
        assert validate_tree(at_limit) == []
        commitments = CommitmentSet([("SA", "A")], 0)
        compile_onchain(at_limit, commitments, b"salt")
        compile_offchain(at_limit, commitments, b"salt", 1)
        # One step past a field's width, the encoding raises (compiling
        # does not validate): a timelock, a name, and a value.
        for key, too_wide in ((1, replace(nodes[1], edge=Edge(wait=MAX_TIMELOCK + 1))),
                              (3, replace(nodes[3], name="x" * 2 ** 16))):
            with pytest.raises(OverflowError):
                compile_onchain(replace(at_limit, nodes={**nodes, key: too_wide}),
                                commitments, b"salt")
        with pytest.raises(OverflowError):
            compile_onchain(replace(at_limit, fee=0, deposits={"A": MAX_AMOUNT - 19,
                                                               "B": 10, "C": 10}),
                            commitments, b"salt")
        nodes[1] = replace(nodes[1], edge=Edge(wait=MAX_TIMELOCK + 1))
        nodes[3] = replace(nodes[3], name="x" * (MAX_NAME_BYTES + 1))
        over = replace(at_limit, nodes=nodes, deposits={"A": MAX_AMOUNT - 19, "B": 10, "C": 10})
        assert [(e.kind, e.where) for e in validate_tree(over)] == [
            ("TooLarge", "T1"), ("TooLarge", "deposits"), ("TooLarge", "names")]

    def test_oracle_secret_owner_is_allowed(self, bo3_tree):
        assert all(s.owner == "oracle" for s in bo3_tree.secrets)
        assert validate_tree(bo3_tree) == []

    def test_root_must_not_have_an_edge(self, three_party):
        nodes = dict(three_party.nodes)
        nodes[0] = replace(nodes[0], edge=Edge(wait=1))
        assert "RootEdge" in self._kinds(replace(three_party, nodes=nodes))

    def test_two_parents_rejected(self, three_party):
        nodes = dict(three_party.nodes)
        nodes[3] = replace(nodes[3], children=(4,))  # 4 already under 2
        assert "NotATree" in self._kinds(replace(three_party, nodes=nodes))

    def test_orphan_rejected(self, three_party):
        nodes = dict(three_party.nodes)
        nodes[9] = NodeTemplate(9, "T9", outputs=(PayoutShare("A", Fraction(1)),))
        assert "Orphan" in self._kinds(replace(three_party, nodes=nodes))

    def test_leaf_shares_must_sum_to_one(self, three_party):
        nodes = dict(three_party.nodes)
        nodes[3] = replace(nodes[3], outputs=(PayoutShare("C", Fraction(1, 2)),))
        assert "BalanceMismatch" in self._kinds(replace(three_party, nodes=nodes))

    def test_fees_beyond_the_deposits_rejected_at_each_node(self, bo3_tree):
        tree = bo3_tree.with_fee(30)
        short = [tree.node(n).name for n in iter_preorder(tree) if balance_at(tree, n) < 0]
        assert short
        assert [e.where for e in validate_tree(tree) if e.kind == "NegativeBalance"] == short

    def test_internal_node_with_payouts_rejected(self, three_party):
        nodes = dict(three_party.nodes)
        nodes[2] = replace(nodes[2], outputs=(PayoutShare("A", Fraction(1)),))
        assert "BalanceMismatch" in self._kinds(replace(three_party, nodes=nodes))

    @pytest.mark.parametrize("edit, kind, where", [
        (lambda t: {"participants": ()}, "NoParticipants", "contract"),
        (lambda t: {"participants": ("A", "B", "C", CONTINUATION)}, "ReservedName", CONTINUATION),
        (lambda t: {"participants": ("A", "A", "B", "C")}, "DuplicateParticipant", "A"),
        (lambda t: {"deposits": {**t.deposits, "Z": 1}}, "UnknownParticipant", "Z"),
        (_edit_node(3, id=9), "IdMismatch", "T3"),
        (lambda t: {"root": 7}, "UnknownNode", "7"),
        (_edit_node(0, children=(1, 2, 3, 8)), "UnknownNode", "8"),
        (lambda t: {"secrets": t.secrets * 2}, "DuplicateSecret", "secrets"),
        (lambda t: {"secrets": (SecretDecl("SA", "Z"),)}, "UnknownParticipant", "SA"),
        # The parser rejects a negative wait first; an ``Edge`` built in code reaches here.
        (_edit_node(1, edge=Edge(wait=-1)), "NegativeValue", "T1"),
        (_edit_node(3, outputs=(PayoutShare("Z", Fraction(1)),)), "UnknownParticipant", "T3"),
        (_edit_node(4, outputs=(PayoutShare("A", Fraction(-1)), PayoutShare("B", Fraction(2)))),
         "NegativeValue", "T4"),
        # Two outputs, each resolved to the whole balance: the leaf could never land.
        (_edit_node(4, outputs=(PayoutShare("A", Fraction(1, 2)),) * 2), "DuplicatePayout", "T4"),
    ], ids=["no-participants", "reserved-name", "participant-twice", "deposit-from-a-stranger",
            "id-mismatch", "missing-root", "missing-child", "secret-twice",
            "secret-owner-unknown", "negative-wait", "payout-to-a-stranger", "negative-share",
            "payout-twice"])
    def test_a_one_field_edit_is_rejected_first_by_its_check(self, three_party, edit, kind,
                                                            where):
        errors = validate_tree(replace(three_party, **edit(three_party)))
        assert (errors[0].kind, errors[0].where) == (kind, where)

    def test_participants_fit_the_anchors_input_count(self, three_party):
        """The anchor spends one deposit per participant, and its input
        count has 16 bits."""
        def with_participants(count):
            everyone = ("A", "B", "C", *(f"P{i}" for i in range(count - 3)))
            return replace(three_party, participants=everyone,
                           deposits=dict.fromkeys(everyone, 10))
        assert validate_tree(with_participants(MAX_PARTICIPANTS)) == []
        assert [(e.kind, e.where) for e in validate_tree(with_participants(
            MAX_PARTICIPANTS + 1))] == [("TooLarge", "participants")]


class TestPayouts:
    def test_even_split(self):
        shares = (PayoutShare("A", Fraction(1, 2)), PayoutShare("B", Fraction(1, 2)))
        outputs = resolve_payout(shares, 96)
        assert [(o.beneficiary, o.value) for o in outputs] == [("A", 48), ("B", 48)]

    def test_remainder_goes_to_first_beneficiary(self):
        shares = (PayoutShare("B", Fraction(3, 4)), PayoutShare("A", Fraction(1, 4)))
        outputs = resolve_payout(shares, 97)
        assert [(o.beneficiary, o.value) for o in outputs] == [("A", 25), ("B", 72)]

    def test_single_share(self):
        outputs = resolve_payout((PayoutShare("B", Fraction(1)),), 96)
        assert [(o.beneficiary, o.value) for o in outputs] == [("B", 96)]

    def test_total_always_equals_balance(self):
        shares = (PayoutShare("A", Fraction(1, 3)), PayoutShare("B", Fraction(1, 3)),
                  PayoutShare("C", Fraction(1, 3)))
        for balance in range(0, 50):
            outputs = resolve_payout(shares, balance)
            assert sum(o.value for o in outputs) == balance


class TestSerialization:
    def test_round_trip(self, bo3_tree):
        data = contract_to_dict(bo3_tree)
        again = contract_from_dict(json.loads(json.dumps(data)))
        assert contract_to_dict(again) == data

    @pytest.mark.parametrize("seed", range(100))
    def test_random_tree_round_trip(self, seed):
        tree = random_tree(seed)[0]
        data = contract_to_dict(tree)
        again = contract_from_dict(json.loads(json.dumps(data)))
        assert contract_to_dict(again) == data
        assert [again.node(n).edge for n in iter_preorder(again)] \
            == [tree.node(n).edge for n in iter_preorder(tree)]

    def test_edge_entries_fold_into_one_edge(self):
        data = {"participants": ["A", "B"], "deposits": {"A": 5, "B": 5}, "fee": 0,
                "secrets": [{"label": "S", "owner": "A"}],
                "nodes": {"name": "R", "children": [
                    {"name": "L", "outputs": [{"to": "A", "share": "1"}],
                     "edge": [{"after": 3}, {"auth": ["B"]}, {"reveal": "S"},
                              {"after": 5}, {"auth": ["A"]}]}]}}
        tree = contract_from_dict(data)
        assert tree.node(1).edge == Edge(5, frozenset({"A", "B"}), ("S",))
        assert tree.node(0).edge is NO_EDGE
        assert contract_to_dict(tree)["nodes"]["children"][0]["edge"] == [
            {"auth": ["A", "B"]}, {"reveal": "S"}, {"after": 5}]

    def test_three_party_round_trip(self, three_party):
        data = contract_to_dict(three_party)
        again = contract_from_dict(data)
        assert contract_to_dict(again) == data

    def test_deep_round_trip_without_recursion(self):
        # Deeper than the interpreter's default recursion limit of 1000.
        deep = chain_tree(1500)
        again = contract_from_dict(contract_to_dict(deep))
        assert names(again, iter_preorder(again)) == names(deep, iter_preorder(deep))
        assert contract_from_dict(contract_to_dict(again)) == again

    def test_bad_edge_requirement_rejected(self):
        data = {"participants": ["A"], "deposits": {"A": 5}, "fee": 0,
                "nodes": {"name": "R", "edge": [{"frobnicate": 3}],
                          "outputs": [{"to": "A", "share": "1"}]}}
        with pytest.raises(ContractParseError):
            contract_from_dict(data)

    def test_missing_fields_rejected(self, bo3_tree):
        with pytest.raises(ContractParseError):
            contract_from_dict({"participants": ["A"]})
        # A string or an object is not a list of participants, even when
        # iterating it yields plausible names.
        for participants in ("AB", {"A": 1, "B": 2}):
            data = dict(contract_to_dict(bo3_tree), participants=participants)
            with pytest.raises(ContractParseError, match="participants must be a list"):
                contract_from_dict(data)
