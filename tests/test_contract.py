"""Structural model: tree queries, validation, payouts, serialization."""

import json
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from graftsim.contract import (
    CONTINUATION,
    MAX_AMOUNT,
    MAX_NAME_BYTES,
    MAX_PARTICIPANTS,
    MAX_TIMELOCK,
    NO_EDGE,
    ContractParseError,
    ContractTree,
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
    load_contract_file,
    resolve_path,
    resolve_payout,
    subtree_heights,
    validate_tree,
)
from graftsim import contract as contract_module
from graftsim.offchain import compile_offchain
from graftsim.onchain import compile_onchain
from graftsim.treegen import chain_tree, complete_binary_tree, random_tree
from graftsim.witness import CommitmentSet

from drivers import (
    balance_at,
    deepest_leaf_path_by_walks,
    leaf_errors_by_fractions,
    leaves,
    parent_map,
    path_to,
    subtree_height,
    subtree_heights_by_preorder,
    subtree_size,
)


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

    def test_deepest_leaf_path_ties_go_to_the_smallest_id_not_the_first(self, three_party):
        # T4 (id 4) and T5 (id 5) are the depth-2 leaves; preorder lists T1,
        # T4, T5, T3, so the ids of the leaves are not in preorder.
        path = deepest_leaf_path(three_party)
        assert names(three_party, path) == ["T0", "T2", "T4"]
        assert path == deepest_leaf_path_by_walks(three_party)


def relabeled(tree, order):
    """``tree`` with its node ids renumbered in ``order``, the i-th id of
    the preorder becoming ``order[i]``, so that ids need not follow the
    preorder, nor ties between leaves of equal depth the walk."""
    new = dict(zip(iter_preorder(tree), order))
    nodes = {new[i]: replace(node, id=new[i], children=tuple(new[c] for c in node.children))
             for i, node in tree.nodes.items()}
    return replace(tree, root=new[tree.root], nodes=nodes)


@settings(deadline=None)
@given(seed=st.integers(0, 10**6), length=st.integers(1, 40), height=st.integers(0, 5),
       data=st.data())
def test_deepest_leaf_path_equals_the_three_walks(seed, length, height, data):
    """The one-walk path against the reference's three walks, over a
    drawn ``random_tree``, a chain, a complete binary tree and each of
    them with its ids shuffled."""
    for tree in (random_tree(seed)[0], chain_tree(length), complete_binary_tree(height)):
        order = data.draw(st.permutations(range(len(tree.nodes))), label="order")
        for case in (tree, relabeled(tree, order)):
            assert deepest_leaf_path(case) == deepest_leaf_path_by_walks(case)


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

    # A lone surrogate, as JSON's "\ud800" loads, has no UTF-8 encoding.  The
    # parser refuses it; a tree built in code gets an error, not a traceback.
    @pytest.mark.parametrize("edit", [
        _edit_node(3, name="\ud800"),
        lambda t: {"participants": (*t.participants, "\ud800"),
                   "deposits": {**t.deposits, "\ud800": 1}},
        lambda t: {"secrets": (*t.secrets, SecretDecl("\ud800", "A"))},
    ], ids=["node-name", "participant-name", "secret-label"])
    def test_a_name_utf8_cannot_encode_is_an_error(self, three_party, edit):
        errors = validate_tree(replace(three_party, **edit(three_party)))
        assert [(e.kind, e.where) for e in errors] == [("BadName", "names")]

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


def one_leaf(share) -> dict:
    """A one-node contract whose leaf pays ``A`` the given share."""
    return {"participants": ["A"], "deposits": {"A": 5}, "fee": 0,
            "nodes": {"name": "R", "outputs": [{"to": "A", "share": share}]}}


def parsed_share(share) -> Fraction:
    return contract_from_dict(one_leaf(share)).node(0).outputs[0].share


def fraction_or_none(text: str):
    """What ``Fraction`` reads ``text`` as on this interpreter, or None if
    it refuses it: it takes underscores between digits from Python 3.11
    on, and spaces around "/" from 3.12 on."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def assert_parsed_as_fraction_reads(text: str) -> None:
    expected = fraction_or_none(text)
    if expected is None or max(abs(expected.numerator), expected.denominator) > MAX_AMOUNT:
        with pytest.raises(ContractParseError):
            parsed_share(text)
    else:
        assert parsed_share(text) == expected


class TestShares:
    @pytest.mark.parametrize("text", [
        "1", "1/2", " 3/4\n", "0.25", ".5", "1.", "1.e1", "-2.5e-1", "2E-3", "\u0663/\u0664",
        "18446744073709551615", "1/18446744073709551615", "1e19", "1e-19",
        "100000000000000000000e-20", "0/7", "0e19", "-0.0e-19",
        "0." + "0" * 3999 + "1e4000", "1" + "0" * 4000 + "e-4000"],
        ids=lambda text: text if len(text) < 30 else f"{text[:6]}...{text[-6:]}")
    def test_a_share_reads_as_fraction_reads_it(self, text):
        assert parsed_share(text) == Fraction(text)

    # Forms that ``Fraction`` reads on some supported interpreters only.
    @pytest.mark.parametrize("text", ["+1_000/4_000", "0.000_1e4", "1e1_9", "1 / 2", "1/ 2"])
    def test_a_share_in_a_form_of_some_versions_reads_as_fraction_reads_it(self, text):
        assert_parsed_as_fraction_reads(text)

    @pytest.mark.parametrize("share, message", [
        *((share, f"has a term over {MAX_AMOUNT}") for share in [
            "18446744073709551616", "-18446744073709551616", "1/18446744073709551616", "1e20",
            "1e-20", "0.1e-19", "1e5000", "1e10000", "1e-10000", 2 ** 64, 1e300]),
        *((share, "has an exponent over 10000") for share in [
            "1e10001", "1e-10001", "1e999999999", "1e-999999999", "0e999999999"])])
    def test_a_share_past_the_bound_is_refused(self, share, message):
        with pytest.raises(ContractParseError, match=message):
            parsed_share(share)

    @pytest.mark.parametrize("share", ["", "1/0", "1.d", "abc", "1e", "--1", True, None,
                                       [1], 1e400])
    def test_a_share_that_is_no_number_is_refused(self, share):
        with pytest.raises(ContractParseError, match="R: bad payout entry"):
            parsed_share(share)

    def test_each_share_text_is_read_once_per_parse(self, monkeypatch):
        read = []
        share = contract_module._share
        monkeypatch.setattr(contract_module, "_share",
                            lambda text: read.append(text) or share(text))
        data = contract_to_dict(complete_binary_tree(4))
        tree = contract_from_dict(data)
        assert read == ["1/2"]
        # Leaves that pay alike share one tuple of outputs.
        assert len({id(tree.node(n).outputs) for n in leaves(tree)}) == 1
        contract_from_dict(data)
        assert read == ["1/2", "1/2"]


# Texts made of what a share's grammar uses and a few things it does not.
SHARE_TEXTS = st.text(alphabet="0123456789_./eE+- d\u0663\t", max_size=10)


@settings(max_examples=300, deadline=None)
@given(text=SHARE_TEXTS | st.builds("{}{}/{}".format, st.sampled_from(["", "-", "+"]),
                                    st.integers(0, 2 ** 70), st.integers(0, 2 ** 70))
       | st.builds("{}e{}".format, st.decimals(allow_nan=False, allow_infinity=False,
                                               places=4).map(str), st.integers(-40, 40)))
@example(text="1e-2_0")
def test_parsed_shares_equal_fraction(text):
    # Fraction builds 10 ** exponent first, so long exponents are left out.
    assume(not re.search(r"[eE][-+]?[\d_]{4}", text))
    assert_parsed_as_fraction_reads(text)


# Shares with mixed denominators, zero, negative and ``int`` shares, and
# shares past the amount bound.
SHARES = st.one_of(st.fractions(-2, 3, max_denominator=12), st.integers(-1, 2),
                   st.sampled_from([Fraction(0), Fraction(1, MAX_AMOUNT), Fraction(MAX_AMOUNT),
                                    Fraction(MAX_AMOUNT + 1), Fraction(-1, MAX_AMOUNT + 1)]))
PAYOUTS = st.lists(st.builds(PayoutShare, st.sampled_from(["A", "B", "C", "Z"]), SHARES),
                   max_size=4).map(tuple)
# Some payout lists end in the share that brings their sum to 1.
PAYOUTS = PAYOUTS | PAYOUTS.map(lambda outs: outs + (
    PayoutShare("C", 1 - sum((s.share for s in outs), Fraction(0))),))


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(PAYOUTS, min_size=1, max_size=4), data=st.data())
def test_leaf_checks_equal_the_fraction_reference(pool, data):
    # Leaves draw from a pool of payout tuples, so some share one tuple.
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6))
    nodes = {0: NodeTemplate(0, "R", children=tuple(range(1, len(picks) + 1)))}
    for node_id, pick in enumerate(picks, 1):
        nodes[node_id] = NodeTemplate(node_id, f"L{node_id}", outputs=pool[pick])
    tree = ContractTree(("A", "B", "C"), dict.fromkeys("ABC", 10), 0, 0, nodes)
    assert validate_tree(tree) == leaf_errors_by_fractions(tree)


class TestLeafChecks:
    @pytest.mark.parametrize("share", [Fraction(MAX_AMOUNT + 1), Fraction(1, MAX_AMOUNT + 1),
                                       -(MAX_AMOUNT + 1), 10 ** 5000],
                             ids=["numerator", "denominator", "negative-int",
                                  "int-of-5001-digits"])
    def test_a_built_share_past_the_bound_is_too_large(self, three_party, share):
        nodes = dict(three_party.nodes)
        nodes[3] = replace(nodes[3], outputs=(PayoutShare("C", share),))
        kinds = [(e.kind, e.where) for e in validate_tree(replace(three_party, nodes=nodes))]
        assert ("TooLarge", "T3") in kinds

    def test_mixed_denominators_that_sum_to_one_pass(self, three_party):
        # 5/30 + 3/30 + 22/30: the least common multiple, 30, is no
        # denominator of any share.
        nodes = dict(three_party.nodes)
        nodes[1] = replace(nodes[1], outputs=(PayoutShare("A", Fraction(1, 6)),
                                              PayoutShare("B", Fraction(1, 10)),
                                              PayoutShare("C", Fraction(11, 15))))
        nodes[3] = replace(nodes[3], outputs=(PayoutShare("C", 1),))
        assert validate_tree(replace(three_party, nodes=nodes)) == []

    @pytest.mark.parametrize("shares, detail", [
        # 3 ** 10_000 has 4,772 digits, past the interpreter's limit of
        # 4,300 on converting an int to text.
        ([Fraction(1, 3 ** 10_000)], "a fraction too long to print"),
        # Two shares within the bound whose sum's denominator is past it.
        ([Fraction(1, 2 ** 63), Fraction(1, 2 ** 63 - 1)],
         f"{2 ** 64 - 1}/{2 ** 63 * (2 ** 63 - 1)}"),
    ], ids=["too-long-to-print", "terms-past-the-bound"])
    def test_a_mismatched_sum_is_worded(self, three_party, shares, detail):
        nodes = dict(three_party.nodes)
        nodes[3] = replace(nodes[3], outputs=tuple(PayoutShare(to, share)
                                                   for to, share in zip("CA", shares)))
        errors = validate_tree(replace(three_party, nodes=nodes))
        assert [str(e) for e in errors if e.kind == "BalanceMismatch"] == [
            f"BalanceMismatch at T3: leaf shares sum to {detail}, expected 1"]


@pytest.mark.parametrize("tree", [chain_tree(20_000), complete_binary_tree(6),
                                  *(random_tree(seed)[0] for seed in range(20))],
                         ids=["chain20000", "binary6", *(f"random{s}" for s in range(20))])
def test_subtree_heights_equal_the_preorder_reference(tree):
    # chain_tree(20_000) is far deeper than the recursion limit of 1,000.
    heights = subtree_heights_by_preorder(tree)
    assert subtree_heights(tree) == heights


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

    @pytest.mark.parametrize("text", ["[]", '"x"', "1"])
    def test_a_file_holds_one_object(self, tmp_path, text):
        path = tmp_path / "c.contract"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ContractParseError, match="expected a single JSON object"):
            load_contract_file(path)

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
