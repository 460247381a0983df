"""The closed forms of ``model.py`` against cooperative runs of the package."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from graftsim.contract import deepest_leaf_path, resolve_path
from graftsim.harness import MODE_OFFCHAIN, MODE_ONCHAIN, message_census
from graftsim.treegen import chain_tree, complete_binary_tree, random_tree

from model import signature_messages, subtree_size

MODES = (MODE_ONCHAIN, MODE_OFFCHAIN)


def with_parties(tree, count):
    """``tree`` with ``count`` participants, each depositing what the
    first one does; the added ones are paid nothing at the leaves."""
    parties = ("A", "B", "C")[:count]
    deposit = tree.deposits[tree.participants[0]]
    return replace(tree, participants=parties, deposits={p: deposit for p in parties})


def assert_model_counts(tree, path_names, mode, t):
    children = {n: tree.node(n).children for n in tree.nodes}
    branch = resolve_path(tree, path_names)
    expected = signature_messages(len(tree.participants), children, branch, mode)
    assert message_census(tree, path_names, mode=mode, t=t) == expected


def names(tree, ids):
    return [tree.node(i).name for i in ids]


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10**6), mode=st.sampled_from(MODES), t=st.sampled_from((1, 2)))
def test_random_tree_messages_match_the_model(seed, mode, t):
    tree, path_names, _ = random_tree(seed)
    assert_model_counts(tree, path_names, mode, t)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(1, 16), parties=st.sampled_from((2, 3)),
       mode=st.sampled_from(MODES), t=st.sampled_from((1, 2)))
def test_chain_messages_match_the_model(n, parties, mode, t):
    tree = with_parties(chain_tree(n), parties)
    assert_model_counts(tree, names(tree, deepest_leaf_path(tree)), mode, t)


@settings(deadline=None, max_examples=40)
@given(height=st.integers(0, 4), parties=st.sampled_from((2, 3)), leaf=st.data(),
       mode=st.sampled_from(MODES), t=st.sampled_from((1, 2)))
def test_binary_tree_messages_match_the_model(height, parties, leaf, mode, t):
    tree = with_parties(complete_binary_tree(height), parties)
    # Any leaf: in level order they are the last 2^height nodes.
    last = len(tree.nodes)
    node = leaf.draw(st.integers(last - 2 ** height + 1, last))
    branch = [node]
    while branch[-1] != tree.root:
        branch.append(branch[-1] // 2)
    assert_model_counts(tree, names(tree, branch[::-1]), mode, t)


def test_the_model_reproduces_the_two_party_chain_form():
    # ACCEPTANCE 7's closed form for a 2-party chain of n nodes, off-chain:
    # 2(n + 2) + n(n - 1), and 2n on-chain.
    for n in range(1, 12):
        children = {i: [i + 1] if i < n else [] for i in range(1, n + 1)}
        branch = list(range(1, n + 1))
        assert signature_messages(2, children, branch, "offchain") == 2 * (n + 2) + n * (n - 1)
        assert signature_messages(2, children, branch, "onchain") == 2 * n


def test_subtree_size_counts_every_node_once():
    children = {1: [2, 3], 2: [4], 3: [], 4: []}
    assert [subtree_size(children, n) for n in (1, 2, 3, 4)] == [4, 2, 1, 1]
    with pytest.raises(ValueError, match="mode"):
        signature_messages(2, children, [1, 3], "sideways")
