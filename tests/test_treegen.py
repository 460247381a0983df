"""Synthetic contract generators."""

import pytest

from graftsim.contract import (
    NO_EDGE,
    contract_to_dict,
    deepest_leaf_path,
    iter_preorder,
    resolve_path,
    validate_tree,
)
from graftsim.treegen import chain_tree, complete_binary_tree, random_tree

from drivers import leaves, subtree_height


class TestChain:
    def test_shape(self):
        tree = chain_tree(4)
        assert len(list(iter_preorder(tree))) == 4
        assert leaves(tree) == [4]
        assert subtree_height(tree, tree.root) == 3
        for i in range(1, 4):
            assert tree.node(i).children == (i + 1,)
            assert tree.node(i).edge == NO_EDGE

    def test_default_deposit_covers_every_fee(self):
        for n in (1, 2, 8, 16):
            tree = chain_tree(n)
            assert tree.deposit_total() == 2 * (2 * n + 4)
            assert tree.deposit_total() > (n + 2) * tree.fee  # anchors included

    def test_validates(self):
        for n in (1, 2, 5, 16):
            assert validate_tree(chain_tree(n)) == []

    def test_rejects_empty_chain(self):
        with pytest.raises(ValueError):
            chain_tree(0)


class TestBinary:
    def test_shape(self):
        tree = complete_binary_tree(3)
        nodes = list(iter_preorder(tree))
        assert len(nodes) == 15
        assert len(leaves(tree)) == 8
        assert subtree_height(tree, tree.root) == 3
        for i in range(1, 8):
            assert tree.node(i).children == (2 * i, 2 * i + 1)

    def test_single_node_case(self):
        tree = complete_binary_tree(0)
        assert list(iter_preorder(tree)) == [1]
        assert validate_tree(tree) == []

    def test_validates(self):
        for h in range(5):
            assert validate_tree(complete_binary_tree(h)) == []

    def test_rejects_negative_height(self):
        with pytest.raises(ValueError):
            complete_binary_tree(-1)


class TestRandom:
    @pytest.mark.parametrize("seed", range(50))
    def test_always_valid(self, seed):
        tree, path_names, oracle = random_tree(seed)
        assert validate_tree(tree) == []
        path_ids = resolve_path(tree, path_names)
        assert path_ids[0] == tree.root
        assert not tree.node(path_ids[-1]).children

    @pytest.mark.parametrize("seed", range(50))
    def test_branch_is_deepest_and_schedule_covers_it(self, seed):
        tree, path_names, oracle = random_tree(seed)
        path_ids = resolve_path(tree, path_names)
        assert path_ids == deepest_leaf_path(tree)
        on_branch = [label for node_id in path_ids[1:]
                     for label in tree.node(node_id).edge.reveals]
        assert [label for _, label in oracle] == on_branch
        heights = [h for h, _ in oracle]
        assert heights == sorted(heights)
        assert all(h >= 2 and h % 2 == 0 for h in heights)
        owners = {s.label: s.owner for s in tree.secrets}
        assert all(owners[label] == "oracle" for label in on_branch)

    def test_deterministic(self):
        first, path_one, oracle_one = random_tree(7)
        second, path_two, oracle_two = random_tree(7)
        assert contract_to_dict(first) == contract_to_dict(second)
        assert (path_one, oracle_one) == (path_two, oracle_two)

    def test_seeds_differ(self):
        shapes = {json_repr for json_repr in
                  (str(contract_to_dict(random_tree(s)[0])) for s in range(10))}
        assert len(shapes) > 1
