"""Synthetic contract generators for scaling and robustness studies.

``chain_tree`` and ``complete_binary_tree`` produce the two regular
shapes used to measure how message counts grow with contract size;
``random_tree`` produces seeded arbitrary contracts (tree shape, edge
requirements, deposits, payouts) together with a runnable branch and an
oracle schedule for the secrets on that branch.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Tuple

from .contract import (
    NO_EDGE,
    ContractTree,
    Edge,
    NodeId,
    NodeTemplate,
    PayoutShare,
    SecretDecl,
    deepest_leaf_path,
)


def _even_split(participants: Tuple[str, ...]) -> Tuple[PayoutShare, ...]:
    share = Fraction(1, len(participants))
    return tuple(PayoutShare(p, share) for p in participants)


def _checked(tree: ContractTree) -> ContractTree:
    errors = tree.compiled.errors
    if errors:
        raise ValueError("generated tree is malformed: " + "; ".join(map(str, errors)))
    return tree


def chain_tree(n: int) -> ContractTree:
    """A two-party contract of ``n`` nodes in a single line, no edge
    requirements.  Each deposit, 2n + 4, comfortably covers all fees."""
    if n < 1:
        raise ValueError("a chain needs at least one node")
    participants = ("A", "B")
    nodes: Dict[NodeId, NodeTemplate] = {}
    for i in range(1, n + 1):
        children = (i + 1,) if i < n else ()
        outputs = _even_split(participants) if i == n else ()
        nodes[i] = NodeTemplate(i, f"N{i}", outputs=outputs, children=children)
    return _checked(ContractTree(
        participants=participants,
        deposits={p: 2 * n + 4 for p in participants},
        fee=1, root=1, nodes=nodes))


def complete_binary_tree(height: int) -> ContractTree:
    """A two-party complete binary tree of the given edge-height
    (2^(height+1) - 1 nodes), level-ordered, no edge requirements."""
    if height < 0:
        raise ValueError("height must be non-negative")
    n = 2 ** (height + 1) - 1
    participants = ("A", "B")
    nodes: Dict[NodeId, NodeTemplate] = {}
    for i in range(1, n + 1):
        children = tuple(c for c in (2 * i, 2 * i + 1) if c <= n)
        outputs = _even_split(participants) if not children else ()
        nodes[i] = NodeTemplate(i, f"N{i}", outputs=outputs, children=children)
    return _checked(ContractTree(
        participants=participants,
        deposits={p: 4 * (height + 2) for p in participants},
        fee=1, root=1, nodes=nodes))


def random_tree(seed: int) -> Tuple[ContractTree, List[str], List[Tuple[int, str]]]:
    """A seeded arbitrary contract plus a runnable branch.

    Returns ``(tree, path_names, oracle_schedule)`` where the branch
    descends to the deepest leaf and the schedule reveals that branch's
    secrets at heights 2, 4, 6, ... in branch order.
    """
    rng = random.Random(seed)
    participants = ("A", "B", "C")[: rng.choice((2, 3))]
    n = rng.randint(2, 12)
    secrets: List[SecretDecl] = []
    nodes: Dict[NodeId, NodeTemplate] = {}
    children: Dict[NodeId, List[NodeId]] = {i: [] for i in range(1, n + 1)}
    edges: Dict[NodeId, Edge] = {1: NO_EDGE}
    for i in range(2, n + 1):
        parent = rng.randint(1, i - 1)
        children[parent].append(i)
        roll = rng.random()
        if roll < 0.45:
            edges[i] = NO_EDGE
        elif roll < 0.70:
            label = f"S{i}"
            secrets.append(SecretDecl(label, "oracle"))
            edges[i] = Edge(reveals=(label,))
        elif roll < 0.85:
            edges[i] = Edge(wait=rng.randint(1, 2))
        else:
            count = rng.randint(1, len(participants))
            edges[i] = Edge(auth=frozenset(rng.sample(participants, count)))
    for i in range(1, n + 1):
        kids = tuple(children[i])
        if kids:
            outputs: Tuple[PayoutShare, ...] = ()
        elif rng.random() < 0.5:
            outputs = _even_split(participants)
        else:
            outputs = (PayoutShare(rng.choice(participants), Fraction(1)),)
        nodes[i] = NodeTemplate(i, f"N{i}", edge=edges[i], outputs=outputs,
                                children=kids)
    tree = _checked(ContractTree(
        participants=participants,
        deposits={p: rng.randint(30, 50) for p in participants},
        fee=1, root=1, nodes=nodes, secrets=tuple(secrets)))
    path_ids = deepest_leaf_path(tree)
    path_names = [tree.node(i).name for i in path_ids]
    oracle: List[Tuple[int, str]] = []
    height = 2
    for node_id in path_ids[1:]:
        for label in tree.node(node_id).edge.reveals:
            oracle.append((height, label))
            height += 2
    return tree, path_names, oracle
