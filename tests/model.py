"""Closed forms for what a cooperative run costs, independent of the package.

Each function takes plain data, so nothing here depends on how the
package compiles, exchanges or schedules: a contract is a map from each
node to its children, and a branch is the list of nodes a run descends,
the root first.

Signature messages of a cooperative run to the branch's leaf, with
``P`` participants and ``|N|`` nodes.  Every ordered pair of participants
exchanges one signature per transaction it signs:

* on-chain, stipulation signs every node: ``P(P-1)·|N|``;
* off-chain, stipulation signs Head, Init and the shadow copy of every
  node, and each step to a child ``c`` of the branch signs a graft of
  the subtree at ``c``: ``P(P-1)·(|N| + 2 + Σ |subtree(c)|)`` over the
  branch's nodes below the root.
"""

from typing import Hashable, Mapping, Sequence

Children = Mapping[Hashable, Sequence[Hashable]]


def subtree_size(children: Children, node: Hashable) -> int:
    """Nodes in the subtree at ``node``, itself included."""
    count, stack = 0, [node]
    while stack:
        count += 1
        stack.extend(children[stack.pop()])
    return count


def signature_messages(parties: int, children: Children, branch: Sequence[Hashable],
                       mode: str) -> int:
    """Signature messages of a cooperative ``mode`` run down ``branch``."""
    pairs = parties * (parties - 1)
    if mode == "onchain":
        return pairs * len(children)
    if mode != "offchain":
        raise ValueError(f"unknown mode {mode!r}")
    grafts = sum(subtree_size(children, child) for child in branch[1:])
    return pairs * (len(children) + 2 + grafts)
