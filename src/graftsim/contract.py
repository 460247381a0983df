"""Contract trees: transaction templates arranged as a rooted tree.

A contract is a tree of named transaction templates.  The root collects
the participants' deposits; every other node spends its parent's single
"continuation" output.  Each edge carries the requirements that must be
met to redeem the parent into the child: signatures from named
participants, revealed secrets, or a minimum wait in blocks.  Leaves
distribute the remaining balance to participants as fractional shares,
so the same tree can be instantiated with different fee totals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Sequence, Set, Tuple, Union

# Beneficiary sentinel for the single output of an internal node, spent by
# whichever child transaction is appended next.
CONTINUATION = "contract"

# What the canonical transaction encoding (``witness.tx_digest``) can hold:
# amounts in 64 bits, relative timelocks in 32 bits, names in a 16-bit
# length prefix, input and output counts in 16 bits.  A participant's name
# also names its deposit transaction, "Dep_<name>", hence the four bytes of
# headroom.  The anchor spends one deposit per participant, and a leaf pays
# each participant at most once, so one bound holds both counts.
MAX_AMOUNT = 2 ** 64 - 1
MAX_TIMELOCK = 2 ** 32 - 1
MAX_NAME_BYTES = 2 ** 16 - 1 - len("Dep_")
MAX_PARTICIPANTS = 2 ** 16 - 1

NodeId = int


class UnknownNodeError(KeyError):
    pass


class PathError(ValueError):
    """A list of node names, each in the tree, that is not a walk down it
    from the root."""


class ContractParseError(ValueError):
    pass


def is_int(value: object) -> bool:
    """Is ``value`` a JSON integer?  A bool, a float or a numeric string
    is not, whatever ``int()`` would make of it."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_utf8(text: str) -> bool:
    """Can UTF-8 encode ``text``?  Not if it holds a lone surrogate, as
    JSON's ``"\\ud800"`` loads."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _name(value: object, what: str) -> str:
    """``value`` if it is a JSON string UTF-8 can encode; ``str()`` would
    make a name of anything."""
    if not isinstance(value, str):
        raise ContractParseError(f"{what} must be strings, got {value!r}")
    if not (value.isascii() or is_utf8(value)):  # ASCII, as most names are, is UTF-8
        raise ContractParseError(f"{what} must be UTF-8 text, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Edges

@dataclass(frozen=True)
class Edge:
    """What redeeming the parent into this node takes: at least ``wait``
    blocks since the previous step, a signature from each participant in
    ``auth`` granted at execution time, and an opening of each secret
    commitment in ``reveals``."""
    wait: int = 0
    auth: FrozenSet[str] = frozenset()
    reveals: Tuple[str, ...] = ()


# Shared by every node without requirements, so their compiled instances
# also share one empty signer set.
NO_EDGE = Edge()


@dataclass(frozen=True)
class PayoutShare:
    """A leaf pays ``to`` this ``share`` of the balance left there.

    ``validate_tree`` checks a leaf's shares in integers: each share's
    sign on its numerator, its numerator and denominator against
    ``MAX_AMOUNT``, and their sum as ``sum(n * (L // d)) == L`` with ``L``
    the least common multiple of the denominators.  A share may be an
    ``int``; the file's text form is read by ``contract_from_dict``."""
    to: str
    share: Fraction


class OutputSpec(NamedTuple):
    """A concrete transaction output: an integer value and who may spend it."""
    value: int
    beneficiary: str


@dataclass(frozen=True)
class SecretDecl:
    label: str
    owner: str  # a participant, or an external party such as "oracle"


# Slots keep each node small: a tree, with its compiled record, may be
# kept across many runs.
@dataclass(frozen=True, slots=True)
class NodeTemplate:
    id: NodeId
    name: str
    edge: Edge = NO_EDGE
    outputs: Tuple[PayoutShare, ...] = ()  # non-empty exactly at leaves
    children: Tuple[NodeId, ...] = ()


@dataclass(frozen=True)
class ContractTree:
    """A contract.  It is never changed once built: ``replace`` and
    ``with_fee`` make a new tree, so what ``compiled`` holds never goes
    stale."""
    participants: Tuple[str, ...]
    deposits: Dict[str, int]
    fee: int
    root: NodeId
    nodes: Dict[NodeId, NodeTemplate]
    secrets: Tuple[SecretDecl, ...] = ()

    def node(self, node_id: NodeId) -> NodeTemplate:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def deposit_total(self) -> int:
        return sum(self.deposits.values())

    def with_fee(self, fee: int) -> "ContractTree":
        return replace(self, fee=fee)

    @cached_property
    def compiled(self) -> "Compiled":
        """This tree's compiled record, built on the first read and kept
        in the tree, so it lives exactly as long as the tree."""
        return Compiled(self)


@dataclass(frozen=True)
class StructuralError:
    kind: str
    where: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"{self.kind} at {self.where}: {self.detail}"


# ---------------------------------------------------------------------------
# Structural queries

def iter_preorder(tree: ContractTree) -> Iterator[NodeId]:
    stack = [tree.root]
    while stack:
        node_id = stack.pop()
        yield node_id
        stack.extend(reversed(tree.node(node_id).children))


def deepest_leaf_path(tree: ContractTree) -> List[NodeId]:
    """Root-to-leaf path to the deepest leaf (ties broken by smallest id),
    from one walk that keeps each node's depth and parent."""
    parent: Dict[NodeId, NodeId] = {}
    best, stack = (0, tree.root), [(tree.root, 0)]  # the best leaf as (-depth, id)
    while stack:
        node_id, depth = stack.pop()
        children = tree.node(node_id).children
        for child in children:
            parent[child] = node_id
            stack.append((child, depth + 1))
        if not children:
            best = min(best, (-depth, node_id))
    path = [best[1]]
    while path[-1] != tree.root:
        path.append(parent[path[-1]])
    return path[::-1]


def resolve_path(tree: ContractTree, names: Sequence[str]) -> List[NodeId]:
    """Translate a root-to-descendant list of node names into ids.  A name
    no node has raises ``UnknownNodeError``; a walk that leaves the tree's
    edges raises ``PathError``."""
    def off_path(name: str, fault: str) -> Exception:
        if all(node.name != name for node in tree.nodes.values()):
            return UnknownNodeError(name)
        return PathError(fault)
    if not names:
        return []
    root = tree.node(tree.root)
    if names[0] != root.name:
        raise off_path(names[0], f"must start at the root {root.name!r}")
    ids = [tree.root]
    for name in names[1:]:
        for child in tree.node(ids[-1]).children:
            if tree.node(child).name == name:
                ids.append(child)
                break
        else:
            raise off_path(name, f"steps off the tree: {name!r} is not a child of "
                                 f"{tree.node(ids[-1]).name!r}")
    return ids


def subtree_heights(tree: ContractTree) -> Dict[NodeId, int]:
    """Each node's ``subtree_height``: the edges on its longest path to a leaf."""
    nodes = tree.nodes
    order = [tree.root]
    # Breadth first, each node's children appended as the loop reaches
    # it; reversed, the order visits every child before its parent.
    below = []
    for n in order:
        children = nodes[n].children
        below.append(children)
        order.extend(children)
    height: Dict[NodeId, int] = {}
    for n, children in zip(reversed(order), reversed(below)):
        tallest = -1
        for c in children:
            if height[c] > tallest:
                tallest = height[c]
        height[n] = tallest + 1
    return height


def resolve_payout(shares: Tuple[PayoutShare, ...], balance: int) -> Tuple[OutputSpec, ...]:
    """Turn fractional shares into integer outputs over ``balance``.

    Each share is floored; any remainder goes to the lexicographically
    first beneficiary of the leaf.  Outputs are emitted in beneficiary
    order so the result is canonical.
    """
    ordered = sorted(shares, key=lambda s: s.to)
    amounts = {s.to: (balance * s.share.numerator) // s.share.denominator for s in ordered}
    remainder = balance - sum(amounts.values())
    if remainder:
        amounts[ordered[0].to] += remainder
    return tuple(OutputSpec(amounts[s.to], s.to) for s in ordered)


# ---------------------------------------------------------------------------
# Validation

def _payout_faults(outputs: Tuple[PayoutShare, ...], members: Set[str]) -> List[Tuple[str, str]]:
    """The (kind, detail) of each fault of a leaf's payouts.  The shares
    are checked in integers (see ``PayoutShare``).  Their ``Fraction``
    sum is built only to word a mismatch, and written out unless its
    terms pass the interpreter's limit on converting an int to text."""
    faults = []
    shares = [s.share for s in outputs]
    whole = lcm(*[share.denominator for share in shares])
    if sum([share.numerator * (whole // share.denominator) for share in shares]) != whole:
        total = sum(shares, Fraction(0))
        try:
            detail = f"leaf shares sum to {total}, expected 1"
        except ValueError:
            detail = "leaf shares sum to a fraction too long to print, expected 1"
        faults.append(("BalanceMismatch", detail))
    if len({s.to for s in outputs}) < len(outputs):
        faults.append(("DuplicatePayout", "a beneficiary is paid twice"))
    for s in outputs:
        if s.to not in members:
            faults.append(("UnknownParticipant", f"payout to {s.to!r}"))
        numerator, denominator = s.share.numerator, s.share.denominator
        if numerator < 0:
            faults.append(("NegativeValue", f"negative share for {s.to}"))
        if abs(numerator) > MAX_AMOUNT or denominator > MAX_AMOUNT:
            faults.append(("TooLarge", f"the share for {s.to} has a term over {MAX_AMOUNT}"))
    return faults


def validate_tree(tree: ContractTree) -> List[StructuralError]:
    """Structural checks; an empty result means the tree is well formed."""
    errors: List[StructuralError] = []

    def err(kind: str, where: str, detail: str) -> None:
        errors.append(StructuralError(kind, where, detail))

    if tree.fee < 0:
        err("NegativeValue", "fee", f"fee is {tree.fee}")
    if not tree.participants:
        err("NoParticipants", "contract", "a contract needs at least one participant")
    members: Set[str] = set()
    for p in tree.participants:
        if p in members:
            err("DuplicateParticipant", p, "participant listed twice")
        members.add(p)
        if p == CONTINUATION:
            err("ReservedName", p, f"participant name {CONTINUATION!r} is reserved")
        if p not in tree.deposits:
            err("MissingDeposit", p, "participant has no deposit")
    for p, value in tree.deposits.items():
        if p not in members:
            err("UnknownParticipant", p, "deposit from a non-participant")
        if value < 0:
            err("NegativeValue", p, f"deposit is {value}")

    for node_id, template in tree.nodes.items():
        if template.id != node_id:
            err("IdMismatch", template.name, f"keyed {node_id}, declares {template.id}")

    if tree.root not in tree.nodes:
        err("UnknownNode", str(tree.root), "root id not present")
        return errors

    # Reachability / single-parent / acyclicity in one sweep.
    seen: Dict[NodeId, NodeId] = {}
    stack = [tree.root]
    while stack:
        node_id = stack.pop()
        template = tree.nodes.get(node_id)
        if template is None:
            err("UnknownNode", str(node_id), "child id not present")
            continue
        for child in template.children:
            if child in seen or child == tree.root:
                err("NotATree", tree.nodes[child].name if child in tree.nodes else str(child),
                    "node has more than one parent or closes a cycle")
                continue
            seen[child] = node_id
            stack.append(child)
    reachable = set(seen) | {tree.root}
    for node_id in tree.nodes:
        if node_id not in reachable:
            err("Orphan", tree.nodes[node_id].name, "unreachable from the root")

    declared = {s.label for s in tree.secrets}
    if len(declared) != len(tree.secrets):
        err("DuplicateSecret", "secrets", "secret label declared twice")
    for s in tree.secrets:
        if s.owner != "oracle" and s.owner not in members:
            err("UnknownParticipant", s.label, f"secret owner {s.owner!r} unknown")

    if tree.nodes[tree.root].edge != NO_EDGE:
        err("RootEdge", tree.nodes[tree.root].name, "the root has no parent edge to satisfy")

    nodes, pot, fee = tree.nodes, tree.deposit_total(), tree.fee
    # Each payout tuple's faults, found once per call: leaves that pay
    # alike share one tuple (see ``contract_from_dict``), and the tree
    # keeps every tuple alive, so its id is a key for the call.
    faults: Dict[int, List[Tuple[str, str]]] = {}
    # Preorder, each node with the transactions from the root down to it.
    stack = [(tree.root, 1)] if not errors else []
    while stack:
        node_id, steps = stack.pop()
        template = nodes[node_id]
        where = template.name
        edge = template.edge
        if edge is not NO_EDGE:
            for signer in sorted(edge.auth):
                if signer not in members:
                    err("UnknownParticipant", where, f"edge signer {signer!r} unknown")
            for label in edge.reveals:
                if label not in declared:
                    err("UnknownSecret", where, f"edge reveals undeclared {label!r}")
            if edge.wait < 0:
                err("NegativeValue", where, f"negative wait {edge.wait}")
            elif edge.wait > MAX_TIMELOCK:
                err("TooLarge", where, f"wait {edge.wait} is over {MAX_TIMELOCK}")
        outputs = template.outputs
        if template.children:
            if outputs:
                err("BalanceMismatch", where, "internal node declares leaf payouts")
            stack.extend([(child, steps + 1) for child in reversed(template.children)])
        else:
            found = faults.get(id(outputs))
            if found is None:
                found = faults[id(outputs)] = _payout_faults(outputs, members)
            for kind, detail in found:
                err(kind, where, detail)
        # Funds left here on-chain: the pot less one fee per transaction down to it
        if pot - fee * steps < 0:
            err("NegativeBalance", where, "fees exceed the deposits on this path")

    if len(tree.participants) > MAX_PARTICIPANTS:
        err("TooLarge", "participants", f"more than {MAX_PARTICIPANTS} participants")
    if tree.deposit_total() > MAX_AMOUNT:
        err("TooLarge", "deposits", f"the deposits total more than {MAX_AMOUNT}")
    names = list(tree.participants) + [t.name for t in tree.nodes.values()]
    if not is_utf8("".join(names + [s.label for s in tree.secrets])):
        err("BadName", "names", "a name holds a lone surrogate, which UTF-8 cannot encode")
    elif any(len(name.encode("utf-8")) > MAX_NAME_BYTES for name in names):
        err("TooLarge", "names", f"a name is longer than {MAX_NAME_BYTES} bytes")

    return errors


class Compiled:
    """What compiling a tree computes once for all its runs: the
    ``validate_tree`` verdict, ``errors``, and each node's
    ``subtree_height``, ``heights``; in ``runs``, the compilation of each
    (seed, mode, t) a run has asked for, which ``harness.run`` fills; and
    in ``paths``, each path a run has followed, by its node names, as the
    node after each of its nodes.  Empty ``heights`` means the tree is no
    tree to walk."""

    __slots__ = ("errors", "heights", "runs", "paths")

    def __init__(self, tree: ContractTree) -> None:
        self.errors = validate_tree(tree)
        # A walk needs every child present and no node reached twice.
        walkable = all(e.kind not in ("UnknownNode", "NotATree") for e in self.errors)
        self.heights = subtree_heights(tree) if walkable else {}
        self.runs: Dict[Tuple[int, str, int], object] = {}
        self.paths: Dict[Tuple[str, ...], Dict[NodeId, NodeId]] = {}


# ---------------------------------------------------------------------------
# File format: one JSON object per contract

def _edge_from_list(entries: List, where: str) -> Edge:
    """Fold the file's edge entries into one ``Edge``: the longest wait,
    every signer named, and the reveals in declaration order."""
    if not entries:
        return NO_EDGE
    wait = 0
    auth: Set[str] = set()
    reveals: List[str] = []
    for obj in entries:
        if not isinstance(obj, dict) or len(obj) != 1:
            raise ContractParseError(f"{where}: each edge entry is a one-key object")
        key, value = next(iter(obj.items()))
        if key == "auth":
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise ContractParseError(f"{where}: auth takes a list of participant names")
            auth.update(value)
        elif key == "reveal":
            if not isinstance(value, str):
                raise ContractParseError(f"{where}: reveal takes a secret label")
            reveals.append(value)
        elif key == "after":
            if not is_int(value) or value < 0:
                raise ContractParseError(f"{where}: after takes a non-negative block count")
            wait = max(wait, value)
        else:
            raise ContractParseError(f"{where}: unknown edge requirement {key!r}")
    return Edge(wait, frozenset(auth), tuple(reveals))


# No share within the amount bound, save a zero, needs an exponent past
# this in size: the integer and decimal digits of a share's text are each
# read as one int, which the interpreter holds to 4,300 digits.
_MAX_EXPONENT = 10_000


def _share(text: str) -> Fraction:
    """``Fraction(text)``, or ``ValueError`` if ``text`` is no share or its
    numerator or denominator is over ``MAX_AMOUNT``.  ``Fraction`` builds
    ``10 ** exponent`` before it reduces, so an exponent over
    ``_MAX_EXPONENT`` in size is refused first: a short text cannot ask
    for a number of unbounded size."""
    _, e, exponent = text.lower().rpartition("e")
    if e and abs(int(exponent)) > _MAX_EXPONENT:
        raise ValueError(f"share {text!r} has an exponent over {_MAX_EXPONENT}")
    share = Fraction(text)
    if abs(share.numerator) > MAX_AMOUNT or share.denominator > MAX_AMOUNT:
        raise ValueError(f"share {text!r} has a term over {MAX_AMOUNT}")
    return share


def _edge_to_list(edge: Edge) -> List[Dict]:
    entries: List[Dict] = [{"auth": sorted(edge.auth)}] if edge.auth else []
    entries += [{"reveal": label} for label in edge.reveals]
    if edge.wait:
        entries.append({"after": edge.wait})
    return entries


def contract_from_dict(data: Dict) -> ContractTree:
    try:
        if not isinstance(data["participants"], list):
            raise TypeError("participants must be a list")
        participants = tuple(sorted(_name(p, "participant names") for p in data["participants"]))
        deposits = {_name(k, "deposit keys"): v for k, v in data["deposits"].items()}
        fee = data["fee"]
        bad = [v for v in (fee, *deposits.values()) if not is_int(v)]
        if bad:
            raise TypeError(f"the fee and deposits must be integers, got {bad[0]!r}")
        secrets = tuple(SecretDecl(_name(s["label"], "secret labels"),
                                   _name(s["owner"], "secret owners"))
                        for s in data.get("secrets", []))
        root_obj = data["nodes"]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ContractParseError(f"missing or malformed contract field: {exc}") from exc

    nodes: Dict[NodeId, NodeTemplate] = {}
    counter = iter(range(10 ** 9))
    # Read once per parse: each distinct share text, and each distinct list
    # of (beneficiary, share text) pairs, so leaves that pay alike share
    # one tuple of outputs.
    shares: Dict[str, Fraction] = {}
    payouts: Dict[Tuple[Tuple[str, str], ...], Tuple[PayoutShare, ...]] = {(): ()}

    def open_node(obj) -> Tuple[NodeId, str, Edge, Tuple, Iterator, List[NodeId]]:
        try:
            name = _name(obj["name"], "node names")
        except (KeyError, TypeError) as exc:
            raise ContractParseError(f"node without a name: {exc}") from exc
        edge_list = obj.get("edge", [])
        output_list = obj.get("outputs", [])
        children = obj.get("children", [])
        if not (isinstance(edge_list, list) and isinstance(output_list, list)
                and isinstance(children, list)):
            raise ContractParseError(f"{name}: edge, outputs and children must be lists")
        edge = _edge_from_list(edge_list, name)
        pairs = []
        for entry in output_list:
            try:
                pair = (_name(entry["to"], "payout beneficiaries"), str(entry["share"]))
                if pair[1] not in shares:
                    shares[pair[1]] = _share(pair[1])
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise ContractParseError(f"{name}: bad payout entry: {exc}") from exc
            pairs.append(pair)
        key = tuple(pairs)
        outputs = payouts.get(key)
        if outputs is None:
            outputs = payouts[key] = tuple([PayoutShare(to, shares[text]) for to, text in key])
        return next(counter), name, edge, outputs, iter(children), []

    # A nested walk on an explicit stack, so depth costs no interpreter
    # frames: ids follow preorder, and a node is built once its children are.
    stack = [open_node(root_obj)]
    while stack:
        node_id, name, edge, outputs, pending, kids = stack[-1]
        for child in pending:
            stack.append(open_node(child))
            break
        else:
            stack.pop()
            nodes[node_id] = NodeTemplate(node_id, name, edge, outputs, tuple(kids))
            if stack:
                stack[-1][5].append(node_id)
    return ContractTree(participants, deposits, fee, 0, nodes, secrets)


def contract_to_dict(tree: ContractTree) -> Dict:
    # Flat, then linked: every node's dict in preorder, then each one's
    # children, so depth costs no recursion.
    dumped: Dict[NodeId, Dict] = {}
    for node_id in iter_preorder(tree):
        template = tree.node(node_id)
        dumped[node_id] = {
            "name": template.name,
            "edge": _edge_to_list(template.edge),
            "outputs": [{"to": s.to, "share": str(s.share)} for s in template.outputs],
            "children": [],
        }
    for node_id, entry in dumped.items():
        entry["children"] = [dumped[c] for c in tree.node(node_id).children]
    return {
        "participants": list(tree.participants),
        "deposits": dict(sorted(tree.deposits.items())),
        "fee": tree.fee,
        "secrets": [{"label": s.label, "owner": s.owner} for s in tree.secrets],
        "nodes": dumped[tree.root],
    }


def load_contract_file(path: Union[str, Path]) -> ContractTree:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or an int past the digit limit
        raise ContractParseError(f"{path}: {exc}") from exc
    except RecursionError:
        raise ContractParseError(f"{path}: JSON nested too deeply to parse") from None
    if not isinstance(data, dict):
        raise ContractParseError(f"{path}: expected a single JSON object")
    return contract_from_dict(data)
