"""On-chain contract execution.

``compile_onchain`` turns a contract tree into concrete transactions:
the root spends the participants' deposits, every other node spends its
parent's continuation output, and edge requirements become
execution-time signature/reveal/timelock conditions.  A compiled subtree
is its root's instance, every node's digest and the body its exchange
signs, one hash per node in one walk (``compile_subtree``); the instance
of any other node is built only when its parent lands on-chain
(``instances_below``), since only a landed node's children can be
appended.  Stipulation then exchanges, pairwise and one signature per
message, everything needed to make the whole tree spendable:

  phase 0  every participant sends the full transaction set to every other
  phase 1  all-participant signatures on every non-root instance
  phase 2  signatures on the root (the deposit-spending transaction), last

A message may only be sent once every lower-phase message has been
delivered, so withholding any single message freezes the exchange before
any deposit can be spent.

``OnchainSession`` runs the compiled contract; off-chain execution
(``offchain.OffchainSession``) extends it with Head as its anchor.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from hashlib import sha256
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

from .contract import (
    CONTINUATION,
    ContractTree,
    NodeId,
    NodeTemplate,
    OutputSpec,
    resolve_payout,
)
from .ledger import (
    EMPTY_WITNESS,
    AppendError,
    AppendWitness,
    ChainState,
    TxInstance,
    make_tx,
)
from .trace import (
    APPEND,
    DEPOSIT,
    SECRET_PUBLISHED,
    STEP_AGREED,
    STEP_PROPOSED,
    STEP_REFUSED,
    STIPULATION_ABORTED,
    STIPULATION_COMPLETE,
    Trace,
    witness_summary,
)
from .witness import (
    EDGE,
    IMPLICIT,
    CommitmentSet,
    Reveal,
    SecretCommitment,
    encode_outputs,
    one_output_template,
    sign,
    spend_templates,
)

# Execution modes
MODE_ONCHAIN = "onchain"
MODE_OFFCHAIN = "offchain"

# Session phases
STIPULATING = "stipulating"
RUNNING = "running"
FAILSAFE = "failsafe"
FINALIZED = "finalized"
ABORTED = "aborted"

# Append roles used in trace events
ROLE_NODE = "node"
ROLE_HEAD = "head"
ROLE_INIT = "init"
ROLE_GRAFT_ROOT = "graft_root"


class ProtocolError(RuntimeError):
    pass


def make_deposits(tree: ContractTree, salt: bytes) -> Dict[str, TxInstance]:
    """Pre-existing deposit transactions, one per participant."""
    return {
        p: make_tx(f"Dep_{p}", salt, (), 0,
                   outputs=(OutputSpec(tree.deposits[p], p),))
        for p in tree.participants
    }


# Shared by every instance whose edge opens no secret.
NO_REVEALS: FrozenSet[SecretCommitment] = frozenset()


class TreeParts(NamedTuple):
    """What one compilation computes for every subtree compiled from it
    (see ``tree_parts``); the rest of a node is read off the tree."""
    salt: bytes
    tree: ContractTree
    everyone: FrozenSet[str]
    # Each node's encoding before and after its parent's raw digest
    # (``spend_templates``).
    nodes: Dict[NodeId, Tuple[bytes, bytes]]
    heights: Dict[NodeId, int]     # each node's ``subtree_height``, the tree's one walk for it
    commitments: CommitmentSet
    # The commitments an edge opens, by its labels, one set per list of labels.
    opened: Dict[Tuple[str, ...], FrozenSet[SecretCommitment]]

    def reveals(self, node: NodeId) -> FrozenSet[SecretCommitment]:
        """The commitments the edge into ``node`` opens."""
        return self.opened[self.tree.nodes[node].edge.reveals]


def tree_parts(tree: ContractTree, commitments: CommitmentSet, salt: bytes) -> TreeParts:
    """Each node's encoding and each edge's commitments, computed once per
    compilation, and the heights from the tree's record
    (``ContractTree.compiled``)."""
    templates = tree.nodes.values()
    encoded = spend_templates(salt, [(node.name, node.edge.wait) for node in templates])
    opened: Dict[Tuple[str, ...], FrozenSet[SecretCommitment]] = {(): NO_REVEALS}
    for node in templates:
        labels = node.edge.reveals
        if labels not in opened:
            opened[labels] = frozenset(commitments[l] for l in labels)
    return TreeParts(salt, tree, frozenset(tree.participants), dict(zip(tree.nodes, encoded)),
                     tree.compiled.heights, commitments, opened)


# A continuation output's encoding, around its value.
_PAY_BEFORE, _PAY_AFTER = one_output_template(CONTINUATION)


def _outputs(node: NodeTemplate, balance: int) -> Tuple[OutputSpec, ...]:
    """``node``'s outputs when ``balance`` is left after its fee."""
    if node.children:
        return (OutputSpec(balance, CONTINUATION),)
    return resolve_payout(node.outputs, balance)


def compile_subtree(
    parts: TreeParts,
    sub_root: NodeId,
    root_inputs: Tuple[Tuple[str, int], ...],
    root_input_value: int,
    root_rel_timelock: int,
) -> Tuple[TxInstance, Dict[NodeId, str], List[Tuple[str, str]]]:
    """Compile the subtree rooted at ``sub_root``: the root's instance, the
    digest of every node in preorder, ``sub_root`` first, and the body its
    exchange signs before the root, the (name, digest) of every other node
    in the same order.  One walk hashes each node and lists it.

    The subtree root spends ``root_inputs`` under ``root_rel_timelock``
    and carries no edge requirements: a contract root has none, and a
    graft root is guarded by the graft timelock and the implicit
    signatures instead.  Every other node spends its parent's
    continuation output under its edge's wait; its instance is built only
    once its parent lands (``instances_below``).  Every transaction burns
    one fee.
    """
    templates, node_parts, fee = parts.tree.nodes, parts.nodes, parts.tree.fee
    top = templates[sub_root]
    root = make_tx(top.name, parts.salt, root_inputs, root_rel_timelock, parts.everyone,
                   outputs=_outputs(top, root_input_value - fee))
    digests, body = {sub_root: root.digest}, []
    # Each leaf output list encoded once per payout tuple and balance, so
    # leaves that pay alike at one depth share it.  The key holds the
    # tuple's id: the tree keeps every tuple alive, and hashing the tuple
    # would hash every share.
    paid: Dict[Tuple[int, int], bytes] = {}
    # Preorder with an explicit stack: a node is hashed before its children,
    # which spend its raw digest.  The walk goes on to a node's first child
    # at once, and its other children wait on the stack in reverse, so
    # they are popped in declaration order and a single-child run of nodes
    # never touches the stack.
    stack = [(child, bytes.fromhex(root.digest), root_input_value - fee)
             for child in reversed(top.children)]
    while stack:
        node_id, parent, value = stack.pop()
        while True:
            node, (before, after) = templates[node_id], node_parts[node_id]
            balance = value - fee
            children = node.children
            if not children:
                key = (id(node.outputs), balance)
                outputs = paid.get(key)
                if outputs is None:
                    outputs = paid[key] = encode_outputs(resolve_payout(node.outputs, balance))
                digest = digests[node_id] = sha256(b"".join((before, parent, after,
                                                             outputs))).hexdigest()
                body.append((node.name, digest))
                break
            raw = sha256(b"".join((before, parent, after, _PAY_BEFORE,
                                   balance.to_bytes(8, "big"), _PAY_AFTER))).digest()
            digest = digests[node_id] = raw.hex()
            body.append((node.name, digest))
            if len(children) > 1:
                for child in children[:0:-1]:
                    stack.append((child, raw, balance))
            node_id, parent, value = children[0], raw, balance
    return root, digests, body


def instances_below(parts: TreeParts, digests: Dict[NodeId, str], tx: TxInstance,
                    node: NodeId) -> Dict[NodeId, TxInstance]:
    """The instances of ``node``'s children, in declaration order, where
    ``tx`` is ``node``'s instance and ``digests`` those of its subtree."""
    templates, spend = parts.tree.nodes, ((tx.digest, 0),)
    balance = tx.outputs[0].value - parts.tree.fee
    below = {}
    for child in templates[node].children:
        template = templates[child]
        below[child] = TxInstance(digests[child], template.name, spend, template.edge.wait,
                                  parts.everyone, frozenset(template.edge.auth),
                                  parts.opened[template.edge.reveals], _outputs(template, balance))
    return below


class OnchainCompilation(NamedTuple):
    """A contract compiled for direct on-chain execution."""
    anchor: TxInstance             # the contract root, spending every deposit
    digests: Dict[NodeId, str]     # every node's, in preorder, the root's first
    stipulation: ExchangeLayout    # every other node's (name, digest) in preorder, then the root
    deposits: Dict[str, TxInstance]
    parts: TreeParts


def compile_onchain(tree: ContractTree, commitments: CommitmentSet,
                    salt: bytes) -> OnchainCompilation:
    """Direct on-chain execution: the root spends every deposit, children
    spend their parent's continuation output.  Compiling does not
    validate."""
    deposits = make_deposits(tree, salt)
    parts = tree_parts(tree, commitments, salt)
    root_inputs = tuple((deposits[p].digest, 0) for p in tree.participants)
    root, digests, body = compile_subtree(parts, tree.root, root_inputs, tree.deposit_total(), 0)
    stipulation = ExchangeLayout.of(tree.participants, body, (root.name, root.digest), True)
    # The contract is the one subtree an on-chain run compiles, so the
    # compilation, which the tree's record keeps, keeps no node's encoding.
    return OnchainCompilation(root, digests, stipulation, deposits, parts._replace(nodes={}))


# ---------------------------------------------------------------------------
# Pairwise message exchange with phase gating

class ExchangeLayout(NamedTuple):
    """The immutable part of an exchange: the ``participants`` in name
    order, the ``body`` items and the ``final`` item, each a (subject,
    digest) pair, and where the body and the final part of each queue
    start.

    Every sender's queue has one shape: a transaction set to each other
    participant in name order (if the exchange opens with them, so that
    ``body_at`` is past 0), then every body item to each other participant
    in turn, then ``final`` to each; the three parts are phases 0, 1 and 2,
    or 0 and 1 without transaction sets.  Its fields are tuples and ints,
    so a trace row that keeps it stays immutable.
    """
    participants: Tuple[str, ...]
    body: Tuple[Tuple[str, str], ...]
    final: Tuple[str, str]
    body_at: int
    final_at: int

    @classmethod
    def of(cls, participants: Sequence[str], body: Sequence[Tuple[str, str]],
           final: Tuple[str, str], include_txset: bool) -> "ExchangeLayout":
        """The layout of an exchange of every participant's signatures on
        ``body`` and then on ``final``, opening with the transaction sets
        if ``include_txset``."""
        ordered = tuple(sorted(participants))
        body_at = len(ordered) - 1 if include_txset else 0
        return cls(ordered, tuple(body), final, body_at, body_at + (len(ordered) - 1) * len(body))

    def segments(self, sender: str, start: int,
                 stop: int) -> Iterator[Tuple[str, Optional[Tuple[Tuple[str, str], ...]]]]:
        """The messages at positions ``start`` to ``stop`` of ``sender``'s
        queue, in order, as runs (recipient, items): the (subject, digest)
        items signed to ``recipient``, one slice of ``body`` or
        ``(final,)``, or None for its transaction set."""
        # ``sender``'s place: the recipients are the others in name order.
        me, at = self.participants.index(sender), start
        while at < stop:
            if at < self.body_at:
                to, items = at, None
            elif at < self.final_at:
                to, item = divmod(at - self.body_at, len(self.body))
                items = self.body[item:item + stop - at]
            else:
                to, items = at - self.final_at, (self.final,)
            yield self.participants[to + (to >= me)], items
            at += len(items) if items else 1


class Exchange:
    """A plan of pairwise messages, kept as its ``layout`` and one count
    per sender: ``sent[sender]`` of its messages are delivered.

    Phase k opens only once every phase < k message is delivered, and each
    sender sends its queue in order.  A phase ends at the same position of
    every queue, so the lowest phase with a message undelivered is the one
    holding the least count short of the queue's end, and every query is
    arithmetic on the counts: one loop over them in name order, which
    stops at its answer where it can, and a bisection of the phase ends
    (``_ends``).  The counts are also the only record of who
    holds which signature (``received``), read at the item ``item_of``
    gives each signed digest; the session maps each signed digest to its
    exchange (``OnchainSession.exchange_of``).
    """

    def __init__(self, layout: ExchangeLayout) -> None:
        self.layout = layout
        ordered = layout.participants
        others = len(ordered) - 1
        # The length of each queue, and where each phase with messages ends in it.
        self.size = layout.final_at + others
        self._ends = sorted({layout.body_at, layout.final_at, self.size} - {0})
        self._rank = {p: i for i, p in enumerate(ordered)}
        self.sent: Dict[str, int] = dict.fromkeys(ordered if others else (), 0)

    def _open_until(self, sender: Optional[str]) -> int:
        """Where the open part of ``sender``'s queue ends: at the end of
        the phase holding the least count of the others short of the end.
        No message ``sender`` sends moves that count."""
        least = size = self.size
        for other, count in self.sent.items():
            if count < least and other != sender:
                least = count
        return self._ends[bisect_right(self._ends, least)] if least < size else size

    def owes(self, sender: str) -> bool:
        """Is ``sender``'s next message open now?"""
        count = self.sent.get(sender)
        return count is not None and count < self._open_until(sender)

    def deliver(self, sender: str) -> range:
        """Send every message of ``sender`` that is open now, and return
        their positions in its queue; none if its next message waits on
        a lower phase."""
        start = self.sent.get(sender)
        if start is None:
            return range(0)
        end = max(start, self._open_until(sender))
        self.sent[sender] = end
        return range(start, end)

    def received(self, recipient: str, signer: str, item: int) -> bool:
        """Has ``signer``'s signature on ``item``, a body index or
        ``len(body)`` for ``final``, reached ``recipient``?  It has once
        ``signer``'s count is past that message's position."""
        rank = self._rank
        if recipient == signer or recipient not in rank or signer not in rank:
            return False
        # ``recipient``'s place among those ``signer`` sends to.
        to = rank[recipient] - (rank[recipient] > rank[signer])
        layout, width = self.layout, len(self.layout.body)
        at = layout.body_at + to * width + item if item < width else layout.final_at + to
        return self.sent[signer] > at

    @cached_property
    def item_of(self) -> Dict[str, int]:
        """Each signed digest's item: its position in ``(*body, final)``.
        Built on the first read, so an exchange whose signatures no
        witness reads never builds it."""
        return {digest: i for i, (_, digest) in enumerate((*self.layout.body, self.layout.final))}

    @property
    def complete(self) -> bool:
        return min(self.sent.values(), default=self.size) == self.size

    def _first_short(self, end: int, skip: Optional[str] = None) -> Optional[str]:
        """The first sender by name, other than ``skip``, whose count is
        short of ``end``."""
        for sender, count in self.sent.items():
            if count < end and sender != skip:
                return sender
        return None

    def pending_from_others(self, me: str) -> bool:
        return self._first_short(self.size, me) is not None

    def first_blocker(self) -> Optional[str]:
        """Sender of the first undelivered message, listing the plan phase
        by phase and sender by sender: the first sender by name whose
        count stops in the lowest incomplete phase — with phase gating,
        the participant holding everyone up."""
        return self._first_short(self._open_until(None))


# ---------------------------------------------------------------------------
# Sessions

class OnchainSession:
    """Direct on-chain execution: deposits on the chain, a pairwise
    stipulation exchange whose last messages sign the deposit-spending
    ``anchor``, public pools of published material, a cursor that walks
    the compiled contract on-chain once the anchor lands, and the open
    step proposal.  Every append goes through ``append``, and ``ready`` is
    its dry run, so readiness is the ledger's answer.  A move that does
    not apply now raises ``ProtocolError``.  Off-chain execution
    (``offchain.OffchainSession``) extends this class.

    A session is built from a compilation, which runs of the same tree,
    seed, mode and t share (``ContractTree.compiled``), so it only reads
    what the compilation holds and keeps what moves: the chain, the pools,
    each exchange's counts, the graft ladder and the cursor.

    ``cursor`` is ``(digests, node)``: the last appended node and the
    digests of the subtree it was compiled in.  ``ahead`` holds the
    instances of that node's children, built when it landed; no other
    instance below a subtree root is ever built.
    """

    MODE = MODE_ONCHAIN
    ANCHOR_ROLE = ROLE_NODE

    def __init__(self, comp: OnchainCompilation, trace: Trace) -> None:
        parts = comp.parts
        self.tree = parts.tree
        self.commitments = parts.commitments
        self.trace = trace
        # The salt and every node's parts, shared by every subtree the session compiles.
        self.parts = parts
        self.chain = ChainState(self.tree.fee)
        self.deposits = comp.deposits
        self.anchor = comp.anchor
        self.digests = comp.digests
        # Each signed digest's one record: the exchange that signs it,
        # sealed or not.  ``witness`` reads the signatures an actor holds
        # off its counts, at the digest's item there (``Exchange.item_of``).
        self.exchange_of: Dict[str, Exchange] = {}
        # Public bulletin: reveals and execution-time edge authorizations,
        # visible to everyone once published.
        self.reveal_pool: Dict[str, Reveal] = {}
        self.edge_pool: Dict[str, Set[str]] = {}
        self.cursor: Optional[Tuple[Dict[NodeId, str], NodeId]] = None
        self.ahead: Dict[NodeId, TxInstance] = {}
        self.phase = STIPULATING
        self.stipulation = self.open_exchange(comp.stipulation)
        # The open proposal as (proposer, child), who must agree to it and
        # who has; a refusal closes it and stays on record for good.
        self.proposal: Optional[Tuple[str, NodeId]] = None
        self._signers: Set[str] = set()
        self._agreed: Set[str] = set()
        self.step_refused = False
        # Steps agreed so far; an agreed step is appended, not agreed again.
        self.agreed_steps: Set[NodeId] = set()
        self._inject_deposits()

    def _inject_deposits(self) -> None:
        for p in self.tree.participants:
            dep = self.deposits[p]
            error = self.chain.try_append(dep)
            if error is not None:
                raise ProtocolError(f"deposit rejected: {error.code}")
            self.trace.add(self.chain.height, p, DEPOSIT, {
                "digest": dep.digest, "name": dep.name, "value": dep.output_total()})
            self.trace.appends.append((dep, EMPTY_WITNESS, self.chain.height))

    # -- appends -------------------------------------------------------------

    def witness(self, actor: str, tx: TxInstance) -> AppendWitness:
        """Everything ``actor`` legitimately holds toward appending ``tx``:
        its own signatures, the signatures the exchange signing ``tx`` has
        delivered to it, published authorizations and reveals, and openings
        of its own secrets.  The witness may be incomplete; the ledger will
        say so."""
        exchange = self.exchange_of.get(tx.digest)
        item = exchange.item_of[tx.digest] if exchange is not None else None
        sigs = {sign(signer, tx.digest, IMPLICIT) for signer in tx.required_signers
                if signer == actor or item is not None and exchange.received(actor, signer, item)}
        granted = self.edge_pool.get(tx.digest, ())
        for signer in tx.edge_signers:
            if signer == actor or signer in granted:
                sigs.add(sign(signer, tx.digest, EDGE))
        reveals = set()
        for commitment in tx.required_reveals:
            if commitment.label in self.reveal_pool:
                reveals.add(self.reveal_pool[commitment.label])
            elif commitment.owner == actor:
                reveals.add(self.commitments.reveal(commitment.label))
        return AppendWitness(frozenset(sigs), frozenset(reveals))

    def ready(self, actor: str, tx: TxInstance) -> bool:
        """Would the ledger accept ``actor``'s append of ``tx`` right now?
        A dry run of the append; the timing is asked first because it is
        the usual reason to wait and needs no witness."""
        enabled = self.chain.enabled_at(tx)
        return enabled is not None and self.chain.reached(enabled) \
            and self.chain.check(tx, self.witness(actor, tx)) is None

    def append(self, actor: str, tx: TxInstance, role: str) -> Optional[AppendError]:
        """Attempt ``actor``'s append of ``tx`` and log it, success or failure."""
        witness = self.witness(actor, tx)
        error = self.chain.try_append(tx, witness)
        outcome = "ok" if error is None else {"error": error.code, **error.detail()}
        self.trace.add(self.chain.height, actor, APPEND, {
            "digest": tx.digest,
            "inputs": [[d, i] for d, i in tx.inputs],
            "name": tx.name,
            "outcome": outcome,
            "role": role,
            "witness": witness_summary(witness),
        })
        if error is None:
            self.trace.appends.append((tx, witness, self.chain.height))
        return error

    # -- published material --------------------------------------------------

    def publish_reveal(self, reveal: Reveal) -> None:
        self.reveal_pool[reveal.commitment.label] = reveal

    def publish_edge_auth(self, digest: str, signer: str) -> None:
        self.edge_pool.setdefault(digest, set()).add(signer)

    def copies(self, child: NodeId) -> List[str]:
        """The digest of every copy of ``child`` whose edge an agreement
        must authorize: on-chain, the contract's one."""
        return [self.digests[child]]

    # -- agreeing on a step --------------------------------------------------

    def step_signers(self, child: NodeId) -> Set[str]:
        """The participants who must agree to a step to ``child``: on-chain,
        the edge's authorizers and the participants owning its secrets; an
        edge that needs neither is appended without agreement."""
        owners = {c.owner for c in self.parts.reveals(child)}
        return (owners | self.tree.node(child).edge.auth) & self.parts.everyone

    def edge_satisfiable(self, child: NodeId) -> bool:
        """Could a step to ``child`` be agreed right now?  On-chain: it is
        not agreed yet, someone must agree, the instance is enabled on the
        chain, and every reveal is published or held by a participant who
        would open it on agreement."""
        if child in self.agreed_steps or not self.step_signers(child):
            return False
        # Only a child of the node on-chain has an instance whose input
        # exists and is unspent.
        tx = self.ahead.get(child)
        if tx is None:
            return False
        enabled = self.chain.enabled_at(tx)
        return enabled is not None and self.chain.reached(enabled) \
            and self.secrets_openable(child)

    def secrets_openable(self, child: NodeId) -> bool:
        """Is every secret on the edge into ``child`` published, or owned by
        a participant, who would open it on agreement?"""
        for c in self.parts.reveals(child):
            if c.label not in self.reveal_pool and c.owner not in self.parts.everyone:
                return False
        return True

    @property
    def step_origin(self) -> Optional[NodeId]:
        """The node the next step is agreed from: on-chain, where the walk
        stands (``None`` before the anchor lands and after the leaf)."""
        return self.cursor[1] if self.cursor else None

    def propose(self, actor: str, child: Optional[NodeId]) -> bool:
        """``actor`` proposes the step to ``child`` and agrees to it.  No
        progress unless running, with no proposal open, no signatures of an
        earlier agreed step still being exchanged, ``child`` a child of
        ``step_origin`` and its edge satisfiable now."""
        if self.proposal is not None or self.phase != RUNNING \
                or self.active_exchange() is not None \
                or child not in self.tree.node(self.step_origin).children \
                or not self.edge_satisfiable(child):
            return False
        self.proposal = (actor, child)
        self._signers = self.step_signers(child)
        self._agreed = {actor}
        self._log_step(actor, STEP_PROPOSED)
        self._agree_if_complete()
        return True

    def agree(self, actor: str) -> bool:
        """``actor`` agrees to the open proposal, if it waits on ``actor``."""
        if not self.owes_agreement(actor):
            return False
        self._agreed.add(actor)
        self._log_step(actor, STEP_AGREED)
        self._agree_if_complete()
        return True

    def refuse(self, actor: str) -> bool:
        """``actor`` refuses the open proposal, closing it; ``step_refused`` stays set."""
        if self.proposal is None:
            return False
        self._log_step(actor, STEP_REFUSED)
        self.proposal = None
        self.step_refused = True
        return True

    def owes_agreement(self, actor: str) -> bool:
        """Does the open proposal wait on ``actor``'s agreement?"""
        return self.proposal is not None and actor in self._signers \
            and actor not in self._agreed

    def others_owe(self, actor: str) -> bool:
        """Does the open exchange, or a proposal ``actor`` has agreed to,
        wait on someone else?  An open proposal always waits on someone."""
        exchange = self.active_exchange()
        if exchange is not None and exchange.pending_from_others(actor):
            return True
        return self.proposal is not None and actor in self._agreed

    def _log_step(self, actor: str, kind: str) -> None:
        self.trace.add(self.chain.height, actor, kind,
                       {"child": self.tree.node(self.proposal[1]).name})

    def _agree_if_complete(self) -> None:
        if self._signers <= self._agreed:
            child = self.proposal[1]
            self.proposal = None
            self.agree_step(child, self._signers)

    def agree_step(self, child: NodeId, signers: Iterable[str]) -> None:
        """Everyone in ``signers`` has agreed to step to ``child``.  Each, in
        name order, publishes its authorization on every copy of the
        child's instance and opens its own secrets on that edge, and the
        step is recorded as agreed."""
        edge = self.tree.node(child).edge
        for signer in sorted(signers):
            if signer in edge.auth:
                for digest in self.copies(child):
                    self.publish_edge_auth(digest, signer)
            for label in edge.reveals:
                if label in self.commitments and self.commitments.owner(label) == signer \
                        and label not in self.reveal_pool:
                    self.publish_reveal(self.commitments.reveal(label))
                    self.trace.add(self.chain.height, signer, SECRET_PUBLISHED, {"label": label})
        self.agreed_steps.add(child)

    # -- signature exchanges -------------------------------------------------

    def open_exchange(self, layout: ExchangeLayout) -> Exchange:
        """A new exchange laid out as ``layout``, recorded in
        ``exchange_of`` as the one that signs its items: each digest maps to
        the exchange alone, and the exchange finds the digest's item
        (``Exchange.item_of``) only when a witness first asks."""
        exchange = Exchange(layout)
        for _, digest in (*layout.body, layout.final):
            self.exchange_of[digest] = exchange
        return exchange

    def active_exchange(self) -> Optional[Exchange]:
        """The exchange whose messages are owed now, if any."""
        return self.stipulation if self.phase == STIPULATING else None

    def _exchange_complete(self, exchange: Exchange, sender: str) -> None:
        self.trace.add(self.chain.height, sender, STIPULATION_COMPLETE, {"mode": self.MODE})

    def send(self, sender: str) -> int:
        """Deliver every message ``sender`` can send now in the active
        exchange, as one burst (see ``Exchange.deliver``), and log the
        burst as one trace row, which the exchange's layout expands into
        its ``TxSetSent`` and ``SignatureSent`` events.  The exchange's
        counts record the signatures delivered.  Returns how many were
        sent."""
        exchange = self.active_exchange()
        if exchange is None:
            return 0
        burst = exchange.deliver(sender)
        if not burst:
            return 0
        self.trace.add_burst(self.chain.height, sender, exchange.layout, burst.start, burst.stop)
        if exchange.complete:
            self._exchange_complete(exchange, sender)
        return len(burst)

    def abort(self, withholder: str) -> None:
        self.phase = ABORTED
        self.trace.add(self.chain.height, withholder, STIPULATION_ABORTED,
                       {"withholder": withholder})

    # -- the anchor ----------------------------------------------------------

    def anchor_appendable(self, actor: str) -> bool:
        return self.phase == STIPULATING and self.stipulation.complete \
            and self.ready(actor, self.anchor)

    def _anchored(self, actor: str) -> None:
        """``actor`` has landed the anchor: on-chain, the contract root,
        below which the walk goes on."""
        self.phase = RUNNING
        self._land(self.digests, self.anchor, self.tree.root)

    def append_anchor(self, actor: str) -> Optional[AppendError]:
        error = self.append(actor, self.anchor, self.ANCHOR_ROLE)
        if error is None:
            self._anchored(actor)
        return error

    # -- the on-chain walk ---------------------------------------------------

    def _land(self, digests: Dict[NodeId, str], tx: TxInstance, node: NodeId) -> None:
        """``tx``, the instance of ``node`` in the subtree compiled as
        ``digests``, is on-chain: build its children's instances and
        continue below it, or finish if it is a leaf."""
        self.ahead = instances_below(self.parts, digests, tx, node)
        if self.ahead:
            self.cursor = (digests, node)
        else:
            self.cursor = None
            self.phase = FINALIZED

    def child_ready(self, actor: str, child: NodeId) -> bool:
        """Could ``actor`` append ``child`` below the cursor right now?"""
        tx = self.ahead.get(child)
        return tx is not None and self.ready(actor, tx)

    def append_child(self, actor: str, child: NodeId) -> Optional[AppendError]:
        """Spend the cursor node's continuation output into ``child``.
        Implicit signatures come from the exchange that signed ``child``,
        edge material from the public pools."""
        if self.cursor is None:
            raise ProtocolError("no node on-chain to continue from")
        tx = self.ahead.get(child)
        if tx is None:
            raise ProtocolError(f"{child} is not a child of the current node")
        error = self.append(actor, tx, ROLE_NODE)
        if error is None:
            self._land(self.cursor[0], tx, child)
        return error

    # -- settling an off-chain execution -------------------------------------
    # Direct on-chain execution has no Init and no grafts: moving on-chain
    # is refused, no step is sealed or pending, and no settled state is
    # there to land or roll back to.

    steps_sealed = 0
    pending_graft = None
    latest_sealed = None

    def rollback_target(self) -> Optional[int]:
        return None

    def append_init(self, actor: str) -> Optional[AppendError]:
        raise ProtocolError(f"{self.MODE} execution has no Init and no grafts")

    trigger_failsafe = append_init

    def append_graft(self, actor: str, index: int) -> Optional[AppendError]:
        return self.append_init(actor)

