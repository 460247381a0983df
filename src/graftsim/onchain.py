"""On-chain contract execution.

``compile_onchain`` turns a contract tree into concrete transactions:
the root spends the participants' deposits, every other node spends its
parent's continuation output, and edge requirements become
execution-time signature/reveal/timelock conditions.  A compiled subtree
is its root's instance and every node's digest, one hash per node
(``compile_subtree``); the instance of any other node is built only when
its parent lands on-chain (``instances_below``), since only a landed
node's children can be appended.  Stipulation then exchanges, pairwise
and one signature per message, everything needed to make the whole tree
spendable:

  phase 0  every participant sends the full transaction set to every other
  phase 1  all-participant signatures on every non-root instance
  phase 2  signatures on the root (the deposit-spending transaction), last

A message may only be sent once every lower-phase message has been
delivered, so withholding any single message freezes the exchange before
any deposit can be spent.

``Session`` is the machinery both execution modes share; the off-chain
session in ``offchain`` builds on it with Head as its anchor.
"""

from __future__ import annotations

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
    subtree_heights,
    validate_tree,
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
    TXSET_SENT,
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


class NodeParts(NamedTuple):
    """What compilation computes once per node, for every instance of it
    below a subtree root wherever its subtree is grafted; the rest of a
    node is read off the tree."""
    before: bytes                          # ``spend_templates``: the encoding before
    after: bytes                           # and after the parent's raw digest
    reveals: FrozenSet[SecretCommitment]   # the edge's commitments


class TreeParts(NamedTuple):
    """The parts of every node of one compilation (see ``tree_parts``)."""
    salt: bytes
    tree: ContractTree
    everyone: FrozenSet[str]
    nodes: Dict[NodeId, NodeParts]
    heights: Dict[NodeId, int]     # each node's ``subtree_height``, the run's one walk for it


def tree_parts(tree: ContractTree, commitments: CommitmentSet, salt: bytes) -> TreeParts:
    """Each node's ``NodeParts`` and height, computed once per compilation
    and shared by every subtree compiled from it."""
    templates = tree.nodes.items()
    encoded = spend_templates(salt, [(node.name, node.edge.wait) for _, node in templates])
    nodes = {}
    for (node_id, node), (before, after) in zip(templates, encoded):
        reveals = node.edge.reveals
        nodes[node_id] = NodeParts(before, after, frozenset(commitments[l] for l in reveals)
                                   if reveals else NO_REVEALS)
    return TreeParts(salt, tree, frozenset(tree.participants), nodes, subtree_heights(tree))


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
) -> Tuple[TxInstance, Dict[NodeId, str]]:
    """Compile the subtree rooted at ``sub_root``: the root's instance,
    and the digest of every node in preorder, ``sub_root`` first.

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
    digests = {sub_root: root.digest}
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
            node, part = templates[node_id], node_parts[node_id]
            balance = value - fee
            children = node.children
            if not children:
                key = (id(node.outputs), balance)
                outputs = paid.get(key)
                if outputs is None:
                    outputs = paid[key] = encode_outputs(resolve_payout(node.outputs, balance))
                digests[node_id] = sha256(b"".join((part.before, parent, part.after,
                                                    outputs))).hexdigest()
                break
            raw = sha256(b"".join((part.before, parent, part.after, _PAY_BEFORE,
                                   balance.to_bytes(8, "big"), _PAY_AFTER))).digest()
            digests[node_id] = raw.hex()
            for child in children[:0:-1]:
                stack.append((child, raw, balance))
            node_id, parent, value = children[0], raw, balance
    return root, digests


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
                                  parts.nodes[child].reveals, _outputs(template, balance))
    return below


def body_items(parts: TreeParts, digests: Dict[NodeId, str]) -> List[Tuple[str, str]]:
    """The (name, digest) of every node of a compiled subtree but its
    root, in preorder: what its exchange signs before the root."""
    templates, items = parts.tree.nodes, iter(digests.items())
    next(items)
    return [(templates[node_id].name, digest) for node_id, digest in items]


class OnchainCompilation(NamedTuple):
    """A contract compiled for direct on-chain execution."""
    root: TxInstance               # spends every deposit
    digests: Dict[NodeId, str]     # every node's, in preorder, the root's first
    deposits: Dict[str, TxInstance]
    parts: TreeParts


def compile_onchain(tree: ContractTree, commitments: CommitmentSet,
                    salt: bytes) -> OnchainCompilation:
    """Direct on-chain execution: the root spends every deposit, children
    spend their parent's continuation output."""
    deposits = make_deposits(tree, salt)
    parts = tree_parts(tree, commitments, salt)
    root_inputs = tuple((deposits[p].digest, 0) for p in tree.participants)
    root, digests = compile_subtree(parts, tree.root, root_inputs, tree.deposit_total(), 0)
    return OnchainCompilation(root, digests, deposits, parts)


# ---------------------------------------------------------------------------
# Pairwise message exchange with phase gating

class Exchange:
    """A plan of pairwise messages, kept as its structure: the
    ``participants`` in name order, the ``body`` items and the ``final``
    item, each a (subject, digest) pair, and whether transaction sets
    open it.

    Every sender's queue has one shape: a transaction set to each other
    participant in name order (if ``include_txset``), then every body
    item to each other participant in turn, then ``final`` to each; the
    three parts are phases 0, 1 and 2, or 0 and 1 without transaction
    sets.  Phase k opens only once every phase < k message is delivered,
    and each sender sends its queue in order, so progress is one count
    per sender: ``sent[sender]`` of its messages are delivered.  A phase
    ends at the same position of every queue, so the lowest phase with a
    message undelivered is the one holding the least count short of the
    queue's end, and every query is arithmetic on the counts.  The counts
    are also the only record of who holds which signature (``received``).
    ``body`` is kept as a tuple, so that each slice ``segments`` cuts of it
    is one too; the session maps each signed digest to its item
    (``Session.exchange_of``).
    """

    def __init__(self, participants: Sequence[str], body: Sequence[Tuple[str, str]],
                 final: Tuple[str, str], include_txset: bool) -> None:
        self.participants = sorted(participants)
        self.body = tuple(body)
        self.final = final
        self.include_txset = include_txset
        others = len(self.participants) - 1
        # Where the body and the final part of each queue start, and its length.
        self._body_at = others if include_txset else 0
        self._final_at = self._body_at + others * len(self.body)
        self.size = self._final_at + others
        # Where each phase with messages ends, in every queue.
        self._ends = sorted({self._body_at, self._final_at, self.size} - {0})
        self._rank = {p: i for i, p in enumerate(self.participants)}
        self.sent: Dict[str, int] = dict.fromkeys(self.participants if others else (), 0)
        self._all_sent = dict.fromkeys(self.sent, self.size)

    def _open_until(self, sender: Optional[str]) -> int:
        """Where the open part of ``sender``'s queue ends: at the end of
        the phase holding the least count of the others short of the end.
        No message ``sender`` sends moves that count."""
        size = self.size
        least = min((count for other, count in self.sent.items()
                     if other != sender and count < size), default=size)
        return next((end for end in self._ends if end > least), size)

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

    def segments(self, sender: str,
                 burst: range) -> Iterator[Tuple[str, Optional[Tuple[Tuple[str, str], ...]]]]:
        """The messages at ``burst``'s positions of ``sender``'s queue, in
        order, as runs (recipient, items): the (subject, digest) items
        signed to ``recipient``, one slice of ``body`` or ``(final,)``, or
        None for its transaction set."""
        others = [p for p in self.participants if p != sender]
        body, width = self.body, len(self.body)
        at, stop = burst.start, burst.stop
        while at < stop:
            if at < self._body_at:
                yield others[at], None
                at += 1
            elif at < self._final_at:
                to, item = divmod(at - self._body_at, width)
                items = body[item:item + stop - at]
                yield others[to], items
                at += len(items)
            else:
                yield others[at - self._final_at], (self.final,)
                at += 1

    def received(self, recipient: str, signer: str, item: int) -> bool:
        """Has ``signer``'s signature on ``item``, a body index or
        ``len(body)`` for ``final``, reached ``recipient``?  It has once
        ``signer``'s count is past that message's position."""
        rank = self._rank
        if recipient == signer or recipient not in rank or signer not in rank:
            return False
        # ``recipient``'s place among those ``signer`` sends to.
        to = rank[recipient] - (rank[recipient] > rank[signer])
        width = len(self.body)
        at = self._body_at + to * width + item if item < width else self._final_at + to
        return self.sent[signer] > at

    @property
    def complete(self) -> bool:
        return self.sent == self._all_sent

    def pending_from_others(self, me: str) -> bool:
        size = self.size
        return any(count < size for sender, count in self.sent.items() if sender != me)

    def first_blocker(self) -> Optional[str]:
        """Sender of the first undelivered message, listing the plan phase
        by phase and sender by sender: the first sender by name whose
        count stops in the lowest incomplete phase — with phase gating,
        the participant holding everyone up."""
        end = self._open_until(None)
        return next((s for s, count in self.sent.items() if count < end), None)


# ---------------------------------------------------------------------------
# Sessions

class Session:
    """The protocol core both execution modes share: deposits on the chain,
    a pairwise stipulation exchange whose last messages sign the
    deposit-spending ``anchor``, public pools of published material, a
    cursor that walks one compiled subtree on-chain, and the open step
    proposal.  Every append goes through ``append``, and ``ready`` is its
    dry run, so readiness is the ledger's answer.  A move that does not
    apply now raises ``ProtocolError``.

    ``cursor`` is ``(digests, node)``: the last appended node and the
    digests of the subtree it was compiled in.  ``ahead`` holds the
    instances of that node's children, built when it landed; no other
    instance below a subtree root is ever built.  A subclass compiles the
    anchor and the stipulation body, says what landing the anchor means
    in ``_anchored``, and says who must agree to a step, when a step is
    agreeable, and what an agreed step becomes.
    """

    MODE = ""
    ANCHOR_ROLE = ROLE_NODE

    def __init__(self, tree: ContractTree, commitments: CommitmentSet, trace: Trace,
                 parts: TreeParts, deposits: Dict[str, TxInstance], anchor: TxInstance,
                 body: Sequence[Tuple[str, str]]) -> None:
        self.tree = tree
        self.commitments = commitments
        self.trace = trace
        # The salt and every node's parts, shared by every subtree the session compiles.
        self.parts = parts
        self.chain = ChainState(tree.fee)
        self.deposits = deposits
        self.anchor = anchor
        # Each signed digest's one record: the exchange that signs it,
        # sealed or not, and its item there (see ``Exchange.received``).
        # ``witness`` reads the signatures an actor holds off its counts.
        self.exchange_of: Dict[str, Tuple[Exchange, int]] = {}
        # Public bulletin: reveals and execution-time edge authorizations,
        # visible to everyone once published.
        self.reveal_pool: Dict[str, Reveal] = {}
        self.edge_pool: Dict[str, Set[str]] = {}
        self.cursor: Optional[Tuple[Dict[NodeId, str], NodeId]] = None
        self.ahead: Dict[NodeId, TxInstance] = {}
        self.phase = STIPULATING
        self.stipulation = self.open_exchange(body, anchor, include_txset=True)
        # The open proposal as (proposer, child), who must agree to it and
        # who has; a refusal closes it and stays on record for good.
        self.proposal: Optional[Tuple[str, NodeId]] = None
        self._signers: Set[str] = set()
        self._agreed: Set[str] = set()
        self.step_refused = False
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
        exchange, item = self.exchange_of.get(tx.digest, (None, 0))
        sigs = set()
        for signer in tx.required_signers:
            if signer == actor or (exchange is not None
                                   and exchange.received(actor, signer, item)):
                sigs.add(sign(signer, tx.digest, IMPLICIT))
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
        must authorize."""
        raise NotImplementedError

    # -- agreeing on a step --------------------------------------------------

    def step_signers(self, child: NodeId) -> Set[str]:
        """The participants who must agree to a step to ``child``."""
        raise NotImplementedError

    def edge_satisfiable(self, child: NodeId) -> bool:
        """Could a step to ``child`` be agreed right now?"""
        raise NotImplementedError

    def secrets_openable(self, child: NodeId) -> bool:
        """Is every secret on the edge into ``child`` published, or owned by
        a participant, who would open it on agreement?"""
        return all(c.label in self.reveal_pool or c.owner in self.parts.everyone
                   for c in self.parts.nodes[child].reveals)

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
        child's instance and opens its own secrets on that edge; a subclass
        then makes the step enforceable."""
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

    # -- signature exchanges -------------------------------------------------

    def open_exchange(self, body: Sequence[Tuple[str, str]], final: TxInstance,
                      include_txset: bool) -> Exchange:
        """A new exchange of every participant's signatures on the (name,
        digest) items of ``body`` and then on ``final``, recorded as the
        one that signs them."""
        exchange = Exchange(self.tree.participants, body, (final.name, final.digest),
                            include_txset)
        self.exchange_of.update({digest: (exchange, item)
                                 for item, (_, digest) in enumerate([*body, exchange.final])})
        return exchange

    def active_exchange(self) -> Optional[Exchange]:
        """The exchange whose messages are owed now, if any."""
        return self.stipulation if self.phase == STIPULATING else None

    def _exchange_complete(self, exchange: Exchange, sender: str) -> None:
        self.trace.add(self.chain.height, sender, STIPULATION_COMPLETE, {"mode": self.MODE})

    def send(self, sender: str) -> int:
        """Deliver every message ``sender`` can send now in the active
        exchange, as one burst (see ``Exchange.deliver``), and log each
        message: a transaction set with ``Trace.add``, and each recipient's
        slice of signed items as one ``Trace.add_messages`` call, which
        keeps the slice.  The exchange's counts record the signatures
        delivered.  Returns how many were sent."""
        exchange = self.active_exchange()
        if exchange is None:
            return 0
        burst = exchange.deliver(sender)
        if not burst:
            return 0
        trace, height = self.trace, self.chain.height
        for recipient, items in exchange.segments(sender, burst):
            if items is None:
                # The announced transaction set: the stipulation body and the anchor.
                trace.add(height, sender, TXSET_SENT,
                          {"count": len(exchange.body) + 1, "to": recipient})
            else:
                trace.add_messages(height, sender, recipient, items)
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
        """``actor`` has landed the anchor."""
        raise NotImplementedError

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


class OnchainSession(Session):
    """Direct on-chain execution: the anchor is the contract root itself,
    spending the deposits; once it lands the cursor walks the compiled
    contract."""

    MODE = MODE_ONCHAIN

    def __init__(self, tree: ContractTree, commitments: CommitmentSet, salt: bytes,
                 trace: Trace) -> None:
        errors = validate_tree(tree)
        if errors:
            raise ProtocolError(f"invalid contract: {errors[0]}")
        comp = compile_onchain(tree, commitments, salt)
        self.digests = comp.digests
        super().__init__(tree, commitments, trace, comp.parts, comp.deposits, comp.root,
                         body_items(comp.parts, comp.digests))
        # Steps agreed so far; an agreed step is appended, not agreed again.
        self.agreed_steps: Set[NodeId] = set()

    def copies(self, child: NodeId) -> List[str]:
        return [self.digests[child]]

    def step_signers(self, child: NodeId) -> Set[str]:
        """The edge's authorizers and the participants owning its secrets;
        an edge that needs neither is appended without agreement."""
        owners = {c.owner for c in self.parts.nodes[child].reveals}
        return (owners | self.tree.node(child).edge.auth) & self.parts.everyone

    def edge_satisfiable(self, child: NodeId) -> bool:
        """Worth agreeing now: not agreed yet, someone must agree, the
        instance is enabled on the chain, and every reveal is published or
        held by a participant who would open it on agreement."""
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

    def agree_step(self, child: NodeId, signers: Iterable[str]) -> None:
        super().agree_step(child, signers)
        self.agreed_steps.add(child)

    def _anchored(self, actor: str) -> None:
        self.phase = RUNNING
        self._land(self.digests, self.anchor, self.tree.root)

