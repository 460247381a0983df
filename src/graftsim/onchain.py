"""On-chain contract execution.

``compile_onchain`` turns a contract tree into concrete transactions:
the root spends the participants' deposits, every other node spends its
parent's continuation output, and edge requirements become
execution-time signature/reveal/timelock conditions.  A compiled subtree
is its root's instance, every node's digest and the body its exchange
signs, one hash per node in one walk (``compile_subtree``); the instance
of any other node is built only when its parent lands on-chain
(``instances_below``), since only a landed node's children can be
appended.  Stipulation then exchanges (``exchange``), pairwise and one
signature per message, everything needed to make the whole tree spendable:

  phase 0  every participant sends the full transaction set to every other
  phase 1  all-participant signatures on every non-root instance
  phase 2  signatures on the root (the deposit-spending transaction), last

``OnchainSession`` runs the compiled contract; off-chain execution
(``offchain.OffchainSession``) extends it with Head as its anchor.
"""

from __future__ import annotations

from hashlib import sha256
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple

from .contract import (
    CONTINUATION,
    ContractTree,
    NodeId,
    NodeTemplate,
    OutputSpec,
    resolve_payout,
)
from .exchange import Exchange, ExchangeLayout
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
    each exchange's counts, the graft ladder and the cursor.  A witness, a
    dry run or an append is asked with the exchange that signs the
    transaction, whose counts tell which signatures each party holds.

    ``cursor`` is ``(digests, exchange, node)``: the last appended node,
    the digests of the subtree it was compiled in and the exchange that
    signs that subtree.  ``ahead`` holds the instances of that node's
    children, built when it landed; no other instance below a subtree root
    is ever built.
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
        # Public bulletin: reveals and execution-time edge authorizations,
        # visible to everyone once published.
        self.reveal_pool: Dict[str, Reveal] = {}
        self.edge_pool: Dict[str, Set[str]] = {}
        self.cursor: Optional[Tuple[Dict[NodeId, str], Exchange, NodeId]] = None
        self.ahead: Dict[NodeId, TxInstance] = {}
        self.phase = STIPULATING
        self.stipulation = Exchange(comp.stipulation)
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

    def witness(self, actor: str, tx: TxInstance, exchange: Exchange) -> AppendWitness:
        """Everything ``actor`` legitimately holds toward appending ``tx``:
        its own signatures, the signatures ``exchange``, the one that signs
        ``tx``, has delivered to it, published authorizations and reveals,
        and openings of its own secrets.  The witness may be incomplete;
        the ledger will say so."""
        sigs = {sign(signer, tx.digest, IMPLICIT) for signer in tx.required_signers
                if signer == actor or exchange.received(actor, signer, tx.digest)}
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

    def ready(self, actor: str, tx: TxInstance, exchange: Exchange) -> bool:
        """Would the ledger accept ``actor``'s append of ``tx``, signed by
        ``exchange``, right now?  A dry run of the append; the timing is
        asked first because it is the usual reason to wait and needs no
        witness."""
        enabled = self.chain.enabled_at(tx)
        return enabled is not None and self.chain.reached(enabled) \
            and self.chain.check(tx, self.witness(actor, tx, exchange)) is None

    def append(self, actor: str, tx: TxInstance, exchange: Exchange,
               role: str) -> Optional[AppendError]:
        """Attempt ``actor``'s append of ``tx``, signed by ``exchange``, and
        log it, success or failure."""
        witness = self.witness(actor, tx, exchange)
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
        return self.cursor[2] if self.cursor else None

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
            and self.ready(actor, self.anchor, self.stipulation)

    def _anchored(self, actor: str) -> None:
        """``actor`` has landed the anchor: on-chain, the contract root,
        below which the walk goes on."""
        self.phase = RUNNING
        self._land(self.digests, self.stipulation, self.anchor, self.tree.root)

    def append_anchor(self, actor: str) -> Optional[AppendError]:
        error = self.append(actor, self.anchor, self.stipulation, self.ANCHOR_ROLE)
        if error is None:
            self._anchored(actor)
        return error

    # -- the on-chain walk ---------------------------------------------------

    def _land(self, digests: Dict[NodeId, str], exchange: Exchange, tx: TxInstance,
              node: NodeId) -> None:
        """``tx``, the instance of ``node`` in the subtree compiled as
        ``digests`` and signed by ``exchange``, is on-chain: build its
        children's instances and continue below it, or finish if it is a
        leaf."""
        self.ahead = instances_below(self.parts, digests, tx, node)
        if self.ahead:
            self.cursor = (digests, exchange, node)
        else:
            self.cursor = None
            self.phase = FINALIZED

    def child_ready(self, actor: str, child: NodeId) -> bool:
        """Could ``actor`` append ``child`` below the cursor right now?"""
        tx = self.ahead.get(child)
        return tx is not None and self.ready(actor, tx, self.cursor[1])

    def append_child(self, actor: str, child: NodeId) -> Optional[AppendError]:
        """Spend the cursor node's continuation output into ``child``.
        Implicit signatures come from the exchange that signed the cursor's
        subtree, edge material from the public pools."""
        if self.cursor is None:
            raise ProtocolError("no node on-chain to continue from")
        tx = self.ahead.get(child)
        if tx is None:
            raise ProtocolError(f"{child} is not a child of the current node")
        digests, exchange, _ = self.cursor
        error = self.append(actor, tx, exchange, ROLE_NODE)
        if error is None:
            self._land(digests, exchange, tx, child)
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

