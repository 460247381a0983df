"""Off-chain contract execution anchored by Head and Init.

``compile_offchain`` wraps a contract in two anchor transactions:

  Head   spends every deposit; its single output carries the pot.
  Init   pre-signed spend of Head; appending it moves execution on-chain.

The contract itself becomes the *shadow* copy: the root now spends Init
under a relative timelock of subtree_height(root) × t blocks.  Stipulation
exchanges implicit signatures on Init and the whole shadow first and the
deposit-spending Head signatures last, then appends Head only.

Each agreed step clones the subtree rooted at the chosen child as a
*graft*: its root spends Init under a timelock of subtree_height(child) × t,
strictly smaller than every earlier graft's.  A graft is compiled as its
root's instance, its nodes' digests and its exchange's layout, which is
all its exchange signs; they depend only on the compilation and the
child, so the compilation keeps them for every run that agrees that step
(``OffchainCompilation.graft``).  A body instance is built only if the
graft lands and the walk reaches its parent.  Within a graft, body
signatures are exchanged before root signatures, so a half-signed graft
is never appendable by anyone.  To settle — voluntarily or as a
failsafe — append Init, then a sealed graft's root by its ladder index
(``append_graft``) once its timelock expires, then continue through that
graft's body on-chain.  The ledger judges every graft append: each root
spends Init, so only one ever lands, and the shrinking timelocks
guarantee the newest agreed state can always land first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from .contract import (
    CONTINUATION,
    ContractTree,
    NodeId,
    OutputSpec,
    is_int,
)
from .ledger import AppendError, TxInstance, make_tx
from .trace import (
    FAILSAFE_TRIGGERED,
    GRAFT_APPENDED,
    GRAFT_PROPOSED,
    GRAFT_SEALED,
    INIT_APPENDED,
    Trace,
)
from .onchain import (
    FAILSAFE,
    MODE_OFFCHAIN,
    ROLE_GRAFT_ROOT,
    ROLE_HEAD,
    ROLE_INIT,
    RUNNING,
    Exchange,
    ExchangeLayout,
    OnchainSession,
    ProtocolError,
    TreeParts,
    compile_subtree,
    make_deposits,
    tree_parts,
)
from .witness import CommitmentSet

HEAD_NAME = "Head"
INIT_NAME = "Init"


@dataclass
class Graft:
    """One agreed off-chain state: a subtree copy rooted onto Init.

    Index 0 is the shadow copy of the whole contract created at
    compilation; its exchange is the stipulation, which carries its
    signatures.  ``index`` is the graft's place on the session's ladder.
    The copy is its root's instance, the one a settlement appends first,
    and ``digests``: every node's digest in preorder, keyed by the node
    ids of the original tree, so walking a graft body is ordinary tree
    walking.  The instances below the root are built only as the walk
    lands their parents.  Both are the compilation's, shared by every run
    (``OffchainCompilation.graft``); the run's own are the index, the
    exchange's counts and the seal height.
    """
    index: int
    origin: NodeId
    root_instance: TxInstance
    digests: Dict[NodeId, str]
    exchange: Exchange
    seal_height: Optional[int] = None


# What a graft's compilation key and child fix: its root's instance, every
# node's digest and its exchange's layout.
CompiledGraft = Tuple[TxInstance, Dict[NodeId, str], ExchangeLayout]


class OffchainCompilation(NamedTuple):
    """A contract compiled for off-chain execution: its first five fields
    are those of ``OnchainCompilation``, with Head as the anchor and the
    shadow copy's digests as the contract's.  ``grafts`` holds each
    graft compiled so far, by child (``graft``)."""
    anchor: TxInstance             # Head
    digests: Dict[NodeId, str]     # the shadow's, in preorder, the root's first
    # Init, the shadow root, every other node's (name, digest) in preorder, then Head
    stipulation: ExchangeLayout
    deposits: Dict[str, TxInstance]
    parts: TreeParts
    init: TxInstance
    shadow_root: TxInstance
    t: int
    grafts: Dict[NodeId, CompiledGraft]

    def graft(self, child: NodeId) -> CompiledGraft:
        """The graft of the subtree at ``child``, compiled on the first ask
        and kept in ``grafts`` for every later one.  Its root spends Init
        under a timelock of subtree_height(child) × t — strictly below
        every earlier graft's because child sits strictly deeper."""
        copy = self.grafts.get(child)
        if copy is None:
            parts, init = self.parts, self.init
            timelock = parts.heights[child] * self.t
            root, digests, body = compile_subtree(parts, child, ((init.digest, 0),),
                                                  init.output_total(), timelock)
            layout = ExchangeLayout.of(parts.tree.participants, body, (root.name, root.digest),
                                       False)
            copy = self.grafts[child] = (root, digests, layout)
        return copy


def compile_offchain(tree: ContractTree, commitments: CommitmentSet, salt: bytes,
                     t: int) -> OffchainCompilation:
    """Build Head, Init, and the shadow copy of the whole contract.
    Compiling does not validate."""
    if t < 1:
        raise ProtocolError(f"timelock unit must be at least 1 block, got {t}")
    deposits = make_deposits(tree, salt)
    everyone = frozenset(tree.participants)
    pot = tree.deposit_total()
    head = make_tx(HEAD_NAME, salt,
                   tuple((deposits[p].digest, 0) for p in tree.participants),
                   0, everyone, outputs=(OutputSpec(pot - tree.fee, CONTINUATION),))
    init = make_tx(INIT_NAME, salt, ((head.digest, 0),), 0, everyone,
                   outputs=(OutputSpec(pot - 2 * tree.fee, CONTINUATION),))
    parts = tree_parts(tree, commitments, salt)
    shadow_root, digests, body = compile_subtree(parts, tree.root, ((init.digest, 0),),
                                                 init.output_total(), parts.heights[tree.root] * t)
    stipulation = ExchangeLayout.of(tree.participants, [
        (init.name, init.digest), (shadow_root.name, shadow_root.digest), *body],
        (head.name, head.digest), True)
    return OffchainCompilation(head, digests, stipulation, deposits, parts, init, shadow_root, t,
                               {})


class OffchainSession(OnchainSession):
    """State of one off-chain execution: on-chain execution of the
    contract wrapped in Head, Init and the grafts.

    The anchor is Head; stipulation also signs Init and the shadow copy.
    On top of the on-chain session this holds the ladder of sealed grafts,
    the pending graft and the Init step.  Message delivery, graft creation,
    and appends are individual methods so drivers and strategy engines
    can interleave them freely; the session only enforces protocol
    structure.
    """

    MODE = MODE_OFFCHAIN
    ANCHOR_ROLE = ROLE_HEAD

    def __init__(self, comp: OffchainCompilation, trace: Trace) -> None:
        super().__init__(comp, trace)
        self.comp = comp
        self.init = comp.init
        self.shadow = Graft(0, self.tree.root, comp.shadow_root, comp.digests, self.stipulation)
        # The sealed grafts, oldest first: the shadow joins once stipulation
        # completes, each agreed step's graft once its exchange completes.
        self.ladder: List[Graft] = []
        # The graft whose exchange is under way, if any.
        self.pending_graft: Optional[Graft] = None

    # -- graft bookkeeping ---------------------------------------------------

    @property
    def latest_sealed(self) -> Optional[Graft]:
        """The newest fully signed graft: the state settling lands."""
        return self.ladder[-1] if self.ladder else None

    @property
    def steps_sealed(self) -> int:
        """How many grafts other than the shadow are sealed."""
        return max(len(self.ladder) - 1, 0)

    @property
    def step_origin(self) -> NodeId:
        """Off-chain, the next step is agreed from the newest sealed
        graft's origin, the node the off-chain execution stands at; once
        a graft has landed, the walk goes on from where it stands."""
        if self.cursor is not None:
            return self.cursor[2]
        return self.ladder[-1].origin if self.ladder else self.tree.root

    def rollback_target(self) -> Optional[int]:
        """Index of the oldest sealed graft, if Init is on-chain and
        unspent: the state a rollback would settle.  Every graft root
        spends Init, so while Init is unspent each sealed graft can still
        redeem it."""
        if not self.ladder or not self.chain.is_unspent((self.init.digest, 0)):
            return None
        return self.ladder[0].index

    # -- published material --------------------------------------------------

    def copies(self, child: NodeId) -> List[str]:
        """Below the root of every sealed graft holding one; a graft root
        needs no authorization."""
        return [g.digests[child] for g in self.ladder
                if child in g.digests and child != g.origin]

    # -- agreeing on a step --------------------------------------------------

    def step_signers(self, child: NodeId) -> Set[str]:
        """Every participant signs every graft, so everyone agrees."""
        return set(self.tree.participants)

    def edge_satisfiable(self, child: NodeId) -> bool:
        """Can a step to ``child`` be agreed right now?  Reveals must be
        published (or held by a participant who would publish them on
        agreement), and the edge's wait must have elapsed since the last
        settled step.  Authorizations are granted by the agreement itself."""
        if not self.secrets_openable(child):
            return False
        wait = self.tree.node(child).edge.wait
        latest = self.latest_sealed
        anchor = latest.seal_height if latest else None
        return not wait or (anchor is not None and self.chain.reached(anchor + wait))

    def agree_step(self, child: NodeId, signers: Iterable[str]) -> None:
        super().agree_step(child, signers)
        self.create_graft(child)

    # -- signature exchanges -------------------------------------------------

    def active_exchange(self) -> Optional[Exchange]:
        if self.phase == RUNNING:
            pending = self.pending_graft
            return pending.exchange if pending is not None else None
        return super().active_exchange()

    def _exchange_complete(self, exchange: Exchange, sender: str) -> None:
        if exchange is self.stipulation:
            super()._exchange_complete(exchange, sender)
            self._seal(self.shadow, sender)
        else:
            graft = self.pending_graft
            graft.seal_height = self.chain.height
            self.pending_graft = None
            self._seal(graft, sender)

    def _seal(self, graft: Graft, actor: str) -> None:
        """``graft`` is fully signed: it joins the ladder."""
        self.ladder.append(graft)
        self.trace.add(self.chain.height, actor, GRAFT_SEALED, {
            "digest": graft.root_instance.digest, "index": graft.index,
            "origin": self.tree.node(graft.origin).name})

    def _anchored(self, actor: str) -> None:
        self.phase = RUNNING
        self.shadow.seal_height = self.chain.height
        if not self.ladder:
            # Head landed before the last Head signatures were sent, so the
            # stipulation exchange never completes.  Phase gating sends no
            # Head signature before every Init and shadow signature is
            # delivered, so the shadow is fully signed: seal it now.
            self._seal(self.shadow, actor)

    # -- stepping (off-chain) ------------------------------------------------

    def create_graft(self, child: NodeId) -> Graft:
        """Clone the subtree at ``child`` onto Init, as the compilation's
        graft of ``child`` (``OffchainCompilation.graft``) with an exchange
        of this run's own."""
        if self.phase != RUNNING:
            raise ProtocolError("grafts can only be created while running")
        if self.pending_graft is not None:
            raise ProtocolError("a graft exchange is already in progress")
        if child not in self.tree.node(self.step_origin).children:
            raise ProtocolError(
                f"{child} is not a child of the current off-chain head")
        root, digests, layout = self.comp.graft(child)
        graft = Graft(len(self.ladder), child, root, digests, Exchange(layout))
        self.pending_graft = graft
        self.trace.add(self.chain.height, "session", GRAFT_PROPOSED, {
            "digest": root.digest, "index": graft.index,
            "origin": self.tree.node(child).name, "rel_timelock": root.rel_timelock,
            "size": len(digests)})
        if graft.exchange.complete:
            # Nothing to sign, as in a one-participant contract: no message
            # would ever complete the exchange, so it is sealed now.
            self._exchange_complete(graft.exchange, "session")
        return graft

    # -- moving on-chain -----------------------------------------------------

    def append_init(self, actor: str) -> Optional[AppendError]:
        if self.phase not in (RUNNING, FAILSAFE):
            raise ProtocolError("Init cannot be appended before Head")
        error = self.append(actor, self.init, self.stipulation, ROLE_INIT)
        if error is None:
            self.phase = FAILSAFE
            # A half-signed graft can never land: its exchange stops here,
            # and so does a step proposal, which only running can agree.
            self.pending_graft = None
            self.proposal = None
            self.trace.add(self.chain.height, actor, INIT_APPENDED, {"digest": self.init.digest})
        return error

    def trigger_failsafe(self, actor: str) -> Optional[AppendError]:
        """Deliberate move on-chain, logged before the Init append."""
        if self.phase != RUNNING:
            raise ProtocolError("the failsafe needs Head on-chain and Init off it")
        self.trace.add(self.chain.height, actor, FAILSAFE_TRIGGERED,
                       {"steps_sealed": self.steps_sealed})
        return self.append_init(actor)

    def append_graft(self, actor: str, index: int) -> Optional[AppendError]:
        """Land the root of ``ladder[index]``, the shadow at index 0.  Only
        an index off the ladder is refused here; whether Init is on-chain
        and unspent and the root's timelock has passed is the ledger's to
        judge."""
        if not is_int(index) or not 0 <= index < len(self.ladder):
            raise ProtocolError(f"no sealed graft has index {index!r}")
        graft = self.ladder[index]
        error = self.append(actor, graft.root_instance, graft.exchange, ROLE_GRAFT_ROOT)
        if error is None:
            self.trace.add(self.chain.height, actor, GRAFT_APPENDED, {
                "digest": graft.root_instance.digest, "index": graft.index,
                "origin": self.tree.node(graft.origin).name})
            self._land(graft.digests, graft.exchange, graft.root_instance, graft.origin)
        return error

    def child_ready(self, actor: str, child: NodeId) -> bool:
        # The one readiness rule stricter than the ledger: continuing
        # through a graft body waits until every authorization on the edge,
        # the actor's own included, is published, although the actor's
        # witness would supply its own.  An honest party whose own
        # authorization only an agreement publishes therefore waits; the
        # pinned rnd-19-* traces of the ACCEPTANCE 5 sweep record that wait.
        tx = self.ahead.get(child)
        if tx is not None and not tx.edge_signers <= self.edge_pool.get(tx.digest, set()):
            return False
        return super().child_ready(actor, child)

