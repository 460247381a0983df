"""Step drivers: the tests' independent reference for the protocol.

``graftsim.run`` drives every whole execution through strategies.  These
drivers step a session by hand instead (deliver a plan in order, agree
one step, settle) so a test can stop anywhere, withhold any single
message, and check the engine's results against a walk it does not use.
``run_blockwise`` is the reference for the engine's clock: the same run,
polled at every block.  ``run_per_message`` is the reference for the
engine's send burst: the same run, one message per ``SEND``, each sent
by ``deliver_next`` (``deliver_one`` for a bare exchange), which checks
phase gating before every message.  ``instantiate_by_make_tx`` is the
reference for compilation: every instance of a subtree built by
``make_tx`` from the contract node itself, which ``compiled_by_make_tx``
applies to what a session compiled, and ``body_items`` the reference for
the body a compilation lists, read off its digests; a session keeps only
the digests, and builds an instance only below a node that lands, which
``instances_by_landing`` does for every node and ``landings_checked``
compares with the reference in whole runs.
``exchange_plan`` is the reference for the exchange: the plan as a list
of ``Message``s, which ``next_for`` walks for a sender's next open
message.  ``DeliveredSignatures`` is the reference for the signatures an
actor holds: one ``SignatureStore`` per participant fed every message a
trace logs, read by ``witness_by_store``.  ``check_by_scan`` is the
reference for the ledger's append check: every signature a rule needs
found by a scan of the witness.
``subtree_heights_by_preorder``, ``leaf_errors_by_fractions`` and
``spend_template`` are the references for the per-node work of loading,
validating and compiling a contract: the heights, the leaf checks and a
node's encoding, each computed the direct way.
``eager_observation`` is the reference for the engine's observations:
every field computed up front.  ``serialize_by_dumps`` is the reference
for trace serialization: one ``json.dumps`` per line.  ``EventListTrace``
is the reference for the trace's rows: the events kept as a list of
``Event``s and every read a scan of that list.  ``subtree_size``
and ``balance_at`` are small queries only the tests need.
"""

import json
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from typing import (
    Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple,
)
from weakref import WeakKeyDictionary

from graftsim.contract import (
    CONTINUATION,
    MAX_AMOUNT,
    NO_EDGE,
    ContractTree,
    NodeId,
    OutputSpec,
    StructuralError,
    UnknownNodeError,
    iter_preorder,
    resolve_path,
    resolve_payout,
    subtree_heights,
)
from graftsim.harness import Scenario, _Engine, run
from graftsim.ledger import (
    AppendError,
    AppendWitness,
    ChainState,
    MissingInput,
    MissingReveal,
    MissingSignature,
    TimelockNotExpired,
    TxInstance,
    ValueMismatch,
    make_tx,
)
from graftsim.offchain import Graft, OffchainSession, compile_offchain
from graftsim.exchange import Exchange
from graftsim.onchain import (
    FAILSAFE,
    FINALIZED,
    OnchainSession,
    ProtocolError,
    TreeParts,
    compile_onchain,
    instances_below,
)
from graftsim.strategies import SEND, STRATEGIES, Action, Observation, Strategy
from graftsim.trace import (
    APPEND,
    OUTCOME_LEAF,
    SIGNATURE_SENT,
    TXSET_SENT,
    Event,
    Trace,
    summarize_run,
)
from graftsim.witness import EDGE, IMPLICIT, CommitmentSet, check_reveal, scenario_salt, sign

_DRIVER_GUARD = 100_000


def leaves(tree: ContractTree) -> List[NodeId]:
    return [n for n in iter_preorder(tree) if not tree.node(n).children]


def parent_map(tree: ContractTree) -> Dict[NodeId, NodeId]:
    parents: Dict[NodeId, NodeId] = {}
    for node_id in iter_preorder(tree):
        for child in tree.node(node_id).children:
            parents[child] = node_id
    return parents


def path_to(tree: ContractTree, node_id: NodeId) -> List[NodeId]:
    """Node ids from the root down to ``node_id``, inclusive."""
    tree.node(node_id)
    parents = parent_map(tree)
    path = [node_id]
    while path[-1] != tree.root:
        if path[-1] not in parents:
            raise UnknownNodeError(node_id)
        path.append(parents[path[-1]])
    return list(reversed(path))


def deepest_leaf_path_by_walks(tree: ContractTree) -> List[NodeId]:
    """The reference for ``contract.deepest_leaf_path``: the depths from
    one preorder walk, the deepest leaf (ties broken by smallest id) from
    a second, and its path from a third, through ``parent_map``."""
    depth = {tree.root: 0}
    for node_id in iter_preorder(tree):
        for child in tree.node(node_id).children:
            depth[child] = depth[node_id] + 1
    best = min(leaves(tree), key=lambda n: (-depth[n], n))
    return path_to(tree, best)


def subtree_size(tree: ContractTree, node_id: NodeId) -> int:
    """Number of nodes in the subtree at ``node_id``, itself included."""
    return sum(1 for _ in iter_preorder(tree, node_id))


def subtree_height(tree: ContractTree, node_id: NodeId) -> int:
    """Number of edges on the longest path from ``node_id`` to a leaf."""
    return subtree_heights(tree, node_id)[node_id]


def balance_at(tree: ContractTree, node_id: NodeId) -> int:
    """Funds available to ``node_id`` when the tree is executed on-chain:
    the deposits minus one fee per transaction from the root down to and
    including this node."""
    return tree.deposit_total() - tree.fee * len(path_to(tree, node_id))


def subtree_heights_by_preorder(tree: ContractTree) -> Dict[NodeId, int]:
    """The reference for ``contract.subtree_heights``: every node's height,
    from its children's, over the reversed preorder of ``iter_preorder``."""
    height: Dict[NodeId, int] = {}
    for n in reversed(list(iter_preorder(tree))):
        children = tree.node(n).children
        height[n] = 1 + max(height[c] for c in children) if children else 0
    return height


def leaf_errors_by_fractions(tree: ContractTree) -> List[StructuralError]:
    """The reference for the leaf checks of ``validate_tree``: each leaf's
    errors in preorder, its shares summed as ``Fraction``s and compared
    with it, as the package checked them before it checked in integers."""
    members = set(tree.participants)
    errors = []
    for node_id in leaves(tree):
        node = tree.node(node_id)
        total = sum((s.share for s in node.outputs), Fraction(0))
        if total != 1:
            try:
                detail = f"leaf shares sum to {total}, expected 1"
            except ValueError:
                detail = "leaf shares sum to a fraction too long to print, expected 1"
            errors.append(StructuralError("BalanceMismatch", node.name, detail))
        if len({s.to for s in node.outputs}) < len(node.outputs):
            errors.append(StructuralError("DuplicatePayout", node.name,
                                          "a beneficiary is paid twice"))
        for s in node.outputs:
            if s.to not in members:
                errors.append(StructuralError("UnknownParticipant", node.name,
                                              f"payout to {s.to!r}"))
            if s.share < 0:
                errors.append(StructuralError("NegativeValue", node.name,
                                              f"negative share for {s.to}"))
            share = Fraction(s.share)
            if max(abs(share.numerator), share.denominator) > MAX_AMOUNT:
                errors.append(StructuralError(
                    "TooLarge", node.name, f"the share for {s.to} has a term over {MAX_AMOUNT}"))
    return errors


def spend_template(name: str, salt: bytes, rel_timelock: int) -> Tuple[bytes, bytes]:
    """The reference for ``witness.spend_templates``: one spend's parts
    before and after its source's raw digest, every field encoded on its
    own (a 16-bit length before each text, the input count, the digest's
    length, the output index and the timelock)."""
    def text(raw: bytes) -> bytes:
        return len(raw).to_bytes(2, "big") + raw
    return (b"TX1" + text(name.encode("utf-8")) + text(salt) + (1).to_bytes(2, "big")
            + (32).to_bytes(2, "big"),
            (0).to_bytes(2, "big") + rel_timelock.to_bytes(4, "big"))


def instantiate_by_make_tx(tree: ContractTree, commitments: CommitmentSet, salt: bytes,
                           sub_root: NodeId, root_inputs: Tuple[Tuple[str, int], ...],
                           root_input_value: int,
                           root_rel_timelock: int) -> Dict[NodeId, TxInstance]:
    """Every instance of the subtree at ``sub_root``, in preorder, each
    built by ``make_tx`` from its contract node: the subtree root spends
    ``root_inputs`` under ``root_rel_timelock`` with no edge requirements,
    every other node its parent's continuation output under its edge.
    ``onchain.compile_subtree`` gives the root's instance, the digests and
    the body."""
    everyone = frozenset(tree.participants)
    instances: Dict[NodeId, TxInstance] = {}
    stack = [(sub_root, root_inputs, root_input_value, root_rel_timelock, NO_EDGE)]
    while stack:
        node_id, inputs, input_value, rel, edge = stack.pop()
        node = tree.node(node_id)
        balance = input_value - tree.fee
        if node.children:
            outputs: Tuple[OutputSpec, ...] = (OutputSpec(balance, CONTINUATION),)
        else:
            outputs = resolve_payout(node.outputs, balance)
        reveals = frozenset(commitments[label] for label in edge.reveals)
        inst = make_tx(node.name, salt, inputs, rel, everyone, edge.auth, reveals, outputs)
        instances[node_id] = inst
        for child in reversed(node.children):
            child_edge = tree.node(child).edge
            stack.append((child, ((inst.digest, 0),), balance, child_edge.wait, child_edge))
    return instances


def body_items(parts: TreeParts, digests: Dict[NodeId, str]) -> List[Tuple[str, str]]:
    """The reference for the body ``onchain.compile_subtree`` lists as it
    hashes: the (name, digest) of every node of a compiled subtree but its
    root, in preorder, read off its digests."""
    templates, items = parts.tree.nodes, iter(digests.items())
    next(items)
    return [(templates[node_id].name, digest) for node_id, digest in items]


def instances_by_landing(parts: TreeParts, root: TxInstance,
                         digests: Dict[NodeId, str]) -> Dict[NodeId, TxInstance]:
    """Every instance of a compiled subtree, in preorder, as a session
    builds each one once its parent lands (``onchain.instances_below``):
    ``root`` is the subtree root's instance and ``digests`` the subtree's."""
    instances = {next(iter(digests)): root}
    for node_id in digests:
        instances.update(instances_below(parts, digests, instances[node_id], node_id))
    return {node_id: instances[node_id] for node_id in digests}


def compiled_by_make_tx(session: OnchainSession,
                        graft: Optional[Graft] = None) -> Dict[NodeId, TxInstance]:
    """``instantiate_by_make_tx`` of what ``session`` compiled: the whole
    contract on-chain, or ``graft``'s subtree off-chain.  Its digests are
    checked against the session's."""
    tree = session.tree
    if graft is None:
        inputs = tuple((session.deposits[p].digest, 0) for p in tree.participants)
        instances = instantiate_by_make_tx(tree, session.commitments, session.parts.salt, tree.root,
                                           inputs, tree.deposit_total(), 0)
        digests = session.digests
    else:
        instances = instantiate_by_make_tx(
            tree, session.commitments, session.parts.salt, graft.origin,
            ((session.init.digest, 0),), session.init.output_total(),
            graft.root_instance.rel_timelock)
        digests = graft.digests
    assert {n: tx.digest for n, tx in instances.items()} == digests
    return instances


def field_types(tx: TxInstance) -> List:
    """The type of each field of ``tx``, and of each item of a tuple
    field, recursively: equal instances of different types differ here."""
    def shape(value):
        if isinstance(value, tuple):
            return (type(value), tuple(shape(item) for item in value))
        return type(value)
    return [shape(value) for value in tx]


@contextmanager
def landings_checked() -> Iterator[List[Tuple[str, Optional[int], int]]]:
    """Within the block, every time a session lands a node, the landed
    instance and the instances it builds for the node's children are
    compared, field for field and with the same types, with
    ``compiled_by_make_tx`` of their subtree.  Yields one (mode, the
    landed graft's index or None on-chain, the ladder's length) per
    landing."""
    landings: List[Tuple[str, Optional[int], int]] = []
    land = OnchainSession._land

    def checked(session: OnchainSession, digests: Dict[NodeId, str], exchange: Exchange,
                tx: TxInstance, node: NodeId) -> None:
        land(session, digests, exchange, tx, node)
        ladder = getattr(session, "ladder", [])
        graft = next((g for g in ladder if g.digests is digests), None)
        expected = compiled_by_make_tx(session, graft)
        for node_id, built in [(node, tx), *session.ahead.items()]:
            assert built == expected[node_id], (node_id, built, expected[node_id])
            assert field_types(built) == field_types(expected[node_id]), node_id
        landings.append((session.MODE, graft.index if graft else None, len(ladder)))

    OnchainSession._land = checked
    try:
        yield landings
    finally:
        OnchainSession._land = land


class Message(NamedTuple):
    sender: str
    recipient: str
    kind: str        # "txset" | "sig"
    subject: str     # display name of the covered transaction ("" for txset)
    digest: str      # covered digest ("" for txset)
    phase: int


def exchange_plan(
    participants: Sequence[str],
    body: Sequence[Tuple[str, str]],
    final: Tuple[str, str],
    include_txset: bool,
) -> List[Message]:
    """Stipulation/graft plan: optional transaction-set announcements, then
    signatures on every body item, then signatures on ``final`` last."""
    plan: List[Message] = []
    ordered = sorted(participants)
    phase = 0
    if include_txset:
        for sender in ordered:
            for recipient in ordered:
                if sender != recipient:
                    plan.append(Message(sender, recipient, "txset", "", "", phase))
        phase += 1
    for sender in ordered:
        for recipient in ordered:
            if sender == recipient:
                continue
            for subject, digest in body:
                plan.append(Message(sender, recipient, "sig", subject, digest, phase))
    phase += 1
    for sender in ordered:
        for recipient in ordered:
            if sender != recipient:
                plan.append(Message(sender, recipient, "sig", final[0], final[1], phase))
    return plan


_PLANS: "WeakKeyDictionary[Exchange, List[Message]]" = WeakKeyDictionary()


def plan_of(exchange: Exchange) -> List[Message]:
    """``exchange_plan`` of the structure ``exchange`` keeps, built once
    per exchange."""
    plan = _PLANS.get(exchange)
    if plan is None:
        # Transaction sets open the queues when the body starts past 0; with
        # one participant there is no message either way.
        layout = exchange.layout
        plan = _PLANS[exchange] = exchange_plan(layout.participants, layout.body,
                                                layout.final, layout.body_at > 0)
    return plan


def queue_of(exchange: Exchange, sender: str) -> List[Message]:
    """``sender``'s messages of the reference plan, in plan order."""
    return [m for m in plan_of(exchange) if m.sender == sender]


def next_for(exchange: Exchange, sender: str) -> Optional[Message]:
    """``sender``'s next message of the reference plan, the first past
    ``exchange.sent[sender]``, if no other sender's next message has a
    lower phase."""
    queues: Dict[str, List[Message]] = {}
    for m in plan_of(exchange):
        queues.setdefault(m.sender, []).append(m)
    heads = {s: queue[exchange.sent[s]] for s, queue in queues.items()
             if exchange.sent[s] < len(queue)}
    msg = heads.get(sender)
    if msg is None or any(m.phase < msg.phase for m in heads.values()):
        return None
    return msg


def burst_of(exchange: Exchange, sender: str) -> List[Message]:
    """``exchange.deliver(sender)``, as the messages of the reference plan
    at the positions of ``sender``'s queue it returns."""
    start = exchange.sent.get(sender, 0)
    burst = exchange.deliver(sender)
    assert not burst or (burst.start, burst.stop) == (start, exchange.sent[sender])
    return queue_of(exchange, sender)[burst.start:burst.stop]


def deliver_one(exchange: Exchange, sender: str) -> Optional[Message]:
    """Send ``sender``'s next message if its phase is open, and return it."""
    msg = next_for(exchange, sender)
    if msg is not None:
        exchange.sent[sender] += 1
    return msg


def deliver_next(session: OnchainSession, sender: str) -> Optional[Event]:
    """``session.send(sender)`` for one message: deliver ``sender``'s next
    open message of the active exchange, log it, and complete the
    exchange if it was the last.  Returns its event, or None."""
    exchange = session.active_exchange()
    msg = deliver_one(exchange, sender) if exchange is not None else None
    if msg is None:
        return None
    if msg.kind == "sig":
        event = Event(session.chain.height, sender, SIGNATURE_SENT,
                      {"digest": msg.digest, "to": msg.recipient, "tx": msg.subject})
    else:
        event = Event(session.chain.height, sender, TXSET_SENT,
                      {"count": len(session.stipulation.layout.body) + 1, "to": msg.recipient})
    session.trace.add(*event)
    if exchange.complete:
        session._exchange_complete(exchange, sender)
    return event


def stipulate(session: OnchainSession, withhold_at: Optional[int] = None) -> bool:
    """Deliver the whole stipulation plan in order and append the anchor.
    ``withhold_at`` stops right before that message index and aborts
    instead, leaving every deposit untouched."""
    for index, msg in enumerate(plan_of(session.stipulation)):
        if index == withhold_at:
            session.abort(msg.sender)
            return False
        if deliver_next(session, msg.sender) is None:
            raise ProtocolError("stipulation plan is not deliverable in order")
    error = session.append_anchor(session.tree.participants[0])
    if error is not None:
        raise ProtocolError(
            f"{session.anchor.name} rejected after stipulation: {error.code}")
    return True


def start_offchain(tree: ContractTree, seed: int = 0, t: int = 2,
                   label: str = "offchain") -> OffchainSession:
    commitments = CommitmentSet([(s.label, s.owner) for s in tree.secrets], seed)
    salt = scenario_salt(seed, "offchain")
    trace = Trace(header={"label": label, "mode": "offchain", "seed": seed, "t": t})
    return OffchainSession(compile_offchain(tree, commitments, salt, t), trace)


def offchain_step(session: OffchainSession, child: NodeId,
                  withhold_at: Optional[int] = None) -> Optional[Graft]:
    """Agree one step and run its graft exchange to completion.  With
    ``withhold_at`` the exchange stops at that message index, leaving the
    graft half signed (the caller would then trigger the failsafe)."""
    if not session.edge_satisfiable(child):
        raise ProtocolError(
            f"edge into {session.tree.node(child).name} is not satisfiable")
    session.agree_step(child, session.tree.participants)
    graft = session.pending_graft
    plan = plan_of(graft.exchange)
    for index in range(len(plan)):
        if withhold_at is not None and index == withhold_at:
            return None
        if deliver_next(session, plan[index].sender) is None:
            raise ProtocolError("graft plan is not deliverable in order")
    return graft


def finalize(session: OffchainSession,
             path_names: Optional[Sequence[str]] = None) -> Trace:
    """Append Init (if needed) and the latest sealed graft root at its
    enablement, then continue on-chain along ``path_names`` — cooperative:
    the first participant acts, edge signers authorize and the oracle's
    remaining secrets are treated as revealed at need."""
    actor = session.tree.participants[0]
    if session.phase != FAILSAFE:
        error = session.append_init(actor)
        if error is not None:
            raise ProtocolError(f"Init rejected: {error.code}")
    latest = session.latest_sealed
    if latest is None:
        raise ProtocolError("nothing sealed to finalize with")
    for _ in range(_DRIVER_GUARD):
        if session.ready(actor, latest.root_instance, latest.exchange):
            break
        session.chain.tick()
    else:
        raise ProtocolError("graft root never became enabled")
    error = session.append_graft(actor, latest.index)
    if error is not None:
        raise ProtocolError(f"graft root rejected: {error.code}")

    if session.phase != FINALIZED:
        if path_names is None:
            raise ProtocolError("a continuation path is required below the graft root")
        path_ids = resolve_path(session.tree, path_names)
        if latest.origin not in path_ids:
            raise ProtocolError("the path does not pass through the graft origin")
        remaining = path_ids[path_ids.index(latest.origin) + 1:]
        for child in remaining:
            tx = session.ahead[child]
            for signer in tx.edge_signers:
                session.publish_edge_auth(tx.digest, signer)
            for commitment in tx.required_reveals:
                if commitment.label not in session.reveal_pool:
                    session.publish_reveal(session.commitments.reveal(commitment.label))
            for _ in range(_DRIVER_GUARD):
                if session.child_ready(actor, child):
                    break
                session.chain.tick()
            else:
                raise ProtocolError("continuation never became enabled")
            error = session.append_child(actor, child)
            if error is not None:
                raise ProtocolError(
                    f"continuation to {tx.name} rejected: {error.code}")
    summarize_run(session.trace, session.chain, OUTCOME_LEAF)
    return session.trace


def census_by_replay(tree: ContractTree, ids: Sequence[NodeId], mode: str,
                     t: int = 1, seed: int = 0) -> int:
    """Signature messages of the cooperative branch ``ids``, stepped by the
    drivers: stipulation, then off-chain one graft exchange per step,
    ticking the chain until each edge's wait has passed."""
    if mode == "onchain":
        commitments = CommitmentSet([(s.label, s.owner) for s in tree.secrets], seed)
        session = OnchainSession(compile_onchain(tree, commitments, scenario_salt(seed, mode)),
                                 Trace({}))
        stipulate(session)
        return session.trace.count(SIGNATURE_SENT)
    session = start_offchain(tree, seed=seed, t=t)
    stipulate(session)
    for child in ids[1:]:
        for label in tree.node(child).edge.reveals:
            if label not in session.reveal_pool:
                session.publish_reveal(session.commitments.reveal(label))
        while not session.edge_satisfiable(child):
            session.chain.tick()
        offchain_step(session, child)
    return session.trace.count(SIGNATURE_SENT)


@contextmanager
def strategies_added(extra: Dict[str, Strategy]) -> Iterator[None]:
    """Register ``extra`` by name for the duration of the block."""
    STRATEGIES.update(extra)
    try:
        yield
    finally:
        for name in extra:
            del STRATEGIES[name]


def _without_wake(fn: Strategy) -> Strategy:
    return lambda obs, params: replace(fn(obs, params), wake=None)


def serialize_by_dumps(trace: Trace) -> str:
    """``trace.serialize()`` with every line one ``json.dumps`` of a dict,
    with sorted keys and compact separators."""
    def dumps(obj: Dict) -> str:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    lines = [dumps({"type": "header", **trace.header})]
    lines += [dumps({"actor": e.actor, "data": e.data, "height": e.height, "kind": e.kind})
              for e in trace.events]
    lines.append(dumps({"type": "summary", **trace.summary}))
    return "\n".join(lines) + "\n"


@dataclass
class EventListTrace:
    """A trace kept as a list of ``Event``s, each read a scan of the list:
    the reference for ``Trace``, which keeps one row per event."""
    header: Dict
    events: List[Event] = field(default_factory=list)
    summary: Dict = field(default_factory=dict)

    @classmethod
    def of(cls, trace: Trace) -> "EventListTrace":
        return cls(trace.header, list(trace.events), trace.summary)

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def find(self, kind: str) -> List[Event]:
        return [e for e in self.events if e.kind == kind]

    def summary_counts(self) -> Tuple[int, List[list]]:
        """``summarize_run``'s ``message_count`` and ``appended``, by one
        pass over the events."""
        messages = 0
        appended = []
        for e in self.events:
            if e.kind == SIGNATURE_SENT:
                messages += 1
            elif e.kind == APPEND and e.data["outcome"] == "ok":
                appended.append([e.data["name"], e.data["digest"], e.height, e.data["role"]])
        return messages, appended


def events_and_summary(trace: Trace) -> str:
    """The serialized trace without its header line."""
    return trace.serialize().split("\n", 1)[1]


def run_blockwise(scenario: Scenario) -> Trace:
    """``run(scenario)`` with every strategy made to drop the wake of its
    actions, so the engine polls everyone at every block.  The header
    names the wrapped strategies; the events and summary are comparable."""
    names = {name for name, _ in scenario.strategies.values()}
    wrapped = {f"{name}/blockwise": _without_wake(STRATEGIES[name]) for name in names}
    with strategies_added(wrapped):
        return run(replace(scenario, strategies={
            p: (f"{name}/blockwise", params)
            for p, (name, params) in scenario.strategies.items()}))


def run_per_message(scenario: Scenario) -> Trace:
    """``run(scenario)`` with an engine whose ``SEND`` delivers exactly one
    message, so the strategy is polled again before each further message.
    Nothing else changes, so the whole trace is comparable."""
    execute = _Engine._execute

    def one_message(engine: _Engine, participant: str, action: Action) -> bool:
        if action.kind == SEND:
            return deliver_next(engine.session, participant) is not None
        return execute(engine, participant, action)

    _Engine._execute = one_message
    try:
        return run(scenario)
    finally:
        _Engine._execute = execute


def eager_observation(engine: _Engine, participant: str) -> Observation:
    """``participant``'s observation with every field computed now, each by
    the same expression as the engine's lazily filled one."""
    session = engine.session
    exchange = session.active_exchange()
    origin = session.step_origin
    step = engine.next_on_path.get(origin)
    latest = session.latest_sealed
    return Observation(
        actor=participant, height=engine.chain.height, mode=engine.scn.mode,
        phase=session.phase,
        owes_message=exchange is not None and next_for(exchange, participant) is not None,
        others_owe_me=session.others_owe(participant),
        waiting_rounds=engine.chain.height - engine.last_progress,
        anchor_appendable=session.anchor_appendable(participant),
        steps_sealed=session.steps_sealed,
        pending_graft=session.pending_graft is not None,
        proposal=session.proposal, i_agreed=not session.owes_agreement(participant),
        step_refused=session.step_refused,
        next_child=step,
        next_child_proposable=step is not None and session.edge_satisfiable(step),
        at_leaf=origin is not None and not engine.tree.node(origin).children,
        latest_root_ready=latest is not None
        and session.ready(participant, latest.root_instance, latest.exchange),
        continuation_ready=step is not None and session.child_ready(participant, step),
        rollback_target=session.rollback_target(),
    )


def _checked(engine: _Engine, participant: str, fn: Strategy,
             polls: List[str]) -> Strategy:
    def strategy(obs: Observation, params: Dict) -> Action:
        action = fn(obs, params)
        # The state is still the poll's: the engine has not executed yet.
        # Both sides' height tests lower ``next_flip``, which would change
        # the blocks the engine skips, so it is put back afterwards.
        chain = engine.chain
        flip = chain.next_flip
        eager = eager_observation(engine, participant)
        for f in fields(Observation):
            live, expected = getattr(obs, f.name), getattr(eager, f.name)
            assert live == expected, (participant, chain.height, f.name, live, expected)
        chain.next_flip = flip
        polls.append(participant)
        return action
    return strategy


@contextmanager
def observations_checked() -> Iterator[List[str]]:
    """Within the block, every run checks each observation its strategies
    are given, once the strategy returns, field by field against
    ``eager_observation``.  Yields the list of the polled participants, one
    entry per check."""
    polls: List[str] = []
    init = _Engine.__init__

    def checked_init(engine: _Engine, *args) -> None:
        init(engine, *args)
        engine.players = {p: (_checked(engine, p, fn, polls), params)
                          for p, (fn, params) in engine.players.items()}

    _Engine.__init__ = checked_init
    try:
        yield polls
    finally:
        _Engine.__init__ = init


class SignatureStore:
    """One participant's accumulated view of received signatures.

    Maps a transaction digest to the set of (signer, role) pairs seen for
    it.  The store only ever grows.
    """

    def __init__(self) -> None:
        self._by_digest: Dict[str, Set[Tuple[str, str]]] = {}

    def add(self, signer: str, digest: str, role: str = IMPLICIT) -> "SignatureStore":
        self._by_digest.setdefault(digest, set()).add((signer, role))
        return self

    def has(self, signer: str, digest: str, role: str = IMPLICIT) -> bool:
        return (signer, role) in self._by_digest.get(digest, ())

    def signers(self, digest: str, role: str = IMPLICIT) -> Set[str]:
        return {s for s, r in self._by_digest.get(digest, ()) if r == role}


class DeliveredSignatures:
    """One ``SignatureStore`` per participant, fed one message at a time
    with every ``SignatureSent`` a trace logs: the reference for the
    signatures ``OnchainSession.witness`` reads off the exchanges' counts."""

    def __init__(self, participants: Iterable[str]) -> None:
        self.stores = {p: SignatureStore() for p in participants}
        self.seen = 0

    def catch_up(self, trace: Trace) -> Dict[str, SignatureStore]:
        """Feed the events ``trace`` logged since the last call."""
        events = trace.events
        for event in events[self.seen:]:
            if event.kind == SIGNATURE_SENT:
                self.stores[event.data["to"]].add(event.actor, event.data["digest"], IMPLICIT)
        self.seen = len(events)
        return self.stores


def witness_by_store(session: OnchainSession, store: SignatureStore, actor: str,
                     tx: TxInstance) -> AppendWitness:
    """``session.witness(actor, tx, exchange)`` with the implicit
    signatures ``actor`` holds read from its ``store``."""
    sigs = set()
    for signer in tx.required_signers:
        if signer == actor or store.has(signer, tx.digest, IMPLICIT):
            sigs.add(sign(signer, tx.digest, IMPLICIT))
    granted = session.edge_pool.get(tx.digest, ())
    for signer in tx.edge_signers:
        if signer == actor or signer in granted:
            sigs.add(sign(signer, tx.digest, EDGE))
    reveals = set()
    for commitment in tx.required_reveals:
        if commitment.label in session.reveal_pool:
            reveals.add(session.reveal_pool[commitment.label])
        elif commitment.owner == actor:
            reveals.add(session.commitments.reveal(commitment.label))
    return AppendWitness(frozenset(sigs), frozenset(reveals))


def check_by_scan(chain: ChainState, tx: TxInstance,
                  witness: AppendWitness) -> Optional[AppendError]:
    """The reference for ``ChainState.check``: the same rules in the same
    order, with each required signer's signature found by a scan of every
    signature the witness holds, comparing signer, role and digest."""
    if tx.digest in chain.appended:
        return MissingInput((tx.digest, 0)) if tx.is_deposit else MissingInput(tx.inputs[0])
    for ref in tx.inputs:
        if ref not in chain.utxos:
            return MissingInput(ref)
    for role, signers in ((IMPLICIT, tx.required_signers), (EDGE, tx.edge_signers)):
        for signer in sorted(signers):
            if not any(s.signer == signer and s.role == role and s.digest == tx.digest
                       for s in witness.signatures):
                return MissingSignature(signer, role)
    for commitment in sorted(tx.required_reveals):
        if not any(r.commitment == commitment and check_reveal(r) for r in witness.reveals):
            return MissingReveal(commitment.label)
    if tx.is_deposit:
        return None
    needed = chain.enabled_at(tx)
    if not chain.reached(needed):
        return TimelockNotExpired(needed)
    input_total = sum(chain.utxos[ref].value for ref in tx.inputs)
    if tx.output_total() + chain.fee != input_total:
        return ValueMismatch(input_total - chain.fee, tx.output_total())
    return None


def stipulated_instances(session: OnchainSession) -> List[TxInstance]:
    """Every instance the stipulation of ``session`` signs, each built by
    ``compiled_by_make_tx``."""
    if isinstance(session, OffchainSession):
        return [session.anchor, session.init,
                *compiled_by_make_tx(session, session.shadow).values()]
    return list(compiled_by_make_tx(session).values())


def _witness_check(engine: _Engine, counts: List[int]) -> Callable[[Observation], None]:
    """The check ``witnesses_checked`` makes at each poll of ``engine``'s run."""
    session = engine.session
    delivered = DeliveredSignatures(engine.tree.participants)
    # Every instance the stipulation and each graft opened so far sign, by
    # digest, each built by ``compiled_by_make_tx`` once, with the exchange
    # that signs it.
    signed = {tx.digest: (tx, session.stipulation) for tx in stipulated_instances(session)}
    opened: Set[int] = set()

    def check(obs: Observation) -> None:
        stores = delivered.catch_up(session.trace)
        for graft in [*getattr(session, "ladder", ())[1:], session.pending_graft]:
            if graft is not None and graft.index not in opened:
                opened.add(graft.index)
                signed.update((tx.digest, (tx, graft.exchange))
                              for tx in compiled_by_make_tx(session, graft).values())
        instances = signed.values()
        for tx, exchange in instances:
            for actor in engine.tree.participants:
                assert session.witness(actor, tx, exchange) == \
                    witness_by_store(session, stores[actor], actor, tx), \
                    (obs.actor, session.chain.height, actor, tx.name)
        counts.append(len(instances) * len(engine.tree.participants))
    return check


def _then(fn: Strategy, check: Callable[[Observation], None]) -> Strategy:
    def strategy(obs: Observation, params: Dict) -> Action:
        action = fn(obs, params)
        check(obs)  # the state is still the poll's: the engine has not executed yet
        return action
    return strategy


@contextmanager
def witnesses_checked() -> Iterator[List[int]]:
    """Within the block, at every poll of every run, once the strategy
    returns, ``OnchainSession.witness`` of every participant on every instance of
    the stipulation and of each graft so far is compared with
    ``witness_by_store`` over the ``DeliveredSignatures`` of the trace.
    Yields the number of comparisons of each poll."""
    counts: List[int] = []
    init = _Engine.__init__

    def checked_init(engine: _Engine, *args) -> None:
        init(engine, *args)
        check = _witness_check(engine, counts)
        engine.players = {p: (_then(fn, check), params)
                          for p, (fn, params) in engine.players.items()}

    _Engine.__init__ = checked_init
    try:
        yield counts
    finally:
        _Engine.__init__ = init
