"""Participant behavior models.

Each strategy is a pure function ``(Observation, params) -> Action``.  The
scheduler builds the Observation from a participant's legitimate local
view (the signatures delivered to it, the chain, published material, and
protocol state) and executes the returned Action; strategies never touch
shared state, so the same observation sequence always yields the same
action sequence.

An idle action can say, in ``wake``, when the strategy next needs a look;
the scheduler skips the blocks before it where nothing else can change.

``honest`` follows the protocol and the scenario's intended branch;
the remaining strategies model the classic ways a participant can
misbehave off-chain: stalling a signature exchange, appending Init
early, trying to roll the settled state back, and refusing to agree on
the next step.  The misbehavior models target the off-chain protocol;
under on-chain execution every bundled strategy simply cooperates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .contract import NodeId
from .onchain import FAILSAFE, MODE_ONCHAIN, RUNNING, STIPULATING

# Action kinds
SEND = "send"          # deliver every message I can send now, as one action
WITHHOLD = "withhold"
APPEND = "append"
PROPOSE = "propose"
AGREE = "agree"
REFUSE = "refuse"
IDLE = "idle"

# Append targets
TARGET_ANCHOR = "anchor"        # after stipulation: the root on-chain, Head off-chain
TARGET_CONTINUE = "continue"    # next node of the on-chain walk (carries .child)
TARGET_INIT = "init"
TARGET_FAILSAFE = "failsafe"    # deliberate Init append with a trigger event
TARGET_GRAFT = "graft"          # a sealed graft's root (carries .index, 0 the shadow)


@dataclass(frozen=True)
class Observation:
    """A participant's view of the run at poll time.

    Everything here is derivable from public chain state, the signatures
    delivered to the participant, its obligations, and protocol
    bookkeeping; nothing exposes other participants' private holdings.
    The graft fields keep their defaults on-chain.  ``waiting_rounds``
    counts blocks, not polls: the scheduler does not poll at the blocks
    it skips.
    ``next_child`` is the branch's node after the one the run stands at:
    the newest sealed graft's origin off-chain, and the node the on-chain
    walk stands at once one is appended.  It is both the step to agree on
    and the node ``TARGET_CONTINUE`` appends.

    The scheduler's observation computes each field past ``phase`` on its
    first read, so a strategy pays only for what it reads.  It describes
    one poll: a strategy must not keep it past its return, and a field
    first read after that raises ``ProtocolError``.
    """
    actor: str
    height: int
    mode: str                    # MODE_ONCHAIN | MODE_OFFCHAIN
    phase: str
    owes_message: bool           # I could deliver a message right now
    others_owe_me: bool          # an exchange or agreement is waiting on others
    waiting_rounds: int          # blocks since anyone last made progress
    anchor_appendable: bool = False                 # TARGET_ANCHOR would land now
    steps_sealed: int = 0
    pending_graft: bool = False
    proposal: Optional[Tuple[str, NodeId]] = None   # (proposer, child)
    i_agreed: bool = True
    step_refused: bool = False
    next_child: Optional[NodeId] = None             # next node of the branch
    next_child_proposable: bool = False             # edge satisfiable by agreement now
    at_leaf: bool = False                           # off-chain head is a leaf
    latest_root_ready: bool = False                 # TARGET_GRAFT of the newest would land now
    continuation_ready: bool = False                # TARGET_CONTINUE would land next_child
    rollback_target: Optional[int] = None           # oldest appendable old-state graft


# A wake for a choice that does not depend on the height.
NEVER = math.inf


@dataclass(frozen=True)
class Action:
    """What a participant does now.

    A ``SEND`` delivers every message the actor can send now, as one burst
    that stops where phase gating would stop a message (see
    ``exchange.Exchange.deliver``), without asking the strategy again; to
    stop partway through an exchange, return ``WITHHOLD``.

    ``index`` is the ladder position of the graft a ``TARGET_GRAFT`` append
    lands: 0 is the shadow, ``steps_sealed`` the newest sealed graft.

    ``wake`` matters only when the action makes no progress: it is the
    least height at which the strategy, shown the same state, could choose
    differently (``NEVER`` if its choice does not read ``height`` or
    ``waiting_rounds``).  The scheduler skips the blocks before it in which
    nothing else can change.  ``None``, the default, polls again at the
    next block.
    """
    kind: str
    target: str = ""
    child: Optional[NodeId] = None
    index: Optional[int] = None
    wake: Optional[float] = None


# The idle and send moves of the bundled strategies, one object each.  None
# of them idles on the height except ``honest`` while it waits out its patience.
_IDLE = Action(IDLE, wake=NEVER)
_SEND = Action(SEND)
Params = Dict[str, object]
Strategy = Callable[[Observation, Params], Action]

STRATEGIES: Dict[str, Strategy] = {}
# The integer params each strategy reads, checked when a scenario loads.
INT_PARAMS: Dict[str, Tuple[str, ...]] = {}


def register(name: str, *int_params: str) -> Callable[[Strategy], Strategy]:
    def wrap(fn: Strategy) -> Strategy:
        STRATEGIES[name] = fn
        INT_PARAMS[name] = int_params
        return fn
    return wrap


def _onchain_progress(obs: Observation) -> Action:
    """Cooperative on-chain play after stipulation: walk the intended branch."""
    if obs.phase == RUNNING and obs.next_child is not None:
        if obs.proposal is not None and not obs.i_agreed:
            proposer, child = obs.proposal
            return Action(AGREE) if child == obs.next_child else Action(REFUSE)
        if obs.continuation_ready:
            return Action(APPEND, TARGET_CONTINUE, obs.next_child)
        if obs.next_child_proposable and obs.proposal is None:
            return Action(PROPOSE, child=obs.next_child)
    return _IDLE


def _cooperates_until_running(fn: Strategy) -> Strategy:
    """Give ``fn`` only its off-chain play after stipulation: stipulation is
    played by the protocol (deliver messages, append the anchor) in both
    modes, and on-chain runs then go to ``_onchain_progress``."""
    @functools.wraps(fn)
    def strategy(obs: Observation, params: Params) -> Action:
        if obs.phase == STIPULATING:
            if obs.owes_message:
                return _SEND
            if obs.anchor_appendable:
                return Action(APPEND, TARGET_ANCHOR)
            return _IDLE
        if obs.mode == MODE_ONCHAIN:
            return _onchain_progress(obs)
        return fn(obs, params)
    return strategy


@register("honest", "patience", "failsafe_after_steps")
@_cooperates_until_running
def honest(obs: Observation, params: Params) -> Action:
    """Follow the protocol; on any sign of non-cooperation, move on-chain
    and land the newest agreed state the moment its timelock allows.

    params: ``patience`` — blocks without progress tolerated while others
    owe messages (default 2); ``failsafe_after_steps`` — optionally abandon
    the off-chain phase deliberately once that many steps have sealed.
    """
    patience = int(params.get("patience", 2))
    deliberate = params.get("failsafe_after_steps")
    if obs.phase == FAILSAFE:
        if obs.latest_root_ready:
            return Action(APPEND, TARGET_GRAFT, index=obs.steps_sealed)
        if obs.continuation_ready:
            return Action(APPEND, TARGET_CONTINUE, obs.next_child)
        return _IDLE
    if obs.phase != RUNNING:
        return _IDLE
    if deliberate is not None and obs.steps_sealed >= int(deliberate):
        return Action(APPEND, TARGET_FAILSAFE)
    if obs.step_refused:
        return Action(APPEND, TARGET_FAILSAFE)
    if obs.others_owe_me and obs.waiting_rounds > patience:
        return Action(APPEND, TARGET_FAILSAFE)
    if obs.owes_message:
        return _SEND
    if obs.proposal is not None and not obs.i_agreed:
        proposer, child = obs.proposal
        return Action(AGREE) if child == obs.next_child else Action(REFUSE)
    if obs.at_leaf:
        # Nothing left to negotiate: settle by moving on-chain ourselves.
        return Action(APPEND, TARGET_INIT)
    if obs.next_child is not None and obs.next_child_proposable \
            and not obs.pending_graft and obs.proposal is None:
        return Action(PROPOSE, child=obs.next_child)
    if obs.others_owe_me:
        # Look again when the patience runs out.
        return Action(IDLE, wake=obs.height + patience + 1 - obs.waiting_rounds)
    return _IDLE


@register("staller", "stall_after_steps")
@_cooperates_until_running
def staller(obs: Observation, params: Params) -> Action:
    """Cooperate for ``stall_after_steps`` steps, then agree to further
    proposals but withhold every signature for them, forever."""
    if obs.phase != RUNNING:
        return _IDLE
    limit = int(params.get("stall_after_steps", 0))
    if obs.proposal is not None and not obs.i_agreed:
        return Action(AGREE)
    if obs.owes_message:
        return _SEND if obs.steps_sealed < limit else Action(WITHHOLD, wake=NEVER)
    return _IDLE


@register("premature_init", "trigger_step")
@_cooperates_until_running
def premature_init(obs: Observation, params: Params) -> Action:
    """Cooperate — even propose steps — until step ``trigger_step`` is
    under negotiation, then append Init while it is still half signed."""
    if obs.phase != RUNNING:
        return _IDLE
    trigger = int(params.get("trigger_step", 1))
    if obs.steps_sealed >= trigger - 1:
        return Action(APPEND, TARGET_INIT)
    if obs.proposal is not None and not obs.i_agreed:
        return Action(AGREE)
    if obs.owes_message:
        return _SEND
    if obs.next_child is not None and obs.next_child_proposable \
            and not obs.pending_graft and obs.proposal is None:
        return Action(PROPOSE, child=obs.next_child)
    return _IDLE


@register("rollback_attacker")
@_cooperates_until_running
def rollback_attacker(obs: Observation, params: Params) -> Action:
    """Cooperate passively; once Init is on-chain, try every round to
    redeem it with the OLDEST settled state instead of the newest."""
    if obs.phase == FAILSAFE:
        if obs.rollback_target is not None:
            return Action(APPEND, TARGET_GRAFT, index=obs.rollback_target)
        return _IDLE
    if obs.phase != RUNNING:
        return _IDLE
    if obs.proposal is not None and not obs.i_agreed:
        return Action(AGREE)
    if obs.owes_message:
        return _SEND
    return _IDLE


@register("silent_aborter", "refuse_at_step")
@_cooperates_until_running
def silent_aborter(obs: Observation, params: Params) -> Action:
    """Cooperate for ``refuse_at_step`` steps, then refuse every further
    proposal and never sign another graft."""
    if obs.phase != RUNNING:
        return _IDLE
    limit = int(params.get("refuse_at_step", 0))
    if obs.proposal is not None and not obs.i_agreed:
        return Action(AGREE) if obs.steps_sealed < limit else Action(REFUSE)
    if obs.owes_message:
        return _SEND
    return _IDLE
