"""Scenario runner: a deterministic round scheduler over strategy players.

A scenario names a contract, an execution mode, one strategy per
participant, an oracle reveal schedule, and the branch the cooperating
participants intend to follow.  ``run`` replays it round by round:

* each round starts by publishing any oracle reveals due at the current
  height, then polls every participant in a fixed order;
* a polled participant acts repeatedly (observe -> decide -> execute)
  until its action makes no progress, as a failed chain append makes none
  (one attempt per round); one ``SEND`` delivers all it can send now;
* after the polls the chain ticks, unless the run has reached a terminal
  state or the height cap: one block after a round that added a trace
  event, otherwise straight to the earliest height at which anything can
  change (see ``_Engine._next_height``).  An idle block emits nothing, so
  skipping it changes no trace byte.

All randomness is confined to seeds, so a scenario always produces a
byte-identical trace.  Strategies communicate only through the session
(message delivery, step proposals and agreements, published material,
the chain).  The engine only schedules: the session holds the whole
protocol state and refuses, with ``ProtocolError``, a move that does not
apply, which the engine counts as no progress.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .contract import (
    MAX_AMOUNT,
    MAX_TIMELOCK,
    ContractTree,
    NodeId,
    PathError,
    UnknownNodeError,
    contract_from_dict,
    contract_to_dict,
    deepest_leaf_path,
    is_int,
    is_utf8,
    load_contract_file,
    resolve_path,
)
from .ledger import AppendError
from .onchain import (
    ABORTED,
    FINALIZED,
    MODE_OFFCHAIN,
    MODE_ONCHAIN,
    OnchainSession,
    ProtocolError,
    STIPULATING,
    OnchainCompilation,
    compile_onchain,
)
from .offchain import OffchainCompilation, OffchainSession, compile_offchain
from .strategies import (
    AGREE,
    APPEND,
    Action,
    IDLE,
    INT_PARAMS,
    Observation,
    PROPOSE,
    REFUSE,
    SEND,
    STRATEGIES,
    TARGET_ANCHOR,
    TARGET_CONTINUE,
    TARGET_FAILSAFE,
    TARGET_GRAFT,
    TARGET_INIT,
    WITHHOLD,
)
from .trace import (
    ORACLE_REVEAL,
    OUTCOME_ABORTED,
    OUTCOME_HEIGHT_CAP,
    OUTCOME_LEAF,
    Trace,
    summarize_run,
)
from .witness import CommitmentSet, scenario_salt

_POLL_GUARD = 10_000


class ScenarioError(ValueError):
    """The scenario file or dict is malformed or inconsistent."""


@dataclass
class Scenario:
    """A fully-resolved run configuration (contract already loaded)."""
    label: str
    tree: ContractTree
    mode: str
    strategies: Dict[str, Tuple[str, Dict]]
    path: Tuple[str, ...]
    oracle: Tuple[Tuple[int, str], ...] = ()
    t: int = 1
    patience: int = 2
    seed: int = 0
    order: Optional[Tuple[str, ...]] = None
    height_cap: Optional[int] = None


def default_height_cap(scenario: Scenario, height: int) -> int:
    """A generous bound: ten times the span a worst-case run can need.
    ``height`` is the contract's ``subtree_height``."""
    last_reveal = max((h for h, _ in scenario.oracle), default=0)
    span = (height + 2) * max(scenario.t, 1)
    return 10 * (last_reveal + span + scenario.patience + 5)


def _integer(data: Dict, key: str, default: int, low: int,
             high: Optional[int] = None, what: str = "") -> int:
    """``data[key]``, or ``default`` when absent, as an int in [low, high];
    errors call the value ``what``, or ``key``."""
    value = data.get(key, default)
    what = what or key
    if not is_int(value):
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        raise ScenarioError(f"{what} must be in [{low}, {high or 'inf'}], got {value}")
    return value


def _require_leaf(tree: ContractTree, path_ids: Sequence[NodeId]) -> None:
    if not path_ids or tree.node(path_ids[-1]).children:
        raise ScenarioError("the scenario path must end at a leaf")


def scenario_from_dict(data: Dict, base_dir: Union[str, Path, None] = None) -> Scenario:
    """Build a Scenario from parsed JSON; ``contract`` paths are resolved
    relative to ``base_dir`` (the scenario file's directory)."""
    try:
        label = data["label"]
        contract_ref = data["contract"]
        mode = data["mode"]
        raw_strategies = data["strategies"]
        path_names = data["path"]
    except KeyError as missing:
        raise ScenarioError(f"scenario is missing required key {missing}") from None
    if not isinstance(label, str):
        raise ScenarioError(f"label must be a string, got {label!r}")
    if not is_utf8(label):
        raise ScenarioError(f"label must be UTF-8 text, got {label!r}")
    if mode not in (MODE_ONCHAIN, MODE_OFFCHAIN):
        raise ScenarioError(f"unknown mode {mode!r}")
    if not isinstance(contract_ref, str):
        raise ScenarioError("contract must be a file name")
    if not isinstance(path_names, list) or not all(isinstance(n, str) for n in path_names):
        raise ScenarioError("path must be a list of node names")
    if not isinstance(raw_strategies, dict):
        raise ScenarioError("strategies must be an object keyed by participant")
    contract_path = Path(base_dir or ".") / contract_ref
    tree = load_contract_file(contract_path)
    if "fee" in data:
        tree = tree.with_fee(_integer(data, "fee", 0, 0))
    strategies: Dict[str, Tuple[str, Dict]] = {}
    for participant, entry in raw_strategies.items():
        if participant not in tree.participants:
            raise ScenarioError(f"strategy given for unknown participant {participant!r}")
        if not isinstance(entry, dict) or not isinstance(entry.get("params", {}), dict):
            raise ScenarioError(f"strategy for {participant} must be an object "
                                f"with a name and optional params")
        name = entry.get("name")
        if not isinstance(name, str) or name not in STRATEGIES:
            raise ScenarioError(f"unknown strategy {name!r} for {participant}")
        params = entry.get("params", {})
        for key in INT_PARAMS[name]:
            if key in params:
                _integer(params, key, 0, 0, what=f"{participant}'s {name} param {key}")
        strategies[participant] = (name, dict(params))
    for participant in tree.participants:
        strategies.setdefault(participant, ("honest", {}))
    try:
        path_ids = resolve_path(tree, path_names)
    except UnknownNodeError as err:
        raise ScenarioError(f"the scenario path names unknown node {err}") from None
    except PathError as err:
        raise ScenarioError(f"the scenario path {err}") from None
    _require_leaf(tree, path_ids)
    try:
        oracle = tuple((h, lbl) for h, lbl in data.get("oracle", []))
    except (TypeError, ValueError):
        raise ScenarioError("oracle must be a list of [height, label] pairs") from None
    known = {s.label for s in tree.secrets}
    for height, lbl in oracle:
        if not is_int(height):
            raise ScenarioError(f"oracle heights must be integers, got {height!r}")
        if not isinstance(lbl, str):
            raise ScenarioError(f"oracle labels must be strings, got {lbl!r}")
        if lbl not in known:
            raise ScenarioError(f"oracle reveals unknown secret {lbl!r}")
        if height < 0:
            raise ScenarioError("oracle heights must be non-negative")
    order = data.get("order")
    if order is not None:
        if not isinstance(order, list) or not all(isinstance(p, str) for p in order) \
                or sorted(order) != sorted(tree.participants):
            raise ScenarioError("order must be a permutation of the participants")
        order = tuple(order)
    t = _integer(data, "t", 1, 1, MAX_TIMELOCK)
    if mode == MODE_OFFCHAIN and t * tree.compiled.heights[tree.root] > MAX_TIMELOCK:
        raise ScenarioError(f"t = {t} puts the shadow root's timelock over {MAX_TIMELOCK}")
    return Scenario(
        label=label, tree=tree, mode=mode, strategies=strategies,
        path=tuple(path_names), oracle=tuple(sorted(oracle)), t=t,
        patience=_integer(data, "patience", 2, 0),
        seed=_integer(data, "seed", 0, 0, MAX_AMOUNT), order=order,
        height_cap=_integer(data, "height_cap", 0, 0) if "height_cap" in data else None,
    )


def bundled_data_dir() -> Path:
    """The directory of contracts and scenarios shipped with the package."""
    return Path(str(importlib.resources.files("graftsim").joinpath("data")))


def bundled_scenarios() -> List[Path]:
    return sorted(bundled_data_dir().glob("*.scn"))


def load_scenario(path: Union[str, Path]) -> Scenario:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as err:  # ValueError: as load_contract_file
        raise ScenarioError(f"{path}: invalid JSON ({err})") from err
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: scenario must be a JSON object")
    return scenario_from_dict(data, base_dir=path.parent)


# ---------------------------------------------------------------------------
# The engine


class _Lazy:
    """A field computed on its first read and stored in the instance
    ``__dict__``, which shadows this non-data descriptor from then on.
    ``functools.cached_property`` would do the same but takes a lock on
    every first read on Python 3.11."""

    def __init__(self, compute: Callable[["_LiveObservation"], object]) -> None:
        self.compute = compute

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obs: Optional["_LiveObservation"], owner: Optional[type] = None):
        if obs is None:
            return self
        if obs._engine is None:
            raise ProtocolError(f"{obs.actor}'s observation was read ({self.name}) after "
                                f"its strategy returned; it describes that poll only")
        value = vars(obs)[self.name] = self.compute(obs)
        return value


class _LiveObservation(Observation):
    """The observation of one poll.  ``actor``, ``height``, ``mode`` and
    ``phase`` are set up front; every other field is computed from the
    session's state when the strategy first reads it, so an unread field
    costs nothing and makes no height test.  ``_Engine._poll`` spends the
    observation once the strategy returns.  Only ``_Engine._observe``
    builds one; ``dataclasses.replace`` calls the dataclass ``__init__``,
    which fills every field."""

    def _spend(self) -> None:
        vars(self)["_engine"] = None

    _exchange = _Lazy(lambda o: o._session.active_exchange())
    owes_message = _Lazy(lambda o: o._exchange is not None and o._exchange.owes(o.actor))
    others_owe_me = _Lazy(lambda o: o._session.others_owe(o.actor))
    waiting_rounds = _Lazy(lambda o: o._engine.chain.height - o._engine.last_progress)
    anchor_appendable = _Lazy(lambda o: o._session.anchor_appendable(o.actor))
    steps_sealed = _Lazy(lambda o: o._session.steps_sealed)
    pending_graft = _Lazy(lambda o: o._session.pending_graft is not None)
    proposal = _Lazy(lambda o: o._session.proposal)
    i_agreed = _Lazy(lambda o: not o._session.owes_agreement(o.actor))
    step_refused = _Lazy(lambda o: o._session.step_refused)
    _step_origin = _Lazy(lambda o: o._session.step_origin)
    next_child = _Lazy(lambda o: o._engine.next_on_path.get(o._step_origin))
    next_child_proposable = _Lazy(
        lambda o: o.next_child is not None and o._session.edge_satisfiable(o.next_child))
    # Never on-chain: the walk stands at a leaf only once the run is over.
    at_leaf = _Lazy(lambda o: o._step_origin is not None
                    and not o._engine.tree.node(o._step_origin).children)
    # The ledger's dry run says no while Init, the input it spends, is off the chain.
    latest_root_ready = _Lazy(lambda o: (g := o._session.latest_sealed) is not None
                              and o._session.ready(o.actor, g.root_instance, g.exchange))
    continuation_ready = _Lazy(lambda o: o.next_child is not None
                               and o._session.child_ready(o.actor, o.next_child))
    rollback_target = _Lazy(lambda o: o._session.rollback_target())


class _Engine:
    def __init__(self, scenario: Scenario, session: OnchainSession, trace: Trace) -> None:
        self.scn = scenario
        self.tree = scenario.tree
        self.session = session
        self.chain = session.chain
        self.trace = trace
        self.order: List[str] = list(scenario.order or sorted(self.tree.participants))
        self.players = {p: (STRATEGIES[name], dict(params))
                        for p, (name, params) in scenario.strategies.items()}
        # The node after each path node, kept in the tree's record on the
        # first run along the path; a repeated node keeps its first successor.
        paths, names = self.tree.compiled.paths, tuple(scenario.path)
        if names not in paths:
            path = resolve_path(self.tree, names)
            after = paths[names] = {}
            for at, nxt in zip(path, path[1:]):
                after.setdefault(at, nxt)
        self.next_on_path: Dict[NodeId, NodeId] = paths[names]
        self.oracle = list(scenario.oracle)
        self.oracle_cursor = 0
        self.last_progress = self.chain.height
        self.cap = scenario.height_cap if scenario.height_cap is not None \
            else default_height_cap(scenario, session.parts.heights[self.tree.root])

    # -- scheduling ----------------------------------------------------------

    def run_rounds(self) -> str:
        rows = self.trace.rows
        while True:
            self._deliver_oracle()
            # The polls see the reveals, so only their own events count.
            emitted = len(rows)
            wakes = []
            for participant in self.order:
                wakes.append(self._poll(participant))
                if self._terminal():
                    return self._outcome()
            if self.session.phase == STIPULATING and \
                    self.chain.height - self.last_progress > self.scn.patience:
                blocker = self.session.stipulation.first_blocker() or "unknown"
                self.session.abort(blocker)
                return OUTCOME_ABORTED
            if self.chain.height >= self.cap:
                return OUTCOME_HEIGHT_CAP
            if len(rows) > emitted or None in wakes:
                self.chain.tick()
            else:
                self.chain.tick(self._next_height(wakes) - self.chain.height)

    def _next_height(self, wakes: List[float]) -> int:
        """After a round without events, the earliest height at which a
        round could differ from it: the next oracle reveal, the stipulation
        patience abort, the cap, the least height at which a height test of
        the round would pass (``ChainState.next_flip``) and the players'
        wakes.  Until then every round sees the same state and makes the
        same choices, so it would be idle too."""
        candidates = [self.cap, *wakes]
        if self.oracle_cursor < len(self.oracle):
            candidates.append(self.oracle[self.oracle_cursor][0])
        if self.session.phase == STIPULATING:
            candidates.append(self.last_progress + self.scn.patience + 1)
        if self.chain.next_flip is not None:
            candidates.append(self.chain.next_flip)
        return max(self.chain.height + 1, int(min(candidates)))

    def _poll(self, participant: str) -> Optional[float]:
        """Let ``participant`` act until an action makes no progress, and
        return that action's wake."""
        fn, params = self.players[participant]
        for _ in range(_POLL_GUARD):
            observation = self._observe(participant)
            action = fn(observation, params)
            observation._spend()
            if not self._execute(participant, action):
                return action.wake
            self.last_progress = self.chain.height
            if self._terminal():
                return None
        raise ProtocolError(f"{participant} exceeded the per-round action guard")

    def _terminal(self) -> bool:
        return self.session.phase in (FINALIZED, ABORTED)

    def _outcome(self) -> str:
        return OUTCOME_LEAF if self.session.phase == FINALIZED else OUTCOME_ABORTED

    def _deliver_oracle(self) -> None:
        while self.oracle_cursor < len(self.oracle) and \
                self.oracle[self.oracle_cursor][0] <= self.chain.height:
            _, label = self.oracle[self.oracle_cursor]
            self.oracle_cursor += 1
            if label in self.session.reveal_pool:
                continue
            self.session.publish_reveal(self.session.commitments.reveal(label))
            self.trace.add(self.chain.height, "oracle", ORACLE_REVEAL, {"label": label})

    # -- observation ---------------------------------------------------------

    def _observe(self, participant: str) -> Observation:
        observation = object.__new__(_LiveObservation)
        vars(observation).update(
            actor=participant, height=self.chain.height, mode=self.scn.mode,
            phase=self.session.phase, _engine=self, _session=self.session)
        return observation

    # -- execution -----------------------------------------------------------

    def _execute(self, participant: str, action: Action) -> bool:
        kind = action.kind
        if kind in (IDLE, WITHHOLD):
            return False
        if kind == SEND:  # every message the actor can send now (see ``Action``)
            return self.session.send(participant) > 0
        if kind == PROPOSE:
            return self.session.propose(participant, action.child)
        if kind == AGREE:
            return self.session.agree(participant)
        if kind == REFUSE:
            return self.session.refuse(participant)
        if kind == APPEND:
            return self._execute_append(participant, action)
        raise ProtocolError(f"unknown action kind {kind!r} from {participant}")

    def _execute_append(self, participant: str, action: Action) -> bool:
        target = action.target
        session = self.session
        error: Optional[AppendError]
        try:
            if target == TARGET_ANCHOR:
                error = session.append_anchor(participant)
            elif target == TARGET_CONTINUE:
                error = session.append_child(participant, action.child)
            elif target == TARGET_INIT:
                error = session.append_init(participant)
            elif target == TARGET_FAILSAFE:
                error = session.trigger_failsafe(participant)
            elif target == TARGET_GRAFT:
                error = session.append_graft(participant, action.index)
            else:
                raise ValueError(f"unknown append target {target!r} from {participant}")
        except ProtocolError:
            # The session refuses the move outright (Init in an on-chain run
            # or before Head, a second failsafe, a node off the walk, an
            # index off the graft ladder): no progress, like an append the
            # ledger rejects.
            return False
        return error is None


# ---------------------------------------------------------------------------
# Running and reporting


def _compile(tree: ContractTree, seed: int, mode: str,
             t: int) -> Union[OnchainCompilation, OffchainCompilation]:
    """``tree`` compiled for a run with this seed, mode and t."""
    commitments = CommitmentSet([(s.label, s.owner) for s in tree.secrets], seed)
    salt = scenario_salt(seed, mode)
    if mode == MODE_OFFCHAIN:
        return compile_offchain(tree, commitments, salt, t)
    return compile_onchain(tree, commitments, salt)


def run(scenario: Scenario) -> Trace:
    """Execute one scenario to its terminal state and return the trace.
    The tree is validated and compiled for the scenario's seed, mode and
    t on the first run that asks, and every later run of the tree reads
    that compilation from the tree's record (``ContractTree.compiled``)."""
    tree = scenario.tree
    compiled = tree.compiled
    if compiled.errors:
        raise ProtocolError(f"invalid contract: {compiled.errors[0]}")
    key = (scenario.seed, scenario.mode, scenario.t)
    comp = compiled.runs.get(key)
    if comp is None:
        comp = compiled.runs[key] = _compile(tree, *key)
    header = {
        "label": scenario.label,
        "mode": scenario.mode,
        "seed": scenario.seed,
        "t": scenario.t,
        "fee": tree.fee,
        "patience": scenario.patience,
        "path": list(scenario.path),
        "oracle": [list(item) for item in scenario.oracle],
        "order": list(scenario.order or sorted(tree.participants)),
        "strategies": {p: {"name": name, "params": params}
                       for p, (name, params) in sorted(scenario.strategies.items())},
    }
    trace = Trace(header)
    session: OnchainSession = OffchainSession(comp, trace) if scenario.mode == MODE_OFFCHAIN \
        else OnchainSession(comp, trace)
    engine = _Engine(scenario, session, trace)
    outcome = engine.run_rounds()
    summarize_run(trace, session.chain, outcome)
    return trace


@dataclass(frozen=True)
class Report:
    label: str
    mode: str
    outcome: str
    onchain_tx_count: int
    fees_paid: int
    completion_height: Optional[int]
    final_height: int
    message_count: int
    deposits: int
    payouts: Dict[str, int]


def report_from_trace(trace: Trace) -> Report:
    summary = trace.summary
    if not summary:
        raise ValueError("trace has no terminal summary")
    return Report(
        label=trace.header.get("label", ""),
        mode=trace.header.get("mode", ""),
        outcome=summary["outcome"],
        onchain_tx_count=summary["onchain_tx_count"],
        fees_paid=summary["fees_paid"],
        completion_height=summary["completion_height"],
        final_height=summary["final_height"],
        message_count=summary["message_count"],
        deposits=summary["deposits"],
        payouts=dict(summary["payouts"]),
    )


@dataclass(frozen=True)
class Comparison:
    offchain: Report
    onchain: Report
    fees_saved_vs_baseline: int
    extra_delay_blocks: int


def compare(offchain_scenario: Scenario, onchain_scenario: Scenario) -> Comparison:
    """Run an off-chain scenario against its on-chain baseline.

    The two scenarios must describe the same contract, branch, oracle
    schedule, and fee, or the comparison would be meaningless.
    """
    if offchain_scenario.mode != MODE_OFFCHAIN or onchain_scenario.mode != MODE_ONCHAIN:
        raise ValueError("compare wants one offchain and one onchain scenario")
    # Re-parsed, both trees number their nodes in preorder, and comparing
    # the flat trees costs no recursion per level as nested dicts would.
    off_tree, on_tree = (contract_from_dict(contract_to_dict(s.tree))
                         for s in (offchain_scenario, onchain_scenario))
    if off_tree != on_tree:
        raise ValueError("scenarios use different contracts")
    if offchain_scenario.path != onchain_scenario.path:
        raise ValueError("scenarios follow different branches")
    if offchain_scenario.oracle != onchain_scenario.oracle:
        raise ValueError("scenarios use different oracle schedules")
    off_report = report_from_trace(run(offchain_scenario))
    on_report = report_from_trace(run(onchain_scenario))
    off_done = off_report.completion_height
    on_done = on_report.completion_height
    delay = (off_done - on_done) if off_done is not None and on_done is not None else 0
    return Comparison(
        offchain=off_report, onchain=on_report,
        fees_saved_vs_baseline=on_report.fees_paid - off_report.fees_paid,
        extra_delay_blocks=delay,
    )


def message_census(tree: ContractTree, path_names: Optional[Sequence[str]] = None,
                   *, mode: str = MODE_OFFCHAIN, t: int = 1, seed: int = 0) -> int:
    """Count the signature messages of a cooperative ``run`` of ``tree``.

    Every participant plays ``honest`` along ``path_names``, or the path
    to the deepest leaf, and every secret no participant owns is revealed
    at height 0.  Raises ``ValueError`` if the run ends anywhere but the
    leaf.
    """
    if path_names is None:
        path_names = [tree.node(i).name for i in deepest_leaf_path(tree)]
    path_ids = resolve_path(tree, list(path_names))
    _require_leaf(tree, path_ids)
    scenario = Scenario(
        label="census", tree=tree, mode=mode,
        strategies={p: ("honest", {}) for p in tree.participants},
        path=tuple(path_names),
        oracle=tuple((0, s.label) for s in tree.secrets
                     if s.owner not in tree.participants),
        t=t, seed=seed)
    # The default cap leaves no room for the edge waits along the path.
    scenario.height_cap = default_height_cap(scenario, tree.compiled.heights[tree.root]) + sum(
        tree.node(i).edge.wait for i in path_ids[1:])
    summary = run(scenario).summary
    if summary["outcome"] != OUTCOME_LEAF:
        raise ValueError(f"the census run ended at {summary['outcome']}, not at the leaf")
    return summary["message_count"]
