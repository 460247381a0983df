"""Invariant checks over randomized inputs."""

import dataclasses
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graftsim.contract import (
    PayoutShare,
    contract_from_dict,
    contract_to_dict,
    deepest_leaf_path,
    iter_preorder,
    leaves,
    path_to,
    resolve_path,
    resolve_payout,
    validate_tree,
)
from graftsim.harness import (
    MODE_OFFCHAIN,
    MODE_ONCHAIN,
    Scenario,
    _Lazy,
    _LiveObservation,
    bundled_scenarios,
    load_scenario,
    message_census,
    run,
)
from graftsim.ledger import TxInstance
from graftsim.offchain import compile_offchain
from graftsim.onchain import (
    Exchange, ExchangeLayout, compile_onchain, compile_subtree, make_deposits,
)
from graftsim.strategies import NEVER, WITHHOLD, Action, Observation
from graftsim.trace import (
    GRAFT_PROPOSED,
    GRAFT_SEALED,
    INIT_APPENDED,
    OUTCOME_LEAF,
    replay_appends,
)
from graftsim.treegen import chain_tree, complete_binary_tree, random_tree
from graftsim.witness import CommitmentSet, scenario_salt, tx_digest

from drivers import (
    body_items,
    burst_of,
    census_by_replay,
    deliver_one,
    events_and_summary,
    exchange_plan,
    field_types,
    instances_by_landing,
    instantiate_by_make_tx,
    landings_checked,
    next_for,
    observations_checked,
    offchain_step,
    plan_of,
    run_blockwise,
    run_per_message,
    start_offchain,
    stipulate,
    strategies_added,
    subtree_height,
    subtree_size,
    witnesses_checked,
)

NO_DEADLINE = settings(deadline=None)


# -- payouts ----------------------------------------------------------------

@st.composite
def share_splits(draw):
    weights = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    total = sum(weights)
    return tuple(PayoutShare(f"P{i}", Fraction(w, total))
                 for i, w in enumerate(weights))


@given(balance=st.integers(0, 10**6), shares=share_splits())
def test_payout_conserves_and_stays_non_negative(balance, shares):
    outputs = resolve_payout(shares, balance)
    assert sum(o.value for o in outputs) == balance
    assert all(o.value >= 0 for o in outputs)
    assert outputs == resolve_payout(shares, balance)


# -- digests ----------------------------------------------------------------

@given(name=st.text(min_size=1, max_size=8),
       salt=st.binary(min_size=1, max_size=8),
       rel=st.integers(0, 50),
       value=st.integers(1, 10**6))
def test_digest_binds_every_field(name, salt, rel, value):
    inputs = (("aa", 0), ("bb", 1))
    outputs = ((value, "A"),)
    base = tx_digest(name, salt, inputs, rel, outputs)
    assert base == tx_digest(name, salt, inputs, rel, outputs)
    assert base != tx_digest(name + "x", salt, inputs, rel, outputs)
    assert base != tx_digest(name, salt + b"x", inputs, rel, outputs)
    assert base != tx_digest(name, salt, inputs[::-1], rel, outputs)
    assert base != tx_digest(name, salt, inputs, rel + 1, outputs)
    assert base != tx_digest(name, salt, inputs, rel, ((value + 1, "A"),))
    assert base != tx_digest(name, salt, inputs, rel, ((value, "B"),))


# -- generated contracts ----------------------------------------------------

@NO_DEADLINE
@given(seed=st.integers(0, 10**6))
def test_generated_contracts_always_validate(seed):
    tree, path_names, oracle = random_tree(seed)
    assert validate_tree(tree) == []
    assert len(path_names) >= 1
    assert all(h >= 0 for h, _ in oracle)


# -- graft compilation ------------------------------------------------------

def _compilations(tree, seed, t):
    """Every subtree a session compiles, as (commitments, salt, what, the
    parts, the root's instance, the digests, the body, the
    ``compile_subtree`` arguments after the parts): the on-chain contract,
    whose root spends one deposit per participant, the shadow, and a graft
    at every other node."""
    commitments = CommitmentSet([(s.label, s.owner) for s in tree.secrets], seed)
    salt = scenario_salt(seed, MODE_ONCHAIN)
    comp = compile_onchain(tree, commitments, salt)
    deposits = comp.deposits
    assert deposits == make_deposits(tree, salt)
    yield (commitments, salt, "onchain", comp.parts, comp.anchor, comp.digests,
           list(comp.stipulation.body),
           (tree.root, tuple((deposits[p].digest, 0) for p in tree.participants),
            tree.deposit_total(), 0))
    salt = scenario_salt(seed, MODE_OFFCHAIN)
    comp = compile_offchain(tree, commitments, salt, t)
    spend_init = ((comp.init.digest, 0),)
    pot = comp.init.output_total()
    yield (commitments, salt, "shadow", comp.parts, comp.shadow_root, comp.digests,
           list(comp.stipulation.body[2:]),
           (tree.root, spend_init, pot, subtree_height(tree, tree.root) * t))
    for origin in iter_preorder(tree):
        if origin != tree.root:
            args = (origin, spend_init, pot, subtree_height(tree, origin) * t)
            yield (commitments, salt, origin, comp.parts, *compile_subtree(comp.parts, *args),
                   args)


def _assert_compiled_by_make_tx(tree, seed, t):
    """Each compilation's digests are the reference's, in preorder; its
    root instance, and every instance a session would build on landing,
    equal the reference's field for field, with the same types.  The body
    its walk lists is ``body_items`` of its digests, and a layout over it
    gives every body digest its position in ``body``."""
    for commitments, salt, what, parts, root, digests, body, args in _compilations(tree, seed, t):
        expected = instantiate_by_make_tx(tree, commitments, salt, *args)
        assert list(digests.items()) == [(n, tx.digest) for n, tx in expected.items()], what
        assert body == body_items(parts, digests), what
        item_of = ExchangeLayout.of(tree.participants, body, (root.name, root.digest),
                                    False).item_of
        assert len(item_of) == len(body), what
        assert [item_of[digest] for _, digest in body] == list(range(len(body))), what
        landed = instances_by_landing(parts, root, digests)
        assert list(landed.items()) == list(expected.items()), what
        for inst, ref in zip(landed.values(), expected.values()):
            assert field_types(inst) == field_types(ref), what


def reparsed(tree):
    """``tree`` dumped and parsed: its leaves that pay alike then share one
    tuple of outputs, whose encoding compilation reuses per balance."""
    return contract_from_dict(contract_to_dict(tree))


@NO_DEADLINE
@given(seed=st.integers(0, 10**6), t=st.integers(1, 3), parsed=st.booleans())
def test_compiled_instances_equal_a_make_tx_walk(seed, t, parsed):
    tree = random_tree(seed)[0]
    _assert_compiled_by_make_tx(reparsed(tree) if parsed else tree, seed, t)


# Leaves that pay alike at depths 1 and 2, so at two balances.
UNEVEN = {"participants": ["A", "B"], "deposits": {"A": 9, "B": 9}, "fee": 1, "nodes": {
    "name": "R", "children": [
        {"name": "L1", "outputs": [{"to": "A", "share": "1/3"}, {"to": "B", "share": "2/3"}]},
        {"name": "N2", "children": [
            {"name": "L3", "outputs": [{"to": "A", "share": "1/3"},
                                       {"to": "B", "share": "2/3"}]}]}]}}


# The deeper trees walk long single-child descents (chain64) and leave
# siblings on the stack below every fan (binary5).
@pytest.mark.parametrize("tree", [chain_tree(1), chain_tree(7), chain_tree(64),
                                  complete_binary_tree(0), complete_binary_tree(3),
                                  complete_binary_tree(5), reparsed(complete_binary_tree(5)),
                                  contract_from_dict(UNEVEN)],
                         ids=["chain1", "chain7", "chain64", "binary0", "binary3", "binary5",
                              "binary5-parsed", "uneven-parsed"])
def test_compiled_regular_trees_equal_a_make_tx_walk(tree):
    _assert_compiled_by_make_tx(tree, 5, 2)


def test_the_make_tx_walk_comparison_covers_edges_and_parties():
    """Some drawn contract has 2 parties and some 3, and the drawn
    contracts name secrets and authorizations on their edges."""
    trees = [random_tree(seed)[0] for seed in range(30)]
    assert {len(tree.participants) for tree in trees} == {2, 3}
    edges = [tree.node(n).edge for tree in trees for n in tree.nodes]
    assert any(edge.reveals for edge in edges) and any(edge.auth for edge in edges)


# -- exchange gating --------------------------------------------------------

@NO_DEADLINE
@given(seed=st.integers(0, 10**6),
       parties=st.sampled_from((("A", "B"), ("A", "B", "C"))),
       body_size=st.integers(0, 5))
def test_any_legal_delivery_order_is_phase_monotone(seed, parties, body_size):
    body = [(f"T{i}", f"d{i}") for i in range(body_size)]
    exchange = Exchange(ExchangeLayout.of(parties, body, ("R", "dr"), True))
    rng = random.Random(seed)
    phases = []
    while not exchange.complete:
        open_now = [p for p in parties if next_for(exchange, p) is not None]
        assert open_now, "gating deadlocked with messages pending"
        phases.extend(m.phase for m in burst_of(exchange, rng.choice(open_now)))
    assert phases == sorted(phases)
    assert len(phases) == len(plan_of(exchange))


def _exchange_by_scan(exchange, parties):
    """Every Exchange query, recomputed by walking the whole reference
    plan: the first ``sent[sender]`` messages of each sender are the
    delivered ones."""
    seen = dict.fromkeys(parties, 0)
    pending = []
    for m in plan_of(exchange):
        seen[m.sender] += 1
        if seen[m.sender] > exchange.sent[m.sender]:
            pending.append(m)
    lowest = min((m.phase for m in pending), default=None)
    heads = {}
    for m in pending:
        heads.setdefault(m.sender, m)
    return {
        "pending_from_others": [any(m.sender != p for m in pending)
                                for p in parties + ("Z",)],
        "complete": not pending,
        "first_blocker": next((m.sender for m in pending if m.phase == lowest), None),
        "next_for": [heads[p] if p in heads and heads[p].phase == lowest else None
                     for p in parties + ("Z",)],
    }


def _exchange_by_counters(exchange, parties):
    return {
        "pending_from_others": [exchange.pending_from_others(p) for p in parties + ("Z",)],
        "complete": exchange.complete,
        "first_blocker": exchange.first_blocker(),
        "next_for": [next_for(exchange, p) for p in parties + ("Z",)],
        "owes": [exchange.owes(p) for p in parties + ("Z",)],
    }


@NO_DEADLINE
@given(seed=st.integers(0, 10**6), parties=st.integers(1, 5).map(lambda k: tuple("ABCDE"[:k])),
       body_size=st.integers(0, 5), txset=st.booleans())
def test_exchange_counters_match_a_scan_of_the_plan(seed, parties, body_size, txset):
    """From 1 to 5 participants, with and without transaction sets, so
    that some exchange has no message at all and some phase none."""
    body = [(f"T{i}", f"d{i}") for i in range(body_size)]
    exchange = Exchange(ExchangeLayout.of(parties, body, ("R", "dr"), txset))
    rng = random.Random(seed)
    while True:
        expected = _exchange_by_scan(exchange, parties)
        expected["owes"] = [m is not None for m in expected["next_for"]]
        assert _exchange_by_counters(exchange, parties) == expected
        if expected["complete"]:
            break
        open_now = [(p, m) for p, m in zip(parties, expected["next_for"]) if m is not None]
        sender, message = rng.choice(open_now)
        if rng.random() < 0.5:
            assert deliver_one(exchange, sender) is message
        else:
            assert burst_of(exchange, sender)[0] is message


@NO_DEADLINE
@given(parties=st.sampled_from((("A", "B"), ("A", "B", "C"), ("A", "B", "C", "D"))),
       body_size=st.integers(0, 6), txset=st.booleans(),
       schedule=st.lists(st.integers(0, 3), max_size=30))
def test_a_burst_sends_what_one_message_at_a_time_would(parties, body_size, txset, schedule):
    """Under any schedule of senders, including turns with nothing open, a
    burst is exactly the run of messages ``deliver_one`` sends until it
    has none, and leaves the same counts.  Round-robin turns finish the
    exchange after the schedule."""
    body = [(f"T{i}", f"d{i}") for i in range(body_size)]
    bursts = Exchange(ExchangeLayout.of(parties, body, ("R", "dr"), txset))
    singles = Exchange(ExchangeLayout.of(parties, body, ("R", "dr"), txset))

    def turn(sender):
        expected = list(iter(lambda: deliver_one(singles, sender), None))
        assert burst_of(bursts, sender) == expected
        assert bursts.sent == singles.sent

    for pick in schedule:
        turn(parties[pick % len(parties)])
    while not bursts.complete:
        for sender in parties:
            turn(sender)


class _DeliveredPlan:
    """The reference state of an exchange: its plan and the set of
    messages delivered, with every query answered by a walk of the plan."""

    def __init__(self, plan):
        self.plan = plan
        self.delivered = set()

    def pending(self):
        return [m for m in self.plan if m not in self.delivered]

    def next_open(self, sender):
        pending = self.pending()
        lowest = min((m.phase for m in pending), default=None)
        mine = next((m for m in pending if m.sender == sender), None)
        return mine if mine is not None and mine.phase == lowest else None

    def queries(self, parties, digests):
        pending = self.pending()
        everyone = parties + ("Z",)
        return {
            "complete": not pending,
            "pending_from_others": [any(m.sender != p for m in pending) for p in everyone],
            "first_blocker": pending[0].sender if pending else None,
            "owes": [self.next_open(p) is not None for p in everyone],
            "received": [any(m.kind == "sig" and m.digest == d
                             and (m.recipient, m.sender) == (r, s) for m in self.delivered)
                         for r in everyone for s in everyone for d in digests],
        }


def _exchange_queries(exchange, parties, digests):
    """The exchange's answers to the queries of ``_DeliveredPlan.queries``.
    ``received`` takes a digest the layout signs, and a foreign digest
    reads as not received."""
    everyone = parties + ("Z",)
    layout = exchange.layout
    signed = {digest for _, digest in (*layout.body, layout.final)}
    return {
        "complete": exchange.complete,
        "pending_from_others": [exchange.pending_from_others(p) for p in everyone],
        "first_blocker": exchange.first_blocker(),
        "owes": [exchange.owes(p) for p in everyone],
        "received": [d in signed and exchange.received(r, s, d)
                     for r in everyone for s in everyone for d in digests],
    }


@NO_DEADLINE
@given(parties=st.integers(1, 4).flatmap(
           lambda n: st.permutations(("A", "B", "C", "D")[:n]).map(tuple)),
       body_size=st.integers(0, 6), txset=st.booleans(),
       schedule=st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=40))
def test_the_arithmetic_exchange_follows_the_reference_plan(parties, body_size, txset,
                                                           schedule):
    """``Exchange`` against ``exchange_plan`` and a set of the messages
    delivered, under a schedule that mixes bursts with single messages
    (``deliver_one``, the reference delivery): each burst is the open run
    of the sender's reference queue, and after every step every query,
    ``received`` for every recipient, signer and digest of the plan plus a
    foreign one included, agrees with a walk of the plan."""
    body = [(f"T{i}", f"d{i}") for i in range(body_size)]
    exchange = Exchange(ExchangeLayout.of(parties, body, ("R", "dr"), txset))
    plan = exchange_plan(parties, body, ("R", "dr"), txset)
    assert plan_of(exchange) == plan
    reference = _DeliveredPlan(plan)
    digests = [d for _, d in body] + ["dr", "foreign"]

    def step(sender, single):
        if single:
            expected = reference.next_open(sender)
            assert deliver_one(exchange, sender) == expected
            if expected is not None:
                reference.delivered.add(expected)
        else:
            sent = []
            while (message := reference.next_open(sender)) is not None:
                sent.append(message)
                reference.delivered.add(message)
            assert burst_of(exchange, sender) == sent
        assert _exchange_queries(exchange, parties, digests) == \
            reference.queries(parties, digests)

    assert _exchange_queries(exchange, parties, digests) == reference.queries(parties, digests)
    for pick, single in schedule:
        step(sorted(parties)[pick % len(parties)], single)
    while not exchange.complete:
        for sender in parties:
            step(sender, False)
    assert reference.delivered == set(plan)


# -- graft bookkeeping ------------------------------------------------------

def _grafts_by_scan(session):
    """The sealed grafts as (index, root digest), the newest of them, how
    many are steps and the pending graft's index, recounted from the
    trace's graft and Init events."""
    sealed, pending = [], None
    for event in session.trace.events:
        if event.kind == GRAFT_PROPOSED:
            pending = event.data["index"]
        elif event.kind == GRAFT_SEALED:
            sealed.append((event.data["index"], event.data["digest"]))
            pending = None
        elif event.kind == INIT_APPENDED:
            pending = None
    steps = sum(1 for index, _ in sealed if index > 0)
    return sealed, sealed[-1] if sealed else None, steps, pending


def _grafts_kept(session):
    ladder = [(g.index, g.root_instance.digest) for g in session.ladder]
    assert [index for index, _ in ladder] == list(range(len(ladder)))
    latest, pending = session.latest_sealed, session.pending_graft
    return (ladder, (latest.index, latest.root_instance.digest) if latest else None,
            session.steps_sealed, pending.index if pending else None)


@NO_DEADLINE
@given(seed=st.integers(0, 10**6), data=st.data())
def test_graft_bookkeeping_matches_a_recount(seed, data):
    tree, path_names, _ = random_tree(seed)
    session = start_offchain(tree, seed=seed, t=1)
    assert _grafts_kept(session) == _grafts_by_scan(session)
    stipulate(session)
    assert _grafts_kept(session) == _grafts_by_scan(session)
    ids = resolve_path(tree, path_names)
    # The step whose graft is left half signed; len(ids) means none is.
    cut = data.draw(st.integers(1, len(ids)), label="cut")
    for step, child in enumerate(ids[1:], start=1):
        for label in tree.node(child).edge.reveals:
            if label not in session.reveal_pool:
                session.publish_reveal(session.commitments.reveal(label))
        while not session.edge_satisfiable(child):
            session.chain.tick()
        if step == cut:
            pairs = len(tree.participants) * (len(tree.participants) - 1)
            withhold = data.draw(st.integers(0, pairs * subtree_size(tree, child) - 1),
                                 label="withhold_at")
            assert offchain_step(session, child, withhold_at=withhold) is None
            assert session.pending_graft is not None
            assert _grafts_kept(session) == _grafts_by_scan(session)
            assert session.append_init(tree.participants[0]) is None
            assert session.pending_graft is None
            assert _grafts_kept(session) == _grafts_by_scan(session)
            return
        offchain_step(session, child)
        assert _grafts_kept(session) == _grafts_by_scan(session)


# -- message census ---------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_message_census_equals_a_driver_replay(seed):
    tree, _, _ = random_tree(seed)
    for leaf in leaves(tree):
        ids = path_to(tree, leaf)
        names = [tree.node(i).name for i in ids]
        for mode in (MODE_ONCHAIN, MODE_OFFCHAIN):
            for t in (1, 2):
                assert message_census(tree, names, mode=mode, t=t, seed=seed) \
                    == census_by_replay(tree, ids, mode, t, seed), (names, mode, t)


# -- end-to-end honest runs -------------------------------------------------

def _honest_scenario(seed: int, mode: str) -> Scenario:
    tree, path_names, oracle = random_tree(seed)
    return Scenario(
        label=f"prop-{seed}", tree=tree, mode=mode,
        strategies={p: ("honest", {}) for p in tree.participants},
        path=tuple(path_names), oracle=tuple(oracle),
        t=1 + seed % 2, patience=2, seed=seed)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5000), offchain=st.booleans())
def test_honest_runs_settle_cleanly(seed, offchain):
    scenario = _honest_scenario(seed, MODE_OFFCHAIN if offchain else MODE_ONCHAIN)
    trace = run(scenario)
    assert trace.summary["outcome"] == "leaf"

    # value is conserved down to the fee on every appended transaction
    chain = replay_appends(trace, scenario.tree.fee)
    assert chain.conservation_holds()
    assert chain.snapshot() == trace.summary["chain"]

    # no append ever jumped a relative timelock
    height_of = {}
    for tx, _, height in trace.appends:
        for digest, _idx in tx.inputs:
            assert height - height_of[digest] >= tx.rel_timelock
        height_of[tx.digest] = height

    # the payouts plus burned fees add back up to the deposits
    paid = sum(trace.summary["payouts"].values())
    assert paid + trace.summary["fees_paid"] == trace.summary["deposits"]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000))
def test_honest_runs_are_reproducible(seed):
    scenario = _honest_scenario(seed, MODE_OFFCHAIN)
    assert run(scenario).serialize() == run(scenario).serialize()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000))
def test_sealed_graft_timelocks_strictly_decrease(seed):
    scenario = _honest_scenario(seed, MODE_OFFCHAIN)
    trace = run(scenario)
    proposed = {e.data["index"]: e.data["rel_timelock"]
                for e in trace.find(GRAFT_PROPOSED)}
    shadow_lock = subtree_height(scenario.tree, scenario.tree.root) * scenario.t
    ladder = [shadow_lock if e.data["index"] == 0 else proposed[e.data["index"]]
              for e in trace.find(GRAFT_SEALED)]
    assert all(a > b for a, b in zip(ladder, ladder[1:]))


# -- the clock skips only idle blocks ---------------------------------------

ADVERSARIES = ("staller", "premature_init", "rollback_attacker", "silent_aborter")
MUTE = "stipulation_mute"


def _stipulation_mute(obs, params):
    """Withholds every message, so stipulation stalls until the scenario's
    patience runs out and the engine aborts it."""
    return Action(WITHHOLD, wake=NEVER)


def _adversary_params(adversary, step):
    """``adversary``'s params, each deviating after ``step`` sealed steps."""
    return {"staller": {"stall_after_steps": step},
            "premature_init": {"trigger_step": 1 + step},
            "silent_aborter": {"refuse_at_step": step}}.get(adversary, {})


def _adversary_scenarios(seed, data, adversaries):
    """Scenarios over ``random_tree(seed)``: each of ``adversaries`` (or
    "honest", for none) at one drawn participant against honest players, in
    both modes and for both timelock units.  The oracle schedule is
    stretched to leave idle stretches between reveals."""
    tree, path_names, oracle = random_tree(seed)
    stretch = data.draw(st.integers(1, 5), label="stretch")
    oracle = tuple((h * stretch, label) for h, label in oracle)
    step = data.draw(st.integers(0, 3), label="step")
    adversary_at = data.draw(st.sampled_from(tree.participants), label="adversary_at")
    honest_patience = data.draw(st.integers(0, 3), label="honest_patience")
    patience = data.draw(st.integers(0, 3), label="patience")
    for adversary in adversaries:
        honest_params = {"patience": honest_patience}
        if adversary == "rollback_attacker":
            honest_params["failsafe_after_steps"] = 1
        strategies = {p: ("honest", dict(honest_params)) for p in tree.participants}
        strategies[adversary_at] = (adversary, _adversary_params(adversary, step))
        for mode in (MODE_ONCHAIN, MODE_OFFCHAIN):
            for t in (1, 2):
                yield Scenario(
                    label=f"clock-{seed}", tree=tree, mode=mode, strategies=strategies,
                    path=tuple(path_names), oracle=oracle, t=t, patience=patience,
                    seed=seed)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_skipped_blocks_change_no_event(seed, data):
    # The engine jumps over idle blocks; polling at every block instead must
    # give the same events and summary.
    with strategies_added({MUTE: _stipulation_mute}):
        for scenario in _adversary_scenarios(seed, data, ADVERSARIES + ("honest", MUTE)):
            assert events_and_summary(run(scenario)) == \
                events_and_summary(run_blockwise(scenario)), \
                (scenario.strategies, scenario.mode, scenario.t)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_a_run_leaves_its_trees_record_as_it_found_it(seed, data):
    # Runs of one tree share its compiled record (``ContractTree.compiled``):
    # after the first run of a seed, mode and t, each run, whatever its
    # strategies, leaves the record byte for byte as pickled before it, and
    # gives the bytes of a run of a copy of the tree, which compiles anew.
    for scenario in _adversary_scenarios(seed, data, ADVERSARIES + ("honest",)):
        record = scenario.tree.compiled
        first = run(scenario).serialize()
        before = pickle.dumps(record)
        assert run(scenario).serialize() == first
        assert pickle.dumps(record) == before
        copy = dataclasses.replace(scenario.tree)
        assert run(dataclasses.replace(scenario, tree=copy)).serialize() == first


@pytest.mark.parametrize("path", bundled_scenarios(), ids=lambda p: p.stem)
def test_bundled_runs_skip_no_event(path):
    scenario = load_scenario(path)
    assert events_and_summary(run(scenario)) == events_and_summary(run_blockwise(scenario))


# -- one SEND delivers a burst ----------------------------------------------

def _sends_match_the_per_message_reference(scenario):
    assert events_and_summary(run(scenario)) == \
        events_and_summary(run_per_message(scenario)), \
        (scenario.strategies, scenario.order, scenario.mode, scenario.t)


def _coalition_scenarios(seed, data):
    """Scenarios over the first three-party ``random_tree`` from ``seed``:
    one honest party, at a drawn place in the poll order, against every
    ordered pair of distinct adversaries, in both modes and for both
    timelock units."""
    while len(random_tree(seed)[0].participants) < 3:
        seed += 1
    tree, path_names, oracle = random_tree(seed)
    step = data.draw(st.integers(0, 3), label="step")
    honest_at = data.draw(st.sampled_from(tree.participants), label="honest_at")
    others = [p for p in tree.participants if p != honest_at]
    for first, second in itertools.permutations(ADVERSARIES, 2):
        strategies = {honest_at: ("honest", {}),
                      others[0]: (first, _adversary_params(first, step)),
                      others[1]: (second, _adversary_params(second, step))}
        for mode in (MODE_ONCHAIN, MODE_OFFCHAIN):
            for t in (1, 2):
                yield Scenario(
                    label=f"coalition-{seed}", tree=tree, mode=mode,
                    strategies=strategies, path=tuple(path_names),
                    oracle=tuple(oracle), t=t, seed=seed)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_a_send_burst_equals_one_message_per_poll(seed, data):
    # One SEND delivers every message the actor can send now; polling the
    # strategy before each message instead must give the same events.
    with strategies_added({MUTE: _stipulation_mute}):
        for scenario in _adversary_scenarios(seed, data, ADVERSARIES + ("honest", MUTE)):
            _sends_match_the_per_message_reference(scenario)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_a_send_burst_equals_one_message_per_poll_in_coalitions(seed, data):
    for scenario in _coalition_scenarios(seed, data):
        _sends_match_the_per_message_reference(scenario)


@pytest.mark.parametrize("path", bundled_scenarios(), ids=lambda p: p.stem)
def test_bundled_send_bursts_equal_one_message_per_poll(path):
    _sends_match_the_per_message_reference(load_scenario(path))


# -- observations are filled on first read ----------------------------------

def _observations_match_the_eager_reference(scenario):
    with observations_checked() as polls:
        checked = run(scenario).serialize()
    assert polls
    # The check reads every field; the run must not notice.
    assert checked == run(scenario).serialize()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_observations_equal_the_eager_reference(seed, data):
    for scenario in _adversary_scenarios(seed, data, ADVERSARIES + ("honest",)):
        _observations_match_the_eager_reference(scenario)


@pytest.mark.parametrize("path", bundled_scenarios(), ids=lambda p: p.stem)
def test_bundled_observations_equal_the_eager_reference(path):
    _observations_match_the_eager_reference(load_scenario(path))


def test_every_observation_field_is_filled_on_first_read():
    # A field without a lazy definition would read its dataclass default
    # (``anchor_appendable=False``, say), which the reference comparison
    # catches only where the true value differs from it.
    up_front = {"actor", "height", "mode", "phase"}
    for f in dataclasses.fields(Observation):
        if f.name not in up_front:
            assert isinstance(vars(_LiveObservation).get(f.name), _Lazy), f.name


# -- delivered signatures are read off the exchanges' counts -----------------

def _witnesses_match_the_store_reference(scenario):
    """Checked at every poll, with each ``SEND`` a burst and, so that polls
    also fall inside a phase, one message."""
    for runner in (run, run_per_message):
        with witnesses_checked() as counts:
            checked = runner(scenario).serialize()
        assert counts and min(counts) > 0
        # The check reads the session; the run must not notice.
        assert checked == runner(scenario).serialize()


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_witnesses_equal_the_store_reference(seed, data):
    adversary = data.draw(st.sampled_from(ADVERSARIES + ("honest",)), label="adversary")
    for scenario in _adversary_scenarios(seed, data, (adversary,)):
        _witnesses_match_the_store_reference(scenario)


@pytest.mark.parametrize("path", bundled_scenarios(), ids=lambda p: p.stem)
def test_bundled_witnesses_equal_the_store_reference(path):
    _witnesses_match_the_store_reference(load_scenario(path))


# -- instances are built only below a node that lands -------------------------

def _landings_match_the_reference(scenario):
    with landings_checked() as landings:
        checked = run(scenario).serialize()
    # The check reads the session; the run must not notice.
    assert checked == run(scenario).serialize()
    return landings


def _older_graft_landed(landings):
    return any(index is not None and index < size - 1 for _, index, size in landings)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_landed_instances_equal_the_make_tx_reference(seed, data):
    adversary = data.draw(st.sampled_from(ADVERSARIES + ("honest",)), label="adversary")
    for scenario in _adversary_scenarios(seed, data, (adversary,)):
        _landings_match_the_reference(scenario)


@pytest.mark.parametrize("path", bundled_scenarios(), ids=lambda p: p.stem)
def test_bundled_landed_instances_equal_the_make_tx_reference(path):
    _landings_match_the_reference(load_scenario(path))


def test_the_landing_comparison_covers_both_modes_and_an_older_graft():
    """The bundled runs land nodes in both modes, and a failsafe among
    them lands a graft older than the newest sealed one."""
    landings = [landing for path in bundled_scenarios()
                for landing in _landings_match_the_reference(load_scenario(path))]
    assert {mode for mode, _, _ in landings} == {MODE_ONCHAIN, MODE_OFFCHAIN}
    assert _older_graft_landed(landings)


def _instances_built(scenario):
    """How many ``TxInstance``s a run of ``scenario`` builds."""
    built = [0]
    new = TxInstance.__dict__["__new__"]

    def counting(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    TxInstance.__new__ = counting
    try:
        trace = run(scenario)
    finally:
        TxInstance.__new__ = new
    return built[0], trace


def _cooperative(tree, mode):
    path = tuple(tree.node(n).name for n in deepest_leaf_path(tree))
    return Scenario(label="cooperative", tree=tree, mode=mode,
                    strategies={p: ("honest", {}) for p in tree.participants}, path=path)


def test_an_offchain_run_builds_instances_only_for_roots():
    # For chain_tree(n): the deposits, Head and Init; one root for the
    # shadow and for each of the n - 1 grafts; the leaf graft lands, and
    # builds no child.  An instance per node of the shadow and of every
    # graft would be n(n - 1)/2 more.
    n = 16
    tree = chain_tree(n)
    built, trace = _instances_built(_cooperative(tree, MODE_OFFCHAIN))
    assert trace.summary["outcome"] == OUTCOME_LEAF
    assert trace.count(GRAFT_PROPOSED) == n - 1
    assert built == len(tree.participants) + 2 + 1 + (n - 1)


def test_an_onchain_run_builds_instances_only_below_landed_nodes():
    # For complete_binary_tree(h): the deposits and the root; the two
    # children of each of the h internal nodes the walk lands.  An
    # instance per node would be 2^(h+1) - 1 after the deposits.
    h = 3
    tree = complete_binary_tree(h)
    built, trace = _instances_built(_cooperative(tree, MODE_ONCHAIN))
    assert trace.summary["outcome"] == OUTCOME_LEAF
    assert built == len(tree.participants) + 1 + 2 * h
