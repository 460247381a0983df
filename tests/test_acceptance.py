"""Acceptance criteria for the simulator, one check per criterion.

Each test prints exactly one ``ACCEPTANCE n <title>: PASS|FAIL`` line so a
plain ``pytest -s tests/test_acceptance.py`` reads as a checklist.
"""

import copy
import dataclasses
import functools
import hashlib
import itertools
import math
import statistics
import time
from pathlib import Path

from graftsim import harness, offchain
from graftsim.contract import leaves, path_to
from graftsim.harness import (
    MODE_OFFCHAIN,
    MODE_ONCHAIN,
    Scenario,
    bundled_data_dir,
    bundled_scenarios,
    compare,
    load_scenario,
    message_census,
    run,
)
from graftsim.onchain import ABORTED, OnchainSession, compile_onchain
from graftsim.trace import (
    GRAFT_PROPOSED,
    GRAFT_SEALED,
    INIT_APPENDED,
    OUTCOME_LEAF,
    Trace,
    replay_appends,
)
from graftsim.treegen import chain_tree, complete_binary_tree, random_tree
from graftsim.witness import CommitmentSet, scenario_salt

from drivers import finalize, offchain_step, plan_of, start_offchain, stipulate

BO3_PATH = ("Bet", "L??", "LW?", "LWL")
BO3_ORACLE = ((2, "L1"), (4, "W2"), (6, "L3"))


# Collected by the conftest terminal-summary hook so the checklist shows
# at the end of every pytest run, not only under -s.
ACCEPTANCE_LINES = []


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            verdict = "FAIL"
            try:
                fn(*args, **kwargs)
                verdict = "PASS"
            finally:
                line = f"ACCEPTANCE {number:2d} {title}: {verdict}"
                ACCEPTANCE_LINES.append(line)
                print("\n" + line)
        return wrapper
    return deco


def load(name):
    return load_scenario(bundled_data_dir() / f"{name}.scn")


def fresh_offchain(bo3_tree, t=2):
    session = start_offchain(bo3_tree, seed=0, t=t)
    stipulate(session)
    return session


def walk(session, names_and_labels):
    ids = {session.tree.node(i).name: i
           for i in session.tree.nodes}
    for name, label in names_and_labels:
        if label is not None:
            session.publish_reveal(session.commitments.reveal(label))
        offchain_step(session, ids[name])


def no_rollback_ok(trace: Trace) -> bool:
    """True iff whatever redeemed Init realizes the newest state that was
    sealed (in trace order) before Init landed on the chain."""
    init_events = trace.find(INIT_APPENDED)
    if not init_events:
        return True
    init_digest = init_events[0].data["digest"]
    last_sealed = None
    for event in trace.events:
        if event.kind == INIT_APPENDED:
            break
        if event.kind == GRAFT_SEALED:
            last_sealed = event.data["digest"]
    for tx, _, _ in trace.appends:
        if (init_digest, 0) in tx.inputs:
            return tx.digest == last_sealed
    return True  # Init never redeemed: nothing rolled anywhere


@criterion(1, "cooperative off-chain settles in 3 transactions vs 4 on-chain")
def test_criterion_01_cooperative_cost(bo3_tree):
    result = compare(load("bo3_happy"), load("bo3_onchain"))
    assert result.offchain.outcome == "leaf"
    assert result.onchain.outcome == "leaf"
    assert result.offchain.onchain_tx_count == 3
    assert result.onchain.onchain_tx_count == 4
    assert result.fees_saved_vs_baseline >= 1


@criterion(2, "worst-case settlement to any leaf costs path length + 2")
def test_criterion_02_worst_case_bound(bo3_tree):
    for leaf in leaves(bo3_tree):
        names = [bo3_tree.node(i).name for i in path_to(bo3_tree, leaf)]
        session = fresh_offchain(bo3_tree)
        session.trigger_failsafe("A")
        trace = finalize(session, names)
        assert trace.summary["outcome"] == "leaf"
        assert trace.summary["onchain_tx_count"] == len(names) + 2, names


@criterion(3, "failsafe after partial progress only replays the unsettled tail")
def test_criterion_03_partial_progress(bo3_tree):
    session = fresh_offchain(bo3_tree)
    walk(session, [("L??", "L1"), ("LW?", "W2")])
    session.trigger_failsafe("A")
    trace = finalize(session, list(BO3_PATH))
    # Head + Init + the LW? graft root + one continuation below it
    assert trace.summary["onchain_tx_count"] == 4
    names = [n for n, _, _, _ in trace.summary["appended"]]
    assert names == ["Head", "Init", "LW?", "LWL"]


@criterion(4, "graft timelocks step down the ladder to zero at the leaves")
def test_criterion_04_timelock_ladder(bo3_tree):
    for t in (1, 2, 5):
        session = start_offchain(bo3_tree, seed=0, t=t)
        stipulate(session)
        walk(session, [("L??", "L1"), ("LW?", "W2"), ("LWL", "L3")])
        ladder = [g.root_instance.rel_timelock for g in session.ladder]
        assert ladder == [3 * t, 2 * t, 1 * t, 0]
        assert all(a > b for a, b in zip(ladder, ladder[1:]))


def _bo3_attack_matrix(bo3_tree):
    configs = []
    for s in range(4):
        configs.append(("staller", {"stall_after_steps": s}, {}))
    for k in (1, 2, 3):
        configs.append(("premature_init", {"trigger_step": k}, {}))
    configs.append(("rollback_attacker", {}, {"failsafe_after_steps": 1}))
    for r in range(3):
        configs.append(("silent_aborter", {"refuse_at_step": r}, {}))
    for adversary in ("A", "B"):
        honest_side = "B" if adversary == "A" else "A"
        for t in (1, 2):
            for name, params, honest_params in configs:
                yield Scenario(
                    label=f"mx-{name}-{adversary}-t{t}",
                    tree=bo3_tree, mode=MODE_OFFCHAIN,
                    strategies={adversary: (name, dict(params)),
                                honest_side: ("honest", dict(honest_params))},
                    path=BO3_PATH, oracle=BO3_ORACLE, t=t, patience=2, seed=0)


def _random_attack_cases(count=100):
    adversaries = ("staller", "premature_init", "rollback_attacker",
                   "silent_aborter")
    seeds = count // len(adversaries)
    for seed in range(seeds):
        tree, path_names, oracle = random_tree(seed)
        for name in adversaries:
            params = {"staller": {"stall_after_steps": seed % 3},
                      "premature_init": {"trigger_step": 1 + seed % 3},
                      "rollback_attacker": {},
                      "silent_aborter": {"refuse_at_step": seed % 3}}[name]
            honest_params = {"failsafe_after_steps": 1} \
                if name == "rollback_attacker" else {}
            strategies = {p: ("honest", dict(honest_params))
                          for p in tree.participants}
            strategies[tree.participants[-1]] = (name, dict(params))
            yield Scenario(
                label=f"rnd-{seed}-{name}", tree=tree, mode=MODE_OFFCHAIN,
                strategies=strategies, path=tuple(path_names),
                oracle=tuple(oracle), t=1 + seed % 2, patience=2, seed=seed)


@criterion(5, "no adversary schedule ever settles a rolled-back state")
def test_criterion_05_no_rollback_under_attack(bo3_tree):
    """One adversary against honest parties, in every run.  The claim is
    bounded in ``t`` for coalitions: under the round scheduler the graft
    ladder is safe against coalitions of n-1 parties for ``t >= 2``, while
    ``t = 1`` is measured safe against one adversary only (see
    ``test_coalition_limit``)."""
    started = time.monotonic()
    cases = 0
    for scenario in _bo3_attack_matrix(bo3_tree):
        assert no_rollback_ok(run(scenario)), scenario.label
        cases += 1
    for scenario in _random_attack_cases(100):
        assert no_rollback_ok(run(scenario)), scenario.label
        cases += 1
    elapsed = time.monotonic() - started
    assert cases >= 144
    assert elapsed <= 60.0, f"matrix took {elapsed:.1f}s"


SWEEP_GOLDEN = Path(__file__).parent / "golden" / "acceptance5_sweep.sha256"


def test_acceptance5_sweep_traces_are_pinned(bo3_tree):
    """Every ACCEPTANCE 5 trace is byte-identical to the pinned digest, so a
    behaviour change in any adversary run fails here, not only in the
    benchmark."""
    cases = list(_bo3_attack_matrix(bo3_tree)) + list(_random_attack_cases(100))
    lines = [f"{s.label} {hashlib.sha256(run(s).serialize().encode()).hexdigest()}"
             for s in cases]
    expected = SWEEP_GOLDEN.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(expected) == 144
    for got, want in zip(lines, expected):
        assert got == want


def _sweep_line(scenario):
    """``scenario``'s run as its line of the pinned sweep, and its trace."""
    trace = run(scenario)
    return f"{scenario.label} {hashlib.sha256(trace.serialize().encode()).hexdigest()}", trace


def _graft_key(scenario, origin):
    """The compilation key and child a graft of ``scenario`` at the node
    named ``origin`` is compiled for; the cases keep every tree alive, so
    its id names it."""
    tree = scenario.tree
    child = next(i for i in tree.nodes if tree.node(i).name == origin)
    return id(tree), scenario.seed, scenario.mode, scenario.t, child


def test_acceptance5_sweep_compiles_each_contract_once_per_t(monkeypatch):
    """The sweep's 144 runs compile 27 contracts: bo3 at t = 1 and t = 2
    and each of the 25 random trees at its own t, since runs of one tree,
    seed, mode and t share the tree's compilation (``ContractTree.compiled``).
    Their agreed steps compile 50 grafts, one per compilation key and
    child that any run agrees (``OffchainCompilation.graft``), and the 26
    trees' paths are resolved once each (``Compiled.paths``).  Run twice
    in one process, the second time wholly from those shared records,
    which compiles and resolves nothing, every run gives its pinned bytes
    both times."""
    compiled, grafts, resolved = [], [], []
    compile_for, compile_subtree = harness._compile, offchain.compile_subtree
    resolve_path = harness.resolve_path
    def counted(tree, *key):
        compiled.append(key)
        return compile_for(tree, *key)
    def counted_subtree(parts, sub_root, *args):
        # A subtree below the contract's root is a graft's.
        if sub_root != parts.tree.root:
            grafts.append(sub_root)
        return compile_subtree(parts, sub_root, *args)
    monkeypatch.setattr(harness, "_compile", counted)
    monkeypatch.setattr(offchain, "compile_subtree", counted_subtree)
    monkeypatch.setattr(harness, "resolve_path",
                        lambda tree, names: resolved.append(names) or resolve_path(tree, names))
    cases = list(_bo3_attack_matrix(load("bo3_happy").tree)) + list(_random_attack_cases(100))
    expected = SWEEP_GOLDEN.read_text(encoding="utf-8").splitlines()
    for sweep in range(2):
        del compiled[:], grafts[:], resolved[:]
        lines, agreed = [], set()
        for scenario in cases:
            line, trace = _sweep_line(scenario)
            lines.append(line)
            agreed.update(_graft_key(scenario, e.data["origin"])
                          for e in trace.find(GRAFT_PROPOSED))
        assert lines == expected
        assert len(agreed) == 50
        assert (len(compiled), len(grafts), len(resolved)) == \
            ((27, 50, 26) if sweep == 0 else (0, 0, 0))


def test_acceptance5_runs_share_no_state_through_the_record():
    """The records runs share hold nothing a run changes.  After a forward
    sweep has filled every tree's record, the sweep run in reverse order,
    and the bo3 matrix run with each run followed by its on-chain twin on
    the same tree, give every run its pinned bytes: the sweep's from the
    golden file, each on-chain twin's from a run of a fresh copy of the
    tree.  Every graft record a run read compares equal, and is the same
    object, after all the later runs."""
    cases = list(_bo3_attack_matrix(load("bo3_happy").tree)) + list(_random_attack_cases(100))
    # Labels repeat across parameters, so the pins go by position.
    expected = SWEEP_GOLDEN.read_text(encoding="utf-8").splitlines()
    read = {}
    for scenario, pinned in zip(cases, expected):
        line, trace = _sweep_line(scenario)
        assert line == pinned
        comp = scenario.tree.compiled.runs[scenario.seed, scenario.mode, scenario.t]
        for event in trace.find(GRAFT_PROPOSED):
            key = _graft_key(scenario, event.data["origin"])
            read[key] = (comp.grafts[key[-1]], copy.deepcopy(comp.grafts[key[-1]]))
    assert len(read) == 50
    for scenario, pinned in reversed(list(zip(cases, expected))):
        assert _sweep_line(scenario)[0] == pinned
    for scenario, pinned in zip(cases[:44], expected):
        twin = dataclasses.replace(scenario, mode=MODE_ONCHAIN)
        fresh = dataclasses.replace(twin, tree=dataclasses.replace(twin.tree))
        assert _sweep_line(scenario)[0] == pinned
        assert _sweep_line(twin)[0] == _sweep_line(fresh)[0]
    for (tree, seed, mode, t, child), (record, before) in read.items():
        scenario = next(s for s in cases if id(s.tree) == tree)
        now = scenario.tree.compiled.runs[seed, mode, t].grafts[child]
        assert now is record and now == before


# -- the honest party's enforceable frontier ---------------------------------

def enforceable_frontier(tree, trace):
    """The node of the scenario path an honest party can enforce the run
    to, read off the trace: from the origin of the newest graft sealed
    before Init, the path's nodes while each edge can be taken without any
    other party.  An edge can be if each of its signers plays ``honest``
    or has already authorized it (agreeing to a step, which opens its
    graft, publishes every signer's authorization), each reveal is owned
    by an honest party or on the oracle schedule, and its wait fits
    between the landing of the node above and the run's final height.
    None if no graft was sealed before Init."""
    header, summary = trace.header, trace.summary
    honest = {p for p, s in header["strategies"].items() if s["name"] == "honest"}
    scheduled = {label for _, label in header["oracle"]}
    owners = {s.label: s.owner for s in tree.secrets}
    origin, agreed = None, set()
    for event in trace.events:
        if event.kind == INIT_APPENDED:
            break
        if event.kind == GRAFT_SEALED:
            origin = event.data["origin"]
        elif event.kind == GRAFT_PROPOSED:
            agreed.add(event.data["origin"])
    if origin is None:
        return None
    nodes = {tree.node(i).name: tree.node(i) for i in tree.nodes}
    landed = {name: height for name, _, height, _ in summary["appended"]}
    path = header["path"]
    frontier = origin
    for name in path[path.index(origin) + 1:]:
        edge = nodes[name].edge
        if not (edge.auth <= honest or name in agreed) \
                or not all(label in scheduled or owners[label] in honest
                           for label in edge.reveals) \
                or landed.get(frontier, 0) + edge.wait > summary["final_height"]:
            break
        frontier = name
    return frontier


def run_end(trace):
    """The contract node the run's on-chain walk ended at, if any."""
    walked = [name for name, _, _, role in trace.summary["appended"]
              if role in ("graft_root", "node")]
    return walked[-1] if walked else None


ATTACKERS = ("staller", "premature_init", "rollback_attacker", "silent_aborter")
# Runs that stop short of the leaf at their frontier: the edge below needs
# an adversary's authorization, which no protocol can force.
LEGITIMATE_STOPS = {f"rnd-{seed}-{name}" for seed in (0, 10, 12, 21) for name in ATTACKERS} \
    | {"rnd-5-rollback_attacker"}


def test_acceptance5_runs_end_at_their_enforceable_frontier(bo3_tree):
    """Every ACCEPTANCE 5 run with an honest party reaches the leaf or its
    enforceable frontier, except the four ``rnd-19`` runs: there the
    honest A waits at N4 for its own authorization of N9 to be published
    (``OffchainSession.child_ready``).  A known limit, pinned so that the
    change that lifts it flips this test on purpose."""
    stops, short = set(), {}
    for scenario in list(_bo3_attack_matrix(bo3_tree)) + list(_random_attack_cases(100)):
        trace = run(scenario)
        if "honest" not in {name for name, _ in scenario.strategies.values()} \
                or trace.summary["outcome"] == OUTCOME_LEAF:
            continue
        end, frontier = run_end(trace), enforceable_frontier(scenario.tree, trace)
        if end == frontier:
            stops.add(scenario.label)
        else:
            short[scenario.label] = (end, frontier)
    assert stops == LEGITIMATE_STOPS and len(stops) == 17
    assert short == {f"rnd-19-{name}": ("N4", "N10") for name in ATTACKERS}


# random_tree(36): 3 parties, the 2-node branch N1-N2, no oracle.
COALITION_ROLES = (("honest", {}), ("rollback_attacker", {}),
                   ("premature_init", {"trigger_step": 2}))
# The coalition sweep's adversary settings: two adversaries of one kind
# never collude in it.
COALITION_ADVERSARIES = (("staller", {"stall_after_steps": 1}),
                         ("silent_aborter", {"refuse_at_step": 1}),
                         ("rollback_attacker", {}),
                         *(("premature_init", {"trigger_step": k}) for k in (1, 2, 3)))


def _coalition_run(roles, order, t):
    """One off-chain run of random_tree(36) with ``roles[i]`` played by
    participant ``i`` and the parties polled in ``order``."""
    tree, path_names, oracle = random_tree(36)
    return run(Scenario(
        label=f"coalition-t{t}", tree=tree, mode=MODE_OFFCHAIN,
        strategies=dict(zip(tree.participants, roles)), path=tuple(path_names),
        oracle=tuple(oracle), t=t, patience=2, seed=36, order=order))


class TestCoalitionLimit:
    """Two adversaries against one honest party.  At ``t = 1`` the
    premature Init lands after the honest party's poll, and one block later
    the older shadow root becomes valid and lands before the honest party
    is polled again.  A known limit, pinned so that a fix flips it on
    purpose; at ``t = 2`` the honest party reacts in time."""

    def test_t1_settles_a_rolled_back_state_for_an_extra_fee(self):
        trace = _coalition_run(COALITION_ROLES, ("B", "A", "C"), t=1)
        summary = trace.summary
        assert no_rollback_ok(trace) is False
        assert (summary["outcome"], summary["fees_paid"]) == ("leaf", 4)
        assert [(name, height) for name, _, height, _ in summary["appended"]] == \
            [("Head", 2), ("Init", 3), ("N1", 4), ("N2", 4)]
        # The honest party, the only payee, bears the extra fee.
        assert summary["payouts"] == {"A": 121}
        cooperative = _coalition_run(COALITION_ROLES, ("B", "A", "C"), t=2).summary
        assert (cooperative["fees_paid"], cooperative["payouts"]) == (3, {"A": 122})

    def test_t2_holds_with_honest_polled_between_the_adversaries(self):
        runs = 0
        for roles in itertools.permutations(COALITION_ROLES):
            honest = "ABC"[roles.index(COALITION_ROLES[0])]
            others = [p for p in "ABC" if p != honest]
            for first, last in (others, others[::-1]):
                trace = _coalition_run(roles, (first, honest, last), t=2)
                assert no_rollback_ok(trace), (roles, first, last)
                runs += 1
        assert runs == 12

    def test_t2_sweep_holds_over_three_party_seeds(self):
        """Every three-party ``random_tree`` among seeds 20-39 (nine of
        them), off-chain at ``t = 2``: honest at each seat, polled between
        two adversaries of different kinds, in both orders, for every
        ordered pair of the adversary settings below: 1,296 runs.  At
        ``t = 1`` twelve of them, on seeds 25 and 36, settle a rolled-back
        state, so the sweep tells the two units apart."""
        runs = 0
        for seed in range(20, 40):
            tree, path_names, oracle = random_tree(seed)
            if len(tree.participants) != 3:
                continue
            for honest in tree.participants:
                one, other = [p for p in tree.participants if p != honest]
                for first, second in itertools.permutations(COALITION_ADVERSARIES, 2):
                    if first[0] == second[0]:
                        continue
                    strategies = {honest: ("honest", {}), one: (first[0], dict(first[1])),
                                  other: (second[0], dict(second[1]))}
                    for order in ((one, honest, other), (other, honest, one)):
                        trace = run(Scenario(
                            label=f"coalition-{seed}", tree=tree, mode=MODE_OFFCHAIN,
                            strategies=strategies, path=tuple(path_names),
                            oracle=tuple(oracle), t=2, seed=seed, order=order))
                        assert no_rollback_ok(trace), (seed, strategies, order)
                        runs += 1
        assert runs == 1296


@criterion(6, "the rollback checker flags the undefended control run")
def test_criterion_06_checker_detects_rollback():
    trace = run(load("bo3_nohonest"))
    assert trace.summary["outcome"] == "height_cap"
    assert no_rollback_ok(trace) is False


@criterion(7, "message counts match closed forms and quadratic growth")
def test_criterion_07_message_scaling():
    sizes = (2, 4, 8, 16)
    offchain_totals = [message_census(chain_tree(n), mode=MODE_OFFCHAIN)
                       for n in sizes]
    assert offchain_totals == [2 * (n + 2) + n * (n - 1) for n in sizes]
    assert offchain_totals == [10, 24, 76, 276]
    onchain_totals = [message_census(chain_tree(n), mode=MODE_ONCHAIN)
                      for n in sizes]
    assert onchain_totals == [2 * n for n in sizes]

    # doubling n multiplies the marginal off-chain cost ~4x: the growth
    # exponent of the first differences must sit near 2
    diffs = [b - a for a, b in zip(offchain_totals, offchain_totals[1:])]
    slope, _ = statistics.linear_regression(
        [math.log(n) for n in sizes[:-1]], [math.log(d) for d in diffs])
    assert 1.8 <= slope <= 2.2, f"growth exponent {slope:.3f}"

    # bushy contracts stay within a constant factor of the 2n floor
    for height in range(1, 6):
        tree = complete_binary_tree(height)
        n = 2 ** (height + 1) - 1
        total = message_census(tree, mode=MODE_OFFCHAIN)
        overhead = (total - 2 * n) / n
        assert 1.5 <= overhead <= 2.5, f"height {height}: overhead {overhead:.3f}"


@criterion(8, "every settled run conserves value down to the burned fees")
def test_criterion_08_value_conservation():
    for path in bundled_scenarios():
        trace = run(load_scenario(path))
        summary = trace.summary
        chain = replay_appends(trace, load_scenario(path).tree.fee)
        assert chain.conservation_holds()
        if summary["outcome"] == "leaf":
            paid = sum(summary["payouts"].values())
            assert paid + summary["fees_paid"] == summary["deposits"], path.stem
    # aborted stipulations leave the deposits themselves as the payout
    session = start_offchain(load("bo3_happy").tree, seed=0, t=2)
    stipulate(session, withhold_at=7)
    values = session.chain.participant_utxo_values()
    assert values == {"A": 50, "B": 50}


@criterion(9, "identical scenarios replay to byte-identical traces")
def test_criterion_09_determinism():
    for path in bundled_scenarios():
        first = run(load_scenario(path))
        second = run(load_scenario(path))
        assert first.serialize() == second.serialize(), path.stem
        replayed = replay_appends(first, load_scenario(path).tree.fee)
        assert replayed.snapshot() == first.summary["chain"], path.stem


@criterion(10, "withholding any single stipulation message strands no funds")
def test_criterion_10_stipulation_atomicity(bo3_tree):
    commitments = CommitmentSet([(s.label, s.owner) for s in bo3_tree.secrets], 0)

    comp = compile_onchain(bo3_tree, commitments, scenario_salt(0, "onchain"))
    plan_size = len(plan_of(OnchainSession(comp, Trace({})).stipulation))
    assert plan_size == 32
    for index in range(plan_size):
        session = OnchainSession(comp, Trace({}))
        assert stipulate(session, withhold_at=index) is False
        assert session.phase == ABORTED
        assert session.chain.non_deposit_count() == 0
        for dep in session.deposits.values():
            assert session.chain.is_unspent((dep.digest, 0))

    offchain_size = len(plan_of(start_offchain(bo3_tree, seed=0, t=2).stipulation))
    assert offchain_size == 36
    for index in range(offchain_size):
        session = start_offchain(bo3_tree, seed=0, t=2)
        assert stipulate(session, withhold_at=index) is False
        assert session.phase == ABORTED
        assert session.chain.non_deposit_count() == 0
        for dep in session.deposits.values():
            assert session.chain.is_unspent((dep.digest, 0))
