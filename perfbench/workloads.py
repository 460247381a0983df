"""The benchmark's three workloads and the output check every run passes.

A workload is a list of cases; one pass runs every case once.  Nothing
here imports graftsim at module level: set-up re-imports the package to
time it, so every function takes the freshly imported package ``g``.

Workloads (the default seed 0 reproduces ACCEPTANCE 5):

* ``adversary_sweep`` - the ten bundled scenarios loaded from disk, the
  44-case bo3 adversary matrix and 4 adversaries x 25 ``random_tree``
  contracts: 154 runs per pass.  The tree shapes are the 25 of
  ACCEPTANCE 5 on every seed and the workload seed re-salts the matrix
  and random scenarios, so a pass does the same work whatever the seed
  and the spread between runs measures the program, not the input mix.
* ``offchain_chain`` - one cooperative off-chain descent of
  ``chain_tree(128)``: 16,516 signature messages, 17,035 events.
* ``onchain_bushy`` - ``complete_binary_tree(8)`` written to a contract
  and scenario file at set-up, loaded and run on-chain each pass.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional

WORKLOADS = ("adversary_sweep", "offchain_chain", "onchain_bushy")

BO3_PATH = ("Bet", "L??", "LW?", "LWL")
BO3_ORACLE = ((2, "L1"), (4, "W2"), (6, "L3"))
ADVERSARIES = ("staller", "premature_init", "rollback_attacker", "silent_aborter")
RANDOM_TREES = 25
CHAIN_NODES = 128
BUSHY_HEIGHT = 8
# Random-case scenario seeds for workload seed s are k + SEED_STRIDE * s.
SEED_STRIDE = 1000


@dataclass
class Case:
    """One run of a workload: a scenario file to load, or a built scenario."""
    label: str
    scenario: Any = None
    path: Optional[Path] = None
    messages: Optional[int] = None   # closed-form signature message count
    must_settle: bool = False        # a cooperative run must end at a leaf


@dataclass
class Result:
    case: Case
    trace: Any
    text: str
    fee: int


def execute(g, case: Case) -> Result:
    """The timed unit: load (if from disk), run, serialize."""
    scenario = g.load_scenario(case.path) if case.path is not None else case.scenario
    trace = g.run(scenario)
    return Result(case, trace, trace.serialize(), scenario.tree.fee)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Inputs


def bo3_attack_matrix(g, bo3_tree, seed: int):
    """The 44-case bo3 adversary matrix of ACCEPTANCE 5."""
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
                yield g.harness.Scenario(
                    label=f"mx-{name}-{adversary}-t{t}",
                    tree=bo3_tree, mode=g.MODE_OFFCHAIN,
                    strategies={adversary: (name, dict(params)),
                                honest_side: ("honest", dict(honest_params))},
                    path=BO3_PATH, oracle=BO3_ORACLE, t=t, patience=2, seed=seed)


def random_attack_cases(g, seed: int):
    """4 adversaries x 25 random contracts, as in ACCEPTANCE 5."""
    for tree_seed in range(RANDOM_TREES):
        tree, path_names, oracle = g.random_tree(tree_seed)
        for name in ADVERSARIES:
            params = {"staller": {"stall_after_steps": tree_seed % 3},
                      "premature_init": {"trigger_step": 1 + tree_seed % 3},
                      "rollback_attacker": {},
                      "silent_aborter": {"refuse_at_step": tree_seed % 3}}[name]
            honest_params = {"failsafe_after_steps": 1} \
                if name == "rollback_attacker" else {}
            strategies = {p: ("honest", dict(honest_params))
                          for p in tree.participants}
            strategies[tree.participants[-1]] = (name, dict(params))
            yield g.harness.Scenario(
                label=f"rnd-{tree_seed}-{name}", tree=tree, mode=g.MODE_OFFCHAIN,
                strategies=strategies, path=tuple(path_names),
                oracle=tuple(oracle), t=1 + tree_seed % 2, patience=2,
                seed=tree_seed + SEED_STRIDE * seed)


def acceptance_sweep(g, seed: int) -> List[Any]:
    """The 144 scenarios of ACCEPTANCE 5 (seed 0) or their re-salted twins."""
    bo3_tree = g.load_scenario(g.bundled_data_dir() / "bo3_happy.scn").tree
    return list(bo3_attack_matrix(g, bo3_tree, seed)) + list(random_attack_cases(g, seed))


def _cooperative(g, label, tree, mode, seed):
    path = [tree.node(n).name for n in g.contract.deepest_leaf_path(tree)]
    return g.harness.Scenario(
        label=label, tree=tree, mode=mode,
        strategies={p: ("honest", {}) for p in tree.participants},
        path=tuple(path), t=1, seed=seed)


def build(g, workload: str, seed: int, workdir: Path) -> List[Case]:
    """Generate a workload's cases; the set-up that ``setup_s`` times."""
    if workload == "adversary_sweep":
        cases = [Case(p.stem, path=p) for p in g.bundled_scenarios()]
        cases += [Case(s.label, scenario=s) for s in acceptance_sweep(g, seed)]
        return cases
    if workload == "offchain_chain":
        n = CHAIN_NODES
        scenario = _cooperative(g, f"chain{n}", g.chain_tree(n), g.MODE_OFFCHAIN, seed)
        return [Case(scenario.label, scenario=scenario,
                     messages=2 * (n + 2) + n * (n - 1), must_settle=True)]
    if workload == "onchain_bushy":
        tree = g.complete_binary_tree(BUSHY_HEIGHT)
        scenario = _cooperative(g, f"bushy{BUSHY_HEIGHT}", tree, g.MODE_ONCHAIN, seed)
        workdir.mkdir(parents=True, exist_ok=True)
        # Named by seed, so runs with other seeds never share the files.
        contract_file = workdir / f"onchain_bushy-{seed}.contract"
        contract_file.write_text(json.dumps(g.contract_to_dict(tree)), encoding="utf-8")
        scenario_file = workdir / f"onchain_bushy-{seed}.scn"
        scenario_file.write_text(json.dumps({
            "label": scenario.label, "contract": contract_file.name,
            "mode": scenario.mode, "path": list(scenario.path), "t": 1, "seed": seed,
            "strategies": {p: {"name": "honest"} for p in tree.participants},
        }), encoding="utf-8")
        return [Case(scenario.label, path=scenario_file,
                     messages=2 * len(tree.nodes), must_settle=True)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Output check


def no_rollback_ok(g, trace) -> bool:
    """Whatever redeemed Init realizes the newest state sealed (in trace
    order) before Init landed; the no-rollback condition of ACCEPTANCE 5."""
    init_events = trace.find(g.trace.INIT_APPENDED)
    if not init_events:
        return True
    init_digest = init_events[0].data["digest"]
    last_sealed = None
    for event in trace.events:
        if event.kind == g.trace.INIT_APPENDED:
            break
        if event.kind == g.trace.GRAFT_SEALED:
            last_sealed = event.data["digest"]
    for tx, _, _ in trace.appends:
        if (init_digest, 0) in tx.inputs:
            return tx.digest == last_sealed
    return True


def check(g, result: Result, expected_digest: Optional[str]) -> Optional[str]:
    """Return why ``result`` is wrong, or None when every invariant holds."""
    trace, summary = result.trace, result.trace.summary
    case = result.case
    if not g.replay_appends(trace, result.fee).conservation_holds():
        return "value is not conserved on replay"
    outcome = summary["outcome"]
    if outcome == g.trace.OUTCOME_LEAF:
        if sum(summary["payouts"].values()) + summary["fees_paid"] != summary["deposits"]:
            return "payouts plus fees differ from deposits"
    elif case.must_settle:
        return f"cooperative run ended {outcome!r}"
    names = [entry["name"] for entry in trace.header["strategies"].values()]
    if any(name != "honest" for name in names):
        # With no honest party (the bo3_nohonest control) the rollback must
        # succeed; with one it must never settle a rolled-back state.
        defended = "honest" in names
        if no_rollback_ok(g, trace) != defended:
            return "rollback condition violated" if defended \
                else "undefended control did not roll back"
    if case.messages is not None and summary["message_count"] != case.messages:
        return f"{summary['message_count']} messages, closed form says {case.messages}"
    if expected_digest is not None and digest(result.text) != expected_digest:
        return "trace digest differs from the reference"
    return None
