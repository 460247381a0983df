"""Deterministic simulator for tree-structured UTxO contracts.

Contracts are rooted trees of transaction templates whose edges carry
signature, secret-reveal, and timelock requirements.  The package
compiles them for direct on-chain execution or for optimistic off-chain
execution anchored by a Head/Init transaction pair, where each agreed
step re-grafts the remaining subtree with a strictly shrinking relative
timelock; it then replays either protocol under per-participant
strategies (honest or misbehaving) on a simulated chain and records a
byte-reproducible trace of everything that happened.
"""

from .contract import (
    CONTINUATION,
    ContractTree,
    Edge,
    NodeTemplate,
    PayoutShare,
    SecretDecl,
    StructuralError,
    contract_from_dict,
    contract_to_dict,
    load_contract_file,
    resolve_path,
    validate_tree,
)
from .harness import (
    Comparison,
    MODE_OFFCHAIN,
    MODE_ONCHAIN,
    Report,
    Scenario,
    ScenarioError,
    bundled_data_dir,
    bundled_scenarios,
    compare,
    load_scenario,
    message_census,
    report_from_trace,
    run,
    scenario_from_dict,
)
from .ledger import AppendError, AppendWitness, ChainState, TxInstance
from .offchain import OffchainSession, compile_offchain
from .onchain import OnchainSession, ProtocolError, compile_onchain
from .strategies import STRATEGIES, Action, Observation, register
from .trace import Trace, replay_appends, summarize_run
from .treegen import chain_tree, complete_binary_tree, random_tree
from .witness import CommitmentSet, scenario_salt

__version__ = "0.1.0"

__all__ = [
    "CONTINUATION", "ContractTree", "Edge", "NodeTemplate",
    "PayoutShare", "SecretDecl", "StructuralError",
    "contract_from_dict", "contract_to_dict", "load_contract_file",
    "resolve_path", "validate_tree",
    "Comparison", "MODE_OFFCHAIN", "MODE_ONCHAIN", "Report", "Scenario",
    "ScenarioError", "bundled_data_dir", "bundled_scenarios", "compare",
    "load_scenario", "message_census", "report_from_trace", "run",
    "scenario_from_dict",
    "AppendError", "AppendWitness", "ChainState", "TxInstance",
    "OffchainSession", "compile_offchain",
    "OnchainSession", "ProtocolError", "compile_onchain",
    "STRATEGIES", "Action", "Observation", "register",
    "Trace", "replay_appends", "summarize_run",
    "chain_tree", "complete_binary_tree", "random_tree",
    "CommitmentSet", "scenario_salt",
    "__version__",
]
