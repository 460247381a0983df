"""Command-line front end.

Commands:
  validate CONTRACT          structural checks on a contract file
  run SCENARIO [--trace F]   execute one scenario and print its summary
  compare OFF_SCN ON_SCN     run an off-chain scenario against its baseline
  demo                       bundled side-by-side walkthrough

Exit codes: 0 success, 1 validation failure, 2 unreadable or malformed
input or an unwritable trace file, 3 the run hit its height cap without
reaching a terminal state.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from .contract import ContractParseError, load_contract_file, validate_tree
from .harness import (
    Comparison,
    Scenario,
    ScenarioError,
    bundled_data_dir,
    compare,
    load_scenario,
    run,
)
from .trace import OUTCOME_HEIGHT_CAP

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BAD_INPUT = 2
EXIT_HEIGHT_CAP = 3


def _fmt_payouts(payouts: Dict[str, int]) -> str:
    if not payouts:
        return "-"
    return " ".join(f"{who}={amount}" for who, amount in sorted(payouts.items()))


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        tree = load_contract_file(args.contract)
    except (OSError, ContractParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    errors = validate_tree(tree)
    if errors:
        for entry in errors:
            print(entry)
        return EXIT_INVALID
    print(f"ok: {len(tree.nodes)} nodes, {len(tree.participants)} participants, "
          f"deposit total {tree.deposit_total()}")
    return EXIT_OK


def _invalid_contract(scenario: Scenario) -> bool:
    """Report the first structural error of the scenario's contract, if any."""
    errors = scenario.tree.compiled.errors
    if errors:
        print(f"error: invalid contract: {errors[0]}", file=sys.stderr)
    return bool(errors)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except (OSError, ContractParseError, ScenarioError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if _invalid_contract(scenario):
        return EXIT_INVALID
    trace = run(scenario)
    if args.trace:
        try:
            trace.write(args.trace)
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_BAD_INPUT
    summary = trace.summary
    print(f"label: {scenario.label} ({scenario.mode})")
    print(f"outcome: {summary['outcome']}")
    print(f"final height: {summary['final_height']}")
    print(f"transactions: {summary['onchain_tx_count']}  fees: {summary['fees_paid']}")
    print(f"signature messages: {summary['message_count']}")
    print(f"payouts: {_fmt_payouts(summary['payouts'])}")
    for name, _, height, _ in summary["appended"]:
        print(f"  {name} @{height}")
    return EXIT_HEIGHT_CAP if summary["outcome"] == OUTCOME_HEIGHT_CAP else EXIT_OK


def _fmt_comparison(comparison: Comparison) -> str:
    off, on = comparison.offchain, comparison.onchain
    rows = [
        ("transactions on chain", off["onchain_tx_count"], on["onchain_tx_count"]),
        ("fees paid", off["fees_paid"], on["fees_paid"]),
        ("completion height", off["completion_height"], on["completion_height"]),
        ("signature messages", off["message_count"], on["message_count"]),
        ("final payout", _fmt_payouts(off["payouts"]), _fmt_payouts(on["payouts"])),
    ]
    lines = [f"{'':24}{'off-chain':>12}{'on-chain':>12}"]
    for label, left, right in rows:
        lines.append(f"  {label:<22}{str(left):>12}{str(right):>12}")
    lines.append("")
    lines.append(f"Off-chain saved {comparison.fees_saved_vs_baseline} in fees "
                 f"and settled {comparison.extra_delay_blocks} block(s) later.")
    return "\n".join(lines)


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        off_scenario = load_scenario(args.offchain_scenario)
        on_scenario = load_scenario(args.onchain_scenario)
        if _invalid_contract(off_scenario) or _invalid_contract(on_scenario):
            return EXIT_INVALID
        comparison = compare(off_scenario, on_scenario)
    except (OSError, ContractParseError, ScenarioError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    print(_fmt_comparison(comparison))
    bad = OUTCOME_HEIGHT_CAP in (comparison.offchain["outcome"], comparison.onchain["outcome"])
    return EXIT_HEIGHT_CAP if bad else EXIT_OK


def cmd_demo(_args: argparse.Namespace) -> int:
    data = bundled_data_dir()
    off_scenario = load_scenario(data / "bo3_happy.scn")
    on_scenario = load_scenario(data / "bo3_onchain.scn")
    tree = off_scenario.tree
    comparison = compare(off_scenario, on_scenario)
    print(f"Contract: {tree.node(tree.root).name} "
          f"({len(tree.nodes)} nodes, {len(tree.participants)} participants)")
    print("Branch:   " + " -> ".join(off_scenario.path))
    print()
    print(_fmt_comparison(comparison))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graftsim",
        description="Deterministic simulator for tree-structured UTxO contracts "
                    "executed on-chain or optimistically off-chain.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="structurally check a contract file")
    p_validate.add_argument("contract")
    p_validate.set_defaults(fn=cmd_validate)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--trace", help="write the full event trace to this file")
    p_run.set_defaults(fn=cmd_run)

    p_compare = sub.add_parser("compare",
                               help="run an off-chain scenario and its on-chain baseline")
    p_compare.add_argument("offchain_scenario")
    p_compare.add_argument("onchain_scenario")
    p_compare.set_defaults(fn=cmd_compare)

    p_demo = sub.add_parser("demo", help="run the bundled best-of-three walkthrough")
    p_demo.set_defaults(fn=cmd_demo)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
