"""Command-line interface: exit codes and printed output."""

import json
from pathlib import Path

import pytest

from graftsim.cli import (
    EXIT_BAD_INPUT,
    EXIT_HEIGHT_CAP,
    EXIT_INVALID,
    EXIT_OK,
    main,
)
from graftsim.harness import bundled_data_dir

GOLDEN = Path(__file__).parent / "golden"


def bundled(name):
    return str(bundled_data_dir() / name)


class TestValidate:
    def test_bundled_contract_is_ok(self, capsys):
        assert main(["validate", bundled("bo3.contract")]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == "ok: 15 nodes, 2 participants, deposit total 100\n"

    def test_structural_error_exits_one(self, tmp_path, capsys):
        data = json.loads(Path(bundled("bo3.contract")).read_text())
        del data["deposits"]["B"]
        broken = tmp_path / "broken.contract"
        broken.write_text(json.dumps(data))
        assert main(["validate", str(broken)]) == EXIT_INVALID
        assert "MissingDeposit" in capsys.readouterr().out

    def test_missing_file_exits_two(self, capsys):
        assert main(["validate", "/nonexistent/x.contract"]) == EXIT_BAD_INPUT
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.contract"
        bad.write_text("{")
        assert main(["validate", str(bad)]) == EXIT_BAD_INPUT
        assert "error:" in capsys.readouterr().err

    def test_json_nested_past_the_parser_exits_two(self, tmp_path, capsys):
        deep = tmp_path / "deep.contract"
        deep.write_text('{"nodes": ' + "[" * 100_000)
        assert main(["validate", str(deep)]) == EXIT_BAD_INPUT
        assert "nested too deeply" in capsys.readouterr().err


class TestRun:
    def test_happy_scenario(self, capsys):
        assert main(["run", bundled("bo3_happy.scn")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "label: bo3_happy (offchain)" in out
        assert "outcome: leaf" in out
        assert "transactions: 3  fees: 3" in out
        assert "signature messages: 58" in out
        assert "payouts: B=97" in out
        assert "  Head @1" in out and "  LWL @7" in out

    def test_trace_file_matches_golden(self, tmp_path, capsys):
        out_file = tmp_path / "run.trace"
        assert main(["run", bundled("bo3_happy.scn"),
                     "--trace", str(out_file)]) == EXIT_OK
        assert out_file.read_text(encoding="utf-8") == \
            (GOLDEN / "bo3_happy.trace").read_text(encoding="utf-8")

    def test_capped_run_exits_three(self, capsys):
        assert main(["run", bundled("bo3_nohonest.scn")]) == EXIT_HEIGHT_CAP
        assert "outcome: height_cap" in capsys.readouterr().out

    def test_missing_scenario_exits_two(self, capsys):
        assert main(["run", "/nonexistent/x.scn"]) == EXIT_BAD_INPUT

    def test_scenario_with_missing_contract_exits_two(self, tmp_path, capsys):
        scn = tmp_path / "s.scn"
        scn.write_text(json.dumps({
            "label": "x", "contract": "gone.contract", "mode": "offchain",
            "strategies": {}, "path": ["Bet"]}))
        assert main(["run", str(scn)]) == EXIT_BAD_INPUT


def _out_w_shares_sum_to_11_28(contract):
    out_w = contract["nodes"]["children"][0]["children"][0]
    out_w["outputs"] = [{"to": "A", "share": "1/4"}, {"to": "B", "share": "1/7"}]


@pytest.mark.parametrize("scenario_patch, contract_patch, code, message", [
    ({"t": 0}, None, EXIT_BAD_INPUT, "t must be in"),
    ({"t": 2 ** 31}, None, EXIT_BAD_INPUT, "shadow root's timelock"),
    ({"strategies": {"A": "honest"}}, None, EXIT_BAD_INPUT, "strategy for A"),
    ({"seed": -1}, None, EXIT_BAD_INPUT, "seed must be in"),
    ({}, lambda c: c["deposits"].update(A=2 ** 64), EXIT_INVALID, "TooLarge at deposits"),
    ({}, _out_w_shares_sum_to_11_28, EXIT_INVALID, "leaf shares sum to 11/28"),
], ids=["t-zero", "t-past-u32-timelock", "strategy-not-an-object", "negative-seed", "deposit-over-u64",
        "leaf-shares-11/28"])
def test_bad_scenario_values_end_in_one_line(tmp_path, capsys, scenario_patch,
                                             contract_patch, code, message):
    contract = json.loads(Path(bundled("bo3.contract")).read_text())
    if contract_patch:
        contract_patch(contract)
    (tmp_path / "c.contract").write_text(json.dumps(contract))
    data = json.loads(Path(bundled("bo3_happy.scn")).read_text())
    data.update(contract="c.contract", **scenario_patch)
    scn = tmp_path / "s.scn"
    scn.write_text(json.dumps(data))
    assert main(["run", str(scn)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


class TestCompare:
    def test_bundled_pair(self, capsys):
        code = main(["compare", bundled("bo3_happy.scn"), bundled("bo3_onchain.scn")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "Off-chain saved 1 in fees and settled 1 block(s) later." in out

    def test_mismatched_modes_exit_two(self, capsys):
        code = main(["compare", bundled("bo3_onchain.scn"), bundled("bo3_onchain.scn")])
        assert code == EXIT_BAD_INPUT
        assert "error:" in capsys.readouterr().err


class TestDemo:
    def test_matches_golden_byte_for_byte(self, capsys):
        assert main(["demo"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == (GOLDEN / "demo.txt").read_text(encoding="utf-8")


def test_unknown_command_is_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
