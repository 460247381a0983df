"""Command-line interface: exit codes and printed output."""

import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from graftsim.cli import (
    EXIT_BAD_INPUT,
    EXIT_HEIGHT_CAP,
    EXIT_INVALID,
    EXIT_OK,
    main,
)
from graftsim import harness
from graftsim.harness import bundled_data_dir, bundled_scenarios, load_scenario, run

from drivers import events_and_summary, run_blockwise

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

    def test_stdout_matches_golden_byte_for_byte(self, capsys):
        """Every bundled scenario's printed summary and exit code, pinned."""
        out = []
        for path in bundled_scenarios():
            code = main(["run", str(path)])
            out.append(f"$ graftsim run {path.name}  # exit {code}\n{capsys.readouterr().out}")
        assert len(out) == 10
        assert "".join(out) == (GOLDEN / "run_stdout.txt").read_text(encoding="utf-8")

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


def _out_w_pays_to_a_number(contract):
    contract["nodes"]["children"][0]["children"][0]["outputs"][0]["to"] = 1


def _out_w_waits_true(contract):
    contract["nodes"]["children"][0]["children"][0]["edge"].append({"after": True})


def _out_w_pays_a_twice(contract):
    contract["nodes"]["children"][0]["children"][0]["outputs"] = [
        {"to": "A", "share": "1/2"}, {"to": "A", "share": "1/2"}]


def _participants_past_the_input_count(contract):
    contract["participants"] += [f"P{i}" for i in range(2 ** 16 - 2)]
    contract["deposits"].update(dict.fromkeys(contract["participants"][2:], 1))


@pytest.mark.parametrize("scenario_patch, contract_patch, code, message", [
    ({"t": 0}, None, EXIT_BAD_INPUT, "t must be in"),
    ({"t": 2 ** 31}, None, EXIT_BAD_INPUT, "shadow root's timelock"),
    ({"strategies": {"A": "honest"}}, None, EXIT_BAD_INPUT, "strategy for A"),
    ({"seed": -1}, None, EXIT_BAD_INPUT, "seed must be in"),
    ({}, lambda c: c["deposits"].update(A=2 ** 64), EXIT_INVALID, "TooLarge at deposits"),
    ({}, _out_w_shares_sum_to_11_28, EXIT_INVALID, "leaf shares sum to 11/28"),
    # Contracts that ``run`` cannot execute, so validation rejects them.
    ({}, lambda c: c["participants"].append("A"), EXIT_INVALID, "DuplicateParticipant at A"),
    ({}, _out_w_pays_a_twice, EXIT_INVALID, "DuplicatePayout at Out_W"),
    ({}, _participants_past_the_input_count, EXIT_INVALID, "TooLarge at participants"),
    ({"strategies": {"A": {"name": "honest", "params": {"patience": "soon"}}}},
     None, EXIT_BAD_INPUT, "A's honest param patience must be an integer"),
    ({"strategies": {"A": {"name": "honest", "params": {"patience": [1]}}}},
     None, EXIT_BAD_INPUT, "A's honest param patience must be an integer"),
    ({"strategies": {"A": {"name": "honest", "params": {"failsafe_after_steps": "x"}}}},
     None, EXIT_BAD_INPUT, "A's honest param failsafe_after_steps must be an integer"),
    ({"strategies": {"B": {"name": "staller", "params": {"stall_after_steps": -1}}}},
     None, EXIT_BAD_INPUT, "B's staller param stall_after_steps must be in [0, inf]"),
    ({}, lambda c: c["deposits"].update(A="x"), EXIT_BAD_INPUT, "malformed contract field"),
    ({"strategies": {}}, lambda c: c.update(participants=[None]), EXIT_BAD_INPUT,
     "participant names must be strings, got None"),
    # Name fields take JSON strings only: no number or null made into a name.
    ({}, lambda c: c["nodes"].update(name=7), EXIT_BAD_INPUT, "node names must be strings, got 7"),
    ({}, lambda c: c["nodes"].update(name=None), EXIT_BAD_INPUT,
     "node names must be strings, got None"),
    ({}, lambda c: c["secrets"][0].update(label=12), EXIT_BAD_INPUT,
     "secret labels must be strings, got 12"),
    ({}, lambda c: c["secrets"][0].update(owner=None), EXIT_BAD_INPUT,
     "secret owners must be strings, got None"),
    ({}, _out_w_pays_to_a_number, EXIT_BAD_INPUT,
     "Out_W: bad payout entry: payout beneficiaries must be strings, got 1"),
    # Integer fields take JSON integers only: no bool, float or numeric string.
    ({}, lambda c: c["deposits"].update(A=49.9), EXIT_BAD_INPUT, "must be integers, got 49.9"),
    ({}, lambda c: c["deposits"].update(A=True), EXIT_BAD_INPUT, "must be integers, got True"),
    ({}, lambda c: c["deposits"].update(A="50"), EXIT_BAD_INPUT, "must be integers, got '50'"),
    ({}, lambda c: c.update(fee=1.9), EXIT_BAD_INPUT, "must be integers, got 1.9"),
    ({}, _out_w_waits_true, EXIT_BAD_INPUT, "Out_W: after takes a non-negative block count"),
    ({"t": 2.7}, None, EXIT_BAD_INPUT, "t must be an integer, got 2.7"),
    ({"patience": True}, None, EXIT_BAD_INPUT, "patience must be an integer, got True"),
    ({"seed": "7"}, None, EXIT_BAD_INPUT, "seed must be an integer, got '7'"),
    ({"oracle": [[2.5, "L1"], [4, "W2"], [6, "L3"]]}, None, EXIT_BAD_INPUT,
     "oracle heights must be integers, got 2.5"),
    ({"height_cap": 9.9}, None, EXIT_BAD_INPUT, "height_cap must be an integer, got 9.9"),
    # Labels take JSON strings only, as the contract's names do: the oracle's
    # 1 does not name the contract's secret "1".
    ({"label": ["not", "a", "string"]}, None, EXIT_BAD_INPUT,
     "label must be a string, got ['not', 'a', 'string']"),
    ({"oracle": [[2, 1]]}, lambda c: c["secrets"].append({"label": "1", "owner": "oracle"}),
     EXIT_BAD_INPUT, "oracle labels must be strings, got 1"),
    # A path names nodes of the contract, from its root and along its edges.
    ({"path": ["L??"]}, None, EXIT_BAD_INPUT,
     "the scenario path must start at the root 'Bet'"),
    ({"path": ["Bet", "LWL"]}, None, EXIT_BAD_INPUT, "'LWL' is not a child of 'Bet'"),
    ({"path": ["Bet", "L??", "Nope"]}, None, EXIT_BAD_INPUT,
     "the scenario path names unknown node 'Nope'"),
    ({"path": "Bet"}, None, EXIT_BAD_INPUT, "path must be a list of node names"),
], ids=["t-zero", "t-past-u32-timelock", "strategy-not-an-object", "negative-seed", "deposit-over-u64",
        "leaf-shares-11/28", "participant-twice", "payout-twice", "participants-past-u16",
        "patience-not-a-number", "patience-a-list",
        "failsafe-after-steps-not-a-number", "negative-stall-after-steps",
        "deposit-not-a-number", "participant-not-a-name",
        "node-name-a-number", "node-name-null", "secret-label-a-number", "secret-owner-null",
        "payout-to-a-number",
        "deposit-a-float", "deposit-a-bool", "deposit-a-string", "fee-a-float",
        "after-a-bool", "t-a-float", "patience-a-bool", "seed-a-string",
        "oracle-height-a-float", "height-cap-a-float", "label-a-list",
        "oracle-label-a-number", "path-not-from-the-root", "path-skips-a-node",
        "path-names-an-unknown-node", "path-a-string"])
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


# A share whose number passes the amount bound, as text or as a JSON
# integer past the interpreter's 4,300-digit limit, each given as its JSON
# token.  ``Fraction`` would build each text's number first, and
# "1e999999999" would take hours.
@pytest.mark.parametrize("token, message", [
    ('"1e5000"', "share '1e5000' has a term over 18446744073709551615"),
    ('"1e999999999"', "share '1e999999999' has an exponent over 10000"),
    ('"1e-999999999"', "share '1e-999999999' has an exponent over 10000"),
    ("1" + "0" * 5000, "for integer string conversion"),
], ids=["1e5000", "1e999999999", "1e-999999999", "int-of-5001-digits"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_share_past_the_bound_ends_in_one_line(tmp_path, capsys, token, message, command):
    contract = json.loads(Path(bundled("bo3.contract")).read_text())
    contract["nodes"]["children"][0]["children"][0]["outputs"][0]["share"] = "SHARE"
    (tmp_path / "c.contract").write_text(json.dumps(contract).replace('"SHARE"', token))
    scn = _scenario_naming(tmp_path, tmp_path / "c.contract")
    start = time.perf_counter()
    code = main(["validate", str(tmp_path / "c.contract")] if command == "validate"
                else ["run", str(scn)])
    assert time.perf_counter() - start < 1
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


# JSON's "\ud800" loads as a lone surrogate, which UTF-8 cannot encode, so
# printing it to a UTF-8 stdout would end in a traceback: each name field is
# refused where it is parsed.
LONE = "\ud800"
LONE_CASES = {
    "node-name": ({}, lambda c: c["nodes"].update(name=LONE), "node names must be UTF-8 text"),
    "participant-name": ({"strategies": {}}, lambda c: c.update(participants=["A", LONE]),
                         "participant names must be UTF-8 text"),
    "deposit-key": ({}, lambda c: c["deposits"].update({LONE: 1}),
                    "deposit keys must be UTF-8 text"),
    "secret-label": ({}, lambda c: c["secrets"].append({"label": LONE, "owner": "oracle"}),
                     "secret labels must be UTF-8 text"),
    "scenario-label": ({"label": LONE}, None, "label must be UTF-8 text"),
}


# ``validate`` reads the contract alone, so it runs the four contract cases.
@pytest.mark.parametrize("command, scenario_patch, contract_patch, message", [
    pytest.param(command, *case, id=f"{command}-{name}")
    for name, case in LONE_CASES.items() for command in ("validate", "run")
    if command == "run" or case[1] is not None])
def test_a_lone_surrogate_ends_in_one_line(tmp_path, capsys, command, scenario_patch,
                                           contract_patch, message):
    contract = json.loads(Path(bundled("bo3.contract")).read_text())
    if contract_patch:
        contract_patch(contract)
    (tmp_path / "c.contract").write_text(json.dumps(contract))
    data = json.loads(Path(bundled("bo3_happy.scn")).read_text())
    data.update(contract="c.contract", **scenario_patch)
    (tmp_path / "s.scn").write_text(json.dumps(data))
    argv = ["validate", str(tmp_path / "c.contract")] if command == "validate" \
        else ["run", str(tmp_path / "s.scn")]
    assert main(argv) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message + ", got '\\ud800'" in captured.err
    captured.err.encode("utf-8")  # the escaped name prints on any stream


def _not_utf8(directory, name, text):
    """Write ``text`` to ``directory/name`` as Latin-1, which is not UTF-8."""
    path = directory / name
    path.write_bytes(text.encode("latin-1"))
    return path


def _scenario_naming(directory, contract):
    data = json.loads(Path(bundled("bo3_happy.scn")).read_text())
    scn = directory / "s.scn"
    scn.write_text(json.dumps(dict(data, contract=contract.name)))
    return scn


# Files that cannot be read as given: each ends in one line and exit 2.
@pytest.mark.parametrize("argv, message", [
    (lambda d: ["validate", str(_not_utf8(d, "c.contract", '{"fee": "\xe9"}'))],
     "c.contract: 'utf-8' codec can't decode byte 0xe9"),
    (lambda d: ["run", str(_scenario_naming(d, _not_utf8(d, "c.contract", '{"\xe9"}')))],
     "c.contract: 'utf-8' codec can't decode byte 0xe9"),
    (lambda d: ["run", str(_not_utf8(d, "s.scn", '{"label": "caf\xe9"}'))],
     "s.scn: invalid JSON ('utf-8' codec can't decode byte 0xe9"),
    (lambda d: ["run", bundled("bo3_happy.scn"), "--trace", str(d / "missing" / "t.jsonl")],
     "No such file or directory"),
], ids=["contract-not-utf8", "scenario-contract-not-utf8", "scenario-not-utf8",
        "trace-into-a-missing-directory"])
def test_unreadable_files_end_in_one_line(tmp_path, capsys, argv, message):
    assert main(argv(tmp_path)) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def _slots(doc):
    """Every (container, key) pair of a parsed JSON document, in a fixed order."""
    slots, stack = [], [doc]
    while stack:
        node = stack.pop()
        keys = list(node) if isinstance(node, dict) else \
            range(len(node)) if isinstance(node, list) else ()
        for key in keys:
            slots.append((node, key))
            stack.append(node[key])
    return slots


SCENARIOS = sorted(p.name for p in bundled_data_dir().glob("*.scn"))
DELETE = object()
# Integers up to and past the encoding limits: a long wait costs the engine
# nothing, since it skips the blocks where nothing can change.  The runs that
# stay long are those whose traces are long by nature, e.g. rollback_attacker
# logs one failed append per block while a large-t graft timelock runs; none
# of the 80 examples below draws one.
LIMITS = (10 ** 9, 2 ** 32 - 1, 2 ** 32, 2 ** 62, 2 ** 64 - 1, 2 ** 64)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.sampled_from(LIMITS),
              st.text(max_size=4),
              st.sampled_from(["A", "B", "honest", "staller", "Bet", "LWL", "L1", "1/2",
                               "1e5000", LONE])),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=5)
# A scenario slot whose key is a strategy param, for the pinned example.
FAILSAFE_SLOT = next(i for i, (_, key) in enumerate(_slots(json.loads(
    Path(bundled("bo3_failsafe_start.scn")).read_text()))) if key == "failsafe_after_steps")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(name=st.sampled_from(SCENARIOS),
       mutations=st.lists(st.tuples(st.booleans(), st.integers(0, 10 ** 4),
                                    JSON_VALUES | st.just(DELETE)), min_size=1, max_size=3))
@example(name="bo3_failsafe_start.scn", mutations=[(False, FAILSAFE_SLOT, "x")])
def test_mutated_inputs_end_in_an_exit_code(name, mutations):
    # Each mutation replaces or deletes one value anywhere in the scenario
    # or, when its flag is set, in the contract it names.
    docs = [json.loads(Path(bundled(name)).read_text()),
            json.loads(Path(bundled("bo3.contract")).read_text())]
    for in_contract, index, value in mutations:
        slots = _slots(docs[in_contract])
        if not slots:
            continue
        container, key = slots[index % len(slots)]
        if value is DELETE:
            del container[key]
        else:
            container[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        scn, contract = Path(tmp) / "s.scn", Path(tmp) / "bo3.contract"
        scn.write_text(json.dumps(docs[0]))
        contract.write_text(json.dumps(docs[1]))
        assert main(["validate", str(contract)]) in (0, 1, 2, 3)
        assert main(["run", str(scn)]) in (0, 1, 2, 3)


def _staller_copy(tmp_path, scenario_patch=None, contract_patch=None) -> Path:
    """A copy of ``bo3_staller.scn`` and its contract, patched in place."""
    data = json.loads(Path(bundled("bo3_staller.scn")).read_text())
    contract = json.loads(Path(bundled("bo3.contract")).read_text())
    if scenario_patch:
        scenario_patch(data)
    if contract_patch:
        contract_patch(contract)
    (tmp_path / "bo3.contract").write_text(json.dumps(contract))
    scn = tmp_path / "s.scn"
    scn.write_text(json.dumps(data))
    return scn


def _last_reveal_at(height):
    return lambda data: data.update(oracle=[[2, "L1"], [4, "W2"], [height, "L3"]])


def _wait_before_lw(contract):
    # ``LW?``, the third node of the scenario branch, waits the longest
    # relative timelock the encoding holds.
    lw = contract["nodes"]["children"][1]["children"][0]
    assert lw["name"] == "LW?"
    lw["edge"].append({"after": 2 ** 32 - 1})


@pytest.mark.parametrize("scenario_patch, contract_patch, code", [
    (_last_reveal_at(10 ** 9), None, EXIT_OK),
    (lambda d: d["strategies"]["A"].update(params={"patience": 2 ** 32 - 1}), None,
     EXIT_HEIGHT_CAP),
    (None, _wait_before_lw, EXIT_HEIGHT_CAP),
    (lambda d: d.update(height_cap=2 ** 62), _wait_before_lw, EXIT_OK),
    (lambda d: d.update(height_cap=2 ** 62), None, EXIT_OK),
    (lambda d: d.update(height_cap=0), None, EXIT_HEIGHT_CAP),
], ids=["last-reveal-1e9", "honest-patience-u32", "after-u32", "after-u32-cap-2^62",
        "cap-2^62", "cap-0"])
def test_values_at_their_limits_end_in_a_few_polls(tmp_path, monkeypatch, scenario_patch,
                                                   contract_patch, code):
    # The engine polls only at the blocks where something can change, so a
    # run is as long as its events, not as its waits.
    polls = []
    poll = harness._Engine._poll
    monkeypatch.setattr(harness._Engine, "_poll",
                        lambda engine, participant: polls.append(participant)
                        or poll(engine, participant))
    scn = _staller_copy(tmp_path, scenario_patch, contract_patch)
    assert main(["run", str(scn)]) == code
    assert len(polls) <= 50


def test_a_long_wait_skips_no_event(tmp_path):
    scenario = load_scenario(_staller_copy(tmp_path, _last_reveal_at(10 ** 5)))
    assert events_and_summary(run(scenario)) == events_and_summary(run_blockwise(scenario))


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
