"""CLI surface: subcommands, exit codes, round-trips, stable output."""

import json

import pytest

from ptareach import serialize
from ptareach.cli import main



@pytest.fixture
def fixture_dir(tmp_path):
    assert main(["fixtures", "--out-dir", str(tmp_path)]) == 0
    return tmp_path


def test_fixtures_written(fixture_dir):
    index = json.loads((fixture_dir / "index.json").read_text())
    assert "even" in index and "poca_mod6" in index
    assert index["even"]["accepting_values_up_to_12"] == [0, 2, 4, 6, 8, 10, 12]


def test_fixtures_byte_stable(fixture_dir, tmp_path_factory):
    other = tmp_path_factory.mktemp("again")
    assert main(["fixtures", "--out-dir", str(other)]) == 0
    for path in sorted(fixture_dir.iterdir()):
        assert path.read_bytes() == (other / path.name).read_bytes()


def test_parse_round_trip(fixture_dir, capsys):
    path = fixture_dir / "even.json"
    assert main(["parse", "--input", str(path)]) == 0
    emitted = capsys.readouterr().out
    assert serialize.loads(emitted) == serialize.loads(path.read_text())


def test_reduce_stage_outputs_reparse(fixture_dir, tmp_path, capsys):
    path = fixture_dir / "even.json"
    out = tmp_path / "b.json"
    assert main(["reduce", "--stage", "zero-one", "--pta", str(path), "--out", str(out)]) == 0
    b = serialize.loads(out.read_text())
    assert set(b.consts()) <= {0}
    out2 = tmp_path / "c.json"
    assert main(["reduce", "--stage", "poca", "--pta", str(path), "--out", str(out2)]) == 0
    c = serialize.loads(out2.read_text())
    assert serialize.loads(serialize.dumps(c)) == c


def test_reduce_poca_byte_stable(fixture_dir, tmp_path):
    out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
    for out in (out1, out2):
        assert main(["reduce", "--stage", "poca", "--pta", str(fixture_dir / "ge2.json"),
                     "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_reduce_rejects_wrong_shape(tmp_path, capsys):
    bad = {
        "kind": "pta",
        "states": ["q"],
        "clocks": ["x"],
        "params": ["p"],
        "rules": [
            {"from": "q", "guard": {"clock": "x", "cmp": "=", "rhs": "p"}, "resets": [], "to": "q"}
        ],
        "initial": "q",
        "finals": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["reduce", "--stage", "poca", "--pta", str(path)]) == 2
    err = capsys.readouterr().err
    assert "(2,1)" in err


def test_solve_exit_codes(fixture_dir):
    assert main(["solve", "--pta", str(fixture_dir / "even.json"), "--max-n", "6"]) == 0
    assert main(["solve", "--pta", str(fixture_dir / "never.json"), "--max-n", "6"]) == 1


def test_solve_reports_minimal_value(fixture_dir, capsys):
    assert main(["solve", "--pta", str(fixture_dir / "ge2.json"), "--max-n", "8", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["param_value"] == 2
    assert payload["completeness"] == "BOUNDED"


def test_witness_round_trip_through_validate(fixture_dir, tmp_path, capsys):
    witness = tmp_path / "w.json"
    code = main(
        ["solve", "--pta", str(fixture_dir / "odd.json"), "--max-n", "8",
         "--mode", "via-poca", "--emit-witness", str(witness)]
    )
    assert code == 0
    assert witness.exists()
    code = main(
        ["validate", "--run", str(witness), "--automaton", str(fixture_dir / "odd.json"),
         "--param", "1", "--json"]
    )
    assert code == 0


def test_simulate_and_validate_poca(fixture_dir, tmp_path, capsys):
    mod6 = fixture_dir / "poca_mod6.json"
    witness = tmp_path / "w.json"
    assert main(["simulate", "--automaton", str(mod6), "--param", "5", "--out", str(witness), "--json"]) == 0
    capsys.readouterr()
    assert main(["validate", "--run", str(witness), "--automaton", str(mod6), "--param", "5"]) == 0
    assert main(["simulate", "--automaton", str(mod6), "--param", "4", "--json"]) == 1


def test_regions_subcommand(capsys):
    assert main(["regions", "--classify", "5,3", "--param", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["region"] == "SEG_RIGHT_LOW"


def test_semilinear_subcommand(tmp_path, capsys):
    from ptareach.automata import POCA, AddConst, PocaRule

    rules = (
        PocaRule("q", AddConst(1), "r"),
        PocaRule("r", AddConst(1), "q"),
        PocaRule("q", AddConst(0), "f"),
    )
    oca = POCA(frozenset({"q", "r", "f"}), frozenset(), rules, "q", frozenset())
    path = tmp_path / "oca.json"
    path.write_text(serialize.dumps(oca))
    assert main(["semilinear", "--oca", str(path), "--from", "q", "--to", "f", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pairs"] == [[0, 2]]


def test_depump_subcommand(tmp_path, capsys):
    from ptareach.automata import POCA, AddConst, PocaRule
    from ptareach.semantics import PocaConfiguration, Run

    rules = (PocaRule("a", AddConst(1), "b"), PocaRule("b", AddConst(1), "a"))
    m = POCA(frozenset({"a", "b"}), frozenset({"p"}), rules, "a", frozenset())
    configs = [PocaConfiguration("a", 0)]
    labels = []
    for i in range(14):
        labels.append(i % 2)
        configs.append(PocaConfiguration("b" if i % 2 == 0 else "a", i + 1))
    run = Run("poca", tuple(configs), tuple(labels))

    (tmp_path / "m.json").write_text(serialize.dumps(m))
    (tmp_path / "run.json").write_text(json.dumps(serialize.run_to_obj(run)))
    (tmp_path / "consts.json").write_text(json.dumps({"k": 2, "z": 1, "upsilon": 10}))
    code = main(
        ["depump", "--run", str(tmp_path / "run.json"), "--automaton", str(tmp_path / "m.json"),
         "--param", "3", "--consts", str(tmp_path / "consts.json"), "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta_before"] - payload["delta_after"] == 2  # Gamma = LCM(2) * 1


def test_constants_subcommand(fixture_dir, capsys):
    assert main(["constants", "--poca", str(fixture_dir / "poca_mod6.json"), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["Z"] == "6"


def test_unknown_comparison_rejected(tmp_path):
    bad = {
        "kind": "pta",
        "states": ["q"],
        "clocks": ["x"],
        "params": [],
        "rules": [
            {"from": "q", "guard": {"clock": "x", "cmp": "!=", "rhs": 0}, "resets": [], "to": "q"}
        ],
        "initial": "q",
        "finals": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["parse", "--input", str(path)]) == 2


def test_solve_both_derives_constants_once(fixture_dir, capsys, monkeypatch):
    from ptareach import solver

    path = str(fixture_dir / "even.json")
    assert main(["solve", "--pta", path, "--max-n", "6", "--mode", "via-poca", "--json"]) == 0
    via = json.loads(capsys.readouterr().out)

    calls = []
    original = solver.derive_constants

    def counting(poca):
        calls.append(poca)
        return original(poca)

    monkeypatch.setattr(solver, "derive_constants", counting)
    assert main(["solve", "--pta", path, "--max-n", "6", "--mode", "both", "--json"]) == 0
    both = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    # "both" reports the via-poca verdict, as it always has.
    assert both == {**via, "mode": "both"}
    assert both["reachable"] and both["param_value"] == 0
