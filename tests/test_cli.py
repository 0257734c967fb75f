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


def test_reduce_poca_annotations_sidecar(fixture_dir, tmp_path):
    # The sidecar keeps the state annotations and, per entry rule, the event
    # its gadget realizes; every entry rule leaves an anchor.
    poca, notes = tmp_path / "c.json", tmp_path / "notes.json"
    assert main(["reduce", "--stage", "poca", "--pta", str(fixture_dir / "even.json"),
                 "--out", str(poca), "--annotations", str(notes)]) == 0
    sidecar = json.loads(notes.read_text())
    assert set(sidecar) == {"states", "rules"}
    roles = {meta["role"] for meta in sidecar["states"].values()}
    assert roles == {"init", "acc", "anchor"}
    rules = json.loads(poca.read_text())["rules"]
    assert sidecar["rules"]
    for index, event in sidecar["rules"].items():
        src = rules[int(index)]["from"]
        assert sidecar["states"][src]["role"] == "anchor"
        assert event["type"] in ("cross", "reset", "accept")
        assert sidecar["states"][src]["bstate"] == event["u"]


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


def test_simulate_honours_cap_zero(fixture_dir, capsys):
    # --cap 0 is a cap, not "unset": the PTA oracle rejects a cap below its
    # constants, and no POCA run reaches counter 5 inside [0, 0].
    assert main(["simulate", "--automaton", str(fixture_dir / "even.json"),
                 "--param", "2", "--cap", "0", "--json"]) == 2
    assert main(["simulate", "--automaton", str(fixture_dir / "poca_mod6.json"),
                 "--param", "5", "--cap", "0", "--json"]) == 1


def test_validate_rejects_shifted_rule_indices(fixture_dir, tmp_path, capsys):
    even = fixture_dir / "even.json"
    witness = tmp_path / "w.json"
    assert main(["simulate", "--automaton", str(even), "--param", "2", "--out", str(witness)]) == 0
    obj = json.loads(witness.read_text())
    for step in obj["steps"][:-1]:
        step["label"]["rule"] -= len(serialize.loads(even.read_text()).rules)
    witness.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["validate", "--run", str(witness), "--automaton", str(even),
                 "--param", "2", "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"valid": False, "first_failure": 0}


def test_validate_rejects_runs_that_witness_nothing(fixture_dir, tmp_path, capsys):
    even = str(fixture_dir / "even.json")
    run = tmp_path / "run.json"

    def validate(obj):
        run.write_text(json.dumps(obj))
        code = main(["validate", "--run", str(run), "--automaton", even, "--param", "2", "--json"])
        return code, json.loads(capsys.readouterr().out)

    for valuation in ({"x": 0, "y": 0}, {"x": 5, "y": 1}):
        step = {"state": "q", "valuation": valuation, "label": None}
        assert validate({"kind": "pta", "steps": [step]}) == (
            1, {"valid": False, "first_failure": 0})
    assert main(["simulate", "--automaton", even, "--param", "2", "--out", str(run)]) == 0
    steps = json.loads(run.read_text())["steps"]
    capsys.readouterr()
    assert validate({"kind": "pta", "steps": steps}) == (0, {"valid": True, "first_failure": None})
    # A correct prefix that stops short of a final state fails after its last step.
    cut = steps[:-1]
    cut[-1] = dict(cut[-1], label=None)
    assert validate({"kind": "pta", "steps": cut}) == (
        1, {"valid": False, "first_failure": len(cut) - 1})
    shifted = [dict(steps[0], valuation={"x": 1, "y": 1})] + steps[1:]
    assert validate({"kind": "pta", "steps": shifted}) == (1, {"valid": False, "first_failure": 0})


def test_wrong_automaton_kind_exits_2(fixture_dir, tmp_path, capsys):
    even, mod6 = str(fixture_dir / "even.json"), str(fixture_dir / "poca_mod6.json")
    b = tmp_path / "b.json"
    assert main(["reduce", "--stage", "zero-one", "--pta", even, "--out", str(b)]) == 0
    run = tmp_path / "run.json"
    assert main(["simulate", "--automaton", even, "--param", "2", "--out", str(run)]) == 0
    capsys.readouterr()
    cases = [
        (["constants", "--poca", even], "expected a POCA, found a PTA"),
        (["solve", "--pta", mod6, "--max-n", "2"], "expected a PTA, found a POCA"),
        (["reduce", "--stage", "poca", "--pta", str(b)], "expected a PTA, found a ZeroOnePTA"),
        (["reduce", "--stage", "region", "--pta", mod6, "--region", "LOWER_LEFT"],
         "expected a PTA or ZeroOnePTA, found a POCA"),
        (["semilinear", "--oca", even, "--from", "q", "--to", "f"], "expected a POCA"),
        (["validate", "--run", str(run), "--automaton", mod6, "--param", "2"],
         "a pta run cannot replay on a POCA"),
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err, argv


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


def _depump_argv(tmp_path, consts, label_shift=0):
    """depump arguments for a 14-step run of a two-state +1 cycle, its rule
    labels shifted by label_shift."""
    from ptareach.automata import POCA, AddConst, PocaRule
    from ptareach.semantics import PocaConfiguration, Run

    rules = (PocaRule("a", AddConst(1), "b"), PocaRule("b", AddConst(1), "a"))
    m = POCA(frozenset({"a", "b"}), frozenset({"p"}), rules, "a", frozenset())
    configs = [PocaConfiguration("a", 0)]
    labels = []
    for i in range(14):
        labels.append(i % 2 + label_shift)
        configs.append(PocaConfiguration("b" if i % 2 == 0 else "a", i + 1))
    run = Run("poca", tuple(configs), tuple(labels))

    (tmp_path / "m.json").write_text(serialize.dumps(m))
    (tmp_path / "run.json").write_text(json.dumps(serialize.run_to_obj(run)))
    (tmp_path / "consts.json").write_text(json.dumps(consts))
    return ["depump", "--run", str(tmp_path / "run.json"), "--automaton", str(tmp_path / "m.json"),
            "--param", "3", "--consts", str(tmp_path / "consts.json"), "--json"]


def test_depump_subcommand(tmp_path, capsys):
    assert main(_depump_argv(tmp_path, {"k": 2, "z": 1, "upsilon": 10})) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta_before"] - payload["delta_after"] == 2  # Gamma = LCM(2) * 1


def test_depump_rejects_runs_that_are_not_semiruns(tmp_path, capsys):
    # Labels -2/-1 name no rule of the two-rule automaton.
    assert main(_depump_argv(tmp_path, {"k": 2, "z": 1, "upsilon": 10}, label_shift=-2)) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "SemirunError", error
    assert "step 0 is not a semitransition" in error["message"]


@pytest.mark.parametrize("consts, bad", [
    ({"k": 2, "z": 1}, "upsilon"),
    ({"k": 2, "z": "1", "upsilon": 10}, "z"),
    ({"z": 1, "upsilon": True}, "k, upsilon"),
    ([2, 1, 10], "k, z, upsilon"),
])
def test_depump_names_bad_consts_keys(tmp_path, capsys, consts, bad):
    assert main(_depump_argv(tmp_path, consts)) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert message.endswith(f"missing or not an integer: {bad}"), message


@pytest.mark.parametrize("point", ["5", "5,3,1", "a,3", "5,", "-1,2"])
def test_regions_rejects_malformed_point(capsys, point):
    with pytest.raises(SystemExit) as exc:
        main(["regions", f"--classify={point}", "--param", "5"])
    assert exc.value.code == 2
    assert "expected two non-negative integers X,Y" in capsys.readouterr().err


def test_reduce_region_stage(fixture_dir, capsys):
    pta = str(fixture_dir / "even.json")
    assert main(["reduce", "--stage", "region", "--pta", pta, "--region", "LOWER_LEFT"]) == 0
    b_r = serialize.loads(capsys.readouterr().out)
    assert not any(r.resets for r in b_r.rules0 + b_r.rules1)
    # A missing region names the flag; an unknown one is refused by the
    # parser with the valid names.  Both exit 2.
    assert main(["reduce", "--stage", "region", "--pta", pta]) == 2
    assert "--region" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--stage", "region", "--pta", pta, "--region", "FOO"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--region" in err and "invalid choice" in err and "UPPER_RIGHT" in err


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


@pytest.fixture(scope="module")
def r3_path(tmp_path_factory):
    """Acceptance entry r3: 695 POCA states, a threshold of 5,122 digits."""
    import random

    from ptareach.fixtures import random_two_one_pta

    rng = random.Random(20260809)
    pta = [random_two_one_pta(rng, max_states=3) for _ in range(4)][3]
    path = tmp_path_factory.mktemp("r3") / "r3.json"
    path.write_text(serialize.dumps(pta) + "\n")
    return path


@pytest.mark.parametrize("mode", ["both", "direct"])
def test_solve_prints_thresholds_beyond_int_str_limit(r3_path, capsys, mode):
    code = main(["solve", "--pta", str(r3_path), "--max-n", "8", "--mode", mode, "--json"])
    assert code in (0, 1)
    threshold = json.loads(capsys.readouterr().out)["threshold"]
    assert threshold.isdigit() and len(threshold) > 4300


def test_constants_prints_values_beyond_int_str_limit(r3_path, tmp_path, capsys):
    import sys

    poca = tmp_path / "poca.json"
    assert main(["reduce", "--stage", "poca", "--pta", str(r3_path), "--out", str(poca)]) == 0
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    assert main(["constants", "--poca", str(poca), "--json"]) == 0
    assert get_limit() == limit  # lifted for the conversion only
    payload = json.loads(capsys.readouterr().out)
    assert all(payload[key].isdigit() for key in ("Z", "Gamma", "Upsilon", "M"))
    assert len(payload["M"]) > 4300


def test_solve_both_builds_once(fixture_dir, capsys, monkeypatch):
    from ptareach import solver

    solver._build.cache_clear()
    calls = []
    original = solver.build_poca

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, "build_poca", counting)
    path = str(fixture_dir / "even.json")
    assert main(["solve", "--pta", path, "--max-n", "6", "--mode", "both", "--json"]) == 0
    assert len(calls) == 1


def test_build_cache_holds_one_entry():
    from ptareach import solver
    from ptareach.fixtures import fixture_corpus

    ptas = [fx.pta for fx in fixture_corpus()[:3]]
    assert len(set(ptas)) == 3
    solver._build.cache_clear()
    for pta in ptas:
        solver.decide(pta, 2)
    assert solver._build.cache_info().currsize == 1


def test_negative_param_rejected(fixture_dir, capsys):
    # Parameter values are non-negative: -1 is no alias of 5 modulo 6.
    mod6 = str(fixture_dir / "poca_mod6.json")
    for argv in (
        ["regions", "--classify", "1,1"],
        ["simulate", "--automaton", mod6],
        ["validate", "--run", mod6, "--automaton", mod6],
        ["depump", "--run", mod6, "--automaton", mod6, "--consts", mod6],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--param", "-1"])
        assert exc.value.code == 2, argv
        assert "--param" in capsys.readouterr().err, argv


@pytest.mark.parametrize("op", [
    {"kind": "add", "value": True},
    {"kind": "mod", "value": 1.5},
    {"kind": "cmp", "cmp": "=", "rhs": 2.5},
])
def test_parse_rejects_non_integral_operations(tmp_path, capsys, op):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "kind": "poca", "states": ["q"], "params": ["p"],
        "rules": [{"from": "q", "op": op, "to": "q"}], "initial": "q", "finals": ["q"],
    }))
    assert main(["parse", "--input", str(path)]) == 2
    assert "must be an integer" in capsys.readouterr().err


def _first_rule(obj, **fields):
    """obj with its rules replaced by its first rule, fields set (None drops one)."""
    rule = {**obj["rules"][0], **fields}
    return {**obj, "rules": [{k: v for k, v in rule.items() if v is not None}]}


@pytest.mark.parametrize("edit, message", [
    (lambda obj: _first_rule(obj, resets="xy"), "rule 0 'resets' must be a JSON list"),
    (lambda obj: {**obj, "states": "ab"}, "automaton 'states' must be a JSON list"),
    (lambda obj: {**obj, "finals": "b"}, "automaton 'finals' must be a JSON list"),
    (lambda obj: _first_rule(obj, to=None), "rule 0 has no 'to' key"),
    (lambda obj: [obj], "automaton must be a JSON object, not list"),
], ids=["resets", "states", "finals", "to", "top-level"])
def test_parse_rejects_malformed_automata(fixture_dir, tmp_path, capsys, edit, message):
    # A string is no list of its letters, and the error names the bad field.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(json.loads((fixture_dir / "even.json").read_text()))))
    assert main(["parse", "--input", str(path)]) == 2
    assert message in capsys.readouterr().err
