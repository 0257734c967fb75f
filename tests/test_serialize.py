"""JSON interchange: canonical form, round-trips, rejection of junk."""

import json
import random

import pytest

from ptareach import serialize
from ptareach.automata import CmpConst
from ptareach.fixtures import (
    fixture_corpus,
    poca_mod6_fixture,
    random_two_one_pta,
    random_unary_oca,
)
from ptareach.poca_build import build_poca
from ptareach.semantics import poca_reach_bounded, pta_reach_bruteforce, validate_run
from ptareach.solver import decide
from ptareach.zero_one import to_zero_one_pta


def _same_automaton(a, b) -> bool:
    """Structural equality up to rule order (serialization canonicalizes)."""
    if type(a) is not type(b):
        return False
    for name in ("states", "params", "initial", "finals"):
        if getattr(a, name) != getattr(b, name):
            return False
    if hasattr(a, "rules0"):
        return set(a.rules0) == set(b.rules0) and set(a.rules1) == set(b.rules1) and a.clocks == b.clocks
    if hasattr(a, "clocks"):
        return set(a.rules) == set(b.rules) and a.clocks == b.clocks
    return set(a.rules) == set(b.rules)


def test_pta_round_trip_random():
    rng = random.Random(8)
    for _ in range(30):
        pta = random_two_one_pta(rng)
        again = serialize.loads(serialize.dumps(pta))
        assert _same_automaton(again, pta)
        assert serialize.dumps(again) == serialize.dumps(pta)


def test_zero_one_round_trip():
    for fx in fixture_corpus()[:4]:
        b = to_zero_one_pta(fx.pta)
        again = serialize.loads(serialize.dumps(b))
        assert _same_automaton(again, b)
        assert serialize.dumps(again) == serialize.dumps(b)


def test_poca_round_trip():
    rng = random.Random(9)
    for _ in range(20):
        oca = random_unary_oca(rng)
        again = serialize.loads(serialize.dumps(oca))
        assert _same_automaton(again, oca)
        assert serialize.dumps(again) == serialize.dumps(oca)
    c = poca_mod6_fixture()
    assert _same_automaton(serialize.loads(serialize.dumps(c)), c)


def test_canonical_form_is_stable():
    fx = fixture_corpus()[0]
    once = serialize.dumps(fx.pta)
    twice = serialize.dumps(serialize.loads(once))
    assert once == twice


def test_unicode_comparison_aliases_accepted():
    obj = {
        "kind": "pta",
        "states": ["q"],
        "clocks": ["x", "y"],
        "params": ["p"],
        "rules": [
            {"from": "q", "guard": {"clock": "x", "cmp": "≤", "rhs": "p"}, "resets": [], "to": "q"},
            {"from": "q", "guard": {"clock": "y", "cmp": "≥", "rhs": "p"}, "resets": [], "to": "q"},
        ],
        "initial": "q",
        "finals": [],
    }
    pta = serialize.automaton_from_obj(obj)
    cmps = sorted(r.guard.cmp for r in pta.rules)
    assert cmps == ["<=", ">="]


def test_unknown_kind_and_cmp_rejected():
    with pytest.raises(ValueError):
        serialize.automaton_from_obj({"kind": "mystery"})
    with pytest.raises(ValueError):
        serialize.op_from_obj({"kind": "cmp", "cmp": "!=", "rhs": 3})
    with pytest.raises(ValueError):
        serialize.op_from_obj({"kind": "teleport"})
    # A name set must be a JSON list, not a string read letter by letter,
    # and a missing key is named with the object it is missing from.
    even = serialize.automaton_to_obj(fixture_corpus()[0].pta)
    for key, value in (("states", "ab"), ("clocks", "xy"), ("params", "p"), ("finals", "b")):
        with pytest.raises(ValueError, match=f"automaton '{key}' must be a JSON list"):
            serialize.automaton_from_obj({**even, key: value})
    rule = even["rules"][0]
    for rule_obj, message in (
        ({**rule, "resets": "xy"}, "rule 0 'resets' must be a JSON list"),
        ({k: v for k, v in rule.items() if k != "to"}, "rule 0 has no 'to' key"),
    ):
        with pytest.raises(ValueError, match=message):
            serialize.automaton_from_obj({**even, "rules": [rule_obj]})
    with pytest.raises(ValueError, match="automaton must be a JSON object"):
        serialize.automaton_from_obj([even])
    # A rule list or step list that is not a JSON list is named too.
    with pytest.raises(ValueError, match="automaton 'rules' must be a JSON list, not int"):
        serialize.automaton_from_obj({**even, "rules": 5})
    with pytest.raises(ValueError, match="run 'steps' must be a JSON list, not int"):
        serialize.run_from_obj({"kind": "poca", "steps": 5})
    run = serialize.run_to_obj(poca_reach_bounded(poca_mod6_fixture(), 5, -10, 40))
    del run["steps"][1]["counter"]
    with pytest.raises(ValueError, match="run step 1 has no 'counter' key"):
        serialize.run_from_obj(run)
    with pytest.raises(ValueError, match="run must be a JSON object"):
        serialize.run_from_obj(run["steps"])
    with pytest.raises(ValueError, match="unknown run kind: 'mystery'"):
        serialize.run_from_obj({**run, "kind": "mystery"})


def _time_one_first():
    """A 0/1-PTA object whose time-1 rule comes before its time-0 rule."""
    rule = {"from": "a", "resets": [], "to": "a"}
    return {
        "kind": "zero-one-pta", "states": ["a", "b"], "clocks": ["x"], "params": ["p"],
        "rules": [
            {**rule, "guard": {"clock": "x", "cmp": ">=", "rhs": 0}, "time": 1},
            {**rule, "guard": {"clock": "x", "cmp": "=", "rhs": "p"}, "to": "b", "time": 0},
        ],
        "initial": "a", "finals": ["b"],
    }


def test_time_zero_rule_after_time_one_rule_rejected():
    # Witness labels index the file's rule list; reordering the rules into
    # time-0 first would make label 1 name another rule than file rule 1.
    obj = _time_one_first()
    with pytest.raises(ValueError, match="rule 1 has time 0 after a time-1 rule"):
        serialize.automaton_from_obj(obj)
    obj["rules"].reverse()
    b = serialize.automaton_from_obj(obj)
    assert serialize.automaton_to_obj(b) == obj


def test_operation_numbers_must_be_integers():
    # Bools and non-integral numbers are no counter constants, as in guards.
    for obj, field in (
        ({"kind": "add", "value": True}, "value"),
        ({"kind": "addp", "sign": 1.0, "param": "p"}, "sign"),
        ({"kind": "mod", "value": 1.5}, "value"),
        ({"kind": "cmp", "cmp": "=", "rhs": 2.5}, "rhs"),
        ({"kind": "cmp", "cmp": "<=", "rhs": False}, "rhs"),
    ):
        with pytest.raises(ValueError, match=f"operation {field} must be an integer"):
            serialize.op_from_obj(obj)
    assert serialize.op_from_obj({"kind": "cmp", "cmp": "=", "rhs": 2}) == CmpConst("=", 2)


def _interchange_obj(kind):
    """A parsed-back JSON object of each kind the integer checks cover."""
    even = fixture_corpus()[0].pta
    if kind == "zero-one-pta":
        return serialize.automaton_to_obj(to_zero_one_pta(even))
    run = poca_reach_bounded(poca_mod6_fixture(), 5, -10, 40) if kind == "poca-run" else (
        pta_reach_bruteforce(even, 2)
    )
    return serialize.run_to_obj(run)


@pytest.mark.parametrize("kind, path, value, message", [
    ("pta-run", ("steps", 0, "label", "delay"), 0.5, "run step 0 label 'delay' must be an integer: 0.5"),
    ("pta-run", ("steps", 0, "label", "rule"), True, "run step 0 label 'rule' must be an integer: True"),
    ("pta-run", ("steps", 1, "valuation", "y"), 2.0, "run step 1 valuation 'y' must be an integer: 2.0"),
    ("poca-run", ("steps", 1, "counter"), False, "run step 1 'counter' must be an integer: False"),
    ("poca-run", ("steps", 1, "counter"), 5.0, "run step 1 'counter' must be an integer: 5.0"),
    ("poca-run", ("steps", 0, "label", "rule"), 0.0, "run step 0 label 'rule' must be an integer: 0.0"),
    ("zero-one-pta", ("rules", -1, "time"), True, "'time' must be an integer: True"),
], ids=["delay", "bool-rule", "clock", "bool-counter", "float-counter", "float-rule", "time"])
def test_interchange_numbers_must_be_integers(kind, path, value, message):
    # A fractional delay or a bool would pass the replay, which is not the
    # integer semantics the solver decides.
    obj = _interchange_obj(kind)
    parse = serialize.automaton_from_obj if kind == "zero-one-pta" else serialize.run_from_obj
    parse(obj)
    *keys, last = path
    entry = obj
    for key in keys:
        entry = entry[key]
    entry[last] = value
    with pytest.raises(ValueError) as exc:
        parse(obj)
    assert message in str(exc.value)


def test_run_round_trips():
    fx = fixture_corpus()[0]
    run = pta_reach_bruteforce(fx.pta, 2, 3)
    assert run is not None
    again = serialize.run_from_obj(json.loads(json.dumps(serialize.run_to_obj(run))))
    assert again == run

    c = poca_mod6_fixture()
    run = poca_reach_bounded(c, 5, -10, 40)
    assert run is not None
    again = serialize.run_from_obj(json.loads(json.dumps(serialize.run_to_obj(run))))
    assert again == run


def test_run_labels_are_positional():
    # Step i's label is the step to configuration i + 1: every step but the
    # last has one and the last has none, so no label can shift onto another step.
    a = {"state": "a", "counter": 0}
    b = {"state": "b", "counter": 1}
    for steps, message in (
        ([{**a, "label": None}, {**b, "label": {"rule": 0}}], "run step 0 has no label"),
        ([a, {**b, "label": {"rule": 0}}], "run step 0 has no label"),
        ([{**a, "label": {"rule": 0}}, {**b, "label": {"rule": 0}}],
         "run step 1 is the last step and must have no label"),
        ([{**a, "label": {"rule": 0}}], "run step 0 is the last step"),
    ):
        with pytest.raises(ValueError, match=message):
            serialize.run_from_obj({"kind": "poca", "steps": steps})


def _json_round_trip(run):
    return serialize.run_from_obj(json.loads(json.dumps(serialize.run_to_obj(run))))


def test_decide_witnesses_replay_against_canonical_json():
    # Run labels are rule indices, so they must survive dumps/loads.
    replayed = 0
    for fx in fixture_corpus():
        if not fx.in_corpus:
            continue
        verdict = decide(fx.pta, 8)
        if not verdict.reachable:
            continue
        n = verdict.param_value
        pta = serialize.loads(serialize.dumps(fx.pta))
        assert pta == fx.pta
        assert validate_run(_json_round_trip(verdict.decoded_pta_run), pta, n) == (True, None), fx.name
        poca = build_poca(to_zero_one_pta(fx.pta)).poca
        again = serialize.loads(serialize.dumps(poca))
        assert validate_run(_json_round_trip(verdict.witness), again, n) == (True, None), fx.name
        replayed += 1
    assert replayed >= 8
