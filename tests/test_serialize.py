"""JSON interchange: canonical form, round-trips, rejection of junk."""

import json
import random

import pytest

from ptareach import serialize
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
