"""The non-parametric clock/guard elimination stage."""

import random
import re

import pytest

from ptareach.automata import PTA, Guard, PtaRule
from ptareach.semantics import pta_reach_bruteforce, zero_one_reach_bruteforce
from ptareach.zero_one import to_zero_one_pta


def _pta(states, clocks, rules, initial, finals, params=("p",)):
    return PTA(frozenset(states), frozenset(clocks), frozenset(params), tuple(rules), initial, frozenset(finals))


def _two_param_rules(extra=()):
    # x and y parametric; extra rules may mention further clocks.
    return (
        PtaRule("a", Guard("x", "<=", "p"), frozenset(), "a"),
        PtaRule("a", Guard("y", ">=", "p"), frozenset(), "b"),
    ) + tuple(extra)


def test_rejects_non_two_one_input():
    a = _pta({"a"}, {"x"}, (PtaRule("a", Guard("x", "=", "p"), frozenset(), "a"),), "a", set())
    with pytest.raises(ValueError):
        to_zero_one_pta(a)


@pytest.mark.parametrize("clock", ["w=1", "w,1", "w|1"])
def test_rejects_clock_names_with_product_separators(clock):
    # Product state names read "state|clock=value,..."; such a clock name
    # would make product_origin misparse every product state.
    rules = _two_param_rules((PtaRule("a", Guard(clock, "=", 1), frozenset(), "b"),))
    a = _pta({"a", "b"}, {"x", "y", clock}, rules, "a", {"b"})
    with pytest.raises(ValueError, match=f"clock name '{re.escape(clock)}'"):
        to_zero_one_pta(a)


def test_state_count_bound():
    rules = _two_param_rules(
        (PtaRule("a", Guard("w", "=", 2), frozenset({"w"}), "b"),)
    )
    a = _pta({"a", "b"}, {"x", "y", "w"}, rules, "a", {"b"})
    b = to_zero_one_pta(a)
    # Worst case 2 * (c_max + 2)^3 = 128; the lazy build stays below it.
    assert len(b.states) <= 2 * 4**3
    assert b.clocks == frozenset({"x", "y"})
    assert set(b.consts()) <= {0}


def test_time_rules_saturate_stored_values():
    rules = _two_param_rules()
    a = _pta({"a", "b"}, {"x", "y"}, rules, "a", {"b"})
    b = to_zero_one_pta(a)
    # c_max = 0: stored values live in {0, 1}; all guards parametric or empty.
    assert len(b.states) <= 2 * 2**2
    for rule in b.rules1:
        assert not rule.resets


def test_nonparametric_clock_forces_time_steps():
    # Acceptance needs w = 2, so at least two time steps must happen.
    rules = _two_param_rules(
        (PtaRule("a", Guard("w", "=", 2), frozenset(), "f"),)
    )
    a = _pta({"a", "b", "f"}, {"x", "y", "w"}, rules, "a", {"f"})
    b = to_zero_one_pta(a)
    for n in range(5):
        run_a = pta_reach_bruteforce(a, n, max(n, 2) + 1)
        run_b = zero_one_reach_bruteforce(b, n, max(n, 2) + 1)
        assert (run_a is None) == (run_b is None)
        if run_b is not None:
            time_steps = sum(1 for _, i in run_b.labels if i == 1)
            assert time_steps >= 2


def _random_two_one_pta(rng):
    n_states = rng.randrange(1, 4)
    states = [f"s{i}" for i in range(n_states)]
    extra = ["u", "w"][: rng.randrange(0, 3)]
    clocks = ["x", "y"] + extra
    rules = [
        # Guarantee both x and y are parametric.
        PtaRule(states[0], Guard("x", rng.choice(["<=", ">=", "="]), "p"), frozenset(), rng.choice(states)),
        PtaRule(rng.choice(states), Guard("y", rng.choice(["<=", ">=", "="]), "p"), frozenset(), rng.choice(states)),
    ]
    for _ in range(rng.randrange(0, 4)):
        clock = rng.choice(clocks)
        if rng.random() < 0.5:
            guard = Guard(clock, rng.choice(["<", "<=", "=", ">=", ">"]), "p")
            if clock not in ("x", "y"):
                continue  # keep exactly two parametric clocks
        else:
            guard = Guard(clock, rng.choice(["<", "<=", "=", ">=", ">"]), rng.randrange(3))
        resets = frozenset(c for c in clocks if rng.random() < 0.25)
        rules.append(PtaRule(rng.choice(states), guard, resets, rng.choice(states)))
    finals = {rng.choice(states)}
    return _pta(states, clocks, rules, states[0], finals)


def test_equivalence_on_random_two_one_ptas():
    rng = random.Random(20240809)
    reachable_seen = unreachable_seen = 0
    for _ in range(60):
        a = _random_two_one_pta(rng)
        b = to_zero_one_pta(a)
        assert set(b.consts()) <= {0}
        assert b.clocks == frozenset({"x", "y"})
        c_max = max((c for c in a.consts()), default=0)
        assert len(b.states) <= len(a.states) * (c_max + 2) ** len(a.clocks)
        for n in range(6):
            cap = max(n, c_max) + 1
            got_a = pta_reach_bruteforce(a, n, cap) is not None
            got_b = zero_one_reach_bruteforce(b, n, cap) is not None
            assert got_a == got_b, f"divergence at N={n}"
            reachable_seen += got_a
            unreachable_seen += not got_a
    assert reachable_seen and unreachable_seen
