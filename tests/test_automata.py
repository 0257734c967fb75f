"""Sizes, constants, and the derived-constant formulas."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptareach.automata import (
    POCA,
    PTA,
    AddConst,
    AddParam,
    CmpConst,
    DerivedConstants,
    Guard,
    ModTest,
    PocaRule,
    PtaRule,
    bitlen,
    derive_constants,
    lcm_range,
    lcm_set,
)
from ptareach.fixtures import fixture_corpus, random_two_one_pta
from ptareach.poca_build import build_poca
from ptareach.zero_one import to_zero_one_pta


def test_lcm_set_basic():
    assert lcm_set({2, 3}) == 6
    assert lcm_set({4}) == 4
    assert lcm_set(set()) == 1


def test_lcm_set_range_17():
    # Frozen via an iterated exact fold over [1, 17].
    expected = 1
    for i in range(1, 18):
        expected = expected * i // math.gcd(expected, i)
    assert expected == 12252240
    assert lcm_set(set(range(1, 18))) == 12252240


def test_lcm_set_rejects_nonpositive():
    with pytest.raises(ValueError):
        lcm_set({0, 3})


def test_lcm_range():
    assert lcm_range(4) == 12
    assert lcm_range(1) == 1
    assert lcm_range(9) == 2520
    with pytest.raises(ValueError):
        lcm_range(0)


def test_lcm_range_equals_fold():
    # The running fold math.lcm(1, ..., j) is the defining formula.
    expected = 1
    for j in range(1, 3001):
        expected = math.lcm(expected, j)
        assert lcm_range(j) == expected, j
    assert lcm_range(17 * 709) == math.lcm(*range(1, 17 * 709 + 1))


def test_lcm_range_prime_power_boundaries():
    # Only a prime power p^e multiplies lcm(1..j) as j steps onto it, by p.
    for j, p in ((2**11, 2), (3**7, 3), (5**4, 5), (2003, 2003), (2999, 2999)):
        assert lcm_range(j) == p * lcm_range(j - 1), j
    for j in (2**11 - 1, 2**11 + 1, 3**7 + 1, 2000):
        assert lcm_range(j) == lcm_range(j - 1), j


@given(st.sets(st.integers(min_value=1, max_value=40), min_size=1, max_size=6))
def test_lcm_set_bounded_by_max_power(values):
    assert lcm_set(values) <= max(values) ** len(values)
    for v in values:
        assert lcm_set(values) % v == 0


@given(st.integers(min_value=1, max_value=25))
def test_lcm_range_divisibility(j):
    value = lcm_range(j)
    for i in range(1, j + 1):
        assert value % i == 0


def test_bitlen():
    assert bitlen(0) == 1
    assert bitlen(1) == 1
    assert bitlen(2) == 2
    assert bitlen(4) == 3
    assert bitlen(5) == 4


def _pta(states, clocks, params, rules, initial, finals):
    return PTA(
        frozenset(states),
        frozenset(clocks),
        frozenset(params),
        tuple(rules),
        initial,
        frozenset(finals),
    )


def test_pta_size_trivial():
    a = _pta({"q"}, {"x"}, set(), (), "q", set())
    assert a.size() == 2


def test_pta_size_parametric_rule():
    rule = PtaRule("q", Guard("x", ">=", "p"), frozenset(), "q")
    a = _pta({"q"}, {"x"}, {"p"}, (rule,), "q", set())
    assert a.size() == 5


def test_pta_size_constant_guard():
    rule = PtaRule("q", Guard("x", "=", 4), frozenset(), "q")
    a = _pta({"q"}, {"x"}, set(), (rule,), "q", set())
    assert a.size() == 6  # log(4) = 3


def test_pta_size_monotone_under_rules():
    base = _pta({"q"}, {"x"}, {"p"}, (), "q", set())
    rule = PtaRule("q", Guard("x", "<", "p"), frozenset(), "q")
    more = _pta({"q"}, {"x"}, {"p"}, (rule,), "q", set())
    assert more.size() > base.size()


def test_pta_classification():
    rules = (
        PtaRule("q", Guard("x", ">=", "p"), frozenset(), "q"),
        PtaRule("q", Guard("y", "<", 2), frozenset({"y"}), "q"),
    )
    a = _pta({"q"}, {"x", "y"}, {"p"}, rules, "q", set())
    assert a.parametric_clocks() == frozenset({"x"})
    assert a.classification() == (1, 1)


def test_pta_rejects_undeclared_names():
    with pytest.raises(ValueError):
        _pta({"q"}, {"x"}, set(), (PtaRule("q", Guard("y", "=", 0), frozenset(), "q"),), "q", set())
    with pytest.raises(ValueError):
        _pta({"q"}, {"x"}, set(), (), "r", set())


def _poca(rules, states=None, params=frozenset()):
    states = states or {r.src for r in rules} | {r.dst for r in rules}
    any_state = sorted(states)[0]
    return POCA(frozenset(states), frozenset(params), tuple(rules), any_state, frozenset())


def test_poca_consts_reads_mod_and_cmp():
    rules = (
        PocaRule("a", ModTest(3), "a"),
        PocaRule("a", CmpConst("=", 5), "a"),
        PocaRule("a", AddParam(1, "p"), "a"),
    )
    c = _poca(rules, params={"p"})
    assert c.consts() == frozenset({3, 5})


def test_poca_consts_updates_only():
    rules = (PocaRule("a", AddConst(1), "a"), PocaRule("a", AddConst(-1), "a"))
    assert _poca(rules).consts() == frozenset()


def test_poca_consts_deduplicates():
    rules = (
        PocaRule("a", ModTest(6), "b"),
        PocaRule("b", ModTest(6), "a"),
        PocaRule("a", CmpConst(">=", 0), "a"),
    )
    assert _poca(rules).consts() == frozenset({6, 0})


def test_poca_size_monotone_under_rules():
    base = _poca((PocaRule("a", AddConst(1), "a"),))
    more = _poca((PocaRule("a", AddConst(1), "a"), PocaRule("a", ModTest(5), "a")))
    assert more.size() > base.size()


def test_counter_op_invariants():
    with pytest.raises(ValueError):
        AddConst(2)
    with pytest.raises(ValueError):
        ModTest(0)
    with pytest.raises(ValueError):
        CmpConst("<", -1)
    with pytest.raises(ValueError):
        CmpConst("!=", 1)


def _naive_constants(n_states: int, consts):
    """Independent evaluator for the defining formulas, big-int throughout."""
    z = 1
    for c in consts:
        z = z * c // math.gcd(z, c)
    k = 17 * n_states
    big = 1
    for i in range(1, k + 1):
        big = big * i // math.gcd(big, i)
    gamma = big * z
    upsilon = k * big * (k * z + 2)
    return z, gamma, upsilon, 30 * (upsilon + gamma + 1)


def test_derive_constants_single_state():
    rules = (
        PocaRule("a", ModTest(2), "a"),
        PocaRule("a", ModTest(3), "a"),
    )
    dc = derive_constants(_poca(rules))
    assert dc.z == 6
    assert dc.gamma == 12252240 * 6 == 73513440


def test_derive_constants_empty_consts():
    dc = derive_constants(_poca((PocaRule("a", AddConst(1), "a"),)))
    assert dc.z == 1
    assert dc.gamma == 12252240
    # Upsilon for |Q| = 1, Z = 1, frozen from the independent evaluator.
    assert dc.upsilon == _naive_constants(1, [])[2] == 3957473520


def test_derive_constants_against_naive_evaluator():
    consts_pool = [1, 2, 3, 5]
    for n_states in range(1, 5):
        states = {f"s{i}" for i in range(n_states)}
        for mask in range(16):
            consts = [consts_pool[i] for i in range(4) if mask >> i & 1]
            rules = tuple(PocaRule("s0", ModTest(c), "s0") for c in consts)
            c = POCA(frozenset(states), frozenset(), rules, "s0", frozenset())
            dc = derive_constants(c)
            z, gamma, upsilon, m = _naive_constants(n_states, consts)
            assert (dc.z, dc.gamma, dc.upsilon, dc.m) == (z, gamma, upsilon, m)
            assert dc.gamma % dc.z == 0
            assert dc.m == 30 * (dc.upsilon + dc.gamma + 1)


def test_scaled_constants():
    dc = DerivedConstants.scaled(k=2, z=1, upsilon=10)
    assert dc.gamma == 2
    assert dc.m == 30 * (10 + 2 + 1)


def _indexed_automata():
    """The fixtures and 20 draws of the acceptance and of the seed-0 corpus,
    each with its 0/1 product and POCA."""
    ptas = [fx.pta for fx in fixture_corpus()]
    for seed in (20260809, 0):
        rng = random.Random(seed)
        ptas += [random_two_one_pta(rng, max_states=3) for _ in range(20)]
    for pta in ptas:
        b = to_zero_one_pta(pta)
        yield pta, b, build_poca(b).poca


def test_leaving_groups_every_rule_index_by_source():
    for pta, b, poca in _indexed_automata():
        assert b.rules == b.rules0 + b.rules1
        for a in (pta, b, poca):
            leaving = a.leaving
            assert leaving is a.leaving
            # The initial state, then the sources in the order the rules first leave them.
            assert list(leaving) == list(dict.fromkeys([a.initial] + [r.src for r in a.rules]))
            assert sorted(i for idxs in leaving.values() for i in idxs) == list(range(len(a.rules)))
            for state, idxs in leaving.items():
                assert list(idxs) == sorted(idxs)
                assert all(a.rules[i].src == state for i in idxs)


def test_numbering_follows_the_source_index():
    for _, _, poca in _indexed_automata():
        ids = poca.numbering
        assert ids is poca.numbering
        # The states rules leave, in ``leaving``'s order, then the others sorted.
        sources = list(poca.leaving)
        assert list(ids) == sources + sorted(poca.states - set(sources))
        assert list(ids.values()) == list(range(len(poca.states)))


def test_consts_computed_once_per_automaton():
    pta = fixture_corpus()[0].pta
    for a in (pta, to_zero_one_pta(pta)):
        assert a.consts() is a.consts()


def _backward_closure(a) -> set:
    """The finals and every source of a rule into the set, to a fixpoint."""
    live = set(a.finals)
    grew = True
    while grew:
        grew = False
        for rule in a.rules:
            if rule.dst in live and rule.src not in live:
                live.add(rule.src)
                grew = True
    return live


def test_live_is_the_backward_closure_of_the_finals():
    dead_initial = 0
    for pta, b, poca in _indexed_automata():
        for a in (pta, b, poca):
            assert a.live == _backward_closure(a)
            assert a.live is a.live
        dead_initial += pta.initial not in pta.live
        if poca.finals:
            # build_poca: each state lies on an initial-to-accepting path.
            assert poca.live == poca.states
    # The fixture "never", acceptance r10 and seed-0 r2 and r12 start dead.
    assert dead_initial == 4


def test_live_is_built_on_first_use():
    rng = random.Random(20260809)
    for pta in [fx.pta for fx in fixture_corpus()] + [random_two_one_pta(rng, max_states=3)]:
        assert "live" not in pta.__dict__
        b = to_zero_one_pta(pta)
        assert "live" not in pta.__dict__ and "live" not in b.__dict__
        live = pta.live
        assert pta.__dict__["live"] is live
