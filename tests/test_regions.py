"""Sixteen-region classification, region automata, and their projections."""

import itertools
import random

import pytest

from ptareach.automata import Guard, PtaRule, ZeroOnePTA, AddConst
from ptareach.regions import (
    Region,
    region_automaton,
    region_oca,
    region_of,
    region_satisfies,
)
from ptareach.semantics import (
    PtaConfiguration,
    zero_one_reach_configs,
)


class TestRegionOf:
    def test_origin_corner(self):
        assert region_of((0, 0), 5) is Region.CORNER_00

    def test_upper_left_cell(self):
        assert region_of((2, 7), 5) is Region.UPPER_LEFT

    def test_right_edge_segment(self):
        assert region_of((5, 3), 5) is Region.SEG_RIGHT_LOW

    def test_rejects_zero_parameter(self):
        with pytest.raises(ValueError):
            region_of((0, 0), 0)

    def test_partition_exhaustive(self):
        for n in range(1, 9):
            for v in itertools.product(range(2 * n + 4), repeat=2):
                hits = [r for r in Region if r.contains(v, n)]
                assert len(hits) == 1
                assert region_of(v, n) is hits[0]


class TestRegionSatisfies:
    def test_lower_left_below_parameter(self):
        assert region_satisfies(Region.LOWER_LEFT, Guard("x", "<", "p"))

    def test_corner_nn_equals_parameter(self):
        assert region_satisfies(Region.CORNER_NN, Guard("y", "=", "p"))

    def test_upper_right_not_below(self):
        assert not region_satisfies(Region.UPPER_RIGHT, Guard("x", "<=", "p"))

    def test_rejects_nonzero_constant(self):
        with pytest.raises(ValueError):
            region_satisfies(Region.LOWER_LEFT, Guard("x", "=", 3))

    def test_agrees_with_pointwise_evaluation(self):
        guards = [
            Guard(clock, cmp, rhs)
            for clock in ("x", "y")
            for cmp in ("<", "<=", "=", ">=", ">")
            for rhs in (0, "p")
        ]
        for n in range(2, 7):
            for region in Region:
                members = [
                    v
                    for v in itertools.product(range(2 * n + 4), repeat=2)
                    if region.contains(v, n)
                ]
                assert members, f"{region} empty at N={n}"
                for g in guards:
                    expected = all(
                        g.holds(v[0] if g.clock == "x" else v[1], n) for v in members
                    )
                    assert region_satisfies(region, g) == expected, (region, g, n)

    def test_equivalent_points_satisfy_same_guards(self):
        guards = [
            Guard(clock, cmp, rhs)
            for clock in ("x", "y")
            for cmp in ("<", "<=", "=", ">=", ">")
            for rhs in (0, "p")
        ]
        for n in range(1, 6):
            box = list(itertools.product(range(2 * n + 4), repeat=2))
            for v in box:
                for w in box:
                    if region_of(v, n) is not region_of(w, n):
                        continue
                    for g in guards:
                        lhs = g.holds(v[0] if g.clock == "x" else v[1], n)
                        rhs = g.holds(w[0] if g.clock == "x" else w[1], n)
                        assert lhs == rhs


def _zero_one(rules0, rules1, states=("a", "b"), finals=("b",)):
    return ZeroOnePTA(
        frozenset(states),
        frozenset({"x", "y"}),
        frozenset({"p"}),
        tuple(rules0),
        tuple(rules1),
        "a",
        frozenset(finals),
    )


class TestRegionAutomaton:
    def test_reset_rules_dropped(self):
        rules0 = (PtaRule("a", Guard("x", ">=", 0), frozenset({"x"}), "b"),)
        b = _zero_one(rules0, ())
        for region in Region:
            assert not region_automaton(b, region).rules0

    def test_guard_filtering_by_region(self):
        rules0 = (PtaRule("a", Guard("x", "<", "p"), frozenset(), "b"),)
        b = _zero_one(rules0, ())
        assert region_automaton(b, Region.LOWER_LEFT).rules0
        assert not region_automaton(b, Region.UPPER_RIGHT).rules0

    def test_rule_counts_match_satisfaction_table(self):
        rules0 = (PtaRule("a", Guard("x", "<", "p"), frozenset(), "b"),)
        rules1 = (PtaRule("a", Guard("y", ">", 0), frozenset(), "a"),)
        b = _zero_one(rules0, rules1)
        for region in Region:
            out = region_automaton(b, region)
            expected0 = int(region_satisfies(region, Guard("x", "<", "p")))
            expected1 = int(region_satisfies(region, Guard("y", ">", 0)))
            assert len(out.rules0) == expected0
            assert len(out.rules1) == expected1
            for rule in out.rules:
                assert rule.guard == Guard("x", ">=", 0)

    def test_rejects_nonzero_constants(self):
        rules0 = (PtaRule("a", Guard("x", "=", 2), frozenset(), "b"),)
        with pytest.raises(ValueError):
            region_automaton(_zero_one(rules0, ()), Region.LOWER_LEFT)


class TestRegionOca:
    def test_rule_wise_mapping(self):
        g = Guard("x", ">=", 0)
        rules0 = tuple(PtaRule("a", g, frozenset(), "b") for _ in range(2))
        rules1 = tuple(PtaRule("b", g, frozenset(), "a") for _ in range(3))
        oca = region_oca(_zero_one(rules0, rules1))
        zeros = [r for r in oca.rules if r.op == AddConst(0)]
        ones = [r for r in oca.rules if r.op == AddConst(1)]
        assert len(zeros) == 2 and len(ones) == 3

    def test_empty_input(self):
        oca = region_oca(_zero_one((), ()))
        assert not oca.rules


def _random_zero_one(rng):
    states = [f"s{i}" for i in range(rng.randrange(1, 4))]
    guards = [
        Guard(rng.choice(["x", "y"]), rng.choice(["<", "<=", "=", ">=", ">"]), rng.choice([0, "p"]))
        for _ in range(6)
    ]
    rules0, rules1 = [], []
    for _ in range(rng.randrange(1, 5)):
        resets = frozenset(c for c in ("x", "y") if rng.random() < 0.2)
        rules0.append(PtaRule(rng.choice(states), rng.choice(guards), resets, rng.choice(states)))
    for _ in range(rng.randrange(1, 4)):
        rules1.append(PtaRule(rng.choice(states), rng.choice(guards), frozenset(), rng.choice(states)))
    return ZeroOnePTA(
        frozenset(states),
        frozenset({"x", "y"}),
        frozenset({"p"}),
        tuple(rules0),
        tuple(rules1),
        states[0],
        frozenset({states[-1]}),
    )


def _restricted_reach(b, n, region, start_conf, coord_cap):
    """Region-restricted reset-free reachability, straight from definitions."""
    return zero_one_reach_configs(
        b,
        n,
        start_conf,
        coord_cap,
        rule_filter=lambda rule: not rule.resets,
        valuation_pred=lambda vals: region.contains((vals["x"], vals["y"]), n),
    )


def test_region_simulation_at_desk_scale():
    rng = random.Random(4242)
    compared = 0
    for _ in range(20):
        b = _random_zero_one(rng)
        for n in range(1, 7):
            cap = 2 * n + 2
            for region in Region:
                if region.empty_for(n):
                    continue
                b_r = region_automaton(b, region)
                members = [
                    (x, y)
                    for x in range(cap + 1)
                    for y in range(cap + 1)
                    if region.contains((x, y), n)
                ]
                for v in members:
                    for q in sorted(b.states):
                        start = PtaConfiguration.make(q, {"x": v[0], "y": v[1]})
                        lhs = _restricted_reach(b, n, region, start, cap)
                        rhs = zero_one_reach_configs(
                            b_r,
                            n,
                            start,
                            cap,
                            valuation_pred=lambda vals: region.contains(
                                (vals["x"], vals["y"]), n
                            ),
                        )
                        assert lhs == rhs
                        compared += 1
    assert compared > 1000


def test_region_runs_advance_clocks_in_lockstep():
    rng = random.Random(77)
    for _ in range(10):
        b = _random_zero_one(rng)
        n = rng.randrange(2, 6)
        region = Region.LOWER_LEFT if n >= 3 else Region.UPPER_RIGHT
        b_r = region_automaton(b, region)
        v0 = (1, 1) if region is Region.LOWER_LEFT else (n + 1, n + 1)
        start = PtaConfiguration.make(sorted(b.states)[0], {"x": v0[0], "y": v0[1]})
        reached = zero_one_reach_configs(b_r, n, start, 2 * n + 3)
        for _, vals in reached:
            d = dict(vals)
            assert d["x"] - d["y"] == v0[0] - v0[1]


def test_region_oca_roundtrip_against_region_runs():
    # q(0) -> q'(m) in the projection iff q(k,l) -> q'(k+m, l+m) in B_R.
    rng = random.Random(99)
    from ptareach.semilinear import reach_lengths

    for _ in range(12):
        b = _random_zero_one(rng)
        n = 8
        region = Region.LOWER_LEFT
        b_r = region_automaton(b, region)
        oca = region_oca(b_r)
        start = PtaConfiguration.make(sorted(b.states)[0], {"x": 1, "y": 1})
        reached = zero_one_reach_configs(
            b_r,
            n,
            start,
            n - 1,
            valuation_pred=lambda vals: region.contains((vals["x"], vals["y"]), n),
        )
        lengths = reach_lengths(oca, sorted(b.states)[0], sorted(b.states)[-1])
        for m in range(0, 7):
            in_bnr = (sorted(b.states)[-1], tuple(sorted({"x": 1 + m, "y": 1 + m}.items()))) in reached
            assert in_bnr == (m in lengths), m
