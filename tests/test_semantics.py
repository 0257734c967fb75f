"""Step semantics and the brute-force reachability oracles."""

import random

import pytest

from ptareach.automata import (
    POCA,
    PTA,
    AddConst,
    AddParam,
    CmpConst,
    CmpParam,
    Guard,
    ModTest,
    PocaRule,
    PtaRule,
)
from ptareach.semantics import (
    PocaConfiguration,
    PtaConfiguration,
    Run,
    poca_reach_bounded,
    poca_step,
    pta_reach_bruteforce,
    pta_step,
    reachable,
    semitransition_step,
    shortest_path,
    validate_run,
)


def _pta(states, clocks, params, rules, initial, finals):
    return PTA(frozenset(states), frozenset(clocks), frozenset(params), tuple(rules), initial, frozenset(finals))


def _conf(state, **vals):
    return PtaConfiguration.make(state, vals)


class TestPtaStep:
    def test_parametric_guard_with_reset(self):
        rule = PtaRule("q", Guard("x", ">=", "p"), frozenset({"y"}), "q")
        a = _pta({"q"}, {"x", "y"}, {"p"}, (rule,), "q", set())
        out = pta_step(a, 2, _conf("q", x=1, y=0), rule, 1)
        assert out == _conf("q", x=2, y=0)

    def test_guard_violation_returns_none(self):
        rule = PtaRule("q", Guard("x", "=", 0), frozenset(), "q")
        a = _pta({"q"}, {"x"}, set(), (rule,), "q", set())
        assert pta_step(a, 0, _conf("q", x=0), rule, 1) is None

    def test_upper_bound_guard(self):
        rule = PtaRule("q", Guard("y", "<=", "p"), frozenset(), "q")
        a = _pta({"q"}, {"x", "y"}, {"p"}, (rule,), "q", set())
        out = pta_step(a, 3, _conf("q", x=5, y=1), rule, 2)
        assert out == _conf("q", x=7, y=3)

    def test_malformed_inputs_raise(self):
        rule = PtaRule("q", Guard("x", "=", 0), frozenset(), "q")
        a = _pta({"q"}, {"x"}, set(), (rule,), "q", set())
        foreign = PtaRule("q", Guard("x", ">", 0), frozenset(), "q")
        with pytest.raises(ValueError):
            pta_step(a, 0, _conf("q", x=0), foreign, 0)
        with pytest.raises(ValueError):
            pta_step(a, 0, _conf("q", x=0), rule, -1)


class TestPocaStep:
    def _poca(self, *ops):
        rules = tuple(PocaRule("a", op, "a") for op in ops)
        return POCA(frozenset({"a"}), frozenset({"p"}), rules, "a", frozenset())

    def test_mod_pass_keeps_counter(self):
        c = self._poca(ModTest(3))
        out = poca_step(c, 0, PocaConfiguration("a", 3), c.rules[0])
        assert out == PocaConfiguration("a", 3)

    def test_add_param(self):
        c = self._poca(AddParam(1, "p"))
        out = poca_step(c, 7, PocaConfiguration("a", 0), c.rules[0])
        assert out == PocaConfiguration("a", 7)

    def test_comparison_violation(self):
        c = self._poca(CmpConst(">=", 0))
        assert poca_step(c, 0, PocaConfiguration("a", -2), c.rules[0]) is None

    def test_negative_mod_uses_divisibility(self):
        c = self._poca(ModTest(3))
        assert poca_step(c, 0, PocaConfiguration("a", -6), c.rules[0]) is not None
        assert poca_step(c, 0, PocaConfiguration("a", -5), c.rules[0]) is None


class TestSemitransition:
    def _poca(self, *ops):
        rules = tuple(PocaRule("a", op, "a") for op in ops)
        return POCA(frozenset({"a"}), frozenset({"p"}), rules, "a", frozenset())

    def test_comparison_always_passes(self):
        c = self._poca(CmpParam("<=", "p"))
        out = semitransition_step(c, 2, PocaConfiguration("a", 3), c.rules[0])
        assert out == PocaConfiguration("a", 3)

    def test_modulo_still_enforced(self):
        c = self._poca(ModTest(3))
        assert semitransition_step(c, 0, PocaConfiguration("a", 4), c.rules[0]) is None

    def test_param_update(self):
        c = self._poca(AddParam(-1, "p"))
        out = semitransition_step(c, 5, PocaConfiguration("a", 1), c.rules[0])
        assert out == PocaConfiguration("a", -4)


class TestPtaOracle:
    def test_counting_to_parameter(self):
        # A time self-loop of one unit, acceptance once x = p.
        rules = (
            PtaRule("q", Guard("x", "=", "p"), frozenset(), "f"),
        )
        a = _pta({"q", "f"}, {"x"}, {"p"}, rules, "q", {"f"})
        run = pta_reach_bruteforce(a, 3, clock_cap=4)
        assert run is not None
        assert run.configs[-1].state == "f"
        assert run.configs[-1].value("x") == 3
        assert validate_run(run, a, 3) == (True, None)

    def test_no_finals_means_absence(self):
        a = _pta({"q"}, {"x"}, set(), (), "q", set())
        assert pta_reach_bruteforce(a, 0, clock_cap=1) is None

    def test_constant_guard_with_zero_parameter(self):
        rules = (PtaRule("q", Guard("x", "=", 5), frozenset(), "f"),)
        a = _pta({"q", "f"}, {"x"}, set(), rules, "q", {"f"})
        run = pta_reach_bruteforce(a, 0, clock_cap=6)
        assert run is not None
        assert validate_run(run, a, 0) == (True, None)

    def test_cap_too_small_rejected(self):
        rules = (PtaRule("q", Guard("x", "=", 5), frozenset(), "f"),)
        a = _pta({"q", "f"}, {"x"}, set(), rules, "q", {"f"})
        with pytest.raises(ValueError):
            pta_reach_bruteforce(a, 0, clock_cap=5)


class TestPocaOracle:
    def test_five_increments(self):
        rules = (
            PocaRule("q0", AddConst(1), "q0"),
            PocaRule("q0", CmpConst("=", 5), "f"),
        )
        c = POCA(frozenset({"q0", "f"}), frozenset(), rules, "q0", frozenset({"f"}))
        run = poca_reach_bounded(c, 0, 0, 20)
        assert run is not None
        assert len(run) == 6  # five +1 steps plus the test
        assert run.configs[-1].counter == 5
        assert validate_run(run, c, 0) == (True, None)

    def test_initial_final_empty_run(self):
        c = POCA(frozenset({"q"}), frozenset(), (), "q", frozenset({"q"}))
        run = poca_reach_bounded(c, 0, 0, 5)
        assert run is not None and len(run) == 0

    def test_window_filters_witness(self):
        rules = (PocaRule("q0", AddParam(1, "p"), "f"),)
        c = POCA(frozenset({"q0", "f"}), frozenset({"p"}), rules, "q0", frozenset({"f"}))
        assert poca_reach_bounded(c, 3, 0, 2) is None
        assert poca_reach_bounded(c, 3, 0, 3) is not None

    def test_window_monotone(self):
        rng = random.Random(7)
        for _ in range(25):
            c = _random_poca(rng)
            n = rng.randrange(4)
            small = poca_reach_bounded(c, n, -3, 3)
            large = poca_reach_bounded(c, n, -6, 6)
            if small is not None:
                assert large is not None


def _random_poca(rng):
    states = [f"s{i}" for i in range(rng.randrange(2, 4))]
    ops = [
        AddConst(1),
        AddConst(-1),
        AddConst(0),
        AddParam(1, "p"),
        AddParam(-1, "p"),
        ModTest(rng.randrange(1, 4)),
        CmpConst(rng.choice(["<", "<=", "=", ">=", ">"]), rng.randrange(3)),
        CmpParam(rng.choice(["<", "<=", "=", ">=", ">"]), "p"),
    ]
    rules = tuple(
        PocaRule(rng.choice(states), rng.choice(ops), rng.choice(states))
        for _ in range(rng.randrange(2, 6))
    )
    return POCA(
        frozenset(states),
        frozenset({"p"}),
        rules,
        states[0],
        frozenset({states[-1]}),
    )


class TestValidateRun:
    def test_perturbed_counter_flagged(self):
        rules = (PocaRule("q0", AddConst(1), "q0"),)
        c = POCA(frozenset({"q0"}), frozenset(), rules, "q0", frozenset({"q0"}))
        configs = tuple(PocaConfiguration("q0", z) for z in (0, 1, 3))
        bad = Run("poca", configs, (0, 0))  # second step claims 1 -> 3
        ok, idx = validate_run(bad, c, 0)
        assert not ok and idx == 1

    def test_pta_delay_violation_located(self):
        rules = (
            PtaRule("q", Guard("x", "<=", 1), frozenset(), "q"),
            PtaRule("q", Guard("x", "=", 2), frozenset(), "f"),
        )
        a = _pta({"q", "f"}, {"x"}, set(), rules, "q", {"f"})
        good = pta_reach_bruteforce(a, 0, clock_cap=3)
        assert good is not None
        # Mutate one delay so a guard breaks, keeping configs consistent.
        labels = list(good.labels)
        ridx, delay = labels[-1]
        labels[-1] = (ridx, delay + 1)
        bad = Run("pta", good.configs, tuple(labels))
        ok, idx = validate_run(bad, a, 0)
        assert not ok and idx == len(labels) - 1


def test_saturation_cap_insensitivity():
    rng = random.Random(11)
    for _ in range(40):
        a = _random_pta(rng)
        n = rng.randrange(5)
        cap = max(n, max((c for c in a.consts()), default=0)) + 1
        r1 = pta_reach_bruteforce(a, n, cap)
        r2 = pta_reach_bruteforce(a, n, cap + 1)
        assert (r1 is None) == (r2 is None)


def test_runs_are_semiruns():
    # Every accepted POCA run replays stepwise through semitransitions.
    rng = random.Random(13)
    checked = 0
    for _ in range(60):
        c = _random_poca(rng)
        n = rng.randrange(4)
        run = poca_reach_bounded(c, n, -5, 5)
        if run is None:
            continue
        checked += 1
        for i, label in enumerate(run.labels):
            out = semitransition_step(c, n, run.configs[i], c.rules[label])
            assert out == run.configs[i + 1]
    assert checked >= 5


def _random_pta(rng):
    states = [f"s{i}" for i in range(rng.randrange(1, 4))]
    clocks = ["x", "y"][: rng.randrange(1, 3)]
    rules = []
    for _ in range(rng.randrange(0, 5)):
        clock = rng.choice(clocks)
        if rng.random() < 0.5:
            guard = Guard(clock, rng.choice(["<", "<=", "=", ">=", ">"]), "p")
        else:
            guard = Guard(clock, rng.choice(["<", "<=", "=", ">=", ">"]), rng.randrange(3))
        resets = frozenset(c for c in clocks if rng.random() < 0.3)
        rules.append(PtaRule(rng.choice(states), guard, resets, rng.choice(states)))
    return _pta(states, clocks, {"p"}, rules, states[0], {states[-1]})


def test_run_accessors():
    configs = tuple(PocaConfiguration("a", z) for z in (0, 1, 1, -2))
    run = Run("poca", configs, (0, 1, 2))
    assert run.delta() == -2
    assert run.counter_values() == {0, 1, -2}
    assert run.minimum() == -2 and run.maximum() == 1
    sub = run.subrun(1, 2)
    assert sub.configs == configs[1:3]
    assert run.subrun(0, 1).concat(run.subrun(1, 3)).configs == configs


class TestSearchKernel:
    @staticmethod
    def _grid(expanded):
        # Nodes 0..9; each node steps by +1 or +3, labelled by the step.
        def successors(node):
            expanded.append(node)
            for step in (1, 3):
                if node + step < 10:
                    yield step, node + step
        return successors

    def test_shortest_path_labels_and_goal(self):
        assert shortest_path(0, self._grid([]), lambda v: v == 7) == (7, [1, 3, 3])

    def test_start_is_tested_first(self):
        expanded = []
        assert shortest_path(4, self._grid(expanded), lambda v: v >= 4) == (4, [])
        assert expanded == []

    def test_stops_at_first_goal_reached(self):
        expanded = []
        found = shortest_path(0, self._grid(expanded), lambda v: v % 2 == 1)
        # 1 is reached before 3 from node 0; nothing further is expanded.
        assert found == (1, [1])
        assert expanded == [0]

    def test_unreachable_goal(self):
        assert shortest_path(0, self._grid([]), lambda v: v > 9) is None

    def test_reachable_expands_each_node_once_in_bfs_order(self):
        expanded = []
        reached = reachable([0], lambda v: (nxt for _, nxt in self._grid(expanded)(v)))
        assert reached == set(range(10))
        assert expanded == [0, 1, 3, 2, 4, 6, 5, 7, 9, 8]
