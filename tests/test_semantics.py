"""Step semantics and the brute-force reachability oracles."""

import hashlib
import json
import random

import pytest

from ptareach import semantics
from ptareach.automata import (
    COMPARISONS,
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
    ZeroOnePTA,
)
from ptareach.fixtures import (
    crt_pta,
    fixture_by_name,
    fixture_corpus,
    poca_mod6_fixture,
    random_two_one_pta,
)
from ptareach.poca_build import build_poca
from ptareach.semantics import (
    PocaConfiguration,
    PtaConfiguration,
    Run,
    apply_op,
    poca_reach_bounded,
    poca_step,
    pta_reach_bruteforce,
    pta_step,
    reachable,
    semitransition_step,
    shortest_path,
    validate_run,
    zero_one_reach_bruteforce,
)
from ptareach.serialize import run_to_obj
from ptareach.solver import find_bound_violation
from ptareach.zero_one import to_zero_one_pta


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

    @staticmethod
    def _shifted(run, by):
        def shift(label):
            return label + by if run.kind == "poca" else (label[0] + by, *label[1:])
        return Run(run.kind, run.configs, tuple(shift(label) for label in run.labels))

    def test_negative_rule_indices_rejected(self):
        # Python's negative indexing used to alias rule -k to rule len - k.
        pta = fixture_by_name("even").pta
        run = pta_reach_bruteforce(pta, 2, 3)
        bad = self._shifted(run, -len(pta.rules))
        assert bad.labels == ((-4, 2), (-3, 0), (-2, 0))
        assert validate_run(bad, pta, 2) == (False, 0)
        poca = build_poca(to_zero_one_pta(pta)).poca
        witness = poca_reach_bounded(poca, 2, 0, 4 * max(2, poca.size()))
        assert validate_run(witness, poca, 2) == (True, None)
        assert validate_run(self._shifted(witness, -len(poca.rules)), poca, 2) == (False, 0)

    def test_index_past_the_rule_tuple_rejected(self):
        rules = (PocaRule("q", AddConst(1), "q"),)
        c = POCA(frozenset({"q"}), frozenset(), rules, "q", frozenset({"q"}))
        configs = tuple(PocaConfiguration("q", z) for z in (0, 1, 2))
        assert validate_run(Run("poca", configs, (0, 0)), c, 0) == (True, None)
        assert validate_run(Run("poca", configs, (0, 1)), c, 0) == (False, 1)

    @staticmethod
    def _half_unit_pta():
        # f is reached only if rule 1 fires at some 0 < x < 1.
        rules = (
            PtaRule("q", Guard("x", "<=", "p"), frozenset({"y"}), "q"),
            PtaRule("q", Guard("x", ">", 0), frozenset({"y"}), "a"),
            PtaRule("a", Guard("x", "<", 1), frozenset(), "f"),
            PtaRule("f", Guard("y", "<=", "p"), frozenset(), "f"),
        )
        return _pta({"q", "a", "f"}, {"x", "y"}, {"p"}, rules, "q", {"f"})

    def test_fractional_delay_rejected(self):
        pta = self._half_unit_pta()
        configs = (_conf("q", x=0, y=0), _conf("a", x=0.5, y=0), _conf("f", x=0.5, y=0))
        assert validate_run(Run("pta", configs, ((1, 0.5), (2, 0))), pta, 3) == (False, 0)
        assert pta_reach_bruteforce(pta, 3) is None
        with pytest.raises(ValueError, match="0.5"):
            pta_step(pta, 3, configs[0], pta.rules[1], 0.5)

    def test_labels_must_be_plain_ints(self):
        rules = (PocaRule("q", AddConst(-1), "q"), PocaRule("q", AddConst(1), "q"))
        c = POCA(frozenset({"q"}), frozenset(), rules, "q", frozenset({"q"}))
        configs = (PocaConfiguration("q", 0), PocaConfiguration("q", 1))
        assert validate_run(Run("poca", configs, (1,)), c, 0) == (True, None)
        for label in (True, 1.0):
            assert validate_run(Run("poca", configs, (label,)), c, 0) == (False, 0)
        pta = fixture_by_name("even").pta
        run = pta_reach_bruteforce(pta, 2, 3)
        (idx, delay), *rest = run.labels
        for first in ((float(idx), delay), (idx, float(delay)), (idx, delay == 1)):
            bad = Run("pta", run.configs, (first, *rest))
            assert validate_run(bad, pta, 2) == (False, 0), first

    def test_zero_one_time_bit_names_its_rule_set(self):
        # One resetting rule in both rule sets: either time bit reaches the
        # same configuration, so only the index tells the label apart.
        rule = PtaRule("q", Guard("x", ">=", 0), frozenset({"x"}), "q")
        b = ZeroOnePTA(frozenset({"q"}), frozenset({"x"}), frozenset(), (rule,), (rule,), "q",
                       frozenset())
        configs = (_conf("q", x=0), _conf("q", x=0))
        for label, verdict in (((0, 0), (True, None)), ((1, 1), (True, None)),
                               ((0, 1), (False, 0)), ((1, 0), (False, 0)),
                               ((1, True), (False, 0)), ((0, False), (False, 0))):
            assert validate_run(Run("zero-one-pta", configs, (label,)), b, 0) == verdict

    def test_rule_must_leave_the_configuration_state(self):
        rules = (PtaRule("q", Guard("x", ">=", 0), frozenset(), "f"),)
        a = _pta({"q", "r", "f"}, {"x"}, set(), rules, "q", {"f"})
        good = Run("pta", (_conf("q", x=0), _conf("f", x=0)), ((0, 0),))
        assert validate_run(good, a, 0) == (True, None)
        teleport = Run("pta", (_conf("r", x=0), _conf("f", x=0)), ((0, 0),))
        assert validate_run(teleport, a, 0) == (False, 0)

    def test_run_kind_must_match_the_automaton(self):
        pta = fixture_by_name("even").pta
        run = pta_reach_bruteforce(pta, 2, 3)
        for other in (to_zero_one_pta(pta), poca_mod6_fixture()):
            with pytest.raises(ValueError, match="pta run"):
                validate_run(run, other, 2)


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
    assert run.counter_values() == {0, 1, -2}
    assert run.maximum() == 1


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


class _CountingRules(tuple):
    """A rule tuple that counts the full passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def _rules_by_src(poca):
    by_src = {}
    for idx, rule in enumerate(poca.rules):
        by_src.setdefault(rule.src, []).append((idx, rule))
    return by_src


def _reference_reach_labels(poca, n, lo, hi):
    """The labels of a shortest accepting run: the kernel over (state, counter)
    pairs, each rule of the state tried in rule order through ``apply_op``."""
    by_src = _rules_by_src(poca)

    def successors(node):
        state, z = node
        for idx, rule in by_src.get(state, ()):
            z2 = apply_op(rule.op, n, z)
            if z2 is not None and lo <= z2 <= hi:
                yield idx, (rule.dst, z2)

    found = shortest_path((poca.initial, 0), successors, lambda node: node[0] in poca.finals)
    return None if found is None else found[1]


def _reference_bound_violation(poca, n, bound, slack):
    """``find_bound_violation`` over (state, counter, flag) nodes and ``apply_op``."""
    by_src = _rules_by_src(poca)
    lo, hi = -slack, bound + slack

    def successors(node):
        state, z, flagged = node
        for _, rule in by_src.get(state, ()):
            z2 = apply_op(rule.op, n, z)
            if z2 is not None and lo <= z2 <= hi:
                yield None, (rule.dst, z2, flagged or not 0 <= z2 <= bound)

    found = shortest_path(
        (poca.initial, 0, False), successors, lambda node: node[2] and node[0] in poca.finals
    )
    return None if found is None else found[0][:2]


def _successors(poca, n, lo, hi, state, z):
    """The counter search's steps from state(z), each key decoded to
    (rule index, target state, counter after the step)."""
    ids = poca.numbering
    states, q = [*ids], len(ids)
    for idx, nxt in semantics._counter_successors(poca, n, lo, hi)((z - lo) * q + ids[state]):
        u, dst = divmod(nxt, q)
        yield idx, states[dst], u + lo


def _reference_run(poca, n, lo, hi):
    """(labels, [(state, counter), ...]) of the reference search, stepped by ``apply_op``."""
    labels = _reference_reach_labels(poca, n, lo, hi)
    if labels is None:
        return None
    configs = [(poca.initial, 0)]
    for idx in labels:
        rule = poca.rules[idx]
        assert rule.src == configs[-1][0]
        configs.append((rule.dst, apply_op(rule.op, n, configs[-1][1])))
    return labels, configs


class TestCounterSearchAgainstReference:
    # Negative lower ends, as ``ptareach simulate`` searches [-hi, hi], put
    # the modulo tests on negative counters.
    WINDOWS = ((0, 6), (-6, 6), (-5, 2), (-3, 0), (0, 0))

    def test_runs_equal_the_reference_search(self):
        rng = random.Random(16)
        hits = 0
        for _ in range(300):
            c = _random_poca(rng)
            for lo, hi in self.WINDOWS:
                for n in range(5):
                    run = poca_reach_bounded(c, n, lo, hi)
                    got = None if run is None else (
                        list(run.labels), [(conf.state, conf.counter) for conf in run.configs]
                    )
                    assert got == _reference_run(c, n, lo, hi), (c, n, lo, hi)
                    hits += run is not None and len(run) > 0
        assert hits > 500

    def test_successors_equal_apply_op_inside_and_outside_the_window(self):
        rng = random.Random(61)
        for _ in range(100):
            c = _random_poca(rng)
            for lo, hi in self.WINDOWS:
                for n in range(4):
                    for state in sorted(c.states):
                        for z in range(lo - 3, hi + 4):
                            expected = [
                                (i, rule.dst, z2)
                                for i, rule in enumerate(c.rules) if rule.src == state
                                for z2 in [apply_op(rule.op, n, z)]
                                if z2 is not None and lo <= z2 <= hi
                            ]
                            assert list(_successors(c, n, lo, hi, state, z)) == expected

    def test_audit_equals_the_reference_audit(self):
        rng = random.Random(106)
        found = 0
        for _ in range(200):
            c = _random_poca(rng)
            for n in range(4):
                for bound, slack in ((0, 2), (3, 1), (5, 3)):
                    violation = find_bound_violation(c, n, bound, slack)
                    assert violation == _reference_bound_violation(c, n, bound, slack)
                    found += violation is not None
        assert found

    def test_initial_final_state_and_window_without_zero(self):
        rules = (PocaRule("q", ModTest(2), "q"), PocaRule("q", AddConst(-1), "f"))
        c = POCA(frozenset({"q", "f"}), frozenset(), rules, "q", frozenset({"q", "f"}))
        run = poca_reach_bounded(c, 0, -4, 4)
        assert run is not None and run.labels == () and run.configs == (PocaConfiguration("q", 0),)
        for lo, hi in ((1, 4), (-4, -1)):
            with pytest.raises(ValueError, match="lo <= 0 <= hi"):
                poca_reach_bounded(c, 0, lo, hi)


@pytest.fixture(scope="module")
def acceptance_builds():
    """(audit bound, slack) per N and the build, for the acceptance corpus.

    Fixtures get the acceptance gate's widened audit.  The random draws get
    a bound of N + 4, which most of their runs exceed: under their full
    4 * max(N, |C|) bound the audit explores the whole window, minutes per
    draw.
    """
    def gate(res):
        size = res.poca.size()
        return lambda n: (4 * max(n, size), 2 * n + res.max_gadget_const + 16)

    out = []
    for fx in fixture_corpus():
        if fx.in_corpus:
            res = build_poca(to_zero_one_pta(fx.pta))
            out.append((gate(res), res))
    rng = random.Random(20260809)
    for _ in range(110):
        res = build_poca(to_zero_one_pta(random_two_one_pta(rng, max_states=3)))
        out.append((lambda n: (n + 4, 2), res))
    return out


class TestSourceIndex:
    def test_index_groups_rule_indices_by_source_in_rule_order(self):
        rng = random.Random(17)
        for _ in range(25):
            c = _random_poca(rng)
            ids = c.numbering
            # The initial state is 0, then the states rules leave in the order
            # the rules first leave them, then the others sorted.
            sources = list(dict.fromkeys([c.initial] + [rule.src for rule in c.rules]))
            assert list(ids) == [*sources, *sorted(c.states - set(sources))]
            assert list(ids.values()) == list(range(len(c.states)))
            by_src, q = _rules_by_src(c), len(ids)
            for s in c.states:
                # In a window this wide no rule is dropped, and each shifts a
                # key of s to a key of its target.
                row = semantics._specialise(c, s, q, 2, -9, 9)
                assert [idx for idx, *_ in row] == [j for j, _ in by_src.get(s, ())]
                for idx, shift, *_ in row:
                    assert (ids[s] + shift) % q == ids[c.rules[idx].dst]

    def test_built_once_over_a_sweep(self):
        built = build_poca(to_zero_one_pta(fixture_by_name("even").pta)).poca
        size = built.size()
        poca = POCA(built.states, built.params, built.rules, built.initial, built.finals)
        rules = _CountingRules(poca.rules)
        object.__setattr__(poca, "rules", rules)
        hits = 0
        for n in range(9):
            hits += poca_reach_bounded(poca, n, 0, 4 * max(n, size)) is not None
            find_bound_violation(poca, n, 4 * max(n, size), 2 * n + 16)
        assert hits and rules.passes == 1

    def test_successors_follow_rule_order_inside_the_window(self):
        rules = (
            PocaRule("a", AddConst(1), "b"),
            PocaRule("b", AddConst(1), "a"),
            PocaRule("a", CmpParam("=", "p"), "f"),
            PocaRule("a", AddParam(-1, "p"), "b"),
        )
        c = POCA(frozenset({"a", "b", "f"}), frozenset({"p"}), rules, "a", frozenset({"f"}))
        assert list(_successors(c, 2, 0, 2, "a", 2)) == [(2, "f", 2), (3, "b", 0)]
        assert list(_successors(c, 2, -5, 5, "a", 0)) == [(0, "b", 1), (3, "b", -2)]
        assert list(_successors(c, 2, 0, 5, "f", 0)) == []

    def test_searches_match_per_call_rebuild(self, acceptance_builds):
        violations = 0
        for audit, res in acceptance_builds:
            poca = res.poca
            size = poca.size()
            for n in range(9):
                hi = 4 * max(n, size)
                run = poca_reach_bounded(poca, n, 0, hi)
                assert (None if run is None else list(run.labels)) == _reference_reach_labels(
                    poca, n, 0, hi
                )
                found = find_bound_violation(poca, n, *audit(n))
                assert found == _reference_bound_violation(poca, n, *audit(n))
                violations += found is not None
        assert violations


# sha256 of every ``poca_reach_bounded`` result, as (labels, [(state,
# counter), ...]) or None, on the benchmark's two corpora, in the window
# [0, 4 * max(N, |C|)] that decide, cross_check and the per-N queries search:
# the acceptance builds at N = 0..63 and the seed-0 draws at N = 0..31.
SEARCH_OUTPUT_SHA256 = "d73002ca2500d7e54f5794a1b3f3a0397f82f874226d5dd0bae625d30e4b31d9"


def _digest_searches(digest, poca, n_values) -> int:
    size = poca.size()
    hits = 0
    for n in range(n_values):
        run = poca_reach_bounded(poca, n, 0, 4 * max(n, size))
        out = None if run is None else [run.labels, [(c.state, c.counter) for c in run.configs]]
        digest.update(json.dumps(out).encode())
        hits += run is not None
    return hits


def test_search_output_pinned(acceptance_builds):
    digest = hashlib.sha256()
    hits = sum(_digest_searches(digest, res.poca, 64) for _, res in acceptance_builds)
    rng = random.Random(0)
    for _ in range(110):
        poca = build_poca(to_zero_one_pta(random_two_one_pta(rng, max_states=3))).poca
        hits += _digest_searches(digest, poca, 32)
    assert hits == 9530
    assert digest.hexdigest() == SEARCH_OUTPUT_SHA256


# sha256 of the oracle runs on the fixtures and the first 30 acceptance draws
# for N = 0..8.  A change to the oracles or the step semantics must update it
# on purpose.
ORACLE_OUTPUT_SHA256 = "081c72c15160e74c5ccc3ae00f2445faa6dd213ed9c1f56e9fcb1f6db033a463"


def test_oracle_output_pinned():
    ptas = [fx.pta for fx in fixture_corpus()]
    rng = random.Random(20260809)
    ptas += [random_two_one_pta(rng, max_states=3) for _ in range(30)]
    digest = hashlib.sha256()
    for pta in ptas:
        b = to_zero_one_pta(pta)
        for n in range(9):
            for a, oracle in ((pta, pta_reach_bruteforce), (b, zero_one_reach_bruteforce)):
                run = oracle(a, n, max(n, max(a.consts(), default=0)) + 1)
                digest.update(json.dumps(None if run is None else run_to_obj(run)).encode())
    assert digest.hexdigest() == ORACLE_OUTPUT_SHA256


# sha256 of the PTA oracle's runs on the first 20 seed-0 draws for N in
# {0, 5, 13, 31}, at the required clock cap and at four above it.
ORACLE_WIDE_OUTPUT_SHA256 = "accf4be433eb946160f689897a02e6904bac35642405bf3478c01c7134a202fa"


def test_oracle_output_pinned_on_seed0_draws_and_raised_caps():
    rng = random.Random(0)
    digest = hashlib.sha256()
    for pta in [random_two_one_pta(rng, max_states=3) for _ in range(20)]:
        for n in (0, 5, 13, 31):
            need = max(n, max(pta.consts(), default=0)) + 1
            for cap in (need, need + 4):
                run = pta_reach_bruteforce(pta, n, cap)
                digest.update(json.dumps(None if run is None else run_to_obj(run)).encode())
    assert digest.hexdigest() == ORACLE_WIDE_OUTPUT_SHA256


class TestGuardWindow:
    def test_window_is_exactly_the_delays_the_guard_admits(self):
        for cmp in COMPARISONS:
            for rhs in (0, 1, 3, "p"):
                guard = Guard("x", cmp, rhs)
                for n in (0, 2, 5):
                    resolved = n if guard.parametric else guard.rhs
                    for cap in (0, 1, 4, 7):
                        for value in range(cap + 1):
                            lo, hi = semantics._guard_window(cmp, resolved, value, cap)
                            admitted = [d for d in range(cap + 1) if guard.holds(value + d, n)]
                            assert list(range(lo, hi + 1)) == admitted, (guard, n, cap, value)

    @staticmethod
    def _per_delay_oracle(pta, n, cap):
        """The oracle as it stood before guard windows: every delay 0..cap per rule."""

        def successors(node):
            state, vals = node
            for ridx, rule in enumerate(pta.rules):
                if rule.src != state:
                    continue
                for delay in range(cap + 1):
                    advanced = semantics._clock_step(rule, n, vals, delay)
                    if advanced is not None:
                        sat = tuple(sorted((c, min(v, cap)) for c, v in advanced.items()))
                        yield (ridx, delay), (rule.dst, sat)

        start = PtaConfiguration.make(pta.initial, {c: 0 for c in pta.clocks})
        found = shortest_path(
            (start.state, start.valuation), successors, lambda node: node[0] in pta.finals
        )
        return None if found is None else semantics._replay(pta, n, start, found[1])

    @staticmethod
    def _chain(*rows):
        """A PTA over x, y from (src, clock, cmp, rhs, reset clock letters, dst) rows."""
        rules = [PtaRule(a, Guard(c, cmp, rhs), frozenset(z), b) for a, c, cmp, rhs, z, b in rows]
        states = {r.src for r in rules} | {r.dst for r in rules}
        return _pta(states, {"x", "y"}, {"p"}, rules, "q", {"f"})

    def test_oracle_runs_match_the_per_delay_search(self):
        chain = self._chain
        hand_built = [
            # Rules that reset both clocks keep only their least delay.
            chain(("q", "x", ">=", 1, "xy", "r"), ("r", "y", "<", 2, "y", "q"),
                  ("r", "x", "=", "p", "", "f"), ("q", "y", ">", "p", "xy", "f")),
            # f needs the reset on a -> b to zero x, which is 1 before the wait.
            chain(("q", "x", "=", 1, "", "a"), ("a", "y", ">=", 1, "x", "b"),
                  ("b", "x", "=", 0, "xy", "c"), ("c", "y", "=", "p", "", "f")),
            # f needs delay 2 on q -> a, not its least delay 0: c is entered
            # with x = 1 only if y - x is 2.
            chain(("q", "y", "<=", 5, "x", "a"), ("a", "x", "=", 1, "", "b"),
                  ("b", "y", "=", 3, "", "c"), ("c", "x", "=", 1, "", "f")),
            # At the required cap, s is entered with y saturated, so s -> f,
            # which keeps only y, has its least delay 1 above the clip 0.
            chain(("q", "y", ">", "p", "x", "s"), ("s", "x", ">=", 1, "x", "f")),
        ]
        rng = random.Random(60610)
        ptas = hand_built + [fixture_by_name("reset_pingpong").pta]
        ptas += [random_two_one_pta(rng, max_states=3) for _ in range(100)]
        hits = 0
        for pta in ptas:
            for n in range(7):
                need = max(n, max(pta.consts(), default=0)) + 1
                for cap in (need, need + 3):
                    run = pta_reach_bruteforce(pta, n, cap)
                    assert run == self._per_delay_oracle(pta, n, cap), (pta, n, cap)
                    hits += run is not None
        assert hits

    @staticmethod
    def _per_rule_zero_one_oracle(b, n, cap):
        """The 0/1 oracle as it stood before it shared the PTA oracle's rows:
        every rule per node, in rule order, through the exact stepper with
        its time bit, then saturation."""
        step = semantics._label_step(b, n)

        def successors(node):
            state, vals = node
            for idx, rule in enumerate(b.rules):
                if rule.src != state:
                    continue
                label = (idx, int(idx >= len(b.rules0)))
                nxt = step(PtaConfiguration(state, vals), label)
                if nxt is not None:
                    yield label, (nxt.state, tuple((c, min(v, cap)) for c, v in nxt.valuation))

        start = PtaConfiguration.make(b.initial, {c: 0 for c in b.clocks})
        found = shortest_path(
            (start.state, start.valuation), successors, lambda node: node[0] in b.finals
        )
        return None if found is None else semantics._replay(b, n, start, found[1])

    def test_zero_one_oracle_runs_match_the_per_rule_search(self):
        ptas = [fx.pta for fx in fixture_corpus()]
        ptas += [crt_pta(pairs) for pairs in ([(3, 2)], [(3, 2), (4, 3)], [(4, 3), (5, 4)])]
        rng = random.Random(60610)
        ptas += [random_two_one_pta(rng, max_states=3) for _ in range(100)]
        hits = 0
        for pta in ptas:
            b = to_zero_one_pta(pta)
            for n in range(7):
                need = max(n, max(b.consts(), default=0)) + 1
                for cap in (need, need + 3):
                    run = zero_one_reach_bruteforce(b, n, cap)
                    assert run == self._per_rule_zero_one_oracle(b, n, cap), (pta, n, cap)
                    hits += run is not None
        assert hits


class TestLiveStates:
    """The clock oracles search only states from which a final state is reachable."""

    @staticmethod
    def _count_windows(monkeypatch) -> list:
        calls = []
        window = semantics._guard_window

        def counted(*args):
            calls.append(args)
            return window(*args)

        monkeypatch.setattr(semantics, "_guard_window", counted)
        return calls

    def test_dead_initial_state_returns_at_once(self, monkeypatch):
        # f is final, but no rule leads into it: q and r cycle among themselves.
        rules = (
            PtaRule("q", Guard("x", ">=", "p"), frozenset(), "q"),
            PtaRule("q", Guard("y", "<=", "p"), frozenset({"x"}), "r"),
            PtaRule("r", Guard("x", "=", 1), frozenset({"y"}), "q"),
            PtaRule("f", Guard("x", "<=", "p"), frozenset(), "f"),
        )
        pta = _pta({"q", "r", "f"}, {"x", "y"}, {"p"}, rules, "q", {"f"})
        b = to_zero_one_pta(pta)
        calls = self._count_windows(monkeypatch)
        assert pta_reach_bruteforce(pta, 30) is None
        assert zero_one_reach_bruteforce(b, 30) is None
        assert calls == []

    @staticmethod
    def _with_dead_sink(pta):
        """pta with, before each rule, an always-enabled rule from its source
        into a sink pair that no final state is reachable from."""
        sink = (
            PtaRule("s1", Guard("y", "<=", "p"), frozenset({"x"}), "s2"),
            PtaRule("s2", Guard("x", ">=", 1), frozenset(), "s1"),
        )
        rules = []
        for rule in pta.rules:
            rules += [PtaRule(rule.src, Guard("x", ">=", 0), frozenset(), "s1"), rule]
        return PTA(pta.states | {"s1", "s2"}, pta.clocks, pta.params,
                   tuple(rules) + sink, pta.initial, pta.finals)

    @staticmethod
    def _steps(a, run):
        return None if run is None else (run.configs, [(a.rules[i], d) for i, d in run.labels])

    def test_dead_sink_branch_leaves_witnesses_unchanged(self):
        steps = self._steps
        hits = 0
        for name in ("even", "odd", "eq2", "reset_pingpong", "nonparam_ge2"):
            pta = fixture_by_name(name).pta
            sunk = self._with_dead_sink(pta)
            assert sunk.live == pta.live
            b, sunk_b = to_zero_one_pta(pta), to_zero_one_pta(sunk)
            for n in range(9):
                run = pta_reach_bruteforce(pta, n)
                assert steps(sunk, pta_reach_bruteforce(sunk, n)) == steps(pta, run), (name, n)
                assert (steps(sunk_b, zero_one_reach_bruteforce(sunk_b, n))
                        == steps(b, zero_one_reach_bruteforce(b, n))), (name, n)
                hits += run is not None
        assert hits
