"""Hand-built fixtures with known answers, plus seeded random generators.

Each PTA fixture carries a predicate over the parameter value describing
exactly when reachability holds; tests sweep the predicate against both the
direct oracle and the one-counter pipeline.  The zero-delay chain trick
appears throughout: a guard x = 0 immediately after a rule pins that rule's
firing moment, which is how conjunctions of clock conditions are expressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .automata import (
    POCA,
    PTA,
    AddConst,
    AddParam,
    CmpParam,
    Guard,
    ModTest,
    PocaRule,
    PtaRule,
)


@dataclass(frozen=True)
class Fixture:
    name: str
    pta: PTA
    accepts: Callable[[int], bool]
    description: str
    in_corpus: bool = True  # small enough for the main acceptance corpus


def _pta(states, clocks, rules, initial, finals):
    return PTA(
        frozenset(states),
        frozenset(clocks),
        frozenset({"p"}),
        tuple(rules),
        initial,
        frozenset(finals),
    )


def _fixture_even():
    rules = (
        PtaRule("q", Guard("x", "=", 2), frozenset({"x"}), "q"),
        PtaRule("q", Guard("y", "=", "p"), frozenset(), "g"),
        PtaRule("g", Guard("x", "=", 0), frozenset(), "f"),
        PtaRule("f", Guard("x", "<=", "p"), frozenset(), "f"),
    )
    pta = _pta({"q", "g", "f"}, {"x", "y"}, rules, "q", {"f"})
    return Fixture("even", pta, lambda n: n % 2 == 0, "reachable iff the parameter is even")


def _fixture_odd():
    rules = (
        PtaRule("q0", Guard("x", "=", 1), frozenset({"x"}), "q"),
        PtaRule("q", Guard("x", "=", 2), frozenset({"x"}), "q"),
        PtaRule("q", Guard("y", "=", "p"), frozenset(), "g"),
        PtaRule("g", Guard("x", "=", 0), frozenset(), "f"),
        PtaRule("f", Guard("x", "<=", "p"), frozenset(), "f"),
    )
    pta = _pta({"q0", "q", "g", "f"}, {"x", "y"}, rules, "q0", {"f"})
    return Fixture("odd", pta, lambda n: n % 2 == 1, "reachable iff the parameter is odd")


def _fixture_always():
    rules = (
        PtaRule("q", Guard("x", "<=", "p"), frozenset(), "q"),
        PtaRule("q", Guard("y", "<=", "p"), frozenset(), "q"),
    )
    pta = _pta({"q"}, {"x", "y"}, rules, "q", {"q"})
    return Fixture("always", pta, lambda n: True, "initial state is accepting")


def _fixture_never():
    rules = (
        PtaRule("q", Guard("x", ">=", "p"), frozenset(), "q"),
        PtaRule("q", Guard("y", ">=", "p"), frozenset(), "q"),
    )
    pta = _pta({"q"}, {"x", "y"}, rules, "q", set())
    return Fixture("never", pta, lambda n: False, "no final states")


def _fixture_ge1():
    rules = (
        PtaRule("q", Guard("y", "<", "p"), frozenset(), "f"),
        PtaRule("f", Guard("x", "<", "p"), frozenset(), "f"),
    )
    pta = _pta({"q", "f"}, {"x", "y"}, rules, "q", {"f"})
    return Fixture("ge1", pta, lambda n: n >= 1, "strict guard needs a positive parameter")


def _fixture_ge2():
    rules = (
        PtaRule("q", Guard("x", "=", 2), frozenset({"x"}), "r"),
        PtaRule("r", Guard("y", "<=", "p"), frozenset(), "f"),
        PtaRule("f", Guard("x", ">=", "p"), frozenset(), "f"),
    )
    pta = _pta({"q", "r", "f"}, {"x", "y"}, rules, "q", {"f"})
    return Fixture("ge2", pta, lambda n: n >= 2, "two time units must fit below the parameter")


def _fixture_le2():
    rules = (
        PtaRule("q", Guard("y", "=", "p"), frozenset(), "r"),
        PtaRule("r", Guard("x", "<=", 2), frozenset(), "f"),
        PtaRule("f", Guard("x", "<=", "p"), frozenset(), "f"),
    )
    pta = _pta({"q", "r", "f"}, {"x", "y"}, rules, "q", {"f"})
    return Fixture("le2", pta, lambda n: n <= 2, "parameter moment must land at or before 2")


def _fixture_eq2():
    rules = (
        PtaRule("q", Guard("x", "=", 2), frozenset({"x"}), "r"),
        PtaRule("r", Guard("y", "=", "p"), frozenset(), "g"),
        PtaRule("g", Guard("x", "=", 0), frozenset(), "f"),
        PtaRule("q", Guard("x", "<=", "p"), frozenset(), "q"),
        PtaRule("q", Guard("y", "<=", "p"), frozenset(), "q"),
    )
    pta = _pta({"q", "r", "g", "f"}, {"x", "y"}, rules, "q", {"f"})
    return Fixture("eq2", pta, lambda n: n == 2, "zero-delay pin forces the parameter to equal 2")


def _fixture_nonparam_ge2():
    rules = (
        PtaRule("q", Guard("w", "=", 2), frozenset({"x"}), "r"),
        PtaRule("r", Guard("y", "<=", "p"), frozenset(), "f"),
        PtaRule("f", Guard("x", ">=", "p"), frozenset(), "f"),
    )
    pta = _pta({"q", "r", "f"}, {"x", "y", "w"}, rules, "q", {"f"})
    return Fixture(
        "nonparam_ge2", pta, lambda n: n >= 2,
        "a non-parametric third clock gates the parametric test",
    )


def _fixture_corner_all():
    rules = (
        PtaRule("q", Guard("x", ">=", "p"), frozenset(), "r"),
        PtaRule("r", Guard("y", "<=", "p"), frozenset(), "f"),
    )
    pta = _pta({"q", "r", "f"}, {"x", "y"}, rules, "q", {"f"})
    return Fixture("corner_all", pta, lambda n: True, "forces the run through the (N,N) corner")


def _fixture_reset_pingpong():
    # x and y alternate resets; acceptance needs y to hit the parameter
    # exactly one unit after an x reset.
    rules = (
        PtaRule("q", Guard("x", "=", 1), frozenset({"x"}), "r"),
        PtaRule("r", Guard("y", "=", "p"), frozenset({"y"}), "g"),
        PtaRule("g", Guard("x", "=", 1), frozenset(), "f"),
        PtaRule("f", Guard("x", "<=", "p"), frozenset(), "f"),
    )
    pta = _pta({"q", "r", "g", "f"}, {"x", "y"}, rules, "q", {"f"})
    # q -> r at time 1 (x reset); r -> g when y = N (so N >= 1, x = N - 1);
    # g -> f needs x + t = 1 with x = N - 1: only N in {1, 2} fit (t >= 0).
    return Fixture(
        "reset_pingpong", pta, lambda n: n in (1, 2),
        "interleaved resets carve a two-value window",
    )


def _fixture_three_mult():
    rules = (
        PtaRule("q", Guard("x", "=", 3), frozenset({"x"}), "q"),
        PtaRule("q", Guard("y", "=", "p"), frozenset(), "g"),
        PtaRule("g", Guard("x", "=", 0), frozenset(), "f"),
        PtaRule("f", Guard("x", "<=", "p"), frozenset(), "f"),
    )
    pta = _pta({"q", "g", "f"}, {"x", "y"}, rules, "q", {"f"})
    return Fixture(
        "three_mult", pta, lambda n: n % 3 == 0,
        "reachable iff the parameter is a multiple of three", in_corpus=False,
    )


def fixture_corpus():
    """All hand-built PTA fixtures; in_corpus marks the small-profile subset."""
    return [
        _fixture_even(),
        _fixture_odd(),
        _fixture_always(),
        _fixture_never(),
        _fixture_ge1(),
        _fixture_ge2(),
        _fixture_le2(),
        _fixture_eq2(),
        _fixture_nonparam_ge2(),
        _fixture_corner_all(),
        _fixture_reset_pingpong(),
        _fixture_three_mult(),
    ]


def crt_pta(pairs) -> PTA:
    """A PTA accepting exactly when N = r (mod a) for every (a, r) in pairs.

    Non-parametric clock w_i counts modulo a_i on a reset loop at q.  At
    y = p the run leaves q and tests each w_i = r_i in turn, every test
    followed by y = p to pin zero delay, so it reads N mod a_i.  Not in
    fixture_corpus(): its least accepted N grows with lcm(a_i).
    """
    k = len(pairs)
    clocks = ["x", "y"] + [f"w{i}" for i in range(k)]
    rules = [
        PtaRule("q", Guard(f"w{i}", "=", a), frozenset({f"w{i}"}), "q")
        for i, (a, _) in enumerate(pairs)
    ]
    rules.append(PtaRule("q", Guard("y", "=", "p"), frozenset(), "g0"))
    for i, (_, r) in enumerate(pairs):
        rules.append(PtaRule(f"g{i}", Guard(f"w{i}", "=", r), frozenset(), f"h{i}"))
        rules.append(PtaRule(f"h{i}", Guard("y", "=", "p"), frozenset(), f"g{i + 1}"))
    rules.append(PtaRule(f"g{k}", Guard("x", "<=", "p"), frozenset(), f"g{k}"))
    states = ["q"] + [f"g{i}" for i in range(k + 1)] + [f"h{i}" for i in range(k)]
    return _pta(states, clocks, rules, "q", {f"g{k}"})


def fixture_by_name(name: str) -> Fixture:
    for fx in fixture_corpus():
        if fx.name == name:
            return fx
    raise KeyError(name)


def poca_mod6_fixture() -> POCA:
    """Counter machine accepting exactly the parameter values = 5 mod 6."""
    states = [f"m{i}" for i in range(7)] + ["macc"]
    rules = [PocaRule("m0", AddParam(1, "p"), "m1")]
    for i in range(1, 6):
        rules.append(PocaRule(f"m{i}", AddConst(-1), f"m{i + 1}"))
    rules.append(PocaRule("m6", ModTest(6), "macc"))
    return POCA(frozenset(states), frozenset({"p"}), tuple(rules), "m0", frozenset({"macc"}))


# ---------------------------------------------------------------------------
# Seeded random instance generators
# ---------------------------------------------------------------------------


def random_two_one_pta(rng, max_states: int = 3, max_const: int = 2) -> PTA:
    """A random (2,1)-PTA; both x and y are forced parametric."""
    n_states = rng.randrange(1, max_states + 1)
    states = [f"s{i}" for i in range(n_states)]
    clocks = ["x", "y"] + (["w"] if rng.random() < 0.4 else [])
    comparisons = ["<", "<=", "=", ">=", ">"]
    rules = [
        PtaRule(
            states[0], Guard("x", rng.choice(comparisons), "p"), frozenset(), rng.choice(states)
        ),
        PtaRule(
            rng.choice(states), Guard("y", rng.choice(comparisons), "p"), frozenset(),
            rng.choice(states),
        ),
    ]
    for _ in range(rng.randrange(1, 6)):
        clock = rng.choice(clocks)
        if rng.random() < 0.5 and clock in ("x", "y"):
            guard = Guard(clock, rng.choice(comparisons), "p")
        else:
            guard = Guard(clock, rng.choice(comparisons), rng.randrange(max_const + 1))
        resets = frozenset(c for c in clocks if rng.random() < 0.35)
        rules.append(PtaRule(rng.choice(states), guard, resets, rng.choice(states)))
    return _pta(states, clocks, rules, states[0], {rng.choice(states)})


def random_unary_oca(rng, max_states: int = 6) -> POCA:
    """A random +0/+1 counter automaton with no tests or parameters."""
    n = rng.randrange(1, max_states + 1)
    states = [f"s{i}" for i in range(n)]
    rules = tuple(
        PocaRule(rng.choice(states), AddConst(rng.choice([0, 1])), rng.choice(states))
        for _ in range(rng.randrange(0, 2 * n + 3))
    )
    return POCA(frozenset(states), frozenset(), rules, states[0], frozenset())


def random_walk_machine() -> POCA:
    """A fixed small machine rich enough for random semirun generation."""
    rules = (
        PocaRule("a", AddConst(1), "b"),
        PocaRule("b", AddConst(-1), "a"),
        PocaRule("a", AddConst(0), "a"),
        PocaRule("a", AddParam(1, "p"), "b"),
        PocaRule("b", AddParam(-1, "p"), "a"),
        PocaRule("a", ModTest(2), "b"),
        PocaRule("b", CmpParam("<=", "p"), "b"),
    )
    return POCA(frozenset({"a", "b"}), frozenset({"p"}), rules, "a", frozenset())


def random_semirun(poca: POCA, n: int, rng, max_len: int = 40, start: int = 0):
    """A random valid semirun by walking semitransitions from a start value."""
    from .semantics import PocaConfiguration, semitransition_step
    from .semiruns import Semirun

    state = rng.choice(sorted(poca.states))
    configs = [PocaConfiguration(state, start)]
    rules = []
    for _ in range(rng.randrange(1, max_len)):
        options = [(i, poca.rules[i]) for i in poca.leaving.get(configs[-1].state, ())]
        rng.shuffle(options)
        for i, rule in options:
            out = semitransition_step(poca, n, configs[-1], rule)
            if out is not None:
                configs.append(out)
                rules.append(i)
                break
        else:
            break
    return Semirun(poca, n, tuple(configs), tuple(rules))
