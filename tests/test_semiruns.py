"""Semirun surgery: projection, shift/glue closure, depump, brackets."""

import random

import pytest

from ptareach.automata import (
    POCA,
    AddConst,
    AddParam,
    CmpConst,
    CmpParam,
    DerivedConstants,
    ModTest,
    PocaRule,
)
from ptareach.semantics import PocaConfiguration
from ptareach.semiruns import (
    DepumpError,
    Semirun,
    SemirunError,
    bracket_preconditions,
    classify_hill_valley,
    depump,
    find_bracket_subrun,
    glue,
    in_lambda,
    in_psi,
    is_embedding,
    multi_glue,
    phi,
    shift,
)


def _machine(ops, states=("a",), params=("p",)):
    """Single-state-ish machine exposing the given ops as self-loop rules."""
    rules = tuple(PocaRule(states[i % len(states)], op, states[(i + 1) % len(states)]) for i, op in enumerate(ops))
    return POCA(frozenset(states), frozenset(params), rules, states[0], frozenset())


def _walk(poca, n, rule_indices, start=0):
    """Build the semirun following the rules from counter value start."""
    from ptareach.semantics import semitransition_step

    configs = [PocaConfiguration(poca.rules[rule_indices[0]].src if rule_indices else poca.initial, start)]
    for ridx in rule_indices:
        out = semitransition_step(poca, n, configs[-1], poca.rules[ridx])
        assert out is not None
        configs.append(out)
    return Semirun(poca, n, tuple(configs), tuple(rule_indices))


class TestPhi:
    def test_basic_projection(self):
        m = _machine([AddParam(1, "p"), AddConst(1), AddParam(-1, "p")])
        run = _walk(m, 2, [0, 1, 2])
        assert phi(run) == "[]"

    def test_silent_ops(self):
        m = _machine([AddConst(1), ModTest(2)])
        run = _walk(m, 0, [0, 1], start=1)
        assert phi(run) == ""

    def test_order_preserved(self):
        m = _machine([AddParam(-1, "p"), AddParam(-1, "p"), AddParam(1, "p")])
        run = _walk(m, 1, [0, 1, 2])
        assert phi(run) == "]]["


class TestLambdaPsi:
    def test_examples(self):
        assert in_lambda("][", 1)
        assert not in_lambda("][", 0)
        assert in_psi("[[", 2)
        assert not in_lambda("[[", 2)

    def test_empty_word(self):
        assert in_lambda("", 0)
        assert in_psi("", 0)


def test_validate_checks_rule_indices():
    # Python's negative indexing used to alias rule -k to rule len - k.
    m = _machine([AddConst(1), AddConst(-1)], states=("a", "b"))
    run = _walk(m, 0, [0, 1, 0])
    assert run.validate() == (True, None)
    shifted = Semirun(m, 0, run.configs, tuple(r - len(m.rules) for r in run.rules))
    assert shifted.validate() == (False, 0)
    past_end = Semirun(m, 0, run.configs, (0, 1, len(m.rules)))
    assert past_end.validate() == (False, 2)


class TestShift:
    def test_translation(self):
        m = _machine([AddConst(1), AddConst(0)])
        run = _walk(m, 0, [0, 1])
        shifted = shift(run, 3)
        assert [c.counter for c in shifted.configs] == [3, 4, 4]
        assert shifted.delta() == run.delta()

    def test_modulo_survives_multiple_shift(self):
        m = _machine([AddConst(1), ModTest(2)])
        run = _walk(m, 0, [0, 1], start=3)  # values 3, 4, 4
        shifted = shift(run, -2, z=2)
        assert shifted.validate() == (True, None)

    def test_rejects_non_multiple(self):
        m = _machine([ModTest(2)])
        run = _walk(m, 0, [0], start=2)
        with pytest.raises(SemirunError):
            shift(run, 3)


class TestGlue:
    def _cycle(self, n_steps, z=1):
        m = _machine([AddConst(1)], states=("a",))
        return _walk(m, 0, [0] * n_steps)

    def test_length_and_delta_accounting(self):
        run = self._cycle(4)
        out = glue(run, 1, 3, z=1)
        assert len(out) == 2
        assert out.delta() == run.delta() - (run.counter(3) - run.counter(1))
        assert out.validate() == (True, None)

    def test_zero_gap_is_pure_excision(self):
        m = _machine([AddConst(1), AddConst(-1)], states=("a",))
        run = _walk(m, 0, [0, 1, 0, 1])
        out = glue(run, 0, 2, z=1)
        assert [c.counter for c in out.configs] == [0, 1, 0]

    def test_multi_glue_matches_sequential(self):
        run = self._cycle(8)
        a = multi_glue(run, [(0, 2), (4, 6)], z=1)
        b = glue(glue(run, 0, 2, z=1), 2, 4, z=1)
        assert a.configs == b.configs and a.rules == b.rules

    def test_precondition_failures_distinguished(self):
        m = _machine([AddConst(1), AddConst(1)], states=("a", "b"))
        run = _walk(m, 0, [0, 1, 0, 1])
        with pytest.raises(SemirunError, match="equal states"):
            glue(run, 0, 1, z=1)
        with pytest.raises(SemirunError, match="multiple of Z"):
            glue(run, 0, 2, z=4)


@pytest.mark.parametrize("z", [0, -2])
@pytest.mark.parametrize(
    "surgery",
    [
        lambda run, z: shift(run, 4, z=z),
        lambda run, z: glue(run, 0, 2, z=z),
        lambda run, z: multi_glue(run, [(0, 2)], z=z),
    ],
    ids=["shift", "glue", "multi_glue"],
)
def test_lattice_constant_must_be_positive(surgery, z):
    with pytest.raises(SemirunError, match="must be at least 1"):
        surgery(_staircase(4), z)


def _staircase(length, n=5):
    """+1 staircase over a two-state cycle, from counter 0."""
    m = _machine([AddConst(1), AddConst(1)], states=("a", "b"))
    return _walk(m, n, [0, 1] * (length // 2) + [0] * (length % 2))


class TestDepump:
    def test_staircase_drop_equals_gamma(self):
        consts = DerivedConstants.scaled(k=2, z=1, upsilon=10)
        run = _staircase(13)  # Delta = 13 > Upsilon
        out, removed = depump(run, 2, consts)
        assert out.delta() == run.delta() - consts.gamma
        assert out.validate() == (True, None)
        assert removed

    def test_removed_intervals_sign_uniform(self):
        consts = DerivedConstants.scaled(k=2, z=1, upsilon=8)
        rng = random.Random(5)
        for _ in range(20):
            length = rng.randrange(14, 40)
            run = _staircase(length)
            out, removed = depump(run, 2, consts)
            for a, b in removed:
                assert run.counter(b) - run.counter(a) > 0
            assert out.delta() == run.delta() - consts.gamma

    def test_negative_direction(self):
        m = _machine([AddConst(-1), AddConst(-1)], states=("a", "b"))
        run = _walk(m, 5, [0, 1] * 7)
        consts = DerivedConstants.scaled(k=2, z=1, upsilon=10)
        out, removed = depump(run, 2, consts)
        assert out.delta() == run.delta() + consts.gamma
        for a, b in removed:
            assert run.counter(b) - run.counter(a) < 0

    def test_modulo_tests_survive(self):
        # Staircase interleaved with mod-2 tests at even values.
        m = POCA(
            frozenset({"a", "b"}),
            frozenset({"p"}),
            (
                PocaRule("a", AddConst(1), "b"),
                PocaRule("b", AddConst(1), "a"),
                PocaRule("a", ModTest(2), "a"),
            ),
            "a",
            frozenset(),
        )
        seq = []
        for _ in range(14):
            seq += [2, 0, 1]  # test, +1, +1
        run = _walk(m, 3, seq)
        consts = DerivedConstants.scaled(k=2, z=2, upsilon=9)
        out, _ = depump(run, 2, consts)
        assert out.validate() == (True, None)
        assert out.delta() == run.delta() - consts.gamma

    def test_preconditions_enforced(self):
        consts = DerivedConstants.scaled(k=2, z=1, upsilon=50)
        run = _staircase(10)
        with pytest.raises(SemirunError, match="Upsilon"):
            depump(run, 2, consts)
        m = _machine([AddParam(1, "p")])
        unbalanced = _walk(m, 2, [0])
        big = DerivedConstants.scaled(k=2, z=1, upsilon=1)
        with pytest.raises(SemirunError, match="Lambda_8"):
            depump(unbalanced, 2, big)

    def test_rejects_runs_that_are_not_semiruns(self):
        # Labels -2/-1 would alias rules 0/1 by negative indexing, and a
        # counter jumping by 2 per step would surface only as a potential
        # bookkeeping fault.
        consts = DerivedConstants.scaled(k=2, z=1, upsilon=10)
        run = _staircase(14)
        aliased = Semirun(run.poca, run.n, run.configs, tuple(r - 2 for r in run.rules))
        doubled = tuple(PocaConfiguration(c.state, 2 * c.counter) for c in run.configs)
        for bad in (aliased, Semirun(run.poca, run.n, doubled, run.rules)):
            with pytest.raises(SemirunError, match="step 0 is not a semitransition"):
                depump(bad, 2, consts)

    def test_window_shortage_reported(self):
        consts = DerivedConstants.scaled(k=3, z=1, upsilon=10)
        run = _staircase(12)
        with pytest.raises(DepumpError):
            depump(run, 3, consts)


class TestBracketFinder:
    def test_descending_staircase_window(self):
        m = POCA(
            frozenset({"a", "b"}),
            frozenset({"p"}),
            (
                PocaRule("a", AddParam(1, "p"), "b"),
                PocaRule("b", AddConst(-1), "a"),
                PocaRule("a", AddConst(-1), "b"),
            ),
            "a",
            frozenset(),
        )
        consts = DerivedConstants.scaled(k=2, z=1, upsilon=6)
        # +p then a long descent: the all-epsilon suffix is a valid window.
        seq = [0] + [1, 2] * 10
        run = _walk(m, 4, seq)
        found = find_bracket_subrun(run, consts, "negative")
        assert found is not None
        c, d = found
        word = phi(run.subrun(c, d))
        assert in_lambda(word, 8)
        assert run.counter(d) - run.counter(c) < -consts.upsilon

    def test_absence_when_flat(self):
        run = _staircase(6)
        consts = DerivedConstants.scaled(k=2, z=1, upsilon=10)
        assert find_bracket_subrun(run, consts, "negative") is None

    def test_soundness_random(self):
        rng = random.Random(17)
        m = _machine(
            [AddConst(1), AddConst(-1), AddParam(1, "p"), AddParam(-1, "p"), AddConst(0)],
            states=("a",),
        )
        consts = DerivedConstants.scaled(k=2, z=1, upsilon=4)
        found = 0
        for _ in range(300):
            seq = [rng.randrange(5) for _ in range(rng.randrange(1, 60))]
            run = _walk(m, rng.randrange(0, 7), seq)
            for direction in ("negative", "positive"):
                got = find_bracket_subrun(run, consts, direction)
                if got is None:
                    continue
                found += 1
                c, d = got
                assert in_lambda(phi(run.subrun(c, d)), 8)
                delta = run.counter(d) - run.counter(c)
                if direction == "negative":
                    assert delta < -consts.upsilon
                else:
                    assert delta > consts.upsilon
        assert found > 10

    def test_preconditions_reported(self):
        m = _machine([AddParam(1, "p"), AddConst(-1)], states=("a", "b"))
        run = _walk(m, 3, [0, 1])
        consts = DerivedConstants.scaled(k=2, z=1, upsilon=1)
        report = bracket_preconditions(run, consts, "negative")
        assert set(report) == {
            "values_in_range",
            "delta_large",
            "bracket_majority",
            "parameter_large",
        }


class TestHillValley:
    def _run_from_values(self, values, ops=None):
        m = _machine([AddConst(1), AddConst(-1), AddParam(1, "p"), AddParam(-1, "p"), AddConst(0)])
        # Walk the exact value sequence using +-1/+-p/0 self-loops at N
        # equal to whatever gap appears; simplest: synthesize per-step ops.
        n = None
        seq = []
        for prev, nxt in zip(values, values[1:]):
            gap = nxt - prev
            if gap == 1:
                seq.append(0)
            elif gap == -1:
                seq.append(1)
            elif gap == 0:
                seq.append(4)
            elif gap > 1:
                seq.append(2)
                n = gap
            else:
                seq.append(3)
                n = -gap
        n = n or 1
        if ops:
            seq = ops
        configs = tuple(PocaConfiguration("a", v) for v in values)
        return Semirun(m, n, configs, tuple(seq))

    def test_plain_hill(self):
        run = self._run_from_values([0, 5, 5, 6, 1])
        assert classify_hill_valley(run, 5, upsilon=2) == "hill"

    def test_candidate_with_failing_margin(self):
        # -p at a value only Upsilon above the start breaks the hill margin.
        run = self._run_from_values([0, 6, 2])
        assert phi(run)  # contains a bracket
        assert classify_hill_valley(run, 5, upsilon=7) == "hill-candidate"

    def test_flat_run_is_neither(self):
        run = self._run_from_values([5, 5, 5])
        assert classify_hill_valley(run, 5, upsilon=1) == "neither"

    def test_valley(self):
        run = self._run_from_values([9, 3, 3, 9])
        assert classify_hill_valley(run, 4, upsilon=1) == "valley"
        assert classify_hill_valley(run, 4, upsilon=10) == "valley-candidate"


class TestEmbedding:
    def test_identity(self):
        run = _staircase(6)
        emb = is_embedding(run, run, 3)
        assert emb is not None
        assert emb.mapping == tuple(range(7))
        assert emb.min_rising and emb.max_falling

    def test_shifted_distant_embedding(self):
        m = _machine([AddConst(1), AddConst(1)], states=("a", "b"))
        run = _walk(m, 0, [0, 1, 0], start=10)  # values 10..13, far above 3
        moved = shift(run, 2, z=1)
        emb = is_embedding(moved, run, 3)
        assert emb is not None
        assert not emb.max_falling

    def test_rule_mismatch_rejected(self):
        m = _machine([AddConst(1), AddParam(1, "p")], states=("a",))
        plain = _walk(m, 2, [0, 0])
        with_param = _walk(m, 2, [0, 1])
        assert is_embedding(with_param, plain, 0) is None

    def test_orientation_violation_rejected(self):
        m = _machine([AddConst(1)], states=("a",))
        low = _walk(m, 0, [0], start=0)   # 0 -> 1, both <= level 5
        high = _walk(m, 0, [0], start=9)  # 9 -> 10, above level 5
        assert is_embedding(high, low, 5) is None

    def test_subsequence_embedding(self):
        m = _machine([AddConst(1), AddConst(0)], states=("a",))
        host = _walk(m, 0, [0, 1, 0, 1, 0])
        small = _walk(m, 0, [0, 0], start=0)
        # values of small: 0,1,2 — must match orientation against host's.
        emb = is_embedding(small, host, -1)
        assert emb is not None
        mapping = emb.mapping
        assert all(b > a for a, b in zip(mapping, mapping[1:]))

    def test_transitivity(self):
        m = _machine([AddConst(1), AddConst(0)], states=("a",))
        host = _walk(m, 0, [0, 1, 0, 1, 0])   # values 0..3 with plateaus
        mid = _walk(m, 0, [0, 1, 0])          # values 0,1,1,2
        small = _walk(m, 0, [0])              # values 0,1
        lvl = -1
        e1 = is_embedding(small, mid, lvl)
        e2 = is_embedding(mid, host, lvl)
        assert e1 is not None and e2 is not None
        assert is_embedding(small, host, lvl) is not None

    def test_concatenation_closure(self):
        m = _machine([AddConst(1), AddConst(0)], states=("a",))
        host1 = _walk(m, 0, [0, 1])
        host2 = _walk(m, 0, [1, 0], start=host1.counter(2))
        part1 = _walk(m, 0, [0])
        part2 = _walk(m, 0, [0], start=1)
        lvl = -1
        e1 = is_embedding(part1, host1, lvl)
        e2 = is_embedding(part2, host2, lvl)
        assert e1 and e2
        joined_host = Semirun(m, 0, host1.configs + host2.configs[1:], host1.rules + host2.rules)
        joined = Semirun(m, 0, part1.configs + part2.configs[1:], part1.rules + part2.rules)
        assert is_embedding(joined, joined_host, lvl) is not None


class TestClosureProperties:
    def test_random_shift_glue_closure(self):
        rng = random.Random(23)
        m = POCA(
            frozenset({"a", "b"}),
            frozenset({"p"}),
            (
                PocaRule("a", AddConst(1), "b"),
                PocaRule("b", AddConst(-1), "a"),
                PocaRule("a", AddParam(1, "p"), "a"),
                PocaRule("a", ModTest(2), "b"),
                PocaRule("b", CmpParam("<=", "p"), "a"),
                PocaRule("b", CmpConst(">=", 0), "b"),
            ),
            "a",
            frozenset(),
        )
        z = 2
        for _ in range(200):
            n = rng.randrange(0, 6)
            run = _random_semirun(m, n, rng)
            assert run.validate() == (True, None)
            d = z * rng.randrange(-3, 4)
            shifted = shift(run, d, z=z)
            assert shifted.validate() == (True, None)
            assert shifted.values() == {v + d for v in run.values()}
            pairs = [
                (i, j)
                for i in range(len(run) + 1)
                for j in range(i + 1, len(run) + 1)
                if run.state(i) == run.state(j)
                and (run.counter(j) - run.counter(i)) % z == 0
            ]
            if pairs:
                i, j = rng.choice(pairs)
                glued = glue(run, i, j, z=z)
                assert glued.validate() == (True, None)
                assert len(glued) == len(run) - (j - i)
                assert glued.delta() == run.delta() - (run.counter(j) - run.counter(i))


def _random_semirun(poca, n, rng, max_len=24):
    from ptareach.semantics import semitransition_step

    state = rng.choice(sorted(poca.states))
    counter = rng.randrange(-4, 5) * 2
    configs = [PocaConfiguration(state, counter)]
    rules = []
    for _ in range(rng.randrange(1, max_len)):
        options = [
            (i, r) for i, r in enumerate(poca.rules) if r.src == configs[-1].state
        ]
        rng.shuffle(options)
        for i, rule in options:
            out = semitransition_step(poca, n, configs[-1], rule)
            if out is not None:
                configs.append(out)
                rules.append(i)
                break
        else:
            break
    if len(configs) == 1:
        configs.append(semitransition_step(poca, n, configs[0], poca.rules[0]) or configs[0])
        rules.append(0)
        return Semirun(poca, n, tuple(configs), tuple(rules))
    return Semirun(poca, n, tuple(configs), tuple(rules))
