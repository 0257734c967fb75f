"""The end-to-end decision procedure and its cross-check harness."""

import random

import pytest

from ptareach.automata import PTA, CmpConst, Guard, PocaRule, PtaRule
from ptareach.fixtures import fixture_by_name, fixture_corpus, random_two_one_pta
from ptareach.poca_build import build_poca
from ptareach.semantics import validate_run
from ptareach.solver import cross_check, decide
from ptareach.zero_one import to_zero_one_pta


class TestDecide:
    def test_even_fixture_minimal_value(self):
        fx = fixture_by_name("even")
        for mode in ("direct", "via-poca"):
            verdict = decide(fx.pta, 6, mode)
            assert verdict.reachable and verdict.param_value == 0
            assert verdict.completeness == "BOUNDED"

    def test_minimal_value_is_first_hit(self):
        fx = fixture_by_name("ge2")
        verdict = decide(fx.pta, 8, "via-poca")
        assert verdict.param_value == 2
        verdict = decide(fx.pta, 8, "direct")
        assert verdict.param_value == 2

    def test_unreachable_up_to_bound(self):
        fx = fixture_by_name("never")
        verdict = decide(fx.pta, 5, "via-poca")
        assert not verdict.reachable
        assert verdict.param_value is None
        assert "unreachable" in verdict.summary()

    def test_witnesses_validate(self):
        fx = fixture_by_name("odd")
        verdict = decide(fx.pta, 8, "via-poca")
        assert verdict.param_value == 1
        assert validate_run(verdict.decoded_pta_run, fx.pta, 1) == (True, None)
        assert verdict.decoded_pta_run.configs[-1].state in fx.pta.finals

    def test_rejects_bad_inputs(self):
        fx = fixture_by_name("even")
        with pytest.raises(ValueError):
            decide(fx.pta, -1)
        with pytest.raises(ValueError):
            decide(fx.pta, 3, mode="psychic")

    @pytest.mark.parametrize("check", [decide, cross_check])
    def test_both_routes_reject_the_same_inputs(self, check):
        # Unchecked, a negative n_max makes cross_check sweep no value and
        # report that the modes agree.
        even = fixture_by_name("even").pta
        with pytest.raises(ValueError, match="n_max must be non-negative"):
            check(even, -1)
        one_clock = PTA(
            frozenset({"q"}), frozenset({"x", "y"}), frozenset({"p"}),
            (PtaRule("q", Guard("x", ">=", "p"), frozenset(), "q"),),
            "q", frozenset({"q"}),
        )
        assert one_clock.classification() == (1, 1)
        with pytest.raises(ValueError, match=r"expected a \(2,1\)-PTA"):
            check(one_clock, 3)

    def test_threshold_reported(self):
        fx = fixture_by_name("even")
        verdict = decide(fx.pta, 4, "via-poca")
        # The completeness threshold is max(M, |C|), far beyond desk scale.
        assert verdict.threshold > 10**9
        assert verdict.completeness == "BOUNDED"


class TestCrossCheck:
    def test_fixtures_agree(self):
        for fx in fixture_corpus():
            report = cross_check(fx.pta, 8)
            assert report.agree, fx.name
            assert len(report.per_value) == 9

    def test_single_value_window(self):
        fx = fixture_by_name("always")
        report = cross_check(fx.pta, 0)
        assert report.agree and len(report.per_value) == 1

    def test_random_corpus_agrees(self):
        rng = random.Random(246810)
        for _ in range(30):
            pta = random_two_one_pta(rng)
            report = cross_check(pta, 6)
            assert report.agree, pta

    def test_fault_injection_detected(self):
        # Corrupt the built automaton: gate every accepting edge on counter
        # zero, which the offset construction never satisfies at large N.
        fx = fixture_by_name("ge2")
        from ptareach.poca_build import build_poca
        from ptareach.semantics import poca_reach_bounded, pta_reach_bruteforce
        from ptareach.zero_one import to_zero_one_pta
        from ptareach.automata import POCA

        res = build_poca(to_zero_one_pta(fx.pta))
        poca = res.poca
        (acc,) = poca.finals
        bad_rules = []
        for rule in poca.rules:
            if rule.dst == acc:
                bad_rules.append(PocaRule(rule.src, CmpConst("=", 0), rule.dst))
            else:
                bad_rules.append(rule)
        corrupted = POCA(poca.states, poca.params, tuple(bad_rules), poca.initial, poca.finals)
        size = corrupted.size()
        diverged = None
        for n in range(7):
            direct = pta_reach_bruteforce(fx.pta, n, max(n, 2) + 1) is not None
            via = poca_reach_bounded(corrupted, n, 0, 4 * max(n, size)) is not None
            if direct != via:
                diverged = n
                break
        assert diverged is not None


@pytest.mark.parametrize("seed, fixtures, dead", [(20260809, True, 16), (0, False, 11)])
def test_dead_initial_state_is_unreachable_on_every_route(seed, fixtures, dead):
    # The acceptance corpus (in-corpus fixtures, then 110 draws) and the
    # seed-0 corpus: where no rule path leads from the initial state to a
    # final one, the 0/1 product, the POCA and the oracle all say so.
    ptas = [fx.pta for fx in fixture_corpus() if fx.in_corpus] if fixtures else []
    rng = random.Random(seed)
    ptas += [random_two_one_pta(rng, max_states=3) for _ in range(110)]
    checked = 0
    for pta in ptas:
        if pta.initial in pta.live:
            continue
        b = to_zero_one_pta(pta)
        assert b.initial not in b.live
        assert not build_poca(b).poca.finals
        report = cross_check(pta, 31)
        assert report.agree
        assert not any(row["direct"] or row["via_poca"] for row in report.per_value)
        checked += 1
    assert checked == dead
