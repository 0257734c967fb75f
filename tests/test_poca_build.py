"""The 0/1-PTA to counter-automaton construction."""

import hashlib
import json
import random

import pytest

from ptareach import serialize
from ptareach.automata import (
    POCA,
    PTA,
    CmpConst,
    Guard,
    ModTest,
    PtaRule,
    ZeroOnePTA,
)
from ptareach.fixtures import crt_pta, fixture_corpus, random_two_one_pta
from ptareach.poca_build import (
    CASES,
    CROSSINGS,
    LOCKS,
    BudgetExceeded,
    DecodeError,
    _Emitter,
    _minus,
    _plus,
    build_poca,
    decode_witness,
    normalize_accepting_zero,
)
from ptareach.semantics import (
    PocaConfiguration,
    Run,
    poca_reach_bounded,
    pta_reach_bruteforce,
    reachable,
    validate_run,
)
from ptareach.solver import cross_check, find_bound_violation, zero_one_run_to_pta_run
from ptareach.zero_one import to_zero_one_pta


def test_rejects_unreduced_inputs():
    b = ZeroOnePTA(
        frozenset({"a"}),
        frozenset({"x", "y"}),
        frozenset({"p"}),
        (PtaRule("a", Guard("x", "=", 3), frozenset(), "a"),),
        (),
        "a",
        frozenset(),
    )
    with pytest.raises(ValueError, match="constants"):
        build_poca(b)


def _wide_draw(seed, index, max_states=5, max_const=5):
    rng = random.Random(seed)
    for _ in range(index + 1):
        pta = random_two_one_pta(rng, max_states=max_states, max_const=max_const)
    return pta


def _mod3_pta():
    # The non-parametric clock w cycles every 3 time units inside LOWER_LEFT,
    # so the dwell to y = N has progression (4, 3) and acceptance needs
    # N = 0 (mod 3): witnesses must pass the residue check.
    rules = (
        PtaRule("q", Guard("w", "=", 3), frozenset({"w"}), "q"),
        PtaRule("q", Guard("y", "=", "p"), frozenset(), "g"),
        PtaRule("g", Guard("w", "=", 0), frozenset(), "f"),
        PtaRule("f", Guard("x", "<=", "p"), frozenset(), "f"),
    )
    return PTA(frozenset({"q", "g", "f"}), frozenset({"x", "y", "w"}), frozenset({"p"}),
               rules, "q", frozenset({"f"}))


def _rows_pta(*rows):
    # A PTA from (src, clock, cmp, rhs, resets, dst) rows, starting at the
    # first row's source and accepting in "f".  A clock that no row compares
    # with p gets an idle "x <= p" loop at f, so both clocks are parametric.
    rules = [PtaRule(src, Guard(c, cmp, rhs), frozenset(resets), dst)
             for src, c, cmp, rhs, resets, dst in rows]
    idle = {"x", "y"} - {r.guard.clock for r in rules if r.guard.parametric}
    rules += [PtaRule("f", Guard(c, "<=", "p"), frozenset(), "f") for c in sorted(idle)]
    states = frozenset(s for r in rules for s in (r.src, r.dst))
    return PTA(states, frozenset({"x", "y"}), frozenset({"p"}), tuple(rules), rows[0][0],
               frozenset({"f"}))


# Automata whose shortest witnesses pass a gadget that no random draw's
# witness passes, each with the gadget's name (kind:style or case).  Constant
# guards and the zero-delay chain trick pin where each reset happens.
GADGET_PTAS = (
    # y reset at x = N; x reset inside LOWER_RIGHT (x > N > y), pinned by
    # y < p at zero delay.
    ("reset:lock_x_lr", _rows_pta(
        ("q0", "y", "=", "p", "y", "q1"), ("q1", "x", ">", "p", "x", "a"),
        ("a", "y", "<", "p", "", "b"), ("b", "x", "=", 0, "", "q2"),
        ("q2", "y", "=", "p", "", "f"),
    )),
    ("reset:lock_y_ul", _rows_pta(
        ("q0", "x", "=", "p", "x", "q1"), ("q1", "y", ">", "p", "y", "a"),
        ("a", "x", "<", "p", "", "b"), ("b", "y", "=", 0, "", "q2"),
        ("q2", "x", "=", "p", "", "f"),
    )),
    # x reset at 1, then y reset inside LOWER_LEFT above the diagonal (N >= 3).
    ("reset:lock_y_mirror", _rows_pta(
        ("q0", "y", "=", 1, "x", "q1"), ("q1", "y", "<", "p", "y", "a"),
        ("a", "x", ">=", 1, "", "b"), ("b", "y", "=", 0, "", "f"),
    )),
    # Both clocks reset inside LOWER_LEFT; y reset inside LOWER_RIGHT.
    ("reset:exist_then", _rows_pta(
        ("q0", "x", ">=", 1, "", "a"), ("a", "x", "<", "p", "xy", "f"),
    )),
    ("reset:exist_then", _rows_pta(
        ("q0", "y", "=", "p", "y", "q1"), ("q1", "y", ">=", 1, "", "a"),
        ("a", "x", ">", "p", "", "b"), ("b", "y", "<", "p", "y", "f"),
    )),
    # Crossings from x = N, y = N - 1 straight to y = N, and mirrored.
    ("cross:z=1", _rows_pta(
        ("q0", "y", "=", 1, "y", "q1"), ("q1", "y", "=", "p", "", "f"),
    )),
    ("cross:z=-1", _rows_pta(
        ("q0", "x", "=", 1, "x", "q1"), ("q1", "x", "=", "p", "", "f"),
    )),
    # Full crossings: y = p (or x = p) after a reset that leaves the
    # difference at 2 (N >= 3), at N or beyond N.
    ("cross:LR_LEFT", _rows_pta(
        ("q0", "y", "=", 2, "y", "q1"), ("q1", "y", "=", "p", "", "f"),
    )),
    ("cross:LR_ZN", _rows_pta(
        ("q0", "y", "=", "p", "y", "q1"), ("q1", "y", "=", "p", "", "f"),
    )),
    ("cross:LR_ZN1", _rows_pta(
        ("q0", "x", ">", "p", "y", "q1"), ("q1", "y", "=", "p", "", "f"),
    )),
    ("cross:UL_TOP", _rows_pta(
        ("q0", "x", "=", 2, "x", "q1"), ("q1", "x", "=", "p", "", "f"),
    )),
    ("cross:UL_ZN", _rows_pta(
        ("q0", "x", "=", "p", "x", "q1"), ("q1", "x", "=", "p", "", "f"),
    )),
    ("cross:UL_ZN1", _rows_pta(
        ("q0", "y", ">", "p", "x", "q1"), ("q1", "x", "=", "p", "", "f"),
    )),
)


def test_residue_marker_checks_agreement_with_n():
    # A ("residue", b) marker passes from counter w exactly when
    # w = N (mod b), and hands w on unchanged.
    for b in range(2, 7):
        for w in range(13):
            em = _Emitter(budget=1_000)
            init, src, dst, final = (em.fresh() for _ in range(4))
            em.chain(init, _plus(w), src)
            em.link(src, ("residue", b), dst)
            em.chain(dst, _minus(w) + [CmpConst("=", 0)], final)
            states = frozenset({init, final} | {s for r in em.rules for s in (r.src, r.dst)})
            poca = POCA(states, frozenset({"p"}), tuple(em.rules), init, frozenset({final}))
            for n in range(13):
                passed = poca_reach_bounded(poca, n, 0, 100) is not None
                assert passed == (w % b == n % b), (b, w, n)


def test_wide_draw_with_four_periods_builds_small():
    # Wide draw 778/99 has dwell periods 2 to 5.  Emitting the anchor graph
    # once per guess of N's residues took it past 100,000 states.
    pta = _wide_draw(778, 99)
    report = cross_check(pta, 12, budget=20_000)
    assert report.agree, report.first_divergence


def test_verdicts_follow_a_residue_check():
    # Without the residue check the dwell progression (4, 3) would admit
    # every N >= 4.
    report = cross_check(_mod3_pta(), 12)
    assert [row["via_poca"] for row in report.per_value] == [n % 3 == 0 for n in range(13)]
    assert report.agree


CRT_MEMBERS = ([(3, 2)], [(3, 2), (4, 3)], [(4, 3), (5, 4)])


@pytest.mark.parametrize("pairs", CRT_MEMBERS, ids=repr)
def test_crt_verdicts_follow_every_residue(pairs):
    # Acceptance needs N = r (mod a) for every (a, r): least N 2, 11 and 19.
    # Without the residue check the first divergence is at N = 6, 12 and 20.
    report = cross_check(crt_pta(pairs), 24)
    assert report.agree, report.first_divergence
    expected = [all(n % a == r for a, r in pairs) for n in range(25)]
    assert [row["via_poca"] for row in report.per_value] == expected


def test_budget_counts_only_kept_states():
    # The walk allocates no state and dead gadgets are never emitted, so a
    # budget of exactly the POCA's size suffices, though most of the gadgets
    # the walk reaches here are dead.
    b = to_zero_one_pta(crt_pta([(4, 3), (5, 4)]))
    assert len(build_poca(b, budget=519).poca.states) == 519
    with pytest.raises(BudgetExceeded):
        build_poca(b, budget=518)


def test_every_state_on_an_accepting_path():
    ptas = [fx.pta for fx in fixture_corpus()] + [crt_pta(pairs) for pairs in CRT_MEMBERS]
    for pta in ptas:
        poca = build_poca(to_zero_one_pta(pta)).poca
        if not poca.finals:
            assert poca.states == {poca.initial} and poca.rules == ()
            continue
        fwd, bwd = {}, {}
        for rule in poca.rules:
            fwd.setdefault(rule.src, []).append(rule.dst)
            bwd.setdefault(rule.dst, []).append(rule.src)
        assert reachable([poca.initial], lambda s: fwd.get(s, ())) == poca.states
        assert reachable(poca.finals, lambda s: bwd.get(s, ())) == poca.states


def test_each_anchor_annotated_once():
    ptas = [fx.pta for fx in fixture_corpus()]
    rng = random.Random(20260809)
    ptas += [random_two_one_pta(rng, max_states=3) for _ in range(110)]
    for pta in ptas:
        res = build_poca(to_zero_one_pta(pta))
        keys = [(m["kappa"], m["slot"], m["bstate"])
                for m in res.annotations.values() if m["role"] == "anchor"]
        assert len(keys) == len(set(keys))


def test_budget_enforced():
    fx = next(f for f in fixture_corpus() if f.name == "even")
    b = to_zero_one_pta(fx.pta)
    with pytest.raises(BudgetExceeded):
        build_poca(b, budget=10)


def test_empty_finals_never_accepts():
    fx = next(f for f in fixture_corpus() if f.name == "never")
    res = build_poca(to_zero_one_pta(fx.pta))
    for n in range(11):
        assert poca_reach_bounded(res.poca, n, 0, 4 * max(n, res.poca.size())) is None


def test_immediate_acceptance_within_offset_envelope():
    # Accepting at the very first configuration keeps the counter inside
    # [0, 2u] where u = max(N, small-branch threshold): the witness only
    # climbs the offset.
    fx = next(f for f in fixture_corpus() if f.name == "always")
    res = build_poca(to_zero_one_pta(fx.pta))
    size = res.poca.size()
    for n in range(9):
        run = poca_reach_bounded(res.poca, n, 0, 4 * max(n, size))
        assert run is not None
        assert all(0 <= v <= 2 * max(n, 2) for v in run.counter_values())


def _log_region_calls(monkeypatch):
    """Log poca_build's calls of its region helpers: (region, guard) counts
    of region_satisfies, (region, automaton) per region_automaton and the
    automaton per region_oca."""
    from collections import Counter

    from ptareach import poca_build

    calls = {"region_satisfies": Counter(), "region_automaton": [], "region_oca": []}

    def classify(region, guard, clock_order, _fn=poca_build.region_satisfies):
        calls["region_satisfies"][region, guard] += 1
        return _fn(region, guard, clock_order)

    def automaton(b, region, _fn=poca_build.region_automaton):
        b_r = _fn(b, region)
        calls["region_automaton"].append((region, b_r))
        return b_r

    def oca(b_r, _fn=poca_build.region_oca):
        calls["region_oca"].append(b_r)
        return _fn(b_r)

    monkeypatch.setattr(poca_build, "region_satisfies", classify)
    monkeypatch.setattr(poca_build, "region_automaton", automaton)
    monkeypatch.setattr(poca_build, "region_oca", oca)
    return calls


def _assert_automata_on_first_ap_miss(calls):
    # One region automaton and one OCA of it per region whose AP table is
    # asked for, and fewer such regions than the build classifies.
    regions = [region for region, _ in calls["region_automaton"]]
    assert len(set(regions)) == len(regions)
    built = [b_r for _, b_r in calls["region_automaton"]]
    assert len(built) == len(calls["region_oca"])
    assert all(a is b for a, b in zip(built, calls["region_oca"]))
    classified = {region for region, _ in calls["region_satisfies"]}
    assert 0 < len(regions) < len(classified) <= 16


def test_region_tables_built_on_first_use(monkeypatch):
    # A region's rules are classified only when the build looks at the
    # region, and its automaton and OCA only when an AP table of the region
    # is asked for.
    calls = _log_region_calls(monkeypatch)
    build_poca(to_zero_one_pta(next(f for f in fixture_corpus() if f.name == "even").pta))
    _assert_automata_on_first_ap_miss(calls)


def test_each_rule_classified_once_per_region(monkeypatch):
    # A region's table is one pass over the 0/1 rules that checks each
    # distinct guard against the region exactly once, however many rules
    # carry the guard and however many anchors the region holds.  Region
    # automata stay lazy on a random draw too.
    calls = _log_region_calls(monkeypatch)
    even = next(f for f in fixture_corpus() if f.name == "even").pta
    rng = random.Random(20260809)
    r6 = [random_two_one_pta(rng, max_states=3) for _ in range(7)][-1]  # acceptance draw r6
    for pta in (even, r6):
        for seen in calls.values():
            seen.clear()
        b = to_zero_one_pta(pta)
        build_poca(b)
        guards = {r.guard for r in b.rules}
        assert len(guards) < len(b.rules)  # some guard has several carriers
        classified = calls["region_satisfies"]
        assert classified and set(classified.values()) == {1}
        for region in {region for region, _ in classified}:
            assert {g for r, g in classified if r is region} == guards
        _assert_automata_on_first_ap_miss(calls)


def test_fixture_equivalence_per_parameter_value():
    for fx in fixture_corpus():
        c_max = max(fx.pta.consts(), default=0)
        res = build_poca(to_zero_one_pta(fx.pta))
        size = res.poca.size()
        for n in range(9):
            direct = pta_reach_bruteforce(fx.pta, n, max(n, c_max) + 1) is not None
            via = poca_reach_bounded(res.poca, n, 0, 4 * max(n, size)) is not None
            assert direct == via == fx.accepts(n), (fx.name, n)


def test_random_equivalence_and_witness_decode():
    rng = random.Random(90210)
    decoded = 0
    for _ in range(40):
        pta = random_two_one_pta(rng)
        b = to_zero_one_pta(pta)
        res = build_poca(b)
        size = res.poca.size()
        c_max = max(pta.consts(), default=0)
        for n in range(7):
            direct = pta_reach_bruteforce(pta, n, max(n, c_max) + 1) is not None
            witness = poca_reach_bounded(res.poca, n, 0, 4 * max(n, size))
            assert direct == (witness is not None), (pta, n)
            if witness is None:
                continue
            b_run = decode_witness(res, n, witness)
            assert validate_run(b_run, b, n) == (True, None)
            assert b_run.configs[-1].state in b.finals
            a_run = zero_one_run_to_pta_run(pta, n, b_run)
            assert validate_run(a_run, pta, n) == (True, None)
            assert a_run.configs[-1].state in pta.finals
            decoded += 1
    assert decoded > 50


def test_no_bound_violations_near_window():
    for fx in fixture_corpus():
        if not fx.in_corpus:
            continue
        res = build_poca(to_zero_one_pta(fx.pta))
        size = res.poca.size()
        for n in (0, 3, 6):
            bound = 4 * max(n, size)
            slack = 2 * n + res.max_gadget_const + 16
            assert find_bound_violation(res.poca, n, bound, slack) is None, (fx.name, n)


def test_gadget_envelopes_hold_on_witnesses():
    # Every value between a gadget's entry and the next anchor must lie in
    # the gadget's declared [alpha*N+beta] envelope.  Beside the random
    # draws, a wide draw with periods 2 to 4 and an automaton whose
    # witnesses pass a residue check of period 3.
    rng = random.Random(424242)
    ptas = [random_two_one_pta(rng) for _ in range(25)] + [_wide_draw(778, 228), _mod3_pta()]
    checked = 0
    residue_checks = 0
    for pta in ptas:
        res = build_poca(to_zero_one_pta(pta))
        size = res.poca.size()
        for n in range(2, 8):
            witness = poca_reach_bounded(res.poca, n, 0, 4 * max(n, size))
            if witness is None:
                continue
            current = None
            for conf, label in zip(witness.configs, witness.labels + (None,)):
                if res.annotation(conf.state).get("role") in ("anchor", "acc"):
                    current = None
                current = res.gadgets.get(label, current)
                if current is not None:
                    assert current.check_value(conf.counter, n), (
                        current.name, conf, n,
                    )
                    checked += 1
            ops = [res.poca.rules[i].op for i in witness.labels]
            residue_checks += any(isinstance(op, ModTest) and op.value >= 3 for op in ops)
    assert checked > 100
    assert residue_checks > 0


class TestNormalizeAcceptingZero:
    def _counting_poca(self, target):
        from ptareach.automata import POCA, AddConst, CmpConst, PocaRule

        rules = (
            PocaRule("q", AddConst(1), "q"),
            PocaRule("q", CmpConst("=", target), "f"),
        )
        return POCA(frozenset({"q", "f"}), frozenset(), rules, "q", frozenset({"f"}))

    def test_accepting_at_five_drains(self):
        c = normalize_accepting_zero(self._counting_poca(5))
        run = poca_reach_bounded(c, 0, 0, 10)
        assert run is not None
        assert run.configs[-1].counter == 0
        drain_steps = sum(
            1 for i in run.labels if c.rules[i].op.__class__.__name__ == "AddConst"
            and c.rules[i].op.value == -1
        )
        assert drain_steps == 5

    def test_accepting_at_zero_unchanged(self):
        c = normalize_accepting_zero(self._counting_poca(0))
        run = poca_reach_bounded(c, 0, 0, 10)
        assert run is not None
        assert run.configs[-1].counter == 0

    def test_negative_acceptance_rejected(self):
        from ptareach.automata import POCA, AddConst, PocaRule

        rules = (PocaRule("q", AddConst(-1), "f"),)
        c = POCA(frozenset({"q", "f"}), frozenset(), rules, "q", frozenset({"f"}))
        normalized = normalize_accepting_zero(c)
        assert poca_reach_bounded(c, 0, -2, 2) is not None
        assert poca_reach_bounded(normalized, 0, -2, 2) is None

    def test_per_value_reachability_preserved(self):
        rng = random.Random(5150)
        for _ in range(20):
            pta = random_two_one_pta(rng)
            res = build_poca(to_zero_one_pta(pta))
            normalized = normalize_accepting_zero(res.poca)
            size = res.poca.size()
            for n in range(5):
                plain = poca_reach_bounded(res.poca, n, 0, 4 * max(n, size))
                drained = poca_reach_bounded(normalized, n, 0, 4 * max(n, size))
                assert (plain is None) == (drained is None)
                if drained is not None:
                    assert drained.configs[-1].counter == 0


def test_small_branch_handles_degenerate_parameters():
    # Parameter values 0 and 1 lack full region geometry; the small branch
    # must still agree with the direct oracle on every fixture.
    for fx in fixture_corpus():
        c_max = max(fx.pta.consts(), default=0)
        res = build_poca(to_zero_one_pta(fx.pta))
        size = res.poca.size()
        for n in (0, 1):
            direct = pta_reach_bruteforce(fx.pta, n, max(n, c_max) + 1) is not None
            via = poca_reach_bounded(res.poca, n, 0, 4 * max(n, size)) is not None
            assert direct == via, (fx.name, n)
            if via:
                witness = poca_reach_bounded(res.poca, n, 0, 4 * max(n, size))
                b_run = decode_witness(res, n, witness)
                assert validate_run(b_run, res.source, n) == (True, None)


def test_small_values_leave_one_entry_state_each():
    # N = 0 and N = 1 are decided while building: the build keeps a 0/1 run
    # for k exactly when the automaton accepts at k, and the branch testing
    # N = k goes straight to the accepting state, so no state of it, and
    # no event header or product, is annotated.
    for fx in fixture_corpus():
        res = build_poca(to_zero_one_pta(fx.pta))
        assert set(res.small_runs) == {k for k in (0, 1) if fx.accepts(k)}, fx.name
        roles = {m["role"] for m in res.annotations.values()}
        assert roles <= {"init", "acc", "anchor"}, fx.name


def test_small_witness_without_a_kept_run_is_a_decode_error():
    # "never" accepts at no N, so the build keeps no run for N = 0; a
    # hand-made witness that stays in the initial state must not decode.
    fx = next(f for f in fixture_corpus() if f.name == "never")
    res = build_poca(to_zero_one_pta(fx.pta))
    assert res.small_runs == {}
    witness = Run("poca", (PocaConfiguration(res.poca.initial, 0),), ())
    with pytest.raises(DecodeError):
        decode_witness(res, 0, witness)


def test_small_witness_decodes_to_the_run_kept_at_build(monkeypatch):
    # The build already ran the 0/1 oracle for N < 2; decoding must not
    # run it again.
    from ptareach import semantics

    accepted = 0
    for fx in fixture_corpus():
        res = build_poca(to_zero_one_pta(fx.pta))
        for n in (0, 1):
            witness = poca_reach_bounded(res.poca, n, 0, 4 * max(n, res.poca.size()))
            if witness is None:
                continue
            with monkeypatch.context() as m:
                m.setattr(semantics, "zero_one_reach_bruteforce", None)
                assert decode_witness(res, n, witness) is res.small_runs[n]
            accepted += 1
    assert accepted > 0


# sha256 of repr((decoded 0/1 run, projected PTA run)) for every witness at
# N <= 8 of GADGET_PTAS, the fixtures and the acceptance corpus's random
# draws.  Decoding must keep it unless a change means to alter the runs.
DECODE_OUTPUT_SHA256 = "6fe25f011effdf0e69df1d7019d910294d2fa269f9250b52d91247247c4590cc"


def test_decode_output_pinned():
    ptas = [(None, fx.pta) for fx in fixture_corpus()] + list(GADGET_PTAS)
    rng = random.Random(20260809)
    ptas += [(None, random_two_one_pta(rng, max_states=3)) for _ in range(110)]
    digest = hashlib.sha256()
    decoded = set()
    for gadget, pta in ptas:
        res = build_poca(to_zero_one_pta(pta))
        size = res.poca.size()
        passed = set()
        for n in range(9):
            witness = poca_reach_bounded(res.poca, n, 0, 4 * max(n, size))
            if witness is None:
                continue
            b_run = decode_witness(res, n, witness)
            a_run = zero_one_run_to_pta_run(pta, n, b_run)
            assert validate_run(a_run, pta, n) == (True, None)
            digest.update(repr((b_run, a_run)).encode())
            passed |= {res.gadgets[i].name for i in witness.labels if i in res.gadgets}
        assert gadget is None or gadget in passed, gadget
        decoded |= {name.partition(":")[2] for name in passed}
    assert digest.hexdigest() == DECODE_OUTPUT_SHA256
    # Every gadget kind the build pin asks the corpus to emit is decoded.
    conds = {cond for edges in CROSSINGS.values() for _, cond in edges if cond}
    assert set(LOCKS) | set(CASES) | conds | {"point", "ur", "exist_then"} <= decoded


# sha256 of the build output on the fixtures and the acceptance corpus's
# random draws.  A change to the POCA construction must update it on purpose.
BUILD_OUTPUT_SHA256 = "cc4a2a8d5678ab7a8c9a6b3644529a519e018d4b3ee8b19f69135bb24f5d9b0c"


def test_build_output_pinned():
    ptas = [fx.pta for fx in fixture_corpus()]
    rng = random.Random(20260809)
    ptas += [random_two_one_pta(rng, max_states=3) for _ in range(110)]
    digest = hashlib.sha256()
    seen = set()
    for pta in ptas:
        res = build_poca(to_zero_one_pta(pta))
        digest.update(serialize.dumps(res.poca).encode())
        digest.update(json.dumps(res.annotations).encode())
        digest.update(json.dumps(res.events).encode())
        digest.update(repr(sorted(res.gadgets.items())).encode())
        seen |= {g.name.partition(":")[2] for g in res.gadgets.values()}
    assert digest.hexdigest() == BUILD_OUTPUT_SHA256
    # The digest vouches for every gadget only if the corpus emits each one.
    conds = {cond for edges in CROSSINGS.values() for _, cond in edges if cond}
    assert set(LOCKS) | set(CASES) | conds | {"point", "ur", "exist_then"} <= seen


def _redundant_states(res) -> int:
    """States minus classes of the coarsest bisimulation that keeps each
    annotated state, the initial state and the finals in a class of its own.

    Partition refinement: split classes by the set of (op, class of the
    successor) pairs of their states until no class splits.
    """
    poca = res.poca
    out = {}
    for rule in poca.rules:
        out.setdefault(rule.src, set()).add((rule.op, rule.dst))
    fixed = set(res.annotations) | {poca.initial} | poca.finals
    cls = {s: s if s in fixed else None for s in poca.states}
    count = len(set(cls.values()))
    while True:
        ids = {}
        cls = {
            s: ids.setdefault((cls[s], frozenset((op, cls[d]) for op, d in out.get(s, ()))),
                              len(ids))
            for s in poca.states
        }
        if len(ids) == count:
            return len(poca.states) - count
        count = len(ids)


def test_poca_is_bisimulation_minimal():
    # Unannotated states are interchangeable when they have the same future:
    # two bisimilar ones mean one of them is redundant.  The emitter names
    # each unannotated state, chain interior or loop hub, by its whole future.
    ptas = [fx.pta for fx in fixture_corpus()]
    rng = random.Random(20260809)
    ptas += [random_two_one_pta(rng, max_states=3) for _ in range(110)]
    results = [build_poca(to_zero_one_pta(pta)) for pta in ptas]
    assert sum(_redundant_states(res) for res in results) == 0
    # Nor is any rule there twice: events whose gadgets coincide share one.
    assert all(len(set(res.poca.rules)) == len(res.poca.rules) for res in results)
