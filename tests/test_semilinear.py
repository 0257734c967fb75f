"""Arithmetic-progression reachability sets for +0/+1 counter automata."""

import heapq
import math
import random
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ptareach import poca_build, semilinear
from ptareach.automata import POCA, AddConst, AddParam, PocaRule
from ptareach.fixtures import crt_pta, random_unary_oca
from ptareach.semilinear import (
    APSet,
    _min_weight_per_residue,
    _normalize,
    _shortest_cycle_lengths,
    apset_contains_zero,
    apset_member,
    letter_graph,
    reach_lengths,
)
from ptareach.zero_one import to_zero_one_pta


def _oca(rules, states, initial):
    return POCA(frozenset(states), frozenset(), tuple(rules), initial, frozenset())


def _bfs_lengths(oca, source, target, t_max):
    """Independent oracle: layered search over (state, exact counter)."""
    hits = set()
    layer = {source}
    seen_eps = set()
    # epsilon closure helper
    eps = {}
    ones = {}
    for r in oca.rules:
        (eps if r.op.value == 0 else ones).setdefault(r.src, set()).add(r.dst)

    def close(states):
        out = set(states)
        stack = list(states)
        while stack:
            u = stack.pop()
            for v in eps.get(u, ()):
                if v not in out:
                    out.add(v)
                    stack.append(v)
        return out

    layer = close(layer)
    for t in range(t_max + 1):
        if target in layer:
            hits.add(t)
        layer = close({v for u in layer for v in ones.get(u, ())})
        if not layer:
            break
    return hits


def _normalize_all_pairs(pairs) -> tuple:
    """Reference normal form: drop each pair whose set another pair contains,
    testing every pair against every other one."""

    def subsumed(pair, other):
        (a, b), (a2, b2) = pair, other
        if pair == other or b2 < 1:
            return False
        if b != 0 and b % b2 != 0:
            return False
        return a >= a2 and (a - a2) % b2 == 0

    todo = sorted(set(pairs))
    return tuple(p for p in todo if not any(subsumed(p, o) for o in todo if o != p))


@st.composite
def _pair_lists(draw):
    """Pairs with offsets < 60 and periods 0..12, plus duplicates, singletons
    inside a drawn progression and equal-period chains a, a + b, a + 2b."""
    pair = st.tuples(st.integers(0, 59), st.integers(0, 12))
    pairs = draw(st.lists(pair, max_size=12))
    for a, b in draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else ():
        k = draw(st.integers(0, 4))
        kind = draw(st.sampled_from(("duplicate", "singleton", "chain")))
        if kind == "duplicate":
            pairs.append((a, b))
        elif a + k * b < 60:
            pairs.append((a + k * b, 0 if kind == "singleton" else b))
    return draw(st.permutations(pairs))


class TestApsetMembership:
    def test_progression(self):
        s = APSet.from_pairs([(1, 3)])
        assert apset_member(s, 7)
        assert not apset_member(s, 2)

    def test_singleton_encoding(self):
        s = APSet.from_pairs([(0, 0)])
        assert apset_member(s, 0)
        assert not apset_member(s, 1)

    def test_contains_zero(self):
        assert apset_contains_zero(APSet.from_pairs([(0, 5)]))
        assert not apset_contains_zero(APSet.from_pairs([(2, 1)]))
        assert not apset_contains_zero(APSet.from_pairs([]))

    def test_normalization_subsumes(self):
        s = APSet.from_pairs([(0, 2), (2, 2), (4, 0), (1, 0)])
        assert s.pairs == ((0, 2), (1, 0))

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 6)), max_size=6
        ),
        st.integers(0, 60),
    )
    def test_normalization_preserves_membership(self, pairs, t):
        raw = APSet(tuple(pairs))
        normalized = APSet.from_pairs(pairs)
        assert apset_member(raw, t) == apset_member(normalized, t)

    @given(_pair_lists())
    def test_normalization_matches_all_pairs_reference(self, pairs):
        assert _normalize(pairs) == _normalize_all_pairs(pairs)


class TestReachLengths:
    def test_self_loop(self):
        c = _oca([PocaRule("q", AddConst(1), "q")], {"q"}, "q")
        assert reach_lengths(c, "q", "q").pairs == ((0, 1),)

    def test_even_lengths(self):
        rules = [
            PocaRule("q", AddConst(1), "r"),
            PocaRule("r", AddConst(1), "q"),
            PocaRule("q", AddConst(0), "f"),
        ]
        c = _oca(rules, {"q", "r", "f"}, "q")
        s = reach_lengths(c, "q", "f")
        expected = _bfs_lengths(c, "q", "f", 20)
        for t in range(21):
            assert apset_member(s, t) == (t in expected)
        assert s.pairs == ((0, 2),)

    def test_layered_search_stops_at_relevant_states(self, monkeypatch):
        # Isolated states lengthen no walk: the layered search visits only
        # states on no cycle, and a walk through those repeats none, so it
        # stops by itself instead of emitting a singleton per layer up to
        # |Q|^2 for the normalization to throw away.
        raw = []
        monkeypatch.setattr(
            "ptareach.semilinear._normalize", lambda pairs: raw.extend(pairs) or _normalize(pairs)
        )
        rules = [PocaRule("s", AddConst(1), "s"), PocaRule("s", AddConst(0), "t")]
        c = _oca(rules, {"s", "t"} | {f"pad{i}" for i in range(40)}, "s")
        assert reach_lengths(c, "s", "t").pairs == ((0, 1),)
        assert [(t, b) for t, b in raw if b == 0 and t >= 1] == []

    def test_unreachable_pair(self):
        c = _oca([PocaRule("q", AddConst(1), "q")], {"q", "island"}, "q")
        assert reach_lengths(c, "q", "island").is_empty()

    def test_rejects_parametric_input(self):
        c = POCA(
            frozenset({"q"}),
            frozenset({"p"}),
            (PocaRule("q", AddParam(1, "p"), "q"),),
            "q",
            frozenset(),
        )
        with pytest.raises(ValueError):
            reach_lengths(c, "q", "q")


def _random_oca(rng, max_states=6):
    n = rng.randrange(1, max_states + 1)
    states = [f"s{i}" for i in range(n)]
    rules = []
    for _ in range(rng.randrange(0, 2 * n + 3)):
        op = AddConst(rng.choice([0, 1]))
        rules.append(PocaRule(rng.choice(states), op, rng.choice(states)))
    return _oca(rules, states, states[0])


def test_oracle_equivalence_random():
    rng = random.Random(31337)
    for trial in range(250):
        oca = _random_oca(rng)
        n = len(oca.states)
        states = sorted(oca.states)
        source = rng.choice(states)
        target = rng.choice(states)
        s = reach_lengths(oca, source, target)
        periods = s.periods()
        wheel = math.lcm(*periods) if periods else 1
        t_max = 3 * n * n + 2 * wheel
        truth = _bfs_lengths(oca, source, target, t_max)
        for t in range(t_max + 1):
            assert apset_member(s, t) == (t in truth), (trial, t)
        # Cap compliance (also enforced inside reach_lengths).
        assert len(s.pairs) <= 4 * n * n
        for a, b in s.pairs:
            assert a <= 2 * n * n
            assert b <= n


def test_eventual_periodicity_witness():
    rng = random.Random(999)
    for _ in range(60):
        oca = _random_oca(rng)
        states = sorted(oca.states)
        s = reach_lengths(oca, states[0], states[-1])
        periods = s.periods()
        if not periods:
            continue
        wheel = math.lcm(*periods)
        start = s.max_offset() + 1
        for t in range(start, start + 2 * wheel):
            assert apset_member(s, t) == apset_member(s, t + wheel)


# The reference construction reach_lengths must reproduce: a per-node BFS for
# the shortest cycles, Dijkstra over (node, weight residue) for forward and
# backward least weights, and a pairing of the two tables per (cyclic state,
# residue).  _normalize keeps only the least offset per (period, residue),
# the least pairing over the states of that period, so one residue search
# per period must give exactly these pairs.


def _reference_cycle_lengths(edges) -> dict:
    out = {}
    for s in edges:
        dist = {s: 0}
        queue = deque([s])
        best = None
        while queue:
            u = queue.popleft()
            for v in edges[u]:
                if v == s:
                    best = dist[u] + 1 if best is None else min(best, dist[u] + 1)
                elif v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if best is not None:
            out[s] = best
    return out


def _reference_min_weights(edges, start_set, modulus) -> dict:
    dist = {(s, 0): 0 for s in start_set}
    heap = [(0, s, 0) for s in start_set]
    heapq.heapify(heap)
    while heap:
        d, u, r = heapq.heappop(heap)
        if dist.get((u, r)) != d:
            continue
        for v in edges[u]:
            key = (v, (r + 1) % modulus)
            if d + 1 < dist.get(key, float("inf")):
                dist[key] = d + 1
                heapq.heappush(heap, (d + 1, v, key[1]))
    return dist


def _reference_marked_min_weights(edges, source, modulus, marked) -> dict:
    """Dijkstra over (node, weight residue, passed a marked node)."""
    start = (source, 0, source in marked)
    dist = {start: 0}
    heap = [(0, start)]
    while heap:
        d, key = heapq.heappop(heap)
        if dist[key] != d:
            continue
        u, r, passed = key
        for v in edges[u]:
            nxt = (v, (r + 1) % modulus, passed or v in marked)
            if d + 1 < dist.get(nxt, float("inf")):
                dist[nxt] = d + 1
                heapq.heappush(heap, (d + 1, nxt))
    return dist


def _reference_reach_lengths(oca, source, target) -> tuple:
    graph = letter_graph(oca)
    succ, eps_reach = graph.succ, graph.eps_reach
    accept = {s for s in oca.states if target in eps_reach[s]}
    fwd, stack = {source}, [source]
    while stack:
        for v in succ[stack.pop()]:
            if v not in fwd:
                fwd.add(v)
                stack.append(v)
    relevant, stack = set(accept & fwd), list(accept & fwd)
    while stack:
        v = stack.pop()
        for u in fwd:
            if v in succ[u] and u not in relevant:
                relevant.add(u)
                stack.append(u)
    if source not in relevant:
        return ()
    edges = {u: succ[u] & relevant for u in relevant}
    redges = {v: {u for u in relevant if v in edges[u]} for v in relevant}
    pairs, layer = [], {source}
    for t in range(len(relevant)):
        if layer & accept:
            pairs.append((t, 0))
        layer = {v for u in layer for v in edges[u]}
    cycle_len = _reference_cycle_lengths(edges)
    for b in set(cycle_len.values()):
        fwd_w = _reference_min_weights(edges, {source}, b)
        bwd_w = _reference_min_weights(redges, accept & relevant, b)
        for s in (s for s, b_s in cycle_len.items() if b_s == b):
            for rho in range(b):
                sums = [
                    fwd_w[s, r1] + bwd_w[s, (rho - r1) % b]
                    for r1 in range(b)
                    if (s, r1) in fwd_w and (s, (rho - r1) % b) in bwd_w
                ]
                if sums:
                    pairs.append((min(sums), b))
    return _normalize(pairs)


def test_kernel_searches_match_reference_searches():
    # Every letter weighs 1, so breadth-first distances equal Dijkstra's:
    # the kernel-based helpers and reach_lengths must agree exactly with
    # the reference copies, on every (source, target) pair of each draw.
    rng = random.Random(8086)
    compared = 0
    for _ in range(150):
        oca = random_unary_oca(rng, max_states=8)
        graph = letter_graph(oca)
        succ = graph.succ
        assert _shortest_cycle_lengths(succ) == _reference_cycle_lengths(succ)
        for b in (1, 2, 3, 5):
            for marked in (set(), {"s0"}, set(oca.states)):
                assert _min_weight_per_residue(
                    succ, "s0", b, marked
                ) == _reference_marked_min_weights(succ, "s0", b, marked)
        for source in sorted(oca.states):
            for target in sorted(oca.states):
                got = reach_lengths(oca, source, target, graph).pairs
                assert got == _reference_reach_lengths(oca, source, target), (oca, source, target)
                compared += bool(got)
    assert compared > 500


@pytest.mark.parametrize("pairs", [[(3, 2), (4, 3)], [(4, 3), (5, 4)]])
def test_crt_build_calls_match_reference(monkeypatch, pairs):
    # The random draws above have at most 8 states; these builds ask about
    # region automata of 154 and 190 states with periods up to 12 and 20.
    calls = []

    def recording(oca, source, target, graph=None):
        result = reach_lengths(oca, source, target, graph)
        calls.append((oca, source, target, result.pairs))
        return result

    monkeypatch.setattr(poca_build, "reach_lengths", recording)
    poca_build.build_poca(to_zero_one_pta(crt_pta(pairs)))
    assert len(calls) > 500
    for oca, source, target, got in calls:
        assert got == _reference_reach_lengths(oca, source, target), (source, target)


def test_crt_build_searches_each_graph_and_source_once(monkeypatch):
    # One cycle search per letter graph, i.e. per region OCA, and one residue
    # search per (graph, source, period), shared by every target asked about
    # that source.  Recording the searched graphs keeps their ids distinct.
    region_oca = poca_build.region_oca
    cycles, residues = semilinear._shortest_cycle_lengths, semilinear._min_weight_per_residue
    ocas, graphs, searches = [], [], []
    monkeypatch.setattr(poca_build, "region_oca", lambda b: ocas.append(b) or region_oca(b))
    monkeypatch.setattr(
        semilinear, "_shortest_cycle_lengths", lambda edges: graphs.append(edges) or cycles(edges)
    )
    monkeypatch.setattr(
        semilinear,
        "_min_weight_per_residue",
        lambda edges, source, modulus, marked: searches.append((edges, source, modulus))
        or residues(edges, source, modulus, marked),
    )
    poca_build.build_poca(to_zero_one_pta(crt_pta([(3, 2), (4, 3)])))
    assert len(graphs) == len(ocas) > 0
    keys = [(id(edges), source, modulus) for edges, source, modulus in searches]
    assert keys and len(set(keys)) == len(keys)
