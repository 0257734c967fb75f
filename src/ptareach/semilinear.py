"""Reachable counter values of +0/+1 one-counter automata as AP unions.

A one-counter automaton with only +0/+1 updates is a unary NFA: +1 rules are
letters, +0 rules epsilon moves.  The set of counter values reachable at a
target state from source(0) is a finite union of arithmetic progressions
a + b*N.  Only the relevant states -- reachable from the source and
co-reachable to the target -- can lie on an accepted walk.  Construction:
singletons below |relevant| by layered search, plus one progression per
(period, residue).  The periods are the shortest cycle lengths b_s of the
cyclic states s.  For each period b, the offset at residue r is the least
weight congruent to r mod b of an accepted walk through some s with
b_s = b, found by one breadth-first search over (state, weight mod b,
passed such an s).  An accepted walk of weight w >= |relevant| visits some
relevant state s twice, so s is cyclic and the walk passes it: the offset
for b_s and w mod b_s is at most w, and w lies in that progression.
Minimal offsets stay below 2|Q|^2 because a longer minimal witness would
contain an excisable cycle-multiple on one side of its s-visit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import POCA, AddConst
from .semantics import reachable, shortest_path


class CapViolation(Exception):
    """The construction exceeded the advertised caps; indicates a bug."""


@dataclass(frozen=True)
class APSet:
    """Normalized finite union of arithmetic progressions.

    Pairs (a, b) with period b >= 1 denote {a, a+b, a+2b, ...}; period 0
    encodes the singleton {a}.  Normal form: sorted, no pair subsumed by
    another.
    """

    pairs: tuple

    @classmethod
    def from_pairs(cls, pairs) -> "APSet":
        return cls(_normalize(pairs))

    def __contains__(self, t: int) -> bool:
        return apset_member(self, t)

    def is_empty(self) -> bool:
        return not self.pairs

    def max_offset(self) -> int:
        return max((a for a, _ in self.pairs), default=0)

    def periods(self) -> tuple:
        return tuple(sorted({b for _, b in self.pairs if b >= 1}))


def _normalize(pairs) -> tuple:
    """Sorted distinct pairs, minus those whose set another pair contains.

    (a, b) lies inside (a2, b2) with b2 >= 1 iff b2 divides b (or b = 0),
    a2 <= a and a2 = a (mod b2), so each pair is compared only with the
    least offset of each period at its residue.
    """
    todo = sorted(set(pairs))
    least = {}
    for a, b in todo:
        if b >= 1:
            least.setdefault(b, {}).setdefault(a % b, a)
    return tuple(pair for pair in todo if not _covered(pair, least))


def _covered(pair, least) -> bool:
    a, b = pair
    for b2, by_residue in least.items():
        if b != 0 and b % b2 != 0:
            continue
        a2 = by_residue.get(a % b2)
        if a2 is not None and a2 <= a and (a2, b2) != pair:
            return True
    return False


def apset_member(s: APSet, t: int) -> bool:
    if t < 0:
        return False
    for a, b in s.pairs:
        if b == 0:
            if t == a:
                return True
        elif t >= a and (t - a) % b == 0:
            return True
    return False


def apset_contains_zero(s: APSet) -> bool:
    return apset_member(s, 0)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def letter_graph(oca: POCA):
    """Left-epsilon-closed letter edges plus epsilon ancestry per state.

    Returns (succ, eps_reach) where succ[s] is the set of states reachable
    with exactly one +1 rule after any number of +0 rules, and eps_reach[s]
    the states reachable by +0 rules alone (including s).
    """
    eps, ones = {}, {}
    for rule in oca.rules:
        if not isinstance(rule.op, AddConst) or rule.op.value not in (0, 1):
            raise ValueError(f"unsupported operation for a +0/+1 automaton: {rule.op}")
        target = ones if rule.op.value == 1 else eps
        target.setdefault(rule.src, set()).add(rule.dst)

    eps_reach = {s: reachable([s], lambda u: eps.get(u, ())) for s in oca.states}
    succ = {
        s: {w for u in eps_reach[s] for w in ones.get(u, ())} for s in oca.states
    }
    return succ, eps_reach


def _restrict(succ, eps_reach, source, target):
    """(accept, relevant): the states reachable from the source whose epsilon
    closure holds the target, and the states on a walk from the source to one."""
    fwd = reachable([source], succ.__getitem__)
    accept = {u for u in fwd if target in eps_reach[u]}
    pred = {}
    for u in fwd:
        for v in succ[u]:
            pred.setdefault(v, []).append(u)
    return accept, reachable(accept, lambda v: pred.get(v, ()))


def _shortest_cycle_lengths(edges) -> dict:
    """Length of the shortest letter-cycle through each node (absent if none).

    The search starts from a virtual node None whose successors are those
    of s, and stops when it reaches s.
    """
    out = {}
    for s in edges:
        found = shortest_path(
            None, lambda u: ((None, v) for v in edges[s if u is None else u]), lambda u: u == s
        )
        if found is not None:
            out[s] = len(found[1])
    return out


def _min_weight_per_residue(edges, source, modulus, marked) -> dict:
    """Least letter-walk weight from the source per (node, weight mod modulus,
    passed) class, where passed tells whether the walk has visited a marked
    node (the source included).

    Every letter weighs 1, so breadth-first order reaches each class first
    at its least weight.
    """
    start = (source, 0, source in marked)
    dist = {start: 0}

    def successors(key):
        u, r, passed = key
        d = dist[key] + 1
        for v in edges[u]:
            nxt = (v, (r + 1) % modulus, passed or v in marked)
            dist.setdefault(nxt, d)
            yield nxt

    reachable([start], successors)
    return dist


def reach_lengths(oca: POCA, source: str, target: str, graph=None) -> APSet:
    """The set {n : source(0) reaches target(n)} as a normalized APSet.

    The input must have +0/+1 updates only (no tests, no parameters).
    Enforced caps relative to n = |Q|: offsets <= 2n^2, periods <= n, and at
    most 4n^2 progressions; exceeding them raises CapViolation.  ``graph`` is
    ``letter_graph(oca)``, for callers asking about many pairs of one
    automaton; it is computed here when omitted.
    """
    if oca.params:
        raise ValueError("reach_lengths expects a parameter-free automaton")
    if source not in oca.states or target not in oca.states:
        raise ValueError("source/target must be declared states")
    succ, eps_reach = graph if graph is not None else letter_graph(oca)
    n = len(oca.states)

    accept, relevant = _restrict(succ, eps_reach, source, target)
    if source not in relevant:
        return APSet.from_pairs(())
    edges = {u: {v for v in succ[u] if v in relevant} for u in relevant}

    # Membership for weights below |relevant|, by layered subset search.  A
    # longer accepted walk revisits a relevant state v, which then lies on a
    # cycle; the progression built below for v's period at the walk's residue
    # has an offset no larger than the walk's weight, so it covers that weight.
    pairs = []
    layer = {source}
    for t in range(len(relevant)):
        if layer & accept:
            pairs.append((t, 0))
        layer = {v for u in layer for v in edges[u]}
        if not layer:
            break

    cycle_len = _shortest_cycle_lengths(edges)
    for b in sorted(set(cycle_len.values())):
        marked = {s for s, b_s in cycle_len.items() if b_s == b}
        dist = _min_weight_per_residue(edges, source, b, marked)
        pairs.extend((d, b) for (u, _, passed), d in dist.items() if passed and u in accept)

    result = APSet.from_pairs(pairs)
    _enforce_caps(result, n)
    return result


def _enforce_caps(s: APSet, n: int) -> None:
    if len(s.pairs) > 4 * n * n:
        raise CapViolation(f"{len(s.pairs)} progressions exceed 4*|Q|^2")
    for a, b in s.pairs:
        if a > 2 * n * n:
            raise CapViolation(f"offset {a} exceeds 2*|Q|^2 = {2 * n * n}")
        if b > n:
            raise CapViolation(f"period {b} exceeds |Q| = {n}")
